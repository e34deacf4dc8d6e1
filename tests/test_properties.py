"""Property tests at the two outside-input boundaries: run-config JSON and
checkpoint bytes.  Each may only be refused with the library's own error
or be accepted whole."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppvit import (CheckpointError, ConfigError, build_model, config_to_dict,
                   load_checkpoint, preset, save_checkpoint)
from ppvit import cli

# derandomized so a tier-1 run always tries the same cases
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

PRESET_RUN = {
    "model": {"preset": "nano", "num_classes": 2, "use_rpe": False},
    "model_seed": 0,
    "data": {"kind": "blobs", "num_samples": 8, "image_size": 32,
             "num_classes": 2, "seed": 3},
    "train": {"lr": 1e-3, "weight_decay": 0, "total_steps": 3, "batch_size": 4},
    "out_dir": "runs/x",
}
EXPLICIT_RUN = {"model": config_to_dict(preset("nano", num_classes=2, pool_sizes=(1, 2))),
                "train": {"seed": 1}}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(0, 64) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(["avg", "max", "mlp", "nano", "stripes"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)


def _objects(node):
    """Every JSON object in ``node``, itself included."""
    if isinstance(node, dict):
        yield node
        for v in node.values():
            yield from _objects(v)
    elif isinstance(node, list):
        for v in node:
            yield from _objects(v)


def _like(value):
    """JSON values of the same type as ``value``."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return st.integers(-2, 2 ** 40)
    if isinstance(value, float):
        return st.floats()
    if isinstance(value, str):
        return st.sampled_from(["avg", "max", "mlp", "gelu", "nano", "stripes"]) | st.text()
    if isinstance(value, list):
        return st.lists(st.integers(-1, 8), max_size=4)
    return json_values


@st.composite
def run_configs(draw):
    """A valid run config with up to three edits anywhere in the tree: a
    field set to another value of its type or to any JSON value, a field
    deleted, or an unknown field added."""
    raw = copy.deepcopy(draw(st.sampled_from([PRESET_RUN, EXPLICIT_RUN])))
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from(list(_objects(raw))))
        edit = ["retype"] * 6 + ["any", "delete", "add"]
        edit = edit[draw(st.integers(0, len(edit) - 1))]
        if edit == "add" or not obj:
            obj[draw(st.text(max_size=3))] = draw(json_values)
            continue
        key = draw(st.sampled_from(sorted(obj)))
        if edit == "delete":
            del obj[key]
        else:
            obj[key] = draw(_like(obj[key]) if edit == "retype" else json_values)
    return raw


@PROPERTY
@given(raw=run_configs())
def test_run_config_is_refused_or_round_trips(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(raw))
        try:
            run = cli.load_run_config(path)
        except ConfigError:
            return
        effective = json.dumps(config_to_dict(run), indent=2, sort_keys=True)
        path.write_text(effective)
        again = cli.load_run_config(path)
    assert again == run
    assert json.dumps(config_to_dict(again), indent=2, sort_keys=True) == effective


@pytest.fixture(scope="module")
def nano_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "nano.ckpt"
    save_checkpoint(build_model(preset("nano", num_classes=2), seed=3), path)
    blob = path.read_bytes()
    manifest_end = 16 + int.from_bytes(blob[8:16], "little")
    return path, blob, manifest_end


def _load_refused_or_whole(path, blob):
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except (CheckpointError, ConfigError):
        pass


@PROPERTY
@given(data=st.data())
def test_truncated_checkpoint_is_refused(nano_checkpoint, data):
    path, blob, manifest_end = nano_checkpoint
    cut = data.draw(st.integers(0, manifest_end) | st.integers(0, len(blob) - 1))
    _load_refused_or_whole(path, blob[:cut])


@PROPERTY
@given(data=st.data())
def test_bit_flipped_checkpoint_is_refused_or_loads(nano_checkpoint, data):
    # the header and manifest are a small share of the file, so half the
    # draws go there
    path, blob, manifest_end = nano_checkpoint
    bit = data.draw(st.integers(0, 8 * manifest_end - 1) | st.integers(0, 8 * len(blob) - 1))
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    _load_refused_or_whole(path, bytes(flipped))
