"""The benchmark's span tracer (perfbench/tracer.py) still finds the library
functions it wraps, so a refactor that moves them fails here rather than in
a traced benchmark run."""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import ppvit.model as M
from ppvit import Tensor, build_model, preset
from ppvit.complexity import count_flops

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# MACs the tracer counts per accountant scope for one micro B=1 @32
# forward_classify: conv MACs under conv2d, linear and attention MACs under
# matmul, nothing for pooling.  A kernel that routed its products through
# another counted op, or hid them from the tracer, changes these.
MICRO32_COUNTED_MACS = {"stem": 75264, "stages.1": 58272, "stages.2": 53456,
                        "stages.3": 37176, "stages.4": 16032, "head": 128}


def _import_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def _traced_forward(cfg, size, batch=1):
    """One traced forward_classify: the tracer and its forward MACs per scope."""
    tracer = _import_tracer()
    net = build_model(cfg, seed=0)
    x = Tensor(np.random.default_rng(0)
               .uniform(size=(batch, size, size, 3)).astype(np.float32))
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.iteration_span(0):
            M.forward_classify(net, x)
    finally:
        spans.uninstall()
    counted = Counter()
    for *_, attrs in spans.spans:
        if attrs is not None and not attrs.get("bwd"):
            counted[attrs["scope"]] += attrs["macs"]
    return spans, counted


def test_traced_forward_records_conv_and_pool_spans():
    tracer = _import_tracer()
    net = build_model(preset("nano", num_classes=4), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(1, 32, 32, 3)).astype(np.float32))
    spans = tracer.Tracer()
    spans.install()
    try:
        M.forward_classify(net, x)
    finally:
        spans.uninstall()
    names = {span[0] for span in spans.spans}
    assert {"tensor.conv2d_dw", "tensor.conv2d_dense", "tensor.pool"} <= names, names
    assert tracer.find_wrappers() == []


def test_counted_macs_per_scope_match_the_accountant():
    cfg = preset("micro", num_classes=4)
    spans, counted = _traced_forward(cfg, 32)
    analytic = {row.scope: row.flops for row in count_flops(cfg, (32, 32)).per_stage()}
    _, scopes_seen = spans.aggregate()
    assert scopes_seen == set(analytic) == set(counted)
    for scope, flops in analytic.items():
        assert counted[scope] <= flops, (scope, counted[scope], flops)
    assert dict(counted) == MICRO32_COUNTED_MACS


SWITCHES = [{}, {"pool_mode": "max"}, {"use_rpe": False}, {"ffn_kind": "mlp"},
            {"pool_sizes": (1, 2)}]
EQUALITY_CASES = [(name, o, 32, 1) for name in ("micro", "nano") for o in SWITCHES]
EQUALITY_CASES += [("micro", {}, 64, 3), ("tiny", {}, 224, 1)]


@pytest.mark.parametrize(
    "name,overrides,size,batch", EQUALITY_CASES,
    ids=[f"{n}-{s}px-B{b}-" + (",".join(f"{k}={v}" for k, v in o.items()) or "default")
         for n, o, s, b in EQUALITY_CASES])
def test_accountant_flops_equal_the_traced_macs(name, overrides, size, batch):
    # the accountant counts only MACs, each in the scope the tracer charges it
    cfg = preset(name, num_classes=4, **overrides)
    _, counted = _traced_forward(cfg, size, batch)
    analytic = {row.scope: row.flops * batch
                for row in count_flops(cfg, (size, size)).per_stage()}
    assert dict(counted) == analytic
