"""Backbone assembly, presets, forward contract, checkpoint format."""

import re

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ppvit import (CheckpointError, ConfigError, ModelConfig, NonFiniteError, ShapeError,
                   StageConfig, SyntheticDataset, Tensor, build_model, count_params,
                   forward_classify, forward_features, load_batch, load_checkpoint,
                   no_grad, preset, save_checkpoint)
from ppvit import tensor as T
from ppvit.complexity import REFERENCE_PARAMS
from ppvit.model import (EMBED_GEOMETRY, INPUT_MULTIPLE, PRESET_NAMES,
                         config_from_dict, config_to_dict)


def micro_model(seed=0, **overrides):
    return build_model(preset("micro", num_classes=4, **overrides), seed=seed)


def rand_images(rng, b=1, size=32, channels=3):
    return Tensor(rng.uniform(0, 1, size=(b, size, size, channels))
                  .astype(np.float32))


class TestBuildDeterminism:
    def test_same_seed_bit_identical(self):
        a, b = micro_model(seed=5), micro_model(seed=5)
        for (name_a, pa), (name_b, pb) in zip(a.named_params(), b.named_params()):
            assert name_a == name_b
            npt.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a, b = micro_model(seed=5), micro_model(seed=6)
        diffs = sum(not np.array_equal(pa.data, pb.data)
                    for pa, pb in zip(a.params(), b.params()))
        assert diffs > 0

    def test_forward_deterministic(self, rng):
        net = micro_model()
        x = rand_images(rng)
        with no_grad():
            y1 = forward_classify(net, x)
            y2 = forward_classify(net, x)
        npt.assert_array_equal(y1.data, y2.data)

    def test_param_names_unique(self):
        names = [n for n, _ in micro_model().named_params()]
        assert len(names) == len(set(names))


def reachable_tensors(obj, seen=None):
    """Every Tensor reachable through attributes, lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = list(vars(obj).values())
    else:
        return []
    return [t for c in children for t in reachable_tensors(c, seen)]


class TestParamWalk:
    def test_every_reachable_tensor_named_exactly_once(self):
        net = micro_model()
        named = [id(p) for _, p in net.named_params()]
        assert len(named) == len(set(named))
        assert set(named) == {id(t) for t in reachable_tensors(net)}

    def test_names_are_field_paths(self):
        net = micro_model()
        # stages are numbered from 1; blocks, like every list, from 0
        root = {"stem": net.stem, "stages": [None] + net.stages,
                "head": {"ln": net.head_ln, "fc": net.head_fc}}
        for name, p in net.named_params():
            obj = root
            for part in name.split("."):
                obj = (obj[int(part)] if isinstance(obj, list) else
                       obj[part] if isinstance(obj, dict) else getattr(obj, part))
            assert obj is p, name

    @pytest.mark.parametrize("use_rpe", [True, False])
    @pytest.mark.parametrize("ffn_kind", ["irb", "mlp"])
    def test_optional_records_follow_the_switches(self, use_rpe, ffn_kind):
        for switches in ({}, {"pool_mode": "max", "act": "gelu", "pool_sizes": (1, 2)}):
            net = micro_model(use_rpe=use_rpe, ffn_kind=ffn_kind, **switches)
            for i, stage in enumerate(net.stages):
                assert all(blk.attn.cfg == net.cfg.attn_config(i) for blk in stage.blocks)
            blocks = [blk for stage in net.stages for blk in stage.blocks]
            assert all(blk.ffn.act == net.cfg.act for blk in blocks)
            assert all((blk.attn.rpe is None) == (not use_rpe) for blk in blocks)
            assert all((blk.ffn.dw is None) == (ffn_kind == "mlp") for blk in blocks)
            names = [n for n, _ in net.named_params()]
            assert any(".attn.rpe." in n for n in names) == use_rpe
            assert any(".ffn.dw." in n for n in names) == (ffn_kind == "irb")


class TestGeometry:
    def test_build_follows_the_embed_geometry_table(self):
        net = micro_model()
        embeds = [net.stem] + [st.embed for st in net.stages[1:]]
        assert ([(e.conv.weight.shape[-1], e.stride, e.padding) for e in embeds]
                == list(EMBED_GEOMETRY))
        assert INPUT_MULTIPLE == 32

    def test_stride_ladder_64(self, rng):
        net = micro_model()
        with no_grad():
            pyr = forward_features(net, rand_images(rng, size=64))
        assert [m.shape for m in pyr] == [(1, 16, 16, 8), (1, 8, 8, 16),
                                          (1, 4, 4, 24), (1, 2, 2, 32)]

    def test_doubling_input_quadruples_tokens(self, rng):
        net = micro_model()
        with no_grad():
            small = forward_features(net, rand_images(rng, size=32))
            big = forward_features(net, rand_images(rng, size=64))
        for s, b in zip(small, big):
            (sh, sw), (bh, bw) = s.shape[1:3], b.shape[1:3]
            assert bh == 2 * sh and bw == 2 * sw
            assert bh * bw == 4 * sh * sw and b.shape[3] == s.shape[3]

    def test_batch_permutation_equivariance(self, rng):
        net = micro_model()
        x = rand_images(rng, b=3)
        perm = [2, 0, 1]
        with no_grad():
            base = forward_features(net, x)
            shuffled = forward_features(net, Tensor(x.data[perm]))
        for m, m_p in zip(base, shuffled):
            npt.assert_array_equal(m_p.data, m.data[perm])

    def test_rejects_wrong_channel_count(self, rng):
        with pytest.raises(ShapeError):
            forward_features(micro_model(), rand_images(rng, channels=4))

    def test_rejects_non_multiple_of_32(self, rng):
        x = Tensor(rng.uniform(size=(1, 48, 48, 3)).astype(np.float32))
        with pytest.raises(ShapeError, match="multiples of 32"):
            forward_features(micro_model(), x)

    def test_non_finite_pixel_is_named_at_the_stem_conv(self, rng):
        # no layout op runs before the stem, so its conv's check sees the image
        x = rand_images(rng)
        x.data[0, 5, 7, 1] = np.nan
        with pytest.raises(NonFiniteError, match="'conv2d'"):
            forward_classify(micro_model(), x)

    def test_rejects_3d_input(self):
        with pytest.raises(ShapeError):
            forward_features(micro_model(), Tensor(np.zeros((32, 32, 3))))

    @pytest.mark.parametrize("model_dtype,input_dtype", [(np.float32, np.float64),
                                                         (np.float64, np.float32)])
    def test_rejects_an_input_of_another_dtype(self, rng, model_dtype, input_dtype):
        # run anyway, a float64 image would turn an f32 model's forward, and
        # every gradient, into float64
        net = build_model(preset("nano", num_classes=4), seed=0, dtype=model_dtype)
        x = Tensor(rng.uniform(size=(2, 32, 32, 3)), dtype=input_dtype)
        names = f"{np.dtype(input_dtype).name} is not the model's {np.dtype(model_dtype).name}"
        with pytest.raises(ShapeError, match=names):
            forward_classify(net, x)

    @pytest.mark.parametrize("call,match", [
        (lambda: forward_features(micro_model(), Tensor(np.zeros((0, 32, 32, 3)))),
         "batch is empty"),
        (lambda: T.cross_entropy_logits(Tensor(np.zeros((0, 4))), []), "nonempty batch"),
    ], ids=["forward_features", "cross_entropy_logits"])
    def test_empty_batch_refused(self, call, match):
        with pytest.raises(ShapeError, match=match):
            call()


class TestHead:
    def test_logits_match_hand_computed_head(self, rng):
        """forward_classify must equal: LN over B4 tokens, token mean, linear."""
        net = micro_model()
        x = rand_images(rng, b=2)
        with no_grad():
            pyr = forward_features(net, x)
            logits = forward_classify(net, x)
        b4 = pyr[3].data
        normed = oracles.layer_norm_loops(
            b4.reshape(2, -1, b4.shape[3]), net.head_ln.gamma.data, net.head_ln.beta.data)
        ref = normed.mean(axis=1) @ net.head_fc.weight.data + net.head_fc.bias.data
        npt.assert_allclose(logits.data, ref, rtol=1e-4, atol=1e-5)

    def test_logit_width_is_num_classes(self, rng):
        net = build_model(preset("micro", num_classes=7), seed=1)
        with no_grad():
            logits = forward_classify(net, rand_images(rng))
        assert logits.shape == (1, 7)


class TestInChannels:
    """Only the stem reads ``in_channels``; the data's 3 channels are not assumed."""

    def test_one_channel_model_builds_runs_and_round_trips(self, rng, tmp_path):
        net = build_model(preset("nano", num_classes=2, in_channels=1), seed=3)
        assert net.stem.conv.weight.shape[1] == 1
        assert count_params(net.cfg).total_params == net.arena.data.size
        x = rand_images(rng, b=2, channels=1)
        with no_grad():
            logits = forward_classify(net, x)
        assert logits.shape == (2, 2)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.cfg == net.cfg
        npt.assert_array_equal(loaded.arena.data.view(np.uint32),
                               net.arena.data.view(np.uint32))
        with no_grad():
            npt.assert_array_equal(forward_classify(loaded, x).data, logits.data)


class TestGraph:
    def test_every_affine_map_is_one_matmul_node(self, rng):
        # each linear's bias enters the graph as the third input of its
        # matmul and each conv's as the third of its conv2d, never through
        # a node of its own
        net = micro_model()
        params = dict(net.named_params())
        names = {id(p): n for n, p in params.items()}
        nodes, stack, seen = [], [forward_classify(net, rand_images(rng, b=2)).creator], set()
        while stack:
            node = stack.pop()
            if isinstance(node, T.Node) and id(node) not in seen:
                seen.add(id(node))
                nodes.append(node)
                stack.extend(node.inputs)

        def bias_inputs(op):
            return [names[id(i)] for n in nodes if n.op == op for i in n.inputs
                    if names.get(id(i), "").endswith(".bias")]

        assert {n.op for n in nodes for i in n.inputs
                if names.get(id(i), "").endswith(".bias")} == {"matmul", "conv2d"}
        linear_biases = [n for n in params if n.endswith(".bias")
                         and params[n.removesuffix("bias") + "weight"].ndim == 2]
        assert sorted(bias_inputs("matmul")) == sorted(linear_biases)


class TestDtypeParity:
    def test_tiny224_float32_matches_float64(self):
        # the error budget of the float32 kernels: logits and every
        # parameter gradient of one tiny @224 step against a float64 build;
        # the gradient bound is global because some gradients (the key
        # biases) are zero in exact arithmetic
        image = np.random.default_rng(0).uniform(0, 1, size=(1, 224, 224, 3))
        out = {}
        for dtype in (np.float32, np.float64):
            net = build_model(preset("tiny", num_classes=4), seed=0, dtype=dtype)
            logits = forward_classify(net, Tensor(image, dtype=dtype))
            T.cross_entropy_logits(logits, [1]).backward()
            out[dtype] = logits.data, [(n, p.grad) for n, p in net.named_params()]
            del net, logits
        logits32, grads32 = out[np.float32]
        logits64, grads64 = out[np.float64]
        assert logits32.dtype == np.float32
        scale = max(1.0, np.abs(logits64).max())
        assert np.abs(logits32 - logits64).max() <= 1e-4 * scale
        gmax = max(np.abs(g).max() for _, g in grads64)
        worst = {n: np.abs(a - b).max() for (n, a), (_, b) in zip(grads32, grads64)}
        name = max(worst, key=worst.get)
        assert worst[name] <= 1e-4 * gmax, f"{name}: {worst[name]:.2e} vs {gmax:.2e}"


class TestBatchInvariance:
    def test_tiny224_features_do_not_depend_on_batchmates(self):
        # each image's B1..B4 has the same bits alone as beside another
        # image; the head's GEMM does not keep this (README, Determinism)
        net = build_model(preset("tiny", num_classes=4), seed=0)
        images, _ = load_batch(SyntheticDataset("blobs", 2, 224, 4, seed=0), [0, 1])
        with no_grad():
            pair = forward_features(net, images)
            for i in range(2):
                alone = forward_features(net, Tensor(images.data[i:i + 1]))
                for stage, (a, p) in enumerate(zip(alone, pair), start=1):
                    assert np.array_equal(a.data[0], p.data[i]), (i, f"B{stage}")


class TestConfigValidation:
    def test_error_names_offending_stage_field(self):
        stages = (StageConfig(8, 1, 1, 2, (1,)), StageConfig(12, 1, 1, 2, (1,)),
                  StageConfig(16, 1, 2, 2, (1,)), StageConfig(16, 1, 2, 2, (1,)))
        with pytest.raises(ConfigError, match=r"stages\[2\].channels"):
            ModelConfig(name="x", stages=stages, head_width=8)

    def test_head_count_must_match_width(self):
        stages = tuple(StageConfig(16, 1, 1, 2, (1,)) for _ in range(4))
        with pytest.raises(ConfigError, match=r"stages\[1\].heads"):
            ModelConfig(name="x", stages=stages, head_width=8)

    def test_exactly_four_stages(self):
        with pytest.raises(ConfigError, match="4"):
            ModelConfig(name="x",
                        stages=(StageConfig(8, 1, 1, 2, (1,)),) * 3, head_width=8)

    def test_num_classes_floor(self):
        with pytest.raises(ConfigError, match="num_classes"):
            preset("micro", num_classes=1)

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ConfigError) as exc:
            preset("huge")
        for name in PRESET_NAMES:
            assert name in str(exc.value)

    def test_preset_name_must_be_a_string(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset(["tiny"])

    def test_reference_presets_subset(self):
        assert set(REFERENCE_PARAMS) <= set(PRESET_NAMES)

    def test_config_dict_round_trip(self):
        cfg = preset("micro", num_classes=4, pool_mode="max", use_rpe=False)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("stage_field,top_field,value,name", [
        ("channels", None, "x", "stages[1].channels"),
        ("channels", None, 8.7, "stages[1].channels"),
        ("depth", None, True, "stages[1].depth"),
        (None, "use_rpe", "false", "use_rpe"),
    ])
    def test_config_dict_exact_types(self, stage_field, top_field, value, name):
        d = config_to_dict(preset("micro", num_classes=4))
        if stage_field is not None:
            d["stages"][0][stage_field] = value
        else:
            d[top_field] = value
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            config_from_dict(d)

    @pytest.mark.parametrize("edit,name", [
        ({"depth": 1}, "depth"),
        ({"stages": 4}, "stages"),
        ({"pool_sizes": [1, "2"]}, "pool_sizes[2]"),
        ({"head_width": None}, "head_width"),
    ], ids=["unknown", "not-a-list", "list-item", "null"])
    def test_config_dict_field_named(self, edit, name):
        d = dict(config_to_dict(preset("micro", num_classes=4)), **edit)
        with pytest.raises(ConfigError, match=re.escape(repr(name))):
            config_from_dict(d)

    def test_config_dict_missing_stage_field_named(self):
        d = config_to_dict(preset("micro", num_classes=4))
        del d["stages"][1]["heads"]
        with pytest.raises(ConfigError, match=re.escape("'stages[2].heads' is missing")):
            config_from_dict(d)

    def test_zero_head_width_is_a_config_error(self):
        d = dict(config_to_dict(preset("nano", num_classes=2)), head_width=0)
        with pytest.raises(ConfigError, match="head_width"):
            config_from_dict(d)

    @pytest.mark.parametrize("stage,field,value", [
        (1, "pool_ratios", [0]), (3, "expansion", 0), (2, "pool_ratios", [4, 2])])
    def test_stage_value_error_names_its_stage(self, stage, field, value):
        d = config_to_dict(preset("micro", num_classes=4))
        d["stages"][stage - 1][field] = value
        with pytest.raises(ConfigError, match=re.escape(f"stages[{stage}]: {field}")):
            config_from_dict(d)

    def test_config_dict_round_trip_pool_sizes(self):
        cfg = preset("nano", num_classes=2, pool_sizes=(1, 2, 3, 6))
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg
        assert back.pool_sizes == (1, 2, 3, 6)


class TestArena:
    """Every parameter is a view of its model's one flat arena."""

    @staticmethod
    def assert_in_arena(net):
        named = net.named_params()
        assert net.arena.holds(named)
        assert net.arena.names == [n for n, _ in named]
        assert net.arena.offsets[-1] == net.arena.data.size == sum(p.size for _, p in named)
        assert all(p.data.base is net.arena.data for _, p in named)

    @pytest.mark.parametrize("overrides", [{}, {"use_rpe": False}, {"ffn_kind": "mlp"}])
    def test_build_draws_into_one_arena(self, overrides):
        net = micro_model(**overrides)
        self.assert_in_arena(net)
        assert net.arena.data.dtype == np.float32

    def test_shared_after_a_train_step_and_after_a_load(self, tmp_path):
        from ppvit import SyntheticDataset, TrainConfig, train

        net = micro_model()
        before = net.arena.data.copy()
        ds = SyntheticDataset("blobs", 4, 32, 4, seed=7)
        path = tmp_path / "m.ckpt"
        train(net, ds, TrainConfig(total_steps=2, batch_size=4), checkpoint_path=path)
        self.assert_in_arena(net)
        assert not np.array_equal(net.arena.data, before)
        loaded, _ = load_checkpoint(path)
        self.assert_in_arena(loaded)
        npt.assert_array_equal(loaded.arena.data, net.arena.data)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        import ppvit.model as M

        path = tmp_path / "m.ckpt"
        save_checkpoint(micro_model(seed=4), path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a parameter")

        monkeypatch.setattr(M, "_trunc_normal", no_draws)
        loaded, _ = load_checkpoint(path)
        self.assert_in_arena(loaded)

    def test_build_peak_memory_under_twice_the_parameters(self):
        import tracemalloc

        micro_model()  # imports and caches outside the traced build
        tracemalloc.start()
        try:
            net = micro_model()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * net.arena.data.nbytes, (peak, net.arena.data.nbytes)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, rng, tmp_path):
        net = micro_model(seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path, extra={"note": "ok"})
        loaded, manifest = load_checkpoint(path)
        for (na, pa), (nb, pb) in zip(net.named_params(), loaded.named_params()):
            assert na == nb
            npt.assert_array_equal(pa.data, pb.data)
        assert manifest["seed"] == 11
        assert manifest["extra"] == {"note": "ok"}
        assert manifest["format_version"] == 1
        x = rand_images(rng)
        with no_grad():
            npt.assert_array_equal(forward_classify(net, x).data,
                                   forward_classify(loaded, x).data)

    def test_loaded_config_matches(self, tmp_path):
        net = micro_model(seed=2, use_rpe=False, ffn_kind="mlp")
        path = tmp_path / "m.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.cfg == net.cfg

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(micro_model(), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(micro_model(), path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("case,match", [
        ("nine_bytes", "manifest_len"),
        ("no_config", "config"),
        ("no_seed", "seed"),
        ("string_seed", "seed"),
        ("bool_seed", "seed"),
        ("list_manifest", "object"),
    ])
    def test_malformed_header_raises_checkpoint_error(self, tmp_path, case, match):
        import json
        import struct

        from ppvit.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        manifest = {"format_version": CHECKPOINT_VERSION, "seed": 0,
                    "config": config_to_dict(preset("nano", num_classes=2))}
        if case == "no_config":
            del manifest["config"]
        elif case == "no_seed":
            del manifest["seed"]
        elif case == "string_seed":
            manifest["seed"] = "zero"
        elif case == "bool_seed":
            manifest["seed"] = True
        elif case == "list_manifest":
            manifest = [manifest]
        blob = json.dumps(manifest).encode()
        data = CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob
        if case == "nine_bytes":
            data = CHECKPOINT_MAGIC + b"\x00"
        path = tmp_path / "m.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    # sha256 of seed-3 nano checkpoints (1000 classes); any change to the
    # parameter names, their order or the draws changes these bytes
    @pytest.mark.parametrize("overrides,digest", [
        ({}, "f28804fa04209b6e842052149dcf08a380f4592154cf11fa9cf6885c31be97b0"),
        ({"use_rpe": False}, "2f9305495d35169792769b93298b57e43dbbb83d642cb49886fdbcc8a5c59268"),
        ({"ffn_kind": "mlp"}, "a47dedd45c38bd93a9d9be1eae3e1f2f645ee2d2c99964b1feefcfc0b142dc6e"),
    ], ids=["base", "no_rpe", "mlp_ffn"])
    def test_nano_checkpoint_bytes_pinned(self, tmp_path, overrides, digest):
        import hashlib

        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(preset("nano", **overrides), seed=3), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_float64_model_refused_before_the_file_opens(self, tmp_path):
        net = build_model(preset("micro", num_classes=4), seed=0, dtype=np.float64)
        path = tmp_path / "m.ckpt"
        with pytest.raises(CheckpointError, match="'stem.conv.weight' is float64"):
            save_checkpoint(net, path)
        assert not path.exists()

    def test_manifest_larger_than_its_records_refused_before_building(self, tmp_path):
        import json
        import struct
        import tracemalloc

        from ppvit.model import CHECKPOINT_MAGIC, CHECKPOINT_VERSION

        manifest = {"format_version": CHECKPOINT_VERSION, "seed": 0,
                    "config": config_to_dict(preset("large"))}
        blob = json.dumps(manifest).encode()
        path = tmp_path / "large.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="config"):
                load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak

    @pytest.mark.parametrize("past_end", ["max_u63", "one_byte"])
    def test_manifest_len_past_the_end_refused(self, tmp_path, past_end):
        import struct

        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(preset("nano", num_classes=2), seed=3), path)
        blob = path.read_bytes()
        mlen = 2 ** 63 - 1 if past_end == "max_u63" else len(blob) - 16 + 1
        path.write_bytes(blob[:8] + struct.pack("<Q", mlen) + blob[16:])
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(path)

    def test_tiny_load_peaks_at_the_arena_and_one_record(self, tmp_path):
        """A load holds no copy of the file: only the arena it fills and
        the record being read."""
        import tracemalloc

        path = tmp_path / "tiny.ckpt"
        net = build_model(preset("tiny"), seed=0)
        save_checkpoint(net, path)
        arena = net.arena.data.nbytes
        largest = max(3 + len(name) + 4 * p.ndim + 4 * p.size
                      for name, p in net.named_params())
        del net
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.arena.data.nbytes == arena
        assert peak <= arena + largest + 2 * 2 ** 20, (peak, arena, largest)

    @staticmethod
    def nano_records(path):
        """Save a seed-3 nano checkpoint to ``path``; its header bytes and
        its records' bytes, in named_params order."""
        import struct

        net = build_model(preset("nano", num_classes=2), seed=3)
        save_checkpoint(net, path)
        blob = path.read_bytes()
        off = 16 + struct.unpack("<Q", blob[8:16])[0]
        head, records = blob[:off], []
        for name, p in net.named_params():
            size = 2 + len(name) + 1 + 4 * p.ndim + 4 * p.size
            records.append(blob[off:off + size])
            off += size
        assert off == len(blob)
        return head, records

    def test_duplicate_last_record_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        head, records = self.nano_records(path)
        last = bytearray(records[-1])
        last[-4:] = np.float32(7.0).tobytes()
        path.write_bytes(head + b"".join(records) + bytes(last))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_records_out_of_order_refused(self, tmp_path):
        path = tmp_path / "m.ckpt"
        head, records = self.nano_records(path)
        records[0], records[1] = records[1], records[0]
        path.write_bytes(head + b"".join(records))
        with pytest.raises(CheckpointError, match="'stem.conv.weight'"):
            load_checkpoint(path)

    def test_config_mismatch_rejected(self, tmp_path):
        """Weights saved with RPE cannot load into an RPE-free skeleton."""
        import json
        import struct

        from ppvit.model import CHECKPOINT_MAGIC

        path = tmp_path / "m.ckpt"
        save_checkpoint(micro_model(seed=1), path)
        blob = path.read_bytes()
        n = struct.unpack("<Q", blob[8:16])[0]
        manifest = json.loads(blob[16:16 + n])
        manifest["config"]["use_rpe"] = False
        doctored = json.dumps(manifest, sort_keys=True).encode()
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(doctored))
                         + doctored + blob[16 + n:])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
