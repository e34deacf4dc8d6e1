"""FFN, transformer-block wiring, and patch embedding."""

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ppvit import PMHSAConfig, Tensor
from ppvit import tensor as T
from ppvit.attention import build_kv_sequence
from ppvit.layers import block_forward, irb_forward, patch_embed
from ppvit.model import _Init, _init_attn, _init_block, _init_irb, _init_patch_embed
from ppvit.training import _projection_loss


def hswish(x):
    return x * np.clip(x + 3.0, 0.0, 6.0) / 6.0


def make_irb(c, e, kind="irb", seed=0, dtype=np.float64):
    return _init_irb(_Init(seed, dtype), c, e, kind, "hardswish")


def make_block(dim, heads, ratios, seed):
    attn_cfg = PMHSAConfig(dim=dim, heads=heads, pool_ratios=ratios)
    return _init_block(_Init(seed, np.float64), attn_cfg, 2, "irb", "hardswish")


class TestIRB:
    def test_zero_weights_give_zero_output(self, rng):
        state = make_irb(4, 2)
        for p in T.params(state):
            p.data = np.zeros_like(p.data)
        x = Tensor(rng.normal(size=(1, 3, 3, 4)), dtype=np.float64)
        out = irb_forward(x, state)
        npt.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_identity_composition_double_activation(self, rng):
        # E=1, identity 1x1s, identity depthwise kernel: the layer becomes
        # hardswish applied twice
        state = make_irb(3, 1)
        state.expand.weight.data = np.eye(3)
        state.expand.bias.data = np.zeros(3)
        state.project.weight.data = np.eye(3)
        state.project.bias.data = np.zeros(3)
        dw = np.zeros((3, 1, 3, 3))
        dw[:, 0, 1, 1] = 1.0
        state.dw.weight.data = dw
        state.dw.bias.data = np.zeros(3)
        x = rng.normal(size=(1, 4, 4, 3))
        out = irb_forward(Tensor(x, dtype=np.float64), state)
        npt.assert_allclose(out.data, hswish(hswish(x)), rtol=1e-8)

    def test_identity_depthwise_equals_mlp_with_double_activation(self, rng):
        """Neutralizing the spatial filter leaves a token MLP (two acts)."""
        state = make_irb(4, 2)
        dw = np.zeros((8, 1, 3, 3))
        dw[:, 0, 1, 1] = 1.0
        state.dw.weight.data = dw
        state.dw.bias.data = np.zeros(8)
        x = rng.normal(size=(2, 3, 3, 4))
        out = irb_forward(Tensor(x, dtype=np.float64), state)
        hidden = hswish(hswish(x @ state.expand.weight.data + state.expand.bias.data))
        ref = hidden @ state.project.weight.data + state.project.bias.data
        npt.assert_allclose(out.data, ref, rtol=1e-7)

    def test_mlp_kind_single_activation(self, rng):
        state = make_irb(4, 2, kind="mlp")
        x = rng.normal(size=(1, 2, 3, 4))
        out = irb_forward(Tensor(x, dtype=np.float64), state)
        ref = (hswish(x @ state.expand.weight.data + state.expand.bias.data)
               @ state.project.weight.data + state.project.bias.data)
        npt.assert_allclose(out.data, ref, rtol=1e-7)

    def test_hidden_width_is_expansion_times_c(self):
        state = make_irb(6, 3)
        assert state.expand.weight.shape == (6, 18)
        assert state.dw.weight.shape == (18, 1, 3, 3)
        assert state.project.weight.shape == (18, 6)


def graph_ops(out, inputs):
    """Op names of every recorded node between ``out`` and ``inputs``."""
    stop = {id(t.creator) for t in inputs if t.creator is not None}
    ops, seen, stack = [], set(), [out.creator]
    while stack:
        node = stack.pop()
        if not isinstance(node, T.Node) or id(node) in seen or id(node) in stop:
            continue  # a leaf, a None entry, or a node already walked
        seen.add(id(node))
        ops.append(node.op)
        stack.extend(node.inputs)
    return ops


class TestChannelsLastLayers:
    """Every layer takes and returns a channels-last [B, H, W, C] map, so
    the only layout ops left join the pooled levels and their position
    encodings (a ``concat`` each) and split and merge the attention heads."""

    @pytest.mark.parametrize("layer", ["build_kv_sequence", "irb_forward",
                                       "patch_embed"])
    def test_no_transpose_in_graph(self, rng, layer):
        def leaf(*shape):
            return Tensor(rng.normal(size=shape), requires_grad=True,
                          dtype=np.float64)

        if layer == "build_kv_sequence":
            state = _init_attn(_Init(0, np.float64),
                               PMHSAConfig(dim=4, heads=1, pool_ratios=(1, 2)))
            x = leaf(2, 4, 4, 4)
            out = build_kv_sequence(x, state)
            # the levels are flattened by the concat that joins them
            expect, reshapes = {"adaptive_avg_pool2d", "conv2d", "concat"}, 0
        elif layer == "irb_forward":
            state = make_irb(4, 2)
            x = leaf(2, 3, 4, 4)
            out = irb_forward(x, state)
            expect, reshapes = {"conv2d", "matmul"}, 0
        else:
            state = _init_patch_embed(_Init(0, np.float64), 3, 4, k=3, stride=2,
                                      padding=1)
            x = leaf(2, 8, 6, 3)
            out = patch_embed(x, state)
            expect, reshapes = {"conv2d", "layer_norm"}, 0
        ops = graph_ops(out, [x] + T.params(state))
        assert expect <= set(ops), ops
        assert "transpose" not in ops, ops
        assert ops.count("reshape") == reshapes, ops

    @pytest.mark.parametrize("ratios", [(1,), (1, 2), (1, 2, 4)])
    def test_block_reshapes_only_heads_and_levels(self, rng, ratios):
        # q, k and v split into heads and the context merged back (4) at any
        # number of levels: one concat flattens and joins the pyramid levels
        # and one their position encodings, and the map is never reshaped;
        # both residual sums run inside the block's layer norms
        blk = make_block(8, 2, ratios, seed=1)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)), requires_grad=True, dtype=np.float64)
        ops = graph_ops(block_forward(x, blk), [x] + T.params(blk))
        assert ops.count("reshape") == 4 and ops.count("concat") == 2, ops
        assert ops.count("layer_norm") == 3, ops

    @pytest.mark.parametrize("use_rpe", [True, False], ids=["rpe", "no-rpe"])
    @pytest.mark.parametrize("ratios", [(1,), (1, 2), (1, 2, 3, 4)])
    def test_kv_sequence_nodes_per_level(self, rng, ratios, use_rpe):
        # per level a pool and, with the position encoding, its conv; the
        # convs and the levels each joined by a concat, summed in the one
        # layer norm: 2L + 3 nodes, or L + 2 without the encoding; no reshape
        state = _init_attn(_Init(0, np.float64),
                           PMHSAConfig(dim=4, heads=1, pool_ratios=ratios, use_rpe=use_rpe))
        x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True, dtype=np.float64)
        ops = graph_ops(build_kv_sequence(x, state), [x] + T.params(state))
        per_level = ["adaptive_avg_pool2d"] + ["conv2d"] * use_rpe
        assert sorted(ops) == sorted(per_level * len(ratios) + ["concat"] * (1 + use_rpe)
                                     + ["layer_norm"]), ops

    @pytest.mark.parametrize("kind", ["irb", "mlp"])
    def test_activation_runs_inside_the_ops(self, rng, kind):
        # each activation is a prologue of the op that reads it (``act=``):
        # the graph holds the pre-activation maps only, no act node
        state = make_irb(4, 2, kind=kind)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=np.float64)
        ops = graph_ops(irb_forward(x, state), [x] + T.params(state))
        assert ops == (["matmul", "conv2d", "matmul"] if kind == "irb" else ["matmul", "matmul"])


class TestBlock:
    def test_shape_preserved(self, rng):
        blk = make_block(8, 2, (1, 2), seed=3)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)), dtype=np.float64)
        out = block_forward(x, blk)
        assert out.shape == (2, 4, 4, 8)

    def test_zeroed_block_reduces_to_stacked_norms(self, rng):
        """With all attention/FFN weights and biases zero, both residual
        branches vanish and the block is LN2(LN1(x))."""
        blk = make_block(6, 2, (1,), seed=4)
        for p in T.params(blk.attn) + T.params(blk.ffn):
            p.data = np.zeros_like(p.data)
        x = rng.normal(size=(1, 2, 2, 6))
        out = block_forward(Tensor(x, dtype=np.float64), blk)
        inner = oracles.layer_norm_loops(x, blk.ln1.gamma.data, blk.ln1.beta.data)
        ref = oracles.layer_norm_loops(inner, blk.ln2.gamma.data, blk.ln2.beta.data)
        npt.assert_allclose(out.data, ref, rtol=1e-7, atol=1e-10)

    def test_gradient_vs_finite_differences(self):
        from ppvit.tensor import finite_difference_grad

        blk = make_block(8, 2, (1, 2), seed=5)
        x = Tensor(np.random.default_rng(8).normal(size=(1, 4, 4, 8)),
                   requires_grad=True, dtype=np.float64)

        def loss():
            return _projection_loss(block_forward(x, blk), np.random.default_rng(9))

        x.grad = None
        loss().backward()
        fd = finite_difference_grad(lambda _: loss(), x)
        scale = max(np.abs(x.grad).max(), np.abs(fd).max(), 1e-6)
        assert np.abs(x.grad - fd).max() / scale < 1e-4


class TestPatchEmbed:
    # patch embeds take channels-last [B, H, W, C_in] maps
    def test_stem_geometry_224(self, rng):
        state = _init_patch_embed(_Init(0, np.float32), 3, 8, k=7, stride=4,
                                  padding=3)
        x = Tensor(rng.normal(size=(1, 224, 224, 3)).astype(np.float32))
        assert patch_embed(x, state).shape == (1, 56, 56, 8)

    def test_transition_geometry_56_to_28(self, rng):
        state = _init_patch_embed(_Init(0, np.float32), 4, 8, k=3, stride=2,
                                  padding=1)
        x = Tensor(rng.normal(size=(1, 56, 56, 4)).astype(np.float32))
        assert patch_embed(x, state).shape[1:3] == (28, 28)

    @pytest.mark.parametrize("size,expect", [(224, 56), (64, 16), (32, 8)])
    def test_stem_is_ceil_div_4(self, size, expect, rng):
        state = _init_patch_embed(_Init(1, np.float32), 3, 4, k=7, stride=4,
                                  padding=3)
        x = Tensor(rng.normal(size=(1, size, size, 3)).astype(np.float32))
        assert patch_embed(x, state).shape[1:3] == (expect, expect)

    def test_constant_image_interior_tokens_identical(self):
        state = _init_patch_embed(_Init(2, np.float64), 3, 4, k=3, stride=2,
                                  padding=1)
        x = Tensor(np.full((1, 10, 10, 3), 0.6), dtype=np.float64)
        conv = T.conv2d(x, state.conv.weight, state.conv.bias, stride=state.stride,
                        padding=state.padding)
        interior = conv.data[0, 1:-1, 1:-1, :]
        ref = np.broadcast_to(interior[:1, :1, :], interior.shape)
        npt.assert_allclose(interior, ref, rtol=1e-10)

    def test_stem_skips_image_gradient(self, rng):
        # the image needs no gradient, so the stem's conv node returns None
        # for it; the weight and bias gradients keep their bits
        state = _init_patch_embed(_Init(3, np.float32), 3, 8, k=7, stride=4,
                                  padding=3)
        img = rng.normal(size=(2, 32, 32, 3)).astype(np.float32)

        def conv_node(x):
            t = patch_embed(x, state)
            node = t.creator
            while node.op != "conv2d":
                node = node.inputs[0]
            return node, t.shape

        frozen, shape = conv_node(Tensor(img))
        live, _ = conv_node(Tensor(img, requires_grad=True))
        g = rng.normal(size=shape).astype(np.float32)
        dx, dw, db = frozen.backward_fn(g)
        dx_live, dw_live, db_live = live.backward_fn(g)
        assert dx is None
        assert dx_live.shape == img.shape
        npt.assert_array_equal(dw, dw_live)
        npt.assert_array_equal(db, db_live)
