"""Pooled-key/value attention: pyramid geometry, position encoding, the
vanilla-attention equivalence, and layer-level gradient checks."""

import collections

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ppvit import ConfigError, PMHSAConfig, ShapeError, Tensor
from ppvit import tensor as T
from ppvit.attention import (build_kv_sequence, multi_head_attention,
                             pmhsa_forward, pool_targets, pooled_extent,
                             pooled_len)
from ppvit.model import _Init, _init_attn
from ppvit.training import _projection_loss


def make_state(cfg, seed=0, dtype=np.float64):
    return _init_attn(_Init(seed, dtype), cfg)


class TestRounding:
    def test_half_away_from_zero(self):
        assert pooled_extent(7, 2) == 4  # 3.5 rounds up, not to even
        assert pooled_extent(5, 2) == 3
        assert pooled_extent(56, 12) == 5  # 4.67
        assert pooled_extent(56, 16) == 4  # 3.5
        assert pooled_extent(56, 20) == 3  # 2.8
        assert pooled_extent(56, 24) == 2  # 2.33
        assert pooled_extent(8, 1) == 8

    def test_matches_float_rounding(self):
        for h in range(1, 80):
            for p in range(1, 30):
                exact = h / p
                expect = int(np.floor(exact + 0.5))  # half away from zero
                assert pooled_extent(h, p) == expect, (h, p)

    def test_zero_target_rejected(self):
        # ratio more than twice the extent rounds to an empty grid
        assert pooled_extent(4, 9) == 0
        with pytest.raises(ConfigError):
            pool_targets(4, 4, (9,))


class TestPyramidPool:
    # maps are channels-last [B, H, W, C]; the loop oracles are NCHW
    def test_reference_geometry_56(self):
        targets = pool_targets(56, 56, (12, 16, 20, 24))
        assert targets == [(5, 5), (4, 4), (3, 3), (2, 2)]
        assert pooled_len(56, 56, (12, 16, 20, 24)) == 54

    def test_ratio_one_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 5, 5, 2)), dtype=np.float64)
        ((th, tw),) = pool_targets(5, 5, (1,))
        npt.assert_array_equal(T.adaptive_avg_pool2d(x, th, tw).data, x.data)

    def test_constant_invariance(self):
        x = Tensor(np.full((1, 8, 8, 3), 1.25))
        for th, tw in pool_targets(8, 8, (2, 4)):
            npt.assert_allclose(T.adaptive_avg_pool2d(x, th, tw).data, 1.25, rtol=1e-6)

    def test_levels_match_bin_enumerator(self, rng):
        x = rng.normal(size=(2, 3, 11, 9))
        targets = pool_targets(11, 9, (2, 3, 5))
        x_map = Tensor(oracles.to_nhwc(x), dtype=np.float64)
        for th, tw in targets:
            npt.assert_allclose(oracles.to_nchw(T.adaptive_avg_pool2d(x_map, th, tw).data),
                                oracles.avg_pool_loops(x, th, tw), rtol=1e-6)

    def test_max_mode(self, rng):
        # pool_mode "max" max-pools every level of the key/value sequence
        cfg = PMHSAConfig(dim=4, heads=1, pool_ratios=(2, 3), pool_mode="max",
                          use_rpe=False)
        state = make_state(cfg)
        x = rng.normal(size=(1, 4, 6, 6))
        kv = build_kv_sequence(Tensor(oracles.to_nhwc(x), dtype=np.float64), state)
        tokens = np.concatenate([oracles.to_nhwc(oracles.max_pool_loops(x, t, t)).reshape(
            1, t * t, 4) for t in (3, 2)], axis=1)
        ref = oracles.layer_norm_loops(tokens, state.pool_ln.gamma.data,
                                       state.pool_ln.beta.data)
        npt.assert_allclose(kv.data, ref, rtol=1e-6, atol=1e-9)


class TestMonotoneSqueeze:
    def test_weakly_decreasing_in_every_ratio(self):
        # per-axis targets never grow when a ratio grows
        for h in range(2, 40):
            for p in range(1, 20):
                assert pooled_extent(h, p + 1) <= pooled_extent(h, p)

    def test_strict_decrease_on_verified_families(self):
        # away from the 1-token clamp, raising every ratio shrinks M
        for h, w in [(56, 56), (28, 28), (32, 48), (64, 64)]:
            base = pooled_len(h, w, (2, 4, 6))
            bumped = pooled_len(h, w, (3, 5, 7))
            assert bumped < base, (h, w)
        assert pooled_len(56, 56, (13, 17, 21, 25)) < pooled_len(
            56, 56, (12, 16, 20, 24))


class TestConfigValidation:
    def test_dim_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            PMHSAConfig(dim=10, heads=3, pool_ratios=(1,))

    def test_ratios_strictly_increasing(self):
        with pytest.raises(ConfigError, match="increase"):
            PMHSAConfig(dim=8, heads=2, pool_ratios=(2, 2))
        with pytest.raises(ConfigError):
            PMHSAConfig(dim=8, heads=2, pool_ratios=(4, 2))

    def test_empty_ratios(self):
        with pytest.raises(ConfigError):
            PMHSAConfig(dim=8, heads=2, pool_ratios=())

    def test_bad_pool_mode(self):
        with pytest.raises(ConfigError, match="pool_mode"):
            PMHSAConfig(dim=8, heads=2, pool_ratios=(1,), pool_mode="median")

    def test_fixed_pool_sizes_clamped(self):
        cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=(1,), pool_sizes=(1, 2, 3, 6))
        assert cfg.level_targets(4, 4) == [(1, 1), (2, 2), (3, 3), (4, 4)]
        assert cfg.level_targets(8, 8) == [(1, 1), (2, 2), (3, 3), (6, 6)]


class TestKVSequence:
    def test_rpe_zero_kernel_is_identity(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 4, 3)), dtype=np.float64)
        cfg = PMHSAConfig(dim=3, heads=1, pool_ratios=(1, 2))
        state = make_state(cfg)
        state.rpe.weight.data[...] = 0.0
        state.rpe.bias.data[...] = 0.0
        plain = make_state(PMHSAConfig(dim=3, heads=1, pool_ratios=(1, 2), use_rpe=False))
        npt.assert_array_equal(build_kv_sequence(x, state).data,
                               build_kv_sequence(x, plain).data)

    def test_rpe_matches_composed_oracle(self, rng):
        # every level gets p + dwconv(p) with the one shared kernel
        x = rng.normal(size=(2, 3, 5, 5))
        k = rng.normal(size=(3, 1, 3, 3))
        b = rng.normal(size=3)
        state = make_state(PMHSAConfig(dim=3, heads=1, pool_ratios=(1, 2)))
        state.rpe.weight.data[...] = k
        state.rpe.bias.data[...] = b
        kv = build_kv_sequence(Tensor(oracles.to_nhwc(x), dtype=np.float64), state)
        levels = [x, oracles.avg_pool_loops(x, 3, 3)]  # ratios 1 and 2 of 5x5
        tokens = np.concatenate([
            oracles.to_nhwc(oracles.depthwise_loops(p, k, b) + p).reshape(2, -1, 3)
            for p in levels], axis=1)
        ref = oracles.layer_norm_loops(tokens, state.pool_ln.gamma.data,
                                       state.pool_ln.beta.data)
        npt.assert_allclose(kv.data, ref, rtol=1e-6, atol=1e-9)

    def test_token_count_arithmetic(self):
        # levels of 2x2 and 1x1 concatenate to 5 tokens
        cfg = PMHSAConfig(dim=4, heads=1, pool_ratios=(1, 2))
        state = make_state(cfg)
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 2, 4)),
                   dtype=np.float64)
        kv = build_kv_sequence(x, state)
        assert kv.shape == (1, 5, 4)

    def test_level_order_and_per_token_norm(self, rng):
        """Tokens appear level by level; each is the norm of its pooled vector."""
        cfg = PMHSAConfig(dim=4, heads=1, pool_ratios=(1, 2), use_rpe=False)
        state = make_state(cfg)
        gamma, beta = state.pool_ln.gamma.data, state.pool_ln.beta.data
        x = rng.normal(size=(1, 4, 4, 4))
        kv = build_kv_sequence(Tensor(x, dtype=np.float64), state)
        x_map = x.transpose(0, 3, 1, 2)
        level1 = x_map  # ratio 1: identity
        level2 = oracles.avg_pool_loops(x_map, 2, 2)
        tokens = np.concatenate([
            level1.transpose(0, 2, 3, 1).reshape(1, 16, 4),
            level2.transpose(0, 2, 3, 1).reshape(1, 4, 4),
        ], axis=1)
        ref = oracles.layer_norm_loops(tokens, gamma, beta)
        npt.assert_allclose(kv.data, ref, rtol=1e-6, atol=1e-9)


class TestForward:
    def test_shape_contract(self, rng):
        cfg = PMHSAConfig(dim=64, heads=1, pool_ratios=(2, 4))
        state = make_state(cfg)
        x = Tensor(rng.normal(size=(2, 8, 8, 64)), dtype=np.float64)
        kv = build_kv_sequence(x, state)
        assert kv.shape == (2, 20, 64)  # M = 4*4 + 2*2
        out = pmhsa_forward(x, state)
        assert out.shape == (2, 8, 8, 64)

    def test_output_length_independent_of_ratios(self, rng):
        x = Tensor(rng.normal(size=(1, 6, 6, 8)), dtype=np.float64)
        for ratios in [(1,), (2,), (1, 2), (2, 3, 6)]:
            cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=ratios)
            out = pmhsa_forward(x, make_state(cfg))
            assert out.shape == (1, 6, 6, 8)

    def test_single_pooled_token_uniform_attention(self, rng):
        # M=1 forces every softmax row to [1]; all positions then share the
        # single value vector pushed through the v and o projections
        cfg = PMHSAConfig(dim=4, heads=2, pool_ratios=(2,), use_rpe=False)
        state = make_state(cfg)
        x = rng.normal(size=(1, 2, 2, 4))
        out = pmhsa_forward(Tensor(x, dtype=np.float64), state)
        npt.assert_allclose(out.data - out.data[:, :1, :1], 0.0, atol=1e-12)
        pooled = x.reshape(2, 2, 4).mean(axis=(0, 1))
        token = oracles.layer_norm_loops(pooled, state.pool_ln.gamma.data,
                                         state.pool_ln.beta.data)
        value = token @ state.v.weight.data + state.v.bias.data
        expect = value @ state.o.weight.data + state.o.bias.data
        npt.assert_allclose(out.data[0, 0, 0], expect, rtol=1e-8)

    def test_attention_rows_sum_to_one(self, rng):
        cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=(1, 2))
        state = make_state(cfg)
        x = Tensor(rng.normal(size=(2, 4, 4, 8)), dtype=np.float64)
        kv = build_kv_sequence(x, state)
        q = T.matmul(x, state.q.weight, state.q.bias)
        k = T.matmul(kv, state.k.weight, state.k.bias)
        b, c = q.shape[0], q.shape[-1]
        d = c // cfg.heads
        qh = q.data.reshape(b, -1, cfg.heads, d).transpose(0, 2, 1, 3)
        kh = k.data.reshape(b, kv.shape[1], cfg.heads, d).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2)
        probs = T.softmax_rows(Tensor(scores, dtype=np.float64), 1.0 / np.sqrt(d)).data
        npt.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_one_softmax_node_takes_the_scale(self, rng):
        # q and v go to [B, h, N, d], k straight to [B, h, d, M], and the
        # context back: four transposes, and the score scale has no node
        q, k, v = (Tensor(rng.normal(size=(2, n, 8)), requires_grad=True) for n in (5, 3, 3))
        ops, stack = collections.Counter(), [multi_head_attention(q, k, v, 2).creator]
        while stack:
            node = stack.pop()
            if isinstance(node, T.Node):  # not a leaf or a None entry
                ops[node.op] += 1
                stack.extend(node.inputs)
        assert ops["transpose"] == 4 and ops["softmax_rows"] == 1, ops
        assert "scale" not in ops, ops

    def test_batch_permutation_equivariance(self, rng):
        cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=(1, 2))
        state = make_state(cfg)
        x = rng.normal(size=(3, 4, 4, 8))
        out = pmhsa_forward(Tensor(x, dtype=np.float64), state).data
        perm = [2, 0, 1]
        out_p = pmhsa_forward(Tensor(x[perm], dtype=np.float64), state).data
        npt.assert_array_equal(out_p, out[perm])


class TestVanillaEquivalence:
    @pytest.mark.parametrize("b,h,w,c,heads,seed", [
        (1, 4, 4, 8, 2, 0), (2, 3, 5, 16, 4, 1), (1, 2, 6, 12, 3, 2),
        (2, 4, 4, 8, 1, 3),
    ])
    def test_ratio_one_no_rpe_matches_oracle(self, b, h, w, c, heads, seed):
        cfg = PMHSAConfig(dim=c, heads=heads, pool_ratios=(1,), use_rpe=False)
        state = make_state(cfg, seed=seed)
        x = np.random.default_rng(seed + 100).normal(size=(b, h * w, c))
        out = pmhsa_forward(Tensor(x.reshape(b, h, w, c), dtype=np.float64), state)
        ref = oracles.vanilla_mhsa(
            x, state.q.weight.data, state.q.bias.data,
            state.k.weight.data, state.k.bias.data,
            state.v.weight.data, state.v.bias.data,
            state.o.weight.data, state.o.bias.data,
            state.pool_ln.gamma.data, state.pool_ln.beta.data, heads)
        npt.assert_allclose(out.data.reshape(ref.shape), ref, atol=1e-5, rtol=1e-7)

    def test_multi_head_attention_head_partition(self, rng):
        # contiguous channel split: head h sees channels [h*d, (h+1)*d)
        b, n, m, c, heads = 1, 3, 2, 6, 3
        q = rng.normal(size=(b, n, c))
        k = rng.normal(size=(b, m, c))
        v = rng.normal(size=(b, m, c))
        out = multi_head_attention(Tensor(q, dtype=np.float64),
                                   Tensor(k, dtype=np.float64),
                                   Tensor(v, dtype=np.float64), heads)
        d = c // heads
        for h in range(heads):
            sl = slice(h * d, (h + 1) * d)
            scores = q[0][:, sl] @ k[0][:, sl].T / np.sqrt(d)
            probs = np.stack([oracles.softmax_longdouble(r) for r in scores])
            npt.assert_allclose(out.data[0][:, sl], probs @ v[0][:, sl], rtol=1e-8)

    def test_multi_head_attention_keeps_the_query_map_shape(self, rng):
        # a [B, H, W, C] query map attends as its H*W tokens, and comes back a map
        q, k, v = (Tensor(rng.normal(size=shape))
                   for shape in ((2, 3, 4, 6), (2, 5, 6), (2, 5, 6)))
        out = multi_head_attention(q, k, v, 3)
        flat = multi_head_attention(Tensor(q.data.reshape(2, 12, 6)), k, v, 3)
        assert out.shape == (2, 3, 4, 6)
        npt.assert_array_equal(out.data.reshape(2, 12, 6), flat.data)
        with pytest.raises(ShapeError):
            multi_head_attention(q, k, Tensor(np.zeros((2, 4, 6))), 3)


class TestLayerGradients:
    def test_micro_config_finite_differences(self):
        from ppvit.tensor import finite_difference_grad

        cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=(1, 2))
        state = make_state(cfg, seed=5)
        x = Tensor(np.random.default_rng(6).normal(size=(1, 4, 4, 8)),
                   requires_grad=True, dtype=np.float64)

        def loss():
            return _projection_loss(pmhsa_forward(x, state), np.random.default_rng(7))

        params = [x] + T.params(state)
        for p in params:
            p.grad = None
        loss().backward()
        for p in params:
            fd = finite_difference_grad(lambda _: loss(), p)
            scale = max(np.abs(p.grad).max(), np.abs(fd).max(), 1e-6)
            assert np.abs(p.grad - fd).max() / scale < 1e-4
