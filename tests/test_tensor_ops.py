"""Forward semantics of the tensor op set, checked against hand values and
the loop oracles."""

import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ppvit import NonFiniteError, ShapeError, Tensor
from ppvit import tensor as T
from ppvit.training import _projection_loss


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        npt.assert_array_equal(out.data, [[3, 4], [5, 6]])

    def test_hand_value(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        npt.assert_array_equal(out.data, [[11.0]])

    def test_against_triple_loop(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        ref = oracles.matmul_loops(a, b)
        npt.assert_allclose(out.data, ref, rtol=1e-6)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"3, 4.*5, 2"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))

    def test_fused_bias_matches_add_bit_for_bit(self):
        # the output gradient reaches matmul as a transposed, non-contiguous
        # view, as the k projection's does inside attention.  The fused bias
        # matches the bias added to the unbiased product, and its gradient
        # the product's output gradient summed over the rows, with the same bits
        def run(fused):
            draw = np.random.default_rng(3)
            x, w, b = (Tensor(draw.normal(size=s), requires_grad=True)
                       for s in [(2, 7, 6), (6, 5), (5,)])
            y, seen = T.matmul(x, w, b if fused else None), []
            if not fused:  # record the unbiased product's output gradient
                bw = y.creator.backward_fn
                y.creator.backward_fn = lambda g: (seen.append(g), bw(g))[1]
            _projection_loss(T.transpose(y, (2, 1, 0)), np.random.default_rng(4)).backward()
            if fused:
                return y.data, x.grad, w.grad, b.grad
            return y.data + b.data, x.grad, w.grad, T._sum_rows(seen[0])

        for fused, unfused in zip(run(True), run(False)):
            npt.assert_array_equal(fused, unfused)

    @pytest.mark.parametrize("w_shape,b_shape", [((4, 5), (4,)), ((4, 5), (1, 5)),
                                                 ((2, 4, 5), (5,))])
    def test_bias_needs_2d_weight_and_n_entries(self, w_shape, b_shape):
        with pytest.raises(ShapeError, match="bias"):
            T.matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(w_shape)),
                     Tensor(np.zeros(b_shape)))


class TestConv2d:
    # maps are channels-last [B, H, W, C]; the loop oracles are NCHW
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 4, 4, 1))
        out = T.conv2d(Tensor(x), Tensor(np.ones((1, 1, 1, 1))), stride=1, padding=0)
        npt.assert_allclose(out.data, x, rtol=1e-6)

    def test_counting_case(self):
        x = Tensor(np.ones((1, 4, 4, 1)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, stride=2, padding=0)
        assert out.shape == (1, 2, 2, 1)
        npt.assert_array_equal(out.data, np.full((1, 2, 2, 1), 4.0))

    # the first two keep their original ids; the last two are the stem's
    # 7x7/4/pad-3 geometry on an RGB input and a stage embed's 3x3/2/pad-1
    @pytest.mark.parametrize("stride,padding,cin,k,hw", [
        pytest.param(1, 0, 4, 3, (6, 5), id="1-0-1"),
        pytest.param(2, 1, 4, 3, (6, 5), id="2-1-1"),
        pytest.param(4, 3, 3, 7, (16, 12), id="stem-7x7-4-3"),
        pytest.param(2, 1, 5, 3, (8, 7), id="embed-3x3-2-1"),
    ])
    def test_against_loops(self, rng, stride, padding, cin, k, hw):
        x = rng.normal(size=(2, cin) + hw)
        w = rng.normal(size=(6, cin, k, k))
        b = rng.normal(size=6)
        out = T.conv2d(Tensor(oracles.to_nhwc(x), dtype=np.float64),
                       Tensor(w, dtype=np.float64),
                       Tensor(b, dtype=np.float64), stride=stride, padding=padding)
        ref = oracles.conv2d_loops(x, w, b, stride=stride, padding=padding)
        npt.assert_allclose(oracles.to_nchw(out.data), ref, rtol=1e-5)

    def test_output_size_formula(self, rng):
        x = Tensor(rng.normal(size=(1, 11, 9, 3)))
        w = Tensor(rng.normal(size=(2, 3, 3, 3)))
        out = T.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (1, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1, 2)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="larger than padded"):
            T.conv2d(Tensor(np.zeros((1, 3, 3, 1))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_group_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((2, 3, 3, 3))),
                     groups=2)
        # grouped convs with several channels per group are not supported
        with pytest.raises(ShapeError, match="groups=2"):
            T.conv2d(Tensor(np.zeros((1, 5, 5, 4))), Tensor(np.zeros((4, 2, 3, 3))),
                     padding=1, groups=2)


class TestDepthwiseConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 5, 5, 3))
        k = np.zeros((3, 1, 3, 3))
        k[:, 0, 1, 1] = 1.0
        out = T.conv2d(Tensor(x), Tensor(k), padding=1, groups=3)
        npt.assert_allclose(out.data, x, rtol=1e-6)

    def test_counting_case(self):
        v = 0.37
        x = Tensor(np.full((1, 5, 5, 2), v))
        out = T.conv2d(x, Tensor(np.ones((2, 1, 3, 3))), padding=1, groups=2)
        npt.assert_allclose(out.data[:, 1:-1, 1:-1, :], 9 * v, rtol=1e-6)

    def test_per_channel_independence(self, rng):
        x = rng.normal(size=(1, 4, 4, 3))
        w = rng.normal(size=(3, 1, 3, 3))
        base = T.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                        padding=1, groups=3).data
        x2 = x.copy()
        x2[..., 1] += 100.0
        bumped = T.conv2d(Tensor(x2, dtype=np.float64), Tensor(w, dtype=np.float64),
                          padding=1, groups=3).data
        npt.assert_array_equal(base[..., 0], bumped[..., 0])
        npt.assert_array_equal(base[..., 2], bumped[..., 2])

    def test_against_loops(self, rng):
        # padding 0-2, non-square maps, and the 1x1 and 2x2 maps the RPE
        # sees on coarse pyramid levels (which need padding >= 1)
        cases = [((2, 4, 6, 6), 1), ((2, 4, 6, 6), 0), ((1, 3, 5, 7), 2),
                 ((2, 3, 7, 4), 0), ((2, 5, 1, 1), 1), ((2, 5, 1, 1), 2),
                 ((3, 2, 2, 2), 1)]
        for shape, padding in cases:
            c = shape[1]
            x = rng.normal(size=shape)
            w = rng.normal(size=(c, 1, 3, 3))
            b = rng.normal(size=c)
            out = T.conv2d(Tensor(oracles.to_nhwc(x), dtype=np.float64),
                           Tensor(w, dtype=np.float64), Tensor(b, dtype=np.float64),
                           padding=padding, groups=c)
            ref = oracles.depthwise_loops(x, w, b, padding=padding)
            npt.assert_allclose(oracles.to_nchw(out.data), ref, rtol=1e-5,
                                err_msg=f"{shape} p={padding}")

    def test_forward_backward_peak_memory(self, rng):
        # a [B, H, W, C, 3, 3] window tensor alone would be 9 input sizes
        x = Tensor(rng.normal(size=(2, 16, 16, 64)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(64, 1, 3, 3)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        g = np.ones(x.shape, dtype=np.float32)
        tracemalloc.start()
        try:
            out = T.conv2d(x, w, b, padding=1, groups=64)
            out.creator.backward_fn(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * x.data.nbytes, f"peak {peak / x.data.nbytes:.1f} input sizes"

    def test_node_keeps_no_padded_copy(self, rng):
        # the backward pads x again: only the output may outlive the
        # forward, not a [2, 18, 18, 64] padded map
        x = Tensor(rng.normal(size=(2, 16, 16, 64)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(64, 1, 3, 3)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(np.zeros(64, dtype=np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            out = T.conv2d(x, w, b, padding=1, groups=64)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.creator is not None
        assert held <= out.data.nbytes + 16 * 1024, f"{held} bytes held after forward"

    # (C, W, m): m output columns merged per window row, the smallest
    # divisor of W with m * C >= 128, else W
    @pytest.mark.parametrize("c,w,m", [
        (4, 64, 32), (4, 8, 8), (4, 1, 1), (16, 12, 12), (16, 16, 8),
        (48, 8, 4), (48, 5, 5), (384, 7, 1), (384, 1, 1)])
    def test_merged_columns_match_the_window_einsum(self, rng, c, w, m):
        x = rng.normal(size=(2, 3, w, c)).astype(np.float32)
        k = rng.normal(size=(c, 1, 3, 3)).astype(np.float32)
        padded = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        kt = np.ascontiguousarray(k[:, 0].transpose(1, 2, 0))
        assert T._correlate(padded, kt)[1] == m
        windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(1, 2))
        npt.assert_array_equal(T.conv2d(Tensor(x), Tensor(k), padding=1, groups=c).data,
                               np.einsum("bijcuv,uvc->bijc", windows, kt))

    def test_frozen_input_gets_no_gradient(self, rng):
        x = rng.normal(size=(2, 5, 4, 3))
        w = Tensor(rng.normal(size=(3, 1, 3, 3)), requires_grad=True)
        g = rng.normal(size=(2, 5, 4, 3))
        dx, dw = T.conv2d(Tensor(x), w, padding=1, groups=3).creator.backward_fn(g)
        dx_live, dw_live = T.conv2d(Tensor(x, requires_grad=True), w, padding=1,
                                    groups=3).creator.backward_fn(g)
        assert dx is None and dx_live.shape == x.shape
        npt.assert_array_equal(dw, dw_live)

    def test_window_view_stays_inside_its_map(self):
        # the view's extent comes from the map: a 3x3 map has one 3x3 window
        # and a 4x5 map 2x3 of them, the last ending on the map's last value
        m = np.arange(18.0).reshape(1, 3, 3, 2)
        assert T._windows(m, 3, 3, 1).shape == (1, 1, 1, 3, 3, 2)
        npt.assert_array_equal(T._windows(m, 3, 3, 1)[0, 0, 0], m[0])
        big = np.arange(40.0).reshape(1, 4, 5, 2)
        npt.assert_array_equal(T._windows(big, 3, 3, 1)[0, -1, -1], big[0, 1:, 2:])
        # three merged columns: output column 2 reads the last channels slot
        merged = T._windows(big, 3, 3, 3)
        assert merged.shape == (1, 2, 1, 3, 3, 6)
        npt.assert_array_equal(merged[0, 1, 0, :, :, 4:], big[0, 1:, 2:])

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError, match="groups=3"):
            T.conv2d(Tensor(np.zeros((1, 4, 4, 3))), Tensor(np.zeros((2, 1, 3, 3))),
                     padding=1, groups=3)


class TestAdaptiveAvgPool:
    def test_identity_target(self, rng):
        x = rng.normal(size=(1, 4, 4, 2))
        out = T.adaptive_avg_pool2d(Tensor(x), 4, 4)
        npt.assert_array_equal(out.data, x)

    def test_constant_invariance(self):
        x = Tensor(np.full((1, 4, 4, 1), 7.0))
        out = T.adaptive_avg_pool2d(x, 2, 2)
        npt.assert_allclose(out.data, 7.0, rtol=1e-6)

    def test_three_to_two_bin_rule(self):
        # hand evaluation of the bin rule [floor(i*3/2), ceil((i+1)*3/2)):
        # bins {0,1} and {1,2} per axis, so the windows overlap on the
        # middle row/column
        x = Tensor(np.arange(1.0, 10.0).reshape(1, 3, 3, 1))
        out = T.adaptive_avg_pool2d(x, 2, 2)
        npt.assert_allclose(out.data[0, :, :, 0], [[3.0, 4.0], [6.0, 7.0]], rtol=1e-6)
        ref = oracles.avg_pool_loops(oracles.to_nchw(x.data), 2, 2)
        npt.assert_allclose(oracles.to_nchw(out.data), ref, rtol=1e-6)

    @pytest.mark.parametrize("h,w,oh,ow", [(7, 5, 3, 2), (8, 8, 3, 3), (5, 7, 5, 4)])
    def test_against_bin_enumerator(self, rng, h, w, oh, ow):
        x = rng.normal(size=(2, 3, h, w))
        out = T.adaptive_avg_pool2d(Tensor(oracles.to_nhwc(x), dtype=np.float64), oh, ow)
        npt.assert_allclose(oracles.to_nchw(out.data), oracles.avg_pool_loops(x, oh, ow),
                            rtol=1e-6)

    def test_global_mean_preserved_when_divisible(self, rng):
        x = rng.normal(size=(1, 8, 8, 2))
        out = T.adaptive_avg_pool2d(Tensor(x, dtype=np.float64), 4, 2)
        npt.assert_allclose(out.data.mean(), x.mean(), rtol=1e-10)

    def test_target_exceeds_input(self):
        with pytest.raises(ShapeError, match="exceeds"):
            T.adaptive_avg_pool2d(Tensor(np.zeros((1, 3, 3, 1))), 4, 2)

    def test_bin_matrix_is_cached_read_only(self):
        m = T._bin_matrix(7, 3, np.dtype(np.float32))
        assert T._bin_matrix(7, 3, np.dtype(np.float32)) is m and not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


class TestAdaptiveMaxPool:
    @pytest.mark.parametrize("h,w,oh,ow", [(7, 5, 3, 2), (6, 6, 2, 3)])
    def test_against_bin_enumerator(self, rng, h, w, oh, ow):
        x = rng.normal(size=(2, 2, h, w))
        out = T.adaptive_max_pool2d(Tensor(oracles.to_nhwc(x), dtype=np.float64), oh, ow)
        npt.assert_allclose(oracles.to_nchw(out.data), oracles.max_pool_loops(x, oh, ow),
                            rtol=1e-6)

    def test_constant_invariance(self):
        out = T.adaptive_max_pool2d(Tensor(np.full((1, 5, 5, 1), 2.5)), 2, 2)
        npt.assert_allclose(out.data, 2.5, rtol=1e-6)


class TestSoftmaxRows:
    def test_single_element_row(self):
        out = T.softmax_rows(Tensor([[4.2]]), 1.0)
        npt.assert_allclose(out.data, [[1.0]], rtol=1e-6)

    def test_uniform(self):
        out = T.softmax_rows(Tensor([0.0, 0.0, 0.0, 0.0]), 1.0)
        npt.assert_allclose(out.data, 0.25, atol=1e-7)

    def test_extreme_values_no_overflow(self):
        out = T.softmax_rows(Tensor([1000.0, 0.0]), 1.0)
        ref = oracles.softmax_longdouble(np.array([1000.0, 0.0]))
        npt.assert_allclose(out.data, ref, atol=1e-6)
        npt.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        x = rng.normal(scale=5.0, size=(4, 7))
        out = T.softmax_rows(Tensor(x, dtype=np.float64), 1.0)
        npt.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)
        assert (out.data >= 0).all()

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        a = T.softmax_rows(Tensor(x, dtype=np.float64), 1.0).data
        b = T.softmax_rows(Tensor(x + 13.7, dtype=np.float64), 1.0).data
        npt.assert_allclose(a, b, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scale_inside_matches_scaling_first(self, rng, dtype):
        # bit for bit the two steps it replaces: x * s, then the softmax;
        # the softmax gradient, then g * s on the way back
        s = 1.0 / np.sqrt(48)  # a NumPy float64, as attention passes it
        x = Tensor(rng.normal(scale=4.0, size=(2, 3, 5, 7)).astype(dtype), requires_grad=True)
        g = rng.normal(size=x.shape).astype(dtype)
        out = T.softmax_rows(x, s)
        (dx,) = out.creator.backward_fn(g)
        z = x.data * float(s)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        ref = e / np.einsum("...c->...", e)[..., None]
        dz = ref * (g - np.einsum("...c,...c->...", g, ref)[..., None])
        assert out.data.dtype == dx.dtype == dtype
        npt.assert_array_equal(out.data, ref)
        npt.assert_array_equal(dx, dz * float(s))

    @pytest.mark.parametrize("shape", [(32, 1, 64, 20), (2, 1, 3136, 54)])
    def test_row_max_matches_last_axis_max(self, rng, shape):
        # micro's and tiny's stage-1 score shapes: short rows of pooled keys
        x = rng.normal(scale=4.0, size=shape).astype(np.float32)
        z = x * 0.25
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        npt.assert_array_equal(T.softmax_rows(Tensor(x), 0.25).data,
                               e / np.einsum("...c->...", e)[..., None])


class TestLayerNorm:
    def test_constant_vector_zeros(self):
        x = Tensor(np.full((2, 4), 3.3))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        npt.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_symmetric_pair(self):
        out = T.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)))
        npt.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)

    def test_output_statistics(self, rng):
        x = rng.normal(loc=2.0, scale=3.0, size=(5, 16))
        out = T.layer_norm(Tensor(x, dtype=np.float64), Tensor(np.ones(16)),
                           Tensor(np.zeros(16))).data
        npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_against_loops(self, rng):
        x = rng.normal(size=(3, 4, 6))
        gamma = rng.normal(size=6)
        beta = rng.normal(size=6)
        out = T.layer_norm(Tensor(x, dtype=np.float64),
                           Tensor(gamma, dtype=np.float64),
                           Tensor(beta, dtype=np.float64))
        ref = oracles.layer_norm_loops(x, gamma, beta)
        npt.assert_allclose(out.data, ref, rtol=1e-6, atol=1e-9)

    def test_large_offset_float32(self, rng):
        # rows of 1e4 + N(0, 1): a float32 mean is off by up to half a
        # spacing of 1e4 (~5e-4), which shifting each row first avoids
        x = (1e4 + rng.normal(size=(64, 48))).astype(np.float32)
        gamma = rng.normal(size=48).astype(np.float32)
        beta = rng.normal(size=48).astype(np.float32)
        out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
        ref = T.layer_norm(*(Tensor(a, dtype=np.float64) for a in (x, gamma, beta))).data
        assert out.dtype == np.float32
        assert np.abs(out - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_affine_shape_check(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)),
                         Tensor(np.zeros(3)))


class TestFloat32Kernels:
    """A float32 input gives a float32 output and float32 gradients."""

    def _check(self, out, inputs):
        assert out.data.dtype == np.float32
        grads = out.creator.backward_fn(np.ones(out.shape, dtype=np.float32))
        assert len(grads) == len(inputs)
        for t, g in zip(inputs, grads):
            assert g.dtype == np.float32 and g.shape == t.shape

    def _f32(self, rng, *shape):
        return Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)

    def test_layer_norm(self, rng):
        x, gamma, beta = self._f32(rng, 2, 5, 16), self._f32(rng, 16), self._f32(rng, 16)
        self._check(T.layer_norm(x, gamma, beta), (x, gamma, beta))

    def test_softmax_rows(self, rng):
        x = self._f32(rng, 2, 3, 4, 5)
        self._check(T.softmax_rows(x, 0.125), (x,))

    @pytest.mark.parametrize("padding", [1, 2])
    def test_depthwise_conv2d(self, rng, padding):
        x, w, b = self._f32(rng, 2, 6, 8, 24), self._f32(rng, 24, 1, 3, 3), self._f32(rng, 24)
        self._check(T.conv2d(x, w, b, padding=padding, groups=24), (x, w, b))


class TestHardswish:
    """Through the prologue of a matmul with an identity weight."""

    @pytest.mark.parametrize("x,y", [(0.0, 0.0), (3.0, 3.0), (-3.0, 0.0),
                                     (1.0, 2.0 / 3.0), (5.0, 5.0), (-10.0, 0.0)])
    def test_pointwise(self, x, y):
        out = T.matmul(Tensor([[x]]), Tensor([[1.0]]), act="hardswish")
        npt.assert_allclose(out.data, [[y]], atol=1e-7)

    def test_formula(self, rng):
        x = rng.normal(scale=3.0, size=(4, 4))
        out = T.matmul(Tensor(x, dtype=np.float64), Tensor(np.eye(4), dtype=np.float64),
                       act="hardswish")
        ref = x * np.clip(x + 3.0, 0.0, 6.0) / 6.0
        npt.assert_allclose(out.data, ref, rtol=1e-7)


def hardswish_then(x, g=None):
    """The standalone hardswish op's forward, or its backward of ``g``,
    step for step."""
    if g is None:
        out = x + 3.0
        np.clip(out, 0.0, 6.0, out=out)
        out *= x
        out /= 6.0
        return out
    slope = 2.0 * x
    slope += 3.0
    slope /= 6.0
    slope[x <= -3.0] = 0.0
    slope[x > 3.0] = 1.0
    slope *= g
    return slope


def gelu_then(x, g=None):
    """The standalone tanh-form GELU op's forward, or its backward of ``g``."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    if g is None:
        return 0.5 * x * (1.0 + t)
    sech2 = 1.0 - t * t
    return g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * c * (1.0 + 3.0 * 0.044715 * x ** 2))


class TestActivationPrologue:
    """``op(..., act=a)`` equals the activation as an op of its own, then
    ``op``, bit for bit: the forward and every gradient."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("act", ["hardswish", "gelu"])
    @pytest.mark.parametrize("op", ["matmul", "conv2d"])
    def test_matches_act_then_op(self, rng, op, act, dtype):
        ref_act = {"hardswish": hardswish_then, "gelu": gelu_then}[act]
        vals = rng.normal(scale=3.0, size=(2, 4, 5, 6)).astype(dtype)
        # the kinks, one ulp outside and inside each, and both saturated
        # regions; at 3 + 1 ulp the slope rounds to 1.5 before it is set to 1
        three = dtype(3.0)
        vals.flat[:12] = [-3.0, 3.0, -5.0, 6.0, -3.5, 3.5, -12.0, 9.0,
                          np.nextafter(three, np.inf), np.nextafter(-three, -np.inf),
                          np.nextafter(three, 0), np.nextafter(-three, 0)]
        x = Tensor(vals, requires_grad=True)
        h = Tensor(ref_act(x.data), requires_grad=True)

        def param(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        if op == "matmul":
            w, b = param(6, 3), param(3)

            def run(inp, a):
                return T.matmul(inp, w, b, act=a)
        else:
            w, b = param(6, 1, 3, 3), param(6)

            def run(inp, a):
                return T.conv2d(inp, w, b, padding=1, groups=6, act=a)

        fused, plain = run(x, act), run(h, None)
        g = rng.normal(size=fused.shape).astype(dtype)
        dx, *dparams = fused.creator.backward_fn(g)
        dh, *dparams_plain = plain.creator.backward_fn(g)
        assert fused.data.dtype == dx.dtype == dtype
        npt.assert_array_equal(fused.data, plain.data)
        npt.assert_array_equal(dx, ref_act(x.data, dh))
        for d, d_plain in zip(dparams, dparams_plain):
            npt.assert_array_equal(d, d_plain)


class TestStructuralOps:
    def test_concat_order(self):
        # each map flattens row-major over its grid, then the maps follow in order
        a = Tensor(np.arange(8.0).reshape(2, 2, 2, 1), requires_grad=True)
        b = Tensor(np.arange(8.0, 10.0).reshape(2, 1, 1, 1), requires_grad=True)
        out = T.concat([a, b])
        npt.assert_array_equal(out.data[..., 0], [[0, 1, 2, 3, 8], [4, 5, 6, 7, 9]])
        ga, gb = out.creator.backward_fn(out.data * 10.0)
        npt.assert_array_equal(ga, a.data * 10.0)
        npt.assert_array_equal(gb, b.data * 10.0)

    def test_reshape_invalid(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.zeros((2, 3))), (4, 2))

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_cross_entropy_matches_direct_formula(self, rng):
        z = rng.normal(size=(5, 4))
        labels = np.array([0, 3, 1, 2, 2])
        loss = T.cross_entropy_logits(Tensor(z, dtype=np.float64), labels)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        ref = -np.log(probs[np.arange(5), labels]).mean()
        npt.assert_allclose(loss.item(), ref, rtol=1e-8)

    def test_cross_entropy_label_range(self):
        with pytest.raises(ShapeError):
            T.cross_entropy_logits(Tensor(np.zeros((2, 3))), [0, 3])

    @pytest.mark.parametrize("labels", [[0.5, 1.7], np.array([0.0, 1.0]), [True, False]],
                             ids=["fractions", "whole-floats", "bools"])
    def test_cross_entropy_refuses_labels_that_are_not_ints(self, labels):
        # truncated, [0.5, 1.7] would be scored as the labels [0, 1]
        with pytest.raises(ShapeError, match="labels"):
            T.cross_entropy_logits(Tensor(np.zeros((2, 3))), labels)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint8])
    def test_cross_entropy_takes_every_int_dtype(self, dtype):
        z = Tensor(np.arange(6.0).reshape(2, 3))
        ref = T.cross_entropy_logits(z, [2, 0]).item()
        assert T.cross_entropy_logits(z, np.array([2, 0], dtype=dtype)).item() == ref


MOVES = {"reshape": lambda t: T.reshape(t, (3, 2)),
         "transpose": lambda t: T.transpose(t, (1, 0, 2)),
         "concat": lambda t: T.concat([t, t])}


class TestFiniteGuard:
    @pytest.mark.parametrize("op", MOVES)
    def test_moved_op_outputs_are_not_scanned_again(self, monkeypatch, op):
        scans = []
        scan = T._ensure_finite
        monkeypatch.setattr(T, "_ensure_finite",
                            lambda arr, name: (scans.append(name), scan(arr, name)))
        x = T.matmul(Tensor(np.arange(6.0).reshape(2, 3, 1)), Tensor(np.ones((1, 1))))
        assert scans == ["matmul"]
        out = MOVES[op](x)
        assert scans == ["matmul"] and out.scanned
        npt.assert_array_equal(MOVES[op](Tensor(x.data)).data, out.data)
        assert scans == ["matmul", op]  # a leaf is scanned

    @pytest.mark.parametrize("op", MOVES)
    def test_nan_leaf_still_raises(self, op):
        leaf = Tensor([[[1.0], [np.nan], [2.0]], [[3.0], [4.0], [5.0]]])
        with pytest.raises(NonFiniteError, match=op):
            MOVES[op](leaf)
        with pytest.raises(NonFiniteError, match="concat"):
            T.concat([T.matmul(Tensor(np.ones((2, 3, 1))), Tensor(np.ones((1, 1)))), leaf])

    def test_overflow_raises(self):
        # a residual sum that overflows, as a separate add's once did
        big, ones = Tensor([[1e308, 1.0]]), Tensor([1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="'layer_norm'"):
                T.layer_norm(big, ones, ones, residual=Tensor([[1e308, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scan_finds_one_bad_value(self, bad, dtype):
        # one bad value among large ones, contiguous and strided
        arr = np.full((4, 6), 1e30, dtype=dtype)
        arr[2, 3] = bad
        for view in (arr, arr.T, arr[:, 1::2]):
            with pytest.raises(NonFiniteError, match="probe"):
                T._ensure_finite(view, "probe")

    def test_scan_passes_values_whose_squares_overflow(self):
        # float32 1e30 squared overflows the self dot; the values are finite
        arr = np.full((3, 5), 1e30, dtype=np.float32)
        arr[0, 0] = -3e38
        for view in (arr, arr.T, arr[:, ::2], arr[:0]):
            T._ensure_finite(view, "probe")

    def test_grad_shape_matches(self, rng):
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        T.mean(T.matmul(x, T.transpose(x, (1, 0)))).backward()
        assert x.grad.shape == x.data.shape


class TestShortRowKernels:
    """The faster forms of sums, maxima and padding keep the old bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(32, 64, 8), (2, 3136, 48), (2, 56, 56, 384)])
    def test_unbroadcast_matches_leading_axis_sum(self, rng, shape, dtype):
        g = rng.normal(size=shape).astype(dtype)
        out = T._sum_rows(g)
        assert out.dtype == dtype
        npt.assert_array_equal(out, g.sum(axis=tuple(range(g.ndim - 1))))

    @pytest.mark.parametrize("act", [None, "hardswish", "gelu"])
    @pytest.mark.parametrize("shape", [(32, 4, 4, 64), (2, 7, 7, 384), (2, 14, 14, 240)])
    def test_pad_same_bits_on_both_sides_of_the_row_switch(self, rng, monkeypatch, act, shape):
        a = rng.normal(scale=3.0, size=shape).astype(np.float32)
        a[0, 0, :2, :2] = [[-3.0, 3.0], [0.0, -6.0]]
        fwd = None if act is None else T.ACTS[act][0]
        ref = np.pad(a if fwd is None else fwd(a), ((0, 0), (1, 1), (2, 2), (0, 0)))
        for row in (1, 1 << 30):  # every row long, then every row short
            monkeypatch.setattr(T, "_PAD_ROW", row)
            out = T._pad(a, 1, 2, fwd)
            assert out.dtype == np.float32
            npt.assert_array_equal(out, ref)

    @pytest.mark.parametrize("act", [None, "hardswish"])
    def test_pad_of_a_channel_strided_map_matches_its_contiguous_copy(self, rng,
                                                                       monkeypatch, act):
        # a transposed view, channels strided: the plain copy serves any strides
        img = rng.normal(scale=3.0, size=(2, 3, 9, 8)).astype(np.float32)
        a = img.transpose(0, 2, 3, 1)
        assert a.strides[-1] != a.itemsize
        fwd = None if act is None else T.ACTS[act][0]
        for row in (1, 1 << 30):  # every row long, then every row short
            monkeypatch.setattr(T, "_PAD_ROW", row)
            npt.assert_array_equal(T._pad(a, 3, 2, fwd),
                                   T._pad(np.ascontiguousarray(a), 3, 2, fwd))


class TestBandedForwards:
    """The depthwise and ``act`` matmul forwards, built one band of rows at a
    time, and their backwards, whose input gradients and ``act`` slopes go by
    the same bands, keep the bits of the whole-map kernels and hold one band
    at most beside the maps they return or must keep whole."""

    @pytest.mark.parametrize("banded", [True, False])
    @pytest.mark.parametrize("pad_row", [T._PAD_ROW, 16])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("act", [None, "hardswish", "gelu"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 3])
    def test_depthwise_bands_keep_the_bits(self, rng, monkeypatch, b, dtype, act, padding,
                                           pad_row, banded):
        x = rng.normal(scale=3.0, size=(b, 11, 6, 16)).astype(dtype)
        k = rng.normal(size=(16, 1, 3, 3)).astype(dtype)
        bias = rng.normal(size=16).astype(dtype)
        fwd, grad = T.ACTS[act] if act is not None else (None, None)
        kt = k[:, 0].transpose(1, 2, 0)
        ref, _ = T._correlate(T._pad(x, padding, padding, fwd), kt)
        g = rng.normal(size=ref.shape).astype(dtype)
        # whole-map gradients: the input gradient as one correlation, then the
        # slope; the weight and bias gradients, which never go by band
        dx_ref, _ = T._correlate(T._pad(g, 2 - padding, 2 - padding), kt[::-1, ::-1])
        dx_ref = dx_ref if grad is None else grad(x, dx_ref)
        whole = T.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                         Tensor(bias, requires_grad=True), padding=padding, groups=16, act=act)
        _, dk_ref, db_ref = whole.creator.backward_fn(g)
        # rows of w * C = 96 values: short at the default ``_PAD_ROW``, written
        # in place into the reused band buffer at 16
        monkeypatch.setattr(T, "_PAD_ROW", pad_row)
        if banded:  # a band of 6 padded rows: 4 output rows, and a short last band
            monkeypatch.setattr(T, "_BAND", b * (6 + 2 * padding) * 16 * 6)
        correlate, bands = T._correlate, []
        monkeypatch.setattr(T, "_correlate", lambda src, kt, out=None: (
            bands.append(out.shape[1]), correlate(src, kt, out))[1])
        out = T.conv2d(Tensor(x, requires_grad=True), Tensor(k, requires_grad=True),
                       Tensor(bias, requires_grad=True), padding=padding, groups=16, act=act)
        ho = 9 + 2 * padding
        assert bands == ([4, 4, ho - 8] if banded else [ho])
        assert out.data.dtype == dtype
        npt.assert_array_equal(out.data, ref + bias)
        bands.clear()
        dx, dk, db = out.creator.backward_fn(g)
        # the input gradient's 11 rows: several bands (the last one short) or one
        assert sum(bands) == 11 and (len(bands) > 1) == banded and bands[-1] <= bands[0]
        for d, d_ref in ((dx, dx_ref), (dk, dk_ref), (db, db_ref)):
            assert d.dtype == dtype
            npt.assert_array_equal(d, d_ref)

    @pytest.mark.parametrize("banded", [True, False])
    @pytest.mark.parametrize("act", ["hardswish", "gelu"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("b", [1, 3])
    def test_matmul_bands_keep_the_bits(self, rng, monkeypatch, b, dtype, act, banded):
        a = rng.normal(scale=3.0, size=(b, 6, 6, 16)).astype(dtype)
        w = rng.normal(size=(16, 24)).astype(dtype)
        bias = rng.normal(size=24).astype(dtype)
        fwd, grad = T.ACTS[act]
        ref = fwd(a).reshape(-1, 16) @ w
        g = rng.normal(size=(b, 6, 6, 24)).astype(dtype)
        g2 = g.reshape(-1, 24)
        # whole-map gradients: the slope over all of d(a), and act(a) whole for d(b)
        da_ref = grad(a, (g2 @ w.T).reshape(a.shape))
        dw_ref, db_ref = fwd(a).reshape(-1, 16).T @ g2, T._sum_rows(g2)
        if banded:  # 8 rows a band, the last one 4 rows: 5 bands at b = 1, 14 at b = 3
            monkeypatch.setattr(T, "_BAND", 16 * 8)
        bands, slopes = [], []
        monkeypatch.setitem(T.ACTS, act, (
            lambda rows, buf=None: (bands.append(len(rows)), fwd(rows, buf))[1],
            lambda rows, ga: (slopes.append(len(rows)), grad(rows, ga))[1]))
        out = T.matmul(Tensor(a, requires_grad=True), Tensor(w, requires_grad=True),
                       Tensor(bias, requires_grad=True), act=act)
        if banded:
            assert bands == [8] * (len(bands) - 1) + [4] and len(bands) == (5 if b == 1 else 14)
        else:
            assert bands == [36 * b]
        assert out.data.dtype == dtype
        npt.assert_array_equal(out.data.reshape(-1, 24), ref + bias)
        forward_bands = list(bands)
        da, dw, db = out.creator.backward_fn(g)
        # backward rebuilds act(a) and applies the slope over the forward's bands
        assert bands == forward_bands * 2 and slopes == forward_bands
        for d, d_ref in ((da, da_ref), (dw, dw_ref), (db, db_ref)):
            assert d.dtype == dtype
            npt.assert_array_equal(d, d_ref)

    def test_matmul_of_an_empty_a_is_one_empty_band(self):
        a = Tensor(np.zeros((0, 16), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((16, 24), dtype=np.float32), requires_grad=True)
        out = T.matmul(a, w, Tensor(np.ones(24, dtype=np.float32), requires_grad=True),
                       act="hardswish")
        assert out.shape == (0, 24)
        da, dw, db = out.creator.backward_fn(np.zeros((0, 24), dtype=np.float32))
        assert da.shape == (0, 16) and dw.shape == (16, 24) and db.shape == (24,)
        assert not dw.any() and not db.any()

    def test_no_grad_peak_is_the_output_and_one_band(self, rng):
        # a whole padded copy (the conv's output size) or a whole act(a) (the
        # matmul's output size 8 times over) would not fit; 64 KiB covers a
        # band's small temporaries (the tiled kernel, einsum's buffers)
        x = Tensor(rng.normal(size=(1, 56, 56, 96)).astype(np.float32))
        k = Tensor(rng.normal(size=(96, 1, 3, 3)).astype(np.float32))
        a = Tensor(rng.normal(size=(1, 56, 56, 384)).astype(np.float32))
        w = Tensor(rng.normal(size=(384, 48)).astype(np.float32))
        band = T._BAND * 4
        for call in (lambda: T.conv2d(x, k, padding=1, groups=96, act="hardswish"),
                     lambda: T.matmul(a, w, act="hardswish")):
            with T.no_grad():
                tracemalloc.start()
                try:
                    out = call()
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert peak <= out.data.nbytes + band + 64 * 1024, \
                f"peak {peak} bytes, output {out.data.nbytes}, band {band}"

    def test_one_band_buffer_is_the_padded_map(self, rng):
        # a map that fits one band pads into a buffer of its own padded rows,
        # not of a whole band (1 MiB here); short rows also hold act(x) whole
        x = Tensor(rng.normal(size=(2, 14, 14, 64)).astype(np.float32))
        k = Tensor(rng.normal(size=(64, 1, 3, 3)).astype(np.float32))
        with T.no_grad():
            tracemalloc.start()
            try:
                out = T.conv2d(x, k, padding=1, groups=64, act="hardswish")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        padded = 2 * 16 * 16 * 64 * 4
        assert peak <= 2 * out.data.nbytes + padded + 16 * 1024, \
            f"peak {peak} bytes, output {out.data.nbytes}, padded {padded}"

    def test_backward_peak_is_the_gradients_one_whole_map_and_one_band(self, rng):
        # the train step's stage-1 IRB maps at B=2: the depthwise conv and the
        # project matmul, each with its act.  Beside the gradients it returns,
        # each backward holds one whole map (the depthwise kernel gradient's
        # padded input, or act(a) for d(b)) and one band of slope values with
        # their bool mask; a whole-map slope, or a whole padded output gradient,
        # would not fit
        def f32(*shape):
            return Tensor(rng.normal(scale=3.0, size=shape).astype(np.float32),
                          requires_grad=True)

        x, k, kb = f32(2, 56, 56, 384), f32(384, 1, 3, 3), f32(384)
        a, w, wb = f32(2, 56, 56, 384), f32(384, 48), f32(48)
        cases = [(T.conv2d(x, k, kb, padding=1, groups=384, act="hardswish"), 2 * 58 * 58 * 384),
                 (T.matmul(a, w, wb, act="hardswish"), a.size)]
        band = T._BAND * (4 + 1)
        for out, whole in cases:
            g = rng.normal(size=out.shape).astype(np.float32)
            tracemalloc.start()
            try:
                grads = out.creator.backward_fn(g)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            returned = sum(d.nbytes for d in grads)
            assert peak <= returned + whole * 4 + band + 64 * 1024, \
                f"peak {peak} bytes, gradients {returned}, whole map {whole * 4}, band {band}"


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# op call -> the argument its ShapeError names; each once raised a NumPy or
# Python error, or was served by a wider contract than the network uses
# (depthwise stride and padding: the autodiff edge tests)
REFUSALS = {
    "conv-stride-0": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 3, 3), stride=0),
                      "stride=0"),
    "depthwise-empty-batch": (lambda: T.conv2d(_zeros(0, 4, 4, 2), _zeros(2, 1, 3, 3),
                                               padding=1, groups=2), "x (0, 4, 4, 2)"),
    "conv-padding-negative": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 3, 3),
                                               padding=-1), "padding=-1"),
    "conv-act-dense": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 3, 3),
                                        act="hardswish"), "act='hardswish'"),
    "depthwise-stride-negative": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(2, 1, 3, 3),
                                                   stride=-1, padding=1, groups=2),
                                  "stride=-1"),
    "conv-act-unknown": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(2, 1, 3, 3), padding=1,
                                          groups=2, act="relu"), "act='relu'"),
    "conv-stride-float": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 3, 3),
                                           stride=1.5), "stride=1.5"),
    "conv-padding-float": (lambda: T.conv2d(_zeros(1, 4, 4, 2), _zeros(3, 2, 3, 3),
                                            padding=0.5), "padding=0.5"),
    "matmul-act-unknown": (lambda: T.matmul(_zeros(2, 3), _zeros(3, 4), act="relu"),
                           "act='relu'"),
    "layer-norm-0d": (lambda: T.layer_norm(_zeros(), _zeros(1), _zeros(1)), "x ()"),
    "layer-norm-residual-shape": (lambda: T.layer_norm(_zeros(2, 3), _zeros(3), _zeros(3),
                                                       residual=_zeros(2, 1)),
                                  "residual (2, 1)"),
    "concat-empty": (lambda: T.concat([]), "maps []"),
    "concat-other-extent": (lambda: T.concat([_zeros(2, 3, 4), _zeros(2, 5, 3)]),
                            "maps [(2, 3, 4), (2, 5, 3)]"),
    "concat-other-batch": (lambda: T.concat([_zeros(2, 3, 4), _zeros(3, 3, 4)]),
                           "maps [(2, 3, 4), (3, 3, 4)]"),
    "concat-ndim": (lambda: T.concat([_zeros(2, 3, 4), _zeros(2, 3)]),
                    "maps [(2, 3, 4), (2, 3)]"),
    "transpose-repeated-axis": (lambda: T.transpose(_zeros(1, 2, 3, 4), (0, 1, 1, 3)),
                                "axes=(0, 1, 1, 3)"),
    "transpose-negative-axis": (lambda: T.transpose(_zeros(2, 3), (-1, 0)), "axes=(-1, 0)"),
    "matmul-broadcast-batch": (lambda: T.matmul(_zeros(1, 3, 4), _zeros(2, 4, 5)),
                               "batch extents"),
    "mean-tuple-axis": (lambda: T.mean(_zeros(2, 3, 4), axis=(0, 2)), "axis=(0, 2)"),
    "mean-axis-out-of-range": (lambda: T.mean(_zeros(2, 3), axis=2), "axis=2"),
    "avg-pool-float-target": (lambda: T.adaptive_avg_pool2d(_zeros(1, 4, 4, 2), 2.0, 2),
                              "out_h=2.0"),
    "max-pool-bool-target": (lambda: T.adaptive_max_pool2d(_zeros(1, 4, 4, 2), 2, True),
                             "out_w=True"),
    "softmax-scale-str": (lambda: T.softmax_rows(_zeros(2, 3), "x"), "scale='x'"),
    "softmax-scale-bool": (lambda: T.softmax_rows(_zeros(2, 3), True), "scale=True"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_op_boundary_refusal_names_the_argument(case):
    call, named = REFUSALS[case]
    with pytest.raises(ShapeError, match=re.escape(named)):
        call()
