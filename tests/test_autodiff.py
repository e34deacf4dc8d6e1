"""Reverse-mode gradients against the finite-difference oracle, plus graph
semantics (accumulation, single-visit traversal, no_grad, bias sums)."""

import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from ppvit import (GraphFreedError, ShapeError, Tensor, build_model,
                   finite_difference_grad, forward_classify, forward_features, no_grad,
                   preset)
import oracles
from conftest import mean_loss
from ppvit import tensor as T
from ppvit.layers import irb_forward
from ppvit.model import _Init, _init_irb
from ppvit.training import _projection_loss

TOL = 1e-4


def relerr(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-6)
    return np.abs(analytic - numeric).max() / scale


def check_grads(f, tensors):
    """Backward vs central differences for every listed input."""
    for t in tensors:
        t.grad = None
    f().backward()
    for t in tensors:
        fd = finite_difference_grad(lambda _: f(), t)
        assert relerr(t.grad, fd) < TOL, f"gradient mismatch on shape {t.shape}"


def randt(rng, *shape, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True,
                  dtype=np.float64)


def proj(y, seed):
    return _projection_loss(y, np.random.default_rng(seed))


def act_loss(x, act, w, k):
    """``act`` as the prologue of a matmul and of a depthwise conv, each
    reading ``x``'s rows (``w`` [C, n], ``k`` [C, 1, 3, 3]), projected."""
    c = x.shape[-1]
    mm = T.matmul(T.reshape(x, (1, -1, c)), w, act=act)
    cv = T.conv2d(T.reshape(x, (1, 1, -1, c)), k, padding=1, groups=c, act=act)
    return proj(T.concat([T.reshape(mm, (1, -1, 1)), T.reshape(cv, (1, -1, 1))]), 15)


class TestBasicsByHand:
    def test_sum_gradient_is_ones(self, rng):
        # the sum as x's row times a ones column
        x = randt(rng, 2, 3, 4)
        T.matmul(T.reshape(x, (1, -1)), Tensor(np.ones((24, 1)))).backward()
        npt.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_sum_of_squares(self):
        # x's row times x's column: both operands of one node read x
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True, dtype=np.float64)
        T.matmul(T.reshape(x, (1, 3)), T.reshape(x, (3, 1))).backward()
        npt.assert_allclose(x.grad, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_accumulation_without_reset(self):
        x = Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        mean_loss(x).backward()
        mean_loss(x).backward()
        npt.assert_array_equal(x.grad, [1.0, 1.0])

    def test_shared_subexpression_visited_once(self):
        # y joins x to itself, so d/dx sum(y^2) = 4x; a double-visited node
        # would double it
        x = Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
        y = T.concat([T.reshape(x, (1, 2, 1))] * 2)
        T.matmul(T.reshape(y, (1, 4)), T.reshape(y, (4, 1))).backward()
        npt.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-12)

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            T.matmul(T.reshape(x, (2, 1)), T.reshape(x, (1, 2))).backward()

    def test_backward_refuses_a_loss_with_no_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            z = mean_loss(x)
        for loss in (z, mean_loss(Tensor([1.0, 2.0]))):
            with pytest.raises(ShapeError, match="graph"):
                loss.backward()
            assert loss.grad is None
        assert x.grad is None
        leaf = Tensor([3.0], requires_grad=True)  # a leaf loss is its own graph
        leaf.backward()
        npt.assert_array_equal(leaf.grad, [1.0])

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = T.matmul(T.reshape(x, (1, 1)), T.reshape(x, (1, 1)))
        assert not y.requires_grad and y.creator is None

    def test_detached_leaf_gets_no_grad(self, rng):
        x = randt(rng, 3)
        frozen = Tensor(rng.normal(size=(3, 1)))
        T.matmul(T.reshape(x, (1, 3)), frozen).backward()
        assert frozen.grad is None and x.grad is not None


class TestFiniteDifferenceOracle:
    def test_sum_is_ones(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), dtype=np.float64)
        fd = finite_difference_grad(
            lambda t: T.matmul(T.reshape(t, (1, 6)), Tensor(np.ones((6, 1)))), x)
        npt.assert_allclose(fd, 1.0, atol=1e-9)

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], dtype=np.float64)
        fd = finite_difference_grad(
            lambda t: T.matmul(T.reshape(t, (1, 2)), T.reshape(t, (2, 1))), x)
        npt.assert_allclose(fd, [2.0, 4.0], atol=1e-7)

    def test_input_restored_when_f_raises(self):
        # ``f`` fails on the minus side of the second coordinate
        x = Tensor([1.0, 2.0, 3.0], dtype=np.float64)
        before = x.data.copy()

        def f(t):
            if t.data[1] < 2.0:
                raise ShapeError("minus side")
            return mean_loss(t)

        with pytest.raises(ShapeError, match="minus side"):
            finite_difference_grad(f, x)
        npt.assert_array_equal(x.data, before)

    def test_two_layer_composite_self_consistency(self, rng):
        x = randt(rng, 4)
        w1 = Tensor(rng.normal(size=(4, 5)))
        w2 = Tensor(rng.normal(size=(5, 1)))

        def f(t):
            return T.matmul(T.matmul(T.reshape(t, (1, 4)), w1), w2, act="hardswish")

        f(x).backward()
        fd = finite_difference_grad(f, x)
        assert relerr(x.grad, fd) < TOL


# every differentiable op, three distinct shapes each; maps are
# channels-last [B, H, W, C]
SHAPES3 = [(3,), (2, 4), (2, 3, 2)]
# the last merges 4 (padding 1) or 5 (padding 2) of its 8 or 10 output
# columns per depthwise window row
SHAPES4D = [(1, 4, 4, 2), (2, 5, 4, 3), (1, 6, 7, 1), (2, 1, 1, 3), (1, 2, 2, 2),
            (1, 2, 8, 48)]


class TestEveryOpThreeShapes:
    @pytest.mark.parametrize("shape", [(12,), (2, 6), (3, 2, 2)])
    def test_reshape(self, rng, shape):
        x = randt(rng, *shape)
        check_grads(lambda: proj(T.reshape(x, (12,)), 7), [x])

    @pytest.mark.parametrize("shape,axes", [((2, 3), (1, 0)), ((2, 3, 4), (2, 0, 1)),
                                            ((2, 2, 2, 3), (0, 3, 1, 2))])
    def test_transpose(self, rng, shape, axes):
        x = randt(rng, *shape)
        check_grads(lambda: proj(T.transpose(x, axes), 8), [x])

    # pyramid levels: two grids, one level, and maps of three ranks
    @pytest.mark.parametrize("shapes", [((2, 2, 3, 3), (2, 1, 2, 3)), ((1, 3, 2, 2),),
                                        ((2, 3, 2), (2, 2, 2, 2), (2, 1, 2, 1, 2))])
    def test_concat(self, rng, shapes):
        ts = [randt(rng, *s) for s in shapes]
        check_grads(lambda: proj(T.concat(ts), 9), ts)

    @pytest.mark.parametrize("sa,sb", [((2, 3), (3, 4)), ((2, 3, 4), (2, 4, 2)),
                                       ((2, 2, 3, 4), (2, 2, 4, 3))])
    def test_matmul(self, rng, sa, sb):
        a, b = randt(rng, *sa), randt(rng, *sb)
        check_grads(lambda: proj(T.matmul(a, b), 12), [a, b])

    def test_matmul_broadcast_batch(self, rng):
        a = randt(rng, 3, 2, 4)
        b = randt(rng, 4, 5)  # shared across the batch
        check_grads(lambda: proj(T.matmul(a, b), 13), [a, b])

    @pytest.mark.parametrize("shape", SHAPES3)
    def test_hardswish_away_from_kinks(self, rng, shape):
        vals = rng.uniform(-2.8, 2.8, size=shape)
        vals[np.abs(np.abs(vals) - 3.0) < 0.01] = 0.5
        x = Tensor(vals, requires_grad=True, dtype=np.float64)
        w, k = randt(rng, shape[-1], 3), randt(rng, shape[-1], 1, 3, 3)
        check_grads(lambda: act_loss(x, "hardswish", w, k), [x, w, k])

    def test_hardswish_saturated_regions(self, rng):
        x = Tensor(np.array([-5.0, -3.5, 3.5, 6.0]), requires_grad=True,
                   dtype=np.float64)
        w, k = randt(rng, 4, 3), randt(rng, 4, 1, 3, 3)
        check_grads(lambda: act_loss(x, "hardswish", w, k), [x, w, k])
        # at the kinks the slope is the left limit: 0 at -3, 1.5 at 3; a
        # ones weight and a centre-tap kernel pass it on unchanged
        centre = np.zeros((2, 1, 3, 3))
        centre[:, 0, 1, 1] = 1.0
        for dtype in (np.float32, np.float64):
            ones = Tensor(np.ones((2, 1)), dtype=dtype)
            for op in ("matmul", "conv2d"):
                kinks = Tensor(np.array([-3.0, 3.0]), requires_grad=True, dtype=dtype)
                if op == "matmul":
                    y = T.matmul(T.reshape(kinks, (1, 2)), ones, act="hardswish")
                else:
                    y = T.conv2d(T.reshape(kinks, (1, 1, 1, 2)), Tensor(centre, dtype=dtype),
                                 padding=1, groups=2, act="hardswish")
                    y = T.matmul(T.reshape(y, (1, 2)), ones)
                y.backward()
                assert kinks.grad.dtype == dtype
                npt.assert_array_equal(kinks.grad, [0.0, 1.5])

    @pytest.mark.parametrize("shape", SHAPES3)
    def test_gelu(self, rng, shape):
        x = randt(rng, *shape)
        w, k = randt(rng, shape[-1], 3), randt(rng, shape[-1], 1, 3, 3)
        check_grads(lambda: act_loss(x, "gelu", w, k), [x, w, k])

    @pytest.mark.parametrize("shape", [(1, 4), (3, 5), (2, 2, 6)])
    def test_softmax_rows(self, rng, shape):
        x = randt(rng, *shape, scale=2.0)
        check_grads(lambda: proj(T.softmax_rows(x, 1.0), 18), [x])
        check_grads(lambda: proj(T.softmax_rows(x, 2.5), 5), [x])

    @pytest.mark.parametrize("shape", [(2, 4), (3, 2, 6), (1, 5, 3)])
    def test_layer_norm(self, rng, shape):
        x = randt(rng, *shape)
        g = Tensor(rng.normal(loc=1.0, scale=0.1, size=shape[-1]),
                   requires_grad=True, dtype=np.float64)
        b = randt(rng, shape[-1], scale=0.1)
        check_grads(lambda: proj(T.layer_norm(x, g, b), 19), [x, g, b])

    @pytest.mark.parametrize("shape", [(2, 4), (3, 2, 6), (1, 5, 3)])
    def test_layer_norm_residual(self, rng, shape):
        # the post-norm residual sum: one input gradient for x and residual
        x, r = randt(rng, *shape), randt(rng, *shape)
        g = Tensor(rng.normal(loc=1.0, scale=0.1, size=shape[-1]),
                   requires_grad=True, dtype=np.float64)
        b = randt(rng, shape[-1], scale=0.1)
        check_grads(lambda: proj(T.layer_norm(x, g, b, residual=r), 14), [x, r, g, b])

    # the last case is the stem's 7x7/4/pad-3 on 3 channels: overlapping
    # windows whose taps reach into the padding on both sides
    @pytest.mark.parametrize("shape,cout,stride,padding,k", [
        pytest.param((1, 4, 4, 2), 3, 1, 0, 3, id="shape0-3-1-0-1"),
        pytest.param((2, 5, 5, 3), 2, 2, 1, 3, id="shape1-2-2-1-1"),
        pytest.param((1, 9, 10, 3), 2, 4, 3, 7, id="stem-7x7-4-3"),
    ])
    def test_conv2d(self, rng, shape, cout, stride, padding, k):
        x = randt(rng, *shape)
        w = randt(rng, cout, shape[3], k, k)
        b = randt(rng, cout)
        check_grads(lambda: proj(T.conv2d(x, w, b, stride=stride, padding=padding), 20),
                    [x, w, b])

    @pytest.mark.parametrize("shape", SHAPES4D)
    def test_depthwise_conv2d(self, rng, shape):
        x = randt(rng, *shape)
        w = randt(rng, shape[3], 1, 3, 3)
        b = randt(rng, shape[3])
        for padding in (0, 1, 2):
            if min(shape[1:3]) + 2 * padding < 3:
                continue
            check_grads(lambda: proj(T.conv2d(x, w, b, padding=padding, groups=shape[3]),
                                     21), [x, w, b])

    # Depthwise is stride 1 with padding below the kernel: inside that
    # contract the gradients match, and the strided or over-padded calls
    # the kernel once took are refused.
    @pytest.mark.parametrize("shape,kernel,stride,padding", [
        ((2, 6, 5, 3), (3, 3), 2, 0),  # strided: refused
        ((1, 5, 6, 2), (3, 3), 2, 0),  # strided: refused
        ((2, 5, 4, 3), (2, 3), 1, 1),  # non-square kernel
        ((1, 4, 5, 2), (3, 2), 2, 1),  # non-square kernel, strided: refused
        ((1, 3, 4, 2), (2, 2), 1, 2),  # padding >= kernel extent: refused
        ((2, 2, 3, 2), (2, 2), 2, 3),  # padding >= kernel extent, strided: refused
        ((1, 4, 5, 2), (3, 2), 1, 1),  # non-square kernel, padding at its narrow extent - 1
        ((1, 3, 4, 2), (2, 2), 1, 1),  # padding kernel - 1: dx's g is not padded
        ((2, 1, 2, 3), (3, 3), 1, 1),  # a 1x2 map, every tap but the centre row in padding
    ])
    def test_depthwise_conv2d_edges(self, rng, shape, kernel, stride, padding):
        c = shape[3]
        x = randt(rng, *shape)
        w = randt(rng, c, 1, *kernel)
        b = randt(rng, c)
        if stride == 1 and padding < min(kernel):
            check_grads(lambda: proj(T.conv2d(x, w, b, padding=padding, groups=c), 25),
                        [x, w, b])
        else:
            with pytest.raises(ShapeError, match="stride=2" if stride > 1 else "padding="):
                T.conv2d(x, w, b, stride=stride, padding=padding, groups=c)

    @pytest.mark.parametrize("shape,oh,ow", [((1, 4, 4, 2), 2, 2),
                                             ((2, 7, 5, 3), 3, 2),
                                             ((1, 5, 8, 1), 2, 3)])
    def test_adaptive_avg_pool2d(self, rng, shape, oh, ow):
        x = randt(rng, *shape)
        check_grads(lambda: proj(T.adaptive_avg_pool2d(x, oh, ow), 22), [x])

    @pytest.mark.parametrize("shape,oh,ow", [((1, 4, 4, 2), 2, 2),
                                             ((2, 7, 5, 3), 3, 2),
                                             ((1, 6, 6, 1), 2, 2)])
    def test_adaptive_max_pool2d(self, rng, shape, oh, ow):
        x = randt(rng, *shape)
        check_grads(lambda: proj(T.adaptive_max_pool2d(x, oh, ow), 23), [x])

    @pytest.mark.parametrize("n,k", [(2, 3), (5, 4), (3, 2)])
    def test_cross_entropy(self, rng, n, k):
        x = randt(rng, n, k)
        labels = rng.integers(0, k, size=n)
        check_grads(lambda: T.cross_entropy_logits(x, labels), [x])


class TestSweepOrder:
    """Every fan-in is summed in the order of the first sweep
    (``oracles.backward_sweep``), so gradients keep their bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_micro_gradients_match_the_oracle_sweep(self, dtype):
        net = build_model(preset("micro", num_classes=4), seed=0, dtype=dtype)
        x = Tensor(np.random.default_rng(3).uniform(size=(4, 32, 32, 3)).astype(dtype))
        named = net.named_params()
        got = []
        for sweep in (T.backward, oracles.backward_sweep):
            T.zero_grads([p for _, p in named])
            sweep(T.cross_entropy_logits(forward_classify(net, x), [0, 1, 2, 3]))
            got.append([p.grad for _, p in named])
        for (name, _), ours, ref in zip(named, *got):
            assert ours.dtype == dtype and np.array_equal(ours, ref), name

    def test_three_way_fan_in_sums_in_the_oracle_order(self):
        # row r of ``h`` sums 1e8, 1 and -1e8 from three consumers, the 1 from
        # another consumer in each row; in float32 a row reads 1 only if its 1
        # is added last, so letting another consumer arrive last moves the 1
        vals = np.array([[1e8, 1.0, -1e8], [1.0, -1e8, 1e8], [-1e8, 1e8, 1.0]],
                        dtype=np.float32)  # [row, consumer]
        grads = []
        for sweep in (T.backward, oracles.backward_sweep):
            leaf = Tensor(np.ones((1, 3, 1), dtype=np.float32), requires_grad=True)
            h = T.reshape(leaf, (1, 3, 1))
            outs = [T.matmul(Tensor(np.diag(vals[:, i])[None]), h) for i in range(3)]
            total = T.reshape(T.concat(outs), (1, 9))  # the three consumers side by side
            sweep(T.matmul(total, Tensor(np.ones((9, 1), dtype=np.float32))))
            grads.append(leaf.grad)
        assert grads[0].dtype == np.float32 and sorted(grads[0].ravel()) == [0.0, 0.0, 1.0]
        npt.assert_array_equal(grads[0], grads[1])


class TestGradientMassAndStructure:
    def test_avg_pool_backward_conserves_mass(self, rng):
        x = randt(rng, 1, 7, 5, 2)
        out = T.adaptive_avg_pool2d(x, 3, 2)
        proj(out, 0).backward()
        w = np.random.default_rng(0).normal(size=out.size)  # the weights ``proj`` drew
        npt.assert_allclose(x.grad.sum(), w.sum(), rtol=1e-10)

    def test_max_pool_routes_to_argmax_only(self, rng):
        x = randt(rng, 1, 4, 4, 1)
        mean_loss(T.adaptive_max_pool2d(x, 2, 2)).backward()
        # disjoint 2x2 bins: exactly one winner per bin
        assert (x.grad != 0).sum() == 4
        npt.assert_allclose(x.grad.sum(), 1.0, rtol=1e-12)

    def test_broadcast_unreduces_to_leaf_shape(self, rng):
        # a bias is added to every row; its gradient sums back to its shape
        a = randt(rng, 3, 4)
        b = randt(rng, 4)
        mean_loss(T.matmul(a, Tensor(np.eye(4)), b)).backward()
        assert b.grad.shape == (4,)
        npt.assert_allclose(b.grad, 3.0 / 12.0, rtol=1e-12)


def _record_outputs_of(monkeypatch, weight):
    """Weak references to the buffer of each op output made from ``weight``
    (the array that owns ``data``, which a view of it keeps alive), taken as
    ``_make`` returns it: no node reaches an op output."""
    refs, make = [], T._make

    def spy(op, out_data, inputs, *args, **kwargs):
        out = make(op, out_data, inputs, *args, **kwargs)
        if any(t is weight for t in inputs):
            refs.append(weakref.ref(out.data if out.data.base is None else out.data.base))
        return out

    monkeypatch.setattr(T, "_make", spy)
    return refs


def _micro_step_memory():
    """Traced bytes of one micro B=32 step of the overfit recipe: those
    alive at the forward's end, and the backward's peak."""
    net = build_model(preset("micro", num_classes=4), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(32, 32, 32, 3)).astype(np.float32))

    def step_loss():
        T.zero_grads(net.params())
        return T.cross_entropy_logits(forward_classify(net, x), np.arange(32) % 4)

    step_loss().backward()  # caches and first-call allocations
    tracemalloc.start()
    try:
        loss = step_loss()
        forward_end = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward_end, peak


class TestBackwardFreesTheGraph:
    def test_interior_activation_dies_during_backward(self, rng, monkeypatch):
        state = _init_irb(_Init(0, np.float64), 4, 2, "irb", "hardswish")
        x = randt(rng, 2, 3, 4, 4)
        refs = _record_outputs_of(monkeypatch, state.expand.weight)
        loss = mean_loss(irb_forward(x, state))
        (ref,) = refs
        assert ref() is not None
        loss.backward()
        # ``loss`` is still referenced, but its graph no longer is
        assert ref() is None
        assert loss.creator.inputs == () and loss.creator.backward_fn is None

    def test_unread_op_output_dies_before_backward(self, rng):
        # a residual pair feeding layer_norm and a score feeding softmax_rows:
        # neither backward reads its inputs, so the graph must not hold them
        x, y, k = randt(rng, 2, 5, 4), randt(rng, 2, 5, 4), randt(rng, 2, 4, 3)
        gamma, beta, w = randt(rng, 4), randt(rng, 4), randt(rng, 4, 4)
        base, branch = T.matmul(x, w), T.matmul(y, w)
        pair_refs = [weakref.ref(base.data), weakref.ref(branch.data)]
        h = T.matmul(T.layer_norm(base, gamma, beta, residual=branch), w)
        h_ref = weakref.ref(h.data)
        scores = T.matmul(h, k)
        scores_ref = weakref.ref(scores.data)
        probs = T.softmax_rows(scores, 0.5)
        del base, branch, h, scores
        assert [ref() is None for ref in pair_refs] == [True, True]
        assert scores_ref() is None
        # the score matmul's backward reads ``h``: it lives until that node ran
        score_node = probs.creator.inputs[0]
        softmax_bw, seen = probs.creator.backward_fn, []

        def softmax_then_check(g):
            seen.append(h_ref() is not None)
            return softmax_bw(g)

        probs.creator.backward_fn = softmax_then_check
        proj(probs, 0).backward()
        assert score_node.op == "matmul" and score_node.backward_fn is None
        assert seen == [True] and h_ref() is None
        assert w.grad is not None and k.grad is not None

    def test_patch_embed_does_not_pin_its_input_map(self, rng):
        # a loss on stage 4 alone: the dense conv opening each later stage
        # reads its input map only to make ``cols``, so no backward closure
        # may keep stages 1-3's outputs alive until ``backward``
        net = build_model(preset("micro", num_classes=2), seed=0)
        x = Tensor(rng.uniform(size=(1, 32, 32, 3)).astype(np.float32))
        pyr = forward_features(net, x)
        refs = [weakref.ref(m.data) for m in pyr[:3]]
        loss = mean_loss(pyr[3])
        del pyr
        assert [ref() is None for ref in refs] == [True, True, True]
        loss.backward()
        assert net.stem.conv.weight.grad is not None  # through every patch embed

    def test_second_backward_raises_and_keeps_grads(self, rng):
        x, w = randt(rng, 2, 3), randt(rng, 3, 4)
        y = T.matmul(x, w)
        loss = proj(y, 0)
        loss.backward()
        first = x.grad.copy(), w.grad.copy()
        # the same loss again, and a new loss over part of the freed graph
        for again in (loss, mean_loss(y)):
            with pytest.raises(GraphFreedError, match="freed by an earlier backward"):
                again.backward()
            npt.assert_array_equal(x.grad, first[0])
            npt.assert_array_equal(w.grad, first[1])

    def test_backward_allocates_little_above_the_forward(self):
        # one micro B=32 step of the overfit recipe: freed as it goes, the
        # sweep's peak stays near the forward's end; kept to the end it
        # stacked the gradients on every activation (0.95 MiB)
        forward_end, peak = _micro_step_memory()
        assert peak - forward_end <= 0.5 * 2 ** 20, f"{(peak - forward_end) / 2 ** 20:.2f} MiB"

    def test_forward_holds_only_what_backward_reads(self):
        # the same step's graph at the forward's end: with every op output
        # linked from its consumer's node, it held 4.25 MiB
        forward_end, _ = _micro_step_memory()
        assert forward_end <= 3.6 * 2 ** 20, f"{forward_end / 2 ** 20:.2f} MiB"
