"""Optimizer, schedule, training loop, and gradient-check plumbing."""

import math

import numpy as np
import numpy.testing as npt
import pytest

import oracles
from ppvit import (AdamWState, CheckpointError, ConfigError, DivergenceError,
                   NonFiniteError, SyntheticDataset, Tensor, TrainConfig, adamw_step,
                   build_model, evaluate, forward_classify, gradcheck_suite,
                   load_batch, lr_at, preset, train)
from ppvit import tensor as T
from ppvit import training as TR
from ppvit.training import records_to_csv


def nano_setup(num_classes=2, steps=5, samples=8, seed=0):
    cfg = preset("nano", num_classes=num_classes)
    net = build_model(cfg, seed=seed)
    ds = SyntheticDataset("blobs", samples, 32, num_classes, seed=3)
    tc = TrainConfig(lr=1e-3, weight_decay=0.01, warmup_steps=2,
                     total_steps=steps, batch_size=4, seed=1)
    return net, ds, tc


class TestSchedule:
    TC = TrainConfig(lr=0.4, warmup_steps=10, total_steps=40)

    def test_starts_at_zero(self):
        assert lr_at(self.TC, 0) == 0.0

    def test_warmup_is_linear(self):
        assert lr_at(self.TC, 5) == pytest.approx(0.2)
        assert lr_at(self.TC, 1) == pytest.approx(0.04)

    def test_peak_at_warmup_end(self):
        assert lr_at(self.TC, 10) == pytest.approx(0.4)

    def test_cosine_midpoint(self):
        assert lr_at(self.TC, 25) == pytest.approx(0.2)

    def test_ends_at_zero(self):
        assert abs(lr_at(self.TC, 40)) < 1e-12 * self.TC.lr + 1e-18

    def test_no_warmup_starts_at_peak(self):
        tc = TrainConfig(lr=0.4, warmup_steps=0, total_steps=10)
        assert lr_at(tc, 0) == pytest.approx(0.4)

    def test_step_range_enforced(self):
        with pytest.raises(ConfigError):
            lr_at(self.TC, -1)
        with pytest.raises(ConfigError):
            lr_at(self.TC, 41)

    def test_warmup_longer_than_run_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(warmup_steps=11, total_steps=10)

    @pytest.mark.parametrize("field,value", [
        ("lr", math.nan), ("lr", math.inf), ("weight_decay", math.nan),
        ("weight_decay", math.inf)])
    def test_non_finite_rates_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Tensor(np.array([1.5, -2.0, 0.25]), requires_grad=True)
        before = p.data.copy()
        named = [("p", p)]
        state = AdamWState.for_params(named)
        tc = TrainConfig(lr=0.1, weight_decay=0.0, total_steps=10)
        adamw_step(named, [np.zeros(3)], state, tc, 1)
        npt.assert_array_equal(p.data, before)

    def test_single_step_descends_quadratic(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        named = [("p", p)]
        state = AdamWState.for_params(named)
        tc = TrainConfig(lr=0.1, weight_decay=0.0, warmup_steps=0,
                         total_steps=10)
        adamw_step(named, [2.0 * p.data], state, tc, 1)
        assert 0 < p.data[0] < 1.0

    def test_five_step_trajectory_matches_hand_oracle(self):
        tc = TrainConfig(lr=0.05, weight_decay=0.1, warmup_steps=2,
                         total_steps=5)
        x0 = np.array([1.0, -3.0, 0.5])
        p = Tensor(x0.copy(), requires_grad=True)
        named = [("p", p)]
        state = AdamWState.for_params(named)
        mine = []
        for step in range(1, 6):
            adamw_step(named, [2.0 * p.data], state, tc, step)
            mine.append(p.data.copy())
        ref = oracles.adamw_hand(x0, lambda x: 2.0 * x,
                                 lambda t: lr_at(tc, t), 0.1, 5)
        for a, b in zip(mine, ref):
            npt.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_float32_step_matches_out_of_place_formula_bit_for_bit(self, rng):
        # the in-place update keeps the formula's operation order
        tc = TrainConfig(lr=0.05, weight_decay=0.1, warmup_steps=2,
                         total_steps=10)
        step = 3
        p0 = rng.normal(size=(4, 5)).astype(np.float32)
        g = rng.normal(size=(4, 5)).astype(np.float32)
        m0 = rng.normal(scale=0.1, size=(4, 5)).astype(np.float32)
        v0 = rng.uniform(0.0, 0.1, size=(4, 5)).astype(np.float32)
        p = Tensor(p0.copy(), requires_grad=True)
        named = [("p", p)]
        state = AdamWState.for_params(named)
        state.m[:] = m0.ravel()
        state.v[:] = v0.ravel()
        lr = adamw_step(named, [g], state, tc, step)

        b1, b2, eps = TR.ADAM_BETA1, TR.ADAM_BETA2, TR.ADAM_EPS
        m = b1 * m0 + (1.0 - b1) * g
        v = b2 * v0 + (1.0 - b2) * g * g
        update = (m / (1.0 - b1 ** step)) / (np.sqrt(v / (1.0 - b2 ** step)) + eps)
        ref = p0 - lr * (update + tc.weight_decay * p0)
        assert p.data.dtype == np.float32
        npt.assert_array_equal(state.m.reshape(m.shape), m)
        npt.assert_array_equal(state.v.reshape(v.shape), v)
        npt.assert_array_equal(p.data, ref)

    def test_applied_lr_is_returned(self):
        tc = TrainConfig(lr=0.4, warmup_steps=10, total_steps=40)
        p = Tensor(np.ones(2), requires_grad=True)
        named = [("p", p)]
        state = AdamWState.for_params(named)
        assert adamw_step(named, [np.ones(2)], state, tc, 5) == lr_at(tc, 5)

    def test_nan_gradient_names_parameter(self):
        p = Tensor(np.ones(2), requires_grad=True)
        named = [("stem.conv.weight", p)]
        state = AdamWState.for_params(named)
        tc = TrainConfig(total_steps=5)
        with pytest.raises(NonFiniteError, match="stem.conv.weight"):
            adamw_step(named, [np.array([1.0, np.nan])], state, tc, 1)

    def test_misaligned_grads_rejected(self):
        p = Tensor(np.ones(2), requires_grad=True)
        named = [("p", p)]
        state = AdamWState.for_params(named)
        tc = TrainConfig(total_steps=5)
        with pytest.raises(ConfigError):
            adamw_step(named, [np.ones(2), np.ones(2)], state, tc, 1)
        with pytest.raises(ConfigError):
            adamw_step(named, [np.ones(3)], state, tc, 1)
        with pytest.raises(ConfigError, match="misaligned"):
            AdamWState(state.arena, np.zeros(3), np.zeros(2))

    def test_detached_parameter_refused_before_any_write(self):
        # rebinding Tensor.data detaches the parameter from the state's arena
        p, q = Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        named = [("p", p), ("q", q)]
        state = AdamWState.for_params(named)
        arena = state.arena.data
        q.data = q.data.copy()
        tc = TrainConfig(total_steps=5)
        with pytest.raises(ConfigError, match="misaligned"):
            adamw_step(named, [np.ones(2), np.ones(3)], state, tc, 1)
        npt.assert_array_equal(arena, np.ones(5))
        npt.assert_array_equal(q.data, np.ones(3))
        assert not state.m.any() and not state.v.any()


class TestChunkedAdamW:
    """The arena-chunked step against the per-parameter loop oracle."""

    @staticmethod
    def _standalone(sizes, rng):
        return [(f"p{i}", Tensor(rng.normal(size=n).astype(np.float32), requires_grad=True))
                for i, n in enumerate(sizes)]

    def _run_against_oracle(self, named, grad_fn, tc, steps=3):
        state = AdamWState.for_params(named)
        ref = [p.data.copy() for _, p in named]
        ref_m = [np.zeros_like(p) for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        for step in range(1, steps + 1):
            grads = grad_fn(step)
            lr = adamw_step(named, grads, state, tc, step)
            oracles.adamw_loop(ref, grads, ref_m, ref_v, lr, tc.weight_decay, step)
            offsets = state.arena.offsets
            for (name, p), r, rm, rv, lo, hi in zip(named, ref, ref_m, ref_v,
                                                    offsets, offsets[1:]):
                m, v = state.m[lo:hi].reshape(rm.shape), state.v[lo:hi].reshape(rv.shape)
                npt.assert_array_equal(p.data, r, err_msg=f"{name} at step {step}")
                npt.assert_array_equal(m, rm, err_msg=f"{name} m at step {step}")
                npt.assert_array_equal(v, rv, err_msg=f"{name} v at step {step}")
        return state

    def test_micro_model_matches_per_parameter_loop_bit_for_bit(self):
        net = build_model(preset("micro", num_classes=4), seed=0)
        ds = SyntheticDataset("blobs", 8, 32, 4, seed=7)
        tc = TrainConfig(lr=2e-3, weight_decay=0.05, warmup_steps=1,
                         total_steps=3, batch_size=8)
        named = net.named_params()

        def grads(step):
            images, labels = load_batch(ds, np.arange(8))
            loss = T.cross_entropy_logits(forward_classify(net, images), labels)
            T.zero_grads([p for _, p in named])
            loss.backward()
            return [p.grad for _, p in named]

        state = self._run_against_oracle(named, grads, tc)
        assert state.arena.data is net.arena.data

    def test_parameter_spanning_chunk_boundaries(self, rng):
        # p0 ends 3 values short of the first boundary, p1 crosses it and
        # p2 crosses the next two; the list is adopted into a new arena
        chunk = TR.ADAMW_CHUNK
        named = self._standalone([chunk - 3, 10, 2 * chunk + 5], rng)
        grads = {s: [rng.normal(size=p.shape).astype(np.float32) for _, p in named]
                 for s in (1, 2, 3)}
        tc = TrainConfig(lr=0.05, weight_decay=0.1, warmup_steps=0, total_steps=3)
        state = self._run_against_oracle(named, grads.__getitem__, tc)
        assert len(state.chunks) == 4
        assert all(p.data.base is state.arena.data for _, p in named)

    def test_nan_in_a_later_chunk_names_its_parameter(self, rng):
        chunk = TR.ADAMW_CHUNK
        named = self._standalone([chunk + 5, 10, 20], rng)
        state = AdamWState.for_params(named)
        grads = [np.ones(p.shape, dtype=np.float32) for _, p in named]
        grads[2][7] = np.inf
        tc = TrainConfig(total_steps=5)
        with pytest.raises(NonFiniteError, match="'p2'"):
            adamw_step(named, grads, state, tc, 1)

    def test_nan_in_a_later_chunk_writes_nothing(self, rng):
        # p0 fills the first chunk and p1 lies in the second, so a check
        # made chunk by chunk would find the NaN only after p0 was stepped
        chunk = TR.ADAMW_CHUNK
        named = self._standalone([chunk, 10], rng)
        state = AdamWState.for_params(named)
        tc = TrainConfig(total_steps=5)
        grads = [np.ones(p.shape, dtype=np.float32) for _, p in named]
        adamw_step(named, grads, state, tc, 1)
        before = [a.copy() for a in (named[0][1].data, state.m, state.v)]
        grads[1][3] = np.nan
        with pytest.raises(NonFiniteError, match="'p1'"):
            adamw_step(named, grads, state, tc, 2)
        for a, b in zip((named[0][1].data, state.m, state.v), before):
            npt.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestAdamWFiniteCheck:
    """Gradients are checked with the engine's own finite test (``T.all_finite``)."""

    @staticmethod
    def _setup(rng):
        named = [(f"p{i}", Tensor(rng.normal(size=shape).astype(np.float32),
                                  requires_grad=True))
                 for i, shape in enumerate([(6,), (4, 3), (5,)])]
        return named, AdamWState.for_params(named), TrainConfig(total_steps=5)

    def test_gradient_whose_squares_overflow_passes(self, rng):
        named, state, tc = self._setup(rng)
        grads = [np.full(p.shape, 1e30, dtype=np.float32) for _, p in named]
        grads[1][0, 0] = -3e38
        assert not math.isfinite(np.vdot(grads[0], grads[0]))
        ref = [p.data.copy() for _, p in named]
        ref_m, ref_v = [np.zeros_like(r) for r in ref], [np.zeros_like(r) for r in ref]
        with np.errstate(over="ignore"):  # the second moment overflows, as in the formula
            lr = adamw_step(named, grads, state, tc, 1)
            oracles.adamw_loop(ref, grads, ref_m, ref_v, lr, tc.weight_decay, 1)
        for (_, p), r in zip(named, ref):
            npt.assert_array_equal(p.data, r)
            assert np.isfinite(p.data).all()

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_later_parameter_is_named_and_nothing_written(self, rng, layout, bad):
        named, state, tc = self._setup(rng)
        adamw_step(named, [rng.normal(size=p.shape).astype(np.float32) for _, p in named],
                   state, tc, 1)
        before = [a.copy() for a in (state.arena.data, state.m, state.v)]
        grads = [np.ones(p.shape, dtype=np.float32) for _, p in named]
        if layout == "strided":
            grads[1] = np.ones((4, 6), dtype=np.float32)[:, ::2]
            assert not grads[1].flags.c_contiguous
        grads[1][2, 1] = bad
        with pytest.raises(NonFiniteError, match="'p1'"):
            adamw_step(named, grads, state, tc, 2)
        for a, b in zip((state.arena.data, state.m, state.v), before):
            npt.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestTrainLoop:
    def test_two_runs_identical(self):
        net_a, ds, tc = nano_setup()
        net_b, _, _ = nano_setup()
        assert train(net_a, ds, tc) == train(net_b, ds, tc)

    def test_no_leaf_gradient_after_train(self):
        net = build_model(preset("micro", num_classes=4), seed=0)
        ds = SyntheticDataset("blobs", 8, 32, 4, seed=7)
        train(net, ds, TrainConfig(total_steps=2, batch_size=4))
        assert [n for n, p in net.named_params() if p.grad is not None] == []

    def test_one_record_per_step(self):
        net, ds, tc = nano_setup(steps=4)
        records = train(net, ds, tc)
        assert [r.step for r in records] == [1, 2, 3, 4]

    def test_recorded_lr_follows_schedule(self):
        net, ds, tc = nano_setup(steps=6)
        for rec in train(net, ds, tc):
            assert rec.lr == lr_at(tc, min(rec.step, tc.total_steps))

    def test_class_count_mismatch(self):
        net, _, tc = nano_setup(num_classes=2)
        ds = SyntheticDataset("blobs", 8, 32, 4, seed=3)
        with pytest.raises(ConfigError, match="classes"):
            train(net, ds, tc)

    def test_batch_larger_than_dataset(self):
        net, ds, _ = nano_setup()
        tc = TrainConfig(total_steps=2, batch_size=16)
        with pytest.raises(ConfigError):
            train(net, ds, tc)

    def test_divergence_reports_step(self):
        # normalization rescales mere magnitude away, so poison a weight
        # outright; the first forward pass must trip the finite guard
        net, ds, tc = nano_setup(steps=3)
        net.stem.conv.weight.data[0, 0, 0, 0] = np.nan
        with pytest.raises(DivergenceError, match="diverged at step 1") as exc:
            train(net, ds, tc)
        assert exc.value.step == 1

    def test_non_finite_gradient_diverges_before_any_write(self, monkeypatch):
        net, ds, tc = nano_setup(steps=3)
        before = net.arena.data.copy()
        real_backward = T.backward

        def poisoned(loss):
            real_backward(loss)
            net.head_fc.weight.grad[0, 0] = np.nan

        monkeypatch.setattr(T, "backward", poisoned)
        with pytest.raises(DivergenceError) as exc:
            train(net, ds, tc)
        assert exc.value.step == 1
        npt.assert_array_equal(net.arena.data.view(np.uint32), before.view(np.uint32))

    def test_metrics_streamed_up_to_the_diverged_step(self, monkeypatch, tmp_path):
        # one flushed row per finished step: a run that diverges at step 3
        # leaves the header and the clean run's first two rows
        net, ds, tc = nano_setup(steps=4)
        clean = train(net, ds, tc)
        net, ds, tc = nano_setup(steps=4)
        real_backward, calls = T.backward, []

        def poisoned(loss):
            real_backward(loss)
            calls.append(1)
            if len(calls) == 3:
                net.head_fc.weight.grad[0, 0] = np.nan

        monkeypatch.setattr(T, "backward", poisoned)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(DivergenceError) as exc:
            train(net, ds, tc, metrics_path=metrics)
        assert exc.value.step == 3
        assert metrics.read_text() == records_to_csv(clean[:2])

    def test_artifacts_written(self, tmp_path):
        from ppvit import load_checkpoint

        net, ds, tc = nano_setup(steps=3)
        metrics = tmp_path / "metrics.csv"
        ckpt = tmp_path / "model.ckpt"
        records = train(net, ds, tc, metrics_path=metrics, checkpoint_path=ckpt)
        assert metrics.read_text() == records_to_csv(records)
        _, manifest = load_checkpoint(ckpt)
        assert manifest["extra"]["steps"] == 3
        assert manifest["extra"]["final_loss"] == records[-1].loss

    def test_float64_model_with_checkpoint_refused_before_the_first_step(self, tmp_path):
        # the checkpoint holds float32 only, so the run is refused before it
        # takes a step or writes an artifact
        _, ds, tc = nano_setup(steps=2)
        net = build_model(preset("nano", num_classes=2), seed=0, dtype=np.float64)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(CheckpointError, match="'stem.conv.weight' is float64"):
            train(net, ds, tc, metrics_path=metrics, checkpoint_path=tmp_path / "m.ckpt")
        assert not metrics.exists()
        assert all(p.grad is None for p in net.params())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_steps_keep_build_dtype(self, dtype):
        # the steps of train(), unrolled so the gradients and moments are
        # visible; one promoted gradient would leak into its moments and
        # parameter, and from there into every later step
        net = build_model(preset("micro", num_classes=4), seed=0, dtype=dtype)
        ds = SyntheticDataset("blobs", 4, 32, 4, seed=7)
        tc = TrainConfig(lr=1e-3, total_steps=2, batch_size=4)
        named = net.named_params()
        state = AdamWState.for_params(named)
        for step in (1, 2):
            images, labels = load_batch(ds, np.arange(4))
            images = Tensor(images.data, dtype=dtype)  # as train() casts the batch
            loss = T.cross_entropy_logits(forward_classify(net, images), labels)
            T.zero_grads([p for _, p in named])
            loss.backward()
            assert loss.dtype == dtype
            grads = [p.grad for _, p in named]
            assert [n for (n, _), g in zip(named, grads) if g.dtype != dtype] == []
            adamw_step(named, grads, state, tc, step)
        assert [n for n, p in named if p.data.dtype != dtype] == []
        assert state.m.dtype == state.v.dtype == dtype

    def test_one_step_graph_alive_at_a_time(self):
        # a step's graph, gradient list and leaf gradients are freed before
        # the next forward, so more steps raise no peak
        import tracemalloc

        ds = SyntheticDataset("blobs", 32, 32, 4, seed=7)
        load_batch(ds, np.arange(32))  # the rendered samples belong to no step
        peaks = []
        for steps in (1, 3):
            net = build_model(preset("micro", num_classes=4), seed=0)
            tracemalloc.start()
            try:
                train(net, ds, TrainConfig(total_steps=steps, batch_size=32))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_evaluate_bounds(self):
        net, ds, _ = nano_setup()
        loss, acc = evaluate(net, ds, batch_size=3)
        assert math.isfinite(loss) and loss > 0
        assert 0.0 <= acc <= 1.0

    def test_evaluate_class_count_mismatch(self):
        net, _, tc = nano_setup(num_classes=4)
        ds = SyntheticDataset("blobs", 8, 32, 2, seed=3)
        with pytest.raises(ConfigError) as from_train:
            train(net, ds, tc)
        with pytest.raises(ConfigError) as from_evaluate:
            evaluate(net, ds)
        assert str(from_evaluate.value) == str(from_train.value)
        assert str(from_evaluate.value) == "model has 4 classes, dataset has 2"

    def test_in_channels_mismatch_refused_before_the_metrics_file(self, tmp_path):
        # the synthetic sets render 3-channel images; a 1-channel model used
        # to fail in step 1's forward, after the metrics header was written
        _, ds, tc = nano_setup()
        net = build_model(preset("nano", num_classes=2, in_channels=1), seed=0)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(ConfigError, match="in_channels=1") as from_train:
            train(net, ds, tc, metrics_path=metrics)
        assert not metrics.exists()
        with pytest.raises(ConfigError) as from_evaluate:
            evaluate(net, ds)
        assert str(from_evaluate.value) == str(from_train.value)

    def test_image_size_off_the_input_multiple_refused_before_the_metrics_file(self, tmp_path):
        net, _, tc = nano_setup()
        ds = SyntheticDataset("blobs", 8, 40, 2, seed=3)
        metrics = tmp_path / "metrics.csv"
        with pytest.raises(ConfigError, match="image_size must be a multiple of 32, "
                                              "got 40") as from_train:
            train(net, ds, tc, metrics_path=metrics)
        assert not metrics.exists()
        with pytest.raises(ConfigError) as from_evaluate:
            evaluate(net, ds)
        assert str(from_evaluate.value) == str(from_train.value)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_evaluate_batch_size_must_be_positive(self, batch_size):
        net, ds, _ = nano_setup()
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(net, ds, batch_size=batch_size)


class TestMetricsCsv:
    def test_schema_and_round_trip(self):
        net, ds, tc = nano_setup(steps=3)
        records = train(net, ds, tc)
        lines = records_to_csv(records).strip().splitlines()
        assert lines[0] == "step,loss,train_accuracy,lr"
        assert len(lines) == 4
        for line, rec in zip(lines[1:], records):
            step, loss, acc, lr = line.split(",")
            assert int(step) == rec.step
            assert float(loss) == pytest.approx(rec.loss, abs=1e-8)
            assert float(acc) == pytest.approx(rec.train_accuracy, abs=1e-6)
            assert float(lr) == pytest.approx(rec.lr, rel=1e-9)


class TestOverfitDynamics:
    """Sanity properties of the frozen desk-scale run (shared fixture)."""

    def test_lr_trace_pointwise(self, overfit_run):
        _, _, tc, records = overfit_run
        for rec in records:
            assert rec.lr == lr_at(tc, min(rec.step, tc.total_steps))

    def test_loss_trend_after_warmup(self, overfit_run):
        _, _, tc, records = overfit_run
        losses = np.array([r.loss for r in records])
        window = 25
        smooth = np.convolve(losses, np.ones(window) / window, mode="valid")
        lag = 100
        for i in range(tc.warmup_steps, len(smooth) - lag):
            assert smooth[i + lag] <= 1.05 * smooth[i] + 1e-9

    def test_final_loss_far_below_start(self, overfit_run):
        _, _, _, records = overfit_run
        assert records[-1].loss < 0.05 * records[0].loss


class TestGradcheckPlumbing:
    def test_unknown_scope_rejected(self):
        with pytest.raises(ConfigError):
            gradcheck_suite("everything")

    def test_ops_scope_reports_cases(self):
        cases = gradcheck_suite("ops")
        assert len(cases) == 20
        names = {case.name for case in cases}
        assert {"matmul_bias", "softmax_rows_scaled", "conv2d_depthwise"} <= names
        # the activations are checked as the prologue of the ops that run them
        assert {"matmul_hardswish", "matmul_gelu", "conv2d_depthwise_hardswish",
                "conv2d_depthwise_gelu"} <= names
        assert not {"hardswish", "gelu"} & names
        for case in cases:
            assert case.passed
            assert case.max_rel_err < TR.GRADCHECK_TOL
