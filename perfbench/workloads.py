"""The three closed-loop workloads and their correctness gates.

Each workload has one client: the next iteration starts only when the
previous one returns.  A workload builds its model and inputs in ``setup``
(which ends with one warm-up iteration), runs one iteration per
``iterate`` call, turns an iteration's output into a small record in
``capture`` (untimed), and checks all records in ``verify`` after the
timed window, so reference builds never land inside a timed region.

``smoke`` swaps in nano-sized shapes so every code path runs in seconds.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from time import perf_counter

import numpy as np

import ppvit.data as D
import ppvit.model as M
import ppvit.tensor as T
import ppvit.training as TR

# f32 against an f64 build of the same seed: |a - b| <= TOL * max(1, |b|max).
# The f32 engine lands within ~3e-7 at this commit; 1e-4 leaves room for
# reordered sums in faster kernels while still catching a wrong result.
F64_TOL = 1e-4

# The frozen overfit recipe (tests/conftest.py); the workload seed is the
# dataset seed, 7 being the recipe's own.
OVERFIT_DATASET = dict(kind="blobs", num_samples=32, image_size=32, num_classes=4)
OVERFIT_TRAIN = dict(lr=2e-3, weight_decay=0.0, warmup_steps=50,
                     total_steps=300, batch_size=32, seed=0)
OVERFIT_MODEL_SEED = 0
OVERFIT_TARGET = 0.95


def _close_to(a: np.ndarray, ref: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(ref).max()))
    return bool(np.all(np.abs(a.astype(np.float64) - ref) <= F64_TOL * scale))


def _non_build_dtype(model, dtype=np.float32) -> int:
    return sum(p.data.dtype != dtype for p in model.params())


class Workload:
    """Interface of one workload; see the module docstring."""

    name = ""
    min_iters = 1
    default_seed = 0
    setup_reps = 5  # setup_s takes the median of this many set-ups

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed, self.smoke, self.out_dir = seed, smoke, out_dir

    def setup(self):
        raise NotImplementedError

    def iterate(self):
        raise NotImplementedError

    def capture(self, out) -> dict:
        raise NotImplementedError

    def verify(self, records: list[dict]) -> list[str | None]:
        """One entry per record: ``None`` when it passed, else the reason."""
        raise NotImplementedError

    def layer_metrics(self, records: list[dict]) -> dict[str, float]:
        return {"training.non_build_dtype_params": 0.0,
                "model.checkpoint_load_ms": 0.0, "model.checkpoint_bytes": 0.0}

    def summary(self, records: list[dict], times: list[float]) -> dict[str, tuple]:
        return {}

    def iter_samples(self, times: list[float]) -> list[float]:
        """The samples behind the ``iter_ms_*`` metrics: by default the
        wall time of each untraced iteration of the window."""
        return times

    def close(self) -> None:
        pass


class InferTiny224(Workload):
    """``forward_classify`` of tiny, B=1 at 224, under ``no_grad``."""

    name = "infer_tiny224"
    min_iters = 100  # so iter_ms_p90 has at least 10 samples beyond it

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.preset = "nano" if smoke else "tiny"
        self.size = 32 if smoke else 224
        self.images_per_iter = 1
        if smoke:
            self.min_iters = 3

    def model_cfg(self):
        return M.preset(self.preset)

    def setup(self):
        self.model = M.build_model(self.model_cfg(), seed=self.seed)
        ds = D.SyntheticDataset("blobs", 1, self.size, 4, self.seed)
        self.x, _ = D.load_batch(ds, [0])
        return self.iterate()

    def iterate(self):
        with T.no_grad():
            return M.forward_classify(self.model, self.x)

    def capture(self, out):
        return {"logits": out.data.copy()}

    def verify(self, records):
        ref_model = M.build_model(self.model_cfg(), seed=self.seed, dtype=np.float64)
        with T.no_grad():
            ref = M.forward_classify(ref_model, T.Tensor(self.x.data.astype(np.float64))).data
        return [r.get("error") or (None if _close_to(r["logits"], ref)
                                   else "logits differ from the float64 build")
                for r in records]


class TrainTiny224(Workload):
    """One full train step of tiny (4 classes), B=2 at 224 on blobs."""

    name = "train_tiny224"
    setup_reps = 5  # each set-up ends with a 2-3 s warm-up step

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.preset = "nano" if smoke else "tiny"
        self.size = 32 if smoke else 224
        self.batch = self.images_per_iter = 2

    def model_cfg(self):
        return M.preset(self.preset, num_classes=4)

    def setup(self):
        self.model = M.build_model(self.model_cfg(), seed=self.seed)
        self.ds = D.SyntheticDataset("blobs", 64, self.size, 4, self.seed)
        self.named = self.model.named_params()
        self.opt = TR.AdamWState.for_params(self.named)
        self.tc = TR.TrainConfig(lr=1e-3, total_steps=1_000_000, batch_size=self.batch,
                                 seed=self.seed)
        self.step = 0
        return self.iterate()

    def _indices(self, step: int) -> list[int]:
        first = (step - 1) * self.batch % self.ds.num_samples
        return list(range(first, first + self.batch))

    def iterate(self):
        self.step += 1
        images, labels = D.load_batch(self.ds, self._indices(self.step))
        logits = M.forward_classify(self.model, images)
        loss = T.cross_entropy_logits(logits, labels)
        T.zero_grads(p for _, p in self.named)
        loss.backward()
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for _, p in self.named]
        TR.adamw_step(self.named, grads, self.opt, self.tc, self.step)
        # A float, not the loss tensor, so the step's graph is freed here.
        return self.step, loss.item(), grads

    def capture(self, out):
        step, loss, grads = out
        return {"step": step, "loss": loss,
                "finite": bool(np.isfinite(loss) and all(np.isfinite(g).all() for g in grads))}

    def verify(self, records):
        ref_model = M.build_model(self.model_cfg(), seed=self.seed, dtype=np.float64)
        images, labels = D.load_batch(self.ds, self._indices(1))
        with T.no_grad():
            logits = M.forward_classify(ref_model, T.Tensor(images.data.astype(np.float64)))
            ref = T.cross_entropy_logits(logits, labels).data
        out = []
        for r in records:
            if "error" in r:
                out.append(r["error"])
            elif not r["finite"]:
                out.append(f"non-finite loss or gradient at step {r['step']}")
            elif r["step"] == 1 and not _close_to(np.asarray(r["loss"]), ref):
                out.append(f"step-1 loss {r['loss']} differs from the float64 build {ref}")
            else:
                out.append(None)
        return out

    def layer_metrics(self, records):
        return dict(super().layer_metrics(records),
                    **{"training.non_build_dtype_params": float(_non_build_dtype(self.model))})


class OverfitMicro32(Workload):
    """One whole ``train()`` of the frozen overfit recipe, artifacts to disk."""

    name = "overfit_micro32"
    min_iters = 2  # artifacts must be byte-identical across repeats
    default_seed = 7
    setup_reps = 9  # a set-up takes ~50 ms, so import time would dominate a short median

    def __init__(self, seed, smoke, out_dir):
        super().__init__(seed, smoke, out_dir)
        self.preset = "nano" if smoke else "micro"
        self.dataset = dict(OVERFIT_DATASET, seed=seed)
        self.train_cfg = dict(OVERFIT_TRAIN)
        if smoke:
            self.dataset.update(num_samples=8)
            self.train_cfg.update(batch_size=8, total_steps=60, warmup_steps=10, lr=1e-2)
        self.images_per_iter = self.train_cfg["batch_size"] * self.train_cfg["total_steps"]
        self.size = self.dataset["image_size"]
        self.tmp = tempfile.mkdtemp(prefix="overfit-", dir=out_dir)
        self.solves = 0
        self.step_times: list[float] = []

    def model_cfg(self):
        return M.preset(self.preset, num_classes=4)

    def _run(self, total_steps: int):
        ds = D.SyntheticDataset(**self.dataset)
        tc = TR.TrainConfig(**dict(self.train_cfg, total_steps=total_steps,
                                   warmup_steps=min(self.train_cfg["warmup_steps"],
                                                    total_steps)))
        model = M.build_model(self.model_cfg(), seed=OVERFIT_MODEL_SEED)
        self.solves += 1
        csv = os.path.join(self.tmp, f"metrics-{self.solves}.csv")
        ckpt = os.path.join(self.tmp, f"checkpoint-{self.solves}.ckpt")
        records = TR.train(model, ds, tc, metrics_path=csv, checkpoint_path=ckpt)
        return model, records, csv, ckpt

    def setup(self):
        # The warm-up iteration is a one-step train(): a whole recipe takes
        # seconds to tens of seconds, too long to repeat per set-up.
        return self._run(total_steps=1)

    def iterate(self):
        # A timestamp at each ``load_batch`` call of ``train()`` splits the
        # recipe into its steps; the hook adds about a microsecond per step.
        stamps = []
        load_batch = TR.load_batch

        def stamped(*args, **kwargs):
            stamps.append(perf_counter())
            return load_batch(*args, **kwargs)

        TR.load_batch = stamped
        try:
            return self._run(total_steps=self.train_cfg["total_steps"])
        finally:
            TR.load_batch = load_batch
            self.step_times += [b - a for a, b in zip(stamps, stamps[1:])]

    def iter_samples(self, times):
        """One training step per sample: a whole recipe takes 15-20 s, so a
        run holds two solves but about 600 steps."""
        return self.step_times

    def capture(self, out):
        model, records, csv, ckpt = out
        with open(csv, "rb") as fh:
            csv_bytes = fh.read()
        with open(ckpt, "rb") as fh:
            ckpt_bytes = fh.read()
        t0 = perf_counter()
        loaded, _ = M.load_checkpoint(ckpt)
        load_ms = (perf_counter() - t0) * 1e3
        restored = all(
            np.array_equal(a.data.view(np.uint32),
                           np.ascontiguousarray(b.data, dtype="<f4").view(np.uint32))
            for a, b in zip(loaded.params(), model.params()))
        reached = [r.step for r in records if r.train_accuracy >= OVERFIT_TARGET]
        os.remove(csv)
        os.remove(ckpt)
        return {"steps": len(records), "final_accuracy": records[-1].train_accuracy,
                "steps_to_95": reached[0] if reached else None,
                "finite": all(np.isfinite(r.loss) for r in records),
                "csv": csv_bytes, "ckpt": ckpt_bytes, "restored": restored,
                "load_ms": load_ms, "non_build": _non_build_dtype(model)}

    def _full(self, records):
        """Records of whole recipes (the set-up warm-ups run one step)."""
        return [r for r in records if r.get("steps") == self.train_cfg["total_steps"]]

    def verify(self, records):
        full = self._full(records)
        out = []
        for r in records:
            whole = r.get("steps") == self.train_cfg["total_steps"]
            if "error" in r:
                out.append(r["error"])
            elif not r["finite"]:
                out.append("non-finite loss")
            elif not r["restored"]:
                out.append("load_checkpoint did not restore the saved f32 parameters")
            elif whole and (r["csv"] != full[0]["csv"] or r["ckpt"] != full[0]["ckpt"]):
                out.append("metrics.csv or checkpoint differ between repeats")
            elif whole and (r["final_accuracy"] < OVERFIT_TARGET or r["steps_to_95"] is None):
                out.append(f"final accuracy {r['final_accuracy']} below {OVERFIT_TARGET}")
            else:
                out.append(None)
        return out

    def layer_metrics(self, records):
        full = self._full(records)
        if not full:  # every recipe failed; verify() has said why
            return super().layer_metrics(records)
        return {"training.non_build_dtype_params": float(full[-1]["non_build"]),
                "model.checkpoint_load_ms": statistics.median(r["load_ms"] for r in full),
                "model.checkpoint_bytes": float(len(full[-1]["ckpt"]))}

    def summary(self, records, times):
        full = self._full(records)
        return {"solve_s": (statistics.median(times), "s"),
                "steps_to_95": (full[0]["steps_to_95"] if full else None, "steps")}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (InferTiny224, TrainTiny224, OverfitMicro32)}
