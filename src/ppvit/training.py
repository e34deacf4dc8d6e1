"""Desk-scale training loop, optimizer, schedule, and gradient checking.

The optimizer is AdamW with decoupled weight decay (betas 0.9/0.999,
eps 1e-8) under a linear-warmup-then-cosine learning-rate schedule.  The
loop is deterministic end to end: the only randomness is the seeded epoch
shuffle, so two runs from one config produce identical traces.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import SyntheticDataset, load_batch
from .errors import ConfigError, DivergenceError, NonFiniteError
from .model import (INPUT_MULTIPLE, ModelState, check_checkpoint_dtype,
                    forward_classify, save_checkpoint)
from .tensor import Tensor, finite_difference_grad, no_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    weight_decay: float = 0.05
    warmup_steps: int = 0
    total_steps: int = 100
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}")
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be positive, got {self.total_steps}")
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ConfigError(
                f"warmup_steps={self.warmup_steps} must lie in [0, total_steps="
                f"{self.total_steps}]")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


def lr_at(tc: TrainConfig, step: int) -> float:
    """Linear warmup from 0 to lr, then cosine decay to 0 at total_steps."""
    if not 0 <= step <= tc.total_steps:
        raise ConfigError(f"step {step} outside [0, {tc.total_steps}]")
    if step < tc.warmup_steps:
        return tc.lr * step / tc.warmup_steps
    span = max(tc.total_steps - tc.warmup_steps, 1)
    progress = (step - tc.warmup_steps) / span
    return tc.lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# Values per AdamW pass.  Each chunk of the parameter, gradient and moment
# buffers stays in cache through the update's dozen ufunc passes, while
# one pass over a whole arena goes to DRAM every time and per-parameter
# passes pay a dozen calls for each small parameter.  On tiny (11.2 M
# values, 2 shared vCPUs) a step took 61-70 ms at this size, 74-82 ms at
# 16,384, 82-91 ms at 262,144 and 97-124 ms at 1,048,576.
ADAMW_CHUNK = 65_536


@dataclass
class AdamWState:
    """First and second moments over one parameter arena.

    ``m`` and ``v`` are flat buffers laid out like ``arena.data``, so
    ``m[offsets[i]:offsets[i + 1]]`` is parameter ``arena.names[i]``'s
    first moment.  ``chunks`` are the arena's ``ADAMW_CHUNK`` pieces (see
    ``_chunk_pieces``).
    """

    arena: T.Arena
    m: np.ndarray
    v: np.ndarray
    chunks: list = field(init=False, repr=False)

    def __post_init__(self):
        if not self.m.shape == self.v.shape == self.arena.data.shape:
            raise ConfigError("params, grads, and optimizer state are misaligned")
        self.chunks = _chunk_pieces(self.arena.offsets)

    @classmethod
    def for_params(cls, named_params: list[tuple[str, Tensor]]) -> "AdamWState":
        """Zero moments over the arena of ``named_params`` (``T.Arena``).
        The buffers are fresh zero pages, so no page is touched before the
        first step."""
        arena = T.Arena(named_params)
        return cls(arena, *(np.zeros(arena.data.size, dtype=arena.data.dtype)
                            for _ in range(2)))


def _chunk_pieces(offsets: list[int]) -> list[list[tuple[int, slice | None]]]:
    """For each ``ADAMW_CHUNK`` values of a buffer whose parameters start at
    ``offsets``, the pieces that fill it, in order: a parameter index and
    the slice of its flattened values, or ``None`` for all of them."""
    return [[(i, None if lo <= a and b <= lo + ADAMW_CHUNK else
              slice(max(a, lo) - a, min(b, lo + ADAMW_CHUNK) - a))
             for i, (a, b) in enumerate(zip(offsets, offsets[1:]))
             if a < lo + ADAMW_CHUNK and b > lo]
            for lo in range(0, offsets[-1], ADAMW_CHUNK)]


def adamw_step(named_params: list[tuple[str, Tensor]], grads: list[np.ndarray],
               state: AdamWState, tc: TrainConfig, step: int) -> float:
    """One in-place update; ``step`` is 1-based.  Returns the lr applied.

    Weight decay is decoupled: ``p -= lr * (m_hat / (sqrt(v_hat) + eps)
    + wd * p)``, with bias-corrected moments.  The update runs over the
    parameter arena and the flat moments in chunks of ``ADAMW_CHUNK``
    values, each chunk's gradients gathered into one scratch buffer of the
    arena's dtype.  Every gradient is checked for its shape and for
    non-finite values before any value is written, and a parameter list
    that the state's arena does not hold is refused.
    """
    if step < 1:
        raise ConfigError(f"step must be 1-based, got {step}")
    arena = state.arena
    if not arena.holds(named_params) or len(grads) != len(named_params):
        raise ConfigError("params, grads, and optimizer state are misaligned")
    for (name, p), g in zip(named_params, grads):
        if g.shape != p.data.shape:
            raise ConfigError(
                f"gradient shape {g.shape} does not match parameter {name!r} "
                f"{p.data.shape}")
        if not T.all_finite(g):
            raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
    lr = lr_at(tc, min(step, tc.total_steps))
    c1 = 1.0 - ADAM_BETA1 ** step
    c2 = 1.0 - ADAM_BETA2 ** step
    scratch = np.empty((4, min(ADAMW_CHUNK, arena.data.size)), dtype=arena.data.dtype)
    for lo, pieces in zip(range(0, arena.data.size, ADAMW_CHUNK), state.chunks):
        hi = min(lo + ADAMW_CHUNK, arena.data.size)
        g, tmp, update, denom = scratch[:, :hi - lo]
        np.concatenate([grads[i] if part is None else grads[i].reshape(-1)[part]
                        for i, part in pieces], axis=None, out=g)
        # In place, in the order of the textbook formula, so the bits match it.
        p, m, v = arena.data[lo:hi], state.m[lo:hi], state.v[lo:hi]
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(m, c1, out=update)
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        update += np.multiply(p, tc.weight_decay, out=tmp)
        update *= lr
        p -= update
    return lr


@dataclass(frozen=True)
class TrainRecord:
    step: int
    loss: float
    train_accuracy: float
    lr: float


def _csv_row(r: TrainRecord) -> str:
    return f"{r.step},{r.loss:.8f},{r.train_accuracy:.6f},{r.lr:.10e}\n"


def records_to_csv(records: list[TrainRecord]) -> str:
    return "step,loss,train_accuracy,lr\n" + "".join(map(_csv_row, records))


class _BatchStream:
    """Deterministic sampler: reshuffle each pass, drop ragged remainders."""

    def __init__(self, num_samples: int, batch_size: int, seed: int):
        if batch_size > num_samples:
            raise ConfigError(
                f"batch_size {batch_size} exceeds dataset size {num_samples}")
        self.rng = np.random.default_rng(seed)
        self.n = num_samples
        self.bs = batch_size
        self.order = self.rng.permutation(self.n)
        self.cursor = 0

    def next(self) -> np.ndarray:
        if self.cursor + self.bs > self.n:
            self.order = self.rng.permutation(self.n)
            self.cursor = 0
        batch = self.order[self.cursor:self.cursor + self.bs]
        self.cursor += self.bs
        return batch


def check_classes(model: ModelState, ds: SyntheticDataset) -> None:
    if model.cfg.num_classes != ds.num_classes:
        raise ConfigError(
            f"model has {model.cfg.num_classes} classes, dataset has {ds.num_classes}")
    if model.cfg.in_channels != 3:
        raise ConfigError(f"model has in_channels={model.cfg.in_channels}, "
                          f"dataset images have 3 channels")
    if ds.image_size % INPUT_MULTIPLE:
        raise ConfigError(f"image_size must be a multiple of {INPUT_MULTIPLE}, "
                          f"got {ds.image_size}")


def train(model: ModelState, ds: SyntheticDataset, tc: TrainConfig,
          metrics_path=None, checkpoint_path=None) -> list[TrainRecord]:
    """Optimize the classifier on the dataset; one record per step.

    Raises ``DivergenceError`` carrying the step index if the loss (or any
    intermediate value) stops being finite.  Each finished step appends a
    flushed row to ``metrics_path`` (a run stopped at step k leaves k - 1);
    the checkpoint is written after the loop.  Reruns produce byte-identical
    files; a model the checkpoint cannot hold is refused before step 1.
    """
    check_classes(model, ds)
    if checkpoint_path is not None:
        check_checkpoint_dtype(model)
    named = model.named_params()
    params = [p for _, p in named]
    state = AdamWState.for_params(named)
    stream = _BatchStream(ds.num_samples, tc.batch_size, tc.seed)
    records: list[TrainRecord] = []
    with open(metrics_path or os.devnull, "w") as fh:
        fh.write(records_to_csv([]))
        for step in range(1, tc.total_steps + 1):
            # no gradient of the last step lives on through this step's forward
            T.zero_grads(params)
            images, labels = load_batch(ds, stream.next())
            try:
                logits = forward_classify(model, images)
                loss = T.cross_entropy_logits(logits, labels)
                loss.backward()
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    raise DivergenceError(step)
                grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                         for _, p in named]
                lr = adamw_step(named, grads, state, tc, step)
            except NonFiniteError as exc:
                raise DivergenceError(step) from exc
            acc = float((logits.data.argmax(axis=1) == labels).mean())
            records.append(TrainRecord(step, loss_val, acc, lr))
            fh.write(_csv_row(records[-1]))
            fh.flush()
            del logits, loss, grads  # so one step's graph is alive at a time
    T.zero_grads(params)  # no caller reads the last step's gradients
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path,
                        extra={"steps": tc.total_steps,
                               "final_loss": records[-1].loss,
                               "final_accuracy": records[-1].train_accuracy})
    return records


def evaluate(model: ModelState, ds: SyntheticDataset, batch_size: int = 32
             ) -> tuple[float, float]:
    """Mean loss and accuracy over the whole set, without recording a graph."""
    check_classes(model, ds)
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    total_loss, correct = 0.0, 0
    with no_grad():
        for start in range(0, ds.num_samples, batch_size):
            idx = range(start, min(start + batch_size, ds.num_samples))
            images, labels = load_batch(ds, idx)
            logits = forward_classify(model, images)
            loss = T.cross_entropy_logits(logits, labels)
            total_loss += loss.item() * len(labels)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
    return total_loss / ds.num_samples, correct / ds.num_samples


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradcheckCase:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < GRADCHECK_TOL


GRADCHECK_TOL = 1e-4


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = max(np.abs(analytic).max(initial=0.0),
                np.abs(numeric).max(initial=0.0), 1e-6)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def _check_full(name: str, f, inputs: list[Tensor]) -> GradcheckCase:
    """Compare backward against full finite differences on every input."""
    for t in inputs:
        t.grad = None
    out = f()
    out.backward()
    worst = 0.0
    for t in inputs:
        fd = finite_difference_grad(lambda _t: f(), t)
        worst = max(worst, _rel_err(t.grad, fd))
    return GradcheckCase(name, worst)


def _projection_loss(y: Tensor, rng: np.random.Generator) -> Tensor:
    """Random fixed projection to a scalar, so every output element matters:
    ``y`` flattened to a row times a drawn ``[y.size, 1]`` float64 column."""
    w = Tensor(rng.normal(size=(y.size, 1)))
    return T.matmul(T.reshape(y, (1, -1)), w)


def _ops_cases() -> list[GradcheckCase]:
    rng = np.random.default_rng(2024)

    def t(*shape, scale=1.0):
        return Tensor(rng.normal(scale=scale, size=shape), requires_grad=True,
                      dtype=np.float64)

    cases = []

    def check(name, f, inputs, seed=None):
        # ``f()`` projected to a scalar by a column drawn from ``seed``, or as is
        loss = f if seed is None else lambda: _projection_loss(f(), np.random.default_rng(seed))
        cases.append(_check_full(name, loss, inputs))

    a, b = t(3, 4), t(3, 4)
    check("add", lambda: T.add(a, b), [a, b], 1)
    x, x3 = t(3, 4), t(2, 3, 4)
    check("reshape", lambda: T.reshape(x, (2, 6)), [x], 8)
    check("transpose", lambda: T.transpose(x3, (2, 0, 1)), [x3], 9)
    c1, c2 = t(2, 2, 3, 3), t(2, 1, 2, 3)  # two pyramid levels' grids
    check("concat", lambda: T.concat([c1, c2]), [c1, c2], 10)
    check("mean_axis", lambda: T.mean(x3, axis=1), [x3], 12)
    m1, m2 = t(3, 4), t(4, 5)
    check("matmul", lambda: T.matmul(m1, m2), [m1, m2], 13)
    bm1, bm2 = t(2, 3, 4), t(2, 4, 5)
    check("matmul_batched", lambda: T.matmul(bm1, bm2), [bm1, bm2], 14)
    lw, lb = t(4, 5), t(5)
    check("matmul_bias", lambda: T.matmul(x, lw, lb), [x, lw, lb], 15)
    # inputs of the activations (``act=``) stay away from the hardswish kinks at +-3
    hx = Tensor(rng.uniform(-2.5, 2.5, size=(3, 4)), requires_grad=True, dtype=np.float64)
    check("softmax_rows", lambda: T.softmax_rows(x, 1.0), [x], 18)
    check("softmax_rows_scaled", lambda: T.softmax_rows(x, -1.7), [x], 6)
    g, bta = t(4, scale=0.5), t(4, scale=0.5)
    check("layer_norm", lambda: T.layer_norm(x, g, bta), [x, g, bta], 19)
    # maps are channels-last: [B, H, W, C]
    ci, cw, cb = t(2, 5, 5, 3), t(4, 3, 3, 3), t(4)
    check("conv2d", lambda: T.conv2d(ci, cw, cb, stride=1, padding=1), [ci, cw, cb], 20)
    check("conv2d_strided", lambda: T.conv2d(ci, cw, cb, stride=2, padding=1), [ci, cw, cb], 21)
    di, dw, db = t(2, 4, 4, 3), t(3, 1, 3, 3), t(3)
    check("conv2d_depthwise",
          lambda: T.conv2d(di, dw, db, padding=1, groups=3), [di, dw, db], 23)
    hd = Tensor(np.random.default_rng(26).uniform(-2.5, 2.5, size=di.shape),
                requires_grad=True, dtype=np.float64)
    for act in T.ACTS:
        check(f"matmul_{act}", lambda act=act: T.matmul(hx, lw, lb, act=act), [hx, lw, lb], 16)
        check(f"conv2d_depthwise_{act}",
              lambda act=act: T.conv2d(hd, dw, db, padding=1, groups=3, act=act),
              [hd, dw, db], 27)
    pi = t(2, 7, 5, 3)
    check("adaptive_avg_pool2d", lambda: T.adaptive_avg_pool2d(pi, 3, 2), [pi], 24)
    check("adaptive_max_pool2d", lambda: T.adaptive_max_pool2d(pi, 3, 2), [pi], 25)
    logits, labels = t(4, 3), np.array([0, 2, 1, 2])
    check("cross_entropy_logits", lambda: T.cross_entropy_logits(logits, labels), [logits])
    return cases


def _block_cases() -> list[GradcheckCase]:
    from .attention import PMHSAConfig
    from .layers import block_forward
    from .model import _Init, _init_block

    cases = []
    for name, ffn_kind, kwargs in [
        ("block_irb_avg", "irb", {}),
        ("block_mlp", "mlp", {}),
        ("block_max_pool", "irb", {"pool_mode": "max"}),
        ("block_no_rpe", "irb", {"use_rpe": False}),
    ]:
        attn_cfg = PMHSAConfig(dim=8, heads=2, pool_ratios=(1, 2), **kwargs)
        init = _Init(seed=11, dtype=np.float64)
        blk = _init_block(init, attn_cfg, 2, ffn_kind, "hardswish")
        x = Tensor(np.random.default_rng(5).normal(size=(1, 4, 4, 8)),
                   requires_grad=True, dtype=np.float64)
        inputs = [x] + T.params(blk)
        cases.append(_check_full(
            name,
            lambda blk=blk, x=x: _projection_loss(block_forward(x, blk),
                                                  np.random.default_rng(30)),
            inputs))
    return cases


def _model_cases() -> list[GradcheckCase]:
    """End-to-end check on the micro classifier at 32x32.

    The analytic gradient is compared with finite differences at a seeded
    sample of coordinates (the full input alone has 3072), covering the
    input and one parameter from every layer family in every stage.
    """
    from .model import build_model, forward_classify, preset

    cfg = preset("micro", num_classes=2)
    model = build_model(cfg, seed=3, dtype=np.float64)
    rng = np.random.default_rng(17)
    x = Tensor(rng.uniform(0.0, 1.0, size=(1, 32, 32, 3)), requires_grad=True,
               dtype=np.float64)
    proj = Tensor(rng.normal(size=(2, 1)))

    def loss_fn():
        return T.matmul(forward_classify(model, x), proj)

    named = model.named_params()
    T.zero_grads([p for _, p in named])
    x.grad = None
    loss_fn().backward()

    def case(name, t, k, rng):
        # ``k`` coordinates of ``t`` drawn from ``rng``, without repeats
        flat = rng.choice(t.size, size=min(k, t.size), replace=False)
        coords = [tuple(int(q) for q in np.unravel_index(f, t.shape)) for f in flat]
        fd = finite_difference_grad(lambda _: loss_fn(), t, coords=coords)
        return GradcheckCase(name, _rel_err(np.array([t.grad[c] for c in coords]), fd))

    # one parameter per family keeps this scope under a minute
    picks = [n for n in dict(named) if n.endswith("weight")]
    picks += ["stages.1.blocks.0.attn.pool_ln.gamma", "head.ln.gamma"]
    crng = np.random.default_rng(202)
    return [case("model_input", x, 48, np.random.default_rng(101))] + [
        case(f"model_param:{n}", dict(named)[n], 6, crng) for n in picks]


def gradcheck_suite(scope: str) -> list[GradcheckCase]:
    """Run one of the registered scopes: 'ops', 'block', or 'model'."""
    if scope == "ops":
        return _ops_cases()
    if scope == "block":
        return _block_cases()
    if scope == "model":
        return _model_cases()
    raise ConfigError(f"unknown gradcheck scope {scope!r}; use ops, block, or model")
