"""Dense tensors with reverse-mode automatic differentiation.

The engine is define-by-run: every operation on tensors that require
gradients records a node holding, per input, that input's node (or the input
itself, if it is a leaf that requires a gradient) and a closure that maps the
output gradient to input gradients.  No node holds an op output, so an op
output lives only while a closure saved it or the caller holds it.
``backward`` topologically sorts the recorded nodes from the loss and visits
each exactly once, accumulating gradients into the ``grad`` buffer of every
leaf that requires them.

Arrays are float32 by default; gradient checking builds everything in
float64.  Every operation validates that its result is finite and raises
``NonFiniteError`` otherwise, so NaN/Inf never propagate silently (an op
that only moves the values of checked op outputs skips the check).
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import GraphFreedError, NonFiniteError, ShapeError

Array = np.ndarray

_grad_enabled: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "grad_enabled", default=True
)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (thread/context safe)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def all_finite(arr: Array) -> bool:
    """Whether every value is finite.  Squares cannot cancel an inf, so a
    finite self dot proves it with no full-size bool array (``vdot``, unlike
    ``dot``, warns of no overflow); an overflowing dot or a strided ``arr``
    falls back to the exact scan."""
    return (arr.flags.c_contiguous and math.isfinite(np.vdot(arr, arr))) \
        or bool(np.isfinite(arr).all())


def _ensure_finite(arr: Array, op: str) -> None:
    if not all_finite(arr):
        raise NonFiniteError(f"operation '{op}' produced non-finite values")


class Node:
    """One recorded operation: its kind, inputs, and backward closure.

    ``inputs`` holds, per op input, its creator ``Node``, the input itself if
    it is a leaf that requires a gradient, or ``None``: never an op output.
    ``backward_fn`` maps the gradient w.r.t. the node's output to a tuple of
    gradients aligned with ``inputs`` (``None`` for inputs that need none).
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(
        self,
        op: str,
        inputs: tuple["Node | Tensor | None", ...],
        backward_fn: Callable[[Array], tuple[Array | None, ...]],
    ):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """An N-dimensional float array with optional gradient tracking.

    ``data`` is a row-major numpy array; ``grad`` (populated by ``backward``)
    always matches its shape.  Parameters are leaves with ``requires_grad`` set.
    """

    __slots__ = ("data", "grad", "requires_grad", "creator", "scanned")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.creator: Node | None = None
        self.scanned = False  # set by ``_make``: ``data`` was checked finite

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _make(op: str, out_data: Array, inputs: tuple[Tensor, ...],
          backward_fn: Callable[[Array], tuple[Array | None, ...]],
          moved: bool = False) -> Tensor:
    # ``moved``: ``out_data`` holds only input values (reshape, transpose, concat),
    # so it is finite if every input was checked when made
    if not (moved and all([t.scanned for t in inputs])):
        _ensure_finite(out_data, op)
    # built without ``Tensor.__init__``'s conversion: an op's output is a float
    # array already, or a NumPy scalar from a reduction to 0-d
    out = Tensor.__new__(Tensor)
    out.data = out_data if type(out_data) is np.ndarray else np.asarray(out_data)
    out.grad = out.creator = None
    out.scanned, out.requires_grad = True, False
    if _grad_enabled.get() and any([t.requires_grad for t in inputs]):
        out.requires_grad = True
        out.creator = Node(op, tuple([t.creator or (t if t.requires_grad else None)
                                      for t in inputs]), backward_fn)
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss that recorded a graph.

    Every leaf with ``requires_grad`` receives its gradient; repeated calls
    without ``zero_grads`` accumulate.  The sweep walks nodes, not tensors:
    interior gradients are keyed by node and reduced in the reverse of the
    recorded (topological) order, and a leaf's ``grad`` is set once all its
    consumers have propagated, so accumulation is deterministic and runs are
    reproducible bit for bit.  Each node drops its inputs and closure once it
    has propagated, so saved activations are freed as the sweep goes and a
    second sweep of the graph raises ``GraphFreedError``.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.creator is None and not loss.requires_grad:
        raise ShapeError("backward needs a loss that recorded a graph; this one was "
                         "computed under no_grad or from tensors that need no gradient")

    # Iterative post-order DFS over nodes and leaves (hashed by identity):
    # inputs land before consumers.
    root = loss.creator or loss
    topo: list[Node | Tensor] = []
    visited: set[Node | Tensor] = set()
    stack: list[tuple[Node | Tensor, bool]] = [(root, False)]
    while stack:
        entry, expanded = stack.pop()
        if expanded:
            topo.append(entry)
            continue
        if entry in visited:
            continue
        visited.add(entry)
        stack.append((entry, True))
        if type(entry) is Node:
            if entry.backward_fn is None:
                raise GraphFreedError(
                    f"the graph at '{entry.op}' was freed by an earlier backward")
            stack.extend([(inp, False) for inp in entry.inputs
                          if inp is not None and inp not in visited])

    grads: dict[Node | Tensor, Array] = {root: np.ones_like(loss.data)}
    while topo:
        entry = topo.pop()
        grad = grads.pop(entry, None)
        if grad is None:
            continue
        if type(entry) is not Node:
            entry.grad = grad.copy() if entry.grad is None else entry.grad + grad
            continue
        for inp, g in zip(entry.inputs, entry.backward_fn(grad)):
            if g is None or inp is None:
                continue
            grads[inp] = g if inp not in grads else grads[inp] + g
        entry.backward_fn, entry.inputs = None, ()


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass
class Affine:
    """A weight and the bias added after it (linear, conv or depthwise conv)."""

    weight: Tensor
    bias: Tensor


@dataclass
class Norm:
    """Layer-norm scale and shift over the last axis."""

    gamma: Tensor
    beta: Tensor


def named_tensors(record, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
    """Every ``Tensor`` reachable from ``record``, under its dotted field path.

    Dataclass fields are walked in declaration order and list items by
    index, so a state record's field paths are its parameter names and its
    field order is their order.  Other values (``None``, ints, strings,
    tuples) yield nothing, so a config record, which holds only those, adds
    no name.
    """
    if isinstance(record, Tensor):
        yield prefix, record
    elif is_dataclass(record) or isinstance(record, list):
        items = (enumerate(record) if isinstance(record, list) else
                 ((f.name, getattr(record, f.name)) for f in fields(record)))
        for key, value in items:
            yield from named_tensors(value, f"{prefix}.{key}" if prefix else str(key))


def params(record) -> list[Tensor]:
    """The tensors of ``named_tensors(record)``, in the same order."""
    return [t for _, t in named_tensors(record)]


class Arena:
    """Named parameters back to back, with no gaps, in one flat buffer.

    ``data[offsets[i]:offsets[i + 1]]`` holds parameter ``names[i]``, and
    ``views[i]`` is the array its ``Tensor.data`` is bound to.  Code that
    writes a parameter writes into its view; rebinding ``Tensor.data``
    detaches the parameter from the arena.
    """

    def __init__(self, named: Sequence[tuple[str, Tensor]]):
        """The arena ``named`` lies in.  A list that does not already fill
        one buffer, in order, is adopted: its data is copied into a new
        buffer and each ``Tensor.data`` is rebound to its view.  All
        parameters must share one dtype."""
        self.names = [n for n, _ in named]
        arrays = [p.data for _, p in named]
        dtypes = {a.dtype for a in arrays}
        if len(dtypes) > 1:
            raise ShapeError(
                f"cannot lay out parameters of mixed dtypes {sorted(map(str, dtypes))}")
        self.offsets = [0, *itertools.accumulate(a.size for a in arrays)]
        base = arrays[0].base if arrays else None
        fills = (isinstance(base, np.ndarray) and base.ndim == 1
                 and base.dtype in dtypes and base.size == self.offsets[-1])
        if fills:
            start = base.__array_interface__["data"][0]
            fills = all(a.base is base and a.flags.c_contiguous
                        and a.__array_interface__["data"][0] == start + lo * a.itemsize
                        for a, lo in zip(arrays, self.offsets))
        if fills:
            self.data, self.views = base, arrays
        else:
            self.data = np.concatenate([a.ravel() for a in arrays] or [np.empty(0)])
            self.views = [self.data[lo:hi].reshape(a.shape) for a, lo, hi
                          in zip(arrays, self.offsets, self.offsets[1:])]
            for (_, p), view in zip(named, self.views):
                p.data = view

    def holds(self, named: Sequence[tuple[str, Tensor]]) -> bool:
        """Whether ``named`` are this arena's parameters, in order, each
        still bound to its view."""
        return len(named) == len(self.views) and all(
            p.data is view and n == name
            for (n, p), name, view in zip(named, self.names, self.views))


def _sum_rows(grad: Array) -> Array:
    """``grad`` summed over every axis but the last (a bias gradient), as one
    einsum over the rows of a ``reshape(-1, C)``: on short rows 2-3x faster
    than ``np.sum``, and on a contiguous ``grad`` the same bits."""
    return np.einsum("r...->...", grad.reshape(-1, grad.shape[-1]))


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {old} to {shape}") from exc
    return _make("reshape", out, (x,), lambda g: (g.reshape(old),), moved=True)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"transpose axes must permute range({x.ndim}), got axes={axes}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _make("transpose", x.data.transpose(axes), (x,),
                 lambda g: (g.transpose(inverse),), moved=True)


def concat(maps: Sequence[Tensor]) -> Tensor:
    """Join ``[B, ..., C]`` maps of one B and C, each flattened row-major, into [B, N, C]."""
    shapes = [t.shape for t in maps]
    if not shapes or min(map(len, shapes)) < 3 or len({(s[0], s[-1]) for s in shapes}) > 1:
        raise ShapeError(f"concat maps must be [B, ..., C] of one B and C, got maps {shapes}")
    (b, *_, c), lengths = shapes[0], [math.prod(s[1:-1]) for s in shapes]
    out = np.concatenate([t.data.reshape(b, n, c) for t, n in zip(maps, lengths)], axis=1)
    offsets = list(itertools.accumulate(lengths))[:-1]

    def bw(g: Array):
        return tuple([p.reshape(s) for p, s in zip(np.split(g, offsets, axis=1), shapes)])

    return _make("concat", out, tuple(maps), bw, moved=True)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    """Mean over one axis, or over every value (a scalar) when ``axis`` is None."""
    if axis is not None and not (type(axis) is int and -x.ndim <= axis < x.ndim):
        raise ShapeError(f"mean axis={axis!r} must be None or an int axis of {x.shape}")
    out, shape = x.data.mean(axis=axis), x.shape
    # A Python int, so ``g / count`` keeps the gradient's dtype (an np.int64
    # count would promote float32 gradients to float64 under NumPy 2).
    count = x.data.size if axis is None else x.shape[axis]

    def bw(g: Array):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _make("mean", out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None,
           act: str | None = None) -> Tensor:
    """Batched matrix product ``[.., m, k] @ [.., k, n] -> [.., m, n]``.

    Gradients: ``d(a) = g @ b^T`` and ``d(b) = a^T @ g``.  A batched ``b``
    needs ``a``'s batch extents (no broadcasting).  A 2-d ``b`` (every affine
    map's ``[in, out]`` weight) flattens ``a``'s leading axes, so forward and
    both gradients are single GEMMs and ``d(b)`` needs no batch sum.  Only
    such a ``b`` takes a ``bias`` ``[n]``: it is added in place, and its
    gradient is ``g`` summed over the leading axes.  So does an ``act`` (a
    name in ``ACTS``): ``act(a) @ b``, ``act(a)`` built a band of rows at a
    time (``_BAND``); backward, the same bands rebuild it for ``d(b)`` and
    scale ``d(a)`` by the slope in place; each GEMM stays whole.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != (b.shape[1],)):
        raise ShapeError(f"matmul bias {bias.shape} must be [n] for a [k, n] weight {b.shape}")
    if act is not None and (act not in ACTS or b.ndim != 2):
        raise ShapeError(f"matmul act={act!r} needs an ACTS name and a [k, n] weight: {b.shape}")
    if b.ndim == 2:
        k, n = b.shape
        fwd, grad = ACTS[act] if act is not None else (None, None)
        a2 = a.data.reshape(-1, k)
        if fwd is None:
            out = a2 @ b.data
        else:  # near-equal row bands: a GEMM of a few rows would sum in another order
            out = np.empty((len(a2), n), dtype=np.result_type(a.data, b.data))
            bands = max(1, -(-a2.size // _BAND))  # an empty ``a`` is one empty band
            band = max(1, -(-len(a2) // bands))
            buf = np.empty((band, k), dtype=a.dtype)
            for r in range(0, len(a2), band):
                np.matmul(fwd(a2[r:r + band], buf[:len(a2) - r]), b.data, out=out[r:r + band])
        out = out.reshape(a.shape[:-1] + (n,))
        if bias is not None:
            out += bias.data

        def bw_flat(g: Array):
            g2 = g.reshape(-1, n)
            ga, h = g2 @ b.data.T, a2
            if fwd is not None:  # each band of ``a`` read once: act(a) and the slope
                h = np.empty(a2.shape, dtype=a2.dtype)
                for r in range(0, len(a2), band):
                    fwd(a2[r:r + band], h[r:r + band])
                    grad(a2[r:r + band], ga[r:r + band])
            ga, gb = ga.reshape(a.shape), h.T @ g2
            return (ga, gb) if bias is None else (ga, gb, _sum_rows(g2))

        inputs = (a, b) if bias is None else (a, b, bias)
        return _make("matmul", out, inputs, bw_flat)
    if a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} x {b.shape}")

    def bw(g: Array):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _make("matmul", a.data @ b.data, (a, b), bw)


# ---------------------------------------------------------------------------
# activations, softmax and normalization
# ---------------------------------------------------------------------------

def _hardswish(x: Array, out: Array | None = None) -> Array:
    """``x * clamp(x + 3, 0, 6) / 6``, into ``out`` when given."""
    out = np.add(x, 3.0, out=out)
    np.clip(out, 0.0, 6.0, out=out)
    out *= x
    out /= 6.0
    return out


def _hardswish_grad(x: Array, g: Array) -> Array:
    """``g`` times the slope at ``x``, written into ``g`` (as every ``ACTS``
    backward does, so a caller must own ``g``: never an upstream gradient,
    such as the one array ``layer_norm``'s backward hands ``x`` and
    ``residual``).  The slope ``(x + 1.5) / 3`` is ``(2x + 3) / 6`` bit for bit,
    as doubling is exact, with the left limit at the kinks (0 at -3, 1.5 at 3)."""
    slope = x + 1.5
    slope /= 3.0
    slope[x <= -3.0] = 0.0
    slope[x > 3.0] = 1.0
    g *= slope
    return g


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x: Array, out: Array | None = None) -> Array:
    """Tanh-form GELU (ablation alternative to hardswish)."""
    t = np.tanh(_GELU_C * (x + _GELU_A * x ** 3))
    return np.multiply(0.5 * x, 1.0 + t, out=out)


def _gelu_grad(x: Array, g: Array) -> Array:
    t = np.tanh(_GELU_C * (x + _GELU_A * x ** 3))
    return np.multiply(g, 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C
                       * (1.0 + 3.0 * _GELU_A * x ** 2), out=g)


# name -> (forward, backward) kernels of ``matmul``'s and ``conv2d``'s ``act``
ACTS = {"hardswish": (_hardswish, _hardswish_grad), "gelu": (_gelu, _gelu_grad)}


def softmax_rows(x: Tensor, scale: float) -> Tensor:
    """Softmax of ``x * scale`` along the last axis, with max-subtraction.

    The scale (attention's ``1/sqrt(d)``) is taken inside, so scaled scores
    cost one node; the gradient is the softmax's, times ``scale``.
    """
    if x.shape[-1] < 1 or isinstance(scale, bool) or not isinstance(scale, (int, float)):
        raise ShapeError(f"softmax needs a nonempty last axis and an int or float scale, got "
                         f"x {x.shape} and scale={scale!r}")
    scale = float(scale)  # a Python float keeps float32 data float32
    z = x.data * scale
    # a transposed copy's column max: ``z.max(axis=-1)``'s bits, faster on short rows
    zmax = np.ascontiguousarray(z.reshape(-1, z.shape[-1]).T).max(axis=0)
    e = np.exp(z - zmax.reshape(z.shape[:-1] + (1,)))
    out = e / np.einsum("...c->...", e)[..., None]

    def bw(g: Array):
        return (out * (g - np.einsum("...c,...c->...", g, out)[..., None]) * scale,)

    return _make("softmax_rows", out, (x,), bw)


_LN_EPS = 1e-6  # added to every row's variance by ``layer_norm``


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, residual: Tensor | None = None) -> Tensor:
    """Normalize the last (channel) axis of ``x``, or of a post-norm residual
    sum ``x + residual`` (one input gradient for both), then apply the affine pair.

    Rows are shifted by their first value before the mean is removed, so a
    large common offset costs no precision.  Row sums and dot products are
    einsums, as in softmax_rows, several times faster than mean/var on short
    rows; a ones GEMV is faster still but makes a row's bits batch-dependent.
    """
    if x.ndim < 1 or gamma.shape != (x.shape[-1],) or beta.shape != gamma.shape:
        raise ShapeError(f"layer_norm needs x [..., C] with gamma and beta [C], got x "
                         f"{x.shape}, gamma {gamma.shape}, beta {beta.shape}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm residual {residual.shape} must have x's shape {x.shape}")
    c, n = x.shape[-1], 3 if residual is None else 4  # ``bw`` keeps no input
    xhat = x.data - x.data[..., :1] if residual is None else x.data + residual.data
    if residual is not None:  # the sum, shifted in place
        xhat -= xhat[..., :1].copy()
    xhat -= np.einsum("...c->...", xhat)[..., None] / c
    inv = 1.0 / np.sqrt(np.einsum("...c,...c->...", xhat, xhat)[..., None] / c + _LN_EPS)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def bw(g: Array):
        dgamma = np.einsum("rc,rc->c", g.reshape(-1, c), xhat.reshape(-1, c))
        dbeta = _sum_rows(g)
        dx = g * gamma.data  # d(xhat), then d(x) in place: (dx - mean - xhat * dot) * inv
        dot = np.einsum("...c,...c->...", dx, xhat)[..., None] / c
        dx -= np.einsum("...c->...", dx)[..., None] / c
        dx -= xhat * dot
        dx *= inv
        return (dx, dgamma, dbeta, dx)[:n]  # ``residual`` gets ``dx`` too

    return _make("layer_norm", out, (x, gamma, beta, residual)[:n], bw)


# ---------------------------------------------------------------------------
# convolutions and pooling on channels-last maps
# ---------------------------------------------------------------------------
#
# Spatial maps are [B, H, W, C], the layout every layer of the model runs
# on; the channel axis is the contiguous inner loop.

# values a depthwise window row reaches by merging output columns (``_correlate``)
_DEPTHWISE_ROW = 128
# ``_pad`` rows (``w * C`` values) this long are written in place (measured sweep)
_PAD_ROW = 2048
# values in the rows that go by band (measured sweep): ``act`` prologues and slopes and
# the depthwise input gradient; weight gradients go whole, as bands would split sums
_BAND = 1 << 18


def _pad(a: Array, ph: int, pw: int, fwd: Callable | None = None,
         out: Array | None = None, r0: int = 0) -> Array:
    """``a``, or ``fwd(a)`` by an ``ACTS`` kernel, inside ``ph`` zero rows and
    ``pw`` zero columns on each side; given ``out``, the padded rows from ``r0``
    that fill it.  Interior rows cost a NumPy inner loop each, so short ones
    are copied contiguous into zeros (new, or one fill of ``out``), long ones
    written in place between zeroed borders."""
    b, h, w, c = a.shape
    short, top = w * c < _PAD_ROW, ph
    if out is None:
        out = (np.zeros if short else np.empty)((b, h + 2 * ph, w + 2 * pw, c), dtype=a.dtype)
    else:  # the input rows that ``out`` holds, under ``top`` zero rows
        top, a = max(ph - r0, 0), a[:, max(r0 - ph, 0):r0 + out.shape[1] - ph]
        if short:
            out.fill(0.0)
    if not short:
        out[:, :top] = out[:, top + a.shape[1]:] = 0.0
        out[:, :, :pw] = out[:, :, pw + w:] = 0.0
    inner = out[:, top:top + a.shape[1], pw:pw + w]
    if fwd is not None and not short:
        fwd(a, inner)
    else:
        inner[...] = a if fwd is None else fwd(a)
    return out


def _windows(src: Array, kh: int, kw: int, m: int) -> Array:
    """Stride-1 view ``[B, Ho, Wo/m, kh, kw, m*C]`` of every window of a
    C-contiguous map (``Ho = H - kh + 1``, ``Wo = W - kw + 1``): output column
    ``J*m + t`` reads its window at ``[:, :, J, :, :, t*C:(t+1)*C]``.  The
    ``ndarray`` constructor builds it a few times faster than ``as_strided``."""
    (b, h, w, c), (sb, sh, sw, sc) = src.shape, src.strides
    return np.ndarray((b, h - kh + 1, (w - kw + 1) // m, kh, kw, m * c), src.dtype, src,
                      strides=(sb, sh, sw * m, sh, sw, sc))


def _correlate(src: Array, kt: Array, out: Array | None = None):
    """Stride-1 depthwise correlation ``[B, Ho, Wo, C]`` of a C-contiguous map
    with ``kt`` ``[kh, kw, C]``, into ``out`` when given, and ``m``: the output
    columns merged into each window row (``_windows``), the least divisor of
    ``Wo`` with ``m * C >= _DEPTHWISE_ROW``, else ``Wo``.  ``kt`` tiled ``m``
    times fixes einsum's order."""
    kh, kw, c = kt.shape
    m = _merged_columns(src.shape[2] - kw + 1, c)
    win = _windows(src, kh, kw, m)
    tiled = kt[:, :, None].repeat(m, axis=2).reshape(kh, kw, m * c) if m > 1 else kt
    out = np.einsum("bijuvc,uvc->bijc", win, np.ascontiguousarray(tiled),
                    out=None if out is None else out.reshape(win.shape[:3] + (-1,)))
    return out.reshape(win.shape[:2] + (-1, c)), m


@functools.lru_cache(maxsize=None)
def _merged_columns(wo: int, c: int) -> int:
    return next(d for d in range(1, wo + 1)
                if wo % d == 0 and (d * c >= _DEPTHWISE_ROW or d == wo))


def _depthwise_bands(src: Array, kt: Array, ph: int, pw: int, fwd: Callable | None = None,
                     grad: Callable | None = None, x: Array | None = None):
    """``_correlate`` of ``src`` or ``fwd(src)`` padded by ``ph`` rows and ``pw``
    columns, and its ``m``, a band of output rows at a time through one buffer
    of at most ``_BAND`` values (or the padded map); then, given ``grad``, each
    band times the slope at ``x``'s same rows, in place."""
    (b, h, w, c), (kh, kw, _) = src.shape, kt.shape
    ho, wp = h + 2 * ph - kh + 1, w + 2 * pw
    band = min(ho, max(1, _BAND // (b * wp * c) - kh + 1))  # output rows
    out = np.empty((b, ho, wp - kw + 1, c), dtype=np.result_type(src, kt))
    buf = np.empty(b * (band + kh - 1) * wp * c, dtype=src.dtype)
    for r in range(0, ho, band):  # the slices clip the last band
        rows = buf[:b * (min(band, ho - r) + kh - 1) * wp * c].reshape(b, -1, wp, c)
        _, m = _correlate(_pad(src, ph, pw, fwd, rows, r), kt, out[:, r:r + band])
        if grad is not None:
            grad(x[:, r:r + band], out[:, r:r + band])
    return out, m


def _depthwise_kernel(x: Array, k: Array, padding: int, act: str | None):
    """Stride-1 depthwise conv (one input channel per group, ``C_out == C_in``)
    with no window tensor and no padded copy kept for backward.  Forward and
    the input gradient (the flipped kernel over ``g`` padded by ``k - 1 -
    padding``, times ``act``'s slope) are ``_depthwise_bands``; the kernel
    gradient contracts ``g`` with the windows of the whole input padded again."""
    c, (kh, kw), (fwd, grad) = x.shape[3], k.shape[2:], ACTS.get(act, (None, None))
    kt = k[:, 0].transpose(1, 2, 0)  # [kh, kw, C]
    out, m = _depthwise_bands(x, kt, padding, padding, fwd)

    def bw(g: Array, need_dx: bool):
        dkt = np.einsum("bijuvc,bijc->uvc", _windows(_pad(x, padding, padding, fwd), kh, kw, m),
                        g.reshape(*g.shape[:2], -1, m * c))  # the padded map is freed here
        dx = None if not need_dx else _depthwise_bands(
            g, kt[::-1, ::-1], kh - 1 - padding, kw - 1 - padding, None, grad, x)[0]
        return dx, dkt.reshape(kh, kw, m, c).sum(axis=2).transpose(2, 0, 1)[:, None]

    return out, bw


def _dense_kernel(x: Array, k: Array, stride: int, padding: int):
    """Dense conv as im2col plus one GEMM.

    ``cols[(b, i, j), (u, v, c)]`` copies each output's receptive field
    once; a row of ``kw * C_in`` values is contiguous in the channels-last
    input, so the copy moves runs rather than single values.  With the
    kernel as ``kt[o, (u, v, c)]``, forward is ``cols @ kt^T``, the kernel
    gradient ``g^T @ cols``, and the input gradient ``g @ kt`` scattered
    back by k^2 strided adds (col2im).
    """
    padded = _pad(x, padding, padding)
    b, hp, wp, cin = padded.shape
    cout, _, kh, kw = k.shape
    win = _windows(padded, kh, kw, 1)[:, ::stride, ::stride]
    ho, wo = win.shape[1:3]
    cols = win.reshape(b * ho * wo, kh * kw * cin)
    # [o, (u, v, c)]: copying the kernel in this order is several times
    # faster than into [(u, v, c), o], and the GEMM takes the transpose as is
    kt = k.transpose(0, 2, 3, 1).reshape(cout, kh * kw * cin)
    out = (cols @ kt.T).reshape(b, ho, wo, cout)

    def bw(g: Array, need_dx: bool):
        gm = g.reshape(b * ho * wo, cout)
        dk = (gm.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)
        dx = None
        if need_dx:
            dcols = (gm @ kt).reshape(b, ho, wo, kh, kw, cin)
            dpad = np.zeros((b, hp, wp, cin), dtype=cols.dtype)
            for u, v in np.ndindex(kh, kw):
                dpad[:, u:u + stride * ho:stride, v:v + stride * wo:stride] += dcols[:, :, :, u, v]
            dx = dpad[:, padding:hp - padding, padding:wp - padding]
        return dx, dk

    return out, bw


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1,
           act: str | None = None) -> Tensor:
    """2-d cross-correlation with zero padding on a ``[B, H, W, C_in]`` map.

    ``weight`` is ``[C_out, C_in/groups, kh, kw]``; the output is
    ``[B, Ho, Wo, C_out]`` with ``Ho = floor((H + 2*padding - kh)/stride) + 1``
    (same for width).  The network's two convs have one kernel each, and any
    other call is refused.  Dense, ``groups == 1`` (patch embeds), is im2col
    plus one GEMM per pass.  Depthwise, ``groups == C_in == C_out`` (the IRB
    filter, the position encoding), is stride 1 with ``padding`` below the
    kernel size: a window-view correlation forward; backward, a kernel
    gradient einsum and the same correlation with the flipped kernel.  Only
    depthwise takes ``act`` (``ACTS``): forward in each band's padded rows,
    backward to each band of input-gradient rows.  The input gradient is ``None``
    when ``x`` needs none (the image at the stem).  Both kernels are checked
    against the loop oracles in ``tests/oracles.py``.
    """
    if x.ndim != 4 or weight.ndim != 4 or x.shape[0] < 1:
        raise ShapeError(f"conv2d needs 4-d input/weight and x of batch >= 1, got x {x.shape} "
                         f"and weight {weight.shape}")
    _, h, w, cin = x.shape
    cout, cg, kh, kw = weight.shape
    if not (groups == 1 and cg == cin or groups == cin == cout and cg == 1):
        raise ShapeError(f"conv2d takes groups=1 (dense) or groups=C_in=C_out (depthwise); "
                         f"got groups={groups}, weight {weight.shape}, input {x.shape}")
    depthwise = groups > 1
    if type(stride) is not int or stride < 1 or depthwise and stride != 1:
        raise ShapeError(f"conv2d stride={stride!r} must be an int >= 1, and 1 when depthwise")
    if type(padding) is not int or padding < 0 or depthwise and padding >= min(kh, kw):
        raise ShapeError(f"conv2d padding={padding!r} must be an int >= 0, and < {min(kh, kw)} "
                         f"when depthwise")
    if act is not None and (act not in ACTS or not depthwise):
        raise ShapeError(f"conv2d act={act!r} needs an ACTS name and a depthwise conv, got "
                         f"groups={groups}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match C_out={cout}")

    out, kernel_bw = (_depthwise_kernel(x.data, weight.data, padding, act) if depthwise
                      else _dense_kernel(x.data, weight.data, stride, padding))
    if bias is not None:
        out += bias.data
    need_dx = x.requires_grad

    def bw(g: Array):
        dx, dw = kernel_bw(g, need_dx)
        return (dx, dw) if bias is None else (dx, dw, _sum_rows(g))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make("conv2d", out, inputs, bw)


def _pool_bins(extent: int, target: int) -> list[tuple[int, int]]:
    # Bin i covers [floor(i*extent/target), ceil((i+1)*extent/target)).
    return [(i * extent // target, -(-(i + 1) * extent // target))
            for i in range(target)]


@functools.lru_cache(maxsize=None)
def _bin_matrix(extent: int, target: int, dtype) -> Array:
    """``[target, extent]``: row i holds ``1/len`` over the members of bin i."""
    m = np.zeros((target, extent), dtype=dtype)
    for i, (lo, hi) in enumerate(_pool_bins(extent, target)):
        m[i, lo:hi] = 1.0 / (hi - lo)
    m.flags.writeable = False
    return m


def _check_pool(x: Tensor, out_h: int, out_w: int, op: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{op} needs 4-d input, got {x.shape}")
    h, w = x.shape[1:3]
    if type(out_h) is not int or type(out_w) is not int:  # as conv2d's stride: no bool
        raise ShapeError(f"{op} takes int targets, got out_h={out_h!r}, out_w={out_w!r}")
    if not (1 <= out_h <= h and 1 <= out_w <= w):
        raise ShapeError(f"pool target {out_h}x{out_w} exceeds input extent {h}x{w}")


def adaptive_avg_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Average-pool a ``[B, H, W, C]`` map to ``[B, out_h, out_w, C]``.

    Bins may overlap for awkward sizes.  A bin average is separable, so the
    pool is ``ph @ x @ pw^T`` with the bin matrices ``ph`` ``[out_h, H]``
    and ``pw`` ``[out_w, W]``, and the gradient is ``ph^T @ g @ pw``: each
    output hands ``1/(bin area)`` to every member of its bin, so total
    gradient mass is conserved.  A target equal to the input extent makes
    both matrices identities, which return the input bit for bit.
    """
    _check_pool(x, out_h, out_w, "adaptive_avg_pool2d")
    b, h, w, c = x.shape
    ph = _bin_matrix(h, out_h, x.dtype)
    pw = _bin_matrix(w, out_w, x.dtype)
    rows = np.matmul(ph, x.data.reshape(b, h, w * c)).reshape(b, out_h, w, c)
    out = np.matmul(pw, rows)

    def bw(g: Array):
        cols = np.matmul(pw.T, g).reshape(b, out_h, w * c)
        return (np.matmul(ph.T, cols).reshape(b, h, w, c),)

    return _make("adaptive_avg_pool2d", out, (x,), bw)


def adaptive_max_pool2d(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Max-pool a ``[B, H, W, C]`` map to ``[B, out_h, out_w, C]``.

    Same bin rule as the average pool; ties route to the first max in
    row-major order within the bin.
    """
    _check_pool(x, out_h, out_w, "adaptive_max_pool2d")
    b, h, w, c = x.shape
    rows = _pool_bins(h, out_h)
    cols = _pool_bins(w, out_w)
    out = np.empty((b, out_h, out_w, c), dtype=x.dtype)
    argmax = np.empty((b, out_h, out_w, c), dtype=np.int64)
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            patch = x.data[:, r0:r1, c0:c1].reshape(b, -1, c)
            idx = patch.argmax(axis=1)
            out[:, i, j] = np.take_along_axis(patch, idx[:, None], axis=1)[:, 0]
            argmax[:, i, j] = idx

    bi, ci = np.meshgrid(np.arange(b), np.arange(c), indexing="ij")
    dtype = x.dtype

    def bw(g: Array):
        dx = np.zeros((b, h, w, c), dtype=dtype)
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                width = c1 - c0
                idx = argmax[:, i, j]
                np.add.at(dx, (bi, r0 + idx // width, c0 + idx % width, ci), g[:, i, j])
        return (dx,)

    return _make("adaptive_max_pool2d", out, (x,), bw)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy_logits(logits: Tensor, labels: Sequence[int] | Array) -> Tensor:
    """Mean softmax cross-entropy, fused from logits for stability."""
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy expects [B,K] logits with B labels, got {logits.shape} "
            f"and {labels.shape}")
    n, k = logits.shape
    if n < 1:
        raise ShapeError(f"cross_entropy needs a nonempty batch, got logits {logits.shape}")
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"cross_entropy labels need ints in [0, {k}), got {labels.dtype} labels")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    denom = e.sum(axis=-1, keepdims=True)
    log_probs = (z - m) - np.log(denom)
    loss = -log_probs[np.arange(n), labels].mean()
    probs = e / denom

    def bw(g: Array):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (d * (g.reshape(()) / n),)

    return _make("cross_entropy", np.asarray(loss, dtype=z.dtype), (logits,), bw)


# ---------------------------------------------------------------------------
# gradient oracle
# ---------------------------------------------------------------------------

def finite_difference_grad(f: Callable[[Tensor], Tensor], x: Tensor,
                           h: float = 1e-4,
                           coords: Sequence[tuple[int, ...]] | None = None) -> Array:
    """Central-difference gradient of a scalar-valued function at ``x``.

    Perturbs one element at a time: ``(f(x + h e_i) - f(x - h e_i)) / 2h``.
    Returns an array shaped like ``x``, or, given ``coords``, the
    differences at those coordinates only, in their order (for inputs too
    big to sweep).  ``f`` must be deterministic; call with float64 tensors
    for the stated 1e-4 comparison bounds.
    """
    points = list(np.ndindex(*x.shape)) if coords is None else coords
    grad = np.zeros(len(points), dtype=np.float64)
    with no_grad():
        for j, idx in enumerate(points):
            orig = x.data[idx]
            try:
                x.data[idx] = orig + h
                fp = f(x).item()
                x.data[idx] = orig - h
                fm = f(x).item()
            finally:
                x.data[idx] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NonFiniteError("finite_difference_grad saw a non-finite value")
            grad[j] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape) if coords is None else grad
