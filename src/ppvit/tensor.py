"""Dense tensors with reverse-mode automatic differentiation.

The engine is define-by-run: every operation on tensors that require
gradients records a node holding the inputs and a closure that maps the
output gradient to input gradients.  ``backward`` topologically sorts the
recorded nodes from the loss and visits each exactly once, accumulating
gradients into the ``grad`` buffer of every leaf that requires them.

Arrays are float32 by default; gradient checking builds everything in
float64.  Every operation validates that its result is finite and raises
``NonFiniteError`` otherwise, so NaN/Inf never propagate silently.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

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


def _ensure_finite(arr: Array, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"operation '{op}' produced non-finite values")


class Node:
    """One recorded operation: its kind, inputs, and backward closure.

    ``backward_fn`` maps the gradient w.r.t. the node's output to a tuple of
    gradients aligned with ``inputs`` (``None`` for inputs that need none).
    """

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        backward_fn: Callable[[Array], tuple[Array | None, ...]],
    ):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """An N-dimensional float array with optional gradient tracking.

    ``data`` is a row-major numpy array; ``grad`` (populated by ``backward``)
    always matches its shape.  Parameters are leaves with ``requires_grad``
    set and a stable ``name`` used by serialization and the accountant.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "creator")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self.name = name
        self.creator: Node | None = None

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

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, seed: Array | None = None) -> None:
        backward(self, seed)

    # Arithmetic sugar; scalars are folded into dedicated closures so the
    # graph stays small.
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else shift(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other) if isinstance(other, Tensor) else shift(self, -other)

    def __rsub__(self, other):
        return shift(neg(self), other)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else scale(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not part of the op set")
        return scale(self, 1.0 / other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


def _make(op: str, out_data: Array, inputs: tuple[Tensor, ...],
          backward_fn: Callable[[Array], tuple[Array | None, ...]]) -> Tensor:
    _ensure_finite(out_data, op)
    out = Tensor(out_data)
    if _grad_enabled.get() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.creator = Node(op, inputs, backward_fn)
    return out


def backward(loss: Tensor, seed: Array | None = None) -> None:
    """Reverse-mode sweep from a scalar loss.

    Every leaf with ``requires_grad`` receives its gradient; repeated calls
    without ``zero_grad`` accumulate.  Interior gradients are reduced in the
    reverse of the recorded (topological) order, so accumulation is
    deterministic and runs are reproducible bit for bit.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if seed is None:
        seed = np.ones_like(loss.data)

    # Iterative post-order DFS: inputs land before consumers.
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        tensor, expanded = stack.pop()
        if expanded:
            topo.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor.creator is not None:
            for inp in tensor.creator.inputs:
                if inp.requires_grad and id(inp) not in visited:
                    stack.append((inp, False))

    grads: dict[int, Array] = {id(loss): seed}
    for tensor in reversed(topo):
        grad = grads.pop(id(tensor), None)
        if grad is None:
            continue
        node = tensor.creator
        if node is None:
            tensor.grad = grad.copy() if tensor.grad is None else tensor.grad + grad
            continue
        input_grads = node.backward_fn(grad)
        for inp, g in zip(node.inputs, input_grads):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            grads[key] = g if key not in grads else grads[key] + g


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


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient back down to the shape it was broadcast from."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return _make("add", out, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return _make("sub", out, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return _make("mul", out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def neg(x: Tensor) -> Tensor:
    return _make("neg", -x.data, (x,), lambda g: (-g,))


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make("scale", x.data * s, (x,), lambda g: (g * s,))


def shift(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("shift", x.data + c, (x,), lambda g: (g,))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = x.shape
    try:
        out = x.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {old} to {shape}") from exc
    return _make("reshape", out, (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    return _make("transpose", np.transpose(x.data, axes), (x,),
                 lambda g: (np.transpose(g, inverse),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g: Array):
        return tuple(np.split(g, offsets, axis=axis))

    return _make("concat", out, tuple(tensors), bw)


def sum(x: Tensor, axis: int | tuple[int, ...] | None = None,
        keepdims: bool = False) -> Tensor:  # noqa: A001 - numpy-style name
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g: Array):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make("sum", out, (x,), bw)


def mean(x: Tensor, axis: int | tuple[int, ...] | None = None,
         keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims)
    # A Python int, so ``g / count`` keeps the gradient's dtype (an np.int64
    # count would promote float32 gradients to float64 under NumPy 2).
    count = x.data.size if axis is None else (
        math.prod(x.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))))

    def bw(g: Array):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, x.shape).copy(),)

    return _make("mean", out, (x,), bw)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product ``[.., m, k] @ [.., k, n] -> [.., m, n]``.

    Gradients: ``d(a) = g @ b^T`` and ``d(b) = a^T @ g``, summed over any
    broadcast batch axes.  A 2-d ``b`` against a batched ``a`` (every
    ``linear``) flattens ``a``'s leading axes, so forward and both
    gradients are single GEMMs and ``d(b)`` needs no batch sum.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} x {b.shape}")
    if a.ndim > 2 and b.ndim == 2:
        k, n = b.shape
        out = (a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,))

        def bw_flat(g: Array):
            g2 = g.reshape(-1, n)
            return (g2 @ b.data.T).reshape(a.shape), a.data.reshape(-1, k).T @ g2

        return _make("matmul", out, (a, b), bw_flat)
    try:
        out = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} x {b.shape}") from exc

    def bw(g: Array):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make("matmul", out, (a, b), bw)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ weight (+ bias)`` with weight stored ``[in, out]``."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


# ---------------------------------------------------------------------------
# activations and normalization
# ---------------------------------------------------------------------------

def hardswish(x: Tensor) -> Tensor:
    """Elementwise ``x * clamp(x + 3, 0, 6) / 6``.

    The derivative uses the left limit at the two kinks (0 at -3, 1.5 at 3);
    outside the clamp range the clamped branch contributes zero gradient.
    """
    data = x.data
    out = data + 3.0
    np.clip(out, 0.0, 6.0, out=out)
    out *= data
    out /= 6.0

    def bw(g: Array):
        slope = 2.0 * data
        slope += 3.0
        slope /= 6.0
        slope[data <= -3.0] = 0.0
        slope[data > 3.0] = 1.0
        slope *= g
        return (slope,)

    return _make("hardswish", out, (x,), bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU (ablation alternative to hardswish)."""
    data = x.data
    inner = _GELU_C * (data + _GELU_A * data ** 3)
    t = np.tanh(inner)
    out = 0.5 * data * (1.0 + t)

    def bw(g: Array):
        sech2 = 1.0 - t * t
        slope = 0.5 * (1.0 + t) + 0.5 * data * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * data ** 2)
        return (g * slope,)

    return _make("gelu", out, (x,), bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, computed with max-subtraction."""
    if x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a nonempty last axis, got {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g: Array):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make("softmax_rows", out, (x,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last (channel) axis, then apply the affine pair."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def bw(g: Array):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xhat).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxhat = g * gamma.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return _make("layer_norm", out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# convolutions and pooling on channels-last maps
# ---------------------------------------------------------------------------
#
# Spatial maps are [B, H, W, C].  A [B, N, C] token sequence with N = H*W
# reshapes to one for free, so these ops run on token maps without a
# layout round trip; the channel axis is the contiguous inner loop.

def _windows(padded: Array, kh: int, kw: int, stride: int) -> Array:
    """Strided sliding-window view ``[B, Ho, Wo, C, kh, kw]`` of a padded map."""
    win = np.lib.stride_tricks.sliding_window_view(padded, (kh, kw), axis=(1, 2))
    return win[:, ::stride, ::stride]


def _tap(a: Array, u: int, v: int, ho: int, wo: int, stride: int) -> Array:
    """The ``[B, Ho, Wo, C]`` view of a padded map that kernel tap (u, v) reads."""
    return a[:, u:u + (ho - 1) * stride + 1:stride, v:v + (wo - 1) * stride + 1:stride]


def _depthwise_kernel(padded: Array, k: Array, stride: int, padding: int):
    """One input channel per group, ``C_out == C_in``: no window tensor.

    Forward is one einsum over the sliding-window view of the padded input.
    Backward is two more einsums over window views.  The kernel gradient
    contracts the forward's windows with ``g``.  The input gradient is the
    forward applied with the flipped kernel to ``g`` written, dilated by
    the stride, into a zero map padded by ``k - 1`` on every side; its
    window view is sliced to the unpadded rows and columns, so ``dx`` comes
    out without a padded border.  Nothing of shape ``[B, Ho, Wo, C, kh, kw]``
    is ever allocated.
    """
    kh, kw = k.shape[2:]
    b, hp, wp, c = padded.shape
    windows = _windows(padded, kh, kw, stride)
    ho, wo = windows.shape[1:3]
    kt = np.ascontiguousarray(k[:, 0].transpose(1, 2, 0))  # [kh, kw, C]
    out = np.einsum("bijcuv,uvc->bijc", windows, kt)

    def bw(g: Array, need_dx: bool):
        dkt = np.einsum("bijcuv,bijc->uvc", windows, g)
        dx = None
        if need_dx:
            gd = np.zeros((b, hp + kh - 1, wp + kw - 1, c), dtype=padded.dtype)
            _tap(gd, kh - 1, kw - 1, ho, wo, stride)[...] = g
            flipped = np.ascontiguousarray(kt[::-1, ::-1])
            dwin = _windows(gd, kh, kw, 1)[:, padding:hp - padding, padding:wp - padding]
            dx = np.einsum("bijcuv,uvc->bijc", dwin, flipped)
        return dx, dkt.transpose(2, 0, 1)[:, None]

    return out, bw


def _grouped_kernel(padded: Array, k: Array, stride: int, padding: int, groups: int):
    """Dense or grouped conv as im2col plus one batched GEMM over the groups.

    ``cols[g, (b, i, j), (u, v, c)]`` copies each output's receptive field
    once; a row of ``kw * cg`` values is contiguous in the channels-last
    input, so the copy moves runs rather than single values.  With the
    kernel as ``kt[g, o, (u, v, c)]``, forward is ``cols @ kt^T``, the
    kernel gradient ``g^T @ cols``, and the input gradient ``g @ kt``
    scattered back by k^2 strided adds (col2im).
    """
    b, hp, wp, _ = padded.shape
    cout, cg, kh, kw = k.shape
    n = cout // groups
    windows = _windows(padded, kh, kw, stride)
    ho, wo = windows.shape[1:3]
    cols = (windows.reshape(b, ho, wo, groups, cg, kh, kw)
            .transpose(3, 0, 1, 2, 5, 6, 4).reshape(groups, b * ho * wo, kh * kw * cg))
    # [G, n, (u, v, c)]: copying the kernel in this order is several times
    # faster than into [G, (u, v, c), n], and matmul takes the transpose as is
    kt = (k.reshape(groups, n, cg, kh, kw)
          .transpose(0, 1, 3, 4, 2).reshape(groups, n, kh * kw * cg))
    out = np.matmul(cols, kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(b, ho, wo, cout)

    def bw(g: Array, need_dx: bool):
        gm = g.reshape(b * ho * wo, groups, n).transpose(1, 0, 2)
        dk = (np.matmul(gm.transpose(0, 2, 1), cols).reshape(groups, n, kh, kw, cg)
              .transpose(0, 1, 4, 2, 3).reshape(cout, cg, kh, kw))
        dx = None
        if need_dx:
            dcols = np.matmul(gm, kt).reshape(groups, b, ho, wo, kh, kw, cg)
            dpad = np.zeros_like(padded)
            for u in range(kh):
                for v in range(kw):
                    # splitting the unit-stride channel axis keeps this a view
                    dtap = _tap(dpad, u, v, ho, wo, stride).reshape(b, ho, wo, groups, cg)
                    dtap += np.moveaxis(dcols[:, :, :, :, u, v], 0, 3)
            dx = dpad[:, padding:hp - padding, padding:wp - padding]
        return dx, dk

    return out, bw


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-d cross-correlation with zero padding on a ``[B, H, W, C_in]`` map.

    ``weight`` is ``[C_out, C_in/groups, kh, kw]``; the output is
    ``[B, Ho, Wo, C_out]`` with ``Ho = floor((H + 2*padding - kh)/stride) + 1``
    (same for width).  The weight's shape picks the kernel.  One input
    channel per group with ``C_out == C_in`` (depthwise, any
    kh/kw/stride/padding) runs with no window tensor: one einsum over a
    sliding-window view forward, and two backward (the kernel gradient over
    the forward's windows, the input gradient as the flipped kernel over
    the dilated, padded output gradient).  Every other shape (dense, and
    grouped with several channels per group) runs as im2col plus one
    batched GEMM over the groups, forward and for each gradient.  The input
    gradient is skipped (``None``) when ``x`` needs none, as for the image
    at the stem.  Both kernels are checked, forward and backward, against
    the loop oracles in ``tests/oracles.py``.
    """
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input/weight, got {x.shape} and {weight.shape}")
    _, h, w, cin = x.shape
    cout, cg, kh, kw = weight.shape
    if cin % groups or cout % groups:
        raise ShapeError(f"channels {cin}->{cout} not divisible by groups={groups}")
    if cg * groups != cin:
        raise ShapeError(
            f"weight expects {cg * groups} input channels (groups={groups}), input has {cin}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} does not match C_out={cout}")

    padded = np.zeros((x.shape[0], hp, wp, cin), dtype=x.dtype)
    padded[:, padding:padding + h, padding:padding + w] = x.data
    if cg == 1 and cout == cin:
        out, kernel_bw = _depthwise_kernel(padded, weight.data, stride, padding)
    else:
        out, kernel_bw = _grouped_kernel(padded, weight.data, stride, padding, groups)
    if bias is not None:
        out += bias.data

    def bw(g: Array):
        dx, dw = kernel_bw(g, x.requires_grad)
        return (dx, dw) if bias is None else (dx, dw, g.sum(axis=(0, 1, 2)))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    return _make("conv2d", out, inputs, bw)


def depthwise_conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     padding: int = 1) -> Tensor:
    """Per-channel 3x3 convolution; padding 1 keeps the spatial size.

    ``x`` is a ``[B, H, W, C]`` map.  Channel ``c`` of the output depends
    only on channel ``c`` of the input.
    """
    if x.ndim != 4:
        raise ShapeError(f"depthwise_conv2d needs 4-d input, got {x.shape}")
    c = x.shape[3]
    if weight.shape != (c, 1, 3, 3):
        raise ShapeError(
            f"depthwise kernel must be [{c},1,3,3] to match input {x.shape}, got {weight.shape}")
    return conv2d(x, weight, bias, stride=1, padding=padding, groups=c)


def _pool_bins(extent: int, target: int) -> list[tuple[int, int]]:
    # Bin i covers [floor(i*extent/target), ceil((i+1)*extent/target)).
    return [(i * extent // target, -(-(i + 1) * extent // target))
            for i in range(target)]


def _bin_matrix(extent: int, target: int, dtype) -> Array:
    """``[target, extent]``: row i holds ``1/len`` over the members of bin i."""
    m = np.zeros((target, extent), dtype=dtype)
    for i, (lo, hi) in enumerate(_pool_bins(extent, target)):
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def _check_pool(x: Tensor, out_h: int, out_w: int, op: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{op} needs 4-d input, got {x.shape}")
    h, w = x.shape[1:3]
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

    def bw(g: Array):
        dx = np.zeros_like(x.data)
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
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"cross_entropy expects [B,K] logits with B labels, got {logits.shape} "
            f"and {labels.shape}")
    n, k = logits.shape
    if labels.min() < 0 or labels.max() >= k:
        raise ShapeError(f"labels must lie in [0, {k})")
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
    for the stated 1e-4 comparison tolerances.
    """
    points = list(np.ndindex(*x.shape)) if coords is None else coords
    grad = np.zeros(len(points), dtype=np.float64)
    with no_grad():
        for j, idx in enumerate(points):
            orig = x.data[idx]
            x.data[idx] = orig + h
            fp = f(x).item()
            x.data[idx] = orig - h
            fm = f(x).item()
            x.data[idx] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NonFiniteError("finite_difference_grad saw a non-finite value")
            grad[j] = (fp - fm) / (2.0 * h)
    return grad.reshape(x.shape) if coords is None else grad
