"""Multi-head self-attention with a pyramid-pooled key/value sequence.

Queries come from every position of the token map; keys and values come
from a much shorter sequence built by pooling that map at several ratios,
adding a shared depthwise-conv position encoding to each pooled map, and
joining them in a layer norm that sums the flattened convs and levels (2L + 3
nodes for L levels).  With pooling ratios ``p_1..p_n`` the pooled length is
roughly ``N * sum(1/p_i^2)``, which makes attention affordable at high resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor


def pooled_extent(extent: int, ratio: int) -> int:
    """Target size of one spatial axis after pooling at ``ratio``.

    Rounds half away from zero: ``pooled_extent(7, 2) == 4``.  Integer-only
    via ``(2*extent + ratio) // (2*ratio)``.
    """
    if extent < 1 or ratio < 1:
        raise ConfigError(f"extent and ratio must be positive, got {extent}, {ratio}")
    return (2 * extent + ratio) // (2 * ratio)


def pool_targets(h: int, w: int, ratios: tuple[int, ...]) -> list[tuple[int, int]]:
    """Per-level pooled grids for an ``h`` x ``w`` token map.

    Raises ``ConfigError`` if any level rounds to an empty grid, which
    happens when a ratio is more than twice the extent it pools.
    """
    targets = []
    for p in ratios:
        th, tw = pooled_extent(h, p), pooled_extent(w, p)
        if th < 1 or tw < 1:
            raise ConfigError(f"pooling ratio {p} collapses a {h}x{w} map to {th}x{tw}")
        targets.append((th, tw))
    return targets


def pooled_len(h: int, w: int, ratios: tuple[int, ...]) -> int:
    """Total key/value sequence length M for the given map and ratios."""
    return int(np.sum([th * tw for th, tw in pool_targets(h, w, ratios)]))


def _check_increasing(values: tuple[int, ...], what: str) -> None:
    if not values:
        raise ConfigError(f"{what} must be nonempty")
    if any(v < 1 for v in values):
        raise ConfigError(f"{what} must be positive, got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{what} must strictly increase, got {values}")


@dataclass(frozen=True)
class PMHSAConfig:
    """Static shape of one attention layer.

    ``dim`` must split evenly over ``heads``; ``pool_ratios`` must be
    strictly increasing positive ints.  ``pool_mode`` selects average (the
    default) or max pooling; ``use_rpe`` toggles the depthwise position
    encoding on the pooled maps.  When ``pool_sizes`` is set the pyramid
    pools straight to those grid sizes (clamped to the map extent) instead
    of deriving targets from the ratios.
    """

    dim: int
    heads: int
    pool_ratios: tuple[int, ...]
    pool_mode: str = "avg"
    use_rpe: bool = True
    pool_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1 or self.heads < 1:
            raise ConfigError(f"dim and heads must be positive, got {self.dim}, {self.heads}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        _check_increasing(self.pool_ratios, "pool_ratios")
        if self.pool_sizes is not None:
            _check_increasing(self.pool_sizes, "pool_sizes")
        if self.pool_mode not in ("avg", "max"):
            raise ConfigError(f"pool_mode must be 'avg' or 'max', got {self.pool_mode!r}")

    def level_targets(self, h: int, w: int) -> list[tuple[int, int]]:
        """Pooled grid per pyramid level for an ``h`` x ``w`` map."""
        if self.pool_sizes is not None:
            return [(min(s, h), min(s, w)) for s in self.pool_sizes]
        return pool_targets(h, w, self.pool_ratios)


@dataclass
class PMHSAState:
    """Parameters of one attention layer (linear weights are [in, out]).

    ``rpe`` is the depthwise 3x3 position encoding [C, 1, 3, 3] shared
    by every pooled map, ``None`` when ``cfg.use_rpe`` is off;
    ``pool_ln`` normalizes the concatenated pooled sequence.
    """

    cfg: PMHSAConfig
    q: T.Affine
    k: T.Affine
    v: T.Affine
    o: T.Affine
    rpe: T.Affine | None
    pool_ln: T.Norm


def build_kv_sequence(x: Tensor, state: PMHSAState) -> Tensor:
    """Pool, position-encode, join, and normalize.

    ``x`` is the channels-last token map [B, H, W, C].  Returns the pooled
    sequence [B, M, C].  One depthwise kernel is shared by every pyramid
    level; a ``concat`` flattens and joins the levels, one their encodings,
    and a single layer norm sums the two.
    """
    cfg = state.cfg
    _, h, w, c = x.shape
    pool = T.adaptive_avg_pool2d if cfg.pool_mode == "avg" else T.adaptive_max_pool2d
    pooled = [pool(x, th, tw) for th, tw in cfg.level_targets(h, w)]
    levels, rpe, norm = T.concat(pooled), state.rpe, state.pool_ln
    if rpe is None:
        return T.layer_norm(levels, norm.gamma, norm.beta)
    # residual position encoding p + dwconv(p): each position's sum, taken by the norm
    convs = T.concat([T.conv2d(p, rpe.weight, rpe.bias, padding=1, groups=c) for p in pooled])
    return T.layer_norm(convs, norm.gamma, norm.beta, residual=levels)


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product attention over ``heads`` equal channel slices.

    ``q`` is [B, ..., C], its middle axes the N queries (a token map's grid);
    ``k``/``v`` are [B, M, C].  Scores are scaled by ``1/sqrt(C/heads)`` and
    softmaxed over the key axis.  Returns ``q``'s shape.
    """
    b, c, m = q.shape[0], q.shape[-1], k.shape[1]
    if k.shape != (b, m, c) or v.shape != (b, m, c):
        raise ShapeError(f"k/v shapes {k.shape}/{v.shape} do not match q {q.shape}")
    d = c // heads
    qh = T.transpose(T.reshape(q, (b, -1, heads, d)), (0, 2, 1, 3))
    kt = T.transpose(T.reshape(k, (b, m, heads, d)), (0, 2, 3, 1))  # [B, heads, d, M]
    vh = T.transpose(T.reshape(v, (b, m, heads, d)), (0, 2, 1, 3))
    attn = T.softmax_rows(T.matmul(qh, kt), 1.0 / np.sqrt(d))
    ctx = T.matmul(attn, vh)  # [B, heads, N, d]
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), q.shape)


def pmhsa_forward(x: Tensor, state: PMHSAState) -> Tensor:
    """Full layer on a [B, H, W, C] map: queries from every position of
    ``x``, keys/values from the pooled sequence.  Returns ``x``'s shape."""
    cfg = state.cfg
    kv = build_kv_sequence(x, state)
    q = T.matmul(x, state.q.weight, state.q.bias)
    k = T.matmul(kv, state.k.weight, state.k.bias)
    v = T.matmul(kv, state.v.weight, state.v.bias)
    out = multi_head_attention(q, k, v, cfg.heads)
    return T.matmul(out, state.o.weight, state.o.bias)
