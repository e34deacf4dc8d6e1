"""Analytical cost accountant: parameters, FLOPs, and squeeze ratios.

Everything here is closed-form, walking a ModelConfig rather than a built
model; a test asserts the walk matches the real parameter tally exactly.
A FLOP here is one multiply-accumulate (MAC), as in the paper's FLOP
column, and only the ops that multiply count: a convolution costs
output_elems * C_in * k^2 / groups and a matrix product its MAC count.
The attention core uses the (N + 2M) C^2 + 2 N M C formula with the
realized pooled length M.  Biases, norms, score scaling, softmax, pooling,
activations and residual adds cost nothing, so the total equals the MACs
the benchmark's tracer counts in a forward.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import _check_increasing, pooled_len
from .errors import ConfigError
from .model import EMBED_GEOMETRY, ModelConfig, check_input_size

REFERENCE_PARAMS = {"tiny": 11.6e6, "small": 24.1e6, "base": 36.1e6, "large": 54.5e6}
REFERENCE_FLOPS = {"tiny": 1.8e9, "small": 3.7e9, "base": 6.5e9, "large": 9.8e9}


def attention_core_flops(n: int, m: int, c: int) -> int:
    """QKV projections plus both attention matmuls: (N+2M)C^2 + 2NMC."""
    return (n + 2 * m) * c * c + 2 * n * m * c


@dataclass(frozen=True)
class LayerCost:
    """One scope's parameter count and its forward MACs at batch size 1."""

    scope: str
    params: int
    flops: int


@dataclass
class ComplexityReport:
    """Per-layer cost rows for one config (batch size 1 for FLOPs)."""

    layers: list[LayerCost]

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_flops(self) -> int:
        return sum(l.flops for l in self.layers)

    def per_stage(self) -> list[LayerCost]:
        """Collapse rows onto stem / stages.1..4 / head."""
        order = ["stem", "stages.1", "stages.2", "stages.3", "stages.4", "head"]
        agg = {k: [0, 0] for k in order}
        for l in self.layers:
            key = next(k for k in order if l.scope == k or l.scope.startswith(k + "."))
            agg[key][0] += l.params
            agg[key][1] += l.flops
        return [LayerCost(k, p, f) for k, (p, f) in agg.items()]

    def to_csv(self, per_layer: bool = False, flop_factor: int = 1) -> str:
        # flop_factor=2 reports multiply and add separately
        rows = self.layers if per_layer else self.per_stage()
        lines = ["scope,params,flops"]
        lines += [f"{l.scope},{l.params},{l.flops * flop_factor}" for l in rows]
        lines.append(f"total,{self.total_params},{self.total_flops * flop_factor}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# geometry helpers (mirror the real convs exactly)
# ---------------------------------------------------------------------------

def _conv_out(extent: int, k: int, stride: int, padding: int) -> int:
    return (extent + 2 * padding - k) // stride + 1


def stage_grids(h: int, w: int) -> list[tuple[int, int]]:
    """Each stage's token grid at input ``h x w``, by the embeds' ``EMBED_GEOMETRY``."""
    grids = []
    for k, stride, padding in EMBED_GEOMETRY:
        h, w = _conv_out(h, k, stride, padding), _conv_out(w, k, stride, padding)
        grids.append((h, w))
    return grids


def _embed_cost(scope: str, cin: int, cout: int, k: int, n: int) -> LayerCost:
    """A patch embed's conv (with bias) and token norm, over ``n`` output tokens."""
    return LayerCost(scope, cout * cin * k * k + 3 * cout, n * cout * cin * k * k)


def _block_costs(scope: str, cfg: ModelConfig, stage_index: int,
                 n: int, m: int) -> list[LayerCost]:
    """One block over ``n`` tokens, its attention over ``m`` pooled ones."""
    st = cfg.stages[stage_index]
    c = st.channels
    hidden = c * st.expansion
    irb = cfg.ffn_kind == "irb"

    # q/k/v/o affines and the pooled-sequence norm; RPE is a depthwise 3x3
    attn_params = 4 * (c * c + c) + 2 * c + cfg.use_rpe * (9 * c + c)
    attn_macs = attention_core_flops(n, m, c) + n * c * c + cfg.use_rpe * 9 * m * c
    # expand and project affines; the IRB adds a depthwise 3x3 between them
    ffn_params = (c * hidden + hidden) + (hidden * c + c) + irb * (9 * hidden + hidden)
    ffn_macs = 2 * n * c * hidden + irb * 9 * n * hidden
    return [LayerCost(f"{scope}.attn", attn_params, attn_macs),
            LayerCost(f"{scope}.ffn", ffn_params, ffn_macs),
            LayerCost(f"{scope}.norms", 4 * c, 0)]  # the two post-residual norms


def _walk(cfg: ModelConfig, grids: list[tuple[int, int]]) -> ComplexityReport:
    layers: list[LayerCost] = []
    c_prev = cfg.in_channels
    for i, (st, (h, w)) in enumerate(zip(cfg.stages, grids)):
        scope = f"stages.{i + 1}"
        n = h * w  # zero tokens in the params-only walk
        m = n and sum(th * tw for th, tw in cfg.attn_config(i).level_targets(h, w))
        layers.append(_embed_cost(f"{scope}.embed" if i else "stem", c_prev,
                                  st.channels, EMBED_GEOMETRY[i][0], n))
        c_prev = st.channels
        layers += [row for b in range(st.depth)
                   for row in _block_costs(f"{scope}.blocks.{b}", cfg, i, n, m)]

    # the classifier sees one pooled token per image, none from an empty grid
    k = cfg.num_classes
    layers.append(LayerCost("head", 2 * c_prev + c_prev * k + k, min(n, 1) * c_prev * k))
    return ComplexityReport(layers)


def count_params(cfg: ModelConfig) -> ComplexityReport:
    """Parameter-only report: the same walk over zero tokens, so FLOPs are zero."""
    return _walk(cfg, [(0, 0)] * len(cfg.stages))


def count_flops(cfg: ModelConfig, hw: tuple[int, int]) -> ComplexityReport:
    """Joint report at input size ``hw`` (H and W multiples of 32)."""
    check_input_size(*hw, ConfigError)
    return _walk(cfg, stage_grids(*hw))


# ---------------------------------------------------------------------------
# squeeze-ratio analytics
# ---------------------------------------------------------------------------

@dataclass
class SqueezeReport:
    pool_ratios: tuple[int, ...]
    analytic_ratio: float  # N/M in the limit of exact division: 1 / sum(p^-2)
    realized_hw: tuple[int, int] | None = None
    realized_m: int | None = None
    realized_ratio: float | None = None


def squeeze_ratio(pool_ratios, hw: tuple[int, int] | None = None) -> SqueezeReport:
    """How much shorter the pooled key/value sequence is than the input.

    The analytic figure treats every ratio as dividing exactly; with ``hw``
    given, the realized figure uses the same rounding rule as the layer.
    """
    ratios = tuple(pool_ratios)
    if not all(type(p) is int for p in ratios):
        raise ConfigError(f"pool ratios must be ints, got {ratios}")
    _check_increasing(ratios, "pool ratios")
    analytic = 1.0 / sum(p ** -2 for p in map(float, ratios))
    report = SqueezeReport(ratios, analytic)
    if hw is not None:
        h, w = hw
        report.realized_hw = (h, w)
        report.realized_m = pooled_len(h, w, ratios)
        report.realized_ratio = (h * w) / report.realized_m
    return report


# ---------------------------------------------------------------------------
# attention-variant comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompareRow:
    variant: str
    m: int
    core_flops: int


def _variant_m(variant: str, n: int) -> int:
    """Pooled length for one variant at sequence length N.

    Square N uses the real per-axis rounding (``pooled_len``, which refuses a
    ratio that collapses the grid); otherwise the analytic ratio is applied
    directly (noted in the CLI output).
    """
    if variant == "vanilla":
        return n
    kind, _, arg = variant.partition(":")
    try:  # a ConfigError is a ValueError too
        ratios = tuple(int(p) for p in arg.split(","))
        _check_increasing(ratios, "pool ratios")
        if kind not in ("pool", "pyramid") or (kind == "pool" and len(ratios) > 1):
            raise ValueError
    except ValueError:
        raise ConfigError(
            f"unknown variant {variant!r}; expected 'vanilla', 'pool:p', or "
            f"'pyramid:p1,p2,...'") from None
    side = int(round(n ** 0.5))
    if side * side == n:
        return pooled_len(side, side, ratios)
    return max(1, round(n * sum(p ** -2 for p in map(float, ratios))))


def compare_attention(n: int, c: int, variants: list[str]
                      ) -> tuple[list[CompareRow], list[str]]:
    """Attention-core FLOPs per variant; duplicates collapse with a warning."""
    if n < 1 or c < 1:
        raise ConfigError(f"N and C must be positive, got {n}, {c}")
    warnings: list[str] = []
    seen: list[str] = []
    for v in variants:
        if v in seen:
            warnings.append(f"duplicate variant {v!r} ignored")
        else:
            seen.append(v)
    rows = [CompareRow(v, m, attention_core_flops(n, m, c))
            for v in seen for m in (_variant_m(v, n),)]
    return rows, warnings
