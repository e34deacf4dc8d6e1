"""Analytical cost accountant: parameters, FLOPs, and squeeze ratios.

Everything here is closed-form, walking a ModelConfig rather than a built
model; a test asserts the walk matches the real parameter tally exactly.
The FLOP convention is one multiply-accumulate per FLOP: convolutions cost
output_elems * C_in * k^2 / groups, matrix products cost their MAC count,
and elementwise or normalization work costs one FLOP per element.  The
attention core uses the (N + 2M) C^2 + 2 N M C formula with the realized
pooled length M; the output projection, softmax, pooling, position
encoding, and norms are added separately so totals stay honest.
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


def _patch_embed_cost(scope: str, cin: int, cout: int, k: int,
                      hw: tuple[int, int] | None) -> LayerCost:
    params = cout * cin * k * k + cout + 2 * cout
    if hw is None:
        return LayerCost(scope, params, 0)
    out_elems = hw[0] * hw[1] * cout
    flops = out_elems * cin * k * k  # conv MACs
    flops += out_elems  # bias
    flops += out_elems  # token layer norm
    return LayerCost(scope, params, flops)


def _block_costs(scope: str, cfg: ModelConfig, stage_index: int,
                 hw: tuple[int, int] | None) -> list[LayerCost]:
    st = cfg.stages[stage_index]
    c, e, heads = st.channels, st.expansion, st.heads
    hidden = c * e

    attn_params = 4 * (c * c + c) + 2 * c
    if cfg.use_rpe:
        attn_params += 9 * c + c
    if cfg.ffn_kind == "irb":
        ffn_params = (c * hidden + hidden) + (9 * hidden + hidden) + (hidden * c + c)
    else:
        ffn_params = (c * hidden + hidden) + (hidden * c + c)
    ln_params = 4 * c  # the two post-residual norms

    if hw is None:
        return [LayerCost(f"{scope}.attn", attn_params, 0),
                LayerCost(f"{scope}.ffn", ffn_params, 0),
                LayerCost(f"{scope}.norms", ln_params, 0)]

    h, w = hw
    n = h * w
    targets = cfg.attn_config(stage_index).level_targets(h, w)
    m = sum(th * tw for th, tw in targets)

    attn_flops = attention_core_flops(n, m, c)  # QKV projections + both matmuls
    attn_flops += n * c * c  # output projection
    attn_flops += n * c + 2 * m * c + n * c  # q/k/v/o biases
    attn_flops += heads * n * m  # score scaling
    attn_flops += heads * n * m  # softmax
    attn_flops += n * len(targets)  # pooling accumulates
    if cfg.use_rpe:
        attn_flops += 9 * m * c + m * c + m * c  # depthwise conv, bias, residual
    attn_flops += m * c  # pooled-sequence norm

    act_elems = n * hidden
    ffn_flops = n * c * hidden + act_elems + act_elems  # expand, bias, act
    if cfg.ffn_kind == "irb":
        ffn_flops += 9 * act_elems + act_elems + act_elems  # depthwise, bias, act
    ffn_flops += n * hidden * c + n * c  # project, bias

    ln_flops = 2 * (n * c + n * c)  # residual add + norm, twice

    return [LayerCost(f"{scope}.attn", attn_params, attn_flops),
            LayerCost(f"{scope}.ffn", ffn_params, ffn_flops),
            LayerCost(f"{scope}.norms", ln_params, ln_flops)]


def _walk(cfg: ModelConfig, hw: tuple[int, int] | None) -> ComplexityReport:
    layers: list[LayerCost] = []
    grids = [None] * len(cfg.stages) if hw is None else stage_grids(*hw)
    c_prev = cfg.in_channels
    for i, (st, grid) in enumerate(zip(cfg.stages, grids)):
        scope = f"stages.{i + 1}"
        layers.append(_patch_embed_cost(f"{scope}.embed" if i else "stem", c_prev,
                                        st.channels, EMBED_GEOMETRY[i][0], grid))
        c_prev = st.channels
        for b in range(st.depth):
            layers.extend(_block_costs(f"{scope}.blocks.{b}", cfg, i, grid))

    c4 = cfg.stages[-1].channels
    head_params = 2 * c4 + c4 * cfg.num_classes + cfg.num_classes
    if hw is None:
        head_flops = 0
    else:
        n4 = grids[-1][0] * grids[-1][1]
        head_flops = n4 * c4  # final norm
        head_flops += n4 * c4  # global average pool
        head_flops += c4 * cfg.num_classes + cfg.num_classes  # affine
    layers.append(LayerCost("head", head_params, head_flops))
    return ComplexityReport(layers)


def count_params(cfg: ModelConfig) -> ComplexityReport:
    """Parameter-only report; FLOPs columns are zero."""
    return _walk(cfg, None)


def count_flops(cfg: ModelConfig, hw: tuple[int, int]) -> ComplexityReport:
    """Joint report at input size ``hw`` (H and W multiples of 32)."""
    check_input_size(*hw, ConfigError)
    return _walk(cfg, hw)


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
