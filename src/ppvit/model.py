"""Four-stage backbone assembly, presets, and checkpointing.

A 7x7/4 stem embeds the image into stride-4 tokens; each later stage starts
with a 3x3/2 patch embed, so the feature pyramid comes out at strides
4/8/16/32.  Stages are numbered 1..4 (the stem is named separately).  The
classification head is layer norm, global average pooling over tokens, and
one affine map to the class count.
"""

from __future__ import annotations

import json
import math
import os
import struct
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import tensor as T
from .attention import PMHSAConfig, PMHSAState
from .errors import CheckpointError, ConfigError, PPVitError, ShapeError
from .layers import BlockState, IRBState, PatchEmbedState, block_forward, patch_embed
from .tensor import Tensor


@dataclass(frozen=True)
class StageConfig:
    """One transformer stage: width, depth, head count, FFN expansion, pyramid."""

    channels: int
    depth: int
    heads: int
    expansion: int
    pool_ratios: tuple[int, ...]

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError(f"channels must be positive, got {self.channels}")
        if self.depth < 1:
            raise ConfigError(f"depth must be positive, got {self.depth}")


@dataclass(frozen=True)
class ModelConfig:
    """Whole-network shape.  ``stages`` must hold exactly four entries.

    The ablation switches (``pool_mode``, ``use_rpe``, ``ffn_kind``, ``act``,
    ``pool_sizes``) apply uniformly to every block.
    """

    name: str
    stages: tuple[StageConfig, ...]
    num_classes: int = 1000
    head_width: int = 64
    in_channels: int = 3
    pool_mode: str = "avg"
    use_rpe: bool = True
    ffn_kind: str = "irb"
    act: str = "hardswish"
    pool_sizes: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.stages) != 4:
            raise ConfigError(f"stages must hold 4 entries, got {len(self.stages)}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if self.head_width < 1:
            raise ConfigError(f"head_width must be positive, got {self.head_width}")
        if self.ffn_kind not in ("irb", "mlp"):
            raise ConfigError(f"ffn_kind must be 'irb' or 'mlp', got {self.ffn_kind!r}")
        if self.act not in T.ACTS:
            raise ConfigError(f"act must be one of {sorted(T.ACTS)}, got {self.act!r}")
        for i, st in enumerate(self.stages, start=1):
            if st.heads * self.head_width != st.channels:
                raise ConfigError(
                    f"stages[{i}].channels={st.channels} must equal stages[{i}].heads="
                    f"{st.heads} times head_width={self.head_width}")
            # every block setting fails here, when the config loads, not at
            # build, naming the first stage it fails in
            try:
                if st.expansion < 1:
                    raise ConfigError(f"expansion must be positive, got {st.expansion}")
                self.attn_config(i - 1)
            except ConfigError as exc:
                raise ConfigError(f"stages[{i}]: {exc}") from exc

    def attn_config(self, stage_index: int) -> PMHSAConfig:
        """The attention config every block of stage ``stage_index`` (from 0) shares."""
        st = self.stages[stage_index]
        return PMHSAConfig(st.channels, st.heads, st.pool_ratios, self.pool_mode,
                           self.use_rpe, self.pool_sizes)


# (kernel, stride, padding) of the patch embed that opens each stage: the
# stem for stage 1, then one stride-2 conv per stage.  Inputs must be a
# multiple of the product of the strides, so that every stage's grid is exact.
EMBED_GEOMETRY = ((7, 4, 3), (3, 2, 1), (3, 2, 1), (3, 2, 1))
INPUT_MULTIPLE = math.prod(stride for _, stride, _ in EMBED_GEOMETRY)


def check_input_size(h: int, w: int, error: type[PPVitError] = ShapeError) -> None:
    """Raise ``error`` unless ``h`` and ``w`` are positive multiples of ``INPUT_MULTIPLE``."""
    m = INPUT_MULTIPLE
    if h < m or w < m or h % m or w % m:
        raise error(f"input height/width must be multiples of {m} (at least {m}), "
                    f"got {h}x{w}")


# Pyramid pooling ratios shrink stage to stage with the token grid; the last
# stage keeps ratio 1 so its own tokens stay in the pool.
STANDARD_RATIOS = ((12, 16, 20, 24), (6, 8, 10, 12), (3, 4, 5, 6), (1, 2, 3, 4))

_PRESET_TABLE = {
    # name: (channels, depths, expansions, head_width, pool_ratios)
    "tiny": ((48, 96, 240, 384), (2, 2, 6, 3), (8, 8, 4, 4), 48, STANDARD_RATIOS),
    "small": ((64, 128, 320, 512), (2, 2, 9, 3), (8, 8, 4, 4), 64, STANDARD_RATIOS),
    "base": ((64, 128, 320, 512), (3, 4, 18, 3), (8, 8, 4, 4), 64, STANDARD_RATIOS),
    "large": ((64, 128, 320, 640), (3, 8, 27, 3), (8, 8, 4, 4), 64, STANDARD_RATIOS),
    # desk-scale shapes for tests and the overfit harness; never compared
    # against the published tables
    "micro": ((8, 16, 24, 32), (1, 1, 1, 1), (2, 2, 2, 2), 8,
              ((2, 4), (2, 4), (1, 2), (1,))),
    "nano": ((8, 8, 8, 8), (1, 1, 1, 1), (1, 1, 1, 1), 8,
             ((1, 2), (1, 2), (1,), (1,))),
}

PRESET_NAMES = tuple(_PRESET_TABLE)


def preset(name: str, num_classes: int = 1000, **overrides) -> ModelConfig:
    """Build a named configuration; extra keyword fields override defaults."""
    if not isinstance(name, str) or name not in _PRESET_TABLE:
        raise ConfigError(
            f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    chans, depths, exps, head_width, ratios = _PRESET_TABLE[name]
    stages = tuple(
        StageConfig(c, d, c // head_width, e, r)
        for c, d, e, r in zip(chans, depths, exps, ratios))
    return ModelConfig(name=name, stages=stages, num_classes=num_classes,
                       head_width=head_width, **overrides)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

INIT_STD = 0.02  # standard deviation of every drawn weight


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Normal(0, INIT_STD) with values beyond 2 std redrawn until inside: each
    round draws one value for each position still outside, in flat order."""
    out = rng.standard_normal(size=shape)
    out *= INIT_STD
    out += 0.0  # ``rng.normal``'s bits: ``0.0 + std * z``, so a -0.0 draw is +0.0
    limit = 2.0 * INIT_STD
    flat = out.reshape(-1)
    idx = np.flatnonzero((flat < -limit) | (flat > limit))  # the one whole-array scan
    while idx.size:
        redraw = rng.normal(0.0, INIT_STD, size=idx.size)
        flat[idx] = redraw
        idx = idx[(redraw < -limit) | (redraw > limit)]
    return out


class _Init:
    """Lays parameters out in a fixed order, so builds are seed-deterministic.

    Given an arena ``size``, each parameter is a view of the next slot of
    one buffer, else (sub-layer builds) its own zeroed array.  With a
    ``seed`` the buffer starts zeroed and each weight is drawn in float64
    and cast into its slot; with none, nothing is written, for a load to fill.
    """

    def __init__(self, seed: int | None, dtype, size: int | None = None):
        self.rng = None if seed is None else np.random.default_rng(seed)
        self.dtype = dtype
        alloc = np.empty if seed is None else np.zeros
        self.data = None if size is None else alloc(size, dtype=dtype)
        self.cursor = 0

    def _slot(self, shape: tuple[int, ...]) -> Tensor:
        if self.data is None:
            return Tensor(np.zeros(shape, dtype=self.dtype), requires_grad=True)
        lo, self.cursor = self.cursor, self.cursor + math.prod(shape)
        if self.cursor > self.data.size:
            raise ShapeError(f"the parameter arena holds {self.data.size} values; "
                             f"the build needs more")
        return Tensor(self.data[lo:self.cursor].reshape(shape), requires_grad=True)

    def affine(self, shape: tuple[int, ...], out: int) -> T.Affine:
        """A truncated-normal weight of ``shape`` and a zero bias of ``out``."""
        weight = self._slot(shape)
        if self.rng is not None:
            weight.data[...] = _trunc_normal(self.rng, shape)
        return T.Affine(weight, self._slot((out,)))

    def norm(self, c: int) -> T.Norm:
        gamma = self._slot((c,))
        if self.rng is not None:
            gamma.data[...] = 1.0
        return T.Norm(gamma, self._slot((c,)))


def _init_patch_embed(init: _Init, cin: int, cout: int, k: int, stride: int,
                      padding: int) -> PatchEmbedState:
    return PatchEmbedState(init.affine((cout, cin, k, k), cout), init.norm(cout),
                           stride, padding)


def _init_attn(init: _Init, cfg: PMHSAConfig) -> PMHSAState:
    c = cfg.dim
    q, k, v, o = (init.affine((c, c), c) for _ in range(4))
    rpe = init.affine((c, 1, 3, 3), c) if cfg.use_rpe else None
    if rpe is None and init.rng is not None:
        _trunc_normal(init.rng, (c, 1, 3, 3))  # drawn when off too, with no slot; see build_model
    return PMHSAState(cfg, q, k, v, o, rpe, init.norm(c))


def _init_irb(init: _Init, c: int, expansion: int, ffn_kind: str, act: str) -> IRBState:
    hidden = c * expansion
    expand = init.affine((c, hidden), hidden)
    dw = init.affine((hidden, 1, 3, 3), hidden) if ffn_kind == "irb" else None
    return IRBState(act, expand, dw, init.affine((hidden, c), c))


def _init_block(init: _Init, attn_cfg: PMHSAConfig, expansion: int, ffn_kind: str,
                act: str) -> BlockState:
    c = attn_cfg.dim
    return BlockState(_init_attn(init, attn_cfg), init.norm(c),
                      _init_irb(init, c, expansion, ffn_kind, act), init.norm(c))


@dataclass
class StageState:
    embed: PatchEmbedState | None  # None for stage 1 (the stem feeds it)
    blocks: list[BlockState]


@dataclass
class ModelState:
    """The network's parameters, as state records over one ``arena``.

    Every parameter's ``data`` is a view of ``arena.data``, in
    ``named_params`` order; records built elsewhere are adopted into an
    arena when the state is made.
    """

    cfg: ModelConfig
    seed: int
    stem: PatchEmbedState
    stages: list[StageState]
    head_ln: T.Norm
    head_fc: T.Affine
    arena: T.Arena = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.arena = T.Arena(self.named_params())

    def named_params(self) -> list[tuple[str, Tensor]]:
        """Stable (name, tensor) listing; the order defines file layout.

        Each name is a field path (``T.named_tensors``) under ``stem``,
        ``stages.{i}`` (numbered from 1), ``head.ln`` or ``head.fc``.
        """
        out = list(T.named_tensors(self.stem, "stem"))
        for i, stage in enumerate(self.stages, start=1):
            out += T.named_tensors(stage, f"stages.{i}")
        out += T.named_tensors(self.head_ln, "head.ln")
        out += T.named_tensors(self.head_fc, "head.fc")
        return out

    def params(self) -> list[Tensor]:
        return [p for _, p in self.named_params()]


def build_model(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelState:
    """Instantiate every parameter; bit-identical across builds for one seed.

    Note the RPE pair is always drawn (so seeded draws line up between
    ablation arms), but is kept only when ``cfg.use_rpe`` is on.
    """
    return _build(cfg, seed, dtype, draw=True)


def _build(cfg: ModelConfig, seed: int, dtype, draw: bool) -> ModelState:
    """The model's records over one arena sized by ``count_params``, each
    parameter drawn into its slot in ``named_params`` order (or, with no
    ``draw``, left for a load to fill)."""
    from .complexity import count_params  # complexity imports this module

    init = _Init(seed if draw else None, dtype, count_params(cfg).total_params)
    stem = _init_patch_embed(init, cfg.in_channels, cfg.stages[0].channels,
                             *EMBED_GEOMETRY[0])
    stages: list[StageState] = []
    for i, st in enumerate(cfg.stages):
        embed = None
        if i > 0:
            embed = _init_patch_embed(init, cfg.stages[i - 1].channels, st.channels,
                                      *EMBED_GEOMETRY[i])
        attn_cfg = cfg.attn_config(i)
        blocks = [_init_block(init, attn_cfg, st.expansion, cfg.ffn_kind, cfg.act)
                  for _ in range(st.depth)]
        stages.append(StageState(embed=embed, blocks=blocks))
    c4 = cfg.stages[-1].channels
    model = ModelState(cfg=cfg, seed=seed, stem=stem, stages=stages,
                       head_ln=init.norm(c4),
                       head_fc=init.affine((c4, cfg.num_classes), cfg.num_classes))
    if init.cursor != init.data.size:
        raise ShapeError(f"the build filled {init.cursor} of {init.data.size} arena values")
    if model.arena.data is not init.data:
        raise ShapeError("the build laid parameters out of named_params order")
    return model


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def _check_input(model: ModelState, x: Tensor) -> None:
    if x.ndim != 4 or x.shape[3] != model.cfg.in_channels:
        raise ShapeError(f"input must be [B, H, W, {model.cfg.in_channels}], got {x.shape}")
    if x.shape[0] < 1:
        raise ShapeError(f"input batch is empty: B=0 in {x.shape}")
    if x.dtype != model.arena.data.dtype:
        raise ShapeError(f"input dtype {x.dtype} is not the model's {model.arena.data.dtype}")
    check_input_size(x.shape[1], x.shape[2])


def forward_features(model: ModelState, x: Tensor) -> tuple[Tensor, ...]:
    """Run the stem and all four stages; return their outputs B1..B4.

    ``x`` is a channels-last image batch ``[B, H, W, C]``, the layout of every
    map inside: stage i's output is the map ``[B, H_i, W_i, C_i]`` at stride
    4/8/16/32, with its grid at ``shape[1:3]``.
    """
    _check_input(model, x)
    maps = []
    y = patch_embed(x, model.stem)
    for stage in model.stages:
        if stage.embed is not None:
            y = patch_embed(y, stage.embed)
        for blk in stage.blocks:
            # by keyword: perfbench/tracer.py reads a block's scope from `state`
            y = block_forward(y, state=blk)
        maps.append(y)
    return tuple(maps)


def forward_classify(model: ModelState, x: Tensor) -> Tensor:
    """Logits [B, num_classes]: norm the map B4, average-pool it globally, project."""
    y = forward_features(model, x)[3]
    y = T.layer_norm(y, model.head_ln.gamma, model.head_ln.beta)
    pooled = T.reshape(T.adaptive_avg_pool2d(y, 1, 1), (y.shape[0], y.shape[3]))
    return T.matmul(pooled, model.head_fc.weight, model.head_fc.bias)


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

def config_to_dict(cfg) -> dict:
    """A config dataclass as JSON values: its ``init`` fields, with tuples
    as lists and nested configs as dicts."""
    return {f.name: _to_json(getattr(cfg, f.name)) for f in fields(cfg) if f.init}


def _to_json(value):
    if is_dataclass(value):
        return config_to_dict(value)
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def config_from_dict(d, cls=ModelConfig, where: str = ""):
    """Inverse of ``config_to_dict``: build ``cls`` from JSON values.

    Each ``init`` field of ``cls`` takes its annotated type exactly: ``int``
    is never a ``bool``, ``float`` also takes an ``int`` (converted),
    ``tuple[X, ...]`` takes a list and a nested config takes an object.
    Fields with a default may be left out.  An unknown, missing or wrongly
    typed field raises ``ConfigError`` naming it with its dotted path from
    ``where`` (list items are numbered from 1, as stages are), such as
    ``stages[1].channels``; a nested record's own check is prefixed with
    its path, as in ``train: seed must be nonnegative, got -1``.
    """
    _expect(d, dict, where)
    prefix = f"{where}." if where else ""
    known = {f.name: f for f in fields(cls) if f.init}
    for key in d:
        if key not in known:
            raise ConfigError(f"unknown config field {prefix + key!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, f in known.items():
        if name in d:
            values[name] = _load(d[name], hints[name], prefix + name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config field {prefix + name!r} is missing")
    try:
        return cls(**values)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from None


def _load(value, kind, where: str):
    """``value`` as the annotated type ``kind``; see ``config_from_dict``."""
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        (kind,) = (k for k in typing.get_args(kind) if k is not type(None))
    if typing.get_origin(kind) is tuple:
        _expect(value, list, where)
        item = typing.get_args(kind)[0]
        return tuple(_load(v, item, f"{where}[{i}]") for i, v in enumerate(value, start=1))
    if is_dataclass(kind):
        return config_from_dict(value, kind, where)
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError as exc:
            raise ConfigError(f"config field {where!r} is out of range: {exc}") from exc
    return _expect(value, kind, where)


def _expect(value, kind: type, where: str):
    """``value`` if it is a ``kind``, and a ``bool`` only if ``kind`` is."""
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        name = f"config field {where!r}" if where else "config"
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------
#
# Byte layout (all integers little-endian):
#   magic            8 bytes  b"PPVT\x00\x01\x00\x00"
#   manifest_len     u64
#   manifest         UTF-8 JSON: {format_version, seed, config, extra}
#   per parameter, in named_params order:
#     name_len       u16
#     name           UTF-8
#     ndim           u8
#     dims           u32 x ndim
#     data           f32 x prod(dims), C order
# No trailing bytes.

CHECKPOINT_MAGIC = b"PPVT\x00\x01\x00\x00"
CHECKPOINT_VERSION = 1


def check_checkpoint_dtype(model: ModelState) -> None:
    """Raise ``CheckpointError`` naming the first parameter that is not
    float32, the only dtype the format holds."""
    for name, p in model.named_params():
        if p.data.dtype != np.float32:
            raise CheckpointError(
                f"parameter {name!r} is {p.data.dtype}; checkpoints hold float32 only")


def _record_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes of a parameter record that come before its data."""
    nb = name.encode("utf-8")
    return struct.pack(f"<H{len(nb)}sB{len(shape)}I", len(nb), nb, len(shape), *shape)


def save_checkpoint(model: ModelState, path, extra: dict | None = None) -> None:
    """Write ``model`` to ``path``; a model ``check_checkpoint_dtype``
    refuses is refused before the file opens."""
    check_checkpoint_dtype(model)
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "seed": model.seed,
        "config": config_to_dict(model.cfg),
        "extra": extra or {},
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for name, p in model.named_params():
            fh.write(_record_header(name, p.shape))
            fh.write(np.ascontiguousarray(p.data, dtype="<f4"))


def load_checkpoint(path) -> tuple[ModelState, dict]:
    """Rebuild the float32 model a checkpoint describes and restore its parameters.

    The model's structure and arena are laid out with nothing written, and
    each record is read in turn straight into its parameter's view, so no
    copy of the file is held.  The records must fill the file exactly, in
    ``named_params`` order, each header byte-equal to the one
    ``save_checkpoint`` writes for that parameter.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointError("bad magic; not a checkpoint file")
        head = fh.read(8)
        if len(head) != 8:
            raise CheckpointError(f"truncated header, no manifest_len: {len(head)} of 8 bytes")
        (mlen,) = struct.unpack("<Q", head)
        if mlen > size - 16:
            raise CheckpointError(f"manifest_len {mlen} runs past the end of the {size}-byte file")
        off = 16 + mlen
        try:
            manifest = json.loads(fh.read(mlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CheckpointError(
                f"manifest must be a JSON object, got {type(manifest).__name__}")
        if manifest.get("format_version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported format_version {manifest.get('format_version')!r}")
        for key in ("config", "seed"):
            if key not in manifest:
                raise CheckpointError(f"manifest has no {key!r} field")
        if type(manifest["seed"]) is not int:
            raise CheckpointError(f"manifest field 'seed' must be an integer, "
                                  f"got {manifest['seed']!r}")

        cfg = config_from_dict(manifest["config"])
        # The parameter count is closed form, so a manifest that asks for a
        # model its records cannot hold is refused before anything is built.
        from .complexity import count_params  # complexity imports this module

        need = 4 * count_params(cfg).total_params
        if size - off < need:
            raise CheckpointError(
                f"manifest field 'config' describes {need // 4} parameters "
                f"({need} bytes), but only {size - off} bytes follow the manifest")
        model = _build(cfg, manifest["seed"], np.float32, draw=False)
        named = model.named_params()
        headers = [_record_header(name, p.shape) for name, p in named]
        total = sum(map(len, headers)) + 4 * model.arena.data.size
        if size - off != total:
            raise CheckpointError(
                f"{size - off} bytes follow the manifest, but the records of its "
                f"'config' take {total}")
        for (name, p), header in zip(named, headers):
            record = fh.read(len(header) + 4 * p.size)
            if len(record) != len(header) + 4 * p.size or record[:len(header)] != header:
                raise CheckpointError(
                    f"the record at byte {fh.tell() - len(record)} is not parameter "
                    f"{name!r} {p.shape}; records follow named_params order")
            p.data[...] = np.frombuffer(record, "<f4", offset=len(header)).reshape(p.shape)
    return model, manifest
