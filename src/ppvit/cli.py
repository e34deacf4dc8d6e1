"""Command-line surface: summary, squeeze, train, gradcheck, compare.

Exit codes: 0 success, 1 runtime failure (divergence, I/O, failed checks),
2 usage or config error.  Set NO_COLOR to suppress ANSI markup.  CSV output
modes print only CSV on stdout, so machine- and human-readable streams
never mix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import complexity, model as M, training
from .data import SyntheticDataset
from .errors import ConfigError, PPVitError
from .model import ModelConfig, build_model, config_from_dict, config_to_dict, preset
from .training import TrainConfig


def _use_color() -> bool:
    return os.environ.get("NO_COLOR") is None and sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if _use_color() else text


def _fmt_table(rows: list[list[str]], header: list[str]) -> str:
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

# a preset fixes its name, stage shapes and head width; the rest may be overridden
_MODEL_OVERRIDE_KEYS = {f.name for f in fields(ModelConfig)} - {"name", "stages", "head_width"}


@dataclass(frozen=True)
class RunConfig:
    """One ``ppvit train`` run, as its run-config JSON states it."""

    model: ModelConfig
    data: SyntheticDataset = field(default_factory=SyntheticDataset)
    train: TrainConfig = TrainConfig()
    model_seed: int = 0
    out_dir: str = "runs/latest"

    def __post_init__(self):
        if self.model_seed < 0:
            raise ConfigError(f"model_seed must be nonnegative, got {self.model_seed}")


def load_run_config(path) -> RunConfig:
    """Parse and validate a run config; every field not given is defaulted.

    The ``model`` section is either a full ``ModelConfig`` or a ``preset``
    name plus overrides of the ``_MODEL_OVERRIDE_KEYS`` fields, which are
    checked as the same fields of an explicit model are.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if isinstance(raw.get("model"), dict) and "preset" in raw["model"]:
        overrides = dict(raw["model"])
        name = overrides.pop("preset")
        unknown = sorted(overrides.keys() - _MODEL_OVERRIDE_KEYS)
        if unknown:
            raise ConfigError(f"config field 'model.{unknown[0]}' cannot override a preset")
        if name not in M.PRESET_NAMES:
            raise ConfigError(f"config field 'model.preset' must be one of "
                              f"{', '.join(M.PRESET_NAMES)}, got {name!r}")
        raw["model"] = dict(config_to_dict(preset(name)), **overrides)
    return config_from_dict(raw, RunConfig)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _resolve_config(args) -> ModelConfig:
    if args.config:
        return load_run_config(args.config).model
    return preset(args.preset)


def cmd_summary(args) -> int:
    cfg = _resolve_config(args)
    report = complexity.count_flops(cfg, (args.input, args.input))
    factor = 2 if args.double_macs else 1
    if args.csv:
        sys.stdout.write(report.to_csv(per_layer=args.per_layer,
                                       flop_factor=factor))
        return 0

    unit = "FLOPs (2x MAC)" if args.double_macs else "FLOPs (1 MAC = 1)"
    k, stride, _ = M.EMBED_GEOMETRY[0]
    grids = [f"{h}x{w}" for h, w in complexity.stage_grids(args.input, args.input)]
    rows = [["stem", grids[0], str(cfg.stages[0].channels), "-", "-",
             f"{k}x{k} conv /{stride}"]]
    for i, (st, grid) in enumerate(zip(cfg.stages, grids), start=1):
        ratios = ",".join(map(str, st.pool_ratios))
        if cfg.pool_sizes is not None:
            ratios = "sizes " + ",".join(map(str, cfg.pool_sizes))
        rows.append([f"stage {i}", grid, str(st.channels),
                     str(st.expansion), str(st.depth), ratios])
    print(_paint(f"{cfg.name} @ {args.input}x{args.input}", "1"))
    print(_fmt_table(rows, ["scope", "grid", "C", "E", "depth", "pooling"]))
    print()
    lrows = [[l.scope, f"{l.params:,}", f"{l.flops * factor:,}"]
             for l in (report.layers if args.per_layer else report.per_stage())]
    print(_fmt_table(lrows, ["scope", "params", unit]))
    print()
    print(f"total params: {report.total_params:,}")
    print(f"total {unit}: {report.total_flops * factor:,}")
    if cfg.name in complexity.REFERENCE_PARAMS:
        ref_p = complexity.REFERENCE_PARAMS[cfg.name]
        dev_p = 100.0 * (report.total_params - ref_p) / ref_p
        print(f"reference params {ref_p / 1e6:.1f}M, deviation {dev_p:+.2f}%")
        if args.input == 224:
            ref_f = complexity.REFERENCE_FLOPS[cfg.name]
            dev_f = 100.0 * (report.total_flops - ref_f) / ref_f
            print(f"reference flops {ref_f / 1e9:.1f}G, deviation {dev_f:+.2f}%")
    return 0


def cmd_squeeze(args) -> int:
    hw = tuple(args.hw) if args.hw else None
    rep = complexity.squeeze_ratio(tuple(args.ratios), hw)
    print(f"pool ratios: {list(rep.pool_ratios)}")
    print(f"analytic squeeze ratio N/M: {rep.analytic_ratio:.1f}")
    if rep.realized_m is not None:
        h, w = rep.realized_hw
        print(f"realized at {h}x{w}: M={rep.realized_m} "
              f"(N={h * w}, N/M={rep.realized_ratio:.1f})")
    return 0


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    print(_paint("effective config:", "1"))
    print(json.dumps(config_to_dict(run), indent=2, sort_keys=True))
    net = build_model(run.model, seed=run.model_seed)
    training.check_classes(net, run.data)  # a refused run leaves no directory
    out_dir = Path(run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = out_dir / "metrics.csv"
    ckpt = out_dir / "checkpoint.ckpt"
    records = training.train(net, run.data, run.train,
                             metrics_path=metrics, checkpoint_path=ckpt)
    last = records[-1]
    print(f"finished {last.step} steps: loss {last.loss:.4f}, "
          f"train accuracy {last.train_accuracy:.1%}")
    print(f"metrics: {metrics}")
    print(f"checkpoint: {ckpt}")
    return 0


def cmd_gradcheck(args) -> int:
    cases = training.gradcheck_suite(args.scope)
    for case in cases:
        tag = _paint("PASS", "32") if case.passed else _paint("FAIL", "31")
        print(f"{tag}  {case.name}: max_rel_err={case.max_rel_err:.3e} "
              f"(tol {training.GRADCHECK_TOL:.0e})")
    n_pass = sum(c.passed for c in cases)
    print(f"{args.scope}: {n_pass}/{len(cases)} cases passed")
    return 0 if n_pass == len(cases) else 1


def cmd_compare(args) -> int:
    rows, warnings = complexity.compare_attention(args.n, args.c, args.variants)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    factor = 2 if args.double_macs else 1
    if args.csv:
        sys.stdout.write("variant,m,core_flops\n")
        for r in rows:
            sys.stdout.write(f"{r.variant},{r.m},{r.core_flops * factor}\n")
        return 0
    side = int(round(args.n ** 0.5))
    if side * side != args.n:
        print(f"note: N={args.n} is not a square grid; pooled lengths use the "
              f"analytic ratio")
    table = [[r.variant, str(r.m), f"{r.core_flops * factor:,}",
              f"{r.core_flops / rows[0].core_flops:.3f}"] for r in rows]
    print(_fmt_table(table, ["variant", "M", "attention-core flops", "vs first"]))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ppvit",
        description="pyramid-pooling attention backbone: analysis and training")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("summary", help="architecture table and cost report")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset", choices=M.PRESET_NAMES)
    g.add_argument("--config", help="run-config JSON; its model section is used")
    s.add_argument("--input", type=int, default=224,
                   help=f"square input size (multiple of {M.INPUT_MULTIPLE})")
    s.add_argument("--per-layer", action="store_true",
                   help="emit the per-layer breakdown instead of per-stage")
    s.add_argument("--csv", action="store_true", help="print CSV only")
    s.add_argument("--double-macs", action="store_true",
                   help="display 2 FLOPs per MAC instead of 1")
    s.set_defaults(fn=cmd_summary)

    s = sub.add_parser("squeeze", help="key/value squeeze-ratio analytics")
    s.add_argument("ratios", type=int, nargs="+", help="pooling ratios")
    s.add_argument("--hw", type=int, nargs=2, metavar=("H", "W"),
                   help="also report the realized M for this token grid")
    s.set_defaults(fn=cmd_squeeze)

    s = sub.add_parser("train", help="run the desk-scale training loop")
    s.add_argument("--config", required=True, help="run-config JSON path")
    s.set_defaults(fn=cmd_train)

    s = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    s.add_argument("scope", choices=("ops", "block", "model"))
    s.set_defaults(fn=cmd_gradcheck)

    s = sub.add_parser("compare", help="attention-cost comparison table")
    s.add_argument("--n", type=int, required=True, help="query sequence length")
    s.add_argument("--c", type=int, required=True, help="channel width")
    s.add_argument("variants", nargs="+",
                   help="vanilla | pool:p | pyramid:p1,p2,...")
    s.add_argument("--csv", action="store_true", help="print CSV only")
    s.add_argument("--double-macs", action="store_true",
                   help="display 2 FLOPs per MAC instead of 1")
    s.set_defaults(fn=cmd_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PPVitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
