"""ppvit benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root.  The package is imported from ``src/`` next
to this directory; without it the benchmark exits with a non-zero code and
prints no result.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` untraced, its per-layer metrics with ``--trace 1``.
The lines before it print every metric by name and unit and the run
record (library versions, host and a calibration probe).  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

IMPORT_REPS = 7  # fresh interpreters that time ``import ppvit``
_IMPORT_PROBE = ("import sys, time, numpy; t0 = time.perf_counter(); "
                 "sys.path.insert(0, sys.argv[1]); import ppvit; print(time.perf_counter() - t0)")


def import_ppvit() -> None:
    """Import the package from ``src/``, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "ppvit", "__init__.py")):
        sys.exit(f"error: no ppvit package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import ppvit

    if not os.path.abspath(ppvit.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported ppvit from {ppvit.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median time of ``import ppvit`` in a fresh interpreter.

    A process imports once, so one in-process sample would be all there is;
    a few short-lived interpreters give a median instead.  NumPy is imported
    before the clock starts: its import is the environment's, about 0.1 s
    on 2 shared cores, and the noisiest part of the whole.
    """
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], check=True,
                             capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.exit(f"error: cannot read {path}: {exc}")


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that NumPy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_probe() -> dict[str, float]:
    """Fixed NumPy work timed the same way on every run: one 384^3 f32 GEMM
    and one 200k-step Python loop, median of seven each, in ms.  Taken
    before and after the workload, it tells host drift from code change."""
    import numpy as np

    a = np.random.default_rng(0).random((384, 384), dtype=np.float32)
    a @ a  # starts the BLAS threads
    gemm, loop = [], []
    for _ in range(7):
        t0 = perf_counter()
        a @ a
        gemm.append(perf_counter() - t0)
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i
        loop.append(perf_counter() - t0)
    return {"gemm_ms": statistics.median(gemm) * 1e3,
            "py_loop_ms": statistics.median(loop) * 1e3}


def run_record(args, calib_before, calib_after) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "calibration_before": calib_before, "calibration_after": calib_after,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_window(workload, seconds: float, min_iters: int, tracer=None):
    """Closed loop for ``seconds`` (and at least ``min_iters`` iterations).

    With a tracer, odd iterations run traced and even ones untraced, so
    host drift hits both halves alike.  Returns the untraced and the traced
    wall times and the captured records.  An exception fails its iteration
    and the loop goes on.
    """
    plain, traced, records = [], [], []
    start = perf_counter()
    while len(plain) + len(traced) < min_iters or perf_counter() - start < seconds:
        i = len(plain) + len(traced)
        use_tracer = tracer is not None and i % 2 == 1
        t0 = perf_counter()
        try:
            if use_tracer:
                tracer.install()
                try:
                    with tracer.iteration_span(i):
                        out = workload.iterate()
                finally:
                    tracer.uninstall()
            else:
                out = workload.iterate()
            record = None
        except Exception as exc:  # a failed iteration is counted, not fatal
            record = {"error": f"{type(exc).__name__}: {exc}"}
        (traced if use_tracer else plain).append(perf_counter() - t0)
        records.append(record or workload.capture(out))
        out = None
    return plain, traced, records


def measure(workload, seconds: float, trace: bool):
    """Set up, run the window, verify.  Returns (report, records, failures)."""
    import_s = import_seconds()
    setup_times, records = [], []
    for _ in range(workload.setup_reps):
        t0 = perf_counter()
        out = workload.setup()
        setup_times.append(perf_counter() - t0)
        records.append(workload.capture(out))
        del out

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    plain, traced, window = timed_window(
        workload, seconds, 2 if trace else workload.min_iters, tracer)
    report = dict(times=plain, traced_times=traced, tracer=tracer,
                  peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  setup_s=import_s + statistics.median(setup_times))
    records += window
    failures = [f for f in workload.verify(records) if f is not None]
    return report, records, failures


def end_to_end(workload, report) -> dict[str, tuple[float, str]]:
    samples = workload.iter_samples(report["times"])
    return {
        "setup_s": (report["setup_s"], "s"),
        "iter_ms_min": (min(samples) * 1e3, "ms"),
        "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
    }


def printed_only(workload, report, records) -> dict[str, tuple[float, str]]:
    """Untraced figures that are printed but kept out of the JSON result."""
    times = report["times"]
    samples = workload.iter_samples(times)
    extra = {"iter_ms_p10": (_percentile(samples, 10) * 1e3, "ms"),
             "iter_ms_p50": (statistics.median(samples) * 1e3, "ms"),
             "images_per_s": (workload.images_per_iter * len(times) / sum(times), "1/s")}
    if len(samples) >= 20:
        p90 = _percentile(samples, 90)
        extra["iter_ms_p90"] = (p90 * 1e3, f"ms (n={len(samples)}, "
                                           f"{sum(t > p90 for t in samples)} beyond)")
    extra.update(workload.summary(records, times))
    return extra


def per_layer(workload, report, records) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics of a traced run, plus self-check failures."""
    from ppvit.complexity import count_flops
    from tracer import per_layer_names

    tracer = report["tracer"]
    agg, scopes_seen = tracer.aggregate()
    agg.update(workload.layer_metrics(records))
    problems = []
    rows = count_flops(workload.model_cfg(), (workload.size, workload.size)).per_stage()
    if scopes_seen != {row.scope for row in rows}:
        problems.append(f"traced scopes {sorted(scopes_seen)} differ from the "
                        f"accountant's {[row.scope for row in rows]}")
    images = workload.images_per_iter
    for row in rows:
        key = f"scope.{row.scope}"
        agg[f"{key}.analytic_gflop"] = row.flops / 1e9
        agg[f"{key}.counted_gmacs"] = agg.get(f"{key}.counted_gmacs", 0.0) / images
        fwd_s = agg.get(f"{key}.fwd_ms", 0.0) / 1e3
        agg[f"{key}.achieved_gflop_per_s"] = row.flops * images / 1e9 / fwd_s if fwd_s else 0.0
        if agg[f"{key}.counted_gmacs"] > agg[f"{key}.analytic_gflop"] * (1 + 1e-9):
            problems.append(f"{row.scope}: counted MACs exceed the accountant's FLOPs")
    agg["complexity.gflop_per_image"] = sum(row.flops for row in rows) / 1e9
    plain = statistics.median(report["times"])
    agg["trace.overhead_pct"] = 100.0 * (statistics.median(report["traced_times"]) - plain) / plain
    names = per_layer_names()
    return {name: (float(agg.get(name, 0.0)), unit) for name, unit, _ in names}, problems


def run_one(args, spec) -> dict:
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, OUT_DIR)
    calib_before = calibration_probe()
    try:
        report, records, failures = measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    calib_after = calibration_probe()

    if args.trace:
        metrics, problems = per_layer(workload, report, records)
        failures += problems
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv")
        report["tracer"].write(spans)
        print(f"spans: {len(report['tracer'].spans)} written to {spans}")
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(workload, report)
        expected = [m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(expected))} disagree "
                 "with BENCHMARK.json")

    extra = {} if args.trace else printed_only(workload, report, records)
    extra["error_rate"] = (len(failures) / len(records), "failed/attempted")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"{args.workload}  {name} = {value} {unit}")
    for failure in failures:
        print(f"{args.workload}  FAILED: {failure}")
    print("record: " + json.dumps(run_record(args, calib_before, calib_after)))
    return {"correct": not failures, "attempted": len(records), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def smoke(spec) -> int:
    """Nano-sized traced and untraced runs of every workload in one process.

    Asserts that every metric of BENCHMARK.json is emitted, that traced
    scopes match the accountant, that the spans cover at least 90% of
    iteration time, and that an untraced run after a traced one calls the
    original, unwrapped functions.
    """
    import io
    from contextlib import redirect_stdout

    import ppvit.data as D
    import ppvit.training as TR
    from tracer import find_wrappers
    from workloads import WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        for trace in (1, 0):
            args = argparse.Namespace(workload=name, seed=cls.default_seed, seconds=0.5,
                                      trace=trace, smoke=True)
            buf = io.StringIO()
            with redirect_stdout(buf):
                result = run_one(args, spec)
            metrics = result["metrics"]
            want = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in want if m["name"] not in metrics]
            checks = {"correct": result["correct"], "all metrics emitted": not missing}
            if trace:
                checks["coverage >= 90%"] = metrics["trace.coverage_pct"]["value"] >= 90.0
            else:
                checks["untraced run calls the originals"] = (
                    not find_wrappers() and TR.load_batch is D.load_batch)
            for what, passed in checks.items():
                ok &= passed
                print(f"smoke {name} trace={trace}: {what}: {'ok' if passed else 'FAIL'}")
            if not result["correct"]:
                print(buf.getvalue())
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="nano-sized self-test of every workload and metric")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    import_ppvit()
    if args.smoke:
        return smoke(spec)
    from workloads import WORKLOADS

    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    args.smoke = False
    result = run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
