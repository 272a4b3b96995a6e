#!/usr/bin/env python3
"""Benchmark of the irs_multicast Monte Carlo sweep, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload desk_sweep --seed 0 --seconds 30 --trace 0

One process drives ``harness.sweep`` closed loop, one block of cells after
another, on one BLAS thread. It runs whole passes over the workload's pool of
cells (see workloads.py) until ``--seconds`` have passed. Every cell must
finish ok, pass ``check_constraints`` and reproduce its sum rate from
reference.json; otherwise the run exits 1.

``--trace 0`` reports the end-to-end metrics, measured untraced. Set-up time
is the median of five fresh processes (this one and four probes), each
importing irs_multicast, loading the config and finishing a warm-up cell.
Every time behind them is scaled to the reference host speed (see
hostspeed.py): every 0.1 s an interval timer runs a 5 ms slice of a fixed
kernel, and each cell's and block's time, less the slices in it, is
multiplied by the mean kernel rate over it and divided by
``hostspeed.REFERENCE_RATE``. The set-up time is scaled by a slice run right
after it. The unscaled figures are printed too.

``--trace 1`` runs every block twice, untraced and traced, alternating which
goes first, and reports the per-layer metrics of the traced runs plus the
tracing overhead. It writes ``.bench_out/spans_<workload>.npz`` (every span)
and ``.bench_out/layers_<workload>.json`` (per-layer metrics, stage medians
and a split of the cell time by module).

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 4
# The set-up time is scaled by a kernel slice of this many seconds after it.
SETUP_CAL_SECONDS = 0.2
# irs_multicast, and numpy with it, must first load inside timed_setup, so
# the benchmark's own modules that import them are imported lazily.

END_TO_END_UNITS = {
    "runs_per_s": "1/s",
    "run_ms_p50": "ms",
    "run_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sum_rate_mean_bps": "bps",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="desk_sweep, full_scale or rf_limited")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: picks the block each pass starts at")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="minimum measured time; runs end on whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload: str):
    """Import the package, load the config, finish the warm-up cell."""
    t0 = time.perf_counter()
    import workloads
    from irs_multicast import harness
    wl = workloads.WORKLOADS.get(workload)
    if wl is None:
        raise SystemExit(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    cfg = wl.config()
    warm = harness.sweep(wl.warmup_spec(cfg))
    return wl, cfg, warm, time.perf_counter() - t0


def setup_speed() -> float:
    """Host speed factor right after set-up, from a fixed-kernel slice."""
    import hostspeed
    hostspeed.kernel_iteration()
    sampler = hostspeed.Sampler(slice_seconds=SETUP_CAL_SECONDS)
    sampler.sample()
    return sampler.speed(-math.inf, math.inf)


def setup_probe_seconds(workload: str) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--setup-probe"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["speed"])


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, else the requested count."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS')} (requested)"


def environment(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Tallies of one measured run: timings, rates and gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.blocks = 0
        self.seconds = {False: 0.0, True: 0.0}  # sweep time, untraced / traced
        self.wall_ms: list[float] = []  # untraced, kernel slices taken out
        # untraced cell times scaled to the reference host speed
        self.scaled_seconds = 0.0
        self.scaled_ms: list[float] = []
        self.speeds: list[float] = []
        self.first_pass_rates: list[float] = []
        self.passes = 0
        self.s1: list[int] = []
        self.s2: list[int] = []

    def gate(self, records, reference) -> None:
        from workloads import check_records
        self.attempted += len(records)
        self.failed += sum(not r.ok for r in records)
        self.errors += check_records(records, reference)


@contextlib.contextmanager
def cell_windows(sampler, windows: dict):
    """Wrap harness._run to record each cell's start, end and sampling seconds.

    ``windows`` maps id(record) to (start, end, seconds spent in kernel slices).
    """
    from irs_multicast import harness
    original = harness._run

    @functools.wraps(original)
    def windowed(*args, **kwargs):
        t0, spent0 = time.perf_counter(), sampler.spent
        record = original(*args, **kwargs)
        windows[id(record)] = (t0, time.perf_counter(), sampler.spent - spent0)
        return record

    harness._run = windowed
    try:
        yield
    finally:
        harness._run = original


def measure(wl, cfg, args, reference) -> tuple[Run, object]:
    from irs_multicast import harness
    from workloads import ConstraintGate
    tracer = None
    sampling = contextlib.nullcontext()
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        import hostspeed
        sampler = hostspeed.Sampler()
        windows: dict[int, tuple[float, float, float]] = {}
        sampling = contextlib.ExitStack()
        sampling.enter_context(cell_windows(sampler, windows))
        sampling.enter_context(sampler)
    run = Run()
    gate = ConstraintGate()
    deadline = time.perf_counter() + args.seconds
    with gate, sampling:
        while run.passes == 0 or time.perf_counter() < deadline:
            for base in wl.block_plan(args.seed):
                spec = wl.spec(cfg, base, wl.block_seeds)
                modes = (False, True) if args.trace else (False,)
                if args.trace and run.blocks % 2:
                    modes = (True, False)
                rates = {}
                for traced in modes:
                    with tracer if traced else contextlib.nullcontext():
                        spent0 = 0.0 if args.trace else sampler.spent
                        t0 = time.perf_counter()
                        records = harness.sweep(spec)
                        block_s = time.perf_counter() - t0
                    run.gate(records, reference)
                    rates[traced] = [r.sum_rate_bps.hex() for r in records]
                    if traced:
                        run.seconds[True] += block_s
                        run.s1 += [r.s1_iters for r in records]
                        run.s2 += [r.s2_iters for r in records]
                        continue
                    if run.passes == 0:
                        run.first_pass_rates += [r.sum_rate_bps for r in records if r.ok]
                    if args.trace:
                        run.seconds[False] += block_s
                        run.wall_ms += [r.wall_ms for r in records]
                        continue
                    # take the kernel slices out, then scale to the reference host
                    block_s -= sampler.spent - spent0
                    speed = sampler.speed(t0, t0 + block_s)
                    run.speeds.append(speed)
                    run.seconds[False] += block_s
                    run.scaled_seconds += block_s * speed
                    for r in records:
                        c0, c1, spent = windows.pop(id(r))
                        ms = r.wall_ms - 1000.0 * spent
                        run.wall_ms.append(ms)
                        run.scaled_ms.append(ms * sampler.speed(c0, c1))
                run.blocks += 1
                if args.trace and rates[True] != rates[False]:
                    run.errors.append(f"block {base}: traced rates differ from untraced")
            run.passes += 1
    if gate.violations or gate.checked < run.attempted:
        run.errors.append(f"check_constraints: {gate.checked} reports for "
                          f"{run.attempted} cells, {gate.violations} violated")
    return run, tracer


def end_to_end(run: Run, setup_samples: list[tuple[float, float]],
               scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics at the reference host speed, or as measured."""
    walls = run.scaled_ms if scaled else run.wall_ms
    seconds = run.scaled_seconds if scaled else run.seconds[False]
    return {
        "runs_per_s": len(walls) / seconds,
        "run_ms_p50": statistics.median(walls),
        "run_ms_p90": percentile(walls, 90),
        "setup_s": statistics.median(s * (f if scaled else 1.0) for s, f in setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sum_rate_mean_bps": math.fsum(run.first_pass_rates) / len(run.first_pass_rates),
    }


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(run: Run, tracer, workload: str, env: dict) -> dict[str, float]:
    table = tracer.table()
    n_cells = len(table.cell_keys)
    metrics = table.layer_metrics(n_cells)
    # traced runs/s over untraced runs/s, minus 1, on the same cells
    metrics["trace_overhead_frac"] = run.seconds[False] / run.seconds[True] - 1.0
    stages = {}
    for stage, per_cell in table.cell_stage_ms().items():
        ran = [float(x) for x in per_cell if x > 0.0]
        stages[stage] = {"cells": len(ran),
                         "ms_p50": statistics.median(ran) if ran else 0.0,
                         "ms_p90": percentile(ran, 90) if ran else 0.0}
        metrics[f"stage.{stage}_ms_p50"] = stages[stage]["ms_p50"]
    OUT_DIR.mkdir(exist_ok=True)
    table.save(OUT_DIR / f"spans_{workload}.npz")
    attribution = table.attribution_ms()
    report = {
        "env": env,
        "traced_cells": n_cells,
        "spans": len(table),
        "per_layer": metrics,
        "stages": stages,
        "s1_iters_mean": statistics.fmean(run.s1),
        "s2_iters_mean": statistics.fmean(run.s2),
        "cell_time_by_module_ms_per_run": {k: v / n_cells for k, v in attribution.items()},
    }
    with open(OUT_DIR / f"layers_{workload}.json", "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"stage medians over {n_cells} traced cells "
          f"(s1 mean {report['s1_iters_mean']:.1f}, s2 mean {report['s2_iters_mean']:.1f}):")
    for stage, row in stages.items():
        print(f"  {stage:<10} p50 {row['ms_p50']:9.3f} ms  p90 {row['ms_p90']:9.3f} ms"
              f"  ({row['cells']} cells)")
    print("cell time by module, ms per run:")
    for module, ms in report["cell_time_by_module_ms_per_run"].items():
        print(f"  {module:<14} {ms:10.3f}")
    return metrics


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith(("_ratio", "_frac")):
        return "ratio"
    if leaf.startswith("us_"):
        return "us"
    if leaf.startswith("ms_") or "_ms_" in leaf:
        return "ms"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "irs_multicast" / "__init__.py").is_file():
        print(f"error: no irs_multicast package under {SRC}; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    wl, cfg, warm, setup_s = timed_setup(args.workload)
    setup_factor = setup_speed()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "speed": setup_factor}))
        return 0

    import workloads
    reference = workloads.load_reference().get(wl.name, {})
    env = environment(args)
    print("env: " + json.dumps(env))
    warm_run = Run()
    warm_run.gate(warm, reference)

    run, tracer = measure(wl, cfg, args, reference)
    errors = warm_run.errors + run.errors
    print(f"{wl.name}: {run.passes} passes, {run.blocks} blocks, "
          f"{run.attempted} cells attempted, {run.failed} failed")

    if args.trace:
        metrics = per_layer(run, tracer, wl.name, env)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup = [(setup_s, setup_factor)] + [setup_probe_seconds(wl.name)
                                             for _ in range(SETUP_PROBES)]
        metrics = end_to_end(run, setup)
        units = dict(END_TO_END_UNITS)
        n = len(run.wall_ms)
        print(f"  cells timed: {n}; {n - math.ceil(0.9 * n)} lie beyond run_ms_p90"
              f"; set-up samples (s, unscaled): {', '.join(f'{s:.3f}' for s, _ in setup)}")
        print(f"  host speed factor over {len(run.speeds)} blocks: median "
              f"{statistics.median(run.speeds):.4f}, min {min(run.speeds):.4f}, "
              f"max {max(run.speeds):.4f}; set-up "
              f"{', '.join(f'{f:.4f}' for _, f in setup)}")
        unscaled = end_to_end(run, setup, scaled=False)
        print("  unscaled: " + ", ".join(
            f"{name} {unscaled[name]:.6g} {units[name]}"
            for name in ("runs_per_s", "run_ms_p50", "run_ms_p90", "setup_s")))
        print(f"  {'failed_frac':<38} {run.failed / run.attempted:16.6f} ratio")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:16.6f} {units[name]}")

    for err in errors[:20]:
        print(f"gate: {err}", file=sys.stderr)
    if len(errors) > 20:
        print(f"gate: ... {len(errors) - 20} more", file=sys.stderr)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
