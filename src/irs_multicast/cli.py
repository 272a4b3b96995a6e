"""``simulate`` command line entry point.

Exit codes: 0 full success, 1 configuration error, 2 partial run failures
(rows flagged in the status column) or a failed report.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .bd import BdInfeasibleError
from .channel import ConfigError, load_config

REPORTS = ("theorem1", "cdf", "energy", "convergence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="IRS-assisted mmWave multicast MIMO link-level simulator")
    parser.add_argument("--config", help="scenario JSON (defaults to the desk-scale preset)")
    parser.add_argument("--sweep", choices=[s for s in harness.SWEEP_CHOICES if s != "none"],
                        help="sweep variable")
    parser.add_argument("--sweep-values",
                        help="comma-separated sweep values (defaults per sweep kind)")
    parser.add_argument("--baselines", default="proposed",
                        help="comma-separated subset of proposed,a,b,c,d,e")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="number of Monte Carlo seeds")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--trace", help="per-iteration phase-optimizer trace CSV")
    parser.add_argument("--report", choices=REPORTS,
                        help="emit a named report instead of a sweep")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock ms per run (breaks byte determinism)")
    return parser


def _parse_values(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        values = ()
    if not values or not all(math.isfinite(v) for v in values):
        raise ConfigError(f"bad sweep values {text!r}")
    return values


def _run_report(args, cfg) -> int:
    """Write the named report.

    Bad arguments raise ConfigError up front (exit 1). Once the report runs,
    a failure inside it, an infeasible internal sweep point included, exits 2
    with one labeled stderr line. So does a report with failed runs behind
    its rows; its CSV still holds the rows it has.
    """
    if args.report == "cdf" and args.seeds < 2:
        raise ConfigError("report cdf needs at least 2 seeds")
    # the rules the report's sweeps apply: known baselines, at least one seed,
    # strictly increasing power values
    spec = harness.ExperimentSpec(sweep_var="power",
                                  sweep_values=_parse_values(args.sweep_values),
                                  baselines=tuple(args.baselines.split(",")),
                                  n_seeds=args.seeds)
    records = []
    try:
        if args.report == "theorem1":
            harness.theorem1_report(cfg, seeds=args.seeds, out_path=args.out,
                                    base_seed=args.base_seed)
        elif args.report == "cdf":
            _, records = harness.cdf_report(cfg, seeds=args.seeds, baselines=spec.baselines,
                                            out_path=args.out, base_seed=args.base_seed)
        elif args.report == "energy":
            _, records = harness.energy_report(
                cfg, spec.sweep_values, seeds=args.seeds, baselines=spec.baselines,
                out_path=args.out, base_seed=args.base_seed)
        elif args.report == "convergence":
            _, records = harness.convergence_report(cfg, seeds=args.seeds, out_path=args.out,
                                                    base_seed=args.base_seed)
        harness.check_runs(records)
    except harness.ReportRunsFailed as exc:
        print(f"report {args.report}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, BdInfeasibleError) as exc:
        category = "bd-infeasible" if isinstance(exc, BdInfeasibleError) else "invalid"
        print(f"report {args.report} failed: {category} ({exc})", file=sys.stderr)
        return 2
    if args.out is None:
        print(f"report {args.report} computed (use --out to persist)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else harness.DESK_CONFIG
        if args.report:
            return _run_report(args, cfg)
        spec = harness.ExperimentSpec(
            config=cfg,
            sweep_var=args.sweep or "none",
            sweep_values=_parse_values(args.sweep_values),
            baselines=tuple(args.baselines.split(",")),
            n_seeds=args.seeds,
            base_seed=args.base_seed,
            measure_walltime=args.timing)
        records = harness.sweep(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        harness.write_records_csv(args.out, records)
    else:
        sys.stdout.write(harness.records_csv_text(records))
    if args.trace:
        traced = next((r for r in records if r.trace), None)
        if traced is not None:
            harness.write_trace(args.trace, traced.trace)
    return 2 if any(not r.ok for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
