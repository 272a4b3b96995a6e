"""``simulate`` command line entry point.

Exit codes: 0 full success, 1 configuration error, 2 partial run failures
(rows flagged in the status column) or a failed report.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness
from .bd import BdInfeasibleError
from .channel import ConfigError, load_config

class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # every flag a report may refuse defaults to None: None means not given
    parser = _Parser(
        prog="simulate",
        description="IRS-assisted mmWave multicast MIMO link-level simulator")
    parser.add_argument("--config", help="scenario JSON (defaults to the desk-scale preset)")
    parser.add_argument("--sweep", choices=[s for s in harness.SWEEP_CHOICES if s != "none"],
                        help="sweep variable")
    parser.add_argument("--sweep-values",
                        help="comma-separated sweep values (defaults per sweep kind)")
    parser.add_argument("--baselines",
                        help="comma-separated subset of proposed,a,b,c,d,e (default: proposed)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="number of Monte Carlo seeds")
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--trace", help="per-iteration phase-optimizer trace CSV of every run")
    parser.add_argument("--report", choices=("theorem1",),
                        help="emit a named report instead of a sweep")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record wall-clock ms per run (breaks byte determinism)")
    return parser


def _parse_values(text: str | None) -> tuple[float, ...]:
    if text is None:
        return ()
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"bad sweep values {text!r}") from None


def _check_writable(path) -> None:
    """Refuse an output path that cannot be written, before any run and
    without creating it."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK) or \
            (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"cannot write {path}")


def _run_report(name: str, spec: harness.ExperimentSpec, out) -> int:
    """Write the named report, which reads only --config, --seeds,
    --base-seed and --out; a failure inside it, or failed runs behind its
    rows (its CSV still holds the rows it has), exits 2 with one stderr line."""
    try:
        harness.theorem1_report(spec.config, spec.n_seeds, out, base_seed=spec.base_seed)
    except harness.ReportRunsFailed as exc:
        print(f"report {name}: {exc}", file=sys.stderr)
        return 2
    except ConfigError:
        raise
    except (ValueError, BdInfeasibleError) as exc:
        print(f"report {name} failed: {harness._failure(exc)}", file=sys.stderr)
        return 2
    if out is None:
        print(f"report {name} computed (use --out to persist)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.report:
            unread = {"--sweep": args.sweep, "--sweep-values": args.sweep_values,
                      "--trace": args.trace, "--timing": args.timing,
                      "--baselines": args.baselines}
            given = [flag for flag, value in unread.items() if value is not None]
            if given:
                raise ConfigError(f"report {args.report} does not read {', '.join(given)}")
        spec = harness.ExperimentSpec(
            config=load_config(args.config) if args.config else harness.DESK_CONFIG,
            sweep_var=args.sweep or "none",
            sweep_values=_parse_values(args.sweep_values),
            baselines=("proposed",) if args.baselines is None else tuple(args.baselines.split(",")),
            n_seeds=args.seeds,
            base_seed=args.base_seed,
            measure_walltime=bool(args.timing))
        for path in (args.out, args.trace):
            if path is not None:
                _check_writable(path)
        if args.out and args.trace and os.path.realpath(args.out) == os.path.realpath(args.trace):
            raise ConfigError(f"--out and --trace name one file, {args.out}")
        if args.report:
            return _run_report(args.report, spec, args.out)
        records = harness.sweep(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    text = harness.records_csv_text(records)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.trace:
        harness.write_trace(args.trace, records)
    return 2 if any(not r.ok for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
