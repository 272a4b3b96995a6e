"""``simulate`` command line entry point.

Exit codes: 0 full success, 1 configuration error or a failed write, 2 partial
run failures (rows flagged in the status column) or a failed report.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from . import harness
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
    if not path:
        raise ConfigError("cannot write ''")
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(parent, os.W_OK | os.X_OK) or \
            (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise ConfigError(f"cannot write {path}")


def _write(path, text: str) -> None:
    """Write ``text`` as is to ``path``, or to stdout if ``path`` is None; an OS
    error on the way (a full disk, an I/O error) refuses it with the reason."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:  # the exit's flush would fail on the bytes left buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None


def _say(line: str) -> None:
    """Print one diagnostic line to stderr; with fd 2 closed (sys.stderr None)
    or unwritable, nothing more can be said, and the exit code alone reports."""
    if sys.stderr is not None:
        try:
            print(line, file=sys.stderr, flush=True)
        except OSError:   # the exit's flush would fail on the bytes left buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.report is not None:
            unread = {"--sweep": args.sweep, "--sweep-values": args.sweep_values,
                      "--trace": args.trace, "--timing": args.timing,
                      "--baselines": args.baselines}
            given = [flag for flag, value in unread.items() if value is not None]
            if given:
                raise ConfigError(f"report {args.report} does not read {', '.join(given)}")
        spec = harness.ExperimentSpec(
            config=load_config(args.config) if args.config is not None else harness.DESK_CONFIG,
            sweep_var="none" if args.sweep is None else args.sweep,
            sweep_values=_parse_values(args.sweep_values),
            baselines=("proposed",) if args.baselines is None else tuple(args.baselines.split(",")),
            n_seeds=args.seeds,
            base_seed=args.base_seed,
            measure_walltime=bool(args.timing))
        for path in (args.out, args.trace):
            if path is not None:
                _check_writable(path)
        if args.out is None and sys.stdout is None:   # started with fd 1 closed
            raise ConfigError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
        if None not in (args.out, args.trace) and \
                os.path.realpath(args.out) == os.path.realpath(args.trace):
            raise ConfigError(f"--out and --trace name one file, {args.out}")
        if args.report is not None:
            # the report reads only --config, --seeds, --base-seed and --out; a
            # failure inside it, or failed runs behind its rows (written
            # first), exits 2 with one stderr line
            failure = None
            try:
                rows = harness.theorem1_report(spec.config, spec.n_seeds,
                                               base_seed=spec.base_seed)
            except harness.ReportRunsFailed as exc:
                rows, failure = exc.rows, f"report {args.report}: {exc}"
            except ConfigError:
                raise
            except ValueError as exc:
                _say(f"report {args.report} failed: {harness._failure(exc)}")
                return 2
            _write(args.out, harness.theorem1_csv_text(rows))
            if failure is not None:
                _say(failure)
            return 0 if failure is None else 2
        records = harness.sweep(spec)
        _write(args.out, harness.records_csv_text(records))
        if args.trace is not None:
            _write(args.trace, harness.trace_csv_text(records))
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return 1
    return 2 if any(not r.ok for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
