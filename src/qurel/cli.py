"""Command-line interface.

Subcommands:

* ``sweep``               evaluate a grid (preset or explicit ranges), write CSV
* ``point``               evaluate one model point, print key=value lines
* ``match-gamma``         find the temperature reaching a target mixedness
* ``check-single-valued`` matched-mixedness spread across couplings
* ``verify``              run the full invariant suite

Exit codes: 0 success, 1 usage error (including an argument outside the
model's domain), 2 numerical/invariant failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ArgumentError, QurelError, UsageError
from .model import ModelParams, closed_form_mixedness
from .relations import xz_control_setup
from .sweep import (
    CSV_HEADER,
    SweepGrid,
    check_single_valued,
    evaluate_point,
    figure_preset,
    format_value,
    match_mixedness,
    sweep_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so we control exit codes."""

    #: options taking a 'start:stop:steps' range, whose negative start
    #: argparse reads as an option unless it follows an '='
    ranges = ()

    def error(self, message):
        for name in self.ranges:
            if message == f"argument --{name}: expected one argument":
                message += (f" (a range with a negative start needs the = form, "
                            f"--{name}=START:STOP:STEPS)")
        raise UsageError(message)


def _parse_range(text: str, name: str) -> tuple[float, float, int]:
    """'start:stop:steps' or a bare value (meaning a single-point range)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return (v, v, 1)
        if len(parts) == 3:
            return (float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError:
        pass
    raise UsageError(f"--{name} expects 'start:stop:steps' or a single value, got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qurel", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid and write CSV")
    p_sweep.ranges = ("d", "j", "t")
    p_sweep.add_argument("--preset", help="figure preset name (fig1a, fig2, ...)")
    for axis in ("d", "j", "t"):
        p_sweep.add_argument(f"--{axis}", help=f"{axis} range start:stop:steps or one value; "
                             f"a negative start needs the = form, --{axis}=START:STOP:STEPS")
    p_sweep.add_argument("--theta", type=float, help="phase of explicit ranges, default 0.5")
    p_sweep.add_argument("--out", required=True, help="CSV destination path")

    p_point = sub.add_parser("point", help="evaluate a single model point")
    p_point.add_argument("--d", type=float, required=True)
    p_point.add_argument("--j", type=float, required=True)
    p_point.add_argument("--t", type=float, required=True)
    p_point.add_argument("--theta", type=float, default=0.5)

    p_match = sub.add_parser("match-gamma", help="temperature reaching a target mixedness")
    p_match.add_argument("--d", type=float, required=True)
    p_match.add_argument("--j", type=float, required=True)
    p_match.add_argument("--target", type=float, required=True)

    p_sv = sub.add_parser("check-single-valued",
                          help="matched-mixedness spread across same-sign couplings")
    p_sv.add_argument("--d", type=float, required=True)
    p_sv.add_argument("--j", required=True, help="comma-separated couplings, one sign")
    p_sv.add_argument("--targets", type=int, default=20)

    sub.add_parser("verify", help="run the full invariant suite")
    return parser


def _cmd_sweep(args) -> int:
    if args.preset:
        if args.d or args.j or args.t:
            raise UsageError("--preset cannot be combined with explicit ranges")
        if args.theta is not None:
            raise UsageError("--preset fixes theta at 0.5; --theta needs explicit ranges")
        grid, setup = figure_preset(args.preset)
    else:
        if not (args.d and args.j and args.t):
            raise UsageError("either --preset or all of --d/--j/--t are required")
        grid = SweepGrid(d_range=_parse_range(args.d, "d"),
                         j_range=_parse_range(args.j, "j"),
                         t_range=_parse_range(args.t, "t"))
        setup = xz_control_setup(theta=0.5 if args.theta is None else args.theta)
    try:
        problems = sweep_csv(grid, setup, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    for msg in problems:
        print(f"warning: {msg}", file=sys.stderr)
    return EXIT_NUMERICAL if problems else EXIT_OK


def _cmd_point(args) -> int:
    record = evaluate_point(ModelParams(args.d, args.j, args.t), xz_control_setup(theta=args.theta))
    for col in CSV_HEADER:
        print(f"{col}={format_value(getattr(record, col))}")
    return EXIT_OK


def _cmd_match_gamma(args) -> int:
    t = match_mixedness(args.d, args.j, args.target)
    gamma = closed_form_mixedness(ModelParams(args.d, args.j, t))
    print(f"t={format_value(t)}")
    print(f"gamma={format_value(gamma)}")
    return EXIT_OK


def _cmd_check_single_valued(args) -> int:
    try:
        samples = [float(x) for x in args.j.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"--j expects comma-separated numbers, got {args.j!r}")
    result = check_single_valued(args.d, samples, xz_control_setup(), n_targets=args.targets)
    print(f"w_spread={format_value(result.w_spread)}")
    print(f"u_spread={format_value(result.u_spread)}")
    print(f"skipped={result.skipped}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "point":
            return _cmd_point(args)
        if args.command == "match-gamma":
            return _cmd_match_gamma(args)
        if args.command == "check-single-valued":
            return _cmd_check_single_valued(args)
        if args.command == "verify":
            from . import verify  # the suite is large; only this command needs it
            return verify.run_all()
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ArgumentError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QurelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
