"""Command-line front end.

Two subcommands::

    coarsebell sweep <jobfile> --csv out.csv [--svg out.svg]
    coarsebell point <system> [--param name=value ...]

Exit codes: 0 on success, 2 for validation problems (bad job file, one that
is not UTF-8, unknown system or parameter, NaN or infinite number, malformed
grid, ``--starts`` below 1 or above ``optimize.MAX_STARTS``, a repeated
``--param``), 3 when a numerical routine failed: it did not
converge, or an objective value came out NaN or infinite.

Here ``--starts`` is only parsed as an ``int``: ``run_sweep`` and
``optimized_point`` check it by ``optimize``'s own rule before any point,
and ``sweep`` and the model records check every other value.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .optimize import NonFiniteObjectiveError
from .sweep import JobError, SYSTEMS, emit_csv, emit_svg, optimized_point, parse_job, run_sweep
from .sweep import _parse_number

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsebell",
        description="Optimized Bell/Leggett-Garg violations under coarsened measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep described by a job file")
    sweep.add_argument("jobfile", help="path to a job file (flat key = value format)")
    sweep.add_argument("--csv", required=True, help="output CSV path")
    sweep.add_argument("--svg", default=None, help="optional output SVG path")

    point = sub.add_parser("point", help="optimize a single configuration")
    point.add_argument("system", help=f"one of: {', '.join(sorted(SYSTEMS))}")
    point.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="system parameter (repeatable), e.g. --param n=2 --param V=0.25",
    )
    for command in (sweep, point):
        command.add_argument("--starts", type=int, default=None, help="multistart count")
    return parser


def _parse_param_args(pairs: Sequence[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        name = name.strip()
        if not sep or not name:
            raise JobError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in params:
            raise JobError(f"--param {name} given more than once")
        params[name] = _parse_number(value.strip(), f"--param {name}", None)
    return params


def main(argv: Sequence[str] | None = None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _run_sweep_command(args)
        return _run_point_command(args)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteObjectiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _run_sweep_command(args: argparse.Namespace) -> int:
    try:
        # utf-8-sig: a byte-order mark that some editors write at the start is not part of the job
        with open(args.jobfile, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise JobError(f"{args.jobfile}: not UTF-8 text ({reason})") from None
    spec = parse_job(text)
    result = run_sweep(spec, starts=args.starts)
    emit_csv(result, args.csv)
    if args.svg is not None:
        emit_svg(result, args.svg, title=spec.system)
    if not all(row.converged for row in result.rows):
        bad = sum(1 for row in result.rows if not row.converged)
        print(f"error: {bad} sweep point(s) did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _run_point_command(args: argparse.Namespace) -> int:
    params = _parse_param_args(args.param)
    result = optimized_point(args.system, params, starts=args.starts)
    angles = ", ".join(f"{a:.12g}" for a in result.argmax)
    print(f"value = {result.value:.12g}")
    print(f"argmax = ({angles})")
    if not result.converged:
        print("error: optimizer did not converge", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
