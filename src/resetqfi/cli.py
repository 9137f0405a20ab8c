"""Command line front end: evaluate points, run sweeps, locate crossings.

Exit codes: 0 success, 2 bad flags or validation, 3 solver failure
(degenerate steady state, no convergence, no sign change), 4 I/O failure.
"""

import argparse
import sys

from .dynamics import ModelParams
from .errors import SOLVER_ERRORS
from .sweep import SweepSpec, emit, evaluate_point, find_critical_point, run_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=("closed-form", "nullspace", "integrate"),
                        default="closed-form", help="steady-state route")


def _add_coupling(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--g", type=float, help="coupling strength")
    parser.add_argument("--g-ratio", type=float, help="coupling as a multiple of gamma")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resetqfi",
        description="Steady-state QFI, optimal rotation axis and entanglement "
                    "of a dephasing two-qubit system with particle reset.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a single parameter point")
    ev.add_argument("--r", type=float, required=True, help="reset rate")
    ev.add_argument("--gamma", type=float, required=True, help="dephasing rate")
    ev.add_argument("--g", type=float, required=True, help="coupling strength")
    _add_method(ev)
    ev.add_argument("--format", choices=("csv", "json"), default="csv")

    sw = sub.add_parser("sweep", help="sweep r or gamma over a grid")
    sw.add_argument("--vary", choices=("r", "gamma"), required=True)
    sw.add_argument("--from", dest="start", type=float, required=True, metavar="FROM")
    sw.add_argument("--to", dest="stop", type=float, required=True, metavar="TO")
    sw.add_argument("--steps", type=int, required=True)
    sw.add_argument("--r", type=float, help="fixed reset rate (with --vary gamma)")
    sw.add_argument("--gamma", type=float, help="fixed dephasing rate (with --vary r)")
    _add_coupling(sw)
    _add_method(sw)
    sw.add_argument("--out", help="output file (default stdout)")
    sw.add_argument("--format", choices=("csv", "json"), default="csv")

    cr = sub.add_parser("critical", help="bisect to the axis-flip crossing")
    cr.add_argument("--vary", choices=("r", "gamma"), required=True)
    cr.add_argument("--lo", type=float, required=True)
    cr.add_argument("--hi", type=float, required=True)
    cr.add_argument("--r", type=float, help="fixed reset rate (with --vary gamma)")
    cr.add_argument("--gamma", type=float, help="fixed dephasing rate (with --vary r)")
    _add_coupling(cr)

    return parser


def _spec_from_args(args: argparse.Namespace, start: float, stop: float,
                    steps: int, method: str) -> SweepSpec:
    return SweepSpec(
        vary=args.vary,
        start=start,
        stop=stop,
        steps=steps,
        fixed_r=args.r,
        fixed_gamma=args.gamma,
        g=args.g,
        g_ratio=args.g_ratio,
        method=method,
    )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "eval":
        params = ModelParams(r=args.r, gamma=args.gamma, g=args.g)
        row = evaluate_point(params, method=args.method.replace("-", "_"))
        emit([row], fmt=args.format)
        return EXIT_OK
    if args.command == "sweep":
        spec = _spec_from_args(args, args.start, args.stop, args.steps,
                               args.method.replace("-", "_"))
        emit(run_sweep(spec), fmt=args.format, path=args.out)
        return EXIT_OK
    spec = _spec_from_args(args, args.lo, args.hi, steps=2, method="closed_form")
    emit(find_critical_point(spec))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except SOLVER_ERRORS as err:
        print(f"resetqfi: solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as err:
        print(f"resetqfi: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"resetqfi: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
