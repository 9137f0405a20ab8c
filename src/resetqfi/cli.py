"""Command line front end: evaluate points, run sweeps, locate crossings.

Exit codes: 0 success, 2 bad flags or validation (a sweep too large for
memory included), 3 solver failure (degenerate steady state, no
convergence, no sign change), 4 I/O failure.
"""

import argparse
import sys

from .errors import SOLVER_ERRORS
from .point import (
    STEADY_STATE_METHODS,
    ModelParams,
    SweepSpec,
    closed_form_row,
    emit,
    find_critical_point,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=[m.replace("_", "-") for m in STEADY_STATE_METHODS],
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
    ev.set_defaults(out=None)

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
    cr.add_argument("--lo", dest="start", type=float, required=True, metavar="LO")
    cr.add_argument("--hi", dest="stop", type=float, required=True, metavar="HI")
    cr.add_argument("--r", type=float, help="fixed reset rate (with --vary gamma)")
    cr.add_argument("--gamma", type=float, help="fixed dephasing rate (with --vary r)")
    _add_coupling(cr)
    # find_critical_point takes a SweepSpec, which needs steps >= 2; the
    # bisection never reads them (ROADMAP aim 2)
    cr.set_defaults(steps=2, method="closed-form", format="csv", out=None)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    method = args.method.replace("-", "_")
    # a closed-form eval row and a closed-form critical search run on Python
    # floats and load no numpy.  The solver routes build states, and sweep
    # rows are built as whole numpy columns, which a float row per point
    # would lose at 10^5 points; both load numpy
    if args.command == "eval":
        params = ModelParams(r=args.r, gamma=args.gamma, g=args.g)
        if method == "closed_form":
            row = closed_form_row(params)
        else:
            from .sweep import evaluate_point

            row = evaluate_point(params, method=method)
        payload = [row]
    else:
        spec = SweepSpec(vary=args.vary, start=args.start, stop=args.stop, steps=args.steps,
                         fixed_r=args.r, fixed_gamma=args.gamma, g=args.g,
                         g_ratio=args.g_ratio, method=method)
        if args.command == "sweep":
            from .sweep import run_sweep

            payload = run_sweep(spec)
        else:
            payload = find_critical_point(spec)
    emit(payload, fmt=args.format, path=args.out)
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
    except MemoryError as err:
        print(f"resetqfi: out of memory: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"resetqfi: cannot write output: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
