"""Command-line interface: one computation per invocation, JSON or text output."""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import BudgetExceeded, QZetaError
from .braided import DEFAULT_BUDGET, hilbert_dims, hilbert_dims_quadratic, transposition_class
from .serialize import dumps, output_document
from .sphere import sphere_zeta_coeff
from .verify import SUITES, run_suite
from .weyl import zeta_cn_closed, zeta_cn_series
from .zeta_engine import (
    _cm_by_recursion,
    cm_from_zeta,
    cm_series_cs,
    fit_gh,
    zeta_finite_set,
    zeta_vm_closed,
)


def _add_format(parser):
    parser.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qzeta",
                                     description="exact braided zeta functions and Hilbert series")
    sub = parser.add_subparsers(dest="command", required=True)

    zeta = sub.add_parser("zeta", help="braided zeta functions")
    zeta_sub = zeta.add_subparsers(dest="zeta_kind", required=True)
    cn = zeta_sub.add_parser("cn", help="zeta of n braided points")
    cn.add_argument("--n", type=int, required=True)
    cn.add_argument("--order", type=int, default=None, help="series order; omit for the closed form")
    cn.add_argument("--closed", action="store_true", help="print the closed product form")
    _add_format(cn)
    vm = zeta_sub.add_parser("vm", help="zeta of the m+1 dimensional irreducible")
    vm.add_argument("--m", type=int, required=True)
    vm.add_argument("--order", type=int, default=None)
    vm.add_argument("--closed", action="store_true")
    _add_format(vm)

    cm = sub.add_parser("cm", help="multiplicity generating function c_m(t, q)")
    cm.add_argument("--m", type=int, required=True)
    cm.add_argument("--order", type=int, required=True)
    cm.add_argument("--route", choices=("cs", "extract", "recursion"), default="cs")
    _add_format(cm)

    fit = sub.add_parser("fit", help="fit the (g_m, h_m) functional-equation pair")
    fit.add_argument("--m", type=int, required=True)
    fit.add_argument("--max-h-degree", type=int, default=40, metavar="N",
                     help="largest t-degree of h; the fit fails once its recurrence "
                          "for h is longer (default 40)")
    _add_format(fit)

    sphere = sub.add_parser("sphere", help="regularized quantum-sphere zeta coefficient")
    sphere.add_argument("--coeff", type=int, required=True, metavar="K", help="t-degree, 0..3")
    _add_format(sphere)

    nichols = sub.add_parser("nichols", help="Hilbert dimensions of the 2-cycle class braided set")
    nichols.add_argument("--sym-group", type=int, required=True, metavar="K",
                         help="symmetric group S_K providing the class of 2-cycles")
    nichols.add_argument("--max-degree", type=int, required=True)
    nichols.add_argument("--quadratic", action="store_true",
                         help="dimensions of the quadratic variant instead of the full algebra")
    _add_format(nichols)

    finite = sub.add_parser("finite", help="classical finite-set zeta")
    finite.add_argument("--n", type=int, required=True)
    finite.add_argument("--regular", action="store_true")
    _add_format(finite)

    verify = sub.add_parser("verify", help="run the acceptance suite")
    verify.add_argument("--suite", choices=SUITES, default="all")
    _add_format(verify)

    return parser


def _emit(value, args, command: str, parameters: dict) -> None:
    if args.format == "json":
        print(dumps(output_document(value, command, parameters, __version__)))
    else:
        print(value)


def _cmd_zeta(args) -> int:
    if args.zeta_kind == "cn":
        params = {"n": args.n, "order": args.order, "closed": args.closed}
        if args.closed or args.order is None:
            _emit(zeta_cn_closed(args.n), args, "zeta cn", params)
        else:
            _emit(zeta_cn_series(args.n, args.order), args, "zeta cn", params)
    else:
        params = {"m": args.m, "order": args.order, "closed": args.closed}
        if args.closed or args.order is None:
            _emit(zeta_vm_closed(args.m), args, "zeta vm", params)
        else:
            _emit(zeta_vm_closed(args.m).expand(args.order), args, "zeta vm", params)
    return 0


def _cmd_cm(args) -> int:
    if args.route == "cs":
        series = cm_series_cs(args.m, args.order)
    elif args.route == "extract":
        series = cm_from_zeta(args.m, zeta_vm_closed(args.m).expand(args.order))
    else:
        series = _cm_by_recursion(args.m, args.order)
    params = {"m": args.m, "order": args.order, "route": args.route}
    if args.format == "json":
        _emit(series, args, "cm", params)
    else:
        print(series.to_tseries())
    return 0


def _cmd_fit(args) -> int:
    gh = fit_gh(args.m, max_h_degree=args.max_h_degree)
    if args.format == "json":
        _emit(gh, args, "fit", {"m": args.m, "max_h_degree": args.max_h_degree})
    else:
        print(f"g_{args.m} = {gh.g}")
        print(f"h_{args.m} = {gh.h}")
    return 0


def _cmd_sphere(args) -> int:
    _emit(sphere_zeta_coeff(args.coeff), args, "sphere", {"coeff": args.coeff})
    return 0


def _cmd_nichols(args) -> int:
    n = args.sym_group * (args.sym_group - 1) // 2
    if args.sym_group >= 2 and n * n > DEFAULT_BUDGET:  # building X_K alone checks n^3 triples
        raise BudgetExceeded(f"n^2 = {n}^2 = {n * n} exceeds budget {DEFAULT_BUDGET}")
    x = transposition_class(args.sym_group)
    fn = hilbert_dims_quadratic if args.quadratic else hilbert_dims
    dims = fn(x, args.max_degree)
    params = {"sym_group": args.sym_group, "max_degree": args.max_degree, "quadratic": args.quadratic}
    if args.format == "json":
        _emit(dims, args, "nichols", params)
    else:
        print(",".join(str(d) for d in dims)
              + ("" if dims.complete else f"  (partial: reached degree {dims.achieved_degree})"))
    if not dims.complete:
        print(f"error: budget exceeded: reached degree {dims.achieved_degree} of {args.max_degree}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_finite(args) -> int:
    _emit(zeta_finite_set(args.n, regular=args.regular), args, "finite",
          {"n": args.n, "regular": args.regular})
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    all_passed = all(r.passed for r in results)
    if args.format == "json":
        doc = {
            "kind": "verdict",
            "payload": {
                "suite": args.suite,
                "passed": all_passed,
                "criteria": [
                    {
                        "number": r.number,
                        "name": r.name,
                        "suite": r.suite,
                        "passed": r.passed,
                        "seconds": round(r.seconds, 3),
                        "detail": r.detail,
                    }
                    for r in results
                ],
            },
            "metadata": {"command": "verify", "parameters": {"suite": args.suite}, "version": __version__},
        }
        print(dumps(doc))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            peak = "" if r.peak_rss_mib is None else f", peak RSS {'≤ ' if r.peak_rss_bound else ''}{r.peak_rss_mib} MiB"
            line = f"[{status}] {r.number:2d}. {r.name} ({r.seconds:.2f}s{peak})"
            if r.detail:
                line += f" -- {r.detail}"
            print(line)
        print(f"{'all passed' if all_passed else 'FAILURES PRESENT'} "
              f"({sum(r.passed for r in results)}/{len(results)})")
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "zeta": _cmd_zeta,
        "cm": _cmd_cm,
        "fit": _cmd_fit,
        "sphere": _cmd_sphere,
        "nichols": _cmd_nichols,
        "finite": _cmd_finite,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (QZetaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (``| head``): what is still buffered goes to
        # os.devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
