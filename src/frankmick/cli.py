"""Command-line interface.

Subcommands:
    frank eval | tau | theta | checkerboard | sample
    mick  solve | compare | sweep
    verify liouville | identity

Usage errors exit 2; numeric failures exit 1 with a JSON diagnostic line
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import copula_core as cc
from . import concordance as conc
from .errors import FrankMickError
from .harness import convergence_sweep, compare_to_frank, sweep_to_csv, sweep_to_svg
from .mick_solver import SolverConfig, SolverReport, solve_mick


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="frankmick")
    groups = top.add_subparsers(dest="group", required=True)

    frank = groups.add_parser("frank", help="Frank copula evaluations")
    fsub = frank.add_subparsers(dest="command", required=True)

    p = fsub.add_parser("eval", help="evaluate cdf or density at a point")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--cdf", action="store_true")
    mode.add_argument("--pdf", action="store_true")

    p = fsub.add_parser("tau", help="Kendall's tau for a given theta")
    p.add_argument("--theta", type=float, required=True)

    p = fsub.add_parser("theta", help="invert tau to theta")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = fsub.add_parser("checkerboard", help="write the n x n checkerboard")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = fsub.add_parser("sample", help="draw pairs by conditional inversion")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    mick = groups.add_parser("mick", help="minimum-information copula solver")
    msub = mick.add_subparsers(dest="command", required=True)

    p = msub.add_parser("solve", help="solve for a target tau")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol-tau", type=float, default=SolverConfig.tol_tau)
    p.add_argument("--tol-fix", type=float, default=SolverConfig.tol_fix)
    p.add_argument("--out", required=True)

    p = msub.add_parser("compare", help="sup-norm gap of a report vs Frank")
    p.add_argument("--report", required=True)
    p.add_argument("--theta", type=float, required=True)

    p = msub.add_parser("sweep", help="gap vs grid size sweep")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--grids", default="4,8,16,32,64")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)

    verify = groups.add_parser("verify", help="numerical identity checks")
    vsub = verify.add_subparsers(dest="command", required=True)

    p = vsub.add_parser("liouville", help="local-dependence PDE residual order")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)

    p = vsub.add_parser("identity", help="cdf vs -(1/theta) log F identity")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--n", type=int, default=50)

    return top


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _run(args) -> int:
    if args.group == "frank":
        param = cc.FrankParameter(args.theta) if hasattr(args, "theta") else None
        if args.command == "eval":
            fn = cc.frank_density if args.pdf else cc.frank_cdf
            print(f"{fn(param, args.u, args.v):.12g}")
        elif args.command == "tau":
            print(f"{cc.tau_from_theta(param):.3f}")
        elif args.command == "theta":
            print(f"{cc.theta_from_tau(args.tau, args.tol).theta:.12g}")
        elif args.command == "checkerboard":
            board = cc.frank_checkerboard(param, args.n)
            tau = cc.tau_from_theta(param)
            if args.out.endswith(".csv"):
                _write(args.out, board.to_csv())
            else:
                _write(args.out, board.to_json(tau=tau, theta=args.theta))
            print(args.out)
        elif args.command == "sample":
            pairs = cc.frank_sample(param, args.count, args.seed)
            rows = "".join(f"{u!r},{v!r}\n" for u, v in pairs.tolist())
            _write(args.out, "u,v\n" + rows)
            print(args.out)
    elif args.group == "mick":
        if args.command == "solve":
            cfg = SolverConfig(
                n=args.n,
                target_tau=args.tau,
                tol_tau=args.tol_tau,
                tol_fix=args.tol_fix,
            )
            report = solve_mick(cfg)
            _write(args.out, report.to_json(cfg))
            print(
                f"converged={report.converged} tau={report.achieved_tau:.6f} "
                f"implied_theta={report.implied_theta:.6f}"
            )
        elif args.command == "compare":
            with open(args.report) as fh:
                report = SolverReport.from_json(fh.read())
            gap = compare_to_frank(report, cc.FrankParameter(args.theta))
            print(f"{gap:.12g}")
        elif args.command == "sweep":
            grids = [int(tok) for tok in args.grids.split(",")]
            result = convergence_sweep(args.tau, grids, SolverConfig(max(grids), 0.5))
            _write(args.out, sweep_to_csv(result))
            if args.svg:
                _write(args.svg, sweep_to_svg(result))
            for n, msg in result.failures.items():
                print(f"n={n} failed: {msg}", file=sys.stderr)
            print(args.out)
            if result.failures:
                return 1
    elif args.group == "verify":
        param = cc.FrankParameter(args.theta)
        if args.command == "liouville":
            def density(u, v):
                return cc.frank_density(param, u, v)

            coarse = conc.liouville_residual(density, 2 * args.theta, args.n)
            fine = conc.liouville_residual(density, 2 * args.theta, 2 * args.n)
            s1 = float(np.max(np.abs(coarse.values)))
            s2 = float(np.max(np.abs(fine.values)))
            print(
                f"sup_residual n={args.n}: {s1:.6e}  n={2 * args.n}: {s2:.6e}  "
                f"ratio: {s1 / s2:.3f}"
            )
        elif args.command == "identity":
            gap = conc.frank_F_identity(param, args.n)
            print(f"{gap:.3e}")
            if gap > 1e-12:
                return 1
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _run(args)
    except (FrankMickError, ValueError, OSError) as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
