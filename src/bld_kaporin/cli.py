"""Command-line front end.

Subcommands: info, precondition, sweep-alpha, solve, verify, estimate.
Exit codes: 0 success, 1 usage error, 2 numerical/domain error.
Diagnostics go to stderr; human-readable summaries to stdout; machine
output only to files named by --out / --out-json.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import divergence as dv
from . import harness, pcg, precond, rla
from .errors import DomainError
from .linalg import cholesky
from .matio import read_matrix_market, write_json
from .synth import SyntheticSpec, make_sparse_network


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # numerical failures, so usage problems are rerouted to exit 1
    def error(self, message):
        raise UsageError(message)


def _add_matrix_flags(p):
    p.add_argument("--matrix", help="Matrix Market file with the system matrix")
    p.add_argument("--synthetic", choices=["uniform", "geometric", "clustered", "network"],
                   help="generate the matrix instead of reading one")
    p.add_argument("--n", type=int, default=200, help="order of a synthetic matrix")
    p.add_argument("--cond", type=float, default=100.0,
                   help="condition number for --synthetic geometric")
    p.add_argument("--lo", type=float, default=0.5, help="lower eigenvalue for uniform spectra")
    p.add_argument("--hi", type=float, default=5.0, help="upper eigenvalue for uniform spectra")
    p.add_argument("--clusters", default="1:1",
                   help="value:multiplicity[,value:multiplicity...] for clustered spectra")
    p.add_argument("--seed", type=int, default=0)


def _add_precond_flags(p):
    p.add_argument("--factor", choices=["ic0", "exact", "identity"], default="ic0")
    p.add_argument("--rank", type=int, default=None, help="low-rank correction size (default n/10)")


def _add_alpha_flag(p):
    p.add_argument("--alpha", type=float, default=None,
                   help="complement scaling (default: the optimal value)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bld-kaporin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="matrix facts: order, nnz, diagonal, definiteness")
    _add_matrix_flags(p)

    p = sub.add_parser("precondition", help="build the low-rank corrected preconditioner")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    _add_alpha_flag(p)
    p.add_argument("--truncation", choices=["bld", "tsvd"], default="bld")
    p.add_argument("--out", help="JSON summary path")

    p = sub.add_parser("sweep-alpha", help="tabulate kappa2/divergence/ln K over alpha")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    p.add_argument("--grid", default=None,
                   help="min,max,count,log|linear (default: around the optimum)")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--out-json", help="summary JSON path (default: <out>.json)")

    p = sub.add_parser("solve", help="run instrumented PCG and the bound overlay")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    _add_alpha_flag(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--out", help="CSV output path for the per-iteration table")
    p.add_argument("--out-json", help="summary JSON path")

    p = sub.add_parser("verify", help="run the theorem-verification batteries")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("estimate", help="randomized estimates vs exact quantities")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    p.add_argument("--m", type=int, default=30, help="Lanczos steps per probe")
    p.add_argument("--nv", type=int, default=10, help="number of probe vectors")
    p.add_argument("--dist", choices=["rademacher", "gaussian"], default="rademacher")
    p.add_argument("--out", help="CSV output path")

    for sp in sub.choices.values():
        sp.add_argument("--spec", help="JSON file overriding the flags", default=None)
    return parser


def _spec_flags(path) -> list[str]:
    """The --spec JSON object as flags: {"max_iter": 50} -> --max-iter 50."""
    with open(path) as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict):
        raise UsageError(f"--spec {path} must hold a JSON object")
    return [tok for key, val in blob.items() for tok in (f"--{key.replace('_', '-')}", str(val))]


def _resolve_matrix(args):
    if getattr(args, "matrix", None):
        return read_matrix_market(args.matrix)
    synthetic = getattr(args, "synthetic", None)
    if synthetic is None:
        raise UsageError("either --matrix or --synthetic is required")
    if args.n < 1:
        raise UsageError(f"--n must be at least 1, got {args.n}")
    if synthetic == "network":
        return make_sparse_network(args.n, seed=args.seed)
    if synthetic == "uniform":
        spec = SyntheticSpec(args.n, "uniform", (args.lo, args.hi), basis_seed=args.seed)
    elif synthetic == "geometric":
        spec = SyntheticSpec(args.n, "geometric", (args.cond,), basis_seed=args.seed)
    else:
        try:
            pairs = [item.split(":") for item in args.clusters.split(",")]
            values = [float(v) for v, _ in pairs]
            mults = [int(m) for _, m in pairs]
        except ValueError as exc:
            raise UsageError(f"--clusters expects value:multiplicity[,...], "
                             f"got {args.clusters!r}") from exc
        if min(mults) < 0:
            raise UsageError(f"--clusters multiplicities must be >= 0, got {args.clusters!r}")
        if sum(mults) != args.n:
            raise UsageError("cluster multiplicities must sum to --n")
        spec = SyntheticSpec(args.n, "clustered", (values, mults), basis_seed=args.seed)
    return harness.load_matrix(spec)


def _experiment_spec(args, A) -> harness.ExperimentSpec:
    grid = None
    if getattr(args, "grid", None):
        try:
            amin, amax, count, scale = args.grid.split(",")
            grid = (float(amin), float(amax), int(count), scale)
        except ValueError as exc:
            raise UsageError(f"--grid expects min,max,count,log|linear, got {args.grid!r}") from exc
    return harness.ExperimentSpec(
        matrix=A,
        factor=args.factor,
        rank=args.rank,
        alpha=getattr(args, "alpha", None),
        alpha_grid=grid,
        pcg=pcg.SolveConfig(
            tol=getattr(args, "tol", 1e-10),
            max_iter=getattr(args, "max_iter", None),
        ),
        probes=rla.ProbeConfig(
            m=getattr(args, "m", 30),
            n_v=getattr(args, "nv", 10),
            seed=args.seed,
            distribution=getattr(args, "dist", "rademacher"),
        ),
        seed=args.seed,
    )


def _cmd_info(args) -> int:
    A = _resolve_matrix(args)
    diag = A.diagonal()
    print(f"order            {A.n}")
    print(f"nnz (lower)      {A.nnz_lower}")
    print(f"diagonal > 0     {bool(np.all(diag > 0))}")
    spd = True
    try:
        cholesky(A)
    except Exception:
        spd = False
    print(f"positive definite {spd}")
    return 0


def _cmd_precondition(args) -> int:
    A = _resolve_matrix(args)
    core, term, P, alpha_star = harness.build_preconditioner(
        A, args.factor, args.rank, args.alpha, truncation=args.truncation
    )
    lo, hi = precond.flat_interval(core, term)
    summary = {
        "n": A.n,
        "factor": args.factor,
        "factor_shift": core.factor.shift,
        "truncation": args.truncation,
        "rank": term.r,
        "alpha": P.alpha,
        "alpha_star": alpha_star,
        "interval": [lo, hi],
        "d_ld_at_alpha_star": precond.divergence_alpha(core, term, alpha_star),
        "ln_k_at_alpha_star": precond.ln_kaporin_alpha(core, term, alpha_star),
        "kappa2_in_interval": precond.kappa2_alpha(core, term, alpha_star),
    }
    for key, val in summary.items():
        print(f"{key:22s} {val}")
    if args.out:
        write_json(summary, args.out)
    return 0


def _cmd_sweep_alpha(args) -> int:
    A = _resolve_matrix(args)
    spec = _experiment_spec(args, A)
    rows, summary = harness.sweep_alpha(spec)
    print(f"alpha* = {summary['alpha_star']:.12g}  interval = "
          f"[{summary['interval'][0]:.12g}, {summary['interval'][1]:.12g}]  "
          f"D_LD(alpha*) = {summary['d_ld_at_alpha_star']:.12g}")
    out_json = args.out_json or (args.out + ".json" if args.out else None)
    harness.emit(rows, summary, args.out, out_json)
    return 0


def _cmd_solve(args) -> int:
    A = _resolve_matrix(args)
    spec = _experiment_spec(args, A)
    rows, summary = harness.bound_overlay(spec)
    print(f"iterations = {summary['iterations']}  converged = {summary['converged']}  "
          f"kappa2 = {summary['kappa2']:.6g}  ln K = {summary['ln_k']:.6g}  "
          f"D_LD = {summary['d_ld']:.6g}")
    if summary["violations"]:
        print(f"bound violations: {summary['violations']}", file=sys.stderr)
    out_json = args.out_json or (args.out + ".json" if args.out else None)
    harness.emit(rows, summary, args.out, out_json)
    return 0


def _cmd_verify(args) -> int:
    report = harness.verify_theorems(args.trials, (args.n_min, args.n_max), args.seed)
    for name, res in report["results"].items():
        status = "pass" if res["pass"] else "FAIL"
        print(f"{status}  {name:32s} worst={res['worst']:.3e} tol={res['tol']:.1e}")
    if args.out:
        write_json(report, args.out)
    if report["violations"]:
        print(f"violations: {report['violations']}", file=sys.stderr)
        return 2
    return 0


def _cmd_estimate(args) -> int:
    A = _resolve_matrix(args)
    spec = _experiment_spec(args, A)
    rows, summary = harness.estimator_study(spec)
    for row in rows:
        print(f"m={row['m']} nv={row['n_v']}  ln K exact={row['ln_k_exact']:.6g} "
              f"hat={row['ln_k_hat']:.6g}  alpha exact={row['alpha_exact']:.6g} "
              f"hat={row['alpha_hat']:.6g}  D exact={row['d_ld_exact']:.6g} "
              f"hat={row['d_ld_hat']:.6g}")
    if args.out:
        harness.emit(rows, summary, args.out, None)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "precondition": _cmd_precondition,
    "sweep-alpha": _cmd_sweep_alpha,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "estimate": _cmd_estimate,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.spec:
            # the spec's flags follow the command line's, so they override
            # it, and the parser checks their names, types and choices
            args = parser.parse_args([*argv, *_spec_flags(args.spec)])
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
