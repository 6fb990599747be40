"""Command-line front end.

Subcommands: info, precondition, sweep-alpha, solve, verify, estimate.
Exit codes: 0 success, 1 usage error, 2 numerical/domain error.
Every subcommand takes --seed, an integer at least 0.
Diagnostics go to stderr; human-readable summaries to stdout; machine
output only to the file named by --out, and the summary of a table
command (sweep-alpha, solve, estimate) to <out>.json beside it.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from . import harness
from .errors import DomainError, NotPositiveDefiniteError
from .linalg import spd_cholesky
from .matio import SparseSymMatrix, read_matrix_market, write_json
from .pcg import SolveConfig
from .rla import ProbeConfig
from .synth import make_dense_spd, make_sparse_network, make_spectrum


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the contract reserves 2 for
    # numerical failures, so usage problems are rerouted to exit 1.  A
    # flag is only ever its full name: an abbreviation is unrecognized.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


# Plain decimal numerals, the ones the Matrix Market reader takes: Python's
# int and float would also read digit-group underscores (1_0 as 10),
# surrounding spaces and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_REAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
                   re.IGNORECASE)


def integer(text: str) -> int:
    """text as an int if it is a plain decimal integer, else ValueError."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """text as a float if it is a plain decimal numeral, inf or nan, else ValueError."""
    if not _REAL.fullmatch(text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return float(text)


# The matrix flags' defaults, and the ones each --synthetic generator reads;
# --matrix reads none of them.
_MATRIX_DEFAULTS = {"n": 200, "cond": 100.0, "lo": 0.5, "hi": 5.0, "clusters": "1:1"}
_SYNTHETIC_READS = {"uniform": ("n", "lo", "hi"), "geometric": ("n", "cond"),
                    "clustered": ("n", "clusters"), "network": ("n",)}


def _add_matrix_flags(p):
    source = p.add_mutually_exclusive_group()
    source.add_argument("--matrix", help="Matrix Market file with the system matrix")
    source.add_argument("--synthetic", choices=list(_SYNTHETIC_READS),
                        help="generate the matrix instead of reading one")
    # no parser defaults: _resolve_matrix tells a flag given from one left out
    p.add_argument("--n", type=integer, help="order of a synthetic matrix (default 200)")
    p.add_argument("--cond", type=real, help="condition number, geometric (default 100)")
    p.add_argument("--lo", type=real, help="lower eigenvalue, uniform (default 0.5)")
    p.add_argument("--hi", type=real, help="upper eigenvalue, uniform (default 5)")
    p.add_argument("--clusters", help="value:multiplicity[,...], clustered (default 1:1)")
    p.add_argument("--seed", type=integer, default=0)


def _add_precond_flags(p):
    p.add_argument("--factor", choices=list(harness.FACTORS), default="ic0")
    p.add_argument("--rank", type=integer, default=None,
                   help="low-rank correction size (default ceil(n/10), at most n - 1)")


def _add_alpha_flag(p):
    p.add_argument("--alpha", type=real, default=None,
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
    p.add_argument("--truncation", choices=list(harness.TRUNCATIONS), default="bld")
    p.add_argument("--out", help="JSON summary path")

    p = sub.add_parser("sweep-alpha", help="tabulate kappa2/divergence/ln K over alpha")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    p.add_argument("--grid", default=None,
                   help="min,max,count,log|linear (default: around the optimum)")
    p.add_argument("--out", help="CSV output path; the summary goes to <out>.json")

    p = sub.add_parser("solve", help="run instrumented PCG and the bound overlay")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    _add_alpha_flag(p)
    p.add_argument("--tol", type=real, default=SolveConfig.tol)
    p.add_argument("--max-iter", type=integer, default=None)
    p.add_argument("--out", help="CSV output path for the per-iteration table; "
                   "the summary goes to <out>.json")

    p = sub.add_parser("verify", help="run the theorem-verification batteries")
    p.add_argument("--trials", type=integer, default=100)
    p.add_argument("--n-min", type=integer, default=10)
    p.add_argument("--n-max", type=integer, default=60)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", help="JSON report path")

    p = sub.add_parser("estimate", help="randomized estimates vs exact quantities")
    _add_matrix_flags(p)
    _add_precond_flags(p)
    p.add_argument("--m", type=integer, default=ProbeConfig.m, help="most Lanczos steps per probe")
    p.add_argument("--nv", type=integer, default=ProbeConfig.n_v, help="number of probe vectors")
    p.add_argument("--out", help="CSV output path; the summary goes to <out>.json")
    return parser


def _require_positive(*flags) -> None:
    """UsageError naming the first (flag, value) pair whose value is below 1."""
    for flag, value in flags:
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")


def _resolve_matrix(args):
    synthetic = args.synthetic
    if not args.matrix and synthetic is None:
        raise UsageError("either --matrix or --synthetic is required")
    for name, default in _MATRIX_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name not in _SYNTHETIC_READS.get(synthetic, ()):
            source = "--matrix" if args.matrix else f"--synthetic {synthetic}"
            raise UsageError(f"--{name} is not read by {source}")
    if args.matrix:
        return read_matrix_market(args.matrix)
    _require_positive(("--n", args.n))
    if synthetic == "network":
        return make_sparse_network(args.n, seed=args.seed)
    if synthetic == "uniform":
        params = (args.lo, args.hi)
    elif synthetic == "geometric":
        params = (args.cond,)
    else:
        try:
            pairs = [item.split(":") for item in args.clusters.split(",")]
            values = [real(v) for v, _ in pairs]
            mults = [integer(m) for _, m in pairs]
        except ValueError as exc:
            raise UsageError(f"--clusters expects value:multiplicity[,...], "
                             f"got {args.clusters!r}") from exc
        if min(mults) < 0:
            raise UsageError(f"--clusters multiplicities must be >= 0, got {args.clusters!r}")
        if sum(mults) != args.n:
            raise UsageError("cluster multiplicities must sum to --n")
        params = (values, mults)
    return SparseSymMatrix.from_dense(make_dense_spd(make_spectrum(args.n, synthetic, params),
                                                     args.seed))


def _parse_grid(text):
    """--grid min,max,count,log|linear as the tuple sweep_alpha takes."""
    if text is None:
        return None
    try:
        amin, amax, count, scale = text.split(",")
        grid = (real(amin), real(amax), integer(count), scale)
        harness.check_grid(grid)
    except (ValueError, DomainError) as exc:
        raise UsageError(f"--grid expects min,max,count,log|linear, got {text!r}: {exc}") from exc
    return grid


def _cmd_info(args) -> int:
    A = _resolve_matrix(args)
    diag = A.diagonal()
    print(f"order            {A.n}")
    print(f"nnz (lower)      {A.nnz_lower}")
    print(f"diagonal > 0     {bool(np.all(diag > 0))}")
    spd = True
    try:
        spd_cholesky(A, "A")
    except NotPositiveDefiniteError:
        spd = False
    print(f"positive definite {spd}")
    return 0


def _cmd_precondition(args) -> int:
    A = _resolve_matrix(args)
    term, rest, P = harness.build_preconditioner(A, args.factor, args.rank, args.alpha,
                                                 args.truncation)
    summary = {
        "n": A.n,
        "factor": args.factor,
        "factor_shift": P.factor.shift,
        "truncation": args.truncation,
        "rank": term.r,
        "alpha": P.alpha,
        "alpha_star": rest.alpha_star,
        "interval": [rest.lo, rest.hi],
        "d_ld_at_alpha_star": rest.divergence(rest.alpha_star),
        "ln_k_at_alpha_star": rest.ln_kaporin(rest.alpha_star),
        "kappa2_in_interval": rest.kappa2(rest.alpha_star),
    }
    for key, val in summary.items():
        print(f"{key:22s} {val}")
    if args.out:
        write_json(summary, args.out)
    return 0


def _cmd_sweep_alpha(args) -> int:
    grid = _parse_grid(args.grid)
    A = _resolve_matrix(args)
    rows, summary = harness.sweep_alpha(A, args.factor, args.rank, grid)
    print(f"alpha* = {summary['alpha_star']:.12g}  interval = "
          f"[{summary['interval'][0]:.12g}, {summary['interval'][1]:.12g}]  "
          f"D_LD(alpha*) = {summary['d_ld_at_alpha_star']:.12g}")
    harness.emit(rows, summary, args.out)
    return 0


def _cmd_solve(args) -> int:
    if args.max_iter is not None:
        _require_positive(("--max-iter", args.max_iter))
    A = _resolve_matrix(args)
    rows, summary = harness.bound_overlay(A, args.factor, args.rank, args.alpha,
                                          args.tol, args.max_iter, args.seed)
    print(f"iterations = {summary['iterations']}  converged = {summary['converged']}  "
          f"kappa2 = {summary['kappa2']:.6g}  ln K = {summary['ln_k']:.6g}  "
          f"D_LD = {summary['d_ld']:.6g}")
    if summary["violations"]:
        print(f"bound violations: {summary['violations']}", file=sys.stderr)
    harness.emit(rows, summary, args.out)
    return 0


def _cmd_verify(args) -> int:
    _require_positive(("--trials", args.trials), ("--n-min", args.n_min))
    if args.n_max < args.n_min:
        raise UsageError(f"--n-max must be at least --n-min ({args.n_min}), got {args.n_max}")
    report = harness.verify_theorems(args.trials, (args.n_min, args.n_max), args.seed)
    for name, res in report["results"].items():
        status = "pass" if res["pass"] else "FAIL"
        print(f"{status}  {name:32s} worst={res['worst']:.3e} tol={res['tol']:.1e}")
    if args.out:
        # JSON has no NaN or inf: such a worst value, always a miss, is null
        results = {name: {**res, "worst": res["worst"] if math.isfinite(res["worst"]) else None}
                   for name, res in report["results"].items()}
        write_json({**report, "results": results}, args.out)
    if report["violations"]:
        print(f"violations: {report['violations']}", file=sys.stderr)
        return 2
    return 0


def _cmd_estimate(args) -> int:
    _require_positive(("--m", args.m), ("--nv", args.nv))
    probes = ProbeConfig(m=args.m, n_v=args.nv, seed=args.seed)
    A = _resolve_matrix(args)
    rows, summary = harness.estimator_study(A, args.factor, args.rank, (probes,))
    for row in rows:
        print(f"m={row['m']} nv={row['n_v']} steps={row['steps']:.4g}  ln K exact={row['ln_k_exact']:.6g} "
              f"hat={row['ln_k_hat']:.6g}  alpha exact={row['alpha_exact']:.6g} "
              f"hat={row['alpha_hat']:.6g}  D exact={row['d_ld_exact']:.6g} "
              f"hat={row['d_ld_hat']:.6g}")
    harness.emit(rows, summary, args.out)
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
    """Parse argv (without the program name) and execute; returns the exit code.

    A command runs with numpy's floating-point warnings off: the library's
    own checks name every non-finite result it meets, and its error is the
    one diagnostic printed.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be at least 0, got {args.seed}")
        with np.errstate(all="ignore"):
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
