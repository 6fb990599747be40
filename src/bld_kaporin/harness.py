"""Reproducible experiments: alpha sweeps, theorem-verification batteries,
bound-vs-residual overlays, error-order and estimator-accuracy studies.

Every operation is a pure function of its arguments (seeds included)
returning plain rows/summary structures; CSV/JSON emission goes through
matio so identical arguments produce byte-identical files.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from . import divergence as dv
from . import pcg as pg
from . import precond as pc
from . import rla
from .errors import DomainError
from .linalg import cholesky, ic0, identity_factor
from .matio import SparseSymMatrix, write_json, write_table
from .synth import make_sparse_network, random_spd

__all__ = [
    "sweep_alpha",
    "verify_theorems",
    "bound_overlay",
    "alpha_sensitivity",
    "error_order_study",
    "estimator_study",
    "build_preconditioner",
    "check_grid",
    "emit",
]

EPS_LEVELS = (1e-2, 1e-6, 1e-10)

FACTORS = {"ic0": ic0, "exact": cholesky, "identity": lambda A: identity_factor(A.n)}
TRUNCATIONS = {"bld": pc.bld_truncate, "tsvd": pc.tsvd_truncate}


def build_preconditioner(A: SparseSymMatrix, factor: str, rank: int | None,
                         alpha: float | None = None, truncation: str = "bld"):
    """Factor A by FACTORS[factor], eigendecompose the error core, keep
    rank (default ceil(n/10), at most n - 1) eigenpairs by
    TRUNCATIONS[truncation], and assemble P_alpha (alpha default alpha_star).

    Returns (term, rest, preconditioner): rest is the RestStats that
    every alpha functional, alpha_star included, is read from, and the
    factor is the preconditioner's.  The core is not returned, so its
    n x n reflectors are freed before the caller solves or estimates.
    """
    core, term, rest = _select(A, factor, rank, truncation)
    P = pc.Preconditioner(core.factor, term, alpha if alpha is not None else rest.alpha_star)
    return term, rest, P


def _select(A: SparseSymMatrix, factor: str, rank: int | None, truncation: str = "bld"):
    """The error core of FACTORS[factor], its rank-r term and the RestStats
    of what the term leaves: the part of build_preconditioner before alpha."""
    if truncation not in TRUNCATIONS:
        raise DomainError(f"unknown truncation {truncation!r}")
    if factor not in FACTORS:
        raise DomainError(f"unknown factor kind {factor!r}")
    core = pc.error_core(A, FACTORS[factor](A))
    r = rank if rank is not None else min(-(-A.n // 10), A.n - 1)
    term = TRUNCATIONS[truncation](core, r)
    return core, term, core.rest(term)


def check_grid(grid) -> None:
    """DomainError unless grid is (min, max, count, "log"|"linear") with
    0 < min < max < inf and an integer count >= 2."""
    amin, amax, count, scale = grid
    if not (isinstance(count, Integral) and count >= 2):
        raise DomainError(f"alpha grid needs at least 2 points, an integer count, got {count!r}")
    if not 0 < amin < amax < math.inf:
        raise DomainError("alpha grid needs 0 < min < max < inf")
    if scale not in ("log", "linear"):
        raise DomainError(f"unknown grid scale {scale!r}")


def _alpha_grid(grid, alpha_star, lo, hi) -> np.ndarray:
    if grid is None:
        points = np.geomspace(alpha_star / 10.0, alpha_star * 10.0, 101)
    else:
        amin, amax, count, scale = grid
        points = np.geomspace(amin, amax, count) if scale == "log" else np.linspace(amin, amax, count)
    # the exact minimizer and the flat-interval endpoints are always sampled;
    # grid points within roundoff of them are dropped (the center of the
    # default grid reproduces alpha_star up to an ulp or two)
    inserted = np.array([alpha_star, lo, hi])
    near = np.min(np.abs(points[:, None] - inserted[None, :]) / inserted[None, :], axis=1)
    return np.unique(np.concatenate((points[near > 1e-12], inserted)))


def sweep_alpha(A: SparseSymMatrix, factor: str = "ic0", rank: int | None = None, grid=None):
    """Tabulate kappa2, the divergence, and ln K along an alpha grid.

    factor is a key of FACTORS; rank defaults to ceil(n/10), at most
    n - 1; grid is (min, max, count, "log"|"linear"), checked by
    check_grid, and None samples 101 log-spaced points from alpha_star/10
    to 10 alpha_star.  alpha_star and the flat-interval endpoints are
    always added.

    Returns (rows, summary): rows have columns alpha/kappa2/d_ld/ln_k,
    the summary records alpha_star, the flat interval, the minimum
    divergence, and whether alpha_star sits inside the interval.
    """
    if grid is not None:
        check_grid(grid)
    core, term, rest = _select(A, factor, rank)
    alpha_star, lo, hi = rest.alpha_star, rest.lo, rest.hi
    rows = [
        {
            "alpha": float(a),
            "kappa2": rest.kappa2(float(a)),
            "d_ld": rest.divergence(float(a)),
            "ln_k": rest.ln_kaporin(float(a)),
        }
        for a in _alpha_grid(grid, alpha_star, lo, hi)
    ]
    summary = {
        "experiment": "sweep_alpha",
        "n": A.n,
        "rank": term.r,
        "factor": factor,
        "factor_shift": core.factor.shift,
        "alpha_star": alpha_star,
        "interval": [lo, hi],
        "d_ld_at_alpha_star": rest.divergence(alpha_star),
        "alpha_star_in_interval": bool(lo <= alpha_star <= hi),
    }
    _validate_rows(rows)
    return rows, summary


# ---------------------------------------------------------------------------
# Theorem verification


def verify_theorems(trials: int, n_range=(10, 60), seed: int = 0):
    """Run every divergence/preconditioner invariant battery.

    Trial t draws its order and matrices from SeedSequence([seed, t]) and
    the trials run one after another.  Failures are data: the report
    carries per-battery pass flags and the worst violation magnitudes;
    nothing raises on a miss.
    """
    if not (isinstance(trials, Integral) and trials >= 1):
        raise DomainError(f"trials >= 1 required, an integer, got {trials!r}")
    if not (all(isinstance(k, Integral) for k in n_range) and 1 <= n_range[0] <= n_range[1]):
        raise DomainError(f"order range needs integers 1 <= low <= high, got {tuple(n_range)}")
    tols = {
        "nonnegativity": 1e-10,
        "identity_of_indiscernibles": 1e-9,
        "congruence_invariance": 1e-8,
        "divergence_dominates_ln_k": 1e-10,
        "unit_trace_equality": 1e-10,
        "scale_invariance_ln_k": 1e-10,
        "similarity_invariance": 1e-8,
        "kappa_sandwich": 1e-9,
        "k_at_least_one": 1e-12,
        "c_scaling_identity": 1e-9,
        "dual_identity": 1e-9,
        "alpha_star_grid_minimum": 1e-12,
        "four_way_identity": 1e-9,
        "kappa2_flat_interval": 1e-12,
        "bld_beats_tsvd": 1e-12,
        "alpha_star_inside_interval": 0.0,
        "dense_vs_spectral_divergence": 1e-8,
    }

    def one_trial(t: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        worst = {k: 0.0 for k in tols}
        A, P = random_spd(n, rng), random_spd(n, rng)

        d = dv.bregman_logdet(A, P)
        worst["nonnegativity"] = max(worst["nonnegativity"], -d)
        worst["identity_of_indiscernibles"] = abs(dv.bregman_logdet(A, A))

        P0 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        d_cong = dv.bregman_logdet(P0.T @ A @ P0, P0.T @ P @ P0)
        worst["congruence_invariance"] = abs(d - d_cong) / (1.0 + d)

        spec_m = dv.preconditioned_spectrum(A, P)
        ln_k = dv.ln_kaporin_k(spec_m.sum(), np.log(spec_m).sum(), n)
        worst["divergence_dominates_ln_k"] = max(0.0, ln_k - d)

        _, cP = pc.scale_to_unit_trace(A, P)
        worst["unit_trace_equality"] = abs(dv.bregman_logdet(A, cP) - ln_k) / n

        cs = float(rng.uniform(1e-3, 1e3))
        ln_k_scaled = dv.ln_kaporin_k(cs * spec_m.sum(), np.log(cs * spec_m).sum(), n)
        worst["scale_invariance_ln_k"] = abs(ln_k_scaled - ln_k)

        X = random_spd(n, rng, kappa=100.0)
        sim_vals = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(X, A @ X))))[::-1]
        ref_vals = np.sort(np.linalg.eigvalsh(A))[::-1]
        scale = max(np.abs(ref_vals).max(), 1.0)
        worst["similarity_invariance"] = np.abs(sim_vals - ref_vals).max() / scale

        b_val = dv.kaporin_b(spec_m)
        k2 = dv.kappa2(spec_m)
        chain = max(
            b_val - k2,
            k2 - (math.sqrt(k2) + 1.0 / math.sqrt(k2)) ** 2,
            2.0 * math.log(math.sqrt(k2) + 1.0 / math.sqrt(k2)) - math.log(4.0) - ln_k,
        )
        worst["kappa_sandwich"] = max(0.0, chain)
        worst["k_at_least_one"] = max(0.0, -ln_k)

        c_id = spec_m.sum() / n
        gap = (dv.bregman_logdet(A, P) - dv.bregman_logdet(A, c_id * P)
               - n * (c_id - 1.0 - math.log(c_id)))
        worst["c_scaling_identity"] = abs(gap) / (1.0 + abs(d))

        B = random_spd(n, rng)
        d_ab = dv.bregman_logdet(A, B)
        d_dual = dv.dual_divergence(dv.dual_coords(B), dv.dual_coords(A))
        worst["dual_identity"] = abs(d_ab - d_dual) / (1.0 + d_ab)

        # factored batteries on a sparse instance
        ns = max(12, n)
        As = make_sparse_network(ns, seed=int(rng.integers(0, 2**31)))
        core, term, rest = _select(As, "ic0", max(1, ns // 5))
        a_star, lo, hi = rest.alpha_star, rest.lo, rest.hi
        d_star = rest.divergence(a_star)
        grid = np.geomspace(a_star / 4.0, a_star * 4.0, 101)
        dvals = np.array([rest.divergence(a) for a in grid])
        worst["alpha_star_grid_minimum"] = max(0.0, d_star - dvals.min())

        ln_k_star = rest.ln_kaporin(a_star)
        P_star = pc.Preconditioner(core.factor, term, a_star)
        neg_logdet = -pc.preconditioned_logdet(As, P_star)
        P_one = pc.Preconditioner(core.factor, term, 1.0)
        via_alpha = -pc.preconditioned_logdet(As, P_one) + (ns - term.r) * math.log(a_star)
        four = [d_star, ln_k_star, neg_logdet, via_alpha]
        ref = max(abs(d_star), 1e-30)
        worst["four_way_identity"] = (max(four) - min(four)) / ref

        kvals = [rest.kappa2(a) for a in np.linspace(lo, hi, 20)]
        worst["kappa2_flat_interval"] = (max(kvals) - min(kvals)) / max(kvals)
        outside_ok = rest.kappa2(2.0 * hi) > hi / lo and rest.kappa2(lo / 2.0) > hi / lo
        if not outside_ok:
            worst["kappa2_flat_interval"] = max(worst["kappa2_flat_interval"], 1.0)

        for r_try in sorted({0, 1, term.r, ns // 3}):
            bld = pc.bld_truncate(core, r_try)
            tsvd = pc.tsvd_truncate(core, r_try)
            worst["bld_beats_tsvd"] = max(
                worst["bld_beats_tsvd"],
                core.rest(bld).divergence(1.0) - core.rest(tsvd).divergence(1.0),
            )

        worst["alpha_star_inside_interval"] = max(0.0, lo - a_star, a_star - hi)

        dense_d = dv.bregman_logdet(As.to_dense(), P_star.dense())
        worst["dense_vs_spectral_divergence"] = abs(dense_d - d_star) / max(d_star, 1e-12)
        return worst

    results = [one_trial(t) for t in range(trials)]

    worst_all = {k: max(r[k] for r in results) for k in tols}
    batteries = {
        k: {"pass": bool(worst_all[k] <= tols[k]), "worst": worst_all[k], "tol": tols[k]}
        for k in tols
    }
    return {
        "experiment": "verify_theorems",
        "spec_echo": {"trials": trials, "n_range": list(n_range), "seed": seed},
        "results": batteries,
        "violations": [k for k, v in batteries.items() if not v["pass"]],
    }


# ---------------------------------------------------------------------------
# Bound overlays


def bound_overlay(A: SparseSymMatrix, factor: str = "ic0", rank: int | None = None,
                  alpha: float | None = None, tol: float = pg.SolveConfig.tol,
                  max_iter: int | None = None, seed: int = 0):
    """Solve one instrumented system and tabulate every bound curve.

    factor, rank and alpha build P_alpha as build_preconditioner does.
    The right-hand side is A x for a standard normal x drawn from seed,
    and PCG runs to tol (max_iter default 10n) tracking the A-norm error
    against that known x.

    Returns (rows, summary); rows carry per-iteration residual/error
    ratios, the four bound values, and violation flags; the summary holds
    the iteration estimates against the observed counts.
    """
    n = A.n
    rng = np.random.default_rng(seed)
    x_true = rng.standard_normal(n)
    cfg = pg.SolveConfig(tol=tol, max_iter=max_iter, known_solution=x_true)
    term, rest, P = build_preconditioner(A, factor, rank, alpha)
    alpha = P.alpha

    kap2 = rest.kappa2(alpha)
    ln_k = rest.ln_kaporin(alpha)
    d_ld = rest.divergence(alpha)
    trace_m, _ = rest.trace_logdet(alpha)
    trace_normalized = abs(trace_m - n) <= 1e-8 * n

    report = pg.pcg_solve(A, A.matvec(x_true), P, cfg)

    rel2 = report.rel_res2()
    relp = report.rel_res_pinv()
    rele = report.rel_err_a()
    # multiplicative theorem slack plus an absolute floor so an exactly
    # converged iterate (bound 0, residual at roundoff) is not flagged
    slack = 1.0 + 1e-6
    floor = 1e-12
    rows = []
    for k in range(report.iterations + 1):
        bk = pg.bound_kappa(kap2, k)
        bkap = pg.bound_kaporin(ln_k, k) if k >= 1 else None
        bdiv = pg.bound_divergence(d_ld, k) if k >= 1 else None
        valid_3 = k >= 2 and k % 2 == 0 and 3.0 * d_ld <= k < n
        b3 = pg.bound_3lnd(d_ld, k, n) if valid_3 else None
        rows.append(
            {
                "k": k,
                "rel_res_2": float(rel2[k]),
                "rel_res_pinv": float(relp[k]),
                "rel_err_a": float(rele[k]),
                "bound_kappa": bk,
                "bound_kaporin": bkap,
                "bound_divergence": bdiv,
                "bound_3lnd": b3,
                # kappa and 3lnD bound the A-norm error curve, the Kaporin
                # and divergence bounds the P^-1-norm residual curve
                "viol_kappa": bool(rele[k] > bk * slack + floor),
                "viol_kaporin": bool(k >= 1 and relp[k] > bkap * slack + floor),
                "viol_divergence": bool(k >= 1 and relp[k] > bdiv * slack + floor),
                "viol_3lnd": bool(valid_3 and rele[k] > b3 * slack + floor),
            }
        )

    estimates = []
    estimate_overruns = []
    for eps in EPS_LEVELS:
        observed = next((k for k in range(len(relp)) if relp[k] <= eps), None)
        entry = {
            "eps": eps,
            "observed_iterations": observed,
            "i_kappa": pg.iter_estimate_kappa(kap2, eps),
            "i_kaporin_sigma2": pg.iter_estimate_kaporin(ln_k, eps, 2.0),
        }
        if ln_k > 0.0:
            sig = pg.recommended_sigma(ln_k, eps)
            entry["sigma_recommended"] = sig
            entry["i_kaporin_recommended"] = pg.iter_estimate_kaporin(ln_k, eps, sig)
        if trace_normalized:
            entry["i_divergence"] = pg.iter_estimate_divergence(d_ld, eps)
        estimates.append(entry)
        # overruns of the a-priori budgets are logged, never asserted: the
        # estimates hold in exact arithmetic and extreme conditioning can
        # push finite-precision runs past them
        budget = entry.get("i_kaporin_recommended", entry["i_kaporin_sigma2"])
        if observed is not None and observed > budget:
            estimate_overruns.append(f"iter_estimate@eps={eps:g}")

    summary = {
        "experiment": "bound_overlay",
        "n": n,
        "factor": factor,
        "rank": term.r,
        "alpha": alpha,
        "kappa2": kap2,
        "ln_k": ln_k,
        "d_ld": d_ld,
        "trace_normalized": trace_normalized,
        "iterations": report.iterations,
        "converged": report.converged,
        "estimates": estimates,
        "violations": [
            f"{name}@k={row['k']}"
            for row in rows
            for name in ("viol_kappa", "viol_kaporin", "viol_divergence", "viol_3lnd")
            if row[name]
        ],
        "estimate_overruns": estimate_overruns,
    }
    _validate_rows(
        rows,
        allow_none=("bound_3lnd", "bound_kaporin", "bound_divergence"),
        allow_inf=("bound_kaporin", "bound_divergence"),
    )
    return rows, summary


def alpha_sensitivity(A: SparseSymMatrix, factor: str = "ic0", rank: int | None = None):
    """Observe how the complement scaling changes actual PCG behavior.

    factor and rank select the correction as build_preconditioner does;
    the alphas are alpha_star times 1/4, 1/2, 1, 2 and 4.  Every alpha
    solves the same system, b = A x for a standard normal x drawn from
    seed 0, under the default SolveConfig.

    In exact arithmetic the preconditioned iterates are expected to be
    insensitive to the scaling; this experiment reports what finite
    precision actually does: per-alpha iteration counts and the distance
    of each final iterate from the first alpha's.
    Nothing here is asserted, the table is observational.
    """
    core, term, rest = _select(A, factor, rank)
    alpha_star = rest.alpha_star
    b = A.matvec(np.random.default_rng(0).standard_normal(A.n))
    reference = None
    rows = []
    for alpha in (alpha_star * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)):
        P = pc.Preconditioner(core.factor, term, alpha)
        report = pg.pcg_solve(A, b, P)
        if reference is None:
            reference = report.x
        rows.append(
            {
                "alpha": float(alpha),
                "iterations": report.iterations,
                "converged": report.converged,
                "rel_final_residual": float(report.res2[-1] / report.res2[0]),
                "iterate_gap_vs_first": float(
                    np.linalg.norm(report.x - reference) / max(np.linalg.norm(reference), 1e-300)
                ),
            }
        )
    summary = {
        "experiment": "alpha_sensitivity",
        "n": A.n,
        "rank": term.r,
        "alpha_star": alpha_star,
    }
    _validate_rows(rows)
    return rows, summary


# ---------------------------------------------------------------------------
# Error-order study


def error_order_study(n: int, base_x_seed: int, eps_list):
    """Fit the log-log slope of |ln K - D| against the error magnitude.

    Builds A = I + eps*X for a fixed unit-spectral-norm symmetric X with
    non-vanishing trace; the gap should shrink quadratically.
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=np.float64)
    if not np.all((eps_arr > 0.0) & (eps_arr < 1.0)):
        raise DomainError("eps values must lie in (0, 1)")
    X = _unit_norm_symmetric(n, base_x_seed)
    rows = []
    for eps in eps_arr:
        A = np.eye(n) + eps * X
        rep = dv.condition_report(A)
        err = abs(rep.ln_kaporin_k - rep.d_ld)
        rows.append({"eps": float(eps), "err": err})
    logs = np.log([r["eps"] for r in rows]), np.log([max(r["err"], 1e-300) for r in rows])
    slope = float(np.polyfit(logs[0], logs[1], 1)[0])
    summary = {
        "experiment": "error_order_study",
        "n": n,
        "base_x_seed": base_x_seed,
        "trace_x": float(np.trace(X)),
        "slope": slope,
    }
    _validate_rows(rows)
    return rows, summary


def _unit_norm_symmetric(n: int, seed: int) -> np.ndarray:
    # bump the seed until the trace is well away from zero; the quadratic
    # gap is proportional to trace(X)^2 and vanishes identically with it
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        X = rng.standard_normal((n, n))
        X = 0.5 * (X + X.T)
        X /= np.abs(np.linalg.eigvalsh(X)).max()
        if abs(np.trace(X)) >= 0.25:
            return X
    raise RuntimeError("could not draw a symmetric matrix with usable trace")


# ---------------------------------------------------------------------------
# Estimator accuracy study


def estimator_study(A: SparseSymMatrix, factor: str = "ic0", rank: int | None = None,
                    probes=(rla.ProbeConfig(),)):
    """Compare SLQ-derived surrogates with their exact counterparts.

    factor and rank select the correction as build_preconditioner does.
    probes is an iterable of ProbeConfig, one row each, carrying the
    config's m and n_v, the estimates of a one-config call, the standard
    errors of the trace and log-det estimates (empty for n_v = 1), the
    number of probes whose Lanczos run broke down, and the number of
    Lanczos steps that reorthogonalized.  Requires n <= 2000, for the
    dense reference.
    """
    n = A.n
    if n > 2000:
        raise DomainError("exact reference limited to n <= 2000")
    term, rest, P_one = build_preconditioner(A, factor, rank, 1.0)
    r, alpha_star = term.r, rest.alpha_star
    trace_exact, logdet_exact = rest.trace_logdet(1.0)
    ln_k_exact = rest.ln_kaporin(1.0)
    d_exact = rest.divergence(alpha_star)

    probes = tuple(probes)
    op = pc.sym_preconditioned_operator(A, P_one)
    rows = []
    for cfg in probes:
        est = rla.slq_trace_logdet(op, n, cfg)
        ln_k_hat = rla.approx_ln_kaporin(est.trace_est, est.logdet_est, n)
        alpha_hat = rla.approx_alpha(est.trace_est, n, r)
        d_hat = rla.approx_divergence(est.logdet_est, alpha_hat, n, r)
        rows.append(
            {
                "m": cfg.m,
                "n_v": cfg.n_v,
                "trace_exact": trace_exact,
                "trace_hat": est.trace_est,
                "logdet_exact": logdet_exact,
                "logdet_hat": est.logdet_est,
                "ln_k_exact": ln_k_exact,
                "ln_k_hat": ln_k_hat,
                "alpha_exact": alpha_star,
                "alpha_hat": alpha_hat,
                "d_ld_exact": d_exact,
                "d_ld_hat": d_hat,
                "rel_err_ln_k": _rel_err(ln_k_hat, ln_k_exact),
                "rel_err_alpha": _rel_err(alpha_hat, alpha_star),
                "rel_err_d_ld": abs(d_hat - d_exact) / max(1.0, d_exact),
                "sign_ln_k_gap": int(np.sign(ln_k_hat - ln_k_exact)),
                "trace_stderr": est.trace_stderr,
                "logdet_stderr": est.logdet_stderr,
                "breakdowns": est.breakdowns,
                "reorthogonalized": est.reorthogonalized,
            }
        )
    summary = {
        "experiment": "estimator_study",
        "n": n,
        "rank": r,
        "factor": factor,
        "seeds": [cfg.seed for cfg in probes],
    }
    _validate_rows(rows, allow_none=("trace_stderr", "logdet_stderr"))
    return rows, summary


def _rel_err(approx: float, exact: float) -> float:
    return abs(approx - exact) / max(abs(exact), 1e-300)


# ---------------------------------------------------------------------------
# Emission helpers


def _validate_rows(rows, allow_none=(), allow_inf=()):
    """DomainError on an empty cell outside allow_none, a NaN, or an
    infinity outside allow_inf; the row's dict literal fixes its columns."""
    for row in rows:
        for key, val in row.items():
            if val is None:
                if key not in allow_none:
                    raise DomainError(f"unexpected empty cell in column {key}")
                continue
            if isinstance(val, bool):
                continue
            if math.isnan(val):
                raise DomainError(f"NaN in column {key}")
            if math.isinf(val) and key not in allow_inf:
                raise DomainError(f"non-finite value in column {key}")


def emit(rows, summary, out):
    """Write rows as CSV to out and the summary as JSON to <out>.json;
    write nothing when out is None."""
    if out is not None:
        write_table(rows, out)
        write_json(summary, f"{out}.json")
