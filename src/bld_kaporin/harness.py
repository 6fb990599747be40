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
    """Factor A by FACTORS[factor], form the error core, keep rank
    (default ceil(n/10), at most n - 1) eigenpairs by
    TRUNCATIONS[truncation] from the ends of its spectrum, and assemble
    P_alpha (alpha default alpha_star).  The ends are the r + 1 lowest
    values and the top one, by ARPACK, while they stay within
    precond.ENDS_SHARE; past it (as at the default rank), or when the
    pick takes the top value, the core's full eigendecomposition.

    Returns (term, rest, preconditioner): rest is the RestStats that
    every alpha functional, alpha_star included, is read from, and the
    factor is the preconditioner's.  The core is not returned, so its
    n x n array is freed before the caller solves or estimates.
    """
    if truncation not in TRUNCATIONS:
        raise DomainError(f"unknown truncation {truncation!r}")
    if factor not in FACTORS:
        raise DomainError(f"unknown factor kind {factor!r}")
    core = pc.error_core(A, FACTORS[factor](A))
    r = rank if rank is not None else min(-(-A.n // 10), A.n - 1)
    term = TRUNCATIONS[truncation](core, r)
    rest = core.rest(term)
    P = pc.Preconditioner(core.factor, term, alpha if alpha is not None else rest.alpha_star)
    return term, rest, P


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
    term, rest, P = build_preconditioner(A, factor, rank)
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
        "factor_shift": P.factor.shift,
        "alpha_star": alpha_star,
        "interval": [lo, hi],
        "d_ld_at_alpha_star": rest.divergence(alpha_star),
        "alpha_star_in_interval": bool(lo <= alpha_star <= hi),
    }
    _validate_rows(rows)
    return rows, summary


# ---------------------------------------------------------------------------
# Theorem verification


def _ln_k(spec: np.ndarray) -> float:
    return dv.ln_kaporin_k(spec.sum(), np.log(spec).sum(), spec.size)


class _Trial:
    """What the batteries of one trial share, drawn from SeedSequence([seed, t])
    in a fixed order: the order n, the dense SPD pair A, P, and the seed of a
    sparse network As of order max(12, n), and build_preconditioner's
    (term, rest, P_star) for As with IC(0) at rank max(1, As.n // 5)."""

    def __init__(self, seed: int, t: int, n_range):
        rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
        self.n = n = int(rng.integers(n_range[0], n_range[1] + 1))
        self.A, self.P = random_spd(n, rng), random_spd(n, rng)
        self.As = make_sparse_network(max(12, n), seed=int(rng.integers(0, 2**31)))
        self.d = dv.bregman_logdet(self.A, self.P)
        self.spec = dv.preconditioned_spectrum(self.A, self.P)
        self.ln_k = _ln_k(self.spec)
        self.term, self.rest, self.P_star = build_preconditioner(self.As, "ic0",
                                                                 max(1, self.As.n // 5))
        self.a_star = self.rest.alpha_star
        self.d_star = self.rest.divergence(self.a_star)


def _congruence_invariance(tr: _Trial, rng) -> float:
    P0 = rng.standard_normal((tr.n, tr.n)) + 2.0 * np.eye(tr.n)
    return abs(tr.d - dv.bregman_logdet(P0.T @ tr.A @ P0, P0.T @ tr.P @ P0)) / (1.0 + tr.d)


def _unit_trace_equality(tr: _Trial, rng) -> float:
    _, cP = dv.scale_to_unit_trace(tr.A, tr.P)
    return abs(dv.bregman_logdet(tr.A, cP) - tr.ln_k) / tr.n


def _scale_invariance_ln_k(tr: _Trial, rng) -> float:
    return abs(_ln_k(float(rng.uniform(1e-3, 1e3)) * tr.spec) - tr.ln_k)


def _similarity_invariance(tr: _Trial, rng) -> float:
    """ln K and kappa2 of X^-1 A X, for an SPD X with kappa 100, against A's."""
    X = random_spd(tr.n, rng, kappa=100.0)
    sim = np.real(np.linalg.eigvals(np.linalg.solve(X, tr.A @ X)))
    ref = np.linalg.eigvalsh(tr.A)
    ln_k, k2 = _ln_k(ref), dv.kappa2(ref)
    return max(abs(_ln_k(sim) - ln_k) / (1.0 + ln_k), abs(dv.kappa2(sim) - k2) / k2)


def _kappa_sandwich(tr: _Trial, rng) -> float:
    """B <= kappa2 <= (sqrt k2 + 1/sqrt k2)^2 <= 4 K, the last link in log space."""
    k2 = dv.kappa2(tr.spec)
    bound = math.sqrt(k2) + 1.0 / math.sqrt(k2)
    return max(dv.kaporin_b(tr.spec) - k2, k2 - bound**2,
               2.0 * math.log(bound) - math.log(4.0) - tr.ln_k)


def _c_scaling_identity(tr: _Trial, rng) -> float:
    """D(A, P) - D(A, cP) = n (c - 1 - ln c) at c = trace(P^-1 A) / n."""
    c = tr.spec.sum() / tr.n
    gap = tr.d - dv.bregman_logdet(tr.A, c * tr.P) - tr.n * (c - 1.0 - math.log(c))
    return abs(gap) / (1.0 + abs(tr.d))


def _dual_identity(tr: _Trial, rng) -> float:
    B = random_spd(tr.n, rng)
    d_ab = dv.bregman_logdet(tr.A, B)
    return abs(d_ab - dv.dual_divergence(dv.dual_coords(B), dv.dual_coords(tr.A))) / (1.0 + d_ab)


def _alpha_star_grid_minimum(tr: _Trial, rng) -> float:
    grid = np.geomspace(tr.a_star / 4.0, tr.a_star * 4.0, 101)
    return tr.d_star - min(tr.rest.divergence(a) for a in grid)


def _four_way_identity(tr: _Trial, rng) -> float:
    """D = ln K = -ln det(P_alpha*^-1 A) = -ln det(P_1^-1 A) + (n - r) ln alpha*."""
    P_one = pc.Preconditioner(tr.P_star.factor, tr.term, 1.0)
    four = [tr.d_star, tr.rest.ln_kaporin(tr.a_star), -pc.preconditioned_logdet(tr.As, tr.P_star),
            -pc.preconditioned_logdet(tr.As, P_one) + (tr.As.n - tr.term.r) * math.log(tr.a_star)]
    return (max(four) - min(four)) / max(abs(tr.d_star), 1e-30)


def _kappa2_flat_interval(tr: _Trial, rng) -> float:
    """kappa2 is constant on [lo, hi] and above hi/lo outside it."""
    rest, lo, hi = tr.rest, tr.rest.lo, tr.rest.hi
    kvals = [rest.kappa2(a) for a in np.linspace(lo, hi, 20)]
    flat = (max(kvals) - min(kvals)) / max(kvals)
    outside_ok = rest.kappa2(2.0 * hi) > hi / lo and rest.kappa2(lo / 2.0) > hi / lo
    return flat if outside_ok else max(flat, 1.0)


def _bld_beats_tsvd(tr: _Trial, rng) -> float:
    """At alpha = 1 the gamma pick leaves no more divergence than TSVD."""
    core = pc.error_core(tr.As, tr.P_star.factor)
    return max(core.rest(pc.bld_truncate(core, r)).divergence(1.0)
               - core.rest(pc.tsvd_truncate(core, r)).divergence(1.0)
               for r in sorted({0, 1, tr.term.r, tr.As.n // 3}))


def _dense_vs_spectral_divergence(tr: _Trial, rng) -> float:
    dense_d = dv.bregman_logdet(tr.As.to_dense(), tr.P_star.dense())
    return abs(dense_d - tr.d_star) / max(tr.d_star, 1e-12)


# (name, tol, fn): fn(trial, rng) returns the trial's violation, a miss when
# above tol.  Row k draws only from rng, its own SeedSequence([seed, t, k]),
# so a row appended here changes no other row's numbers.
BATTERIES = (
    ("nonnegativity", 1e-10, lambda tr, rng: -tr.d),
    ("identity_of_indiscernibles", 1e-9, lambda tr, rng: abs(dv.bregman_logdet(tr.A, tr.A))),
    ("congruence_invariance", 1e-8, _congruence_invariance),
    ("divergence_dominates_ln_k", 1e-10, lambda tr, rng: tr.ln_k - tr.d),
    ("unit_trace_equality", 1e-10, _unit_trace_equality),
    ("scale_invariance_ln_k", 1e-10, _scale_invariance_ln_k),
    ("similarity_invariance", 1e-8, _similarity_invariance),
    ("kappa_sandwich", 1e-9, _kappa_sandwich),
    ("k_at_least_one", 1e-12, lambda tr, rng: -tr.ln_k),
    ("c_scaling_identity", 1e-9, _c_scaling_identity),
    ("dual_identity", 1e-9, _dual_identity),
    ("alpha_star_grid_minimum", 1e-12, _alpha_star_grid_minimum),
    ("four_way_identity", 1e-9, _four_way_identity),
    ("kappa2_flat_interval", 1e-12, _kappa2_flat_interval),
    ("bld_beats_tsvd", 1e-12, _bld_beats_tsvd),
    ("alpha_star_inside_interval", 0.0,
     lambda tr, rng: max(tr.rest.lo - tr.a_star, tr.a_star - tr.rest.hi)),
    ("dense_vs_spectral_divergence", 1e-8, _dense_vs_spectral_divergence),
)


def verify_theorems(trials: int, n_range=(10, 60), seed: int = 0):
    """Run every battery of BATTERIES on trials random instances.

    Trial t draws the _Trial its batteries share from SeedSequence([seed, t]),
    and the batteries run in table order.  Failures are data: the report
    carries per-battery pass flags and the worst violation magnitudes, a NaN
    violation a miss; nothing raises on a miss.
    """
    if not (isinstance(trials, Integral) and trials >= 1):
        raise DomainError(f"trials >= 1 required, an integer, got {trials!r}")
    if not (len(n_range) == 2 and all(isinstance(k, Integral) for k in n_range)
            and 1 <= n_range[0] <= n_range[1]):
        raise DomainError(f"order range needs two integers 1 <= low <= high, got {tuple(n_range)}")
    worst = {name: 0.0 for name, _, _ in BATTERIES}
    for t in range(trials):
        trial = _Trial(seed, t, n_range)
        for k, (name, _, fn) in enumerate(BATTERIES):
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, k]))
            worst[name] = float(np.maximum(worst[name], fn(trial, rng)))
    results = {
        name: {"pass": bool(worst[name] <= tol), "worst": worst[name], "tol": tol}
        for name, tol, _ in BATTERIES
    }
    return {
        "experiment": "verify_theorems",
        "spec_echo": {"trials": trials, "n_range": list(n_range), "seed": seed},
        "results": results,
        "violations": [name for name, res in results.items() if not res["pass"]],
    }


# ---------------------------------------------------------------------------
# Bound overlays


def _from_one(bound):
    """bound(m, k) for k >= 1 and None at k = 0, where only the kappa2 bound
    says anything."""
    return lambda m, k: bound(m, k) if k >= 1 else None


def _bound_3lnd(m, k):
    """(3D/k)^(k/2) on its window, k even with 3D <= k < n; None off it."""
    if k % 2 == 0 and 3.0 * m["d_ld"] <= k < m["n"]:
        return pg.bound_3lnd(m["d_ld"], k, m["n"])
    return None


# (name, history it bounds, bound(m, k) or None where the theorem says
# nothing), m the order n and the measures kappa2, ln_k and d_ld of P_alpha.
# The kappa2 and 3 ln D bounds cap the A-norm error curve, the Kaporin and
# divergence bounds the P^-1-norm residual curve.  bound_overlay writes a
# bound_<name> and a viol_<name> column per row, in table order.
BOUNDS = (
    ("kappa", "rel_err_a", lambda m, k: pg.bound_kappa(m["kappa2"], k)),
    ("kaporin", "rel_res_pinv", _from_one(lambda m, k: pg.bound_kaporin(m["ln_k"], k))),
    ("divergence", "rel_res_pinv", _from_one(lambda m, k: pg.bound_divergence(m["d_ld"], k))),
    ("3lnd", "rel_err_a", _from_one(_bound_3lnd)),
)

# a history point violates its bound b when above b * _SLACK + _FLOOR: a
# multiplicative theorem slack plus an absolute floor, so an exactly
# converged iterate (bound 0, residual at roundoff) is not flagged
_SLACK = 1.0 + 1e-6
_FLOOR = 1e-12


def bound_overlay(A: SparseSymMatrix, factor: str = "ic0", rank: int | None = None,
                  alpha: float | None = None, tol: float = pg.SolveConfig.tol,
                  max_iter: int | None = None, seed: int = 0):
    """Solve one instrumented system and tabulate every bound curve of BOUNDS.

    factor, rank and alpha build P_alpha as build_preconditioner does.
    The right-hand side is A x for a standard normal x drawn from seed,
    and PCG runs to tol (max_iter default 10n) tracking the A-norm error
    against that known x.

    Returns (rows, summary); rows carry per-iteration residual/error
    ratios, then a bound value and a violation flag per row of BOUNDS; the
    summary holds the iteration estimates against the observed counts.
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

    history = {"rel_res_2": report.rel_res2(), "rel_res_pinv": report.rel_res_pinv(),
               "rel_err_a": report.rel_err_a()}
    measures = {"n": n, "kappa2": kap2, "ln_k": ln_k, "d_ld": d_ld}
    rows = []
    for k in range(report.iterations + 1):
        row = {"k": k, **{hist: float(values[k]) for hist, values in history.items()}}
        flags = {}
        for name, hist, bound in BOUNDS:
            b = row[f"bound_{name}"] = bound(measures, k)
            flags[f"viol_{name}"] = b is not None and bool(history[hist][k] > b * _SLACK + _FLOOR)
        rows.append({**row, **flags})

    relp = history["rel_res_pinv"]
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
            f"viol_{name}@k={row['k']}" for row in rows for name, _, _ in BOUNDS
            if row[f"viol_{name}"]
        ],
        "estimate_overruns": estimate_overruns,
    }
    # None and inf are both a bound that says nothing
    bound_columns = [f"bound_{name}" for name, _, _ in BOUNDS]
    _validate_rows(rows, allow_none=bound_columns, allow_inf=bound_columns)
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
    term, rest, P_star = build_preconditioner(A, factor, rank)
    alpha_star = rest.alpha_star
    b = A.matvec(np.random.default_rng(0).standard_normal(A.n))
    reference = None
    rows = []
    for alpha in (alpha_star * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)):
        report = pg.pcg_solve(A, b, pc.Preconditioner(P_star.factor, term, alpha))
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
    mean Lanczos steps per probe (below m where the depth rule or a
    breakdown ended runs early), the number of probes whose Lanczos run
    broke down, and the number that lost semi-orthogonality and reran
    with full reorthogonalization.  The exact values are read from the
    RestStats of the correction.
    """
    n = A.n
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
                "steps": float(np.mean(est.steps)),
                "breakdowns": est.breakdowns,
                "reruns": est.reruns,
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
