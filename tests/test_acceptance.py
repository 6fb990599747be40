"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure).  Tolerances are pinned here, not configurable.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

import bld_kaporin as bk
from bld_kaporin import precond as pc
from bld_kaporin.cli import run as cli_run
from bld_kaporin.divergence import (
    bregman_logdet,
    dual_coords,
    dual_divergence,
    kaporin_b,
    kappa2,
    ln_kaporin_k,
    preconditioned_spectrum,
)
from bld_kaporin.harness import error_order_study
from bld_kaporin.linalg import LowerTriFactor, ic0, identity_factor
from bld_kaporin.pcg import (
    SolveConfig,
    bound_3lnd,
    bound_divergence,
    iter_estimate_kaporin,
    pcg_solve,
    recommended_sigma,
)
from bld_kaporin.synth import (
    haar_orthogonal,
    make_dense_spd,
    make_sparse_network,
    make_spectrum,
    random_spd,
)


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_equality_theorem():
    rng = np.random.default_rng(101)
    worst_eq = 0.0
    worst_ineq = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 101))
        A, P = random_spd(n, rng), random_spd(n, rng)
        spec = preconditioned_spectrum(A, P)
        ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
        # unscaled: divergence dominates
        worst_ineq = max(worst_ineq, ln_k - bregman_logdet(A, P))
        # rescaled to trace(P^-1 A) = n: equality
        c = spec.sum() / n
        worst_eq = max(worst_eq, abs(bregman_logdet(A, c * P) - ln_k) / n)
    ok = worst_eq <= 1e-9 and worst_ineq <= 1e-10
    _report(1, "divergence equals ln K under unit trace, dominates otherwise", ok,
            f"worst equality gap {worst_eq:.2e}/n, worst inequality excess {worst_ineq:.2e}")


def test_criterion_02_alpha_star_optimality_and_four_way_identity():
    argmin_ok = True
    worst_four = 0.0
    for i in range(50):
        n = 30 + (i * 7) % 61
        A = make_sparse_network(n, seed=1000 + i)
        dense_logdet_a = bk.divergence.logdet_spd(A.to_dense())
        core = pc.error_core(A, ic0(A))
        for r in (0, n // 10, n // 4):
            term = pc.bld_truncate(core, r)
            a_star = pc.optimal_alpha(core, term)
            grid = np.unique(np.concatenate(
                (np.geomspace(a_star / 10, a_star * 10, 101), [a_star])
            ))
            d_vals = np.array([pc.divergence_alpha(core, term, a) for a in grid])
            k_vals = np.array([pc.ln_kaporin_alpha(core, term, a) for a in grid])
            star_idx = int(np.where(grid == a_star)[0][0])
            # alpha* attains the grid minimum of both curves (for r = 0 the
            # ln K curve is constant in alpha, a flat minimum it still attains)
            argmin_ok &= d_vals[star_idx] <= d_vals.min() + 1e-12
            argmin_ok &= k_vals[star_idx] <= k_vals.min() + 1e-12
            far = np.abs(grid - a_star) > 0.02 * a_star
            argmin_ok &= bool(np.all(d_vals[far] > d_vals[star_idx]))
            # the four expressions of the optimum identity
            d_star = d_vals[star_idx]
            lk_star = k_vals[star_idx]
            P_star = pc.Preconditioner(core.factor, term, a_star)
            P_one = pc.Preconditioner(core.factor, term, 1.0)
            neg_ld_star = -(dense_logdet_a - P_star.logdet())
            via_alpha = -(dense_logdet_a - P_one.logdet()) + (n - r) * math.log(a_star)
            four = (d_star, lk_star, neg_ld_star, via_alpha)
            worst_four = max(worst_four, (max(four) - min(four)) / abs(d_star))
    ok = argmin_ok and worst_four <= 1e-9
    _report(2, "alpha* is the grid minimum and the four-way identity holds", ok,
            f"worst pairwise gap {worst_four:.2e} relative")


def test_criterion_03_kappa2_flat_interval():
    worst_var = 0.0
    outside_ok = True
    for i in range(20):
        n = 25 + 3 * i
        A = make_sparse_network(n, seed=2000 + i)
        core = pc.error_core(A, ic0(A))
        term = pc.bld_truncate(core, max(1, n // 8))
        lo, hi = pc.flat_interval(core, term)
        vals = [pc.kappa2_alpha(core, term, a) for a in np.linspace(lo, hi, 20)]
        worst_var = max(worst_var, (max(vals) - min(vals)) / max(vals))
        ratio = hi / lo
        outside_ok &= pc.kappa2_alpha(core, term, 2 * hi) > ratio
        outside_ok &= pc.kappa2_alpha(core, term, lo / 2) > ratio

    # exact small case: remaining spectrum (1.5, 0.5) on the identity factor
    core3 = pc.error_core(np.diag([4.0, 1.5, 0.5]), identity_factor(3))
    term3 = pc.bld_truncate(core3, 1)
    lo3, hi3 = pc.flat_interval(core3, term3)
    exact_ok = (lo3, hi3) == (0.5, 1.5)
    for a in np.linspace(0.5, 1.5, 20):
        exact_ok &= pc.kappa2_alpha(core3, term3, a) == pytest.approx(3.0, rel=1e-12)
        # independent dense route through the assembled preconditioner
    for a in (0.5, 1.0, 1.5):
        P = pc.Preconditioner(identity_factor(3), term3, a)
        spec = preconditioned_spectrum(np.diag([4.0, 1.5, 0.5]), P.dense())
        exact_ok &= kappa2(spec) == pytest.approx(3.0, rel=1e-10)

    ok = worst_var <= 1e-12 and outside_ok and exact_ok
    _report(3, "kappa2 is flat on [l, L] and strictly larger outside", ok,
            f"worst in-interval variation {worst_var:.2e}")


def _find_bus_matrix():
    candidates = [
        os.environ.get("BLD_KAPORIN_494_BUS", ""),
        "494_bus.mtx",
        os.path.join(os.path.dirname(__file__), "..", "494_bus.mtx"),
    ]
    for cand in candidates:
        if cand and os.path.exists(cand):
            return cand
    return None


def test_criterion_04_figure_reproduction(tmp_path):
    bus = _find_bus_matrix()
    out = tmp_path / "sweep.csv"
    if bus is not None:
        argv = ["sweep-alpha", "--matrix", bus, "--factor", "ic0", "--rank", "49",
                "--out", str(out)]
        source = "494_bus.mtx"
    else:
        # same-order synthetic stand-in with network-like sparsity
        argv = ["sweep-alpha", "--synthetic", "network", "--n", "494", "--seed", "494",
                "--factor", "ic0", "--rank", "49", "--out", str(out)]
        source = "synthetic n=494 stand-in"
    assert cli_run(argv) == 0
    with open(out) as fh:
        rows = [
            {k: float(v) for k, v in row.items()}
            for row in csv.DictReader(fh)
        ]
    summary = json.loads((tmp_path / "sweep.csv.json").read_text())
    lo, hi = summary["interval"]
    a_star = summary["alpha_star"]

    inside = [r["kappa2"] for r in rows if lo <= r["alpha"] <= hi]
    flat_ok = len(inside) >= 3 and (max(inside) - min(inside)) <= 1e-12 * max(inside)
    d_min = min(rows, key=lambda r: r["d_ld"])
    k_min = min(rows, key=lambda r: r["ln_k"])
    min_at_star = d_min["alpha"] == pytest.approx(a_star, rel=1e-12) and k_min[
        "alpha"
    ] == pytest.approx(a_star, rel=1e-12)
    equal_minima = abs(d_min["d_ld"] - k_min["ln_k"]) <= 1e-8 * max(abs(d_min["d_ld"]), 1e-30)
    dominated = all(r["d_ld"] >= r["ln_k"] - 1e-10 for r in rows)
    ok = flat_ok and min_at_star and equal_minima and dominated
    _report(4, "alpha sweep reproduces the figure structure", ok,
            f"{source}, rank 49, alpha*={a_star:.6g}, D_LD(alpha*)={d_min['d_ld']:.6g}")


def test_criterion_05_pcg_bound_suite():
    rng = np.random.default_rng(5150)
    worst_div = 0.0
    worst_3 = 0.0
    budget_ok = True
    runs = 0

    def one(A_obj, matvec, n, H, d_ld, ln_k, tag):
        nonlocal worst_div, worst_3, budget_ok, runs
        runs += 1
        x_true = rng.standard_normal(n)
        rep = pcg_solve(A_obj, matvec(x_true), H, SolveConfig(tol=1e-8, known_solution=x_true))
        relp = rep.rel_res_pinv()
        rele = rep.rel_err_a()
        slack = 1.0 + 1e-6
        for k in range(1, rep.iterations + 1):
            bd = bound_divergence(d_ld, k)
            if relp[k] > bd * slack:
                worst_div = max(worst_div, relp[k] - bd * slack)
            if k % 2 == 0 and 3.0 * d_ld <= k < n:
                b3 = bound_3lnd(d_ld, k, n)
                if rele[k] > b3 * slack:
                    worst_3 = max(worst_3, rele[k] - b3 * slack)
        for eps in (1e-2, 1e-6):
            observed = next((k for k, v in enumerate(relp) if v <= eps), None)
            if observed is not None and ln_k > 0.0:
                budget = iter_estimate_kaporin(ln_k, eps, recommended_sigma(ln_k, eps))
                budget_ok &= observed <= budget

    for i in range(25):
        kind = i % 5
        if kind in (0, 1):
            n = (120, 240)[kind]
            gen, params = (("uniform", (0.5, 5.0)), ("geometric", (1e4,)))[kind]
            spec = make_spectrum(n, gen, params)
            A = make_dense_spd(spec, basis_seed=100 + i)
            d_ld = float(np.sum(spec - np.log(spec) - 1.0))
            ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
            one(A, lambda x, A=A: A @ x, n, None, d_ld, ln_k, f"dense{i}")
        elif kind == 2:
            n = 200
            A = make_sparse_network(n, seed=300 + i)
            core = pc.error_core(A, ic0(A))
            term = pc.bld_truncate(core, 0)
            P = pc.Preconditioner(core.factor, term, 1.0)
            one(A, A.matvec, n, P,
                pc.divergence_alpha(core, term, 1.0),
                pc.ln_kaporin_alpha(core, term, 1.0), f"ic0r0_{i}")
        elif kind == 3:
            n = 300
            A = make_sparse_network(n, seed=400 + i)
            core = pc.error_core(A, ic0(A))
            term = pc.bld_truncate(core, n // 10)
            a_star = pc.optimal_alpha(core, term)
            P = pc.Preconditioner(core.factor, term, a_star)
            one(A, A.matvec, n, P,
                pc.divergence_alpha(core, term, a_star),
                pc.ln_kaporin_alpha(core, term, a_star), f"ic0bld_{i}")
        else:
            n = 80
            A = random_spd(n, rng, kappa=1e3)
            P = A + 0.3 * random_spd(n, rng)
            spec = preconditioned_spectrum(A, P)
            one(A, lambda x, A=A: A @ x, n, np.linalg.inv(P),
                bregman_logdet(A, P),
                ln_kaporin_k(spec.sum(), np.log(spec).sum(), n), f"pert{i}")

    ok = runs == 25 and worst_div == 0.0 and worst_3 == 0.0 and budget_ok
    _report(5, "PCG residuals obey the divergence bounds and iteration budgets", ok,
            f"25 solves, worst excesses {worst_div:.1e}/{worst_3:.1e}")


def test_criterion_06_quadratic_error_order():
    slopes = []
    for seed in range(5):
        _, summary = error_order_study(40, seed, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
        slopes.append(summary["slope"])
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    _report(6, "ln K - D_LD gap shrinks quadratically", ok,
            "slopes " + ", ".join(f"{s:.3f}" for s in slopes))


def test_criterion_07_bld_beats_tsvd():
    worst = 0.0
    worst_dense = 0.0
    for i in range(50):
        n = int(np.random.default_rng(7000 + i).integers(8, 20))
        rng = np.random.default_rng(7100 + i)
        thetas = rng.uniform(-0.7, 2.0, size=n)
        thetas[rng.integers(0, n)] = -abs(rng.uniform(0.3, 0.7))  # keep it indefinite
        L = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
        U = haar_orthogonal(n, 7200 + i)
        A = L @ (np.eye(n) + (U * thetas) @ U.T) @ L.T
        Q = LowerTriFactor(L)
        core = pc.error_core(A, Q)
        for r in range(n):
            bld = pc.bld_truncate(core, r)
            tsvd = pc.tsvd_truncate(core, r)
            # with aligned eigenspaces the divergence is the sum of
            # gamma(theta_i) over the unselected indices, read here as
            # trace - log det - n from the sums of the unselected 1 + theta;
            # beyond the core it carries only the rounding of those two sums
            worst = max(
                worst,
                pc.divergence_alpha(core, bld, 1.0) - pc.divergence_alpha(core, tsvd, 1.0),
            )
            if r in (1, n // 2):  # dense independent route, fp-level slack
                d_bld = bregman_logdet(A, pc.Preconditioner(Q, bld, 1.0).dense())
                d_tsvd = bregman_logdet(A, pc.Preconditioner(Q, tsvd, 1.0).dense())
                worst_dense = max(worst_dense, d_bld - d_tsvd)

    # constructed strict-improvement case: gamma(-0.45) > gamma(0.5)
    A3 = np.diag([1.5, 0.55, 1.1])
    core3 = pc.error_core(A3, identity_factor(3))
    d_bld = bregman_logdet(A3, pc.Preconditioner(identity_factor(3), pc.bld_truncate(core3, 1), 1.0).dense())
    d_tsvd = bregman_logdet(A3, pc.Preconditioner(identity_factor(3), pc.tsvd_truncate(core3, 1), 1.0).dense())
    strict_gap = d_tsvd - d_bld
    ok = worst <= 1e-12 and worst_dense <= 1e-9 and strict_gap > 1e-3
    _report(7, "gamma-ordered truncation never loses to TSVD, strictly wins when it should",
            ok, f"worst excess {worst:.1e} (dense route {worst_dense:.1e}), "
            f"constructed-case margin {strict_gap:.4f}")


def test_criterion_08_slq_accuracy():
    # known-spectrum synthetic, n = 500, m = 40, n_v = 30, pinned seed
    spec = np.geomspace(1.0, 1e-2, 500)
    A = make_dense_spd(spec, basis_seed=88)
    est = bk.slq_trace_logdet(lambda x: A @ x, 500, bk.ProbeConfig(m=40, n_v=30, seed=2024))
    tr, ld = float(spec.sum()), float(np.log(spec).sum())
    trace_ok = abs(est.trace_est - tr) < 0.05 * abs(tr)
    logdet_ok = abs(est.logdet_est - ld) < 0.05 * abs(ld)

    # m = n exactness for n <= 30 (sign probes on diagonal targets are
    # exact per probe once the Krylov space is exhausted)
    rng = np.random.default_rng(31)
    worst_exact = 0.0
    for n in (8, 19, 30):
        d = rng.uniform(0.3, 5.0, size=n)
        rep = bk.slq_trace_logdet(lambda x, d=d: d * x, n, bk.ProbeConfig(m=n, n_v=5, seed=77))
        ld_n = float(np.log(d).sum())
        for i in range(5):
            worst_exact = max(worst_exact, abs(n * rep.per_probe_logdet[i] - ld_n) / abs(ld_n))
    exact_ok = worst_exact <= 1e-8

    # derived quantities on a factored instance of the same order
    An = make_sparse_network(500, seed=4940)
    core = pc.error_core(An, ic0(An))
    term = pc.bld_truncate(core, 50)
    a_star = pc.optimal_alpha(core, term)
    d_exact = pc.divergence_alpha(core, term, a_star)
    op = pc.sym_preconditioned_operator(An, pc.Preconditioner(core.factor, term, 1.0))
    est2 = bk.slq_trace_logdet(op, 500, bk.ProbeConfig(m=40, n_v=30, seed=2025))
    a_hat = bk.approx_alpha(est2.trace_est, 500, 50)
    d_hat = bk.approx_divergence(est2.logdet_est, a_hat, 500, 50)
    alpha_ok = abs(a_hat - a_star) < 0.05 * a_star
    d_ok = abs(d_hat - d_exact) < 0.1 * max(1.0, d_exact)

    ok = trace_ok and logdet_ok and exact_ok and alpha_ok and d_ok
    _report(8, "SLQ trace/log-det and derived surrogates are within tolerance", ok,
            f"trace {abs(est.trace_est - tr)/abs(tr):.3f}, logdet "
            f"{abs(est.logdet_est - ld)/abs(ld):.3f}, alpha {abs(a_hat - a_star)/a_star:.4f}")


def test_criterion_09_dual_divergence_identity():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 41))
        A, B = random_spd(n, rng), random_spd(n, rng)
        d = bregman_logdet(A, B)
        dd = dual_divergence(dual_coords(B), dual_coords(A))
        worst = max(worst, abs(d - dd) / (1.0 + d))
    ok = worst <= 1e-9
    _report(9, "primal and dual divergences coincide", ok, f"worst gap {worst:.2e}")


def test_criterion_10_kaporin_property_suite():
    rng = np.random.default_rng(1010)
    checks = 0
    ok = True
    worst_chain = 0.0
    for _ in range(250):
        n = int(rng.integers(2, 31))
        spec = np.exp(rng.uniform(-4.0, 4.0, size=n))
        ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
        # K >= 1
        ok &= ln_k >= -1e-12
        checks += 1
        # scale invariance
        c = float(rng.uniform(1e-3, 1e3))
        ln_k_c = ln_kaporin_k(c * spec.sum(), np.log(c * spec).sum(), n)
        ok &= abs(ln_k_c - ln_k) <= 1e-10
        checks += 1
        # similarity invariance through an actual conjugation
        M = make_dense_spd(spec, basis_seed=int(rng.integers(0, 2**31)))
        X = random_spd(n, rng, kappa=50.0)
        sim = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(X, M @ X))))[::-1]
        ln_k_sim = ln_kaporin_k(sim.sum(), np.log(np.abs(sim)).sum(), n)
        ok &= abs(ln_k_sim - ln_k) <= 1e-8 * (1.0 + abs(ln_k))
        checks += 1
        # sandwich chain (last link in log space)
        b_val = kaporin_b(spec)
        k2 = kappa2(spec)
        mid = (math.sqrt(k2) + 1.0 / math.sqrt(k2)) ** 2
        chain_ok = (b_val <= k2 * (1 + 1e-12)) and (k2 <= mid * (1 + 1e-12))
        last = math.log(mid) - (math.log(4.0) + ln_k)
        worst_chain = max(worst_chain, last)
        chain_ok &= last <= 1e-9
        ok &= chain_ok
        checks += 1
    ok = ok and checks == 1000
    _report(10, "Kaporin condition number properties hold", ok,
            f"{checks} checks, worst chain excess {worst_chain:.2e}")
