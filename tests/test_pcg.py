import math
import re

import numpy as np
import pytest

from bld_kaporin.divergence import bregman_logdet, ln_kaporin_k, preconditioned_spectrum
from bld_kaporin.errors import DomainError, PcgBreakdownError
from bld_kaporin.harness import build_preconditioner
from bld_kaporin.linalg import LowerTriFactor, ic0
from bld_kaporin.matio import SparseSymMatrix
from bld_kaporin.pcg import (
    SolveConfig,
    bound_3lnd,
    bound_divergence,
    bound_kaporin,
    bound_kappa,
    iter_estimate_divergence,
    iter_estimate_kaporin,
    iter_estimate_kappa,
    pcg_solve,
    recommended_sigma,
)
from bld_kaporin.precond import LowRankTerm, Preconditioner
from bld_kaporin.synth import make_sparse_network, random_spd


class TestSolver:
    def test_identity_one_step(self):
        b = np.array([1.0, -2.0, 3.0])
        rep = pcg_solve(np.eye(3), b)
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(rep.x, b, rtol=1e-14)

    def test_exact_preconditioner_one_step(self):
        rng = np.random.default_rng(0)
        A = random_spd(20, rng)
        b = rng.standard_normal(20)
        rep = pcg_solve(A, b, H=np.linalg.inv(A))
        assert rep.converged and rep.iterations == 1
        np.testing.assert_allclose(A @ rep.x, b, rtol=1e-9, atol=1e-11)

    def test_three_distinct_eigenvalues_three_steps(self):
        A = np.diag([1.0, 2.0, 3.0])
        rep = pcg_solve(A, np.ones(3), config=SolveConfig(tol=1e-12))
        assert rep.converged and rep.iterations <= 3
        np.testing.assert_allclose(rep.x, [1.0, 0.5, 1.0 / 3.0], rtol=1e-10)

    def test_scalar_multiple_of_identity_one_step(self):
        for c in (0.3, 1.0, 40.0):
            rep = pcg_solve(c * np.eye(6), np.arange(1.0, 7.0))
            assert rep.converged and rep.iterations == 1

    @pytest.mark.parametrize("b", [np.ones(4), np.ones((6, 1))], ids=["short", "column"])
    def test_right_hand_side_of_other_shape_rejected(self, b):
        A = SparseSymMatrix.from_dense(random_spd(6, np.random.default_rng(2)))
        with pytest.raises(ValueError, match=r"must have shape \(6,\), got " + re.escape(str(b.shape))):
            pcg_solve(A, b)

    @pytest.mark.parametrize("form", ["preconditioner", "dense"])
    def test_preconditioner_of_other_order_rejected(self, form):
        A = SparseSymMatrix.from_dense(random_spd(6, np.random.default_rng(2)))
        Q = ic0(SparseSymMatrix.from_dense(random_spd(8, np.random.default_rng(4))))
        P = Preconditioner(Q, LowRankTerm(0, np.zeros((8, 0)), np.zeros(0), np.zeros(0, int)))
        H = P if form == "preconditioner" else P.dense()
        with pytest.raises(ValueError, match=r"A and P must have matching order, got 6 and 8"):
            pcg_solve(A, np.ones(6), H)

    def test_factor_order_is_that_of_its_values(self):
        A = SparseSymMatrix.from_dense(random_spd(8, np.random.default_rng(2)))
        P = Preconditioner(LowerTriFactor(np.eye(6)),
                           LowRankTerm(0, np.zeros((6, 0)), np.zeros(0), np.zeros(0, int)))
        with pytest.raises(ValueError, match=r"A and P must have matching order, got 8 and 6"):
            pcg_solve(A, np.ones(8), P)

    @pytest.mark.parametrize("xs", [np.ones(4), np.ones((6, 1))], ids=["short", "column"])
    def test_known_solution_of_other_shape_rejected(self, xs):
        A = SparseSymMatrix.from_dense(random_spd(6, np.random.default_rng(2)))
        with pytest.raises(ValueError, match=r"known solution must have shape \(6,\), got "
                           + re.escape(str(xs.shape))):
            pcg_solve(A, np.ones(6), config=SolveConfig(known_solution=xs))

    def test_history_lengths(self):
        rng = np.random.default_rng(1)
        A = random_spd(30, rng)
        x_true = rng.standard_normal(30)
        rep = pcg_solve(A, A @ x_true, config=SolveConfig(known_solution=x_true))
        assert len(rep.res2) == rep.iterations + 1
        assert len(rep.res_pinv) == rep.iterations + 1
        assert len(rep.err_a) == rep.iterations + 1

    def test_history_off_skips_error_matvecs(self, monkeypatch):
        rng = np.random.default_rng(3)
        A = SparseSymMatrix.from_dense(random_spd(30, rng))
        x_true = rng.standard_normal(30)
        b = A.matvec(x_true)
        calls = []
        matvec = SparseSymMatrix.matvec

        def counting(self, x):
            calls.append(1)
            return matvec(self, x)

        monkeypatch.setattr(SparseSymMatrix, "matvec", counting)
        runs = {}
        for known in (x_true, None):
            calls.clear()
            rep = pcg_solve(A, b, config=SolveConfig(known_solution=known))
            runs[known is not None] = (rep, len(calls))
        (full, full_calls), (lean, lean_calls) = runs[True], runs[False]
        # one A product per iteration; a known solution adds one per A-norm error
        assert lean_calls == lean.iterations
        assert full_calls == 2 * full.iterations + 1
        assert lean.err_a is None
        assert lean.iterations == full.iterations
        np.testing.assert_array_equal(lean.x, full.x)
        np.testing.assert_array_equal(lean.res2, full.res2)
        np.testing.assert_array_equal(lean.res_pinv, full.res_pinv)

    def test_a_norm_error_monotone(self):
        rng = np.random.default_rng(2)
        A = random_spd(60, rng, kappa=1e4)
        x_true = rng.standard_normal(60)
        rep = pcg_solve(A, A @ x_true, config=SolveConfig(known_solution=x_true, tol=1e-12))
        err = rep.err_a
        assert np.all(np.diff(err) <= 1e-12 * err[0] + 1e-15)

    def test_breakdown_carries_partial_report(self):
        A = np.diag([1.0, -1.0])  # indefinite: curvature turns nonpositive
        with pytest.raises(PcgBreakdownError) as exc:
            pcg_solve(A, np.array([1.0, 1.0]), config=SolveConfig(tol=1e-14))
        assert exc.value.report is not None
        assert exc.value.report.res2.size >= 1

    @pytest.mark.parametrize("H", [[[0.0, 1.0], [1.0, 0.0]], -np.eye(2)])
    def test_nonpositive_preconditioner_breaks_down(self, H):
        # H = [[0, 1], [1, 0]] gives r'Hr = 0 on the first step
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(PcgBreakdownError) as exc:
            pcg_solve(A, np.array([1.0, 0.0]), H=np.asarray(H))
        assert exc.value.report.iterations == 0
        assert not exc.value.report.converged

    def test_overflowing_curvature_breaks_down_at_once(self):
        # at alpha = 1e-300, P^-1 scales the complement by 1e300 and p'Ap
        # overflows: a NaN that a nonpositivity test alone lets through
        A = make_sparse_network(30)
        _, _, P = build_preconditioner(A, "ic0", None, 1e-300)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PcgBreakdownError, match="non-finite curvature at iteration 0") as exc:
            pcg_solve(A, np.ones(30), P)
        assert exc.value.report.iterations == 0
        assert not exc.value.report.converged

    def test_infinite_r_h_r_breaks_down(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PcgBreakdownError, match="non-finite r'Hr at iteration 0") as exc:
            pcg_solve(np.eye(2), np.array([10.0, 0.0]), H=1e308 * np.eye(2))
        assert exc.value.report.iterations == 0

    def test_max_iter_cap(self):
        rng = np.random.default_rng(3)
        A = random_spd(50, rng, kappa=1e6)
        rep = pcg_solve(A, rng.standard_normal(50), config=SolveConfig(tol=1e-14, max_iter=3))
        assert not rep.converged and rep.iterations == 3

    def test_tol_must_be_finite_and_positive(self):
        # unchecked, inf would converge at iteration 0 and nan run to a breakdown
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="tol must be finite and positive"):
                SolveConfig(tol=tol)

    def test_max_iter_nan_rejected(self):
        # unchecked, a NaN cap would stop the loop before its first step
        for max_iter in (0, math.nan, 2.5):
            with pytest.raises(DomainError, match="max_iter"):
                SolveConfig(max_iter=max_iter)
        assert SolveConfig(max_iter=np.int64(3)).max_iter == 3

    def test_pinv_norm_uses_preconditioner(self):
        rng = np.random.default_rng(4)
        A = random_spd(25, rng)
        P = random_spd(25, rng)
        H = np.linalg.inv(P)
        b = rng.standard_normal(25)
        rep = pcg_solve(A, b, H=H, config=SolveConfig(tol=1e-10))
        # k = 0 entry is sqrt(b' H b)
        assert rep.res_pinv[0] == pytest.approx(math.sqrt(b @ H @ b), rel=1e-12)


class TestBoundKappa:
    def test_kappa_one(self):
        assert bound_kappa(1.0, 0) == 1.0
        assert bound_kappa(1.0, 1) == 0.0
        assert bound_kappa(1.0, 9) == 0.0

    def test_kappa_nine_first_step(self):
        # C = 0.5, 2/(0.5 + 2) = 0.8
        assert bound_kappa(9.0, 1) == pytest.approx(0.8, rel=1e-14)

    def test_k_zero_is_one(self):
        assert bound_kappa(123.4, 0) == 1.0

    def test_tighter_than_2Ck(self):
        for kap in (2.0, 10.0, 1e4):
            C = (math.sqrt(kap) - 1) / (math.sqrt(kap) + 1)
            for k in (1, 3, 10, 50):
                assert bound_kappa(kap, k) <= 2.0 * C**k + 1e-16

    def test_domain(self):
        for kappa2 in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bound_kappa(kappa2, 1)


class TestBoundKaporinDivergence:
    def test_zero_quantity(self):
        for k in (1, 2, 7):
            assert bound_kaporin(0.0, k) == 0.0
            assert bound_divergence(0.0, k) == 0.0

    def test_ln_four_thirds(self):
        ln_k = math.log(4.0 / 3.0)
        assert bound_kaporin(ln_k, 1) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert bound_kaporin(ln_k, 2) == pytest.approx(math.sqrt(4.0 / 3.0) - 1.0, rel=1e-12)

    def test_divergence_matches_kaporin_at_equal_input(self):
        d = -math.log(0.75)
        for k in (1, 2, 5, 20):
            assert bound_divergence(d, k) == pytest.approx(bound_kaporin(d, k), rel=1e-12)
        assert bound_divergence(d, 2) == pytest.approx(math.expm1(d / 2.0), rel=1e-12)

    def test_threshold_case(self):
        # D = k ln 2 gives exactly (e^{ln 2} - 1)^{k/2} = 1
        for k in (2, 6):
            assert bound_divergence(k * math.log(2.0), k) == pytest.approx(1.0, rel=1e-12)

    def test_large_quantity_no_overflow(self):
        val = bound_kaporin(5000.0, 2)
        assert math.isinf(val) or val > 1e300

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            bound_kaporin(1.0, 0)
        with pytest.raises(DomainError):
            bound_divergence(1.0, 0)

    @pytest.mark.parametrize("bound", [bound_kaporin, bound_divergence])
    @pytest.mark.parametrize("quantity", [-1.0, math.nan, math.inf, -math.inf])
    def test_quantity_outside_domain_rejected(self, bound, quantity):
        with pytest.raises(DomainError):
            bound(quantity, 2)


class TestBound3lnD:
    def test_zero_divergence(self):
        assert bound_3lnd(0.0, 2, 10) == 0.0

    def test_direct_value(self):
        assert bound_3lnd(1.0, 6, 10) == pytest.approx(0.125, rel=1e-14)

    def test_window_violation(self):
        with pytest.raises(DomainError):
            bound_3lnd(2.0, 4, 10)  # 3*2 > 4

    def test_odd_k_rejected(self):
        with pytest.raises(DomainError):
            bound_3lnd(0.5, 3, 10)

    def test_k_at_least_n_rejected(self):
        with pytest.raises(DomainError):
            bound_3lnd(0.5, 10, 10)

    @pytest.mark.parametrize("d_ld", [-1.0, math.nan, math.inf, -math.inf])
    def test_divergence_outside_domain_rejected(self, d_ld):
        with pytest.raises(DomainError, match="divergence must be finite and nonnegative"):
            bound_3lnd(d_ld, 2, 10)


class TestIterationEstimates:
    def test_kappa_one_half(self):
        assert iter_estimate_kappa(1.0, 0.5) == 1

    def test_kappa_hundred(self):
        assert iter_estimate_kappa(100.0, 1e-6) == 73

    def test_clamped_to_one(self):
        assert iter_estimate_kappa(1.0, 0.999999) >= 1

    def test_kaporin_sigma_two(self):
        assert iter_estimate_kaporin(math.log(4.0 / 3.0), 1e-6, 2.0) == 21

    def test_sigma_two_simplification(self):
        # ceil(log2 K + log2(1/eps)) must agree with the general formula
        ln_k, eps = math.log(4.0 / 3.0), 1e-6
        simplified = math.ceil(ln_k / math.log(2.0) + math.log(1.0 / eps) / math.log(2.0))
        assert iter_estimate_kaporin(ln_k, eps, 2.0) == simplified == 21

    def test_kaporin_perfect_conditioning(self):
        eps = 1e-4
        assert iter_estimate_kaporin(0.0, eps, 2.0) == math.ceil(
            math.log(1.0 / eps) / math.log(2.0)
        )

    @pytest.mark.parametrize("ln_k", [1e-15, 1e-17, 1e-300])
    def test_tiny_ln_k_at_recommended_sigma(self, ln_k):
        # sigma ~ 1e16 and beyond: sigma ln sigma - (sigma-1) ln(sigma-1)
        # cancels to 0 in floating point, the rearranged form does not
        est = iter_estimate_kaporin(ln_k, 1e-6, recommended_sigma(ln_k, 1e-6))
        assert 1 <= est <= iter_estimate_kaporin(ln_k, 1e-6, 2.0)

    def test_sigma_two_denominator_unchanged(self):
        # at sigma = 2 the rearranged denominator is 2 ln 2 - ln 1 to the last bit
        textbook = 2.0 * math.log(2.0) - 1.0 * math.log(1.0)
        for ln_k in np.geomspace(1e-12, 1e4, 33):
            for eps in np.geomspace(1e-14, 0.99, 17):
                ln_k, eps = float(ln_k), float(eps)
                expected = max(1, math.ceil((2.0 * ln_k + 2.0 * math.log(1.0 / eps)) / textbook))
                assert iter_estimate_kaporin(ln_k, eps, 2.0) == expected

    def test_sigma_below_two_rejected(self):
        for sigma in (1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                iter_estimate_kaporin(1.0, 1e-6, sigma)

    def test_recommended_sigma(self):
        assert recommended_sigma(2.0, 1e-4) == pytest.approx(2.0 + math.log(1e4) / 2.0)
        for ln_k in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                recommended_sigma(ln_k, 1e-4)

    @pytest.mark.parametrize("estimate", [iter_estimate_kappa, iter_estimate_kaporin,
                                          iter_estimate_divergence])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments_rejected(self, estimate, value):
        with pytest.raises(DomainError):
            estimate(value, 1e-6)
        with pytest.raises(DomainError):
            estimate(2.0, value)

    def test_divergence_estimates(self):
        assert iter_estimate_divergence(-math.log(0.75), 1e-6) == 21
        assert iter_estimate_divergence(0.0, 0.5) == 1
        assert iter_estimate_divergence(5.0, 1e-10) == 41

    def test_divergence_estimate_is_kaporin_at_sigma_two(self):
        # (2 D + 2 ln(1/eps)) / (2 ln 2) is the divergence fraction doubled
        # exactly, so the two estimates agree to the last bit, and both
        # equal the closed form ceil((ln(1/eps) + D)/ln 2)
        for d in np.concatenate([np.linspace(0.0, 50.0, 201), np.geomspace(1e-12, 1e4, 97)]):
            for eps in np.geomspace(1e-14, 0.99, 41):
                d, eps = float(d), float(eps)
                expected = max(1, math.ceil((math.log(1.0 / eps) + d) / math.log(2.0)))
                assert iter_estimate_divergence(d, eps) == iter_estimate_kaporin(d, eps, 2.0)
                assert iter_estimate_divergence(d, eps) == expected


class TestBoundsAgainstRealRuns:
    def _run(self, A, P, seed):
        rng = np.random.default_rng(seed)
        n = A.shape[0]
        x_true = rng.standard_normal(n)
        b = A @ x_true
        H = np.linalg.inv(P)
        rep = pcg_solve(A, b, H=H, config=SolveConfig(tol=1e-9, known_solution=x_true))
        return rep

    def test_divergence_bound_holds_along_run(self):
        rng = np.random.default_rng(5)
        for trial in range(8):
            n = int(rng.integers(20, 120))
            A = random_spd(n, rng, kappa=10 ** rng.uniform(1, 4))
            P = A + random_spd(n, rng) * rng.uniform(0.05, 0.5)
            d = bregman_logdet(A, P)
            rep = self._run(A, P, trial)
            ratios = rep.rel_res_pinv()
            for k in range(1, rep.iterations + 1):
                assert ratios[k] <= bound_divergence(d, k) * (1 + 1e-6) + 1e-12

    def test_equality_coherence_when_trace_normalized(self):
        rng = np.random.default_rng(6)
        A = random_spd(30, rng)
        P = random_spd(30, rng)
        from bld_kaporin.divergence import scale_to_unit_trace

        _, cP = scale_to_unit_trace(A, P)
        d = bregman_logdet(A, cP)
        spec = preconditioned_spectrum(A, cP)
        ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), 30)
        for k in range(1, 40):
            assert bound_divergence(d, k) == pytest.approx(bound_kaporin(ln_k, k), rel=1e-9)

    def test_observed_iterations_within_kaporin_estimate(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(30, 100))
            A = random_spd(n, rng, kappa=1e3)
            P = A + random_spd(n, rng) * 0.2
            spec = preconditioned_spectrum(A, P)
            ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
            rep = self._run(A, P, 50 + trial)
            ratios = rep.rel_res_pinv()
            for eps in (1e-2, 1e-6):
                observed = next((k for k, v in enumerate(ratios) if v <= eps), None)
                assert observed is not None
                budget = iter_estimate_kaporin(ln_k, eps, recommended_sigma(ln_k, eps))
                assert observed <= budget
