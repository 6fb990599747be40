import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import bld_kaporin
from bld_kaporin.divergence import (
    bregman_logdet,
    condition_report,
    dual_coords,
    dual_divergence,
    gamma_map,
    jacobi_scale,
    kaporin_b,
    kappa2,
    ln_kaporin_k,
    preconditioned_spectrum,
)
from bld_kaporin.errors import DomainError, NotPositiveDefiniteError
from bld_kaporin.linalg import spd_cholesky, sym_eig
from bld_kaporin.matio import SparseSymMatrix
from bld_kaporin.synth import random_spd

positive_spectra = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=20
)


class TestKappa2:
    def test_constant_spectrum(self):
        assert kappa2([1.0, 1.0, 1.0]) == 1.0

    def test_simple_ratio(self):
        assert kappa2([4.0, 1.0]) == 4.0

    def test_preconditioned_diag(self):
        # diag(3,1) preconditioned by diag(2,2) has spectrum (1.5, 0.5)
        spec = preconditioned_spectrum(np.diag([3.0, 1.0]), np.diag([2.0, 2.0]))
        np.testing.assert_allclose(spec, [1.5, 0.5], rtol=1e-14)
        assert kappa2(spec) == pytest.approx(3.0, rel=1e-13)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            kappa2([1.0, 0.0])

    @pytest.mark.parametrize("functional", [kappa2, kaporin_b])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, functional, bad):
        with pytest.raises(DomainError):
            functional([1.0, bad])

    @given(positive_spectra)
    @settings(max_examples=50, derandomize=True)
    def test_at_least_one(self, spec):
        assert kappa2(spec) >= 1.0


class TestKaporinB:
    def test_equality_case(self):
        for c in (0.1, 1.0, 7.3):
            assert kaporin_b([c, c, c]) == pytest.approx(1.0, rel=1e-14)

    def test_four_one(self):
        assert kaporin_b([4.0, 1.0]) == pytest.approx(2.5 / 2.0, rel=1e-14)

    def test_three_halves_half(self):
        assert kaporin_b([1.5, 0.5]) == pytest.approx(1.0 / math.sqrt(0.75), rel=1e-12)

    @given(positive_spectra)
    @settings(max_examples=60, derandomize=True)
    def test_am_gm(self, spec):
        assert kaporin_b(spec) >= 1.0 - 1e-12


class TestLnKaporinK:
    def test_identity(self):
        assert ln_kaporin_k(2.0, 0.0, 2) == 0.0

    def test_diag_four_one(self):
        expected = 2.0 * math.log(2.5) - math.log(4.0)
        assert ln_kaporin_k(5.0, math.log(4.0), 2) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.4462871026284195, rel=1e-12)

    def test_diag_three_halves_half(self):
        expected = -math.log(0.75)
        assert ln_kaporin_k(2.0, math.log(0.75), 2) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.2876820724517809, rel=1e-12)

    def test_consistent_with_b(self):
        rng = np.random.default_rng(0)
        spec = rng.uniform(0.5, 4.0, size=17)
        ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), spec.size)
        assert ln_k == pytest.approx(spec.size * math.log(kaporin_b(spec)), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        spec = rng.uniform(0.1, 10.0, size=25)
        base = ln_kaporin_k(spec.sum(), np.log(spec).sum(), 25)
        for c in (1e-3, 0.5, 2.0, 1e3):
            scaled = ln_kaporin_k(c * spec.sum(), np.log(c * spec).sum(), 25)
            assert abs(scaled - base) <= 1e-10

    def test_nonpositive_trace_rejected(self):
        with pytest.raises(DomainError):
            ln_kaporin_k(0.0, 1.0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_trace_or_logdet_rejected(self, bad):
        with pytest.raises(DomainError):
            ln_kaporin_k(bad, 1.0, 3)
        with pytest.raises(DomainError):
            ln_kaporin_k(3.0, bad, 3)


class TestGammaMap:
    def test_zero(self):
        assert gamma_map(0.0) == 0.0

    def test_one(self):
        assert gamma_map(1.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)

    def test_negative_branch(self):
        expected = -0.45 - math.log(0.55)
        assert gamma_map(-0.45) == pytest.approx(expected, rel=1e-14)
        # the discriminating comparison behind the non-TSVD selection
        assert gamma_map(-0.45) > gamma_map(0.5)

    def test_domain(self):
        for bad in (-1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                gamma_map(bad)
            with pytest.raises(DomainError):
                gamma_map(np.array([0.5, bad]))

    @given(st.floats(min_value=-0.999999, max_value=1e6))
    @settings(max_examples=80, derandomize=True)
    def test_nonnegative(self, lam):
        assert gamma_map(lam) >= 0.0

    @given(st.floats(min_value=-0.99, max_value=1e3), st.floats(min_value=-0.99, max_value=1e3))
    @settings(max_examples=80, derandomize=True)
    def test_monotone_away_from_zero(self, a, b):
        # same-sign pairs: the one farther from zero has the larger penalty
        if (a < 0) == (b < 0):
            lo, hi = sorted([abs(a), abs(b)])
            sgn = -1.0 if a < 0 else 1.0
            assert gamma_map(sgn * hi) >= gamma_map(sgn * lo) - 1e-15


class TestBregmanLogdet:
    def test_zero_at_equal_inputs(self):
        rng = np.random.default_rng(2)
        A = random_spd(10, rng)
        assert abs(bregman_logdet(A, A)) <= 1e-10

    def test_diag_two_one_vs_identity(self):
        got = bregman_logdet(np.diag([2.0, 1.0]), np.eye(2))
        assert got == pytest.approx(1.0 - math.log(2.0), rel=1e-12)

    def test_unit_trace_equality_case(self):
        # trace(P^-1 A) = 2 = n, so the divergence equals ln K exactly
        A, P = np.diag([3.0, 1.0]), np.diag([2.0, 2.0])
        got = bregman_logdet(A, P)
        assert got == pytest.approx(-math.log(0.75), rel=1e-12)
        spec = preconditioned_spectrum(A, P)
        ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), 2)
        assert got == pytest.approx(ln_k, abs=1e-12)

    def test_methods_agree(self):
        rng = np.random.default_rng(3)
        for n in (4, 12, 30):
            A, P = random_spd(n, rng), random_spd(n, rng)
            # the spectral route: eigenvalues of P^-1 A from sym_eig
            d1 = bregman_logdet(A, P)
            d2 = condition_report(A, P).d_ld
            assert d2 == pytest.approx(d1, rel=1e-8)

    def test_nonnegative_and_discriminating_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            d = bregman_logdet(random_spd(n, rng), random_spd(n, rng))
            assert d > 1e-8  # distinct random pairs are strictly separated

    def test_congruence_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            A, P = random_spd(n, rng), random_spd(n, rng)
            d = bregman_logdet(A, P)
            P0 = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            d2 = bregman_logdet(P0.T @ A @ P0, P0.T @ P @ P0)
            assert abs(d - d2) <= 1e-8 * (1.0 + d)

    def test_dominates_ln_k(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            A, P = random_spd(n, rng), random_spd(n, rng)
            spec = preconditioned_spectrum(A, P)
            ln_k = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
            assert bregman_logdet(A, P) >= ln_k - 1e-10

    def test_c_scaling_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            A, P = random_spd(n, rng), random_spd(n, rng)
            spec = preconditioned_spectrum(A, P)
            c = spec.sum() / n
            lhs = bregman_logdet(A, P) - bregman_logdet(A, c * P)
            rhs = n * (c - 1.0 - math.log(c))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_indefinite_p_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            bregman_logdet(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory(self):
        # In a fresh process, the rise of the peak RSS over bregman_logdet of
        # a sparse A and a dense P at n = 1936, in units of n x n doubles.
        # Full-size symmetrizing temporaries and a separate solution array
        # beside both factors read 4.5 or more.
        code = textwrap.dedent("""
            import resource
            from bld_kaporin.divergence import bregman_logdet
            from bld_kaporin.synth import make_sparse_network
            A = make_sparse_network(1936, seed=0)
            P = make_sparse_network(1936, seed=1).to_dense()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            bregman_logdet(A, P)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / (8 * 1936**2))
        """)
        src = os.path.dirname(os.path.dirname(bld_kaporin.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) <= 3.0


class TestDualSide:
    def test_identity_coords(self):
        np.testing.assert_allclose(dual_coords(np.eye(3)), -np.eye(3))

    def test_diagonal_coords(self):
        np.testing.assert_allclose(dual_coords(np.diag([2.0, 4.0])), np.diag([-0.5, -0.25]))

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        X = random_spd(20, rng)
        back = -np.linalg.inv(dual_coords(X))
        assert np.abs(back - X).max() <= 1e-10 * np.abs(X).max()

    def test_matches_primal_on_example(self):
        A, B = np.diag([2.0, 1.0]), np.eye(2)
        got = dual_divergence(dual_coords(B), dual_coords(A))
        assert got == pytest.approx(1.0 - math.log(2.0), rel=1e-12)
        assert got == pytest.approx(bregman_logdet(A, B), rel=1e-12)

    def test_matches_primal_random(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A, B = random_spd(10, rng), random_spd(10, rng)
            d = bregman_logdet(A, B)
            dd = dual_divergence(dual_coords(B), dual_coords(A))
            assert abs(d - dd) <= 1e-9 * (1.0 + d)

    def test_zero_at_equal(self):
        rng = np.random.default_rng(10)
        T = dual_coords(random_spd(8, rng))
        assert abs(dual_divergence(T, T)) <= 1e-10

    def test_positive_definite_argument_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            dual_divergence(np.eye(2), -np.eye(2))


class TestJacobiScale:
    def test_diagonal_becomes_identity(self):
        A = SparseSymMatrix.from_dense(np.diag([2.0, 5.0]))
        np.testing.assert_allclose(jacobi_scale(A).to_dense(), np.eye(2))

    def test_entrywise_formula(self):
        # singular input: only the scaling contract is exercised
        A = jacobi_scale(np.array([[4.0, 2.0], [2.0, 1.0]]))
        np.testing.assert_allclose(A, np.ones((2, 2)), rtol=1e-14)

    def test_unit_trace(self):
        from bld_kaporin.synth import make_sparse_network

        A = make_sparse_network(494, seed=494)
        scaled = jacobi_scale(A)
        assert np.sum(scaled.diagonal()) == pytest.approx(494.0, abs=1e-12 * 494)
        np.testing.assert_allclose(scaled.diagonal(), 1.0, atol=1e-14)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(DomainError):
            jacobi_scale(np.array([[0.0, 1.0], [1.0, 1.0]]))


class TestPreconditionedSpectrum:
    def test_bits_of_symmetrized_core(self):
        # sym_eig symmetrizes M itself; the values are those of
        # sym_eig(0.5 (M + M^T)) bit for bit
        rng = np.random.default_rng(21)
        for n in (3, 40, 300):
            A, P = random_spd(n, rng), random_spd(n, rng)
            Lp = spd_cholesky(P)
            Y = sla.solve_triangular(Lp, A, lower=True)
            M = sla.solve_triangular(Lp, Y.T, lower=True).T
            want = sym_eig(0.5 * (M + M.T)).values
            np.testing.assert_array_equal(preconditioned_spectrum(A, P), want)


class TestConditionReport:
    def test_internal_identities(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 40))
            rep = condition_report(random_spd(n, rng), random_spd(n, rng))
            assert rep.ln_kaporin_k == pytest.approx(
                rep.n * math.log(rep.kaporin_b), rel=1e-12
            )
            assert rep.d_ld == pytest.approx(
                rep.trace_m - rep.logdet_m - rep.n, rel=1e-12, abs=1e-12
            )
            # sandwich chain, last link compared in log space
            assert rep.kaporin_b <= rep.kappa2 * (1.0 + 1e-12)
            mid = (math.sqrt(rep.kappa2) + 1.0 / math.sqrt(rep.kappa2)) ** 2
            assert rep.kappa2 <= mid * (1.0 + 1e-12)
            assert math.log(mid) <= math.log(4.0) + rep.ln_kaporin_k + 1e-9
