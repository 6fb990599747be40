import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import bld_kaporin
from bld_kaporin import precond
from bld_kaporin.divergence import bregman_logdet, gamma_map, ln_kaporin_k, preconditioned_spectrum
from bld_kaporin.errors import DomainError, FactorizationError, NotPositiveDefiniteError, RankError
from bld_kaporin.linalg import LowerTriFactor, cholesky, ic0, identity_factor, sym_eig, tri_solve
from bld_kaporin.matio import SparseSymMatrix
from bld_kaporin.precond import (
    LowRankTerm,
    Preconditioner,
    RestStats,
    bld_truncate,
    divergence_alpha,
    error_core,
    flat_interval,
    kappa2_alpha,
    ln_kaporin_alpha,
    optimal_alpha,
    preconditioned_logdet,
    scale_to_unit_trace,
    sym_preconditioned_operator,
    tsvd_truncate,
)
from bld_kaporin.synth import haar_orthogonal, make_dense_spd, make_sparse_network, random_spd
from test_linalg import _diffusion


def _planted_core(thetas, seed=0, lower_seed=None):
    """A = Q (I + U diag(thetas) U') Q' for a random triangular Q."""
    thetas = np.asarray(thetas, dtype=np.float64)
    n = thetas.size
    rng = np.random.default_rng(seed if lower_seed is None else lower_seed)
    L = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
    U = haar_orthogonal(n, seed + 1)
    A = L @ (np.eye(n) + (U * thetas) @ U.T) @ L.T
    Q = LowerTriFactor(L)
    return A, Q


class TestErrorCore:
    def test_exact_factor_gives_zero_core(self):
        rng = np.random.default_rng(0)
        A = random_spd(15, rng)
        core = error_core(A, cholesky(A))
        assert np.abs(core.thetas).max() <= 1e-10

    def test_identity_factor_shifts_by_one(self):
        core = error_core(np.diag([2.0, 1.0]), identity_factor(2))
        np.testing.assert_allclose(core.thetas, [1.0, 0.0], atol=1e-14)

    def test_planted_spectrum_and_gamma_order(self):
        A, Q = _planted_core([0.5, -0.45, 0.1], seed=4)
        core = error_core(A, Q)
        np.testing.assert_allclose(np.sort(core.thetas), [-0.45, 0.1, 0.5], rtol=1e-9, atol=1e-11)
        # gamma(-0.45) = 0.1478 > gamma(0.5) = 0.0945 > gamma(0.1) = 0.0047
        kept = core.thetas[bld_truncate(core, 2).selection]
        np.testing.assert_allclose(kept, [-0.45, 0.5], rtol=1e-9, atol=1e-11)

    def test_indefinite_rejected(self):
        A, Q = _planted_core([-1.5, 0.2], seed=1)
        with pytest.raises(NotPositiveDefiniteError):
            error_core(A, Q)

    def test_spd_matrix_below_working_precision_named_as_such(self):
        # SPD, but 1 + theta = 1e-13 relative to the identity factor
        A = make_dense_spd(np.array([1.0, 1.0, 1e-13, 1e-13]), basis_seed=0)
        np.linalg.cholesky(A)
        with pytest.raises(NotPositiveDefiniteError,
                           match="not positive definite relative to the factor, to working precision"):
            error_core(A, identity_factor(4))

    def test_gamma_tie_breaks_by_theta_then_index(self):
        # equal gamma values (identical thetas): order by index, deterministic
        core = error_core(np.diag([1.5, 1.5, 1.25]), identity_factor(3))
        assert core.thetas.tolist() == [0.5, 0.5, 0.25]
        assert bld_truncate(core, 2).selection.tolist() == [0, 1]

    @pytest.mark.parametrize("case", ["planted", "network"])
    def test_bld_selection_is_the_gamma_lexsort_prefix(self, case):
        # the oracle: gamma descending, then theta descending, then index.
        # Every rank on the planted core; on the network core a spread of
        # ranks up to n - 1, since each term forms its r eigenvectors
        if case == "planted":
            core = error_core(*_planted_core([0.5, -0.45, 0.1, -0.3, 0.3, 2.0, -0.6, 0.0], seed=3))
            ranks = range(core.n)
        else:
            A = make_sparse_network(300)
            core = error_core(A, ic0(A))
            ranks = [0, 1, 2, 30, 150, 298, 299]
        th = core.thetas
        order = np.lexsort((np.arange(core.n), -th, -gamma_map(th)))
        for r in ranks:
            np.testing.assert_array_equal(bld_truncate(core, r).selection, order[:r])

    def test_core_keeps_only_sums_ends_and_factor(self):
        core = error_core(np.diag([2.0, 1.0]), identity_factor(2))
        assert [f.name for f in dataclasses.fields(core)] == [
            "factor", "total", "_work", "_diag", "_logsum", "_low", "_high", "_eig"]

    def test_asymmetry_from_an_ill_conditioned_factor_is_named(self):
        # the IC(0) factor of this SPD matrix is exact, yet too ill-conditioned
        # for Q^-1 A Q^-T to come out symmetric to 1e-10 relative
        A = SparseSymMatrix.from_dense(make_dense_spd(np.array([1.0, 1.0, 1e-13, 1e-13]), 0))
        with pytest.raises(FactorizationError,
                           match=r"error core Q\^-1 A Q\^-T .* too ill-conditioned for A"):
            error_core(A, ic0(A))

    def test_asymmetric_dense_matrix_is_named_as_the_input(self):
        A = make_sparse_network(30, seed=1).to_dense()
        A[5, 0] += 1e-6 * np.abs(A).max()
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            error_core(A, identity_factor(30))

    @pytest.mark.parametrize("factor", [ic0, cholesky])
    @pytest.mark.parametrize("n", [300, 600])
    def test_equals_out_of_place_core(self, n, factor):
        # the core formed in one array has the bits of Q^-1 A Q^-T - I
        # formed out of place, solve by solve
        A = make_sparse_network(n, seed=n)
        Q = factor(A)
        Y = tri_solve(Q, A.to_dense(), "forward")
        E = tri_solve(Q, Y.T, "forward").T
        E[np.diag_indices(n)] -= 1.0
        want = sym_eig(E)
        core = error_core(A, Q)
        np.testing.assert_array_equal(core.thetas, want.values)
        np.testing.assert_array_equal(core.eig.c, want.c)
        np.testing.assert_array_equal(core.eig.tau, want.tau)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_of_one_dense_array(self):
        # In a fresh process, the rise of the peak RSS over error_core and
        # the rank-50 pick at n = 1936, in units of n x n doubles.  The dense
        # A, Q^-1 A and full-size temporaries alive together read 5.0; the
        # core formed in two n x n arrays read 2.24, in one 1.21 when it was
        # eigendecomposed in full.  Its ends found by ARPACK through its
        # in-place Cholesky factor read 1.36, the rise over 1.21 being
        # OpenBLAS's dpotrf work space.
        code = textwrap.dedent("""
            import resource
            from bld_kaporin.linalg import ic0
            from bld_kaporin.precond import bld_truncate, error_core
            from bld_kaporin.synth import make_sparse_network
            A = make_sparse_network(1936, seed=0)
            Q = ic0(A)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            bld_truncate(error_core(A, Q), 50)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / (8 * 1936**2))
        """)
        src = os.path.dirname(os.path.dirname(bld_kaporin.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) <= 1.75


def _planted_ends(n=500):
    """I + E with a planted spectrum and the identity factor: three values at
    each end that gamma and |theta| both rank above the bulk in [-0.5, 0.5]."""
    thetas = np.concatenate(([-0.95, -0.9, -0.85, 4.0, 3.0, 2.5], np.linspace(-0.5, 0.5, n - 6)))
    return make_dense_spd(1.0 + thetas, 3), identity_factor(n)


def _counted_sym_eig(monkeypatch):
    """Count the full eigendecompositions precond makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sym_eig(*args, **kwargs)

    monkeypatch.setattr(precond, "sym_eig", counted)
    return calls


def _functionals(rest):
    a = rest.alpha_star
    return [a, rest.divergence(a), rest.ln_kaporin(a), rest.kappa2(a), rest.lo, rest.hi]


class TestEndsRoute:
    """A core whose ends stay within ENDS_SHARE of n finds them by ARPACK
    through the Cholesky factor of I + E, and gives what the full
    eigendecomposition of the same core gives."""

    @pytest.fixture(scope="class")
    def diffusion(self):
        A = _diffusion(36, seed=4)
        return A, ic0(A)

    @pytest.mark.parametrize("truncate", [bld_truncate, tsvd_truncate])
    @pytest.mark.parametrize("case, r", [("diffusion", 20), ("diffusion", 40), ("planted", 6)])
    def test_agrees_with_the_full_spectrum(self, case, r, truncate, diffusion, monkeypatch):
        A, Q = diffusion if case == "diffusion" else _planted_ends()
        calls = _counted_sym_eig(monkeypatch)
        core = error_core(A, Q)
        term = truncate(core, r)
        rest = core.rest(term)
        assert calls == []
        full = error_core(A, Q)
        full.thetas
        want = truncate(full, r)
        np.testing.assert_array_equal(term.selection, want.selection)
        np.testing.assert_allclose(term.D, want.D, rtol=1e-10)
        np.testing.assert_allclose(_functionals(rest), _functionals(full.rest(want)), rtol=1e-10)
        # the eigenvectors span the same invariant subspace
        np.testing.assert_allclose((term.V * term.D) @ term.V.T, (want.V * want.D) @ want.V.T,
                                   atol=1e-10)
        # both picks take from both ends, so the high end grew past k = 1,
        # except the diffusion core's at r = 20
        high = np.sum(term.selection < Q.n // 2)
        assert 0 < high < r or (case, r) == ("diffusion", 20)

    def test_two_builds_are_bit_identical(self, diffusion):
        A, Q = diffusion
        cores = [error_core(A, Q) for _ in range(2)]
        terms = [bld_truncate(core, 40) for core in cores]
        for field in ("selection", "D", "V"):
            np.testing.assert_array_equal(getattr(terms[0], field), getattr(terms[1], field))
        assert cores[0].rest(terms[0]) == cores[1].rest(terms[1])

    def test_rank_zero_then_last_rank_gives_the_full_spectrum_answer(self, monkeypatch):
        A = make_sparse_network(400, seed=6)
        Q = ic0(A)
        calls = _counted_sym_eig(monkeypatch)
        core = error_core(A, Q)
        first = core.rest(bld_truncate(core, 0))
        assert calls == []
        last = bld_truncate(core, 399)
        assert calls == [1]
        full = error_core(A, Q)
        full.thetas
        np.testing.assert_allclose(_functionals(first), _functionals(full.rest(bld_truncate(full, 0))),
                                   rtol=1e-10)
        want = bld_truncate(full, 399)
        for field in ("selection", "D", "V"):
            np.testing.assert_array_equal(getattr(last, field), getattr(want, field))
        got, ref = core.rest(last), full.rest(want)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        assert got.alpha_star == pytest.approx(ref.alpha_star, rel=1e-10)

    def test_too_many_ends_take_the_full_spectrum(self, monkeypatch):
        # at n = 400 the pick takes only low values, and the two ARPACK bases
        # pass ENDS_SHARE n = 40 vectors once the low end needs 10 values
        A = make_sparse_network(400, seed=6)
        assert precond._ncv(9) + precond._ncv(1) <= precond.ENDS_SHARE * 400
        assert precond._ncv(10) + precond._ncv(1) > precond.ENDS_SHARE * 400
        calls = _counted_sym_eig(monkeypatch)
        core = error_core(A, ic0(A))
        bld_truncate(core, 8)
        assert calls == []
        bld_truncate(core, 9)
        assert calls == [1]

    @pytest.mark.parametrize("low", [1e-13, -1e-3])
    def test_core_below_working_precision_fails_at_its_first_truncation(self, low):
        # SPD (or not) with 1 + theta = low: a core large enough for ARPACK
        # finds its lowest value with its low end
        A = make_dense_spd(np.concatenate(([low], np.linspace(1.0, 2.0, 399))), 2)
        core = error_core(A, identity_factor(400))
        with pytest.raises(NotPositiveDefiniteError, match="relative to the factor, to working precision"):
            bld_truncate(core, 3)

    def test_small_core_takes_the_full_spectrum_at_once(self, monkeypatch):
        calls = _counted_sym_eig(monkeypatch)
        error_core(make_sparse_network(399, seed=6), ic0(make_sparse_network(399, seed=6)))
        assert calls == [1]


class TestTruncations:
    def test_rank_zero_is_empty(self):
        A, Q = _planted_core([0.4, -0.2, 0.1], seed=2)
        core = error_core(A, Q)
        term = bld_truncate(core, 0)
        assert term.V.shape == (3, 0)
        P = Preconditioner(Q, term, 1.0)
        np.testing.assert_allclose(P.dense(), Q.to_dense() @ Q.to_dense().T, rtol=1e-12)

    def test_bld_prefers_gamma_dominant_negative(self):
        A, Q = _planted_core([0.5, -0.45], seed=3)
        core = error_core(A, Q)
        bld = bld_truncate(core, 1)
        tsvd = tsvd_truncate(core, 1)
        assert bld.D[0] == pytest.approx(-0.45, rel=1e-9)
        assert tsvd.D[0] == pytest.approx(0.5, rel=1e-9)

    def test_bld_takes_large_positive_when_gamma_dominates(self):
        A, Q = _planted_core([3.0, 0.5, -0.2], seed=5)
        core = error_core(A, Q)
        term = bld_truncate(core, 1)
        assert term.D[0] == pytest.approx(3.0, rel=1e-9)

    def test_tsvd_tie_breaks_toward_positive(self):
        # exact magnitude tie, built directly so no eigensolve noise breaks it
        core = error_core(np.diag([1.5, 0.5, 1.25]), identity_factor(3))
        assert core.thetas.tolist() == [0.5, 0.25, -0.5]
        term = tsvd_truncate(core, 1)
        assert term.D[0] == 0.5

    def test_rank_bounds(self):
        A, Q = _planted_core([0.4, -0.2, 0.1], seed=7)
        core = error_core(A, Q)
        with pytest.raises(RankError):
            bld_truncate(core, 3)
        with pytest.raises(RankError):
            tsvd_truncate(core, -1)
        with pytest.raises(RankError, match="integer"):
            bld_truncate(core, 2.5)
        assert bld_truncate(core, np.int64(2)).r == 2

    def test_orthonormal_columns(self):
        A, Q = _planted_core(np.linspace(-0.4, 2.0, 12), seed=8)
        core = error_core(A, Q)
        term = bld_truncate(core, 5)
        assert np.abs(term.V.T @ term.V - np.eye(5)).max() <= 1e-10

    def test_ic0_correction_matches_eigh_oracle(self):
        A = make_sparse_network(150, seed=20)
        Q = ic0(A)
        L = Q.to_dense()
        Y = sla.solve_triangular(L, A.to_dense(), lower=True)
        E = sla.solve_triangular(L, Y.T, lower=True) - np.eye(150)
        w, U = np.linalg.eigh(0.5 * (E + E.T))
        w, U = w[::-1], U[:, ::-1]
        r = 12
        term = bld_truncate(error_core(A, Q), r)
        sel = term.selection
        rest = np.setdiff1d(np.arange(150), sel)
        # the selected eigenvalues are separated from the rest, so the
        # selected invariant subspace, and V D V' with it, is well defined
        assert np.abs(w[sel][:, None] - w[rest][None, :]).min() > 1e-3
        oracle = (U[:, sel] * w[sel]) @ U[:, sel].T
        got = (term.V * term.D) @ term.V.T
        assert np.abs(got - oracle).max() <= 1e-10


class TestOptimalAlpha:
    def test_exact_factor_gives_one(self):
        rng = np.random.default_rng(9)
        A = random_spd(10, rng)
        core = error_core(A, cholesky(A))
        for r in (0, 3):
            assert optimal_alpha(core, bld_truncate(core, r)) == pytest.approx(1.0, abs=1e-9)

    def test_mean_of_remaining(self):
        A, Q = _planted_core([3.0, 0.5, -0.2], seed=10)
        core = error_core(A, Q)
        term = bld_truncate(core, 1)
        assert optimal_alpha(core, term) == pytest.approx((1.5 + 0.8) / 2.0, rel=1e-9)

    def test_three_expressions_agree(self):
        A = make_sparse_network(60, seed=11)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 6)
        a1 = optimal_alpha(core, term)
        # trace(P^-1 A) route
        P = Preconditioner(core.factor, term, 1.0)
        n = 60
        tr = sum(float(np.eye(n)[:, i] @ P.apply_inverse(A.matvec(np.eye(n)[:, i]))) for i in range(n))
        a2 = (tr - term.r) / (n - term.r)
        # trace((I+E)(I - VV')) route
        E = np.zeros((n, n))
        E[np.diag_indices(n)] = 0.0
        W = np.eye(n) - term.V @ term.V.T
        U = core.eig.vectors_at(np.arange(n))
        IE = (U * (1.0 + core.thetas)) @ U.T
        a3 = float(np.trace(IE @ W)) / (n - term.r)
        assert a2 == pytest.approx(a1, rel=1e-10)
        assert a3 == pytest.approx(a1, rel=1e-10)


class TestPreconditionerApply:
    def test_identity(self):
        P = Preconditioner(identity_factor(4), _empty_term(4), 1.0)
        x = np.arange(1.0, 5.0)
        np.testing.assert_allclose(P.apply_inverse(x), x)

    def test_scalar_alpha(self):
        P = Preconditioner(identity_factor(4), _empty_term(4), 2.0)
        x = np.arange(1.0, 5.0)
        np.testing.assert_allclose(P.apply_inverse(x), x / 2.0)

    def test_roundtrip_with_low_rank(self):
        A = make_sparse_network(50, seed=12)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 5)
        P = Preconditioner(core.factor, term, optimal_alpha(core, term))
        rng = np.random.default_rng(13)
        x = rng.standard_normal(50)
        np.testing.assert_allclose(P.dense() @ P.apply_inverse(x), x, rtol=1e-9, atol=1e-11)

    def test_alpha_one_matches_plain_correction(self):
        A, Q = _planted_core([0.6, -0.3, 0.2, 0.05], seed=14)
        core = error_core(A, Q)
        term = bld_truncate(core, 2)
        P = Preconditioner(Q, term, 1.0)
        direct = Q.to_dense() @ (np.eye(4) + (term.V * term.D) @ term.V.T) @ Q.to_dense().T
        np.testing.assert_allclose(P.dense(), direct, rtol=1e-12, atol=1e-13)

    def test_dense_holds_one_update_beside_its_result(self):
        # the result and one n x n rank-r update are live at the peak, about
        # 2.05 n x n doubles; a third n x n temporary would exceed the bound
        n, r = 900, 30
        A = make_sparse_network(n, seed=18)
        rng = np.random.default_rng(19)
        V = np.linalg.qr(rng.standard_normal((n, r)))[0]
        term = LowRankTerm(r=r, V=V, D=rng.uniform(-0.5, 2.0, r), selection=np.arange(r))
        P = Preconditioner(ic0(A), term, 1.3)
        tracemalloc.start()
        try:
            P.dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (8 * n * n)

    def test_inv_sqrt_composition(self):
        A = make_sparse_network(40, seed=15)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 4)
        P = Preconditioner(core.factor, term, 1.3)
        rng = np.random.default_rng(16)
        x = rng.standard_normal(40)
        # C^-T C^-1 = P^-1 for the split square factor C
        via_split = P.apply_inv_sqrt_t(P.apply_inv_sqrt(x))
        np.testing.assert_allclose(via_split, P.apply_inverse(x), rtol=1e-11, atol=1e-13)


class TestShapes:
    @pytest.mark.parametrize("V, D, selection, named", [
        (np.zeros((6, 2)), np.ones(2), np.arange(2), "V must be 2-D with r = 0 columns, got shape (6, 2)"),
        (np.zeros(6), np.zeros(0), np.arange(0), "V must be 2-D with r = 0 columns, got shape (6,)"),
        (np.zeros((6, 0)), np.ones(2), np.arange(0), "D must have r = 0 entries, got shape (2,)"),
        (np.zeros((6, 0)), np.zeros(0), np.arange(2), "selection must have r = 0 entries, got shape (2,)"),
    ], ids=["two-pairs", "vector", "D", "selection"])
    def test_term_rejects_arrays_of_another_rank(self, V, D, selection, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            LowRankTerm(r=0, V=V, D=D, selection=selection)

    def test_error_core_rejects_factor_of_another_order(self):
        with pytest.raises(ValueError, match="factor order 4 does not match the matrix order 6"):
            error_core(make_sparse_network(6, seed=0), identity_factor(4))

    @pytest.mark.parametrize("D", [np.nan, np.inf, -1.0, -2.0])
    def test_preconditioner_rejects_one_plus_D_not_finite_and_positive(self, D):
        # NaN fails every comparison, so "1 + D <= 0" alone would let it through
        term = LowRankTerm(r=1, V=np.eye(4, 1), D=np.array([D]), selection=np.zeros(1, int))
        with pytest.raises(DomainError, match="I \\+ D must be finite and positive definite"):
            Preconditioner(identity_factor(4), term, 1.0)

    def test_term_rejects_non_finite_V(self):
        # this V used to build a preconditioner whose applies were all NaN
        V = np.eye(4, 1)
        V[2, 0] = np.nan
        with pytest.raises(DomainError, match="V must be finite"):
            LowRankTerm(r=1, V=V, D=np.array([0.5]), selection=np.zeros(1, int))

    def test_preconditioner_rejects_V_of_another_order(self):
        term = LowRankTerm(r=1, V=np.eye(5, 1), D=np.ones(1), selection=np.zeros(1, int))
        with pytest.raises(ValueError, match="got 5 rows for a factor of order 6"):
            Preconditioner(identity_factor(6), term, 2.0)


class TestMiddleSolve:
    def test_rank_zero_is_a_plain_scaling(self):
        P = Preconditioner(identity_factor(6), _empty_term(6), 2.5)
        y = np.random.default_rng(20).standard_normal(6)
        for a in (2.5, np.sqrt(2.5)):
            np.testing.assert_array_equal(P._middle_solve(y, a, np.ones(0)), y / a)

    def test_matches_the_two_term_form(self):
        A = make_sparse_network(50, seed=21)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 4)
        P = Preconditioner(core.factor, term, 1.7)
        y = np.random.default_rng(22).standard_normal(50)
        V, d = term.V, 1.0 + term.D
        t = V.T @ y
        np.testing.assert_allclose(P._middle_solve(y, 1.7, d), (y - V @ t) / 1.7 + V @ (t / d),
                                   rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("r", [0, 5])
    def test_inverse_undoes_apply(self, r):
        A = make_sparse_network(50, seed=23)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, r)
        P = Preconditioner(core.factor, term, optimal_alpha(core, term))
        x = np.random.default_rng(24).standard_normal(50)
        np.testing.assert_allclose(P.dense() @ P.apply_inverse(x), x, rtol=1e-9, atol=1e-11)


class TestBlockRightHandSides:
    def test_block_equals_columns(self):
        A = make_sparse_network(60, seed=18)
        core = error_core(A, ic0(A))
        r = 3
        term = bld_truncate(core, r)
        P = Preconditioner(core.factor, term, optimal_alpha(core, term))
        rng = np.random.default_rng(19)
        for k in (r, r + 1):
            X = rng.standard_normal((60, k))
            for method in (P.apply_inverse, P.apply_inv_sqrt, P.apply_inv_sqrt_t):
                cols = np.column_stack([method(X[:, j]) for j in range(k)])
                np.testing.assert_allclose(method(X), cols, rtol=1e-13,
                                           atol=1e-13 * np.abs(cols).max())


def _empty_term(n):
    from bld_kaporin.precond import LowRankTerm

    return LowRankTerm(r=0, V=np.zeros((n, 0)), D=np.zeros(0), selection=np.zeros(0, dtype=int))


class TestAlphaFunctionals:
    def setup_method(self):
        # remaining spectrum (1.5, 0.5) after the BLD pick of theta = 3
        self.A, self.Q = _planted_core([3.0, 0.5, -0.5], seed=17)
        self.core = error_core(self.A, self.Q)
        self.term = bld_truncate(self.core, 1)
        assert self.term.D[0] == pytest.approx(3.0, rel=1e-9)

    def test_divergence_at_alpha_star(self):
        a_star = optimal_alpha(self.core, self.term)
        assert a_star == pytest.approx(1.0, rel=1e-9)
        d = divergence_alpha(self.core, self.term, a_star)
        assert d == pytest.approx(-math.log(0.75), rel=1e-9)

    def test_divergence_zero_core(self):
        rng = np.random.default_rng(18)
        A = random_spd(8, rng)
        core = error_core(A, cholesky(A))
        term = bld_truncate(core, 2)
        assert divergence_alpha(core, term, 1.0) <= 1e-12
        for alpha in (0.5, 2.0):
            expected = 6 * (1.0 / alpha + math.log(alpha) - 1.0)
            assert divergence_alpha(core, term, alpha) == pytest.approx(expected, rel=1e-7)

    def test_strict_convexity_off_minimum(self):
        a_star = optimal_alpha(self.core, self.term)
        d_star = divergence_alpha(self.core, self.term, a_star)
        assert divergence_alpha(self.core, self.term, 2 * a_star) > d_star
        assert divergence_alpha(self.core, self.term, a_star / 2) > d_star

    def test_ln_kaporin_equals_divergence_at_star(self):
        a_star = optimal_alpha(self.core, self.term)
        d = divergence_alpha(self.core, self.term, a_star)
        lk = ln_kaporin_alpha(self.core, self.term, a_star)
        assert lk == pytest.approx(-math.log(0.75), rel=1e-9)
        assert lk == pytest.approx(d, abs=1e-10)

    def test_ln_kaporin_logdet_route(self):
        a_star = optimal_alpha(self.core, self.term)
        P1 = Preconditioner(self.Q, self.term, 1.0)
        route = -preconditioned_logdet(self.A, P1) + 2 * math.log(a_star)
        assert ln_kaporin_alpha(self.core, self.term, a_star) == pytest.approx(route, abs=1e-10)

    def test_kappa2_flat_and_outside(self):
        for alpha in (0.5, 1.0, 1.5):
            assert kappa2_alpha(self.core, self.term, alpha) == pytest.approx(3.0, rel=1e-12)
        assert kappa2_alpha(self.core, self.term, 3.0) == pytest.approx(6.0, rel=1e-12)
        assert kappa2_alpha(self.core, self.term, 0.25) == pytest.approx(6.0, rel=1e-12)

    def test_flat_interval_values(self):
        lo, hi = flat_interval(self.core, self.term)
        assert (lo, hi) == (pytest.approx(0.5, rel=1e-9), pytest.approx(1.5, rel=1e-9))

    def test_alpha_domain(self):
        for alpha in (0.0, -1.0, math.nan, math.inf):
            for f in (divergence_alpha, ln_kaporin_alpha, kappa2_alpha):
                with pytest.raises(DomainError, match="alpha must be finite and positive"):
                    f(self.core, self.term, alpha)
            with pytest.raises(DomainError, match="alpha must be finite and positive"):
                Preconditioner(self.Q, self.term, alpha)


def _masked_rest(core, term):
    """The unselected 1 + theta by an explicit mask, the reference for rest()."""
    mask = np.ones(core.n, dtype=bool)
    mask[term.selection] = False
    return 1.0 + core.thetas[mask]


def _per_index_functionals(core, term, alpha):
    """alpha*, D, ln K, [l, L] and kappa2 summed index by index over the
    masked spectrum: the evaluation the closed forms over RestStats replace."""
    rem = _masked_rest(core, term)
    ratios = rem / alpha
    spec = np.concatenate((np.ones(term.r), ratios))
    lo, hi = float(rem.min()), float(rem.max())
    return {
        "alpha_star": float(np.mean(rem)),
        "d_ld": max(0.0, float(np.sum(ratios - np.log(ratios) - 1.0))),
        "ln_k": max(0.0, ln_kaporin_k(float(np.sum(spec)), float(np.sum(np.log(spec))), core.n)),
        "interval": (lo, hi),
        "kappa2": float(spec.max() / spec.min()),
    }


class TestRestStats:
    def setup_method(self):
        self.A = make_sparse_network(80, seed=23)
        self.core = error_core(self.A, ic0(self.A))

    @pytest.mark.parametrize("truncate", [bld_truncate, tsvd_truncate])
    @pytest.mark.parametrize("r", [0, 79])
    def test_matches_masked_eigenvalues(self, truncate, r):
        term = truncate(self.core, r)
        rest = self.core.rest(term)
        oracle = _masked_rest(self.core, term)
        assert isinstance(rest, RestStats)
        assert (rest.n, rest.r) == (80, r) and oracle.size == 80 - r
        assert rest.total == pytest.approx(float(np.sum(oracle)), rel=1e-12)
        assert rest.logsum == pytest.approx(float(np.sum(np.log(oracle))), rel=1e-12)
        assert (rest.lo, rest.hi) == (oracle.min(), oracle.max())

    def test_nothing_unselected_is_rank_error(self):
        n = self.core.n
        every = LowRankTerm(r=n, V=np.zeros((n, n)), D=np.zeros(n), selection=np.arange(n))
        with pytest.raises(RankError):
            self.core.rest(every)
        with pytest.raises(RankError):
            optimal_alpha(self.core, every)

    def test_alpha_star_gives_trace_n(self):
        for r in (0, 8, 40, 79):
            term = bld_truncate(self.core, r)
            tr, _ = self.core.rest(term).trace_logdet(optimal_alpha(self.core, term))
            assert abs(tr - 80) <= 1e-12 * 80

    def test_rank_zero_kappa2_matches_dense_spectrum(self):
        # with no correction P_alpha = alpha QQ', and rescaling P leaves the
        # condition number alone, also for alpha outside the flat interval
        term = bld_truncate(self.core, 0)
        rest = self.core.rest(term)
        for alpha in (rest.lo / 3.0, 3.0 * rest.hi):
            P = Preconditioner(self.core.factor, term, alpha)
            spec = preconditioned_spectrum(self.A, P.dense())
            assert kappa2_alpha(self.core, term, alpha) == pytest.approx(
                spec.max() / spec.min(), rel=1e-12)

    def test_trace_logdet_rejects_nonpositive_alpha(self):
        rest = self.core.rest(bld_truncate(self.core, 8))
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                rest.trace_logdet(alpha)

    def test_functionals_match_per_index_sums(self):
        for r in (0, 8, 20):
            term = bld_truncate(self.core, r)
            a_star = optimal_alpha(self.core, term)
            for alpha in (0.5 * a_star, a_star, 1.0, 2.0 * a_star):
                ref = _per_index_functionals(self.core, term, alpha)
                assert a_star == pytest.approx(ref["alpha_star"], rel=1e-12)
                assert divergence_alpha(self.core, term, alpha) == pytest.approx(ref["d_ld"], rel=1e-12)
                assert ln_kaporin_alpha(self.core, term, alpha) == pytest.approx(ref["ln_k"], rel=1e-12)
                assert flat_interval(self.core, term) == ref["interval"]
                assert kappa2_alpha(self.core, term, alpha) == pytest.approx(ref["kappa2"], rel=1e-12)


class TestInvariantsOnRandomInstances:
    def test_grid_optimality_and_four_way(self):
        for seed in range(6):
            A = make_sparse_network(45 + 5 * seed, seed=100 + seed)
            n = A.n
            core = error_core(A, ic0(A))
            for r in (0, n // 10, n // 4):
                term = bld_truncate(core, r)
                a_star = optimal_alpha(core, term)
                d_star = divergence_alpha(core, term, a_star)
                grid = np.geomspace(a_star / 4, a_star * 4, 101)
                dvals = np.array([divergence_alpha(core, term, a) for a in grid])
                assert dvals.min() >= d_star - 1e-12
                off = grid[np.abs(grid - a_star) > 1e-3 * a_star]
                assert all(divergence_alpha(core, term, a) > d_star for a in off)
                # four-way identity
                lk = ln_kaporin_alpha(core, term, a_star)
                P_star = Preconditioner(core.factor, term, a_star)
                P_one = Preconditioner(core.factor, term, 1.0)
                neg_ld = -preconditioned_logdet(A, P_star)
                via = -preconditioned_logdet(A, P_one) + (n - r) * math.log(a_star)
                vals = [d_star, lk, neg_ld, via]
                assert max(vals) - min(vals) <= 1e-9 * max(abs(d_star), 1.0)

    def test_alpha_star_inside_interval(self):
        for seed in range(6):
            A = make_sparse_network(40, seed=200 + seed)
            core = error_core(A, ic0(A))
            term = bld_truncate(core, 6)
            lo, hi = flat_interval(core, term)
            a_star = optimal_alpha(core, term)
            assert lo <= a_star <= hi

    def test_bld_beats_tsvd_every_rank(self):
        for seed in range(5):
            A, Q = _planted_core(np.random.default_rng(300 + seed).uniform(-0.6, 2.0, 14), seed=seed)
            core = error_core(A, Q)
            for r in range(14):
                d_bld = divergence_alpha(core, bld_truncate(core, r), 1.0)
                d_tsvd = divergence_alpha(core, tsvd_truncate(core, r), 1.0)
                assert d_bld <= d_tsvd + 1e-12

    def test_dense_divergence_consistency(self):
        A = make_sparse_network(35, seed=400)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 5)
        for alpha in (0.8, 1.0, optimal_alpha(core, term)):
            P = Preconditioner(core.factor, term, alpha)
            d_dense = bregman_logdet(A.to_dense(), P.dense())
            assert d_dense == pytest.approx(divergence_alpha(core, term, alpha), rel=1e-8)

    def test_quadratic_error_order(self):
        rng = np.random.default_rng(500)
        n = 30
        X = rng.standard_normal((n, n))
        X = 0.5 * (X + X.T)
        X /= np.abs(np.linalg.eigvalsh(X)).max()
        assert abs(np.trace(X)) > 0.25
        eps_list = [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]
        errs = []
        for eps in eps_list:
            A = np.eye(n) + eps * X
            core = error_core(A, identity_factor(n))
            term = bld_truncate(core, 0)
            errs.append(abs(ln_kaporin_alpha(core, term, 1.0) - divergence_alpha(core, term, 1.0)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_sym_operator_matches_dense_similarity(self):
        A = make_sparse_network(30, seed=600)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 4)
        P = Preconditioner(core.factor, term, 1.2)
        op = sym_preconditioned_operator(A, P)
        M = np.column_stack([op(e) for e in np.eye(30)])
        Pd = P.dense()
        ref_spec = np.sort(np.linalg.eigvalsh(0.5 * (M + M.T)))
        direct = np.sort(np.real(np.linalg.eigvals(np.linalg.solve(Pd, A.to_dense()))))
        np.testing.assert_allclose(ref_spec, direct, rtol=1e-8, atol=1e-10)

    def test_sym_operator_rejects_preconditioner_of_other_order(self):
        A = make_sparse_network(8, seed=601)
        core = error_core(A, ic0(A))
        P = Preconditioner(core.factor, bld_truncate(core, 2), 1.0)
        with pytest.raises(ValueError, match="matching order, got 6 and 8"):
            sym_preconditioned_operator(make_sparse_network(6, seed=601), P)


class TestScaleToUnitTrace:
    def test_already_normalized(self):
        A = np.diag([1.5, 0.5])
        c, cP = scale_to_unit_trace(A, np.eye(2))
        assert c == pytest.approx(1.0, rel=1e-12)

    def test_half_matrix(self):
        rng = np.random.default_rng(19)
        A = random_spd(9, rng)
        c, cP = scale_to_unit_trace(A, A / 2.0)
        assert c == pytest.approx(2.0, rel=1e-10)
        np.testing.assert_allclose(cP, A, rtol=1e-10)
        assert bregman_logdet(A, cP) <= 1e-9

    def test_postconditions_random(self):
        rng = np.random.default_rng(20)
        from bld_kaporin.divergence import ln_kaporin_k, preconditioned_spectrum

        for _ in range(8):
            n = int(rng.integers(3, 25))
            A, P = random_spd(n, rng), random_spd(n, rng)
            c, cP = scale_to_unit_trace(A, P)
            spec = preconditioned_spectrum(A, cP)
            assert spec.sum() == pytest.approx(n, rel=1e-10)
            d = bregman_logdet(A, cP)
            lk = ln_kaporin_k(spec.sum(), np.log(spec).sum(), n)
            assert d == pytest.approx(lk, abs=1e-10 * n)
