import dataclasses
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

import bld_kaporin
from bld_kaporin import linalg, matio, rla
from bld_kaporin.errors import FactorizationError, NotPositiveDefiniteError, SingularFactorError
from bld_kaporin.linalg import (
    EigenDecomposition,
    LanczosResult,
    LowerTriFactor,
    cholesky,
    ic0,
    identity_factor,
    lanczos,
    spd_splu,
    sym_eig,
    tri_solve,
)
from bld_kaporin.matio import SparseSymMatrix
from bld_kaporin.pcg import SolveReport
from bld_kaporin.precond import (
    ErrorCore,
    LowRankTerm,
    Preconditioner,
    bld_truncate,
    error_core,
    sym_preconditioned_operator,
    tsvd_truncate,
)
from bld_kaporin.synth import haar_orthogonal, make_sparse_network, random_spd


class TestCholesky:
    def test_diagonal(self):
        Q = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(Q.to_dense(), np.diag([2.0, 3.0]))

    def test_two_by_two_reproduces_product(self):
        A = np.array([[4.0, 2.0], [2.0, 5.0]])
        Q = cholesky(A)
        np.testing.assert_allclose(Q.to_dense(), [[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(Q.to_dense() @ Q.to_dense().T, A, rtol=1e-14)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_random_spd_identity(self):
        rng = np.random.default_rng(0)
        for n in (5, 40, 100):
            S = random_spd(n, rng)
            L = cholesky(S).to_dense()
            assert np.abs(L @ L.T - S).max() <= 1e-10 * np.abs(S).max()

    def test_asymmetric_rejected(self):
        S = np.eye(3)
        S[2, 0] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            cholesky(S)

    def test_input_unchanged(self):
        S = random_spd(30, np.random.default_rng(3))
        for X in (S, np.asfortranarray(S)):
            before = X.copy()
            cholesky(X)
            np.testing.assert_array_equal(X, before)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory(self):
        # In a fresh process, the rise of the peak RSS over cholesky of a
        # sparse matrix at n = 1936, in units of n x n doubles.  The dense
        # copy, its full-size symmetry temporaries and a separate factor
        # alive together read 4.5; a separate symmetrized copy and a
        # whole-matrix CSR conversion read 2.58, the copy symmetrized and
        # factored in place and converted a row panel at a time 1.67.
        code = textwrap.dedent("""
            import resource
            from bld_kaporin.linalg import cholesky
            from bld_kaporin.synth import make_sparse_network
            A = make_sparse_network(1936, seed=0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            cholesky(A)
            after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            print((after - before) * 1024 / (8 * 1936**2))
        """)
        src = os.path.dirname(os.path.dirname(bld_kaporin.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert float(out.stdout) <= 2.0


def _ic0_attempt_oracle(A: SparseSymMatrix, beta: float):
    """The numpy-scalar IC(0) pass that linalg._ic0_attempt replaced, kept
    as its oracle: per-row arrays, the same arithmetic in the same order."""
    n = A.n
    lower = A.lower.tocsr()
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    cols = [indices[indptr[i]:indptr[i + 1]] for i in range(n)]
    vals = [data[indptr[i]:indptr[i + 1]].astype(np.float64).copy() for i in range(n)]

    for i in range(n):
        ci, vi = cols[i], vals[i]
        if len(ci) == 0 or ci[-1] != i:
            return None
        for t in range(len(ci)):
            j = ci[t]
            s = vi[t] * (1.0 + beta) if j == i else vi[t]
            cj, vj = cols[j], vals[j]
            a = b = 0
            acc = 0.0
            while a < t and b < len(cj) - 1:
                ka, kb = ci[a], cj[b]
                if ka == kb:
                    acc += vi[a] * vj[b]
                    a += 1
                    b += 1
                elif ka < kb:
                    a += 1
                else:
                    b += 1
            s -= acc
            if j < i:
                vi[t] = s / vals[j][-1]
            else:
                if s <= 0.0:
                    return None
                vi[t] = np.sqrt(s)
    return sp.csr_matrix(
        (np.concatenate(vals), np.concatenate(cols),
         np.concatenate(([0], np.cumsum([len(c) for c in cols])))),
        shape=(n, n),
    )


def _ic0_oracle(A: SparseSymMatrix) -> LowerTriFactor:
    """ic0's shift-retry loop around the oracle pass."""
    beta = 0.0
    while True:
        L = _ic0_attempt_oracle(A, beta)
        if L is not None:
            return LowerTriFactor(L, shift=beta)
        beta = 1e-3 if beta == 0.0 else 2.0 * beta
        if beta > 1.0:
            raise FactorizationError("ic0 breakdown persists past shift 1.0")


def _ic0_attempt_csr(A: SparseSymMatrix, beta: float):
    """linalg._ic0_attempt on A's lower CSR, as a CSR matrix or None."""
    lower = A.lower.tocsr()
    val = linalg._ic0_attempt(memoryview(lower.indptr), memoryview(lower.indices), lower.data, beta)
    if val is None:
        return None
    return sp.csr_matrix((val, lower.indices, lower.indptr), shape=lower.shape)


def _assert_same_csr(got, want):
    # data bit for bit; integer arrays by value, whatever their dtype
    assert got.data.dtype == want.data.dtype == np.float64
    np.testing.assert_array_equal(got.data.view(np.uint64), want.data.view(np.uint64))
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.indptr, want.indptr)


def _diffusion(nx: int, seed: int) -> SparseSymMatrix:
    """5-point variable-coefficient diffusion on an nx x nx grid with
    Dirichlet boundary, coefficients exp(U(-3, 3))."""
    rng = np.random.default_rng(seed)
    idx = np.arange(nx * nx).reshape(nx, nx)
    horiz = np.exp(rng.uniform(-3.0, 3.0, size=(nx, nx - 1)))
    vert = np.exp(rng.uniform(-3.0, 3.0, size=(nx - 1, nx)))
    diag = np.exp(rng.uniform(-3.0, 3.0, size=(nx, nx)))
    diag[:, :-1] += horiz
    diag[:, 1:] += horiz
    diag[:-1, :] += vert
    diag[1:, :] += vert
    rows = np.concatenate((idx.ravel(), idx[:, 1:].ravel(), idx[1:, :].ravel()))
    cols = np.concatenate((idx.ravel(), idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    vals = np.concatenate((diag.ravel(), -horiz.ravel(), -vert.ravel()))
    return SparseSymMatrix.from_coo(nx * nx, rows, cols, vals)


_IC0_MATRICES = {
    "diffusion": lambda: _diffusion(30, seed=4),
    "network-80": lambda: make_sparse_network(80, seed=2),
    "network-2000": lambda: make_sparse_network(2000),
}


class TestSpdSplu:
    @pytest.mark.parametrize("A", [make_sparse_network(300, seed=2), _diffusion(12, seed=1)],
                             ids=["network", "diffusion"])
    def test_log_det_equals_the_dense_cholesky_one_and_solve_inverts(self, A):
        want = 2.0 * np.sum(np.log(cholesky(A).diagonal()))
        b = np.random.default_rng(0).standard_normal(A.n)
        lu, logdet = spd_splu(A)
        assert logdet == pytest.approx(want, rel=1e-12)
        np.testing.assert_allclose(A.matvec(lu.solve(b)), b, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("A", [
        pytest.param(np.array([[1.0, 2.0], [2.0, 1.0]]), id="negative-pivot"),
        pytest.param(np.array([[0.0, 1.0], [1.0, 0.0]]), id="off-diagonal-pivot"),
        pytest.param(np.array([[1.0, 1.0], [1.0, 1.0]]), id="singular"),
        pytest.param(np.array([[-2.0]]), id="negative-one-by-one"),
    ])
    def test_not_positive_definite_rejected(self, A):
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            spd_splu(SparseSymMatrix.from_dense(A))


class TestIc0MatchesOracle:
    @pytest.mark.parametrize("beta", [0.0, 1e-3, 0.5])
    @pytest.mark.parametrize("name", sorted(_IC0_MATRICES))
    def test_attempt_bits(self, name, beta):
        A = _IC0_MATRICES[name]()
        want = _ic0_attempt_oracle(A, beta)
        assert want is not None
        _assert_same_csr(_ic0_attempt_csr(A, beta), want)

    @pytest.mark.parametrize("name", sorted(_IC0_MATRICES))
    def test_factor_bits(self, name):
        A = _IC0_MATRICES[name]()
        got, want = ic0(A), _ic0_oracle(A)
        assert got.shift == want.shift == 0.0
        _assert_same_csr(got.values, want.values)

    def test_shifted_factor_bits(self):
        # a diffusion block whose off-diagonal couplings outweigh its
        # diagonal breaks down unshifted; the first shift that completes
        # and the factor must both be the oracle's
        A0 = _diffusion(12, seed=7)
        lo = A0.lower.tocoo()
        vals = np.where(lo.row == lo.col, lo.data, 1.6 * lo.data)
        A = SparseSymMatrix.from_coo(A0.n, lo.row, lo.col, vals)
        assert _ic0_attempt_oracle(A, 0.0) is None
        got, want = ic0(A), _ic0_oracle(A)
        assert got.shift == want.shift > 0.0
        _assert_same_csr(got.values, want.values)

    def test_persistent_breakdown_raises(self):
        # a healthy network block, then a 2 x 2 block no shift up to 1 repairs
        B = make_sparse_network(40, seed=3).to_dense()
        A = SparseSymMatrix.from_dense(
            sp.block_diag((B, np.array([[1.0, 2.0], [2.0, 1.0]]))).toarray())
        beta = 0.0
        while beta <= 1.0:
            assert _ic0_attempt_oracle(A, beta) is None
            assert _ic0_attempt_csr(A, beta) is None
            beta = 1e-3 if beta == 0.0 else 2.0 * beta
        with pytest.raises(FactorizationError):
            ic0(A)

    def test_missing_diagonal_breaks_down(self):
        lower = sp.csr_matrix(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 2.0]]))
        A = SparseSymMatrix(lower)
        assert _ic0_attempt_oracle(A, 0.0) is None
        assert _ic0_attempt_csr(A, 0.0) is None


class TestCanonicalLower:
    """SparseSymMatrix canonicalizes a CSR in a copy, so ic0, which walks
    each row as sorted and free of duplicates, reads the matrix it holds."""

    def test_reversed_rows_give_the_factor_of_the_sorted_matrix(self):
        A = make_sparse_network(50, seed=0)
        lo = A.lower
        data, indices = lo.data.copy(), lo.indices.copy()
        for i in range(A.n):
            row = slice(lo.indptr[i], lo.indptr[i + 1])
            data[row], indices[row] = data[row][::-1], indices[row][::-1]
        rev = sp.csr_matrix((data, indices, lo.indptr.copy()), shape=lo.shape)
        given = rev.copy()
        got, want = ic0(SparseSymMatrix(rev)), ic0(A)
        assert got.shift == want.shift == 0.0
        _assert_same_csr(got.values, want.values)
        _assert_same_csr(rev, given)

    def test_duplicates_summed_before_factoring(self):
        # diag(2, 2) with its (0, 0) entry stored twice, as 1 + 1
        dup = sp.csr_matrix((np.array([1.0, 1.0, 2.0]), np.array([0, 0, 1]), np.array([0, 2, 3])),
                            shape=(2, 2))
        given = dup.copy()
        got = ic0(SparseSymMatrix(dup))
        want = ic0(SparseSymMatrix.from_coo(2, [0, 0, 1], [0, 0, 1], [1.0, 1.0, 2.0]))
        assert got.shift == want.shift == 0.0
        assert got.to_dense()[0, 0] == np.sqrt(2.0)
        _assert_same_csr(got.values, want.values)
        _assert_same_csr(dup, given)

    def test_canonical_csr_kept_without_copy(self):
        lo = make_sparse_network(30, seed=1).lower
        A = SparseSymMatrix(lo)
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(A.lower, part), getattr(lo, part))


class TestIc0:
    def test_diagonal_input(self):
        A = SparseSymMatrix.from_coo(2, [0, 1], [0, 1], [2.0, 1.0])
        Q = ic0(A)
        np.testing.assert_allclose(Q.to_dense(), np.diag([np.sqrt(2.0), 1.0]))
        assert Q.shift == 0.0

    def test_full_pattern_equals_exact(self):
        rng = np.random.default_rng(1)
        S = random_spd(12, rng)
        Q_ic = ic0(SparseSymMatrix.from_dense(S))
        Q_ex = cholesky(S)
        np.testing.assert_allclose(Q_ic.to_dense(), Q_ex.to_dense(), rtol=1e-12, atol=1e-12)

    def test_dense_input_read_as_its_symmetric_part(self):
        # the symmetry rule of every dense reader: within 1e-10 relative
        # the symmetric part is factored, beyond it ValueError
        S = random_spd(12, np.random.default_rng(2))
        S[11, 0] += 1e-11 * np.abs(S).max()
        want = ic0(SparseSymMatrix.from_dense(0.5 * (S + S.T))).values
        got = ic0(S).values
        np.testing.assert_array_equal(got.toarray(), want.toarray())
        S[11, 0] += 1e-6
        with pytest.raises(ValueError, match="not symmetric to 1e-10 relative"):
            ic0(S)

    def test_pattern_matches_lower_triangle(self):
        A = make_sparse_network(200, seed=9)
        Q = ic0(A)
        assert Q.shift == 0.0
        assert Q.nnz == A.nnz_lower
        got = set(zip(*Q.values.nonzero()))
        want = set(zip(*A.lower.nonzero()))
        assert got == want

    def test_shift_recovers_breakdown(self):
        # needs (1+beta)^2 > 1.44: doubling from 1e-3 first succeeds at 0.256
        A = SparseSymMatrix.from_dense(np.array([[1.0, 1.2], [1.2, 1.0]]))
        Q = ic0(A)
        assert Q.shift == pytest.approx(0.256)
        shifted = A.to_dense() + Q.shift * np.diag(np.diag(A.to_dense()))
        np.testing.assert_allclose(Q.to_dense() @ Q.to_dense().T, shifted, rtol=1e-12)

    def test_breakdown_past_unit_shift(self):
        A = SparseSymMatrix.from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(FactorizationError):
            ic0(A)

    def test_nonpositive_diagonal_rejected(self):
        A = SparseSymMatrix.from_coo(2, [0, 1, 1], [0, 0, 1], [0.0, 1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError):
            ic0(A)

    def test_matches_dense_reference(self):
        # independent oracle: the textbook pattern-masked recurrence run
        # densely over all index pairs
        A = make_sparse_network(60, seed=17)
        Ad = A.to_dense()
        mask = np.tril(Ad) != 0.0
        n = 60
        L_ref = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1):
                if not mask[i, j]:
                    continue
                s = Ad[i, j] - np.dot(L_ref[i, :j], L_ref[j, :j])
                if j == i:
                    assert s > 0.0
                    L_ref[i, i] = np.sqrt(s)
                else:
                    L_ref[i, j] = s / L_ref[j, j]
        Q = ic0(A)
        assert Q.shift == 0.0
        np.testing.assert_allclose(Q.to_dense(), L_ref, rtol=1e-13, atol=1e-14)


class TestSymEig:
    def test_diagonal(self):
        e = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(e.values, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(e.vectors_at(np.arange(2))), np.eye(2))

    def test_offdiagonal_pair(self):
        e = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(e.values, [1.0, -1.0], atol=1e-14)

    def test_residual_invariants(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((50, 50))
        S = 0.5 * (S + S.T)
        e = sym_eig(S)
        W = e.vectors_at(np.arange(50))
        assert np.abs(W.T @ W - np.eye(50)).max() <= 1e-10
        assert np.abs(S - (W * e.values) @ W.T).max() <= 1e-8 * np.abs(S).max()
        assert np.all(np.diff(e.values) <= 1e-12)

    def test_orthogonal_similarity_spectrum(self):
        rng = np.random.default_rng(8)
        S = rng.standard_normal((30, 30))
        S = 0.5 * (S + S.T)
        Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        v1 = sym_eig(S).values
        v2 = sym_eig(Q @ S @ Q.T).values
        np.testing.assert_allclose(v1, v2, rtol=1e-8, atol=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @staticmethod
    def _check_against_eigh(S, idx):
        """values and vectors_at(idx) against a numpy eigh oracle."""
        n = S.shape[0]
        w_ref = np.linalg.eigh(S)[0][::-1]
        norm = np.abs(w_ref).max()
        e = sym_eig(S)
        assert np.abs(e.values - w_ref).max() <= 1e-12 * norm
        X = e.vectors_at(idx)
        assert X.shape == (n, len(idx))
        assert X.dtype == np.float64 and X.flags.c_contiguous
        res = np.linalg.norm(S @ X - X * e.values[idx], axis=0)
        assert res.max(initial=0.0) <= 1e-12 * norm
        assert np.abs(X.T @ X - np.eye(len(idx))).max(initial=0.0) <= 1e-12

    def test_random_against_eigh(self):
        rng = np.random.default_rng(21)
        for n in (50, 200):
            S = rng.standard_normal((n, n))
            S = 0.5 * (S + S.T)
            for idx in (list(range(n)), [7, 0, 3, 4, 5, n - 1, n - 2, 20], []):
                self._check_against_eigh(S, idx)

    def test_repeated_eigenvalues(self):
        d = np.array([3.0, 3.0, 3.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0, 0.5])
        U = haar_orthogonal(d.size, 4)
        for S in (np.diag(d), (U * d) @ U.T, np.eye(6), np.zeros((6, 6))):
            S = 0.5 * (S + S.T)
            n = S.shape[0]
            for idx in (list(range(n)), [0, 2, n - 1], []):
                self._check_against_eigh(S, idx)

    def test_orders_one_and_two(self):
        self._check_against_eigh(np.array([[-2.5]]), [0])
        S = np.array([[2.0, 1.0], [1.0, -1.0]])
        for idx in ([0, 1], [1], [1, 0], []):
            self._check_against_eigh(S, idx)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf):
            S = np.eye(3)
            S[1, 1] = bad
            with pytest.raises(ValueError):
                sym_eig(S)

    def test_asymmetry_in_last_block_rejected(self):
        n = linalg.PANEL + 10
        S = random_spd(n, np.random.default_rng(30))
        sym_eig(S)
        # both indices in the last column block: no other block reads the pair
        S[n - 1, n - 2] += 1e-6 * np.abs(S).max()
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(S)

    def test_input_unchanged_and_symmetrized(self):
        n = linalg.PANEL + 10
        S = np.random.default_rng(31).standard_normal((n, n))
        S = S + S.T
        S[0, n - 1] += 1e-13  # asymmetric within the tolerance
        want = sym_eig(0.5 * (S + S.T))
        for X in (S, np.asfortranarray(S), S.T):
            kept = X.copy()
            got = sym_eig(X)
            np.testing.assert_array_equal(X, kept)
            np.testing.assert_array_equal(got.values, want.values)
            np.testing.assert_array_equal(got.c, want.c)


    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_reduces_in_the_input(self, order):
        n = linalg.PANEL + 10
        S = np.random.default_rng(34).standard_normal((n, n))
        S = np.array(S + S.T, order=order)
        S[0, n - 1] += 1e-13  # asymmetric within the tolerance
        want = sym_eig(S)
        got = sym_eig(S, overwrite=True)
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.c, want.c)
        # the reflectors are the input's own memory: no second n x n array
        assert np.shares_memory(got.c, S)


class TestCallerArrayUnchanged:
    # Each symmetrizes, solves or factors in place only in a copy of its
    # own; the input is asymmetric within the tolerance, so symmetrizing it
    # in place would show.
    @pytest.mark.parametrize("f", [
        pytest.param(lambda X: error_core(X, ic0(make_sparse_network(300, seed=3))), id="error_core"),
        pytest.param(sym_eig, id="sym_eig"),
        pytest.param(linalg.spd_cholesky, id="spd_cholesky"),
        pytest.param(cholesky, id="cholesky"),
    ])
    def test_input_unchanged(self, f):
        A = make_sparse_network(300, seed=3).to_dense()
        A[0, 299] += 1e-13
        for X in (A, np.asfortranarray(A), A.T):
            kept = X.copy()
            f(X)
            np.testing.assert_array_equal(X, kept)


def one_call_vectors_at(e, idx):
    """Reference back-transform: one dormqr call over all n-1 reflectors."""
    Z = e.tridiagonal_vectors(idx)
    X = np.array(Z, order="C")
    if e.n > 1 and Z.shape[1]:
        a = np.asfortranarray(e.c[1:, :-1])
        lwork = lapack.dormqr("L", "N", a, e.tau, Z[1:], lwork=-1)[1][0]
        X[1:] = lapack.dormqr("L", "N", a, e.tau, Z[1:], lwork=int(lwork))[0]
    return X


class TestPanelledBackTransform:
    # 64 and 256 leave a last panel of at most 32 reflectors at n = 517
    # (and 64 at n = 130), which joins the panel before it; 96 leaves a
    # ragged last panel of 36 at n = 517
    @pytest.mark.parametrize("panel", [64, 96, 256])
    @pytest.mark.parametrize("n", [2, 3, 130, 517])
    def test_bitwise_equal_to_one_call(self, n, panel, monkeypatch):
        A = make_sparse_network(n, seed=n)
        Q = ic0(A)
        # one panel of n columns: E from whole triangular solves
        monkeypatch.setattr(linalg, "PANEL", n)
        monkeypatch.setattr(matio, "PANEL", n)
        whole = error_core(A, Q).thetas
        monkeypatch.setattr(linalg, "PANEL", panel)
        monkeypatch.setattr(matio, "PANEL", panel)
        core = error_core(A, Q)
        # IC(0) has single-column supernodes: E's bits do not depend on
        # how many columns tri_solve solves together
        np.testing.assert_array_equal(core.thetas, whole)
        r = min(50, n - 1)
        for idx in (bld_truncate(core, r).selection, tsvd_truncate(core, r).selection,
                    np.arange(n)):
            X = core.eig.vectors_at(idx)
            assert X.flags.c_contiguous
            np.testing.assert_array_equal(X, one_call_vectors_at(core.eig, idx))


class TestTriSolve:
    def test_diagonal(self):
        L = cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(tri_solve(L, [2.0, 3.0], "forward"), [1.0, 1.0])

    def test_forward(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))  # factor [[2,0],[1,2]]
        x = tri_solve(L, [2.0, 3.0], "forward")
        np.testing.assert_allclose(L.to_dense() @ x, [2.0, 3.0], rtol=1e-12)
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_adjoint(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        x = tri_solve(L, [3.0, 2.0], "adjoint")
        np.testing.assert_allclose(L.to_dense().T @ x, [3.0, 2.0], rtol=1e-12)
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_sparse_matches_dense(self):
        # every factor kind, both modes, vector, block and multi-panel
        # right-hand sides, and one ic0 factor at n > 2000
        rng = np.random.default_rng(0)
        factors = {
            "ic0": ic0(make_sparse_network(80, seed=2)),
            "exact-cholesky": cholesky(random_spd(80, rng)),
            "identity": identity_factor(80),
            "ic0-large": ic0(make_sparse_network(2100)),
        }
        for name, Q in factors.items():
            Qd = Q.to_dense()
            for mode, M in (("forward", Qd), ("adjoint", Qd.T)):
                for shape in ((Q.n,), (Q.n, 3), (Q.n, linalg.PANEL + 5)):
                    b = rng.standard_normal(shape)
                    x = tri_solve(Q, b, mode)
                    assert x.shape == b.shape
                    rel = np.linalg.norm(M @ x - b) / np.linalg.norm(b)
                    assert rel <= 1e-12, (name, mode, shape, rel)

    @pytest.mark.parametrize("mode", ["forward", "adjoint"])
    def test_panels_equal_column_solves(self, mode):
        # two full panels and a ragged third
        Q = ic0(make_sparse_network(300, seed=5))
        b = np.random.default_rng(32).standard_normal((300, 2 * linalg.PANEL + 37))
        x = tri_solve(Q, b, mode)
        assert x.shape == b.shape
        for j in range(b.shape[1]):
            np.testing.assert_array_equal(x[:, j], tri_solve(Q, b[:, j], mode))

    @pytest.mark.parametrize("mode", ["forward", "adjoint"])
    def test_one_column_panel_handle_solves_like_default(self, mode):
        # the factor's handle is built with panel_size=1; on an IC(0)
        # factor its solves have the bits of a default-panel handle
        Q = ic0(make_sparse_network(1500, seed=7))
        default = splu(Q.values.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                       options={"Equil": False})
        trans = "N" if mode == "forward" else "T"
        b = np.random.default_rng(35).standard_normal((Q.n, 5))
        for rhs in (b, b[:, 0]):
            np.testing.assert_array_equal(tri_solve(Q, rhs, mode), default.solve(rhs, trans=trans))

    @pytest.mark.parametrize("mode", ["forward", "adjoint"])
    @pytest.mark.parametrize("kind", ["ic0", "cholesky"])
    def test_in_place_equals_out_of_place(self, kind, mode):
        # n = 600 = 9*64 + 24: nine full panels and a ragged tenth; the dense
        # Cholesky factor's wide supernodes go through BLAS-3 on each panel
        A = make_sparse_network(600, seed=6)
        Q = ic0(A) if kind == "ic0" else cholesky(A)
        b = np.random.default_rng(33).standard_normal((600, 600))
        want = tri_solve(Q, b, mode)
        for B in (np.array(b, order="C"), np.array(b, order="F")):
            assert tri_solve(Q, B, mode, out=B) is B
            np.testing.assert_array_equal(B, want)
        v = b[:, 0].copy()
        assert tri_solve(Q, v, mode, out=v) is v
        np.testing.assert_array_equal(v, tri_solve(Q, b[:, 0], mode))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(SingularFactorError):
            LowerTriFactor(np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("bad, at", [(np.inf, (1, 1)), (np.nan, (2, 0)), (-np.inf, (2, 1))])
    def test_non_finite_entry_named(self, bad, at):
        # an inf pivot would solve to 0 in its component, a NaN fail in SuperLU
        dense = np.diag([1.0, 2.0, 3.0])
        dense[at] = bad
        with pytest.raises(ValueError, match=re.escape(f"non-finite entry at (row, col) = {at}")):
            LowerTriFactor(sp.csr_matrix(dense))

    @pytest.mark.parametrize("shape", [(6, 8), (8, 6)])
    def test_non_square_factor_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"must be square, got shape {shape}")):
            LowerTriFactor(np.eye(*shape))

    @pytest.mark.parametrize("build", [LowerTriFactor, SparseSymMatrix])
    def test_entry_above_diagonal_named(self, build):
        # dropping it would solve with another Q than the one given
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        dense[1, 3] = dense[2, 3] = dense[3, 0] = 0.5
        with pytest.raises(ValueError, match=re.escape("above the diagonal at (row, col) = (1, 3)")):
            build(sp.csr_matrix(dense))

    def test_lower_csr_kept_without_copy(self):
        L = cholesky(random_spd(6, np.random.default_rng(4))).values
        Q = LowerTriFactor(L)
        for part in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(Q.values, part), getattr(L, part))


class TestDerivedSizes:
    # an order or a count is read off the array it counts, so no constructor
    # takes one that could disagree with it
    @pytest.mark.parametrize("cls, size", [
        (SparseSymMatrix, "n"), (LowerTriFactor, "n"), (EigenDecomposition, "n"),
        (ErrorCore, "n"), (LanczosResult, "m"), (SolveReport, "iterations"),
    ])
    def test_size_is_not_a_field(self, cls, size):
        assert size not in {f.name for f in dataclasses.fields(cls)}


class TestLanczos:
    def test_scaled_identity_breaks_down_immediately(self):
        v0 = np.array([0.6, 0.8, 0.0])
        res = lanczos(lambda x: 3.0 * x, v0, m=5)
        assert res.breakdown
        assert res.m == 1
        np.testing.assert_allclose(res.alphas, [3.0])

    def test_full_krylov_recovers_spectrum(self):
        d = np.array([1.0, 2.0, 3.0])
        v0 = np.ones(3) / np.sqrt(3.0)
        res = lanczos(lambda x: d * x, v0, m=3)
        vals = np.sort(np.linalg.eigvalsh(_tridiagonal(res)))
        np.testing.assert_allclose(vals, [1.0, 2.0, 3.0], rtol=1e-12)

    def test_invariant_start_vector(self):
        d = np.array([2.0, 1.0])
        res = lanczos(lambda x: d * x, np.array([1.0, 0.0]), m=2)
        assert res.breakdown
        assert res.m == 1
        np.testing.assert_allclose(res.alphas, [2.0])

    def test_basis_orthonormal_and_ritz_contained(self):
        rng = np.random.default_rng(11)
        M = random_spd(60, rng, kappa=1e3)
        v0 = rng.standard_normal(60)
        v0 /= np.linalg.norm(v0)
        # the run reruns, so its tridiagonal is the reference's bit for bit,
        # and the reference's basis stands for the one the rerun freed
        res = lanczos(lambda x: M @ x, v0, m=25)
        ref, U = full_reorth_lanczos(lambda x: M @ x, v0, 25)
        assert res.rerun
        _assert_same_run(res, ref)
        assert np.abs(U.T @ U - np.eye(res.m)).max() <= 1e-10
        T = _tridiagonal(res)
        assert np.abs(U.T @ (M @ U) - T).max() <= 1e-8 * np.linalg.norm(M, 2)
        lam = np.linalg.eigvalsh(M)
        ritz = np.linalg.eigvalsh(T)
        delta = 1e-8 * np.abs(lam).max()
        assert ritz.min() >= lam.min() - delta
        assert ritz.max() <= lam.max() + delta

    def test_rerun_only_past_semi_orthogonality(self, forced_loss_operator):
        # 30 steps lose semi-orthogonality here, so the run reruns; 8 steps
        # stay semi-orthogonal and do not
        n, M = forced_loss_operator
        v0 = _unit(n, 4)
        assert lanczos(lambda x: M @ x, v0, m=30).rerun
        assert not lanczos(lambda x: M @ x, v0, m=8).rerun

    def test_result_is_the_tridiagonal_alone(self):
        fields = {f.name for f in dataclasses.fields(LanczosResult)}
        assert fields == {"alphas", "betas", "breakdown", "rerun"}
        assert not hasattr(LanczosResult, "tridiagonal")

    def test_non_unit_start_rejected(self):
        with pytest.raises(ValueError):
            lanczos(lambda x: x, np.array([1.0, 1.0]), m=2)

    def test_step_count_must_be_an_integer(self):
        v0 = np.array([0.6, 0.8])
        with pytest.raises(ValueError, match="m >= 1 required"):
            lanczos(lambda x: x, v0, m=2.5)
        assert lanczos(lambda x: np.array([2.0, 3.0]) * x, v0, m=np.int64(2)).m == 2


def full_reorth_lanczos(apply, v0, m, stop=None):
    """Reference Lanczos: two classical Gram-Schmidt sweeps at every step,
    ending early where stop(alphas, betas) says so, as lanczos does.

    Returns the result and the n x m basis U of its Lanczos vectors."""
    n = v0.shape[0]
    m = min(int(m), n)
    basis = np.empty((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    basis[0] = v0
    v_prev = np.zeros(n)
    beta_prev = norm_est = 0.0
    k_done = 0
    breakdown = False
    for k in range(m):
        vk = basis[k]
        w = np.asarray(apply(vk), dtype=np.float64)
        alpha = float(vk @ w)
        w = w - alpha * vk - beta_prev * v_prev
        kept = basis[: k + 1]
        for _ in range(2):
            w -= (kept @ w) @ kept
        alphas[k] = alpha
        norm_est = max(norm_est, abs(alpha) + beta_prev)
        k_done = k + 1
        if k == m - 1 or (stop is not None and stop(alphas[:k_done], betas[:k])):
            break
        beta = float(np.linalg.norm(w))
        norm_est = max(norm_est, beta)
        if beta <= 1e-12 * norm_est:
            breakdown = True
            break
        betas[k] = beta
        v_prev = vk
        basis[k + 1] = w / beta
        beta_prev = beta
    res = LanczosResult(alphas=alphas[:k_done], betas=betas[: max(k_done - 1, 0)],
                        breakdown=breakdown, rerun=False)
    return res, basis[:k_done].T


def full_reorth_result(apply, v0, m, stop=None) -> LanczosResult:
    """full_reorth_lanczos's result alone, in lanczos's place."""
    return full_reorth_lanczos(apply, v0, m, stop)[0]


def _tridiagonal(res) -> np.ndarray:
    T = np.diag(res.alphas)
    if res.m > 1:
        T += np.diag(res.betas, 1) + np.diag(res.betas, -1)
    return T


@pytest.fixture(scope="module")
def forced_loss_operator():
    """Dense n = 300 operator whose spectrum spans 6 decades: its extreme
    Ritz values converge fast, so the plain recurrence loses orthogonality."""
    n = 300
    W = haar_orthogonal(n, np.random.default_rng(3))
    M = (W * np.geomspace(1.0, 1e-6, n)) @ W.T
    return n, 0.5 * (M + M.T)


@pytest.fixture(scope="module")
def network_operator():
    """IC(0)-preconditioned network matrix at n = 2000: rank-0 P = QQ'."""
    n = 2000
    A = make_sparse_network(n, seed=0)
    term = LowRankTerm(r=0, V=np.empty((n, 0)), D=np.empty(0), selection=np.empty(0, dtype=int))
    return n, sym_preconditioned_operator(A, Preconditioner(ic0(A), term, 1.0))


def _unit(n, seed):
    v = np.random.default_rng(seed).standard_normal(n)
    return v / np.linalg.norm(v)


def _assert_same_run(res, ref):
    np.testing.assert_array_equal(res.alphas, ref.alphas)
    np.testing.assert_array_equal(res.betas, ref.betas)


class TestPartialReorthogonalization:
    """The basis-free regime while omega stays at most sqrt(eps), and the
    full-reorthogonalization rerun past it, against full_reorth_lanczos."""

    def test_matches_full_reorthogonalization_on_network(self, network_operator):
        # the Ritz values converge within 30 steps: the unswept three-term
        # recurrence loses orthogonality to 1e-2 here, so the run reruns,
        # and the rerun is the full-reorthogonalization run bit for bit
        n, op = network_operator
        v0 = _unit(n, 1)
        res, (ref, U) = lanczos(op, v0, 30), full_reorth_lanczos(op, v0, 30)
        assert res.m == ref.m == 30 and not res.breakdown
        assert res.rerun
        _assert_same_run(res, ref)
        assert np.abs(U.T @ U - np.eye(res.m)).max() <= 1e-10

    def test_no_sweep_while_orthogonality_holds(self):
        # an evenly spread spectrum keeps the Ritz values unconverged, so the
        # estimate stays below the threshold and the plain recurrence matches
        n = 2000
        d = np.linspace(0.01, 1.0, n)
        v0 = _unit(n, 2)
        res, ref = lanczos(lambda x: d * x, v0, 30), full_reorth_result(lambda x: d * x, v0, 30)
        assert not res.rerun
        np.testing.assert_allclose(res.alphas, ref.alphas, rtol=1e-12)
        np.testing.assert_allclose(res.betas, ref.betas, rtol=1e-12)

    def test_rerun_repeats_the_dropped_steps(self, network_operator):
        # a basis-free run makes one apply per step; a rerun restarts from v0
        # and repeats the applies of the run it dropped
        def counted(op):
            def apply(x):
                calls.append(1)
                return op(x)
            return apply

        d = np.linspace(0.01, 1.0, 2000)
        calls = []
        assert not lanczos(counted(lambda x: d * x), _unit(2000, 2), 30).rerun
        assert len(calls) == 30
        n, op = network_operator
        calls = []
        assert lanczos(counted(op), _unit(n, 1), 30).rerun
        assert 30 + 1 <= len(calls) <= 2 * 30 - 1

    def test_stop_ends_a_basis_free_run_without_a_breakdown(self):
        d = np.linspace(0.01, 1.0, 2000)
        v0 = _unit(2000, 2)
        calls = []

        def apply(x):
            calls.append(1)
            return d * x

        full = lanczos(lambda x: d * x, v0, 30)
        res = lanczos(apply, v0, 30, stop=lambda alphas, betas: alphas.size == 7)
        assert res.m == 7 and len(calls) == 7
        assert not res.breakdown and not res.rerun
        np.testing.assert_array_equal(res.alphas, full.alphas[:7])
        np.testing.assert_array_equal(res.betas, full.betas[:6])

    def test_a_rerun_is_asked_again_from_step_one(self, network_operator):
        # the basis-free run gives up after about 15 steps; the rerun asks
        # stop from step 1 again and ends at step 20, bit for bit the
        # reference stopped by the same predicate
        n, op = network_operator
        v0 = _unit(n, 1)
        asked = []

        def stop(alphas, betas):
            asked.append(alphas.size)
            assert betas.size == alphas.size - 1
            return alphas.size == 20

        res = lanczos(op, v0, 30, stop=stop)
        assert res.rerun and res.m == 20 and not res.breakdown
        gave_up = asked.index(1, 1)
        assert 1 < gave_up < 20
        assert asked == list(range(1, gave_up + 1)) + list(range(1, 21))
        _assert_same_run(res, full_reorth_result(op, v0, 30, lambda a, b: a.size == 20))

    def test_forced_loss_of_orthogonality(self, forced_loss_operator):
        n, M = forced_loss_operator
        lam = np.geomspace(1.0, 1e-6, n)
        res = lanczos(lambda x: M @ x, _unit(n, 4), 150)
        assert res.m == 150 and res.rerun
        # the rerun is the full-reorthogonalization run from the same start,
        # bit for bit
        ref, U = full_reorth_lanczos(lambda x: M @ x, _unit(n, 4), 150)
        _assert_same_run(res, ref)
        assert np.abs(U.T @ U - np.eye(res.m)).max() <= 1e-10
        assert np.abs(U.T @ U - np.eye(res.m)).max() <= 1e-13
        norm = np.linalg.norm(M, 2)
        assert np.abs(U.T @ (M @ U) - _tridiagonal(res)).max() <= 1e-8 * norm
        ritz = np.linalg.eigvalsh(_tridiagonal(res))
        assert ritz.min() >= lam.min() - 1e-8 * norm
        assert ritz.max() <= lam.max() + 1e-8 * norm

    def test_slq_per_probe_values_match_full_reorthogonalization(self, network_operator,
                                                                 monkeypatch):
        # the depth rule would stop these probes after 6 steps, before any
        # loses semi-orthogonality: off, every probe runs 30 steps and reruns
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        n, op = network_operator
        cfg = rla.ProbeConfig(m=30, n_v=4, seed=5)
        est = rla.slq_trace_logdet(op, n, cfg)
        monkeypatch.setattr(rla, "lanczos", full_reorth_result)
        ref = rla.slq_trace_logdet(op, n, cfg)
        # every probe reruns, so every probe is the reference's bit for bit
        assert est.reruns == 4
        np.testing.assert_array_equal(est.per_probe_trace, ref.per_probe_trace)
        np.testing.assert_array_equal(est.per_probe_logdet, ref.per_probe_logdet)

    def test_slq_without_reruns_matches_full_reorthogonalization(self, monkeypatch):
        # at n = 150 (rank 15) no probe's run passes sqrt(eps) in 30 steps:
        # every probe keeps no basis and still gives the swept values (the
        # depth rule, off here, would stop them after 5)
        A = make_sparse_network(150, seed=14)
        core = error_core(A, ic0(A))
        op = sym_preconditioned_operator(A, Preconditioner(core.factor, bld_truncate(core, 15), 1.0))
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        cfg = rla.ProbeConfig(m=30, n_v=30, seed=15)
        est = rla.slq_trace_logdet(op, 150, cfg)
        assert est.reruns == 0
        monkeypatch.setattr(rla, "lanczos", full_reorth_result)
        ref = rla.slq_trace_logdet(op, 150, cfg)
        np.testing.assert_allclose(est.per_probe_trace, ref.per_probe_trace, rtol=1e-12)
        np.testing.assert_allclose(est.per_probe_logdet, ref.per_probe_logdet, rtol=1e-12)
