"""Dense symmetric eigendecomposition, Cholesky / IC(0) factorizations,
triangular solves, and Lanczos tridiagonalization.

Dense kernels are delegated to LAPACK through scipy.  The eigensolver
keeps one Householder tridiagonal reduction (``dsytrd``): every eigenvalue
comes from the tridiagonal, and eigenvectors are formed only for the
indices a caller asks for, by solving the tridiagonal for them and
back-transforming with the stored reflectors (``dormqr``).  Every factor,
dense or sparse, is stored as a CSR lower triangle; its triangular solves
go through one SuperLU handle built when the factor is made.  The
zero-fill incomplete Cholesky and the Lanczos recurrence are implemented
here because their contracts (pattern equality, shift reporting, breakdown
flags) are part of this package's surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import SuperLU, splu

from .errors import (
    ConvergenceError,
    DomainError,
    FactorizationError,
    NotPositiveDefiniteError,
    SingularFactorError,
)
from .matio import SparseSymMatrix

__all__ = [
    "LowerTriFactor",
    "EigenDecomposition",
    "LanczosResult",
    "cholesky",
    "ic0",
    "identity_factor",
    "sym_eig",
    "tri_solve",
    "lanczos",
]


@dataclass(frozen=True)
class LowerTriFactor:
    """Lower-triangular factor Q with QQ^T approximating (or equal to) A.

    kind is one of {"exact-cholesky", "ic0", "identity"}; shift records the
    relative diagonal boost that was needed to complete an ic0 run (0 when
    none was).  values holds the lower triangle as CSR, whatever the input
    format; a SuperLU handle on it is built once here and serves every
    triangular solve.
    """

    n: int
    kind: str
    values: sp.csr_matrix = field(repr=False)
    shift: float = 0.0
    _lu: SuperLU = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = sp.csr_matrix(sp.tril(self.values), dtype=np.float64)
        if np.any(values.diagonal() <= 0):
            raise SingularFactorError("factor has a nonpositive diagonal entry")
        object.__setattr__(self, "values", values)
        # natural column order and no row pivoting keep both permutations the
        # identity: SuperLU splits Q into its unit lower part and diagonal
        # with no fill, and its solves are plain substitutions with Q
        lu = splu(values.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"Equil": False})
        object.__setattr__(self, "_lu", lu)

    def diagonal(self) -> np.ndarray:
        return self.values.diagonal()

    @property
    def nnz(self) -> int:
        return int(self.values.nnz)

    def to_dense(self) -> np.ndarray:
        return self.values.toarray()

    def matvec(self, x, mode="forward") -> np.ndarray:
        """Apply Q (mode forward) or Q^T (mode adjoint)."""
        return (self.values @ x) if mode == "forward" else (self.values.T @ x)

    def logdet_gram(self) -> float:
        """log det(QQ^T) = 2 sum(log diag Q)."""
        return 2.0 * float(np.sum(np.log(self.diagonal())))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization S = W diag(values) W^T, held as the
    Householder reduction S = H T H^T.

    values are sorted algebraically non-increasing.  c and tau are the
    reflectors of H as ``dsytrd`` (lower) leaves them, d and e the diagonal
    and subdiagonal of T.  vectors_at(idx) forms the orthonormal
    eigenvector columns matching values[idx]; vectors is all n of them,
    formed on first use.
    """

    n: int
    values: np.ndarray
    c: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)

    @cached_property
    def vectors(self) -> np.ndarray:
        return self.vectors_at(np.arange(self.n))

    def vectors_at(self, idx) -> np.ndarray:
        """Eigenvectors for values[idx] as a C-contiguous n x len(idx) array.

        Each span of requested indices is one tridiagonal solve; all the
        columns then share one back-transform with the reflectors.
        """
        n = self.n
        # index i in non-increasing order is ascending index n-1-i
        asc, cols = np.unique(n - 1 - np.arange(n)[idx], return_inverse=True)
        w = self.values[::-1]
        # A gap in the requested indices ends a span only where the
        # eigenvalues across it lie apart: vectors from separate solves are
        # orthogonal only to about eps ||S|| / (their eigenvalue gap), and
        # equal eigenvalues could even come back as one vector twice.
        split = (np.diff(asc) > 1) & (np.diff(w[asc]) > 1e-3 * np.abs(w).max(initial=0.0))
        spans = np.split(asc, np.flatnonzero(split) + 1) if asc.size else []
        try:
            parts = [sla.eigh_tridiagonal(self.d, self.e, select="i",
                                          select_range=(span[0], span[-1]))[1][:, span - span[0]]
                     for span in spans]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"tridiagonal eigensolver did not converge: {exc}") from exc
        Z = np.hstack(parts)[:, cols] if parts else np.empty((n, 0))
        X = np.empty(Z.shape)
        X[0] = Z[0]
        if n > 1 and Z.shape[1]:
            # H = diag(1, H'), H' the product of the reflectors in c[1:, :-1];
            # one contiguous copy serves the workspace query and the product
            a = np.asfortranarray(self.c[1:, :-1])
            lwork = lapack.dormqr("L", "N", a, self.tau, Z[1:], lwork=-1)[1][0]
            X[1:] = lapack.dormqr("L", "N", a, self.tau, Z[1:], lwork=int(lwork))[0]
        return X


@dataclass(frozen=True)
class LanczosResult:
    """Tridiagonal reduction after m steps.

    alphas has length m, betas length m-1 (strictly positive up to any
    breakdown).  basis, when retained, has the m Lanczos vectors as
    columns; it is an n x m view of row-major storage, so not
    C-contiguous.  breakdown is True when the recurrence exhausted the
    Krylov space before the requested step count.
    """

    m: int
    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray | None
    breakdown: bool

    def tridiagonal(self) -> np.ndarray:
        T = np.diag(self.alphas)
        if self.m > 1:
            T += np.diag(self.betas, 1) + np.diag(self.betas, -1)
        return T


def _as_dense_sym(A) -> np.ndarray:
    if isinstance(A, SparseSymMatrix):
        return A.to_dense()
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    return A


def cholesky(A) -> LowerTriFactor:
    """Exact dense Cholesky factor of an SPD matrix.

    Raises NotPositiveDefiniteError on a nonpositive pivot.
    """
    Ad = _as_dense_sym(A)
    scale = max(np.abs(Ad).max(), 1.0)
    if np.abs(Ad - Ad.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    try:
        L = np.linalg.cholesky(0.5 * (Ad + Ad.T))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"cholesky failed: {exc}") from exc
    return LowerTriFactor(n=Ad.shape[0], kind="exact-cholesky", values=L)


def identity_factor(n: int) -> LowerTriFactor:
    """Factor of the identity; P = QQ^T = I."""
    return LowerTriFactor(n=n, kind="identity", values=sp.identity(n, format="csr"))


def ic0(A: SparseSymMatrix) -> LowerTriFactor:
    """Zero-fill incomplete Cholesky on the lower-triangle pattern of A.

    On pivot breakdown the factorization restarts on A + beta*diag(A)
    with beta doubling from 1e-3; the shift that succeeded is recorded
    on the factor.  Breakdown persisting past beta = 1 raises
    FactorizationError.
    """
    if not isinstance(A, SparseSymMatrix):
        A = SparseSymMatrix.from_dense(A)
    if np.any(A.diagonal() <= 0):
        raise NotPositiveDefiniteError("ic0 requires a strictly positive diagonal")
    beta = 0.0
    while True:
        L = _ic0_attempt(A, beta)
        if L is not None:
            return LowerTriFactor(n=A.n, kind="ic0", shift=beta, values=L)
        beta = 1e-3 if beta == 0.0 else 2.0 * beta
        if beta > 1.0:
            raise FactorizationError("ic0 breakdown persists past shift 1.0")


def _ic0_attempt(A: SparseSymMatrix, beta: float):
    """One IC(0) pass; returns the CSR factor or None on breakdown."""
    n = A.n
    lower = A.lower.tocsr()
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    # row i of the factor shares the pattern {j : A[i,j] != 0, j <= i}
    cols = [indices[indptr[i]:indptr[i + 1]] for i in range(n)]
    vals = [data[indptr[i]:indptr[i + 1]].astype(np.float64).copy() for i in range(n)]

    for i in range(n):
        ci, vi = cols[i], vals[i]
        if len(ci) == 0 or ci[-1] != i:
            return None  # structurally missing diagonal: unrecoverable by shift
        for t in range(len(ci)):
            j = ci[t]
            # vi[t] still holds the A entry here; positions < t hold L entries
            s = vi[t] * (1.0 + beta) if j == i else vi[t]
            cj, vj = cols[j], vals[j]
            # merge the sorted patterns of rows i and j up to column j
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


def sym_eig(S) -> EigenDecomposition:
    """Eigendecomposition of a symmetric dense matrix.

    One Householder tridiagonal reduction plus every eigenvalue of the
    tridiagonal, sorted algebraically non-increasing; eigenvectors are
    formed on request (EigenDecomposition.vectors_at).  Non-finite or
    asymmetric input raises ValueError, a tridiagonal solve that fails to
    converge ConvergenceError.
    """
    S = np.asarray(S, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("square matrix required")
    scale = np.abs(S).max()
    if not np.isfinite(scale):
        raise ValueError("matrix has non-finite entries")
    if np.abs(S - S.T).max() > 1e-10 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric to 1e-10 relative")
    n = S.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    # the transpose of a fresh symmetric copy is an F-contiguous view of
    # the same matrix, so the reduction overwrites it with no n x n copy
    c, d, e, tau, info = lapack.dsytrd((0.5 * (S + S.T)).T, lower=1, lwork=int(lwork),
                                       overwrite_a=1)
    if info != 0:
        raise ValueError(f"dsytrd rejected argument {-info}")
    try:
        w = sla.eigvalsh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(n=n, values=w[::-1].copy(), c=c, tau=tau, d=d, e=e)


def tri_solve(L: LowerTriFactor, b, mode="forward"):
    """Solve Lx = b (forward) or L^T x = b (adjoint) with the factor's
    SuperLU handle.

    Accepts a vector or a matrix right-hand side.
    """
    if mode not in ("forward", "adjoint"):
        raise ValueError(f"unknown mode {mode!r}")
    return L._lu.solve(np.asarray(b, dtype=np.float64), trans="N" if mode == "forward" else "T")


def lanczos(apply, v0, m) -> LanczosResult:
    """Symmetric Lanczos tridiagonalization from a unit starting vector.

    `apply` must implement a symmetric operator on n-vectors.  Every step
    runs full reorthogonalization against the kept basis.  beta falling below
    1e-12 * (running norm estimate) truncates the run and sets the
    breakdown flag; a non-finite alpha or beta raises DomainError.

    The basis is built one Lanczos vector per row of a C-contiguous
    m x n array, so each step reads and updates contiguous rows; the
    result's n x m basis is a transposed view of it, not a copy.
    """
    v = np.asarray(v0, dtype=np.float64)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError("starting vector must have unit 2-norm")
    n = v.shape[0]
    m = int(m)
    if m < 1:
        raise ValueError("m >= 1 required")
    m = min(m, n)

    basis = np.empty((m, n))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    basis[0] = v
    v_prev = np.zeros(n)
    beta_prev = 0.0
    norm_est = 0.0
    k_done = 0
    breakdown = False

    for k in range(m):
        vk = basis[k]
        w = np.asarray(apply(vk), dtype=np.float64)
        alpha = float(vk @ w)
        if not np.isfinite(alpha):
            raise DomainError(f"lanczos step {k}: operator returned a non-finite alpha")
        # out of place first: apply may return its argument or an array it keeps
        w = w - alpha * vk
        w -= beta_prev * v_prev
        # two classical Gram-Schmidt sweeps against the kept rows
        kept = basis[: k + 1]
        for _ in range(2):
            w -= (kept @ w) @ kept
        alphas[k] = alpha
        norm_est = max(norm_est, abs(alpha) + beta_prev)
        k_done = k + 1
        if k == m - 1:
            break
        beta = float(np.linalg.norm(w))
        if not np.isfinite(beta):
            raise DomainError(f"lanczos step {k}: operator returned a non-finite beta")
        norm_est = max(norm_est, beta)
        if beta <= 1e-12 * max(norm_est, 1e-300):
            breakdown = True
            break
        betas[k] = beta
        v_prev = vk
        np.divide(w, beta, out=basis[k + 1])
        beta_prev = beta

    return LanczosResult(
        m=k_done,
        alphas=alphas[:k_done].copy(),
        betas=betas[: max(k_done - 1, 0)].copy(),
        basis=basis[:k_done].T,
        breakdown=breakdown,
    )
