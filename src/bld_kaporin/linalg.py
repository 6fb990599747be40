"""Dense symmetric eigendecomposition, Cholesky / IC(0) factorizations,
triangular solves, a sparse SPD LU with its log-determinant, and Lanczos
tridiagonalization.

Dense kernels are delegated to LAPACK through scipy.  The eigensolver
keeps one Householder tridiagonal reduction (``dsytrd``): every eigenvalue
comes from the tridiagonal, and eigenvectors are formed only for the
indices a caller asks for, by solving the tridiagonal for them and
back-transforming with the stored reflectors (``dormqr``).  Every factor,
dense or sparse, is stored as a CSR lower triangle; its triangular solves
go through one SuperLU handle built when the factor is made.  The
zero-fill incomplete Cholesky and the Lanczos recurrence are implemented
here because their contracts (pattern equality, shift reporting, breakdown
flags) are part of this package's surface.  Lanczos runs in one of two
regimes.  It first keeps no basis, only the last two Lanczos vectors,
while Simon's omega-recurrence estimates that orthogonality has been lost
by no more than SEMI_ORTH_TOL = sqrt(eps); a run that passes that level
is rerun from the same start with full reorthogonalization, a kept basis
against which every new vector is swept twice.  Either regime hands back
only the tridiagonal; the rerun's basis is freed with the run.  A caller's
predicate may end a run early, after any step.

Memory: the dense kernels work in blocks of PANEL = 64 columns, so none
holds more than two n x n arrays at once, most hold one, and a kernel's
work space beside them is a few n x PANEL arrays.  tri_solve solves a wide
right-hand side a panel at a time, into one new output or in place
(out=b); sym_eig and spd_cholesky check and symmetrize a dense copy
of their input in place, a pair of blocks at a time (matio._symmetrized),
and LAPACK then overwrites that copy; sym_eig(S, overwrite=True) does so
in S itself, with no copy; vectors_at applies the reflectors a panel at a
time.  sym_eig and vectors_at give the bits of the whole-matrix call, and
so does tri_solve with an IC(0) factor (see tri_solve); in place or not,
tri_solve gives the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

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
from .matio import PANEL, SparseSymMatrix, _check_lower, _symmetrized, as_dense, as_sparse

# Estimated loss of orthogonality up to which lanczos keeps no basis: below
# it the tridiagonal is, to working precision, that of an orthogonal run.
SEMI_ORTH_TOL = math.sqrt(np.finfo(np.float64).eps)

# dormqr's block size: it applies reflectors in blocks of this many, and a
# set of at most this many unblocked.  PANEL is a multiple of it, so that
# the reflectors applied a panel at a time form the same blocks, and the
# same arithmetic, as one call over all of them.
_DORMQR_NB = 32

__all__ = [
    "LowerTriFactor",
    "EigenDecomposition",
    "LanczosResult",
    "cholesky",
    "spd_cholesky",
    "spd_splu",
    "ic0",
    "identity_factor",
    "sym_eig",
    "tri_solve",
    "lanczos",
]


@dataclass(frozen=True)
class LowerTriFactor:
    """Lower-triangular factor Q with QQ^T approximating (or equal to) A.

    shift records the relative diagonal boost that was needed to complete
    an ic0 run (0 when none was).  values holds Q as float64 CSR, and a
    float64 CSR argument is kept, not copied; it gives the order n.  A
    non-square values, or one storing an entry above the diagonal or a
    non-finite entry, raises ValueError naming it.  A SuperLU handle on it
    is built once here and serves every triangular solve.
    """

    values: sp.csr_matrix = field(repr=False)
    shift: float = 0.0
    _lu: SuperLU = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = sp.csr_matrix(self.values, dtype=np.float64)
        if values.shape[0] != values.shape[1]:
            raise ValueError(f"factor must be square, got shape {values.shape}")
        _check_lower(values)
        bad = np.flatnonzero(~np.isfinite(values.data))
        if bad.size:
            row = np.searchsorted(values.indptr, bad[0], side="right") - 1
            raise ValueError(f"factor has a non-finite entry at (row, col) = "
                             f"({row}, {values.indices[bad[0]]})")
        if np.any(values.diagonal() <= 0):
            raise SingularFactorError("factor has a nonpositive diagonal entry")
        object.__setattr__(self, "values", values)
        # natural column order and no row pivoting keep both permutations the
        # identity: SuperLU splits Q into its unit lower part and diagonal
        # with no fill, and its solves are plain substitutions with Q.  Q is
        # already triangular, so the factorization eliminates nothing, and a
        # one-column panel keeps its work space small; the solves' bits are
        # those of the default panel
        lu = splu(values.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  panel_size=1, options={"Equil": False})
        object.__setattr__(self, "_lu", lu)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def diagonal(self) -> np.ndarray:
        return self.values.diagonal()

    @property
    def nnz(self) -> int:
        return int(self.values.nnz)

    def to_dense(self) -> np.ndarray:
        return self.values.toarray()

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
    eigenvector columns matching values[idx]; no n x n eigenvector array
    is ever kept.
    """

    values: np.ndarray
    c: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.size

    def tridiagonal_vectors(self, idx) -> np.ndarray:
        """Eigenvectors of T for values[idx], as an n x len(idx) array.

        Each span of requested indices is one tridiagonal solve.
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
        return np.hstack(parts)[:, cols] if parts else np.empty((n, 0))

    def vectors_at(self, idx) -> np.ndarray:
        """Eigenvectors for values[idx] as a C-contiguous n x len(idx) array.

        The tridiagonal_vectors(idx) columns share one back-transform,
        H = diag(1, H_1 ... H_{n-1}).  It runs over panels of PANEL
        reflectors, last panel first; panel [j, k) changes rows j+1.. only,
        and each dormqr call copies only its own panel of c.  So beside c
        the back-transform holds an n x PANEL copy and the n x len(idx)
        columns, not a second n x n array, and its bits are those of one
        dormqr call over all n-1 reflectors.
        """
        X = np.ascontiguousarray(self.tridiagonal_vectors(idx))
        k = self.n - 1
        if k < 1 or not X.shape[1]:
            return X
        starts = list(range(0, k, PANEL))
        # a last panel of at most _DORMQR_NB reflectors would go unblocked
        if len(starts) > 1 and k - starts[-1] <= _DORMQR_NB:
            starts.pop()
        for j, end in reversed(list(zip(starts, starts[1:] + [k]))):
            # reflector i of the panel has its unit entry in row i of a
            a = np.asfortranarray(self.c[1 + j:, j:end])
            tau = self.tau[j:end]
            lwork = lapack.dormqr("L", "N", a, tau, X[1 + j:], lwork=-1)[1][0]
            X[1 + j:] = lapack.dormqr("L", "N", a, tau, X[1 + j:], lwork=int(lwork))[0]
        return X


@dataclass(frozen=True)
class LanczosResult:
    """The Lanczos tridiagonal after m steps, and nothing else: its
    diagonal alphas (length m) and off-diagonal betas (length m-1, strictly
    positive up to any breakdown).  breakdown is True when the recurrence
    exhausted the Krylov space before the requested step count.  rerun is
    True when the basis-free run lost semi-orthogonality and the
    tridiagonal comes from the rerun with full reorthogonalization.  m, the
    steps taken, is the length of alphas: fewer than asked after a
    breakdown or a caller's stop.
    """

    alphas: np.ndarray
    betas: np.ndarray
    breakdown: bool
    rerun: bool

    @property
    def m(self) -> int:
        return self.alphas.size


def spd_cholesky(X, what="matrix") -> np.ndarray:
    """The package's one dense Cholesky: SPD X's lower factor, F-ordered.

    Asymmetric X raises ValueError, a nonpositive pivot
    NotPositiveDefiniteError naming `what`.  X is never changed:
    as_dense(X, copy=True) gives one dense copy of it (a sparse X's dense
    form is that copy), _symmetrized checks and symmetrizes the copy in
    place, and dpotrf factors it in place, its upper triangle zeroed.  So
    the factor is the only n x n array that X costs.
    """
    a = as_dense(X, copy=True)
    _symmetrized(a, out=a)
    L, info = lapack.dpotrf(_f_view(a), lower=1, clean=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"{what} is not positive definite (leading minor of order {info})")
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    return L


def spd_splu(A) -> tuple[SuperLU, float]:
    """SuperLU's sparse LU of an SPD matrix, and log det A from its pivots.

    A is a SparseSymMatrix only; its two triangles (A.full) are read in
    place and factored in symmetric mode: minimum-degree ordering on
    A^T + A, diagonal pivots (diag_pivot_thresh=0) and no equilibration,
    so P^T A P = L U with U's diagonal the pivots of P^T A P = L D L^T.  A
    non-positive pivot, an off-diagonal one (perm_r is not perm_c) or an
    exactly singular A raises NotPositiveDefiniteError.  The handle's solve
    applies A^-1.
    """
    full = A.full                         # symmetric: its CSR arrays are its CSC ones
    csc = sp.csc_matrix((full.data, full.indices, full.indptr), shape=full.shape)
    try:
        lu = splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True, "Equil": False})
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0.0)):
        raise NotPositiveDefiniteError("matrix is not positive definite: "
                                       "a sparse LU pivot is not positive")
    return lu, float(np.sum(np.log(pivots)))


def _f_view(S: np.ndarray) -> np.ndarray:
    """An exactly symmetric S as an F-ordered array of the same memory
    where it has one: its transpose, if S is C-ordered."""
    return S.T if S.flags.c_contiguous and not S.flags.f_contiguous else S


def cholesky(A) -> LowerTriFactor:
    """Exact dense Cholesky factor of an SPD matrix: spd_cholesky as a factor.

    The dense factor is turned into CSR a row panel at a time and dropped
    before the panels are stacked, so it and a whole-matrix conversion's
    index temporaries are never live together.
    """
    L = spd_cholesky(A)
    panels = [sp.csr_matrix(L[i:i + PANEL]) for i in range(0, L.shape[0], PANEL)]
    del L
    values = sp.vstack(panels, format="csr")
    del panels
    return LowerTriFactor(values)


def identity_factor(n: int) -> LowerTriFactor:
    """Factor of the identity; P = QQ^T = I."""
    return LowerTriFactor(sp.identity(n, format="csr"))


def ic0(A: SparseSymMatrix) -> LowerTriFactor:
    """Zero-fill incomplete Cholesky on the lower-triangle pattern of A.

    On pivot breakdown the factorization restarts on A + beta*diag(A)
    with beta doubling from 1e-3; the shift that succeeded is recorded
    on the factor.  Breakdown persisting past beta = 1 raises
    FactorizationError.

    The loop runs over flat raw buffers: memoryviews of the lower CSR's
    own indptr, indices and data, and each attempt overwrites a fresh copy
    of data entry by entry.  So every access is a Python int or float, not
    a numpy scalar, and no per-row array is built.  A is read by
    matio.as_sparse; its lower triangle is a canonical float64 CSR
    (SparseSymMatrix), and the factor keeps its pattern, indices and
    indptr.
    """
    A = as_sparse(A)
    if np.any(A.diagonal() <= 0):
        raise NotPositiveDefiniteError("ic0 requires a strictly positive diagonal")
    lower = A.lower
    ptr, col = memoryview(lower.indptr), memoryview(lower.indices)
    beta = 0.0
    while (val := _ic0_attempt(ptr, col, lower.data, beta)) is None:
        beta = 1e-3 if beta == 0.0 else 2.0 * beta
        if beta > 1.0:
            raise FactorizationError("ic0 breakdown persists past shift 1.0")
    L = sp.csr_matrix((val, lower.indices, lower.indptr), shape=(A.n, A.n))
    return LowerTriFactor(L, shift=beta)


def _ic0_attempt(ptr: memoryview, col: memoryview, data: np.ndarray, beta: float):
    """One IC(0) pass over the lower CSR (ptr, col, data) of A, sorted by
    column within each row; returns the factor's values in the same
    layout as a new array, or None on breakdown.

    Entry p of row i holds A's entry until its turn, then the factor's.
    For the pair (i, j) the sum over the common columns k < j of
    l_ik l_jk accumulates in ascending k from 0.0, and is subtracted from
    a_ij (a_ii (1 + beta) on the diagonal) in one step.
    """
    out = data.copy()
    val = memoryview(out)
    for i in range(len(ptr) - 1):
        start, end = ptr[i], ptr[i + 1]
        if start == end or col[end - 1] != i:
            return None  # structurally missing diagonal: unrecoverable by shift
        for p in range(start, end):
            j = col[p]
            s = val[p] * (1.0 + beta) if j == i else val[p]
            # merge the sorted patterns of rows i and j up to column j;
            # row j's diagonal sits at its end, position diag
            a, b, diag = start, ptr[j], ptr[j + 1] - 1
            acc = 0.0
            while a < p and b < diag:
                ka, kb = col[a], col[b]
                if ka == kb:
                    acc += val[a] * val[b]
                    a += 1
                    b += 1
                elif ka < kb:
                    a += 1
                else:
                    b += 1
            s -= acc
            if j < i:
                val[p] = s / val[diag]
            else:
                if s <= 0.0:
                    return None
                val[p] = math.sqrt(s)
    return out


def sym_eig(S, overwrite=False) -> EigenDecomposition:
    """Eigendecomposition of a symmetric dense matrix.

    One Householder tridiagonal reduction plus every eigenvalue of the
    tridiagonal, sorted algebraically non-increasing; eigenvectors are
    formed on request (EigenDecomposition.vectors_at).  Non-finite or
    asymmetric input raises ValueError, a tridiagonal solve that fails to
    converge ConvergenceError.

    matio._symmetrized writes 0.5 (S + S^T) in place into one dense array,
    which the reduction then overwrites and the result keeps as its
    reflectors.  By default that array is a copy and S is never changed.
    With overwrite=True the contents of S are lost: a float64 ndarray S is
    symmetrized in place and, if C- or F-contiguous, reduced in place, so
    S costs no second n x n array.
    """
    a = as_dense(S, copy=not overwrite)
    _symmetrized(a, out=a)
    n = a.shape[0]
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    c, d, e, tau, info = lapack.dsytrd(_f_view(a), lower=1, lwork=int(lwork), overwrite_a=1)
    if info != 0:
        raise ValueError(f"dsytrd rejected argument {-info}")
    try:
        w = sla.eigvalsh_tridiagonal(d, e)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver did not converge: {exc}") from exc
    return EigenDecomposition(values=w[::-1].copy(), c=c, tau=tau, d=d, e=e)


def tri_solve(L: LowerTriFactor, b, mode="forward", out=None):
    """Solve Lx = b (forward) or L^T x = b (adjoint) with the factor's
    SuperLU handle.

    Accepts a vector or a matrix right-hand side.  A right-hand side wider
    than PANEL columns, or any given an out array, is solved a panel at a
    time, each panel read before its solution is written.  So out=b solves
    in place, and beside b and x a solve holds SuperLU's copy and work
    space for one panel only, two n x PANEL arrays.  Without out a wide
    solve writes one new F-ordered x.  Where the factor's supernodes are single columns, as in
    the IC(0) factors of the package's sparse matrices, SuperLU solves each
    column on its own and the result has the bits of a whole solve.  Wider
    supernodes (a dense Cholesky factor) go through BLAS-3 kernels, whose
    last bits depend on how many columns are solved together.
    """
    if mode not in ("forward", "adjoint"):
        raise ValueError(f"unknown mode {mode!r}")
    b = np.asarray(b, dtype=np.float64)
    trans = "N" if mode == "forward" else "T"
    if out is None:
        if b.ndim < 2 or b.shape[1] <= PANEL:
            return L._lu.solve(b, trans=trans)
        out = np.empty(b.shape, order="F")
    elif b.ndim < 2:
        out[:] = L._lu.solve(b, trans=trans)
        return out
    for j in range(0, b.shape[1], PANEL):
        out[:, j:j + PANEL] = L._lu.solve(b[:, j:j + PANEL], trans=trans)
    return out


def lanczos(apply, v0, m, stop=None) -> LanczosResult:
    """Symmetric Lanczos tridiagonalization from a unit starting vector.

    `apply` must implement a symmetric operator on n-vectors.  beta falling
    below 1e-12 * (running norm estimate) truncates the run and sets the
    breakdown flag; a non-finite alpha or beta raises DomainError.  The run
    is in one of two regimes:

    - Basis-free: the three-term recurrence holds only v_{k-1}, v_k and
      the new vector.  Each step advances Simon's recurrence for omega_i
      (Math. Comp. 1984), an estimate of |v_{k+1}' v_i| seeded at
      eps1 = eps sqrt(n) and grown by an eps1 (beta_i + beta_k) rounding
      term.  While max_i omega_i stays at most SEMI_ORTH_TOL = sqrt(eps),
      the vectors are semi-orthogonal and the tridiagonal is, to working
      precision, that of an exactly orthogonal run (Simon; Paige).  A run
      that ends there says rerun False.
    - Full reorthogonalization: once omega passes SEMI_ORTH_TOL the
      basis-free run is dropped, since past that level the quadrature of
      its tridiagonal can drift (Greenbaum, LAA 1989), and the run
      restarts from v0 keeping every Lanczos vector.  Every new vector gets
      two classical Gram-Schmidt sweeps against all the kept ones before
      its beta is measured, and the result says rerun True.

    The rerun restarts from v0, so the applies of the dropped run are paid
    twice: a run that gives up after k applies makes k + m in all, at most
    2m - 1.  With m = 30 on an IC(0)-preconditioned network matrix of
    order 2000, a run gives up after 15 or 16 applies and makes 45 or 46.

    Either way the result is the tridiagonal alone.  A rerun keeps its
    basis one Lanczos vector per row of a C-contiguous m x n array, so each
    step reads and updates contiguous rows, and frees it when it returns.

    stop, if given, is asked stop(alphas, betas) after every step k < m,
    with views of the tridiagonal so far (k alphas, k - 1 betas), before
    the step's new vector is measured.  True ends the run with those k
    steps: a stop is not a breakdown.  It is asked in order from step 1,
    and again from step 1 by a rerun, which honours it the same way.
    """
    v = np.asarray(v0, dtype=np.float64)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError("starting vector must have unit 2-norm")
    if not (isinstance(m, Integral) and m >= 1):
        raise ValueError(f"m >= 1 required, an integer, got {m!r}")
    m = min(m, v.shape[0])
    res = _lanczos_run(apply, v, m, stop, keep=False)
    return res if res is not None else _lanczos_run(apply, v, m, stop, keep=True)


def _lanczos_run(apply, v, m, stop, keep):
    """m Lanczos steps from the unit vector v, fewer on a breakdown or a
    stop (see lanczos).  keep=False holds no basis
    and returns None once omega passes SEMI_ORTH_TOL; keep=True keeps the
    basis, a local freed on return, and sweeps every new vector twice
    against it."""
    n = v.shape[0]
    basis = np.empty((m, n)) if keep else None
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    if keep:
        basis[0] = v
        v = basis[0]
    v_prev = np.zeros(n)
    beta_prev = 0.0
    norm_est = 0.0
    k_done = 0
    breakdown = False
    eps1 = np.finfo(np.float64).eps * np.sqrt(n)
    # omega[i] estimates |v_k' v_i| for the current row k, omega_prev[i]
    # the same for row k - 1
    omega = np.zeros(m)
    omega_prev = np.zeros(m)
    omega[0] = 1.0

    for k in range(m):
        w = np.asarray(apply(v), dtype=np.float64)
        alpha = float(v @ w)
        if not np.isfinite(alpha):
            raise DomainError(f"lanczos step {k}: operator returned a non-finite alpha")
        # out of place first: apply may return its argument or an array it keeps
        w = w - alpha * v
        w -= beta_prev * v_prev
        alphas[k] = alpha
        norm_est = max(norm_est, abs(alpha) + beta_prev)
        k_done = k + 1
        if k == m - 1 or (stop is not None and stop(alphas[:k_done], betas[:k])):
            break
        if keep:
            # two classical Gram-Schmidt sweeps against the kept rows
            kept = basis[: k + 1]
            for _ in range(2):
                w -= (kept @ w) @ kept
        beta = float(np.linalg.norm(w))
        if not np.isfinite(beta):
            raise DomainError(f"lanczos step {k}: operator returned a non-finite beta")
        norm_est = max(norm_est, beta)
        if beta <= 1e-12 * norm_est:
            breakdown = True
            break
        if not keep:
            # beta omega'_i = beta_i omega_{i+1} + (alpha_i - alpha) omega_i
            #                 + beta_{i-1} omega_{i-1} - beta_prev omega_prev_i
            b = betas[:k]
            t = b * omega[1:k + 1] + (alphas[:k] - alpha) * omega[:k] - beta_prev * omega_prev[:k]
            t[1:] += (b * omega[:k])[:-1]
            t += np.copysign(eps1 * (b + beta), t)
            omega_prev[:k] = t / beta
            omega_prev[k:k + 2] = eps1, 1.0
            omega, omega_prev = omega_prev, omega
            if np.abs(omega[:k + 1]).max() > SEMI_ORTH_TOL:
                return None
        betas[k] = beta
        v_prev = v
        v = np.divide(w, beta, out=basis[k + 1] if keep else None)
        beta_prev = beta

    return LanczosResult(alphas[:k_done].copy(), betas[: max(k_done - 1, 0)].copy(),
                         breakdown, rerun=keep)
