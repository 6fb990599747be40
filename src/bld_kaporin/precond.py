"""Low-rank corrections of an approximate factorization, selected by the
log-determinant penalty, and the scaled preconditioner family P_alpha.

Given A = Q(I + E)Q^T with E = Q^-1 A Q^-T - I, a rank-r eigencorrection
keeps the r eigenpairs of E whose eigenvalues score highest under
gamma(t) = t - log(1+t) (each unselected eigenvalue contributes exactly
gamma(theta_i) to the divergence).  The orthogonal complement may be
rescaled by alpha:

    P_alpha = Q(alpha (I - V V^T) + V (I_r + D) V^T) Q^T.

alpha_star, the mean of the unselected 1 + theta_i, is the unique
divergence minimizer over alpha and makes the divergence equal the log
Kaporin condition number of the preconditioned matrix.

Memory: the error core holds the factor and A, its own SparseSymMatrix
over A's lower triangle (error_core), and no n x n array while it
answers from the ends of its spectrum.  A truncation's first ends take one sparse LU of A
(linalg.spd_splu), which gives log det A and, from a copy of its L factor,
trace(B) a PANEL of columns at a time; ARPACK then runs at most twice, once
per end, each run's work space, n x (2k + 1) for k values, freed with it,
and a truncation forms only the r eigenvectors it selects.  Only the full
spectrum forms an n x n array, one that holds every stage: the dense copy
of A, B = Q^-1 A Q^-T solved into it, E, and the reflectors of E's
eigendecomposition; the core then drops A.  A dense A stores all n^2
entries, its lower triangle and, once the core has used them, both
triangles (full), about 2.25 n x n arrays' worth, as the CLI's dense
generators' matrices do; the caller's own matrix keeps only what it had.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .divergence import gamma_map, ln_kaporin_k
from .errors import (ConvergenceError, DomainError, FactorizationError, NotPositiveDefiniteError,
                     RankError)
from .linalg import EigenDecomposition, LowerTriFactor, spd_splu, sym_eig, tri_solve
from .matio import PANEL, SparseSymMatrix, as_matvec, as_sparse

# The share of the order up to which a core finds the ends of its spectrum
# by ARPACK, counted in the Krylov vectors ARPACK holds for both ends
# (_ncv); a core asked for more takes the full eigendecomposition instead.
# On the benchmark's diffusion matrix (n = 1936, IC(0), seed 0, one BLAS
# thread), core, gamma pick and rest took 0.16 s by ARPACK against 0.76 s
# in full at r = 50 (a share of 0.064), 0.31 against 0.81 s at r = 120
# (0.136); at r = 150 (0.167) and 194 (0.212) the pick takes the top value
# and falls through to the full spectrum, 1.18 and 1.49 s against 0.86, 0.92.
ENDS_SHARE = 0.1


def _ncv(k: int) -> int:
    """ARPACK's Krylov basis for k values: eigsh's default, 2k + 1, at least 20."""
    return max(2 * k + 1, 20)


_NOT_SPD = ("error core Q^-1 A Q^-T has 1 + theta <= 1e-12: A is not positive definite "
            "relative to the factor, to working precision")
_ASYMMETRIC = ("error core Q^-1 A Q^-T is not symmetric to 1e-10 relative: "
               "the factor is too ill-conditioned for A")

# error_core probes B = Q^-1 A Q^-T with this many seeded Gaussian columns
# U: with M = U^T B U, ||M - M^T||_F / (sqrt(_PROBES - 1) ||B U||_F)
# estimates ||B - B^T||_F / ||B||_F from 28 pairs of columns.  Over five
# seeds it read at most 1.7e-11 on criterion 7's random triangular factors
# (n = 8-19, tests/test_acceptance.py) and 2.4e-15 on the IC(0) and
# Cholesky factors of the network matrix; on a geometric spectrum over
# [f, 1] (n = 600) with the Cholesky factor of A + 1e-9 I, at least 4.3e-10
# for f = 1e-8 and 6.3e-11 to 8.4e-11 for f = 1e-7.  Past 1e-10 it raises
# FactorizationError.
_PROBES = 8


__all__ = [
    "ErrorCore",
    "RestStats",
    "LowRankTerm",
    "Preconditioner",
    "error_core",
    "bld_truncate",
    "tsvd_truncate",
    "optimal_alpha",
    "divergence_alpha",
    "ln_kaporin_alpha",
    "kappa2_alpha",
    "flat_interval",
    "sym_preconditioned_operator",
]


@dataclass(eq=False)
class ErrorCore:
    """The error core E = Q^-1 A Q^-T - I, held as what a truncation reads:
    the sum and log-sum of all n values 1 + theta, and the ends of its
    spectrum, found on request.

    total = trace(I + E).  ends(k_lo, k_hi) gives the k_lo lowest theta
    ascending and the k_hi highest descending; vectors(selection) their
    eigenvectors.  Positions count in the algebraically non-increasing
    spectrum: the j-th highest value is at j, the i-th lowest at n - 1 - i.

    The core holds the factor and _matrix, its own SparseSymMatrix over
    A's lower triangle (error_core), and no n x n array.  The first
    request for ends decides where they come from.  If it asks for the
    top value alone and ARPACK's bases stay within ENDS_SHARE of n, one
    sparse LU of A (linalg.spd_splu) gives logsum = log det A - log det
    QQ^T and total (_trace), and ARPACK runs once per end: the k_lo lowest theta and
    their vectors from B^-1 = Q^T A^-1 Q through that LU, the top value
    alone from B = Q^-1 A Q^-T through the sparse factor.  Any request
    those do not cover, and a read of eig, thetas, total or logsum before
    any ends, takes the full spectrum (_full): B formed densely from A, E
    eigendecomposed in the same array (sym_eig), every end and both sums
    then from B and that decomposition, and A dropped.  The first
    NotPositiveDefiniteError or FactorizationError is kept, and every
    later read raises it.
    """

    factor: LowerTriFactor = field(repr=False)
    _matrix: SparseSymMatrix | None = field(repr=False)
    _total: float | None = field(default=None, repr=False)
    _logsum: float | None = field(default=None, repr=False)
    _low: tuple | None = field(default=None, repr=False)
    _top: np.ndarray | None = field(default=None, repr=False)
    _eig: EigenDecomposition | None = field(default=None, repr=False)
    _failed: Exception | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.factor.n

    @property
    def total(self) -> float:
        """trace(I + E), the sum of 1 + theta."""
        self._check()
        if self._total is None:
            self._full()
        return self._total

    @property
    def logsum(self) -> float:
        """log det(I + E), the sum of log(1 + theta)."""
        self._check()
        if self._logsum is None:
            self._full()
        return self._logsum

    @property
    def eig(self) -> EigenDecomposition:
        """The full eigendecomposition of E, values non-increasing."""
        self._check()
        if self._eig is None:
            self._full()
        return self._eig

    @property
    def thetas(self) -> np.ndarray:
        return self.eig.values

    def _check(self, fails: bool = False) -> None:
        """Raise the core's first error, a NotPositiveDefiniteError made here
        if fails."""
        if fails:
            self._failed = NotPositiveDefiniteError(_NOT_SPD)
        if self._failed is not None:
            raise self._failed.with_traceback(None)

    def _full(self) -> None:
        """Form B from A in one n x n array, Q^-1 A solved into it a column
        panel at a time, then B into its transpose, so that row panel J of
        Q^-1 A becomes row panel J of B; take total from its diagonal, turn
        it into E and reduce it there.  sym_eig symmetrizes E once: its
        asymmetry past 1e-10 relative raises FactorizationError.  logsum is
        then taken from the eigenvalues too, so every read has a full
        core's bits."""
        B = self._matrix.to_dense()
        tri_solve(self.factor, B, "forward", out=B)          # Q^-1 A
        tri_solve(self.factor, B.T, "forward", out=B.T)      # Q^-1 A Q^-T, through B^T
        diag = np.diag_indices(self.n)
        total = float(np.sum(B[diag]))
        B[diag] -= 1.0                   # e_ii - 1 before or after symmetrizing alike
        self._matrix = self._low = self._top = None
        try:
            eig = sym_eig(B, overwrite=True)
        except ValueError as exc:
            self._failed = FactorizationError(_ASYMMETRIC)
            raise self._failed from exc
        self._check(fails=eig.values[-1] <= -1.0 + 1e-12)
        self._eig, self._total = eig, total
        self._logsum = float(np.sum(np.log(1.0 + eig.values)))

    def _trace(self, lu) -> float:
        """trace(B) = ||Q^-1 G||_F^2 for G = L[perm] D^(1/2) from A's LU lu,
        P^T A P = L D L^T, so that G G^T = A: forward solves of G a PANEL of
        columns at a time, each scattered from L's one copy into a dense
        n x PANEL block."""
        L, n = lu.L, self.n
        row = np.argsort(lu.perm_r)               # L's row k is G's row row[k]
        root = np.sqrt(lu.U.diagonal())
        total = 0.0
        for j in range(0, n, PANEL):
            w = min(PANEL, n - j)
            at = slice(L.indptr[j], L.indptr[j + w])
            col = np.repeat(np.arange(w), np.diff(L.indptr[j:j + w + 1]))
            G = np.zeros((n, w), order="F")
            G[row[L.indices[at]], col] = L.data[at] * root[j + col]
            X = tri_solve(self.factor, G, "forward")
            total += float(np.einsum("ij,ij->", X, X))
        return total

    def _arpack(self, k: int, lu=None):
        """The k lowest theta, ascending, and their vectors: ARPACK's k
        largest of B^-1 = Q^T A^-1 Q through A's LU lu; without lu, the top
        theta alone, ARPACK's largest of B = Q^-1 A Q^-T.  Full accuracy
        (tol 0), from a seeded start vector so a build is deterministic."""
        Q, A, n = self.factor, self._matrix, self.n

        def apply(x):
            if lu is not None:
                return Q.values.T @ lu.solve(Q.values @ x)
            return _apply_b(Q, A, x)

        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            got = eigsh(LinearOperator((n, n), matvec=apply, dtype=np.float64), k=k,
                        which="LA", v0=v0, ncv=_ncv(k), tol=0, return_eigenvectors=lu is not None)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge on the error core: {exc}") from exc
        if lu is None:
            return got - 1.0
        w, X = got
        order = np.argsort(-w, kind="stable")
        mu = 1.0 / w[order]
        self._check(fails=mu[0] <= 1e-12)
        return mu - 1.0, X[:, order]

    def ends(self, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """At least the k_lo lowest theta, ascending, and the k_hi highest,
        descending; from the full spectrum, all n of each."""
        self._check()
        if self._eig is None:
            fits = _ncv(k_lo) + _ncv(1) <= ENDS_SHARE * self.n
            if self._low is None and k_hi == 1 and fits:
                try:
                    lu, logdet = spd_splu(self._matrix)
                except NotPositiveDefiniteError:
                    self._check(fails=True)     # an indefinite A fails here, before ARPACK
                self._logsum = logdet - self.factor.logdet_gram()
                self._total = self._trace(lu)
                self._low = self._arpack(k_lo, lu)
                self._top = self._arpack(1)
            if self._low is not None and self._low[0].size >= k_lo and k_hi == 1:
                return self._low[0], self._top
            self._full()
        return self._eig.values[::-1], self._eig.values

    def vectors(self, selection: np.ndarray) -> np.ndarray:
        """C-contiguous eigenvectors for positions in the non-increasing
        spectrum; without the full spectrum, each within the low end."""
        self._check()
        if self._eig is not None:
            return self._eig.vectors_at(selection)
        return np.ascontiguousarray(self._low[1][:, self.n - 1 - selection])

    def rest(self, term: LowRankTerm) -> RestStats:
        """Statistics of the 1 + theta that term, a truncation of this core,
        leaves unselected: the sums less those of its 1 + D, and the next
        unselected value at each end."""
        n = self.n
        if term.r >= n:
            raise RankError("rank equals the order: no remaining spectrum")
        free = np.ones(n, dtype=bool)
        free[term.selection] = False
        hi = int(np.argmax(free))
        lo = int(np.argmax(free[::-1]))
        low, high = self.ends(lo + 1, hi + 1)
        d = 1.0 + term.D
        return RestStats(n, term.r, self.total - float(np.sum(d)),
                         self.logsum - float(np.sum(np.log(d))),
                         float(1.0 + low[lo]), float(1.0 + high[hi]))


def _check_alpha(alpha: float) -> None:
    """DomainError unless alpha is finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError("alpha must be finite and positive")


@dataclass(frozen=True)
class RestStats:
    """Count n - r, sum, log-sum, min and max of a core's unselected 1 + theta,
    and the alpha functionals of P_alpha as closed forms over them."""

    n: int
    r: int
    total: float
    logsum: float
    lo: float
    hi: float

    @property
    def alpha_star(self) -> float:
        """Divergence-minimizing complement scaling: the mean of the 1 + theta."""
        return self.total / (self.n - self.r)

    def trace_logdet(self, alpha: float) -> tuple[float, float]:
        """Trace and log det of P_alpha^-1 A: eigenvalues 1 (r times), (1 + theta)/alpha."""
        _check_alpha(alpha)
        return self.r + self.total / alpha, self.logsum - (self.n - self.r) * math.log(alpha)

    def divergence(self, alpha: float) -> float:
        """Divergence of (A, P_alpha): trace - log det - n of P_alpha^-1 A."""
        tr, ld = self.trace_logdet(alpha)
        # the divergence is >= 0; the difference can round to -1e-16 near an exact factor
        return max(0.0, tr - ld - self.n)

    def ln_kaporin(self, alpha: float) -> float:
        """ln K of P_alpha^-1 A from its trace and log det."""
        tr, ld = self.trace_logdet(alpha)
        return max(0.0, ln_kaporin_k(tr, ld, self.n))

    def kappa2(self, alpha: float) -> float:
        """Spectral condition number of P_alpha^-1 A: max(1, hi/alpha)/min(1, lo/alpha),
        constant (= hi/lo) for alpha in [lo, hi].  At r = 0 no unit eigenvalue
        is left, so it is hi/lo for every alpha."""
        _check_alpha(alpha)
        if self.r == 0:
            return self.hi / self.lo
        return float(max(1.0, self.hi / alpha) / min(1.0, self.lo / alpha))


@dataclass(frozen=True)
class LowRankTerm:
    """Selected eigenpairs (V, D) of the error core; V D V^T is the correction.

    selection gives the pairs' positions in the core's algebraically
    non-increasing spectrum (ErrorCore); V has orthonormal
    columns and every 1 + D entry is positive.  V must be 2-D with r
    columns and D and selection must have r entries, else ValueError; a
    non-finite entry of V raises DomainError.
    """

    r: int
    V: np.ndarray
    D: np.ndarray
    selection: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.V)
        if len(shape) != 2 or shape[1] != self.r:
            raise ValueError(f"V must be 2-D with r = {self.r} columns, got shape {shape}")
        for name, values in (("D", self.D), ("selection", self.selection)):
            if np.shape(values) != (self.r,):
                raise ValueError(f"{name} must have r = {self.r} entries, "
                                 f"got shape {np.shape(values)}")
        if not np.isfinite(self.V).all():
            raise DomainError("V must be finite")


def _apply_b(Q: LowerTriFactor, A: SparseSymMatrix, x) -> np.ndarray:
    """B x = Q^-1 A Q^-T x through the sparse factor; x a vector or a block."""
    return tri_solve(Q, A.matvec(tri_solve(Q, x, "adjoint")), "forward")


def error_core(A, Q: LowerTriFactor) -> ErrorCore:
    """The error core of A relative to the factor Q, B = Q^-1 A Q^-T = I + E.

    A is read by matio.as_sparse, as in linalg.ic0: a dense A is checked
    (ValueError naming A) and symmetrized, and the caller's array is not
    read again.  The core holds a new SparseSymMatrix over that lower
    triangle, with no copy, so both triangles (full), built for the
    products and the LU, are cached on the core's matrix and go with the
    core, not on the caller's.  A square A whose order is not Q's raises
    ValueError before any n x n copy is made.  The core holds Q and that
    SparseSymMatrix, and forms B densely only for its full spectrum
    (ErrorCore).  Seeded probes through B's operator estimate its
    asymmetry (_PROBES): past 1e-10 relative they raise
    FactorizationError, since the factor is then too ill-conditioned for
    A, and ARPACK could not converge on that operator.  The full route
    checks B itself too (ErrorCore._full).

    NotPositiveDefiniteError follows, at the core's first truncation, when
    B is not positive definite to working precision: a pivot of A's
    sparse LU is not positive, or B's lowest 1 + theta is at or below
    1e-12.
    """
    shape = (A.n, A.n) if hasattr(A, "n") else np.shape(A)
    if len(shape) == 2 and 0 < shape[0] == shape[1] != Q.n:   # else as_sparse names the shape
        raise ValueError(f"factor order {Q.n} does not match the matrix order {shape[0]}")
    A = SparseSymMatrix(as_sparse(A).lower)      # no copy; caches go with the core
    U = np.random.default_rng(1).standard_normal((Q.n, _PROBES))
    BU = _apply_b(Q, A, U)
    M = U.T @ BU
    if np.linalg.norm(M - M.T) > 1e-10 * math.sqrt(_PROBES - 1) * np.linalg.norm(BU):
        raise FactorizationError(_ASYMMETRIC)
    return ErrorCore(Q, A)


def _take(core: ErrorCore, key, r: int) -> LowRankTerm:
    """The r eigenpairs largest under key, ties toward the larger theta,
    then the lower position: a lexsort of the values at the two ends of
    the spectrum.  key (gamma, |theta|) is quasi-convex, so those largest
    sit at the ends.  The first pass asks for the r + 1 lowest values and
    the top one.  A pick that takes the top value or the innermost low
    one is made again over the full spectrum, where both ends hold all n
    values; so the pick ends with the next unselected value at each end,
    which rest reads."""
    n = core.n
    if not (isinstance(r, Integral) and 0 <= r < n):
        raise RankError(f"rank must satisfy 0 <= r < {n} and be an integer, got {r!r}")
    for k_lo, k_hi in ((r + 1, 1), (n, n)):
        low, high = core.ends(k_lo, k_hi)
        pos, first = np.unique(np.concatenate((np.arange(high.size), n - 1 - np.arange(low.size))),
                               return_index=True)
        theta = np.concatenate((high, low))[first]
        picked = np.lexsort((pos, -theta, -key(theta)))[:r]
        selection = pos[picked]
        if low.size == n or not (n - low.size in selection or high.size - 1 in selection):
            break
    return LowRankTerm(r=int(r), V=core.vectors(selection), D=theta[picked], selection=selection)


def bld_truncate(core: ErrorCore, r: int) -> LowRankTerm:
    """Keep the r eigenpairs whose eigenvalues are largest under gamma.
    Ties break toward the larger eigenvalue, then the lower position."""
    return _take(core, gamma_map, r)


def tsvd_truncate(core: ErrorCore, r: int) -> LowRankTerm:
    """Keep the r eigenpairs largest in magnitude (the TSVD selection).

    Ties break toward the positive eigenvalue, then the lower position.
    """
    return _take(core, np.abs, r)


def optimal_alpha(core: ErrorCore, term: LowRankTerm) -> float:
    """Divergence-minimizing complement scaling: mean of unselected 1+theta.
    Kept for its one caller, benchmarks/workloads.py (ROADMAP item 2)."""
    return core.rest(term).alpha_star


@dataclass(frozen=True)
class Preconditioner:
    """P_alpha = Q(alpha (I - V V^T) + V (I_r + D) V^T) Q^T, SPD throughout.

    alpha = 1 gives the plain low-rank corrected factorization
    P = Q(I + V D V^T) Q^T.  Immutable; apply_inverse is reentrant.  V must
    have one row per row of Q, else ValueError, and 1 + D must be finite
    and positive, else DomainError.
    """

    factor: LowerTriFactor
    low_rank: LowRankTerm
    alpha: float = 1.0

    def __post_init__(self):
        rows = self.low_rank.V.shape[0]
        if rows != self.factor.n:
            raise ValueError(f"V must have one row per factor row, got {rows} rows "
                             f"for a factor of order {self.factor.n}")
        _check_alpha(self.alpha)
        d = 1.0 + self.low_rank.D
        if not np.all((0.0 < d) & (d < np.inf)):
            raise DomainError("I + D must be finite and positive definite")

    @property
    def n(self) -> int:
        return self.factor.n

    def _middle_solve(self, y, a, d) -> np.ndarray:
        """y/a + V ((1/d - 1/a) t) with t = V^T y, which equals
        (y - V t)/a + V (t/d): the middle term's inverse for a = alpha,
        d = 1 + D, and its inverse square root for their square roots.
        One pass over y, plus the rank-r update when r > 0.  y is a vector
        or an n x k block; the transposes make the weights scale the rows
        of t in both cases."""
        z = y / a
        V = self.low_rank.V
        if V.shape[1]:
            t = V.T @ y
            z += V @ (t.T * (1.0 / d - 1.0 / a)).T
        return z

    def apply_inverse(self, x) -> np.ndarray:
        """P_alpha^-1 x via two triangular solves and a rank-r update."""
        y = tri_solve(self.factor, np.asarray(x, dtype=np.float64), "forward")
        z = self._middle_solve(y, self.alpha, 1.0 + self.low_rank.D)
        return tri_solve(self.factor, z, "adjoint")

    def apply_inv_sqrt(self, x) -> np.ndarray:
        """S^-1 Q^-1 x where Q S (S^2 = middle term) is a square factor of P_alpha."""
        y = tri_solve(self.factor, np.asarray(x, dtype=np.float64), "forward")
        return self._middle_solve(y, np.sqrt(self.alpha), np.sqrt(1.0 + self.low_rank.D))

    def apply_inv_sqrt_t(self, x) -> np.ndarray:
        """Q^-T S^-1 x, the adjoint of apply_inv_sqrt."""
        x = np.asarray(x, dtype=np.float64)
        z = self._middle_solve(x, np.sqrt(self.alpha), np.sqrt(1.0 + self.low_rank.D))
        return tri_solve(self.factor, z, "adjoint")

    def dense(self) -> np.ndarray:
        """P_alpha as an n x n array: alpha Q Q^T plus (W (1 + D - alpha)) W^T,
        W = Q V.  Beside the result only the rank-r update is n x n."""
        Q, V = self.factor.values, self.low_rank.V
        P = (Q @ Q.T).toarray()
        P *= self.alpha
        if V.shape[1]:
            W = Q @ V
            P += (W * (1.0 + self.low_rank.D - self.alpha)) @ W.T
        return P

    def logdet(self) -> float:
        """log det P_alpha from the factor diagonal and the middle spectrum."""
        r = self.low_rank.r
        return (
            self.factor.logdet_gram()
            + (self.n - r) * float(np.log(self.alpha))
            + float(np.sum(np.log(1.0 + self.low_rank.D)))
        )


def divergence_alpha(core: ErrorCore, term: LowRankTerm, alpha: float) -> float:
    """Divergence of (A, P_alpha): trace - log det - n of P_alpha^-1 A, the
    sum of gamma((1+theta_i)/alpha - 1) over the unselected indices.
    Kept for its one caller, benchmarks/workloads.py (ROADMAP item 2)."""
    return core.rest(term).divergence(alpha)


def ln_kaporin_alpha(core: ErrorCore, term: LowRankTerm, alpha: float) -> float:
    """ln K of P_alpha^-1 A from its trace and log det.
    Kept for its one caller, benchmarks/workloads.py (ROADMAP item 2)."""
    return core.rest(term).ln_kaporin(alpha)


def flat_interval(core: ErrorCore, term: LowRankTerm) -> tuple[float, float]:
    """[min, max] of the unselected 1+theta: the kappa2-flat alpha range.
    Kept for its one caller, benchmarks/workloads.py (ROADMAP item 2)."""
    rest = core.rest(term)
    return rest.lo, rest.hi


def kappa2_alpha(core: ErrorCore, term: LowRankTerm, alpha: float) -> float:
    """Spectral condition number of the P_alpha-preconditioned matrix.

    Equals max(1, L/alpha)/min(1, l/alpha) with [l, L] the flat interval;
    constant (= L/l) for alpha inside it, and for every alpha at rank 0.
    Kept for its one caller, benchmarks/workloads.py (ROADMAP item 2).
    """
    return core.rest(term).kappa2(alpha)


def sym_preconditioned_operator(A, P: Preconditioner):
    """Matvec closure for the SPD matrix similar to P_alpha^-1 A.

    Applies S^-1 Q^-1 A Q^-T S^-1 where Q S is a square factor of
    P_alpha; trace and log-det match those of P_alpha^-1 A exactly.
    """
    matvec, n = as_matvec(A)
    if P.n != n:
        raise ValueError(f"A and P must have matching order, got {n} and {P.n}")

    def op(x):
        return P.apply_inv_sqrt(matvec(P.apply_inv_sqrt_t(x)))

    return op


def preconditioned_logdet(A, P: Preconditioner) -> float:
    """Exact log det(P_alpha^-1 A): log det A from the sparse LU of
    as_sparse(A) (linalg.spd_splu), less log det P_alpha from P's
    structure.  An A whose order is not P's raises ValueError naming both;
    one that is not positive definite, NotPositiveDefiniteError."""
    A = as_sparse(A)
    if A.n != P.n:
        raise ValueError(f"A and P must have matching order, got {A.n} and {P.n}")
    return spd_splu(A)[1] - P.logdet()
