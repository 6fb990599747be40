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

Memory: the dense error core is formed, symmetrized and reduced in one
n x n array, the dense copy of A, and the ErrorCore keeps that array as
the reflectors of its eigendecomposition; a truncation forms only the r
eigenvectors it selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .divergence import _trace_pinv, gamma_map, ln_kaporin_k, logdet_spd
from .errors import DomainError, NotPositiveDefiniteError, RankError
from .linalg import EigenDecomposition, LowerTriFactor, spd_cholesky, sym_eig, tri_solve
from .matio import as_dense, as_dense_pair, as_matvec

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
    "scale_to_unit_trace",
    "sym_preconditioned_operator",
]


@dataclass(frozen=True)
class ErrorCore:
    """Eigendecomposition of E = Q^-1 A Q^-T - I and the factor Q it was
    formed from; eig.values are algebraically non-increasing.  Each
    truncation orders the eigenpairs by its own key when it selects."""

    eig: EigenDecomposition
    factor: LowerTriFactor = field(repr=False)

    @property
    def n(self) -> int:
        return self.eig.n

    @property
    def thetas(self) -> np.ndarray:
        return self.eig.values

    def rest(self, term: LowRankTerm) -> RestStats:
        """Statistics of the 1 + theta that term leaves unselected."""
        rest = 1.0 + np.delete(self.thetas, term.selection)
        if rest.size == 0:
            raise RankError("rank equals the order: no remaining spectrum")
        return RestStats(self.n, self.n - rest.size, float(np.sum(rest)),
                         float(np.sum(np.log(rest))), float(rest.min()), float(rest.max()))


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

    selection indexes into the core's eigendecomposition; V has orthonormal
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


def error_core(A, Q: LowerTriFactor) -> ErrorCore:
    """Form and eigendecompose E = Q^-1 A Q^-T - I.

    Fails with NotPositiveDefiniteError when an eigenvalue 1 + theta of
    Q^-1 A Q^-T is at or below 1e-12: A is then not positive definite
    relative to the factor, to working precision, though it may be SPD.

    One n x n array holds every stage: the dense copy of A (a copy even of
    a caller's ndarray, which is never changed), then Q^-1 A solved into it
    a column panel at a time, then E solved into its transpose, so that
    row panel J of Q^-1 A becomes row panel J of E, and the unit diagonal
    subtracted.  sym_eig then checks and symmetrizes it in place and
    reduces it, and the core keeps it as its reflectors.
    """
    B = as_dense(A, copy=True)
    n = B.shape[0]
    if Q.n != n:
        raise ValueError(f"factor order {Q.n} does not match the matrix order {n}")
    tri_solve(Q, B, "forward", out=B)          # Q^-1 A
    tri_solve(Q, B.T, "forward", out=B.T)      # Q^-1 A Q^-T, through B^T
    B[np.diag_indices(n)] -= 1.0
    eig = sym_eig(B, overwrite=True)           # checks and symmetrizes E
    if np.any(eig.values <= -1.0 + 1e-12):
        raise NotPositiveDefiniteError("error core has 1 + theta <= 1e-12: A is not positive "
                                       "definite relative to the factor, to working precision")
    return ErrorCore(eig=eig, factor=Q)


def _take(core: ErrorCore, order: np.ndarray, r: int) -> LowRankTerm:
    if not (isinstance(r, Integral) and 0 <= r < core.n):
        raise RankError(f"rank must satisfy 0 <= r < {core.n} and be an integer, got {r!r}")
    selection = order[:r]
    return LowRankTerm(
        r=int(r),
        V=core.eig.vectors_at(selection),
        D=core.thetas[selection].copy(),
        selection=selection.copy(),
    )


def bld_truncate(core: ErrorCore, r: int) -> LowRankTerm:
    """Keep the r eigenpairs whose eigenvalues are largest under gamma.
    Ties break toward the larger eigenvalue, then the lower index."""
    th = core.thetas
    return _take(core, np.lexsort((np.arange(core.n), -th, -gamma_map(th))), r)


def tsvd_truncate(core: ErrorCore, r: int) -> LowRankTerm:
    """Keep the r eigenpairs largest in magnitude (the TSVD selection).

    Ties break toward the positive eigenvalue, then the lower index.
    """
    th = core.thetas
    return _take(core, np.lexsort((np.arange(core.n), -np.sign(th), -np.abs(th))), r)


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


def scale_to_unit_trace(A, P):
    """Rescale P so trace((cP)^-1 A) = n; returns (c, cP), cP dense."""
    A, P = as_dense_pair(A, P)
    n = A.shape[0]
    La = spd_cholesky(A, "A")
    del A  # a sparse A's dense copy goes before P is factored
    c = _trace_pinv(La, spd_cholesky(P, "P")) / n
    return c, c * P


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
    """Exact log det(P_alpha^-1 A) via dense Cholesky of A and P's structure."""
    return logdet_spd(A) - P.logdet()
