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

Memory: the error core lives in one n x n array, the dense copy of A,
through every stage (ErrorCore): B = I + E, then its Cholesky factor
beside it, or the reflectors of E's eigendecomposition.  ARPACK's work
space, n x (2k + 1) for k values, is freed with each run, and a
truncation forms only the r eigenvectors it selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .divergence import _trace_pinv, gamma_map, ln_kaporin_k, logdet_spd
from .errors import (ConvergenceError, DomainError, FactorizationError, NotPositiveDefiniteError,
                     RankError)
from .linalg import EigenDecomposition, LowerTriFactor, _f_view, spd_cholesky, sym_eig, tri_solve
from .matio import PANEL, SparseSymMatrix, _symmetrized, as_dense, as_dense_pair, as_matvec

# The share of the order up to which a core finds the ends of its spectrum
# by ARPACK, counted in the Krylov vectors ARPACK holds for both ends
# (_ncv); a core asked for more takes the full eigendecomposition instead.
# On the benchmark's diffusion matrix (n = 1936, IC(0), one BLAS thread),
# core plus gamma pick took 0.59 s by ARPACK against 0.90 s in full at
# r = 50 (a share of 0.064), 0.97 against 1.05 s at r = 120 (0.136), and
# 2.64 against 1.08 s at r = 150 (0.167).
ENDS_SHARE = 0.1


def _ncv(k: int) -> int:
    """ARPACK's Krylov basis for k values: eigsh's default, 2k + 1, at least 20."""
    return max(2 * k + 1, 20)


_NOT_SPD = ("error core Q^-1 A Q^-T has 1 + theta <= 1e-12: A is not positive definite "
            "relative to the factor, to working precision")

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


@dataclass(eq=False)
class ErrorCore:
    """The error core E = Q^-1 A Q^-T - I, held as what a truncation reads:
    the sum and log-sum of all n values 1 + theta, and the ends of its
    spectrum, found on request.

    total = trace(I + E).  ends(k_lo, k_hi) gives the k_lo lowest theta
    ascending and the k_hi highest descending; vectors(selection) their
    eigenvectors.  Positions count in the algebraically non-increasing
    spectrum: the j-th highest value is at j, the i-th lowest at n - 1 - i.

    _work holds B = I + E (symmetrized) and _diag its diagonal.  While the
    ends asked for stay within ENDS_SHARE of n, B is Cholesky-factored in
    place, lower, once: _work then holds L below its diagonal and B above
    it, logsum = log det B, and the ends come from ARPACK through L: the
    low end from B^-1 = L^-T L^-1 (two dtrsv calls per product), the high
    end from L L^T (two dtrmv calls).  Past that share, or when a caller
    reads eig or thetas, the core rebuilds E in _work from B's upper
    triangle and _diag and eigendecomposes it there (sym_eig), with the
    bits of a dense E formed out of place; every end then comes from that
    decomposition, and so does logsum if no factor came first.
    """

    factor: LowerTriFactor = field(repr=False)
    total: float
    _work: np.ndarray | None = field(repr=False)
    _diag: np.ndarray = field(repr=False)
    _logsum: float | None = field(default=None, repr=False)
    _low: tuple | None = field(default=None, repr=False)
    _high: tuple | None = field(default=None, repr=False)
    _eig: EigenDecomposition | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self._diag.size

    @property
    def logsum(self) -> float:
        """log det(I + E), the sum of log(1 + theta)."""
        if self._logsum is None:
            if self._eig is None:
                self._factor()
            else:
                self._logsum = float(np.sum(np.log(1.0 + self._eig.values)))
        return self._logsum

    @property
    def eig(self) -> EigenDecomposition:
        """The full eigendecomposition of E, values non-increasing."""
        if self._eig is None:
            self._full()
        return self._eig

    @property
    def thetas(self) -> np.ndarray:
        return self.eig.values

    def _factor(self) -> None:
        """Cholesky-factor B in _work, lower, leaving its upper triangle."""
        a = self._work
        _, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
        if info != 0:
            raise NotPositiveDefiniteError(_NOT_SPD)
        self._logsum = 2.0 * float(np.sum(np.log(a.diagonal())))

    def _full(self) -> None:
        """Rebuild E in _work, a panel at a time, and reduce it there.
        A factored _work (a logsum and no eig) has L below its diagonal,
        which B's upper triangle replaces."""
        a, n = self._work, self.n
        if self._logsum is not None:
            for j in range(0, n, PANEL):
                J = slice(j, j + PANEL)
                a[j + PANEL:, J] = a[J, j + PANEL:].T
                upper = np.triu(a[J, J], 1)
                a[J, J] = upper + upper.T
        a[np.diag_indices(n)] = self._diag - 1.0
        self._work = self._low = self._high = None
        eig = sym_eig(a, overwrite=True)
        if eig.values[-1] <= -1.0 + 1e-12:
            raise NotPositiveDefiniteError(_NOT_SPD)
        self._eig = eig

    def _arpack(self, k: int, low: bool):
        """The k lowest (low) or highest theta and their vectors, in that
        order: ARPACK's k largest of (I + E)^-1 or I + E, to full accuracy
        (tol 0), from a seeded start vector so a build is deterministic."""
        L, n = self._work, self.n
        if low:
            def apply(x):
                y = blas.dtrsv(L, x, lower=1)
                return blas.dtrsv(L, y, lower=1, trans=1, overwrite_x=1)
        else:
            def apply(x):
                y = blas.dtrmv(L, x, lower=1, trans=1)
                return blas.dtrmv(L, y, lower=1, overwrite_x=1)
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            w, X = eigsh(LinearOperator((n, n), matvec=apply, dtype=np.float64), k=k,
                         which="LA", v0=v0, ncv=_ncv(k), tol=0)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge on the error core: {exc}") from exc
        order = np.argsort(-w, kind="stable")
        mu = 1.0 / w[order] if low else w[order]
        if low and mu[0] <= 1e-12:
            raise NotPositiveDefiniteError(_NOT_SPD)
        return mu - 1.0, X[:, order]

    def ends(self, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
        """At least the k_lo lowest theta, ascending, and the k_hi highest,
        descending; from the full spectrum, all n of each."""
        if self._eig is None:
            lo_ok = self._low is not None and self._low[0].size >= k_lo
            hi_ok = self._high is not None and self._high[0].size >= k_hi
            if not (lo_ok and hi_ok) and _ncv(k_lo) + _ncv(k_hi) > ENDS_SHARE * self.n:
                self._full()
            else:
                if self._logsum is None:
                    self._factor()
                if not lo_ok:
                    self._low = self._arpack(k_lo, low=True)
                if not hi_ok:
                    self._high = self._arpack(k_hi, low=False)
                return self._low[0], self._high[0]
        return self._eig.values[::-1], self._eig.values

    def vectors(self, selection: np.ndarray) -> np.ndarray:
        """C-contiguous eigenvectors for positions in the non-increasing
        spectrum, each within the ends last given."""
        if self._eig is not None:
            return self._eig.vectors_at(selection)
        high = selection < self._high[1].shape[1]
        V = np.empty((self.n, selection.size))
        V[:, high] = self._high[1][:, selection[high]]
        V[:, ~high] = self._low[1][:, self.n - 1 - selection[~high]]
        return V

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


def error_core(A, Q: LowerTriFactor) -> ErrorCore:
    """Form B = Q^-1 A Q^-T = I + E and its trace.

    One n x n array holds every stage: the dense copy of A (a copy even of
    a caller's ndarray, which is never changed; a dense A is checked and
    symmetrized there, ValueError naming it), then Q^-1 A solved into it
    a column panel at a time, then B solved into its transpose, so that
    row panel J of Q^-1 A becomes row panel J of B.  B is checked and
    symmetrized in place: asymmetry past 1e-10 relative
    (matio._symmetrized) raises FactorizationError, since the factor is
    then too ill-conditioned for A.  The core keeps that array, B's
    diagonal and total = trace(B), and factors or reduces B when its
    ends are first asked for (ErrorCore).

    NotPositiveDefiniteError follows when B is not positive definite to
    working precision: its Cholesky factorization fails, or its lowest
    1 + theta is at or below 1e-12.  A core too small for ARPACK at any
    rank (2 _ncv(1) > ENDS_SHARE n) eigendecomposes here and raises here;
    a larger one raises at its first truncation.
    """
    B = as_dense(A, copy=True)
    n = B.shape[0]
    if Q.n != n:
        raise ValueError(f"factor order {Q.n} does not match the matrix order {n}")
    if not isinstance(A, SparseSymMatrix):
        _symmetrized(B, out=B)                 # a dense A's own asymmetry is named as such
    tri_solve(Q, B, "forward", out=B)          # Q^-1 A
    tri_solve(Q, B.T, "forward", out=B.T)      # Q^-1 A Q^-T, through B^T
    try:
        _symmetrized(B, out=B)
    except ValueError as exc:
        raise FactorizationError("error core Q^-1 A Q^-T is not symmetric to 1e-10 relative: "
                                 "the factor is too ill-conditioned for A") from exc
    a = _f_view(B)
    diag = a.diagonal().copy()
    core = ErrorCore(Q, float(np.sum(diag)), a, diag)
    if 2 * _ncv(1) > ENDS_SHARE * n:
        core._full()
    return core


def _take(core: ErrorCore, key, r: int) -> LowRankTerm:
    """The r eigenpairs largest under key, ties toward the larger theta,
    then the lower position: a lexsort of the values at the two ends of
    the spectrum.  key (gamma, |theta|) is quasi-convex, so those largest
    sit at the ends.  An end whose innermost value the pick takes is asked
    for twice as many, and the pick made again; so the pick ends with the
    next unselected value at each end, which rest reads.  With the full
    spectrum both ends hold all n values, and the lexsort is over all of
    them."""
    n = core.n
    if not (isinstance(r, Integral) and 0 <= r < n):
        raise RankError(f"rank must satisfy 0 <= r < {n} and be an integer, got {r!r}")
    k_lo, k_hi = r + 1, 1
    while True:
        low, high = core.ends(k_lo, k_hi)
        pos, first = np.unique(np.concatenate((np.arange(high.size), n - 1 - np.arange(low.size))),
                               return_index=True)
        theta = np.concatenate((high, low))[first]
        picked = np.lexsort((pos, -theta, -key(theta)))[:r]
        selection = pos[picked]
        lo_out = low.size < n and n - low.size in selection
        hi_out = high.size < n and high.size - 1 in selection
        if not (lo_out or hi_out):
            break
        k_lo *= 2 if lo_out else 1
        k_hi *= 2 if hi_out else 1
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
