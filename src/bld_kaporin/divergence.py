"""Scalar functionals of SPD matrices.

Covers the spectral condition number, the arithmetic/geometric eigenvalue
mean ratio and its n-th power in log form, the log-determinant matrix
divergence, the scalar curve gamma(t) = t - log(1+t), dual
(negative-definite) coordinates and the conjugate divergence, symmetric
diagonal (Jacobi) scaling, and the rescaling of P to unit trace.

Conventions:
  * d_ld(A, P) = trace(A P^-1) - log det(A P^-1) - n  >= 0, zero iff A = P.
  * Kaporin quantities are exposed in log space only; exponentiating
    n * ln B overflows for modest n.

These dense functionals are the oracle of the factored path.  Every dense
matrix argument passes matio._symmetrized (asymmetry above 1e-10 relative
raises ValueError), and they factor through linalg.spd_cholesky and solve
with LAPACK, independent of the SuperLU solves of the path they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import DomainError, NotPositiveDefiniteError
from .linalg import spd_cholesky, sym_eig
from .matio import SparseSymMatrix, _symmetrized, as_dense, as_dense_pair

__all__ = [
    "ConditionReport",
    "kappa2",
    "kaporin_b",
    "ln_kaporin_k",
    "bregman_logdet",
    "scale_to_unit_trace",
    "gamma_map",
    "dual_coords",
    "dual_divergence",
    "jacobi_scale",
    "condition_report",
    "spd_cholesky",
    "logdet_spd",
    "preconditioned_spectrum",
]


def _positive_spectrum(spectrum) -> np.ndarray:
    s = np.asarray(spectrum, dtype=np.float64).ravel()
    if s.size == 0:
        raise DomainError("empty spectrum")
    if not np.all((s > 0.0) & (s < np.inf)):
        raise DomainError("spectrum must be finite and strictly positive")
    return s


def kappa2(spectrum) -> float:
    """Spectral condition number max(spectrum)/min(spectrum)."""
    s = _positive_spectrum(spectrum)
    return float(s.max() / s.min())


def kaporin_b(spectrum) -> float:
    """Arithmetic mean of the eigenvalues over their geometric mean; >= 1."""
    s = _positive_spectrum(spectrum)
    return float(np.mean(s) / np.exp(np.mean(np.log(s))))


def ln_kaporin_k(trace_m, logdet_m, n) -> float:
    """n*ln(trace/n) - logdet, the log of B(M)^n.

    Evaluated directly in log space; the n-th power itself overflows for
    spectra of any realistic size.
    """
    if not (0.0 < trace_m < np.inf and np.isfinite(logdet_m)):
        raise DomainError("trace must be finite and positive, and logdet finite")
    n = int(n)
    return float(n * np.log(trace_m / n) - logdet_m)


def gamma_map(lam):
    """Scalar penalty curve t - log(1+t) on (-1, inf).

    Nonnegative, zero only at 0, strictly decreasing on (-1, 0) and
    strictly increasing on (0, inf).  Accepts scalars or arrays.
    """
    arr = np.asarray(lam, dtype=np.float64)
    if not np.all((arr > -1.0) & (arr < np.inf)):
        raise DomainError("gamma_map requires finite arguments > -1")
    out = arr - np.log1p(arr)
    return float(out) if np.isscalar(lam) or arr.ndim == 0 else out


def logdet_spd(X) -> float:
    """log det of an SPD matrix via its Cholesky diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(spd_cholesky(X)))))


def _trace_pinv(La: np.ndarray, Lp: np.ndarray) -> float:
    """trace(P^-1 A) = ||Lp^-1 La||_F^2 from the Cholesky factors of A and P,
    solved and squared in place in La, summed in np.sum(Z * Z)'s order."""
    Z = sla.solve_triangular(Lp, La, lower=True, overwrite_b=True)
    return float(np.sum(np.square(Z, out=Z)))


def _cholesky_pair(A, P):
    """(La, Lp, P): the Cholesky factors of A and P, and P as as_dense_pair
    reads it.  A sparse A's dense copy goes before P is factored."""
    A, P = as_dense_pair(A, P)
    La = spd_cholesky(A, "A")
    del A
    return La, spd_cholesky(P, "P"), P


def bregman_logdet(A, P) -> float:
    """Log-determinant matrix divergence between SPD matrices A and P.

    Evaluates trace(A P^-1) - logdet(A P^-1) - n through Cholesky solves;
    beside the arguments at most two n x n arrays are live.
    """
    La, Lp, P = _cholesky_pair(A, P)
    logdet_m = 2.0 * float(np.sum(np.log(np.diag(La))) - np.sum(np.log(np.diag(Lp))))
    return _trace_pinv(La, Lp) - logdet_m - P.shape[0]


def scale_to_unit_trace(A, P):
    """Rescale P so trace((cP)^-1 A) = n; returns (c, cP), cP dense."""
    La, Lp, P = _cholesky_pair(A, P)
    c = _trace_pinv(La, Lp) / P.shape[0]
    del La, Lp  # the factors go before cP is made
    return c, c * P


def dual_coords(X) -> np.ndarray:
    """Dual coordinates -X^-1 of an SPD matrix (negative definite)."""
    L = spd_cholesky(X)
    inv = sla.cho_solve((L, True), np.eye(L.shape[0]))
    return -0.5 * (inv + inv.T)


def dual_divergence(theta, sigma) -> float:
    """Conjugate-seed divergence on negative definite arguments.

    With phi*(X) = -n - log det(-X) and grad phi*(S) = -S^-1:
    phi*(theta) - phi*(sigma) - trace(-sigma^-1 (theta - sigma)).
    Equals bregman_logdet(A, B) at theta = B*, sigma = A*.
    """
    theta, sigma = as_dense_pair(theta, sigma)
    n = theta.shape[0]
    Lt = spd_cholesky(-theta, "first argument (negated)")
    Ls = spd_cholesky(-sigma, "second argument (negated)")
    phi_t = -n - 2.0 * float(np.sum(np.log(np.diag(Lt))))
    phi_s = -n - 2.0 * float(np.sum(np.log(np.diag(Ls))))
    # grad phi*(sigma) = -sigma^-1 = (-sigma)^-1
    grad = sla.cho_solve((Ls, True), np.eye(n))
    return phi_t - phi_s - float(np.sum(grad * (theta - sigma)))


def jacobi_scale(A):
    """Symmetric diagonal scaling diag(A)^-1/2 A diag(A)^-1/2.

    The result has a unit diagonal, hence trace exactly n.  Accepts a
    SparseSymMatrix (returned as such) or a dense array (_symmetrized).
    """
    if not isinstance(A, SparseSymMatrix):
        A = _symmetrized(as_dense(A))
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise DomainError("jacobi scaling requires a positive diagonal")
    s = 1.0 / np.sqrt(d)
    if isinstance(A, np.ndarray):
        A *= np.outer(s, s)
        return A
    coo = A.lower.tocoo()
    return SparseSymMatrix.from_coo(A.n, coo.row, coo.col, coo.data * s[coo.row] * s[coo.col])


def preconditioned_spectrum(A, P) -> np.ndarray:
    """Spectrum of P^-1 A computed from the symmetric form.

    Uses Lp^-1 A Lp^-T with P = Lp Lp^T, which is similar to P^-1 A but
    keeps the eigensolver on symmetric input; M is symmetric only up to
    rounding, and sym_eig checks and symmetrizes it.
    """
    A, P = as_dense_pair(A, P)
    Lp = spd_cholesky(P, "P")
    Y = sla.solve_triangular(Lp, _symmetrized(A), lower=True, overwrite_b=True)
    M = sla.solve_triangular(Lp, Y.T, lower=True).T
    return sym_eig(M, overwrite=True).values


@dataclass(frozen=True)
class ConditionReport:
    """Bundle of conditioning functionals of one preconditioned matrix M.

    Satisfies, up to roundoff: ln_kaporin_k = n*ln(kaporin_b);
    d_ld = trace_m - logdet_m - n; and the chain
    kaporin_b <= kappa2 <= (sqrt k2 + 1/sqrt k2)^2 <= 4 K (last link in
    log space).
    """

    n: int
    kappa2: float
    kaporin_b: float
    ln_kaporin_k: float
    d_ld: float
    trace_m: float
    logdet_m: float


def condition_report(A, P=None) -> ConditionReport:
    """Evaluate every conditioning functional for M = P^-1 A (P = I default)."""
    if P is None:
        spec, what = sym_eig(A).values, "A"
    else:
        spec, what = preconditioned_spectrum(A, P), "preconditioned matrix"
    if np.any(spec <= 0.0):
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    n = spec.size
    trace_m = float(np.sum(spec))
    logdet_m = float(np.sum(np.log(spec)))
    return ConditionReport(
        n=n,
        kappa2=kappa2(spec),
        kaporin_b=kaporin_b(spec),
        ln_kaporin_k=ln_kaporin_k(trace_m, logdet_m, n),
        d_ld=trace_m - logdet_m - n,
        trace_m=trace_m,
        logdet_m=logdet_m,
    )
