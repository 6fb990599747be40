"""Preconditioned conjugate gradients with per-iteration instrumentation,
plus the residual/error bound curves and iteration-count estimates that go
with the spectral, Kaporin, and divergence condition measures.

The solver implements the textbook recursion

    r0 = b - A x0;  p0 = H r0
    a_k = (r_k' H r_k)/(p_k' A p_k)
    x_{k+1} = x_k + a_k p_k;  r_{k+1} = r_k - a_k A p_k
    b_k = (r_{k+1}' H r_{k+1})/(r_k' H r_k);  p_{k+1} = H r_{k+1} + b_k p_k

and stops on the relative 2-norm residual.  The H-norm of the residual
(the norm the Kaporin-style bounds are stated in) reuses the r' H r values
the recursion computes anyway, so tracking it is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, PcgBreakdownError
from .matio import as_matvec

__all__ = [
    "SolveConfig",
    "SolveReport",
    "pcg_solve",
    "bound_kappa",
    "bound_kaporin",
    "bound_divergence",
    "bound_3lnd",
    "iter_estimate_kappa",
    "iter_estimate_kaporin",
    "recommended_sigma",
    "iter_estimate_divergence",
]


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for one PCG run.

    max_iter, an integer, defaults to 10n.  known_solution enables A-norm
    error tracking, at one extra A product per iteration (and one at the
    start); without it a run spends exactly one A product per iteration.
    """

    tol: float = 1e-10
    max_iter: int | None = None
    known_solution: np.ndarray | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError("tol must be finite and positive")
        if self.max_iter is not None and not (isinstance(self.max_iter, Integral)
                                              and self.max_iter >= 1):
            raise DomainError(f"max_iter must be >= 1 and an integer, got {self.max_iter!r}")


@dataclass
class SolveReport:
    """History of one PCG run; index k = 0 holds the initial norms.

    res2 and res_pinv (the P^-1-norm residuals) are always recorded;
    err_a (the A-norm errors) only when a known solution was supplied.
    iterations is the number of entries of res2 after the initial one.
    """

    converged: bool
    x: np.ndarray
    res2: np.ndarray
    res_pinv: np.ndarray
    err_a: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return self.res2.size - 1

    def rel_res2(self) -> np.ndarray:
        return self.res2 / self.res2[0] if self.res2[0] != 0 else self.res2

    def rel_res_pinv(self) -> np.ndarray:
        return self.res_pinv / self.res_pinv[0] if self.res_pinv[0] != 0 else self.res_pinv

    def rel_err_a(self) -> np.ndarray:
        if self.err_a is None:
            raise ValueError("no known solution was supplied")
        return self.err_a / self.err_a[0] if self.err_a[0] != 0 else self.err_a


def _as_apply_inverse(H, n):
    """P^-1 as a function; ValueError unless a Preconditioner or matrix H
    has order n (and a dense one is symmetric)."""
    if H is None:
        return lambda x: x
    if hasattr(H, "apply_inverse"):
        order, apply_h = H.n, H.apply_inverse
    else:
        apply_h, order = as_matvec(H)
    if order != n:
        raise ValueError(f"A and P must have matching order, got {n} and {order}")
    return apply_h


def pcg_solve(A, b, H=None, config: SolveConfig | None = None) -> SolveReport:
    """Solve Ax = b by PCG with preconditioner inverse H.

    A may be a SparseSymMatrix or dense array; H a Preconditioner, a
    matrix, or None for the identity.  A callable A or H raises TypeError,
    since its order is unknown.  A dense A or H not symmetric to 1e-10
    relative raises ValueError, and so do an H of another order than A and
    a known solution of another length, naming both.
    Raises PcgBreakdownError (with the partial report attached) when the
    curvature p' A p or the preconditioned residual product r' H r turns
    nonpositive before convergence.
    """
    cfg = config or SolveConfig()
    matvec, n = as_matvec(A)
    apply_h = _as_apply_inverse(H, n)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have shape {(n,)}, got {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    xs = None if cfg.known_solution is None else np.asarray(cfg.known_solution, dtype=np.float64)
    if xs is not None and xs.shape != (n,):
        raise ValueError(f"known solution must have shape {(n,)}, got {xs.shape}")
    max_iter = cfg.max_iter if cfg.max_iter is not None else 10 * n

    x = np.zeros(n)
    r = b.copy()
    z = apply_h(r)
    rho = float(r @ z)
    p = z.copy()
    norm_b = float(np.linalg.norm(b))
    stop = cfg.tol * norm_b

    res2 = [float(np.linalg.norm(r))]
    res_pinv = [math.sqrt(max(rho, 0.0))]
    err_a = None if xs is None else [_a_norm(matvec, xs - x)]

    converged = res2[0] <= stop
    k = 0
    while not converged and k < max_iter:
        if rho <= 0.0:
            report = _finish(x, False, res2, res_pinv, err_a)
            raise PcgBreakdownError(f"nonpositive r'Hr at iteration {k}: H is not SPD", report)
        Ap = matvec(p)
        curv = float(p @ Ap)
        if curv <= 0.0:
            report = _finish(x, False, res2, res_pinv, err_a)
            raise PcgBreakdownError(f"nonpositive curvature at iteration {k}", report)
        a = rho / curv
        # x and r are the loop's own arrays, never a caller's or apply_h's
        x += a * p
        r -= a * Ap
        k += 1
        res2.append(float(np.linalg.norm(r)))
        if err_a is not None:
            err_a.append(_a_norm(matvec, xs - x))
        z = apply_h(r)
        rho_next = float(r @ z)
        res_pinv.append(math.sqrt(max(rho_next, 0.0)))
        converged = res2[-1] <= stop
        if not converged:
            beta = rho_next / rho
            p = z + beta * p
        rho = rho_next

    return _finish(x, converged, res2, res_pinv, err_a)


def _a_norm(matvec, v) -> float:
    return math.sqrt(max(float(v @ matvec(v)), 0.0))


def _finish(x, converged, res2, res_pinv, err_a) -> SolveReport:
    return SolveReport(
        converged=converged,
        x=x,
        res2=np.asarray(res2),
        res_pinv=np.asarray(res_pinv),
        err_a=None if err_a is None else np.asarray(err_a),
    )


# ---------------------------------------------------------------------------
# Bound curves


def bound_kappa(kappa2: float, k: int) -> float:
    """A-norm error bound 2/(C^k + C^-k), C = (sqrt(k2)-1)/(sqrt(k2)+1)."""
    if not 1.0 <= kappa2 < math.inf:
        raise DomainError("finite kappa2 >= 1 required")
    if k < 0:
        raise DomainError("k >= 0 required")
    if k == 0:
        return 1.0
    s = math.sqrt(kappa2)
    C = (s - 1.0) / (s + 1.0)
    if C == 0.0:
        return 0.0
    # 2/(C^k + C^-k) evaluated through the dominant C^-k term
    return 2.0 * C**k / (1.0 + C ** (2 * k))


def _log_expm1(y: float) -> float:
    """log(exp(y) - 1) without overflow for large y."""
    if y > 40.0:
        return y + math.log1p(-math.exp(-y))
    return math.log(math.expm1(y))


def _superlinear_bound(quantity: float, k: int) -> float:
    if k < 1:
        raise DomainError("k >= 1 required")
    if not 0.0 <= quantity < math.inf:
        raise DomainError("finite nonnegative conditioning quantity required")
    if quantity == 0.0:
        return 0.0
    log_bound = 0.5 * k * _log_expm1(quantity / k)
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)


def bound_kaporin(ln_k: float, k: int) -> float:
    """Residual bound (K^(1/k) - 1)^(k/2) in the P^-1 norm, from ln K."""
    return _superlinear_bound(ln_k, k)


def bound_divergence(d_ld: float, k: int) -> float:
    """Residual bound (e^(D/k) - 1)^(k/2); coincides with bound_kaporin
    when the preconditioned trace is n (D = ln K)."""
    return _superlinear_bound(d_ld, k)


def bound_3lnd(d_ld: float, k: int, n: int) -> float:
    """A-norm error bound (3 D / k)^(k/2), valid for even k with
    3 D <= k < n."""
    if not 0.0 <= d_ld < math.inf:
        raise DomainError("divergence must be finite and nonnegative")
    if k < 1 or k % 2 != 0:
        raise DomainError("k must be a positive even integer")
    if not (3.0 * d_ld <= k and k < n):
        raise DomainError(f"validity window 3D <= k < n violated (D={d_ld}, k={k}, n={n})")
    return (3.0 * d_ld / k) ** (k / 2.0)


# ---------------------------------------------------------------------------
# Iteration-count estimates (all clamped to >= 1: a solve costs a step)


def iter_estimate_kappa(kappa2: float, eps: float) -> int:
    """ceil(0.5 sqrt(kappa2) ln(2/eps)) iterations for an eps error reduction."""
    if not 1.0 <= kappa2 < math.inf:
        raise DomainError("finite kappa2 >= 1 required")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps in (0, 1) required")
    return max(1, math.ceil(0.5 * math.sqrt(kappa2) * math.log(2.0 / eps)))


def recommended_sigma(ln_k: float, eps: float) -> float:
    """sigma = 2 + ln(1/eps)/ln K, the reportedly sharper choice."""
    if not 0.0 < ln_k < math.inf:
        raise DomainError("ln K must be finite and positive for the recommended sigma")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps in (0, 1) required")
    return 2.0 + math.log(1.0 / eps) / ln_k


def iter_estimate_kaporin(ln_k: float, eps: float, sigma: float = 2.0) -> int:
    """ceil((sigma ln K + 2 ln(1/eps)) / (sigma ln sigma - (sigma-1) ln(sigma-1)))."""
    if not 0.0 <= ln_k < math.inf:
        raise DomainError("ln K must be finite and nonnegative")
    if not 0.0 < eps < 1.0:
        raise DomainError("eps in (0, 1) required")
    if not 2.0 <= sigma < math.inf:
        raise DomainError("finite sigma >= 2 required")
    # sigma ln sigma - (sigma-1) ln(sigma-1), rearranged so that the large
    # sigma of a tiny ln K does not cancel it to 0
    denom = math.log(sigma) - (sigma - 1.0) * math.log1p(-1.0 / sigma)
    return max(1, math.ceil((sigma * ln_k + 2.0 * math.log(1.0 / eps)) / denom))


def iter_estimate_divergence(d_ld: float, eps: float) -> int:
    """ceil((ln(1/eps) + D)/ln 2), assuming the caller trace-normalized P (D = ln K):
    iter_estimate_kaporin at sigma = 2, whose fraction is this one doubled exactly."""
    return iter_estimate_kaporin(d_ld, eps, 2.0)
