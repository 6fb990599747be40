"""Randomized trace and log-determinant estimation.

slq_trace_logdet is stochastic Lanczos quadrature.  Each probe runs m
Lanczos steps from a normalized Rademacher vector (entries +-1, the
minimum-variance probe for Hutchinson's estimator), eigendecomposes the
tridiagonal T_m = V Pi V', and accumulates sum_k tau_k^2 f(pi_k) with tau
the first row of V, for f = identity and f = log.  The estimates are n
times the probe mean.  Its trace term is Hutchinson's estimate
(e1' T_m e1 = z' M z for the unit probe z), so no separate trace
estimator is kept.  The quadrature reads only the tridiagonal, and needs
it as from an orthogonal basis (Ubaru, Chen and Saad, SIMAX 2017).  So a
probe holds three Lanczos vectors, not a basis, while its run stays
semi-orthogonal (linalg.lanczos, SEMI_ORTH_TOL = sqrt(eps)); a probe whose
run passes that level reruns with full reorthogonalization, against an
m x n basis that the run frees when it hands back its tridiagonal, the
only result lanczos gives.  The report counts the probes that reran.

Derived quantities: the log-Kaporin surrogate n ln(tr/n) - Gamma, the
complement-scaling estimate (tr - r)/(n - r), and the divergence
surrogate -Gamma + (n - r) ln(alpha).

Determinism: probe i draws from a generator seeded by (seed, i), and
its Lanczos run decides whether to rerun from its own recurrence alone,
so a config reproduces bit-identical estimates regardless of probe
batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np
import scipy.linalg as sla

from .divergence import ln_kaporin_k as approx_ln_kaporin  # n ln(tr_hat/n) - Gamma
from .errors import DomainError, NotPositiveDefiniteError, RankError
from .linalg import lanczos

__all__ = [
    "ProbeConfig",
    "EstimateReport",
    "slq_trace_logdet",
    "approx_ln_kaporin",
    "approx_alpha",
    "approx_divergence",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Probe schedule: m Lanczos steps for each of n_v Rademacher start
    vectors, both integers >= 1; probe i draws from SeedSequence([seed, i])
    for an integer seed >= 0."""

    m: int = 30
    n_v: int = 10
    seed: int = 0

    def __post_init__(self):
        if not all(isinstance(k, Integral) and k >= 1 for k in (self.m, self.n_v)):
            raise DomainError("m >= 1 and n_v >= 1 required, both integers")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise DomainError(f"probe seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class EstimateReport:
    """Estimates plus per-probe quadratic forms.

    per_probe_* store unit-vector-scale contributions; the estimator sets
    each estimate to n * mean(per_probe_*), with standard error
    n * std(per_probe_*, ddof=1) / sqrt(probes_used) (None from a single
    probe), and probes_used is the number of probes.  breakdowns counts
    the probes whose Lanczos run exhausted its Krylov space before m
    steps.  reruns counts the probes whose basis-free Lanczos run lost
    semi-orthogonality and was rerun with full reorthogonalization.
    """

    n: int
    trace_est: float
    logdet_est: float
    per_probe_trace: np.ndarray
    per_probe_logdet: np.ndarray
    breakdowns: int
    reruns: int

    @property
    def probes_used(self) -> int:
        return self.per_probe_trace.size

    @property
    def trace_stderr(self) -> float | None:
        return _stderr(self.n, self.per_probe_trace)

    @property
    def logdet_stderr(self) -> float | None:
        return _stderr(self.n, self.per_probe_logdet)


def _stderr(n: int, per_probe: np.ndarray) -> float | None:
    if per_probe.size < 2:
        return None
    return n * float(np.std(per_probe, ddof=1)) / float(np.sqrt(per_probe.size))


def slq_trace_logdet(apply, n: int, cfg: ProbeConfig) -> EstimateReport:
    """Joint SLQ estimates of trace(M) and log det(M) for SPD M.

    A nonpositive Ritz value aborts with NotPositiveDefiniteError carrying
    the offending probe index.
    """
    tr_contribs = np.empty(cfg.n_v)
    ld_contribs = np.empty(cfg.n_v)
    breakdowns = reruns = 0
    for i in range(cfg.n_v):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
        z = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
        nz = np.linalg.norm(z)
        if nz == 0.0:
            raise DomainError("zero probe vector drawn")
        res = lanczos(apply, z / nz, cfg.m)
        breakdowns += int(res.breakdown)
        reruns += int(res.rerun)
        ritz, vecs = sla.eigh_tridiagonal(res.alphas, res.betas)
        if np.any(ritz <= 0.0):
            raise NotPositiveDefiniteError(
                f"nonpositive Ritz value on probe {i}: operator is not SPD",
                probe_index=i,
            )
        tau2 = vecs[0, :] ** 2
        tr_contribs[i] = float(tau2 @ ritz)
        ld_contribs[i] = float(tau2 @ np.log(ritz))
    return EstimateReport(n, n * float(np.mean(tr_contribs)), n * float(np.mean(ld_contribs)),
                          tr_contribs, ld_contribs, breakdowns, reruns)


def approx_alpha(trace_est_pinv_a: float, n: int, r: int) -> float:
    """Complement scaling estimate (tr_hat(P^-1 A) - r)/(n - r)."""
    if not np.isfinite(trace_est_pinv_a):
        raise DomainError("trace estimate must be finite")
    if not 0 <= r < n:
        raise RankError("need 0 <= r < n")
    return float((trace_est_pinv_a - r) / (n - r))


def approx_divergence(logdet_est_pinv_a: float, alpha_hat: float, n: int, r: int) -> float:
    """Divergence surrogate -Gamma + (n - r) ln(alpha_hat)."""
    if not (0.0 < alpha_hat < np.inf and np.isfinite(logdet_est_pinv_a)):
        raise DomainError("alpha_hat must be finite and positive, and the log det finite")
    if not 0 <= r < n:
        raise RankError("need 0 <= r < n")
    return float(-logdet_est_pinv_a + (n - r) * np.log(alpha_hat))
