"""Randomized trace and log-determinant estimation.

slq_trace_logdet is stochastic Lanczos quadrature.  Each probe runs m
Lanczos steps from a normalized Rademacher vector z (entries +-1, the
minimum-variance probe for Hutchinson's estimator).  Its trace term is
Hutchinson's z' M z, the first Lanczos coefficient, so no separate trace
estimator is kept.  Its log-det term is the Gauss rule e1' log(T_m) e1
from one LAPACK dstev, the rule the depth rule below measures; a failed
eigensolve raises ConvergenceError naming the probe.  The estimates are n
times the probe mean.  The quadrature reads only the tridiagonal, and
needs it as from an orthogonal basis (Ubaru, Chen and Saad, SIMAX 2017).
So a probe holds three Lanczos vectors, not a basis, while its run stays
semi-orthogonal (linalg.lanczos, SEMI_ORTH_TOL = sqrt(eps)); a probe whose
run passes that level reruns with full reorthogonalization, against an
m x n basis that the run frees when it hands back its tridiagonal, the
only result lanczos gives.  The report counts the probes that reran.

Depth rule: a probe stops early once its log-det quadrature has settled.
With G_k = n e1' log(T_k) e1, the probe's n-scaled Gauss-rule log det
after k steps, it stops after step k > DEPTH_WINDOW = 4 once
|G_k - G_{k-4}| <= DEPTH_TOL = 2.0 nats.  The Gauss rule overestimates
e1' log(M) e1 and falls toward it step by step (log's even derivatives
are negative; Golub and Meurant, 2010), so a stopped probe keeps a
one-signed, upward bias, and its last change understates what remains,
by up to about 1.6x where it was measured.  On the benchmark's
IC(0)-preconditioned diffusion operator (m = 30) the rule stops a probe
after about 21 steps at n = 19600 and raises the log-det estimate by
about 1.3 nats, against a probe-noise standard error near 30 at
n_v = 10; at n = 4900, after about 14 steps, by about 0.8 nats.  The
bias does not fall with n_v, and the log-det standard error, which
measures probe noise alone, does not include it: at n_v = 100 the bias
is 0.14 (n = 19600) and 0.18 (n = 4900) of that standard error.  The
trace needs no depth: alpha_1 = z' M z at every k.  A run with
m >= n is never shortened: it exhausts the Krylov space and gives each
probe's quadratic forms exactly.  DEPTH_TOL = 0 would run every probe
its m steps, bit for bit the fixed-depth estimator.

Derived quantities: the log-Kaporin surrogate n ln(tr/n) - Gamma, the
complement-scaling estimate (tr - r)/(n - r), and the divergence
surrogate -Gamma + (n - r) ln(alpha).

Threads: the probes are independent, so they run at once, on the
calling thread and helper threads, w in all: the number of CPUs the
process may run on (os.sched_getaffinity), at most n_v and at most
_MAX_PROBE_THREADS = 2, since each probe at work adds its vectors to the
peak memory.  With n_v = 1 or one CPU no thread starts.  So apply may be
called from several threads at once.  The package's operators allow that
(precond.sym_preconditioned_operator, the Preconditioner applies,
SparseSymMatrix.matvec), and SuperLU's solve, where their time goes,
releases the GIL.  A caller's own apply must allow it too.

Determinism: probe i draws from a generator seeded by (seed, i), and
its Lanczos run decides whether to rerun, and when to stop, from its own
recurrence and tridiagonal alone.  Each probe's results are stored at its
index and the report is assembled in index order, so a config reproduces
bit-identical estimates regardless of probe batching and of the thread
count.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.linalg import lapack

from .divergence import ln_kaporin_k as approx_ln_kaporin  # n ln(tr_hat/n) - Gamma
from .errors import ConvergenceError, DomainError, NotPositiveDefiniteError, RankError
from .linalg import lanczos

# The depth rule stops a probe once its Gauss-rule log det moved by at most
# DEPTH_TOL nats over the last DEPTH_WINDOW steps.
DEPTH_TOL = 2.0
DEPTH_WINDOW = 4

# Probes that run at once, at most.  A basis-free probe holds four or five
# n-vectors at its peak, beside its operator's temporaries: two at once
# hold about 10, three about 13 (median of 40 runs, n = 19600).  Two is
# also the only count whose speed was measured.
_MAX_PROBE_THREADS = 2

__all__ = [
    "DEPTH_TOL",
    "DEPTH_WINDOW",
    "ProbeConfig",
    "EstimateReport",
    "slq_trace_logdet",
    "approx_ln_kaporin",
    "approx_alpha",
    "approx_divergence",
]


@dataclass(frozen=True)
class ProbeConfig:
    """Probe schedule: up to m Lanczos steps for each of n_v Rademacher
    start vectors, both integers >= 1; probe i draws from
    SeedSequence([seed, i]) for an integer seed >= 0.  The depth rule
    (module docstring) may stop a probe before m."""

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

    per_probe_* store unit-vector-scale contributions: per_probe_trace is
    each probe's first Lanczos coefficient z' M z, and per_probe_logdet
    its Gauss rule e1' log(T_k) e1, the number the depth rule measures.
    The estimator sets each estimate to n * mean(per_probe_*), with
    standard error n * std(per_probe_*, ddof=1) / sqrt(probes_used) (None
    from a single probe), and probes_used is the number of probes.  The
    standard errors measure probe noise alone: logdet_stderr leaves out
    the depth rule's upward bias, which more probes do not shrink.  steps
    holds each probe's Lanczos steps: m, unless a breakdown or the depth
    rule ended its run sooner.  breakdowns counts the probes whose Lanczos
    run exhausted its Krylov space before m steps.  reruns counts the
    probes whose basis-free Lanczos run lost semi-orthogonality and was
    rerun with full reorthogonalization.
    """

    n: int
    trace_est: float
    logdet_est: float
    per_probe_trace: np.ndarray
    per_probe_logdet: np.ndarray
    steps: np.ndarray
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

    Each probe runs at most cfg.m Lanczos steps, fewer where the depth
    rule (module docstring) stops it.  The probes run on the calling
    thread and _probe_workers(cfg.n_v) - 1 helper threads, which take
    probe indices in order from one counter; apply must allow calls from
    several threads at once.  Once a probe fails no new probe starts, and
    the error of the lowest failing index is raised: every lower index has
    run, so it is the error a serial run would raise.  A nonpositive Ritz
    value aborts with NotPositiveDefiniteError carrying the offending
    probe index, and a failed tridiagonal eigensolve with ConvergenceError
    naming it.  lanczos lets one rerun at a time keep a basis.
    """
    results = [None] * cfg.n_v
    errors = {}
    depth_rule = DEPTH_TOL > 0 and cfg.m < n
    indices = itertools.count()  # next() is atomic: each index goes to one thread

    def run_probes():
        while not errors and (i := next(indices)) < cfg.n_v:
            try:
                res = _probe(apply, n, cfg, i, depth_rule)
                results[i] = res, _gauss_logdet(res.alphas, res.betas, i)
            except Exception as exc:  # raised on the calling thread below
                errors[i] = exc
                return

    helpers = [threading.Thread(target=run_probes, daemon=True)
               for _ in range(_probe_workers(cfg.n_v) - 1)]
    for t in helpers:
        t.start()
    run_probes()
    for t in helpers:
        t.join()
    if errors:
        raise errors[min(errors)]
    runs, ld = zip(*results)
    tr_contribs = np.array([res.alphas[0] for res in runs])
    ld_contribs = np.array(ld)
    return EstimateReport(n, n * float(np.mean(tr_contribs)), n * float(np.mean(ld_contribs)),
                          tr_contribs, ld_contribs, np.array([res.m for res in runs]),
                          sum(res.breakdown for res in runs), sum(res.rerun for res in runs))


def _probe_workers(n_v: int) -> int:
    """Threads that run n_v probes: one per CPU this process may run on,
    at most one per probe and at most _MAX_PROBE_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(n_v, cpus, _MAX_PROBE_THREADS)


def _probe(apply, n: int, cfg: ProbeConfig, i: int, depth_rule: bool):
    """Probe i's Lanczos run from its normalized Rademacher start vector."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, i]))
    z = rng.integers(0, 2, size=n).astype(np.float64)
    z *= 2.0
    z -= 1.0
    nz = np.linalg.norm(z)
    if nz == 0.0:
        raise DomainError("zero probe vector drawn")
    z /= nz
    stop = _settled(n, cfg.m, DEPTH_TOL, i) if depth_rule else None
    return lanczos(apply, z, cfg.m, stop=stop)


def _not_spd(i: int) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"nonpositive Ritz value on probe {i}: operator is not SPD", probe_index=i)


def _gauss_logdet(alphas, betas, i: int) -> float:
    """Probe i's Gauss-rule log det e1' log(T_k) e1 = sum_j tau_j^2 log(pi_j),
    for T_k = V Pi V' and tau the first row of V, from LAPACK's dstev, rla's
    one eigensolve.  A nonpositive Ritz value raises NotPositiveDefiniteError
    and a failed eigensolve ConvergenceError, both naming probe i."""
    # dstev's wrapper wants one off-diagonal even at k = 1, where it reads none
    ritz, vecs, info = lapack.dstev(alphas, betas if alphas.size > 1 else np.zeros(1), compute_v=1)
    if info != 0:
        raise ConvergenceError(f"tridiagonal eigensolve failed on probe {i} (dstev info {info})")
    if ritz[0] <= 0.0:  # ascending
        raise _not_spd(i)
    return float(np.square(vecs[0]) @ np.log(ritz))


def _settled(n: int, m: int, tol: float, i: int):
    """Probe i's depth rule, a lanczos stop predicate: true after step
    k > DEPTH_WINDOW once |G_k - G_{k-DEPTH_WINDOW}| <= tol, for
    G_k = n _gauss_logdet(T_k), the rule the estimate reads.  G_k is kept
    by k, so a rerun, asked again from step 1, overwrites the dropped run's
    values in order.  Its errors raise here: by interlacing, a nonpositive
    Ritz value stays in every longer run."""
    g = np.empty(m)

    def stop(alphas, betas):
        k = alphas.size
        g[k - 1] = n * _gauss_logdet(alphas, betas, i)
        return k > DEPTH_WINDOW and abs(g[k - 1] - g[k - 1 - DEPTH_WINDOW]) <= tol

    return stop


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
