"""The benchmark's matrix class and its three workloads.

Every workload generates its inputs from the run seed, does its one-off
set-up (the program's work: assembly, IC(0), building P), and then runs one
operation ("op") at a time.  The benchmark calls the library through its
module attributes (``linalg.ic0``, ``precond.error_core``, ...) so that the
tracer in ``tracing.py`` can wrap exactly what is called.

Checks live beside each op.  ``check`` runs right after an op, outside its
timing, and returns the names of the checks that failed.  ``finish`` runs
once per process, after the measured loop, for checks that need a dense
oracle, a sparse LU reference or the pooled results of every op.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from bld_kaporin import divergence, linalg, pcg, precond, rla
from bld_kaporin.matio import SparseSymMatrix

__all__ = ["WORKLOADS", "BuildCore", "SolveMany", "EstimateLarge", "diffusion_triplets"]


def diffusion_triplets(nx: int, seed: int):
    """Lower-triangle triplets of a variable-coefficient 2-D diffusion matrix.

    5-point stencil on an nx x nx grid with Dirichlet boundary: every grid
    edge, and every edge from a boundary node to the outside, carries a
    coefficient exp(U(-3, 3)).  The coefficients spread over e^6 ~ 400, so
    PCG needs many iterations and IC(0) leaves a large error core, unlike
    ``synth.make_sparse_network``.  Returns (n, rows, cols, vals) with
    row >= col only: ``SparseSymMatrix.from_coo`` would sum a mirrored
    upper-triangle copy into the lower one.
    """
    rng = np.random.default_rng((seed, 0))
    idx = np.arange(nx * nx).reshape(nx, nx)
    horiz = np.exp(rng.uniform(-3.0, 3.0, size=(nx, nx - 1)))
    vert = np.exp(rng.uniform(-3.0, 3.0, size=(nx - 1, nx)))
    bound = np.exp(rng.uniform(-3.0, 3.0, size=(4, nx)))
    diag = np.zeros((nx, nx))
    diag[:, :-1] += horiz
    diag[:, 1:] += horiz
    diag[:-1, :] += vert
    diag[1:, :] += vert
    diag[0, :] += bound[0]
    diag[-1, :] += bound[1]
    diag[:, 0] += bound[2]
    diag[:, -1] += bound[3]
    rows = np.concatenate((idx.ravel(), idx[:, 1:].ravel(), idx[1:, :].ravel()))
    cols = np.concatenate((idx.ravel(), idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    vals = np.concatenate((diag.ravel(), -horiz.ravel(), -vert.ravel()))
    return nx * nx, rows, cols, vals


def full_csr(A: SparseSymMatrix) -> sp.csr_matrix:
    """Both triangles of A, assembled with scipy and not with matio."""
    return (A.lower + A.lower.T - sp.diags(A.diagonal())).tocsr()


def rhs_solution(seed: int, i: int, n: int) -> np.ndarray:
    """The seeded exact solution x_i behind the right-hand side of solve i."""
    return np.random.default_rng((seed, 1, i)).standard_normal(n)


def check_solution(A_full, b, report, failures) -> None:
    if not report.converged:
        failures.append("pcg_not_converged")
    if np.linalg.norm(b - A_full @ report.x) > 1e-9 * np.linalg.norm(b):
        failures.append("true_residual")


def _rank0_term(n: int) -> precond.LowRankTerm:
    return precond.LowRankTerm(
        r=0, V=np.zeros((n, 0)), D=np.zeros(0), selection=np.zeros(0, dtype=np.int64)
    )


class Workload:
    """A seeded workload: inputs, set-up, op, checks.

    Subclasses set ``name``, ``min_ops`` (the loop runs at least this many
    ops whatever its time budget), ``setup_repeats`` (more where set-up is
    short and its time noisy) and implement the hooks below.  ``check``
    keeps what ``finish`` and the metrics need, so the loop holds no op
    results.
    """

    name = ""
    min_ops = 3
    setup_repeats = 15
    r = None
    m = None
    n_v = None

    def __init__(self, seed: int, nx: int, tracer=None):
        self.seed = int(seed)
        self.tracer = tracer
        self.triplets = diffusion_triplets(nx, self.seed)
        self.n = self.triplets[0]
        self.A = None
        self.Q = None
        self.pcg_iters = None

    def span(self, name):
        """A benchmark-level span around a group of library calls."""
        return contextlib.nullcontext() if self.tracer is None else self.tracer.span(name)

    def setup(self) -> None:
        """The program's one-off work; timed as setup_s.  Subclasses drop
        the previous set-up's state first, so a repeat does not hold two."""
        self.A = SparseSymMatrix.from_coo(*self.triplets)

    def op_input(self, i: int):
        """Untimed per-op input."""
        return None

    def op(self, i: int, inp):
        raise NotImplementedError

    def check(self, i: int, inp, result) -> list[str]:
        """Names of the checks op i failed."""
        return []

    def finish(self) -> dict[int, list[str]]:
        """Once-per-process checks after the loop: {op index: failed checks}."""
        return {}

    def logdet_stats(self, indices):
        """(median per-op standard error, median |relative error|) of the
        log-det estimates of ops ``indices``; None without an estimator."""
        return None

    def params(self) -> dict:
        return {
            "n": self.n,
            "nnz_A": 2 * self.A.nnz_lower - self.n,
            "nnz_Q": None if self.Q is None else self.Q.nnz,
            "r": self.r,
            "m": self.m,
            "n_v": self.n_v,
        }


class BuildCore(Workload):
    """One op mirrors ``bld-kaporin precondition``: IC(0), error core,
    gamma-ordered rank-r pick, alpha*, P_alpha* and the four functionals."""

    name = "build-core"

    def __init__(self, seed: int, nx: int = 44, r: int = 50, tracer=None):
        super().__init__(seed, nx, tracer)
        self.r = r
        self.first = None

    def op(self, i, inp):
        Q = linalg.ic0(self.A)
        core = precond.error_core(self.A, Q)
        with self.span("precond.select"):
            term = precond.bld_truncate(core, self.r)
            alpha = precond.optimal_alpha(core, term)
            P = precond.Preconditioner(Q, term, alpha)
            result = {
                "P": P,
                "alpha": alpha,
                "D": precond.divergence_alpha(core, term, alpha),
                "lnK": precond.ln_kaporin_alpha(core, term, alpha),
                "interval": precond.flat_interval(core, term),
                "kappa2": precond.kappa2_alpha(core, term, alpha),
            }
        return result

    def check(self, i, inp, res):
        if self.first is None:
            self.first = (i, res["D"])
        failures = []
        D, alpha, (lo, hi) = res["D"], res["alpha"], res["interval"]
        if not abs(D - res["lnK"]) <= 1e-10 * max(1.0, D):
            failures.append("divergence_equals_ln_kaporin")
        if not lo <= alpha <= hi:
            failures.append("alpha_in_flat_interval")
        if not math.isclose(res["kappa2"], hi / lo, rel_tol=1e-12):
            failures.append("kappa2_equals_L_over_l")
        return failures

    def finish(self):
        if self.first is None:
            return {}
        i, D = self.first
        # The op runs again here rather than keeping its P, and with it a
        # dense copy of Q, alive through the loop and into peak_rss_mb.
        res = self.op(i, None)
        self.Q = res["P"].factor
        failures = []
        if not math.isclose(res["D"], D, rel_tol=1e-12):
            failures.append("op_repeats")
        # Dense oracle: D_LD(A, P) from Cholesky factors of both matrices.
        oracle = divergence.bregman_logdet(self.A, res["P"].dense())
        if not abs(D - oracle) <= 1e-8 * max(1.0, oracle):
            failures.append("divergence_matches_dense_oracle")
        # pcg_iters here: how well the P this op builds preconditions A.
        self.pcg_iters = _check_solve(self.A, res["P"], self.seed, failures)
        return {i: failures} if failures else {}


class SolveMany(Workload):
    """Set-up builds P_alpha* once; each op is one PCG solve for a fresh
    seeded right-hand side."""

    name = "solve-many"
    min_ops = 100
    setup_repeats = 5

    def __init__(self, seed: int, nx: int = 44, r: int = 50, tracer=None):
        super().__init__(seed, nx, tracer)
        self.r = r
        self.iterations = []

    def setup(self):
        self.P = self.Q = self.A_full = None
        super().setup()
        self.Q = linalg.ic0(self.A)
        core = precond.error_core(self.A, self.Q)
        term = precond.bld_truncate(core, self.r)
        self.P = precond.Preconditioner(self.Q, term, precond.optimal_alpha(core, term))
        self.A_full = full_csr(self.A)

    def op_input(self, i):
        return self.A_full @ rhs_solution(self.seed, i, self.n)

    def op(self, i, b):
        return pcg.pcg_solve(self.A, b, self.P)

    def check(self, i, b, report):
        self.iterations.append(report.iterations)
        failures = []
        check_solution(self.A_full, b, report, failures)
        return failures

    def finish(self):
        if self.iterations:
            self.pcg_iters = float(np.median(self.iterations))
        return {}


class EstimateLarge(Workload):
    """Matrix-free estimation with the rank-0 P = QQ' at n = 19600, where
    the library takes its sparse triangular-solve branch."""

    name = "estimate-large"

    def __init__(self, seed: int, nx: int = 140, m: int = 30, n_v: int = 10, tracer=None):
        super().__init__(seed, nx, tracer)
        self.r = 0
        self.m = m
        self.n_v = n_v
        self.ref = None
        self.probes = {}

    def setup(self):
        self.P = self.Q = None
        super().setup()
        self.Q = linalg.ic0(self.A)
        self.P = precond.Preconditioner(self.Q, _rank0_term(self.n), 1.0)

    def _slq(self, seed, n_v):
        op = precond.sym_preconditioned_operator(self.A, self.P)
        return rla.slq_trace_logdet(op, self.n, rla.ProbeConfig(m=self.m, n_v=n_v, seed=seed))

    def op(self, i, inp):
        est = self._slq(i, self.n_v)
        alpha = rla.approx_alpha(est.trace_est, self.n, self.r)
        return {
            "est": est,
            "lnK": rla.approx_ln_kaporin(est.trace_est, est.logdet_est, self.n),
            "alpha": alpha,
            "D": rla.approx_divergence(est.logdet_est, alpha, self.n, self.r),
        }

    def check(self, i, inp, res):
        est = res["est"]
        self.probes[i] = (est.logdet_est, est.per_probe_logdet)
        failures = []
        values = [est.trace_est, est.logdet_est, res["lnK"], res["alpha"], res["D"]]
        if not np.all(np.isfinite(values)):
            failures.append("finite_outputs")
        # rla's (seed, i) contract: probe 0 of a one-probe batch is bit-identical.
        again = self._slq(i, 1)
        if (again.per_probe_logdet[0] != est.per_probe_logdet[0]
                or again.per_probe_trace[0] != est.per_probe_trace[0]):
            failures.append("probe_seed_determinism")
        return failures

    def reference_logdet(self) -> float:
        """log det(P^-1 A) = log det A (sparse LU) - log det QQ'."""
        lu = spla.splu(full_csr(self.A).tocsc())
        return float(np.sum(np.log(np.abs(lu.U.diagonal())))) - self.Q.logdet_gram()

    def _stderr(self, per_probe) -> float:
        return self.n * float(np.std(per_probe, ddof=1)) / math.sqrt(self.n_v)

    def logdet_stats(self, indices):
        indices = [i for i in indices if i in self.probes]
        if not indices:
            return None
        stderr = [self._stderr(self.probes[i][1]) for i in indices]
        relerr = [abs(self.probes[i][0] - self.ref) / abs(self.ref) for i in indices]
        return float(np.median(stderr)), float(np.median(relerr))

    def finish(self):
        self.ref = self.reference_logdet()
        failed = {}
        # The standard error pools every probe of the run: from one op's ten
        # probes alone, a t-distribution with 9 degrees of freedom exceeds 4
        # in 0.3 % of ops, which would fail correct estimates.
        if len(self.probes) >= 2:
            stderr = self._stderr(np.concatenate([p for _, p in self.probes.values()]))
            for i, (logdet, _) in self.probes.items():
                if not abs(logdet - self.ref) <= 4.0 * stderr:
                    failed[i] = ["logdet_within_4_stderr"]
        # pcg_iters here: PCG iterations with this workload's P = QQ'.
        failures = []
        self.pcg_iters = _check_solve(self.A, self.P, self.seed, failures)
        if failures and self.probes:
            failed.setdefault(min(self.probes), []).extend(failures)
        return failed


def _check_solve(A, P, seed, failures) -> int:
    """One untimed PCG solve with P; returns its iteration count."""
    A_full = full_csr(A)
    b = A_full @ rhs_solution(seed, 0, A.n)
    report = pcg.pcg_solve(A, b, P)
    check_solution(A_full, b, report, failures)
    return report.iterations


WORKLOADS = {cls.name: cls for cls in (BuildCore, SolveMany, EstimateLarge)}
