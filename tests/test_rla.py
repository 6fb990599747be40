import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from bld_kaporin import linalg, rla
from bld_kaporin.errors import ConvergenceError, DomainError, NotPositiveDefiniteError, RankError
from bld_kaporin.rla import (
    ProbeConfig,
    approx_alpha,
    approx_divergence,
    approx_ln_kaporin,
    slq_trace_logdet,
)
from bld_kaporin.linalg import ic0
from bld_kaporin.precond import (
    LowRankTerm,
    Preconditioner,
    bld_truncate,
    error_core,
    sym_preconditioned_operator,
)
from bld_kaporin.synth import haar_orthogonal, make_dense_spd, make_sparse_network, random_spd
from test_linalg import _diffusion


def _unit_probe(seed: int, i: int, n: int) -> np.ndarray:
    """Probe i's normalized Rademacher start vector, as rla draws it."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
    z = rng.integers(0, 2, size=n).astype(np.float64) * 2.0 - 1.0
    return z / np.linalg.norm(z)


def _failing_dstev(first_coefficients, probes):
    """rla.lapack.dstev, reporting info = 1 for the tridiagonals of the
    given probes: those whose first coefficient is the probe's entry of
    first_coefficients, a clean run's per_probe_trace."""
    assert np.unique(first_coefficients).size == first_coefficients.size
    failing = {first_coefficients[i] for i in probes}
    dstev = rla.lapack.dstev

    def failing_dstev(alphas, *args, **kwargs):
        ritz, vecs, info = dstev(alphas, *args, **kwargs)
        return ritz, vecs, 1 if alphas[0] in failing else info

    return failing_dstev


@pytest.mark.parametrize("estimator", [slq_trace_logdet])
def test_report_estimates_are_n_times_the_probe_mean(estimator):
    A = random_spd(20, np.random.default_rng(21))
    rep = estimator(lambda x: A @ x, 20, ProbeConfig(m=8, n_v=5, seed=22))
    assert rep.probes_used == 5
    assert rep.trace_est == 20 * float(np.mean(rep.per_probe_trace))
    assert rep.logdet_est == 20 * float(np.mean(rep.per_probe_logdet))


class TestHutchinson:
    """SLQ's trace term is Hutchinson's estimate: e1' T_m e1 = z' M z for
    the unit probe z, so n times its probe mean is the mean of s' M s over
    the raw probes s.  One Lanczos step already gives it."""

    def test_diagonal_exact_per_probe(self):
        d = np.array([3.0, 1.0, 4.0, 1.5])
        rep = slq_trace_logdet(lambda x: d * x, 4, ProbeConfig(m=1, n_v=6, seed=0))
        for contrib in rep.per_probe_trace:
            assert 4 * contrib == pytest.approx(d.sum(), rel=1e-14)
        assert rep.trace_est == pytest.approx(d.sum(), rel=1e-14)

    def test_scaled_identity_exact(self):
        rep = slq_trace_logdet(lambda x: 2.5 * x, 10, ProbeConfig(m=1, n_v=1, seed=1))
        assert rep.trace_est == pytest.approx(25.0, rel=1e-14)

    def test_random_spd_within_ten_percent(self):
        rng = np.random.default_rng(2)
        A = random_spd(200, rng)
        rep = slq_trace_logdet(lambda x: A @ x, 200, ProbeConfig(m=1, n_v=100, seed=3))
        exact = float(np.trace(A))
        assert abs(rep.trace_est - exact) <= 0.10 * abs(exact)

    @pytest.mark.parametrize("case", ["stopped", "fixed depth", "rerun"])
    def test_trace_is_the_first_lanczos_coefficient(self, case, monkeypatch):
        # bit for bit, whether the depth rule stopped the probe, it ran its
        # m steps, or it reran (the four outliers of
        # test_rerunning_probes_honour_the_rule)
        n = 2000
        d = np.linspace(1.0, 10.0, n)
        if case == "rerun":
            d[:4] = 100.0, 300.0, 1000.0, 3000.0
        if case == "fixed depth":
            monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        rep = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=30, n_v=3, seed=0))
        assert ((rep.steps == 30) == (case == "fixed depth")).all()
        assert rep.reruns == (3 if case == "rerun" else 0)
        for i in range(3):
            v0 = _unit_probe(0, i, n)
            assert rep.per_probe_trace[i] == v0 @ (d * v0)

    def test_aggregate_is_n_times_mean(self):
        rng = np.random.default_rng(4)
        A = random_spd(40, rng)
        rep = slq_trace_logdet(lambda x: A @ x, 40, ProbeConfig(m=1, n_v=12, seed=5))
        assert rep.trace_est == pytest.approx(40 * rep.per_probe_trace.mean(), rel=1e-14)

    @pytest.mark.parametrize("counts", [{"m": 0}, {"n_v": 0}, {"m": math.nan}, {"n_v": math.nan},
                                        {"m": 2.5}])
    def test_probe_counts_below_one_or_nan_rejected(self, counts):
        with pytest.raises(DomainError, match="m >= 1 and n_v >= 1"):
            ProbeConfig(**counts)

    @pytest.mark.parametrize("seed", [2.5, -1, math.nan, np.int64(3)])
    def test_seed_is_an_integer_at_least_zero(self, seed):
        if not isinstance(seed, np.integer):
            with pytest.raises(DomainError, match="probe seed"):
                ProbeConfig(seed=seed)
            return
        A = random_spd(20, np.random.default_rng(9))
        rep = slq_trace_logdet(lambda x: A @ x, 20, ProbeConfig(m=5, n_v=3, seed=seed))
        ref = slq_trace_logdet(lambda x: A @ x, 20, ProbeConfig(m=5, n_v=3, seed=3))
        assert rep.per_probe_trace.tobytes() == ref.per_probe_trace.tobytes()
        assert rep.per_probe_logdet.tobytes() == ref.per_probe_logdet.tobytes()

    def test_unbiased_over_many_seeds(self):
        rng = np.random.default_rng(8)
        A = random_spd(50, rng)
        exact = float(np.trace(A))
        estimates = np.array(
            [
                slq_trace_logdet(lambda x: A @ x, 50, ProbeConfig(m=1, n_v=4, seed=s)).trace_est
                for s in range(500)
            ]
        )
        stderr = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean() - exact) <= 3.0 * stderr


class TestSlq:
    def test_non_finite_operator_rejected(self):
        cfg = ProbeConfig(m=5, n_v=2, seed=0)
        with pytest.raises(DomainError, match="step 0"):
            slq_trace_logdet(lambda x: np.full_like(x, np.nan), 20, cfg)

    def test_scaled_identity_exact(self):
        for c in (0.7, 3.0):
            rep = slq_trace_logdet(lambda x: c * x, 12, ProbeConfig(m=5, n_v=3, seed=0))
            assert rep.trace_est == pytest.approx(12 * c, rel=1e-12)
            assert rep.logdet_est == pytest.approx(12 * math.log(c), rel=1e-12)

    def test_per_probe_quadrature_exact_at_full_krylov(self):
        # orthogonally embedded diag(1,2,3): with m = n the Gauss quadrature
        # reproduces v0' f(M) v0 exactly for each probe
        W = haar_orthogonal(3, 9)
        M = (W * np.array([1.0, 2.0, 3.0])) @ W.T
        cfg = ProbeConfig(m=3, n_v=5, seed=10)
        rep = slq_trace_logdet(lambda x: M @ x, 3, cfg)
        logM = (W * np.log([1.0, 2.0, 3.0])) @ W.T
        for i in range(cfg.n_v):
            v0 = _unit_probe(10, i, 3)
            assert rep.per_probe_trace[i] == pytest.approx(float(v0 @ M @ v0), rel=1e-12)
            assert rep.per_probe_logdet[i] == pytest.approx(float(v0 @ logM @ v0), rel=1e-10)

    def test_diagonal_rademacher_exact_per_probe_at_m_equals_n(self):
        # diagonal target: sign probes weight every eigenvalue by exactly 1/n,
        # so each probe reproduces trace and log det to roundoff
        rng = np.random.default_rng(11)
        for n in (8, 17, 30):
            d = rng.uniform(0.5, 4.0, size=n)
            rep = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=n, n_v=4, seed=12))
            for i in range(4):
                assert n * rep.per_probe_trace[i] == pytest.approx(d.sum(), rel=1e-8)
                assert n * rep.per_probe_logdet[i] == pytest.approx(np.log(d).sum(), rel=1e-8)

    def test_synthetic_accuracy(self):
        spec = np.geomspace(1.0, 1e-2, 150)
        A = make_dense_spd(spec, basis_seed=13)
        rep = slq_trace_logdet(lambda x: A @ x, 150, ProbeConfig(m=30, n_v=20, seed=14))
        exact_tr = spec.sum()
        exact_ld = np.log(spec).sum()
        assert abs(rep.trace_est - exact_tr) <= 0.05 * abs(exact_tr)
        assert abs(rep.logdet_est - exact_ld) <= 0.05 * abs(exact_ld)

    def test_determinism(self):
        rng = np.random.default_rng(15)
        A = random_spd(30, rng)
        cfg = ProbeConfig(m=10, n_v=7, seed=16)
        r1 = slq_trace_logdet(lambda x: A @ x, 30, cfg)
        r2 = slq_trace_logdet(lambda x: A @ x, 30, cfg)
        assert r1.trace_est == r2.trace_est
        assert r1.logdet_est == r2.logdet_est
        np.testing.assert_array_equal(r1.per_probe_logdet, r2.per_probe_logdet)

    def test_probe_zero_independent_of_batch_size(self):
        # the (seed, i) contract on the package's own operator: probe 0 of a
        # one-probe run is bit-identical to probe 0 of a ten-probe run, and
        # the depth rule stops it at the same step in both
        A = make_sparse_network(80, seed=19)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 4)
        op = sym_preconditioned_operator(A, Preconditioner(core.factor, term, 1.0))
        one = slq_trace_logdet(op, 80, ProbeConfig(m=12, n_v=1, seed=20))
        ten = slq_trace_logdet(op, 80, ProbeConfig(m=12, n_v=10, seed=20))
        assert one.steps[0] == ten.steps[0] < 12
        assert one.per_probe_trace[0] == ten.per_probe_trace[0]
        assert one.per_probe_logdet[0] == ten.per_probe_logdet[0]

    def test_standard_errors(self):
        A = random_spd(40, np.random.default_rng(21))
        rep = slq_trace_logdet(lambda x: A @ x, 40, ProbeConfig(m=10, n_v=6, seed=22))
        assert rep.breakdowns == 0
        for stderr, per_probe in ((rep.trace_stderr, rep.per_probe_trace),
                                  (rep.logdet_stderr, rep.per_probe_logdet)):
            assert stderr == pytest.approx(40 * np.std(per_probe, ddof=1) / math.sqrt(6),
                                           rel=1e-12)
        single = slq_trace_logdet(lambda x: A @ x, 40, ProbeConfig(m=10, n_v=1, seed=22))
        assert single.trace_stderr is None and single.logdet_stderr is None

    def test_breakdowns_counted(self):
        # every probe of a scaled identity exhausts its Krylov space at step 1
        rep = slq_trace_logdet(lambda x: 2.0 * x, 12, ProbeConfig(m=5, n_v=3, seed=23))
        assert rep.breakdowns == 3

    def test_reruns_summed_over_probes(self, monkeypatch):
        reruns = []
        lanczos = linalg.lanczos

        def recorded(apply, v0, m, stop=None):
            res = lanczos(apply, v0, m, stop=stop)
            reruns.append(res.rerun)
            return res

        monkeypatch.setattr(rla, "lanczos", recorded)
        # the depth rule would stop these probes before any reruns
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        A = make_sparse_network(200, seed=24).to_dense()
        rep = slq_trace_logdet(lambda x: A @ x, 200, ProbeConfig(m=40, n_v=4, seed=25))
        assert len(reruns) == 4
        assert rep.reruns == sum(reruns) > 0

    def test_monotone_accuracy_in_m(self, monkeypatch):
        # the fixed-depth estimator: the depth rule would stop every probe
        # of this condition-10 spectrum well before m = 16
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        spec = np.linspace(0.5, 5.0, 100)
        A = make_dense_spd(spec, basis_seed=17)
        exact = np.log(spec).sum()
        medians = []
        for m in (8, 16, 32):
            errs = [
                abs(slq_trace_logdet(lambda x: A @ x, 100, ProbeConfig(m=m, n_v=6, seed=s)).logdet_est - exact)
                for s in range(20)
            ]
            medians.append(np.median(errs))
        assert medians[1] <= medians[0] + 1e-12
        assert medians[2] <= medians[1] + 1e-12

    def test_indefinite_operator_reports_probe(self):
        d = np.array([1.0, -0.5, 2.0, 1.5])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            slq_trace_logdet(lambda x: d * x, 4, ProbeConfig(m=4, n_v=3, seed=18))
        assert exc.value.probe_index is not None

    @pytest.mark.parametrize("tol, probe", [(0, 2), (2.0, 0), (2.0, 3)])
    def test_failed_eigensolve_reports_probe(self, tol, probe, monkeypatch):
        # dstev reports info = 1 on every tridiagonal of one probe, told
        # apart by its first coefficient, the probe's trace from a clean run
        monkeypatch.setattr(rla, "DEPTH_TOL", tol)
        A = make_dense_spd(np.linspace(1.0, 10.0, 300), basis_seed=30)
        cfg = ProbeConfig(m=30, n_v=4, seed=31)
        monkeypatch.setattr(rla.lapack, "dstev", _failing_dstev(
            slq_trace_logdet(lambda x: A @ x, 300, cfg).per_probe_trace, {probe}))
        with pytest.raises(ConvergenceError, match=rf"probe {probe}\b"):
            slq_trace_logdet(lambda x: A @ x, 300, cfg)

    def test_one_lanczos_basis_live_at_a_time(self):
        # the previous probe's m x n basis is dropped before the next probe
        # builds its own: holding both reads about 2.2 bases.  Four outliers
        # converge within 30 steps, so every probe reruns with a kept basis
        n, m = 19600, 30
        d = np.linspace(1.0, 10.0, n)
        d[:4] = 100.0, 300.0, 1000.0, 3000.0
        tracemalloc.start()
        try:
            rep = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=m, n_v=3, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reruns == 3
        assert peak <= 1.5 * (8 * m * n)

    def test_semi_orthogonal_probes_keep_no_basis(self):
        # no probe reruns on an evenly spread spectrum, so each holds a few
        # n-vectors, well under one m x n basis
        n, m = 19600, 30
        d = np.linspace(1.0, 10.0, n)
        tracemalloc.start()
        try:
            rep = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=m, n_v=3, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reruns == 0
        assert peak <= 12 * 8 * n


def _report_bytes(rep) -> bytes:
    """Every number an EstimateReport holds, as bytes."""
    return b"".join((np.array([rep.n, rep.breakdowns, rep.reruns]).tobytes(),
                     np.array([rep.trace_est, rep.logdet_est]).tobytes(),
                     rep.per_probe_trace.tobytes(), rep.per_probe_logdet.tobytes(),
                     rep.steps.tobytes()))


def _ic0_operator(nx: int, seed: int):
    A = _diffusion(nx, seed=seed)
    term = LowRankTerm(r=0, V=np.empty((A.n, 0)), D=np.empty(0), selection=np.empty(0, int))
    return sym_preconditioned_operator(A, Preconditioner(ic0(A), term, 1.0)), A.n


def _rerunning_diagonal(n: int):
    # four outliers converge within 30 steps, so every probe reruns
    d = np.linspace(1.0, 10.0, n)
    d[:4] = 100.0, 300.0, 1000.0, 3000.0
    return (lambda x: d * x), n


class TestProbeThreads:
    """slq_trace_logdet runs its probes on _probe_workers(n_v) threads, the
    calling one included.  Tests set the count by patching that function."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("case, n_v", [("ic0", 6), ("rerunning", 3), ("ic0", 1)])
    def test_report_bits_do_not_depend_on_the_thread_count(self, case, n_v, w, monkeypatch):
        apply, n = _ic0_operator(30, seed=37) if case == "ic0" else _rerunning_diagonal(2000)
        cfg = ProbeConfig(m=30, n_v=n_v, seed=38)
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: 1)
        serial = slq_trace_logdet(apply, n, cfg)
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: w)
        threaded = slq_trace_logdet(apply, n, cfg)
        if case == "ic0":
            assert (serial.steps < 30).all()  # the depth rule stopped every probe
        else:
            assert serial.reruns == n_v
        assert _report_bytes(threaded) == _report_bytes(serial)

    def test_each_probe_runs_once_under_frequent_switches(self, monkeypatch):
        # eight threads on 40 probes, switching every microsecond: an index
        # handed out twice would run a probe twice, one lost would leave a
        # hole in the report
        ic0_apply, n = _ic0_operator(12, seed=41)
        cfg = ProbeConfig(m=12, n_v=40, seed=42)
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: 1)
        serial = slq_trace_logdet(ic0_apply, n, cfg)
        starts = []
        lanczos = linalg.lanczos

        def recorded(apply, v0, m, stop=None):
            starts.append(v0.tobytes())
            return lanczos(apply, v0, m, stop=stop)

        monkeypatch.setattr(rla, "lanczos", recorded)
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = slq_trace_logdet(ic0_apply, n, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert len(starts) == len(set(starts)) == 40
        assert _report_bytes(threaded) == _report_bytes(serial)

    def test_probes_run_at_once(self, monkeypatch):
        # the first applies of probes 0 and 1 wait for each other: a run
        # that took the probes one after another would break the barrier
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: 2)
        barrier = threading.Barrier(2, timeout=10)
        calls = itertools.count()
        d = np.linspace(1.0, 10.0, 100)

        def apply(x):
            if next(calls) < 2:
                barrier.wait()
            return d * x

        rep = slq_trace_logdet(apply, 100, ProbeConfig(m=10, n_v=4, seed=39))
        assert rep.probes_used == 4

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_lowest_failing_probe_is_raised(self, w, monkeypatch):
        # probes 1 and 3 fail.  With helper threads probe 1 fails only after
        # probe 3 has, so probe 3's error comes first; probe 1 is still named
        A = make_dense_spd(np.linspace(1.0, 10.0, 300), basis_seed=30)
        cfg = ProbeConfig(m=30, n_v=6, seed=31)
        first = slq_trace_logdet(lambda x: A @ x, 300, cfg).per_probe_trace
        failing = _failing_dstev(first, {1, 3})
        three_failed = threading.Event()

        def ordered(alphas, *args, **kwargs):
            if alphas[0] == first[3]:
                three_failed.set()
            elif alphas[0] == first[1] and w > 1:
                assert three_failed.wait(timeout=30)
            return failing(alphas, *args, **kwargs)

        monkeypatch.setattr(rla.lapack, "dstev", ordered)
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: w)
        with pytest.raises(ConvergenceError, match=r"probe 1\b"):
            slq_trace_logdet(lambda x: A @ x, 300, cfg)

    def test_concurrent_reruns_hold_one_basis_at_a_time(self, monkeypatch):
        # two probes rerun at once; the second waits for the first's basis
        # to be freed before it builds its own
        monkeypatch.setattr(rla, "_probe_workers", lambda n_v: 2)
        m = 30
        apply, n = _rerunning_diagonal(19600)
        tracemalloc.start()
        try:
            rep = slq_trace_logdet(apply, n, ProbeConfig(m=m, n_v=4, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.reruns == 4
        assert peak <= 1.5 * (8 * m * n)

    def test_one_probe_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(rla.threading, "Thread", no_thread)
        rep = slq_trace_logdet(lambda x: 2.0 * x, 12, ProbeConfig(m=5, n_v=1, seed=40))
        assert rep.probes_used == 1

    def test_worker_count(self, monkeypatch):
        # one per CPU the process may run on, at most one per probe and at
        # most _MAX_PROBE_THREADS
        monkeypatch.setattr(rla.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3, 4, 5}, raising=False)
        assert [rla._probe_workers(n_v) for n_v in (1, 2, 10)] == [1, 2, rla._MAX_PROBE_THREADS]
        monkeypatch.setattr(rla.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert rla._probe_workers(10) == 1


class TestDepthRule:
    """A probe stops after step k > DEPTH_WINDOW once its n-scaled Gauss-rule
    log det moved by at most DEPTH_TOL over the last DEPTH_WINDOW steps.
    Tests that need another tolerance, or the fixed-depth estimator
    (DEPTH_TOL = 0), patch rla.DEPTH_TOL."""

    def test_zero_tolerance_is_the_fixed_depth_run(self, monkeypatch):
        d = np.linspace(1.0, 10.0, 500)
        cfg = ProbeConfig(m=30, n_v=4, seed=31)
        assert (slq_trace_logdet(lambda x: d * x, 500, cfg).steps < 30).all()
        lanczos = linalg.lanczos
        monkeypatch.setattr(rla, "lanczos", lambda apply, v0, m, stop=None: lanczos(apply, v0, m))
        ignored = slq_trace_logdet(lambda x: d * x, 500, cfg)
        monkeypatch.undo()
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        off = slq_trace_logdet(lambda x: d * x, 500, cfg)
        assert off.steps.tolist() == ignored.steps.tolist() == [30] * 4
        np.testing.assert_array_equal(off.per_probe_trace, ignored.per_probe_trace)
        np.testing.assert_array_equal(off.per_probe_logdet, ignored.per_probe_logdet)

    @pytest.mark.parametrize("m", [30, 45])
    def test_full_krylov_runs_are_never_shortened(self, m, monkeypatch):
        # m >= n: a tolerance that would stop every probe at step 5 is ignored
        n = 30
        d = np.random.default_rng(32).uniform(0.5, 4.0, n)
        cfg = ProbeConfig(m=m, n_v=4, seed=33)
        monkeypatch.setattr(rla, "DEPTH_TOL", 1e6)
        loose = slq_trace_logdet(lambda x: d * x, n, cfg)
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        fixed = slq_trace_logdet(lambda x: d * x, n, cfg)
        assert loose.steps.tolist() == fixed.steps.tolist() == [n] * 4
        np.testing.assert_array_equal(loose.per_probe_logdet, fixed.per_probe_logdet)

    def test_rerunning_probes_honour_the_rule(self, monkeypatch):
        # the four-outlier diagonal of test_one_lanczos_basis_live_at_a_time:
        # every probe reruns, stops early, and equals the fixed-depth run of
        # its own length bit for bit
        n = 2000
        d = np.linspace(1.0, 10.0, n)
        d[:4] = 100.0, 300.0, 1000.0, 3000.0
        rep = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=30, n_v=3, seed=0))
        assert rep.reruns == 3 and (rep.steps < 30).all()
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        for k in set(rep.steps.tolist()):
            fixed = slq_trace_logdet(lambda x: d * x, n, ProbeConfig(m=k, n_v=3, seed=0))
            for i in np.flatnonzero(rep.steps == k):
                assert rep.per_probe_trace[i] == fixed.per_probe_trace[i]
                assert rep.per_probe_logdet[i] == fixed.per_probe_logdet[i]

    @pytest.mark.parametrize("tol", [0.5, 2.0])
    def test_stopped_log_det_is_near_the_converged_one(self, tol, monkeypatch):
        # IC(0)-preconditioned diffusion, n = 1600: m = 60 runs to the
        # converged quadrature, and the Gauss rule only overestimates log
        A = _diffusion(40, seed=35)
        term = LowRankTerm(r=0, V=np.empty((A.n, 0)), D=np.empty(0), selection=np.empty(0, int))
        op = sym_preconditioned_operator(A, Preconditioner(ic0(A), term, 1.0))
        cfg = ProbeConfig(m=60, n_v=6, seed=36)
        monkeypatch.setattr(rla, "DEPTH_TOL", tol)
        ruled = slq_trace_logdet(op, A.n, cfg)
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        deep = slq_trace_logdet(op, A.n, cfg)
        assert (ruled.steps < 30).all()
        gap = A.n * (ruled.per_probe_logdet - deep.per_probe_logdet)
        assert (gap >= 0.0).all() and (gap <= 3 * tol).all()

    @pytest.mark.parametrize("tol", [0, 2.0])
    def test_indefinite_operator_reports_probe_with_or_without_the_rule(self, tol, monkeypatch):
        # with the rule on, the first nonpositive Ritz value raises from
        # inside the run; every longer run would have one too
        monkeypatch.setattr(rla, "DEPTH_TOL", tol)
        d = np.linspace(-1.0, 5.0, 50)
        with pytest.raises(NotPositiveDefiniteError) as exc:
            slq_trace_logdet(lambda x: d * x, 50, ProbeConfig(m=20, n_v=3, seed=18))
        assert exc.value.probe_index == 0


class TestDerivedQuantities:
    def test_ln_kaporin_exact_inputs(self):
        assert approx_ln_kaporin(2.0, 0.0, 2) == 0.0
        got = approx_ln_kaporin(5.0, math.log(4.0), 2)
        assert got == pytest.approx(2 * math.log(2.5) - math.log(4.0), rel=1e-12)

    def test_ln_kaporin_domain(self):
        with pytest.raises(DomainError):
            approx_ln_kaporin(-1.0, 0.0, 2)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                approx_ln_kaporin(bad, 0.0, 2)
            with pytest.raises(DomainError):
                approx_ln_kaporin(2.0, bad, 2)

    def test_alpha_exact_inputs(self):
        assert approx_alpha(3.0, 3, 0) == pytest.approx(1.0)
        assert approx_alpha(3.3, 3, 1) == pytest.approx(1.15)

    def test_alpha_rank_domain(self):
        with pytest.raises(RankError):
            approx_alpha(3.0, 3, 3)

    def test_alpha_non_finite_trace_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                approx_alpha(bad, 3, 0)

    def test_divergence_exact_inputs(self):
        assert approx_divergence(math.log(0.75), 1.0, 4, 2) == pytest.approx(
            -math.log(0.75), rel=1e-12
        )
        assert approx_divergence(0.0, 1.0, 4, 2) == 0.0

    def test_divergence_domain(self):
        with pytest.raises(DomainError):
            approx_divergence(0.0, 0.0, 4, 2)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                approx_divergence(0.0, bad, 4, 2)
            with pytest.raises(DomainError):
                approx_divergence(bad, 1.0, 4, 2)

    def test_surrogates_reproduce_exact_functionals_from_exact_inputs(self):
        from bld_kaporin.precond import divergence_alpha, ln_kaporin_alpha, optimal_alpha

        A = make_sparse_network(120, seed=19)
        core = error_core(A, ic0(A))
        for r in (0, 12, 60):
            term = bld_truncate(core, r)
            tr, ld = core.rest(term).trace_logdet(1.0)
            a_star = optimal_alpha(core, term)
            a_hat = approx_alpha(tr, 120, r)
            assert a_hat == pytest.approx(a_star, rel=1e-12)
            assert approx_divergence(ld, a_hat, 120, r) == pytest.approx(
                divergence_alpha(core, term, a_star), rel=1e-12
            )
            assert approx_ln_kaporin(tr, ld, 120) == pytest.approx(
                ln_kaporin_alpha(core, term, 1.0), rel=1e-12
            )

    def test_pipeline_against_exact_on_factored_instance(self):
        from bld_kaporin.linalg import ic0
        from bld_kaporin.precond import (
            Preconditioner,
            bld_truncate,
            divergence_alpha,
            error_core,
            optimal_alpha,
            sym_preconditioned_operator,
        )
        from bld_kaporin.synth import make_sparse_network

        A = make_sparse_network(120, seed=19)
        core = error_core(A, ic0(A))
        term = bld_truncate(core, 12)
        a_star = optimal_alpha(core, term)
        op = sym_preconditioned_operator(A, Preconditioner(core.factor, term, 1.0))
        est = slq_trace_logdet(op, 120, ProbeConfig(m=30, n_v=30, seed=20))
        a_hat = approx_alpha(est.trace_est, 120, 12)
        assert abs(a_hat - a_star) <= 0.05 * a_star
        d_hat = approx_divergence(est.logdet_est, a_hat, 120, 12)
        d_exact = divergence_alpha(core, term, a_star)
        assert abs(d_hat - d_exact) <= 0.1 * max(1.0, d_exact)
