import json
import math

import numpy as np
import pytest

from bld_kaporin.errors import DomainError
from bld_kaporin.harness import (
    ExperimentSpec,
    alpha_sensitivity,
    bound_overlay,
    build_preconditioner,
    emit,
    error_order_study,
    estimator_study,
    sweep_alpha,
    verify_theorems,
)
from bld_kaporin.matio import SparseSymMatrix
from bld_kaporin.rla import ProbeConfig
from bld_kaporin.synth import SyntheticSpec, make_sparse_network


class TestBuildPreconditioner:
    def test_alpha_defaults_to_alpha_star(self):
        A = make_sparse_network(60, seed=2)
        _, _, P, alpha_star = build_preconditioner(A, "ic0", 6)
        assert P.alpha == alpha_star != 1.0
        assert build_preconditioner(A, "ic0", 6, 1.0)[2].alpha == 1.0

    @pytest.mark.parametrize("truncation", ["BLD", "svd", ""])
    def test_unknown_truncation_rejected(self, truncation):
        with pytest.raises(DomainError, match="truncation"):
            build_preconditioner(make_sparse_network(30, seed=2), "ic0", 3, truncation=truncation)


class TestSweepAlpha:
    def test_three_by_three_constructed_case(self):
        # identity factor on spectrum (4, 1.5, 0.5): the error eigenvalues are
        # (3, 0.5, -0.5); rank 1 keeps 3, leaving the (1.5, 0.5) complement
        spec = ExperimentSpec(
            matrix=SyntheticSpec(3, "explicit", ([4.0, 1.5, 0.5],), basis_seed=1),
            factor="identity",
            rank=1,
        )
        rows, summary = sweep_alpha(spec)
        assert summary["alpha_star"] == pytest.approx(1.0, rel=1e-9)
        assert summary["interval"][0] == pytest.approx(0.5, rel=1e-9)
        assert summary["interval"][1] == pytest.approx(1.5, rel=1e-9)
        assert summary["alpha_star_in_interval"]
        assert summary["d_ld_at_alpha_star"] == pytest.approx(-math.log(0.75), rel=1e-8)
        inside = [r for r in rows if 0.5 + 1e-9 <= r["alpha"] <= 1.5 - 1e-9]
        assert inside and all(r["kappa2"] == pytest.approx(3.0, rel=1e-9) for r in inside)
        d_min = min(rows, key=lambda r: r["d_ld"])
        k_min = min(rows, key=lambda r: r["ln_k"])
        assert d_min["alpha"] == pytest.approx(1.0, rel=1e-12)
        assert k_min["alpha"] == pytest.approx(1.0, rel=1e-12)

    def test_zero_error_core(self):
        spec = ExperimentSpec(
            matrix=SyntheticSpec(8, "uniform", (0.5, 3.0), basis_seed=2),
            factor="exact",
            rank=2,
        )
        rows, summary = sweep_alpha(spec)
        assert summary["alpha_star"] == pytest.approx(1.0, abs=1e-10)
        assert summary["d_ld_at_alpha_star"] <= 1e-12
        for r in rows:
            expected = 6 * (1.0 / r["alpha"] + math.log(r["alpha"]) - 1.0)
            assert r["d_ld"] == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_divergence_dominates_ln_k_on_grid(self):
        spec = ExperimentSpec(matrix=make_sparse_network(90, seed=3), factor="ic0", rank=9)
        rows, _ = sweep_alpha(spec)
        for r in rows:
            assert r["d_ld"] >= r["ln_k"] - 1e-10

    def test_reproducible_bytes(self, tmp_path):
        spec = ExperimentSpec(matrix=make_sparse_network(60, seed=4), factor="ic0", rank=6)
        paths = []
        for tag in ("a", "b"):
            rows, summary = sweep_alpha(spec)
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            emit(rows, summary, csv, js)
            paths.append((csv.read_bytes(), js.read_bytes()))
        assert paths[0] == paths[1]


class TestVerifyTheorems:
    def test_all_batteries_pass(self):
        report = verify_theorems(20, (10, 40), seed=5)
        assert report["violations"] == []
        assert set(report["results"]) >= {
            "divergence_dominates_ln_k",
            "unit_trace_equality",
            "four_way_identity",
            "bld_beats_tsvd",
            "dual_identity",
        }

    def test_trials_domain(self):
        with pytest.raises(Exception):
            verify_theorems(0)


class TestBoundOverlay:
    def test_exact_preconditioner_trivial(self):
        spec = ExperimentSpec(
            matrix=SyntheticSpec(40, "uniform", (0.5, 5.0), basis_seed=7),
            factor="exact",
            rank=0,
        )
        rows, summary = bound_overlay(spec)
        assert summary["iterations"] == 1
        assert summary["violations"] == []

    def test_identity_factor_geometric(self):
        spec = ExperimentSpec(
            matrix=SyntheticSpec(120, "geometric", (1e4,), basis_seed=8),
            factor="identity",
            rank=12,
            pcg=__import__("bld_kaporin.pcg", fromlist=["SolveConfig"]).SolveConfig(tol=1e-9),
        )
        rows, summary = bound_overlay(spec)
        assert summary["violations"] == []
        assert summary["converged"]
        # k = 0 row carries the initial ratios and empty bound cells
        assert rows[0]["rel_res_2"] == 1.0 and rows[0]["bound_kaporin"] is None

    def test_ic0_network_with_estimates(self):
        spec = ExperimentSpec(matrix=make_sparse_network(150, seed=9), factor="ic0", rank=15)
        rows, summary = bound_overlay(spec)
        assert summary["violations"] == []
        assert summary["trace_normalized"]  # alpha defaults to alpha*
        for entry in summary["estimates"]:
            if entry["observed_iterations"] is None:
                continue
            assert entry["observed_iterations"] <= entry["i_kaporin_sigma2"]
            if "i_kaporin_recommended" in entry:
                assert entry["observed_iterations"] <= entry["i_kaporin_recommended"]
            if "i_divergence" in entry:
                assert entry["observed_iterations"] <= entry["i_divergence"]


class TestAlphaSensitivity:
    def test_observational_table(self):
        spec = ExperimentSpec(matrix=make_sparse_network(70, seed=10), factor="ic0", rank=7)
        rows, summary = alpha_sensitivity(spec)
        assert len(rows) == 5
        assert all(r["converged"] for r in rows)
        star_rows = [r for r in rows if r["alpha"] == pytest.approx(summary["alpha_star"])]
        assert len(star_rows) == 1
        # nothing asserted about the gaps themselves: they are the data
        assert all(np.isfinite(r["iterate_gap_vs_first"]) for r in rows)


class TestErrorOrderStudy:
    def test_slope_in_window(self):
        for seed in (11, 12):
            rows, summary = error_order_study(40, seed, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
            assert 1.8 <= summary["slope"] <= 2.2
            assert len(rows) == 5

    def test_eps_domain(self):
        with pytest.raises(Exception):
            error_order_study(10, 0, [0.0, 1e-2])


class TestEstimatorStudy:
    def test_full_krylov_on_diagonal_is_exact(self):
        # diagonal system + identity factor: the symmetrized preconditioned
        # operator is diagonal, so sign probes at m = n are exact per probe
        n = 16
        diag = np.linspace(0.5, 4.0, n)
        A = SparseSymMatrix.from_dense(np.diag(diag))
        spec = ExperimentSpec(
            matrix=A, factor="identity", rank=0,
            probes=ProbeConfig(m=n, n_v=4, seed=13),
        )
        rows, _ = estimator_study(spec, schedules=[(n, 4)])
        row = rows[0]
        assert row["trace_hat"] == pytest.approx(row["trace_exact"], rel=1e-8)
        assert row["logdet_hat"] == pytest.approx(row["logdet_exact"], rel=1e-8, abs=1e-8)
        assert row["rel_err_ln_k"] <= 1e-8 or row["ln_k_exact"] < 1e-10
        assert row["rel_err_alpha"] <= 1e-8

    def test_rows_carry_spread_and_breakdowns(self):
        # sign probes weight every eigenvalue of a diagonal operator by 1/n,
        # so the probes agree to roundoff; m = n spans the whole space, so
        # no probe breaks down
        n = 12
        A = SparseSymMatrix.from_dense(np.diag(np.linspace(0.5, 4.0, n)))
        spec = ExperimentSpec(matrix=A, factor="identity", rank=0,
                              probes=ProbeConfig(m=n, n_v=5, seed=3))
        row = estimator_study(spec)[0][0]
        assert row["breakdowns"] == 0
        assert 0.0 <= row["trace_stderr"] <= 1e-10 * row["trace_exact"]
        assert 0.0 <= row["logdet_stderr"] <= 1e-10 * abs(row["logdet_exact"])
    def test_single_probe_has_no_standard_error(self):
        spec = ExperimentSpec(
            matrix=make_sparse_network(40, seed=16), factor="ic0", rank=4,
            probes=ProbeConfig(m=10, n_v=1, seed=17),
        )
        rows, _ = estimator_study(spec)
        assert rows[0]["trace_stderr"] is None and rows[0]["logdet_stderr"] is None

    def test_network_within_tolerances(self):
        spec = ExperimentSpec(
            matrix=make_sparse_network(150, seed=14),
            factor="ic0",
            rank=15,
            probes=ProbeConfig(m=30, n_v=30, seed=15),
        )
        rows, _ = estimator_study(spec)
        row = rows[0]
        assert row["rel_err_alpha"] <= 0.05
        assert row["rel_err_d_ld"] <= 0.1
        assert row["sign_ln_k_gap"] in (-1, 0, 1)
