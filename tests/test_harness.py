import json
import math

import numpy as np
import pytest

from bld_kaporin import harness, pcg, precond, rla
from bld_kaporin.errors import DomainError
from bld_kaporin.harness import (
    FACTORS,
    alpha_sensitivity,
    bound_overlay,
    build_preconditioner,
    emit,
    error_order_study,
    estimator_study,
    sweep_alpha,
    verify_theorems,
)
from bld_kaporin.cli import run
from bld_kaporin.matio import SparseSymMatrix, write_matrix_market
from bld_kaporin.rla import ProbeConfig
from bld_kaporin.synth import make_dense_spd, make_sparse_network, make_spectrum


def _assembled(spectrum, seed: int) -> SparseSymMatrix:
    return SparseSymMatrix.from_dense(make_dense_spd(spectrum, seed))


def _run_cli(A: SparseSymMatrix, command: str) -> None:
    """Run a CLI command on A, written to a Matrix Market file in the working directory."""
    write_matrix_market(A, "a.mtx")
    assert run([command, "--matrix", "a.mtx", "--rank", "6"]) == 0


class TestBuildPreconditioner:
    def test_alpha_defaults_to_alpha_star(self):
        A = make_sparse_network(60, seed=2)
        _, rest, P = build_preconditioner(A, "ic0", 6)
        assert P.alpha == rest.alpha_star != 1.0
        assert build_preconditioner(A, "ic0", 6, 1.0)[2].alpha == 1.0

    @pytest.mark.parametrize("truncation", ["BLD", "svd", ""])
    def test_unknown_truncation_rejected(self, truncation):
        with pytest.raises(DomainError, match="truncation"):
            build_preconditioner(make_sparse_network(30, seed=2), "ic0", 3, truncation=truncation)


    @pytest.mark.parametrize("factor", sorted(FACTORS))
    def test_every_factor_kind_builds(self, factor):
        term, rest, P = build_preconditioner(make_sparse_network(30, seed=2), factor, 3)
        assert term.r == 3 and P.low_rank is term and rest.alpha_star > 0.0

    @pytest.mark.parametrize("factor", ["IC0", "ic1", ""])
    def test_unknown_factor_rejected(self, factor):
        with pytest.raises(DomainError, match="factor"):
            build_preconditioner(make_sparse_network(30, seed=2), factor, 3)
        with pytest.raises(DomainError, match="factor"):
            sweep_alpha(make_sparse_network(30, seed=2), factor=factor)

    @pytest.mark.parametrize("n, rank", [(1, 0), (2, 1), (10, 1), (11, 2)])
    def test_default_rank_is_below_the_order(self, n, rank):
        term, _, _ = build_preconditioner(make_sparse_network(n, seed=2), "ic0", None)
        assert term.r == rank


class TestSweepAlpha:
    def test_three_by_three_constructed_case(self):
        # identity factor on spectrum (4, 1.5, 0.5): the error eigenvalues are
        # (3, 0.5, -0.5); rank 1 keeps 3, leaving the (1.5, 0.5) complement
        A = _assembled([4.0, 1.5, 0.5], 1)
        rows, summary = sweep_alpha(A, factor="identity", rank=1)
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
        A = _assembled(make_spectrum(8, "uniform", (0.5, 3.0)), 2)
        rows, summary = sweep_alpha(A, factor="exact", rank=2)
        assert summary["alpha_star"] == pytest.approx(1.0, abs=1e-10)
        assert summary["d_ld_at_alpha_star"] <= 1e-12
        for r in rows:
            expected = 6 * (1.0 / r["alpha"] + math.log(r["alpha"]) - 1.0)
            assert r["d_ld"] == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_divergence_dominates_ln_k_on_grid(self):
        rows, _ = sweep_alpha(make_sparse_network(90, seed=3), factor="ic0", rank=9)
        for r in rows:
            assert r["d_ld"] >= r["ln_k"] - 1e-10

    @pytest.mark.parametrize("grid", [(1.0, 2.0, 1, "log"), (2.0, 1.0, 5, "log"),
                                      (0.0, 2.0, 5, "log"), (0.5, 2.0, 5, "cubic"),
                                      (math.nan, 2.0, 5, "log"), (1.0, math.inf, 5, "log"),
                                      (1.0, 2.0, math.nan, "log"), (1.0, 2.0, 2.5, "log")])
    def test_out_of_range_grid_rejected(self, grid):
        with pytest.raises(DomainError, match="grid"):
            sweep_alpha(make_sparse_network(30, seed=2), grid=grid)

    @pytest.fixture
    def rest_calls(self, monkeypatch):
        """The rank of every ErrorCore.rest pass, in call order."""
        calls = []
        rest = precond.ErrorCore.rest

        def counted(core, term):
            calls.append(term.r)
            return rest(core, term)

        monkeypatch.setattr(precond.ErrorCore, "rest", counted)
        return calls

    def test_one_rest_pass_per_sweep(self, rest_calls):
        rows, _ = sweep_alpha(make_sparse_network(60, seed=4), rank=6)
        assert len(rows) > 100
        assert rest_calls == [6]

    @pytest.mark.parametrize("experiment", [
        lambda A: bound_overlay(A, rank=6),
        lambda A: alpha_sensitivity(A, rank=6),
        lambda A: estimator_study(A, rank=6, probes=(ProbeConfig(m=5, n_v=2),)),
        lambda A: _run_cli(A, "precondition"),
        lambda A: _run_cli(A, "solve"),
    ], ids=["bound_overlay", "alpha_sensitivity", "estimator_study", "precondition", "solve"])
    def test_one_rest_pass_per_experiment(self, experiment, rest_calls, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        experiment(make_sparse_network(60, seed=4))
        assert rest_calls == [6]

    def test_reproducible_bytes(self, tmp_path):
        A = make_sparse_network(60, seed=4)
        paths = []
        for tag in ("a", "b"):
            rows, summary = sweep_alpha(A, factor="ic0", rank=6)
            csv = tmp_path / f"{tag}.csv"
            emit(rows, summary, csv)
            paths.append((csv.read_bytes(), (tmp_path / f"{tag}.csv.json").read_bytes()))
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
        with pytest.raises(DomainError, match="trials"):
            verify_theorems(2.5)

    @pytest.mark.parametrize("n_range", [(0, 0), (0, 5), (5, 2), (-3, 4), (10.5, 12),
                                         (10, 20, 30), (10,)])
    def test_order_range_domain(self, n_range):
        with pytest.raises(DomainError, match="order range"):
            verify_theorems(1, n_range)

    def test_batteries_draw_independently(self, monkeypatch):
        # dropping a battery that draws, making an early one draw far more,
        # and appending one more leave every other worst value bit for bit
        def worst():
            report = verify_theorems(3, (10, 20), seed=3)
            return {name: res["worst"] for name, res in report["results"].items()}

        def greedy(tr, rng):
            return 0.0 * rng.standard_normal(1000).sum()

        full = worst()
        changed = {"congruence_invariance": greedy}
        monkeypatch.setattr(harness, "BATTERIES", tuple(
            (name, tol, changed.get(name, fn))
            for name, tol, fn in harness.BATTERIES if name != "dual_identity"
        ) + (("appended", 1.0, greedy),))
        kept = {k: v for k, v in full.items() if k not in ("dual_identity", *changed)}
        assert worst() == {**kept, "congruence_invariance": 0.0, "appended": 0.0}

    @pytest.mark.parametrize("violation", [1.0, math.nan])
    def test_miss_is_named_and_exits_two(self, violation, monkeypatch, capsys, tmp_path):
        missing = ("always_misses", 0.5, lambda tr, rng: violation)
        monkeypatch.setattr(harness, "BATTERIES", harness.BATTERIES + (missing,))
        assert verify_theorems(2, (10, 12))["violations"] == ["always_misses"]
        out = tmp_path / "r.json"
        assert run(["verify", "--trials", "2", "--n-min", "10", "--n-max", "12",
                    "--out", str(out)]) == 2
        std = capsys.readouterr()
        assert "always_misses" in std.err
        assert f"FAIL  {'always_misses':32s} worst={violation:.3e}" in std.out
        # JSON has no NaN: a NaN worst value is written as null
        report = json.loads(out.read_text())
        assert report["violations"] == ["always_misses"]
        assert report["results"]["always_misses"] == {
            "pass": False, "worst": None if math.isnan(violation) else violation, "tol": 0.5}


class TestBoundOverlay:
    def test_exact_preconditioner_trivial(self):
        A = _assembled(make_spectrum(40, "uniform", (0.5, 5.0)), 7)
        rows, summary = bound_overlay(A, factor="exact", rank=0)
        assert summary["iterations"] == 1
        assert summary["violations"] == []

    def test_identity_factor_geometric(self):
        A = _assembled(make_spectrum(120, "geometric", (1e4,)), 8)
        rows, summary = bound_overlay(A, factor="identity", rank=12, tol=1e-9)
        assert summary["violations"] == []
        assert summary["converged"]
        # k = 0 row carries the initial ratios and empty bound cells
        assert rows[0]["rel_res_2"] == 1.0 and rows[0]["bound_kaporin"] is None

    def test_ic0_network_with_estimates(self):
        rows, summary = bound_overlay(make_sparse_network(150, seed=9), factor="ic0", rank=15)
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


    def test_columns_in_table_order(self, tmp_path):
        rows, summary = bound_overlay(make_sparse_network(150, seed=9), factor="ic0", rank=15)
        emit(rows, summary, tmp_path / "o.csv")
        header = (tmp_path / "o.csv").read_text().splitlines()[0].split(",")
        bounds = ("kappa", "kaporin", "divergence", "3lnd")
        assert header == ["k", "rel_res_2", "rel_res_pinv", "rel_err_a",
                          *(f"bound_{name}" for name in bounds),
                          *(f"viol_{name}" for name in bounds)]

    def test_3lnd_bound_empty_exactly_off_its_window(self):
        rows, summary = bound_overlay(make_sparse_network(150, seed=9), factor="ic0", rank=1)
        d_ld, n = summary["d_ld"], summary["n"]
        window = [k >= 2 and k % 2 == 0 and 3.0 * d_ld <= k < n for k in range(len(rows))]
        assert [row["bound_3lnd"] is not None for row in rows] == window
        # 3D lies above 2 here, so the window's lower end drops an even k
        assert 3.0 * d_ld > 2.0 and any(window)

    def test_violations_follow_the_flags(self, monkeypatch):
        # a kappa2 bound of 0 leaves only the floor: every A-norm error above
        # it is flagged, and listed in row order
        monkeypatch.setattr(pcg, "bound_kappa", lambda kappa2, k: 0.0)
        rows, summary = bound_overlay(make_sparse_network(150, seed=9), factor="ic0", rank=15)
        flags = [row["rel_err_a"] > 1e-12 for row in rows]
        assert [row["viol_kappa"] for row in rows] == flags and any(flags)
        assert summary["violations"] == [f"viol_kappa@k={row['k']}"
                                         for row, flag in zip(rows, flags) if flag]


class TestAlphaSensitivity:
    def test_observational_table(self):
        rows, summary = alpha_sensitivity(make_sparse_network(70, seed=10), factor="ic0", rank=7)
        assert [r["alpha"] for r in rows] == [summary["alpha_star"] * f
                                              for f in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(r["converged"] for r in rows)
        # nothing asserted about the gaps themselves: they are the data
        assert all(np.isfinite(r["iterate_gap_vs_first"]) for r in rows)


class TestMakeSpectrum:
    @pytest.mark.parametrize("generator, params", [
        ("geometric", (math.nan,)), ("geometric", (math.inf,)), ("geometric", (-math.inf,)),
        ("uniform", (math.nan, 2.0)), ("uniform", (0.5, math.inf)),
        ("clustered", ([1.0, math.nan], [2, 1])), ("clustered", ([math.inf], [3])),
    ])
    def test_non_finite_parameter_rejected(self, generator, params):
        with pytest.raises(DomainError):
            make_spectrum(3, generator, params)

    @pytest.mark.parametrize("mults", [[-1, 4], [2.5, 1]])
    def test_multiplicity_not_a_count_rejected(self, mults):
        with pytest.raises(DomainError, match="multiplicities"):
            make_spectrum(3, "clustered", ([1.0, 2.0], mults))

    def test_infinite_kappa_rejected_at_order_one(self):
        # inf ** -0.0 is 1.0: the order-1 spectrum would look valid
        with pytest.raises(DomainError, match="kappa"):
            make_spectrum(1, "geometric", (math.inf,))


class TestErrorOrderStudy:
    def test_slope_in_window(self):
        for seed in (11, 12):
            rows, summary = error_order_study(40, seed, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
            assert 1.8 <= summary["slope"] <= 2.2
            assert len(rows) == 5

    def test_eps_domain(self):
        with pytest.raises(Exception):
            error_order_study(10, 0, [0.0, 1e-2])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="eps values"):
                error_order_study(10, 0, [bad, 1e-1])


class TestEstimatorStudy:
    def test_full_krylov_on_diagonal_is_exact(self):
        # diagonal system + identity factor: the symmetrized preconditioned
        # operator is diagonal, so sign probes at m = n are exact per probe
        n = 16
        diag = np.linspace(0.5, 4.0, n)
        A = SparseSymMatrix.from_dense(np.diag(diag))
        rows, _ = estimator_study(A, factor="identity", rank=0,
                                  probes=(ProbeConfig(m=n, n_v=4, seed=13),))
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
        row = estimator_study(A, factor="identity", rank=0,
                              probes=(ProbeConfig(m=n, n_v=5, seed=3),))[0][0]
        assert row["breakdowns"] == 0
        assert 0.0 <= row["trace_stderr"] <= 1e-10 * row["trace_exact"]
        assert 0.0 <= row["logdet_stderr"] <= 1e-10 * abs(row["logdet_exact"])
    def test_single_probe_has_no_standard_error(self):
        rows, _ = estimator_study(make_sparse_network(40, seed=16), factor="ic0", rank=4,
                                  probes=(ProbeConfig(m=10, n_v=1, seed=17),))
        assert rows[0]["trace_stderr"] is None and rows[0]["logdet_stderr"] is None

    def test_one_row_per_config(self):
        A = make_sparse_network(50, seed=18)
        configs = (ProbeConfig(m=6, n_v=2, seed=19), ProbeConfig(m=9, n_v=3, seed=20))
        rows, summary = estimator_study(A, factor="ic0", rank=5, probes=configs)
        assert [(r["m"], r["n_v"]) for r in rows] == [(6, 2), (9, 3)]
        assert summary["seeds"] == [19, 20]
        for cfg, row in zip(configs, rows):
            assert row == estimator_study(A, factor="ic0", rank=5, probes=(cfg,))[0][0]
        assert estimator_study(A, factor="ic0", rank=5, probes=iter(configs)) == (rows, summary)

    def test_order_past_the_old_dense_limit(self):
        # the exact values come from RestStats, so no dense reference
        # bounds the order
        rows, summary = estimator_study(make_sparse_network(2500), rank=20,
                                        probes=(ProbeConfig(m=10, n_v=2, seed=1),))
        assert summary["n"] == 2500 and summary["rank"] == 20 and len(rows) == 1
        assert rows[0]["rel_err_alpha"] <= 0.05

    def test_network_within_tolerances(self, monkeypatch):
        # the fixed-depth run: the depth rule would stop these probes after 5 steps
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        rows, _ = estimator_study(make_sparse_network(150, seed=14), factor="ic0", rank=15,
                                  probes=(ProbeConfig(m=30, n_v=30, seed=15),))
        row = rows[0]
        assert row["rel_err_alpha"] <= 0.05
        assert row["rel_err_d_ld"] <= 0.1
        assert row["sign_ln_k_gap"] in (-1, 0, 1)
        # every probe's run stays semi-orthogonal for 30 steps: none reruns
        assert row["reruns"] == 0

    def test_rows_carry_mean_steps_per_probe(self, monkeypatch):
        A = make_sparse_network(150, seed=14)
        probes = (ProbeConfig(m=30, n_v=5, seed=15),)
        ruled = estimator_study(A, factor="ic0", rank=15, probes=probes)
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
        fixed = estimator_study(A, factor="ic0", rank=15, probes=probes)
        assert fixed[0][0]["steps"] == 30.0
        assert 4 < ruled[0][0]["steps"] < 30.0
