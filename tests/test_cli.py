import json

import numpy as np
import pytest

from bld_kaporin.cli import run
from bld_kaporin.matio import SparseSymMatrix, write_matrix_market


@pytest.fixture
def mtx_path(tmp_path):
    A = SparseSymMatrix.from_dense(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]]))
    path = tmp_path / "small.mtx"
    write_matrix_market(A, path)
    return path


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = run(["sweep-alpha", "--definitely-not-a-flag", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_missing_matrix_source(self, capsys):
        assert run(["info"]) == 1

    def test_numerical_error_is_two(self, tmp_path):
        bad = tmp_path / "indef.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 1.0\n2 1 2.0\n2 2 1.0\n"
        )
        assert run(["precondition", "--matrix", str(bad), "--factor", "ic0"]) == 2

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "broken.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n9 9 1.0\n")
        assert run(["info", "--matrix", str(bad)]) == 2

    @pytest.mark.parametrize("clusters", ["abc", "1:x", "1:2:3", "2:1.5"])
    def test_malformed_clusters_is_usage_error(self, clusters, capsys):
        rc = run(["precondition", "--synthetic", "clustered", "--n", "4", "--clusters", clusters])
        assert rc == 1
        assert "--clusters" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["network", "--n", "0"], "--n"),
        (["network", "--n", "-5"], "--n"),
        (["clustered", "--n", "4", "--clusters", "1:-2,2:6"], "--clusters"),
    ])
    def test_synthetic_size_out_of_range_is_usage_error(self, flags, named, capsys):
        assert run(["precondition", "--synthetic", *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert named in err

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--alpha", "2.0"],
        ["estimate", "--alpha", "2.0"],
        ["sweep-alpha", "--truncation", "tsvd"],
        ["solve", "--truncation", "tsvd"],
        ["estimate", "--truncation", "tsvd"],
        ["verify", "--threads", "2"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        matrix = [] if argv[0] == "verify" else ["--synthetic", "network", "--n", "30"]
        assert run([*argv, *matrix]) == 1
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.5,2,5", "0.5,2,5,log,x", "a,2,5,log", "0.5,2,x,log"])
    def test_malformed_grid_is_usage_error(self, grid, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep-alpha", "--synthetic", "network", "--n", "30", "--grid", grid,
                  "--out", str(out)])
        assert rc == 1
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()


class TestInfo:
    def test_reports_matrix_facts(self, mtx_path, capsys):
        assert run(["info", "--matrix", str(mtx_path)]) == 0
        out = capsys.readouterr().out
        assert "order            3" in out
        assert "nnz (lower)      5" in out
        assert "positive definite True" in out


class TestSweepAlpha:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run([
            "sweep-alpha", "--synthetic", "network", "--n", "80", "--seed", "1",
            "--rank", "8", "--out", str(out),
        ])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "alpha,kappa2,d_ld,ln_k"
        summary = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert summary["alpha_star_in_interval"]

    def test_seed_determinism(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            assert run([
                "sweep-alpha", "--synthetic", "network", "--n", "60", "--seed", "9",
                "--rank", "6", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSolveVerifyEstimate:
    def test_solve_overlay(self, tmp_path, capsys):
        out = tmp_path / "ov.csv"
        rc = run([
            "solve", "--synthetic", "network", "--n", "90", "--seed", "2",
            "--rank", "9", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "iterations" in capsys.readouterr().out

    def test_verify_all_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = run(["verify", "--trials", "4", "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["violations"] == []

    def test_estimate_prints_comparison(self, capsys):
        rc = run([
            "estimate", "--synthetic", "network", "--n", "70", "--seed", "3",
            "--rank", "7", "--m", "20", "--nv", "10",
        ])
        assert rc == 0
        assert "ln K exact" in capsys.readouterr().out

    def test_estimate_csv_carries_spread_and_breakdowns(self, tmp_path, capsys):
        out = tmp_path / "est.csv"
        rc = run([
            "estimate", "--synthetic", "network", "--n", "70", "--seed", "3",
            "--rank", "7", "--m", "20", "--nv", "10", "--out", str(out),
        ])
        assert rc == 0
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["trace_stderr"]) > 0.0
        assert float(cells["logdet_stderr"]) > 0.0
        assert cells["breakdowns"] == "0"

    def test_precondition_summary(self, mtx_path, capsys):
        rc = run(["precondition", "--matrix", str(mtx_path), "--factor", "exact", "--rank", "1"])
        assert rc == 0
        assert "alpha_star" in capsys.readouterr().out

    def test_precondition_tsvd_route(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = run([
            "precondition", "--synthetic", "network", "--n", "40", "--seed", "8",
            "--rank", "4", "--truncation", "tsvd", "--out", str(out),
        ])
        assert rc == 0
        assert json.loads(out.read_text())["truncation"] == "tsvd"

    def test_precondition_alpha_defaults_to_alpha_star(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precondition", "--synthetic", "network", "--n", "60", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())
        assert summary["alpha"] == summary["alpha_star"] != 1.0
        assert run(["precondition", "--synthetic", "network", "--n", "60", "--alpha", "2.5",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["alpha"] == 2.5

    def test_spec_json_overrides_flags(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"synthetic": "network", "n": 50, "seed": 6, "rank": 5}))
        rc = run(["sweep-alpha", "--spec", str(spec)])
        assert rc == 0
        assert "alpha*" in capsys.readouterr().out


class TestSpec:
    def test_verify_reads_spec(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"trials": 1, "seed": 3}))
        out = tmp_path / "v.json"
        assert run(["verify", "--trials", "2", "--spec", str(spec), "--out", str(out)]) == 0
        echo = json.loads(out.read_text())["spec_echo"]
        assert echo["trials"] == 1
        assert echo["seed"] == 3

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"synthetic": "network", "n": 30, "rnak": 3}))
        out = tmp_path / "p.json"
        assert run(["precondition", "--spec", str(spec), "--out", str(out)]) == 1
        assert "rnak" in capsys.readouterr().err
        assert not out.exists()

    def test_key_of_another_subcommand_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"trials": 1}))
        assert run(["precondition", "--synthetic", "network", "--n", "30",
                    "--spec", str(spec)]) == 1

    def test_values_are_parsed_like_flags(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        out = tmp_path / "p.json"
        spec.write_text(json.dumps({"synthetic": "network", "n": "30", "rank": 3}))
        assert run(["precondition", "--rank", "5", "--spec", str(spec), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rank"] == 3
        for bad in ({"n": "thirty"}, {"factor": "lu"}):
            spec.write_text(json.dumps({"synthetic": "network", **bad}))
            assert run(["precondition", "--spec", str(spec)]) == 1

    def test_flag_the_subcommand_does_not_read_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"truncation": "tsvd"}))
        out = tmp_path / "s.csv"
        assert run(["solve", "--synthetic", "network", "--n", "60", "--spec", str(spec),
                    "--out", str(out)]) == 1
        assert "--truncation" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]")
        assert run(["info", "--synthetic", "network", "--spec", str(spec)]) == 1
