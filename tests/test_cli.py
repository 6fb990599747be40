import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bld_kaporin import cli, rla
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

    @pytest.mark.parametrize("argv", [["estimate", "--dist", "gaussian"],
                                      ["sweep-alpha", "--out-json", "x"],
                                      ["solve", "--out-json", "x"],
                                      ["precondition", "--spec", "s.json"]])
    def test_removed_flag_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        base = [argv[0], "--synthetic", "network", "--n", "30", "--out", "t.csv"]
        assert run([*base, *argv[1:]]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_matrix_source(self, capsys):
        assert run(["info"]) == 1

    @pytest.mark.parametrize("rank", [None, "0", "1"])
    @pytest.mark.parametrize("n", ["1", "2", "3", "12"])
    @pytest.mark.parametrize("factor", ["ic0", "exact", "identity"])
    @pytest.mark.parametrize("command", ["precondition", "sweep-alpha", "solve", "estimate"])
    def test_no_exception_escapes(self, command, factor, n, rank, capsys):
        # every failure on a small network is reported through an exit code
        argv = [command, "--synthetic", "network", "--n", n, "--factor", factor]
        assert run(argv if rank is None else [*argv, "--rank", rank]) in (0, 1, 2)

    def test_overflow_is_one_error_and_no_numpy_warning(self):
        # at alpha = 1e-300 p'Ap overflows: PCG names it, and numpy's own
        # RuntimeWarning blocks do not reach stderr before that error
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "bld_kaporin.cli", "solve", "--synthetic",
                              "network", "--n", "30", "--alpha", "1e-300"],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 2
        assert "curvature" in out.stderr
        assert "RuntimeWarning" not in out.stderr

    def test_numerical_error_is_two(self, tmp_path):
        bad = tmp_path / "indef.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 1.0\n2 1 2.0\n2 2 1.0\n"
        )
        assert run(["precondition", "--matrix", str(bad), "--factor", "ic0"]) == 2

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command, flag", [("precondition", "--alpha"), ("solve", "--tol")])
    def test_scalar_not_finite_and_positive_is_two(self, command, flag, value, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [command, flag, value, "--synthetic", "network", "--n", "30", "--out", str(out)]
        assert run(argv) == 2
        assert "must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_parse_error_is_two(self, tmp_path):
        bad = tmp_path / "broken.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n9 9 1.0\n")
        assert run(["info", "--matrix", str(bad)]) == 2

    def test_spd_matrix_below_working_precision_is_two_and_named_so(self, capsys):
        # eigenvalues 1, 1, 1e-13, 1e-13: positive definite, but 1 + theta <= 1e-12
        # relative to the identity factor
        matrix = ["--synthetic", "clustered", "--n", "4", "--clusters", "1:2,1e-13:2"]
        assert run(["info", *matrix]) == 0
        assert "positive definite True" in capsys.readouterr().out
        assert run(["precondition", *matrix, "--factor", "identity"]) == 2
        err = capsys.readouterr().err
        assert "relative to the factor, to working precision" in err and "not SPD" not in err

    def test_core_asymmetric_to_rounding_is_two_and_named_so(self, capsys):
        # IC(0) of this matrix is exact but so ill-conditioned that
        # Q^-1 A Q^-T comes out asymmetric past 1e-10 relative
        matrix = ["--synthetic", "clustered", "--n", "4", "--clusters", "1:2,1e-13:2"]
        assert run(["precondition", *matrix]) == 2
        err = capsys.readouterr().err
        assert "error core Q^-1 A Q^-T" in err and "too ill-conditioned for A" in err

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

    @pytest.mark.parametrize("argv, named", [
        # prefixes of --rank and --truncation: no flag is read by a prefix
        (["precondition", "--synthetic", "network", "--n", "30", "--ran", "3",
          "--trunc", "tsvd"], "--ran 3 --trunc tsvd"),
        # a prefix of both --n-min and --n-max is named, not ambiguous
        (["verify", "--n", "30"], "--n 30"),
        (["solve", "--synthetic", "network", "--n", "30", "--max", "3"], "--max 3"),
        # the top parser's only flag is --help
        (["--hel", "info", "--synthetic", "network"], "--hel"),
    ])
    def test_abbreviated_flag_is_unrecognized(self, argv, named, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert named in err

    @pytest.mark.parametrize("argv", [
        ["precondition", "--factor", "ic1"],
        ["precondition", "--truncation", "svd"],
    ])
    def test_unknown_factor_or_truncation_is_usage_error(self, argv, capsys):
        assert run([*argv, "--synthetic", "network", "--n", "30"]) == 1
        assert argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["verify", "--n-min", "0", "--n-max", "0"], "--n-min"),
        (["verify", "--n-min", "5", "--n-max", "2"], "--n-max"),
        (["verify", "--trials", "0"], "--trials"),
        (["estimate", "--synthetic", "network", "--n", "30", "--m", "0"], "--m"),
        (["estimate", "--synthetic", "network", "--n", "30", "--nv", "0"], "--nv"),
        (["solve", "--synthetic", "network", "--n", "30", "--max-iter", "0"], "--max-iter"),
    ])
    def test_count_flag_below_one_is_usage_error(self, argv, named, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        assert named in err

    @pytest.mark.parametrize("command", ["info", "precondition", "sweep-alpha", "solve",
                                         "verify", "estimate"])
    def test_negative_seed_is_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "x.out"
        matrix = [] if command == "verify" else ["--synthetic", "network", "--n", "30"]
        out_flag = [] if command == "info" else ["--out", str(out)]
        assert run([command, *matrix, *out_flag, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--seed" in err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.5,2,5", "0.5,2,5,log,x", "a,2,5,log", "0.5,2,x,log",
                                      "1,2,1,log", "2,1,5,log", "0,2,5,log", "0.5,2,5,cubic",
                                      "1,inf,5,log", "nan,2,5,log"])
    def test_malformed_grid_is_usage_error(self, grid, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep-alpha", "--synthetic", "network", "--n", "30", "--grid", grid,
                  "--out", str(out)])
        assert rc == 1
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()


class TestNumerals:
    # Every numeric flag, --clusters and --grid read plain decimal numerals
    # only: Python's int and float would read 1_0 as 10
    NET = ["--synthetic", "network", "--n", "30"]

    @pytest.mark.parametrize("argv, flag", [
        (["info", "--synthetic", "network", "--n", "3_0"], "--n"),
        (["info", "--synthetic", "geometric", "--n", "30", "--cond", "1_0"], "--cond"),
        (["info", "--synthetic", "uniform", "--n", "30", "--lo", "0_5"], "--lo"),
        (["info", "--synthetic", "uniform", "--n", "30", "--hi", "5_0"], "--hi"),
        (["info", *NET, "--seed", "1_0"], "--seed"),
        (["precondition", *NET, "--rank", "1_0"], "--rank"),
        (["precondition", *NET, "--alpha", "1_0"], "--alpha"),
        (["solve", *NET, "--tol", "1e-1_0"], "--tol"),
        (["solve", *NET, "--max-iter", "1_0"], "--max-iter"),
        (["verify", "--trials", "1_0"], "--trials"),
        (["verify", "--n-min", "1_0"], "--n-min"),
        (["verify", "--n-max", "6_0"], "--n-max"),
        (["verify", "--seed", "1_0"], "--seed"),
        (["estimate", *NET, "--m", "1_0"], "--m"),
        (["estimate", *NET, "--nv", "1_0"], "--nv"),
        (["info", "--synthetic", "clustered", "--n", "4", "--clusters", "1_0:2,1:2"], "--clusters"),
        (["info", "--synthetic", "clustered", "--n", "4", "--clusters", "1:0_2,1:2"], "--clusters"),
        (["sweep-alpha", *NET, "--grid", "0.1,1_0,5,log"], "--grid"),
        (["sweep-alpha", *NET, "--grid", "0.1,10,1_0,log"], "--grid"),
    ])
    def test_underscore_numeral_is_usage_error(self, argv, flag, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["3_0", " 30", "30 ", "\u0663\u0660", "0x1e", "30.0", ""])
    def test_order_is_a_plain_decimal_integer(self, value, capsys):
        assert run(["info", "--synthetic", "network", "--n", value]) == 1
        assert "--n" in capsys.readouterr().err

    @pytest.mark.parametrize("text, value", [("30", 30), ("+7", 7), ("-3", -3), ("007", 7)])
    def test_integer_reads_plain_decimals(self, text, value):
        assert cli.integer(text) == value

    @pytest.mark.parametrize("text, value", [("2", 2.0), ("-0.5", -0.5), (".5", 0.5), ("5.", 5.0),
                                             ("1e-3", 1e-3), ("+2.5E+2", 250.0), ("inf", np.inf),
                                             ("-Infinity", -np.inf)])
    def test_real_reads_plain_decimals(self, text, value):
        assert cli.real(text) == value

    @pytest.mark.parametrize("text", ["1_0", "1e1_0", " 1", "1 ", "1e", "e1", ".", "0x10",
                                      "\u0661", "infinit", ""])
    def test_real_rejects_what_python_alone_reads(self, text):
        with pytest.raises(ValueError, match="plain decimal"):
            cli.real(text)

    def test_nan_is_read_and_left_to_the_domain_check(self):
        assert np.isnan(cli.real("nan"))

    def test_every_numeric_flag_uses_the_strict_parsers(self):
        parsers = [cli.build_parser()]
        typed = []
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                if action.choices and isinstance(action.choices, dict):
                    parsers.extend(action.choices.values())
                if action.type is not None:
                    typed.append(action.type)
        assert typed and set(typed) <= {cli.integer, cli.real}


class TestMatrixSource:
    @pytest.mark.parametrize("flags, named", [
        (["--synthetic", "uniform", "--n", "50"], "--synthetic"),
        (["--n", "50"], "--n"),
        (["--cond", "7"], "--cond"),
        (["--lo", "3"], "--lo"),
        (["--hi", "3"], "--hi"),
        (["--clusters", "9:9"], "--clusters"),
    ])
    def test_flag_the_file_does_not_read_is_usage_error(self, mtx_path, flags, named, capsys):
        assert run(["info", "--matrix", str(mtx_path), *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and named in err

    @pytest.mark.parametrize("flags, named", [
        (["network", "--n", "30", "--cond", "7", "--lo", "3", "--clusters", "9:9"], "--cond"),
        (["network", "--lo", "3"], "--lo"),
        (["network", "--clusters", "9:9"], "--clusters"),
        (["uniform", "--cond", "7"], "--cond"),
        (["geometric", "--hi", "7"], "--hi"),
        (["clustered", "--n", "2", "--clusters", "1:2", "--lo", "1"], "--lo"),
    ])
    def test_flag_the_generator_does_not_read_is_usage_error(self, flags, named, capsys):
        assert run(["info", "--synthetic", *flags]) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and named in err

    @pytest.mark.parametrize("flags", [
        ["--synthetic", "uniform", "--n", "20", "--lo", "1", "--hi", "3"],
        ["--synthetic", "geometric", "--n", "20", "--cond", "50"],
        ["--synthetic", "clustered", "--n", "5", "--clusters", "1:2,4:3"],
        ["--synthetic", "network", "--n", "20"],
    ])
    def test_each_generator_reads_its_own_flags(self, flags, capsys):
        assert run(["info", *flags]) == 0
        assert "positive definite True" in capsys.readouterr().out

    def test_file_holding_inf_is_two(self, tmp_path, capsys):
        bad = tmp_path / "inf.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 inf\n2 2 1\n")
        assert run(["info", "--matrix", str(bad)]) == 2
        assert "non-finite" in capsys.readouterr().err


class TestInfo:
    def test_reports_matrix_facts(self, mtx_path, capsys):
        assert run(["info", "--matrix", str(mtx_path)]) == 0
        out = capsys.readouterr().out
        assert "order            3" in out
        assert "nnz (lower)      5" in out
        assert "positive definite True" in out

    def test_indefinite_matrix_reported_not_failed(self, tmp_path, capsys):
        # [[1, 2], [2, 1]] has a positive diagonal and eigenvalues 3 and -1
        indef = tmp_path / "indef.mtx"
        indef.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                         "2 2 3\n1 1 1\n2 1 2\n2 2 1\n")
        assert run(["info", "--matrix", str(indef)]) == 0
        out = capsys.readouterr().out
        assert "diagonal > 0     True" in out
        assert "positive definite False" in out

    def test_definiteness_check_allocates_no_n_by_n_array(self, capsys):
        # definiteness from the sparse LU reads a traced peak of 0.14 n x n
        # doubles; a dense Cholesky of A would hold at least one n x n array
        n = 2000
        tracemalloc.start()
        try:
            assert run(["info", "--synthetic", "network", "--n", str(n)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "positive definite True" in capsys.readouterr().out
        assert peak <= 0.5 * 8 * n * n

    def test_non_finite_synthetic_parameter_is_two(self, capsys):
        assert run(["info", "--synthetic", "geometric", "--n", "30", "--cond", "nan"]) == 2
        assert "kappa" in capsys.readouterr().err

    def test_failure_other_than_definiteness_is_two(self, mtx_path, monkeypatch, capsys):
        def failing(*args):
            raise RuntimeError("injected")

        monkeypatch.setattr(cli, "spd_splu", failing)
        assert run(["info", "--matrix", str(mtx_path)]) == 2
        captured = capsys.readouterr()
        assert "injected" in captured.err and "positive definite" not in captured.out


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
        assert "iterations" in json.loads((tmp_path / "ov.csv.json").read_text())

    def test_verify_all_pass(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc = run(["verify", "--trials", "4", "--seed", "7", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["violations"] == []

    def test_solve_at_tiny_ln_k_is_zero(self, capsys):
        # the exact factor leaves ln K at roundoff, so the recommended sigma is huge
        assert run(["solve", "--synthetic", "network", "--n", "300", "--factor", "exact"]) == 0

    def test_estimate_prints_comparison(self, capsys):
        rc = run([
            "estimate", "--synthetic", "network", "--n", "70", "--seed", "3",
            "--rank", "7", "--m", "20", "--nv", "10",
        ])
        assert rc == 0
        assert "ln K exact" in capsys.readouterr().out

    def test_estimate_csv_carries_spread_and_breakdowns(self, tmp_path, capsys, monkeypatch):
        # the fixed-depth run: the depth rule would stop these probes after 5 steps
        monkeypatch.setattr(rla, "DEPTH_TOL", 0)
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
        assert cells["steps"] == "20"
        assert cells["breakdowns"] == "0"
        # n = 70 probes stay semi-orthogonal for 20 steps: none reruns
        assert cells["reruns"] == "0"
        assert json.loads((tmp_path / "est.csv.json").read_text())["seeds"] == [3]

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

    def test_precondition_order_one_defaults_to_rank_zero(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precondition", "--synthetic", "network", "--n", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rank"] == 0

    def test_precondition_identity_factor(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(["precondition", "--synthetic", "network", "--n", "30", "--factor", "identity",
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["factor"] == "identity"
