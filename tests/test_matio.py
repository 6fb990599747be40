import json
import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from bld_kaporin.divergence import (
    bregman_logdet,
    condition_report,
    dual_coords,
    dual_divergence,
    jacobi_scale,
    logdet_spd,
    preconditioned_spectrum,
    scale_to_unit_trace,
    spd_cholesky,
)
from bld_kaporin.errors import MatrixMarketError, SchemaError, SymmetryError
from bld_kaporin.linalg import cholesky, ic0, sym_eig
from bld_kaporin.matio import (
    PANEL,
    SparseSymMatrix,
    _symmetrized,
    as_dense,
    read_matrix_market,
    write_json,
    write_matrix_market,
    write_table,
)
from bld_kaporin.pcg import pcg_solve
from bld_kaporin.precond import (
    Preconditioner,
    bld_truncate,
    error_core,
    preconditioned_logdet,
    sym_preconditioned_operator,
)
from bld_kaporin.synth import make_sparse_network


def _write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadMatrixMarket:
    def test_diagonal_two_by_two(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "2 2 2\n1 1 2.0\n2 2 1.0\n",
        )
        A = read_matrix_market(path)
        assert A.n == 2
        assert A.nnz_lower == 2
        np.testing.assert_allclose(A.to_dense(), np.diag([2.0, 1.0]))

    def test_index_out_of_range(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n3 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_malformed_banner(self, tmp_path):
        path = _write(tmp_path, "%%NotMatrixMarket nope\n2 2 0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_unsupported_field(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate complex symmetric\n1 1 0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_general_accepted_when_symmetric(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 4.0\n1 2 1.5\n2 1 1.5\n2 2 3.0\n",
        )
        A = read_matrix_market(path)
        np.testing.assert_allclose(A.to_dense(), [[4.0, 1.5], [1.5, 3.0]])

    def test_general_rejected_when_asymmetric(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 4.0\n1 2 1.5\n2 1 1.6\n2 2 3.0\n",
        )
        with pytest.raises(SymmetryError):
            read_matrix_market(path)

    def test_duplicates_summed(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n1 1 1.0\n1 1 1.5\n2 2 1.0\n",
        )
        A = read_matrix_market(path)
        assert A.nnz_lower == 2
        assert A.to_dense()[0, 0] == 2.5

    @pytest.mark.parametrize("size, entry", [
        ("10 10 1", "1_0 1 4.5"),  # a digit-group underscore, row 10 to Python's int
        ("10 10 1", "1 1 4_5"),
        ("1_0 10 1", "1 1 4.5"),
        ("10 10 1", "1 1 0x10"),
        ("10 10 1", "1 1 1,5"),
        ("10 10 1", "1 1 1.0abc"),
        ("10 10 1", "1.0 1 4.5"),
        ("10 10 1", "1 1"),
        ("10 10 1", "1 1 4.5 0"),
    ])
    def test_only_plain_decimal_numerals_read(self, tmp_path, size, entry):
        path = _write(tmp_path, f"%%MatrixMarket matrix coordinate real symmetric\n{size}\n{entry}\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_entry_count_mismatch(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n",
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_more_entries_than_declared(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 1.0\n2 2 1.0\n")
        with pytest.raises(MatrixMarketError, match="declared 1 entries, found 2"):
            read_matrix_market(path)

    def test_empty_entry_block_read_without_a_warning(self, tmp_path):
        path = _write(tmp_path, "%%MatrixMarket matrix coordinate real symmetric\n2 2 0\n% end\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_matrix_market(path).nnz_lower == 0


class TestRoundTrip:
    def test_write_then_read_reproduces_entries(self, tmp_path):
        rng = np.random.default_rng(42)
        n = 17
        A = SparseSymMatrix.from_dense(_random_sym(rng, n))
        path = tmp_path / "rt.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert B.n == A.n
        np.testing.assert_array_equal(B.to_dense(), A.to_dense())

    def test_order_is_that_of_the_lower_triangle(self):
        assert SparseSymMatrix(sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))).n == 3

    def test_non_square_lower_triangle_rejected(self):
        with pytest.raises(ValueError, match=re.escape("must be square, got shape (3, 4)")):
            SparseSymMatrix(sp.csr_matrix((3, 4)))

    def test_upper_triangle_entry_rejected(self):
        # stored as lower, the (0, 1) entry would be mirrored onto (1, 0) and
        # the product with ones would read [4, 4] instead of [3, 3]
        with pytest.raises(ValueError, match=re.escape("above the diagonal at (row, col) = (0, 1)")):
            SparseSymMatrix(sp.csr_matrix([[2.0, 1.0], [1.0, 2.0]]))

    def test_first_upper_triangle_entry_named(self):
        dense = np.diag([1.0, 2.0, 3.0, 4.0])
        dense[1, 3] = dense[2, 3] = dense[3, 0] = 0.5
        with pytest.raises(ValueError, match=re.escape("(row, col) = (1, 3)")):
            SparseSymMatrix(sp.csr_matrix(dense))

    def test_matvec_symmetry(self):
        rng = np.random.default_rng(7)
        A = SparseSymMatrix.from_dense(_random_sym(rng, 23))
        for _ in range(5):
            x = rng.standard_normal(23)
            y = rng.standard_normal(23)
            lhs = x @ A.matvec(y)
            rhs = y @ A.matvec(x)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(3)
        A = SparseSymMatrix.from_dense(_random_sym(rng, 31))
        x = rng.standard_normal(31)
        np.testing.assert_allclose(A.matvec(x), A.to_dense() @ x, rtol=1e-13, atol=1e-13)

    def test_matvec_block_equals_columns(self):
        rng = np.random.default_rng(4)
        A = SparseSymMatrix.from_dense(_random_sym(rng, 31))
        for k in (3, 4):
            X = rng.standard_normal((31, k))
            cols = np.column_stack([A.matvec(X[:, j]) for j in range(k)])
            np.testing.assert_allclose(A.matvec(X), cols, rtol=1e-13,
                                       atol=1e-13 * np.abs(cols).max())

    def test_matvec_with_empty_row_and_zero_diagonal(self):
        # row 2 holds no entry at all; row 1 has off-diagonals but a zero
        # diagonal, so neither triangle carries a (1, 1) entry
        rows = [0, 1, 3, 3, 4, 4]
        cols = [0, 0, 1, 3, 1, 4]
        vals = [2.0, -1.5, 0.5, 3.0, 0.25, 1.0]
        dense = np.zeros((5, 5))
        for i, j, v in zip(rows, cols, vals):
            dense[i, j] = dense[j, i] = v
        A = SparseSymMatrix.from_coo(5, rows, cols, vals)
        rng = np.random.default_rng(5)
        for x in (rng.standard_normal(5), rng.standard_normal((5, 3))):
            np.testing.assert_allclose(A.matvec(x), dense @ x, rtol=1e-15, atol=1e-15)
        np.testing.assert_array_equal(A.to_dense(), dense)

    def test_full_is_built_once(self):
        A = SparseSymMatrix.from_dense(_random_sym(np.random.default_rng(6), 12))
        full = A.full
        A.matvec(np.ones(12))
        assert A.full is full
        assert full.nnz == 2 * A.nnz_lower - np.count_nonzero(A.diagonal())


def _random_sym(rng, n, density=0.3):
    M = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    M = M + M.T + np.diag(rng.uniform(1.0, 2.0, n))
    return M


BUS_PATH = os.environ.get("BLD_KAPORIN_494_BUS", "494_bus.mtx")


class TestSymmetrized:
    N = 8 * PANEL + 37  # eight full block rows and a ragged ninth

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_in_place_equals_new_array(self, order):
        rng = np.random.default_rng(40)
        S = rng.standard_normal((self.N, self.N))
        # asymmetric within the tolerance, so symmetrizing changes S
        S = np.array(S + S.T + 1e-12 * rng.standard_normal(S.shape), order=order)
        want = _symmetrized(S)
        assert want.flags.f_contiguous
        assert _symmetrized(S, out=S) is S
        np.testing.assert_array_equal(S, want)
        np.testing.assert_array_equal(S, S.T)

    @pytest.mark.parametrize("i, j", [(1, 0), (N - 1, 0), (N - 1, N - 2),
                                      (4 * PANEL, 4 * PANEL - 1)])
    def test_asymmetric_rejected(self, i, j):
        S = np.eye(self.N)
        S[i, j] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            _symmetrized(S)
        with pytest.raises(ValueError, match="not symmetric"):
            _symmetrized(S, out=S)

    def test_entries_near_the_largest_float_do_not_overflow(self):
        # halves are summed, not the entries: (S + S^T) would overflow past 8.9e307
        S = 1e308 * np.eye(2)
        np.testing.assert_array_equal(_symmetrized(S), S)
        np.testing.assert_array_equal(sym_eig(S).values, [1e308, 1e308])


@pytest.mark.skipif(not os.path.exists(BUS_PATH), reason="494_bus.mtx not available locally")
def test_494_bus_when_present():
    from bld_kaporin.divergence import jacobi_scale
    from bld_kaporin.linalg import ic0

    A = read_matrix_market(BUS_PATH)
    assert A.n == 494
    assert A.nnz_lower == 1666
    Q = ic0(A)
    assert Q.nnz == 1666
    assert Q.shift == 0.0
    scaled = jacobi_scale(A)
    assert float(np.sum(scaled.diagonal())) == pytest.approx(494.0, abs=494 * 1e-12)


class TestWriteTable:
    def test_single_row(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table([{"alpha": 1.0, "d_ld": 0.5}], path)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "alpha,d_ld"
        assert lines[1] == "1,0.5"

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            write_table([{"a": 1.0}, {"b": 2.0}], tmp_path / "t.csv")
        with pytest.raises(SchemaError, match="no rows"):
            write_table([], tmp_path / "t.csv")
        assert os.listdir(tmp_path) == []

    def test_17_significant_digits(self, tmp_path):
        path = tmp_path / "t.csv"
        value = 1.0 / 3.0
        write_table([{"v": value}], path)
        cell = path.read_text().splitlines()[1]
        assert float(cell) == value

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_table([{"a": 1.0}], tmp_path / "missing_dir" / "t.csv")

    def test_failed_write_keeps_target_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table([{"a": 1.0}], path)
        before = path.read_text()
        # a non-ASCII cell fails while the text is being written
        with pytest.raises(UnicodeEncodeError):
            write_table([{"a": "\u00e9"}], path)
        assert path.read_text() == before
        assert os.listdir(tmp_path) == ["t.csv"]


class TestWriteJson:
    def test_sorted_indented_with_newline(self, tmp_path):
        path = tmp_path / "s.json"
        write_json({"b": 1, "a": [0.5, None]}, path)
        text = path.read_text()
        assert text == json.dumps({"a": [0.5, None], "b": 1}, indent=2) + "\n"
        assert os.listdir(tmp_path) == ["s.json"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_and_nothing_written(self, tmp_path, bad):
        # json would write NaN or Infinity, which is not JSON
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json({"alpha": bad}, tmp_path / "s.json")
        assert os.listdir(tmp_path) == []


class TestNonFiniteEntries:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_coo_rejects(self, bad):
        with pytest.raises(MatrixMarketError, match="non-finite"):
            SparseSymMatrix.from_coo(2, [0, 1], [0, 1], [1.0, bad])

    def test_from_coo_rejects_duplicates_summing_to_nan(self):
        with pytest.raises(MatrixMarketError, match="non-finite"):
            SparseSymMatrix.from_coo(2, [0, 1, 1], [0, 1, 1], [1.0, np.inf, -np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects(self, bad):
        with pytest.raises(MatrixMarketError, match="non-finite"):
            SparseSymMatrix(sp.csr_matrix(np.diag([1.0, bad])))

    def test_constructor_rejects_duplicates_summing_to_nan(self):
        lower = sp.csr_matrix((np.array([1.0, np.inf, -np.inf]), np.array([0, 1, 1]),
                               np.array([0, 1, 3])), shape=(2, 2))
        with pytest.raises(MatrixMarketError, match="non-finite"):
            SparseSymMatrix(lower)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_dense_rejects(self, bad):
        a = np.eye(3)
        a[2, 2] = bad
        with pytest.raises(MatrixMarketError, match="non-finite"):
            SparseSymMatrix.from_dense(a)

    def test_file_holding_inf_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 inf\n2 2 1.0\n",
        )
        with pytest.raises(MatrixMarketError, match="non-finite"):
            read_matrix_market(path)


def _reader_inputs():
    """A sparse SPD A, a Preconditioner P for it and a sparse negative
    definite N, each with its dense copy."""
    A = make_sparse_network(8, seed=5)
    core = error_core(A, ic0(A))
    P = Preconditioner(core.factor, bld_truncate(core, 2), 1.3)
    coo = A.lower.tocoo()
    N = SparseSymMatrix.from_coo(A.n, coo.row, coo.col, -coo.data)
    return (A, P, N), (A.to_dense(), P.dense(), N.to_dense())


(_A, _P, _N), _ = _reader_inputs()
_b = np.linspace(1.0, 2.0, _A.n)

# Every function that reads a matrix argument through as_dense, as_sparse
# or as_matvec, as f(A, P, N) with P a Preconditioner or its dense copy.
READERS = {
    "spd_cholesky": lambda A, P, N: spd_cholesky(A),
    "logdet_spd": lambda A, P, N: logdet_spd(A),
    "dual_coords": lambda A, P, N: dual_coords(A),
    "dual_divergence": lambda A, P, N: dual_divergence(N, -2.0 * np.eye(_A.n)),
    "scale_to_unit_trace": lambda A, P, N: scale_to_unit_trace(A, P)[1],
    "bregman_logdet": lambda A, P, N: bregman_logdet(A, P),
    "preconditioned_spectrum": lambda A, P, N: preconditioned_spectrum(A, P),
    "condition_report": lambda A, P, N: condition_report(A, P).d_ld,
    "cholesky": lambda A, P, N: cholesky(A).to_dense(),
    "jacobi_scale": lambda A, P, N: as_dense(jacobi_scale(A)),
    "sym_eig": lambda A, P, N: sym_eig(A).values,
    "error_core": lambda A, P, N: error_core(A, ic0(_A)).thetas,
    "preconditioned_logdet": lambda A, P, N: preconditioned_logdet(A, _P),
    "pcg_solve": lambda A, P, N: pcg_solve(A, _b).x,
    "pcg_solve_dense_inverse": lambda A, P, N: pcg_solve(_A, _b, A).x,
    "sym_preconditioned_operator": lambda A, P, N: sym_preconditioned_operator(A, _P)(_b),
}

# Every function of a pair of matrices, as f(A, P) with A and P of one order.
PAIRS = {
    "bregman_logdet_dense_direct": bregman_logdet,
    "dual_divergence": lambda A, P: dual_divergence(-as_dense(A), -as_dense(P)),
    "scale_to_unit_trace": scale_to_unit_trace,
    "preconditioned_spectrum": preconditioned_spectrum,
    "condition_report": condition_report,
}


class TestMatrixReader:
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_sparse_and_preconditioner_match_their_dense_copies(self, name):
        sparse, dense = _reader_inputs()
        # sparse and dense products round differently; every dense copy is exact
        np.testing.assert_allclose(READERS[name](*sparse), READERS[name](*dense),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_non_square_rejected(self, name):
        bad = np.ones((2, 3))
        with pytest.raises(ValueError, match="square matrix required"):
            READERS[name](bad, bad, bad)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_nan_rejected(self, name):
        bad = np.eye(_A.n)
        bad[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            READERS[name](bad, bad, bad)

    @pytest.mark.parametrize("name", sorted(READERS))
    def test_empty_rejected(self, name):
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match=r"empty matrix: order 0 x 0"):
            READERS[name](empty, empty, empty)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_empty_pair_rejected(self, name):
        empty = np.zeros((0, 0))
        with pytest.raises(ValueError, match=r"empty matrix: order 0 x 0"):
            PAIRS[name](empty, empty)

    @pytest.mark.parametrize(
        "f, nargs",
        [pytest.param(f, 3, id=name) for name, f in sorted(READERS.items())]
        + [pytest.param(f, 2, id=f"pair-{name}") for name, f in sorted(PAIRS.items())]
        + [pytest.param(SparseSymMatrix.from_dense, 1, id="from_dense")])
    def test_asymmetric_rejected(self, f, nargs):
        bad = np.eye(8)
        bad[7, 0] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            f(*[bad] * nargs)

    def test_empty_sparse_rejected(self):
        empty = SparseSymMatrix.from_coo(0, [], [], [])
        for f in (sym_eig, cholesky, lambda A: condition_report(A)):
            with pytest.raises(ValueError, match=r"empty matrix: order 0 x 0"):
                f(empty)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_pair_of_other_orders_rejected(self, name):
        with pytest.raises(ValueError, match=r"A and P must have matching shape, got \(8, 8\) and \(4, 4\)"):
            PAIRS[name](_A, np.eye(4))

    def test_callable_operator_rejected(self):
        with pytest.raises(TypeError, match="SparseSymMatrix or ndarray"):
            pcg_solve(lambda x: x, _b)
        with pytest.raises(TypeError, match="SparseSymMatrix or ndarray"):
            pcg_solve(_A, _b, lambda x: x)
        with pytest.raises(TypeError, match="SparseSymMatrix or ndarray"):
            sym_preconditioned_operator(lambda x: x, _P)
