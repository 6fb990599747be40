"""Matrix Market ingestion, symmetric sparse containers, the two readers
of matrix arguments (as_sparse for the factored path, with as_matvec over
it, and as_dense, with as_dense_pair, for the dense oracle), the one
symmetry check of a dense one (_symmetrized) and the one lower-triangle
check of a sparse one (_check_lower), CSV and JSON emission.

The on-disk format is the coordinate Matrix Market exchange format
(`%%MatrixMarket matrix coordinate real symmetric|general`).  A symmetric
matrix is held as its lower triangle; both triangles are assembled into
one CSR matrix the first time a product or a dense copy asks for them,
and kept for every later one.  Its lower triangle is a canonical CSR with
finite entries by construction.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import secrets
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import MatrixMarketError, SchemaError, SymmetryError

# Column block of the dense kernels: _symmetrized and linalg's.  The
# smallest multiple of linalg._DORMQR_NB that keeps every dormqr panel
# blocked; wider panels only hold more memory.
PANEL = 64

__all__ = [
    "SparseSymMatrix",
    "as_dense",
    "as_dense_pair",
    "as_matvec",
    "as_sparse",
    "read_matrix_market",
    "write_json",
    "write_matrix_market",
    "write_table",
]


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric real matrix stored as its lower triangle in CSR form.

    Only entries with row >= col are stored; products go through `full`,
    both triangles as one CSR matrix built on first use.  The order n is
    lower's; a non-square lower, or one storing an entry above the
    diagonal, raises ValueError.  lower is kept as a canonical float64
    CSR, columns sorted within each row and duplicates summed: an input
    that is one is kept without a copy, any other is canonicalized in a
    copy, so the caller's arrays never change.  A non-finite entry, after
    duplicates are summed, raises MatrixMarketError.  Positive
    definiteness is not checked here.
    """

    lower: sp.csr_matrix = field(repr=False)

    def __post_init__(self):
        lower = sp.csr_matrix(self.lower, dtype=np.float64)
        if lower.shape[0] != lower.shape[1]:
            raise ValueError(f"lower triangle must be square, got shape {lower.shape}")
        if not lower.has_canonical_format:
            lower = lower.copy()
            lower.sum_duplicates()
        _check_lower(lower)
        # after summing, so duplicates summing to inf + -inf are caught
        if not np.isfinite(lower.data).all():
            raise MatrixMarketError("matrix has a non-finite entry")
        object.__setattr__(self, "lower", lower)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    @staticmethod
    def from_coo(n, rows, cols, vals) -> "SparseSymMatrix":
        """Assemble from coordinate triplets (0-based, duplicates summed).

        Entries may address either triangle; each is folded onto the lower
        one.  Duplicate coordinates are summed, Matrix Market style, and a
        sum that is not finite raises MatrixMarketError (the constructor's
        check).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size and (rows.min() < 0 or cols.min() < 0 or rows.max() >= n or cols.max() >= n):
            raise MatrixMarketError(f"coordinate index out of range for order {n}")
        lo_r = np.maximum(rows, cols)
        lo_c = np.minimum(rows, cols)
        lower = sp.coo_matrix((vals, (lo_r, lo_c)), shape=(n, n)).tocsr()
        lower.eliminate_zeros()
        return SparseSymMatrix(lower)

    @staticmethod
    def from_dense(a) -> "SparseSymMatrix":
        """The lower triangle of _symmetrized(a); a non-finite entry raises
        MatrixMarketError."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        if not np.isfinite(a).all():
            raise MatrixMarketError("matrix has a non-finite entry")
        return SparseSymMatrix(sp.csr_matrix(np.tril(_symmetrized(a))))

    @property
    def nnz_lower(self) -> int:
        return int(self.lower.nnz)

    def diagonal(self) -> np.ndarray:
        return self.lower.diagonal()

    @cached_property
    def full(self) -> sp.csr_matrix:
        """Both triangles as CSR: the stored triplets plus the off-diagonal
        ones mirrored, in one COO to CSR conversion."""
        coo = self.lower.tocoo()
        off = coo.row != coo.col
        rows = np.concatenate((coo.row, coo.col[off]))
        cols = np.concatenate((coo.col, coo.row[off]))
        vals = np.concatenate((coo.data, coo.data[off]))
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def matvec(self, x) -> np.ndarray:
        """Full symmetric product A @ x; x is a vector or an n x k block."""
        return self.full @ np.asarray(x, dtype=np.float64)

    __matmul__ = matvec

    def to_dense(self) -> np.ndarray:
        return self.full.toarray()

    def coo_entries(self):
        """Lower-triangle triplets (row, col, value), row-major sorted."""
        coo = self.lower.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]


def _check_lower(csr) -> None:
    """ValueError naming the first stored (row, col) of the square CSR
    matrix csr that lies above the diagonal, in storage order."""
    rows = np.repeat(np.arange(csr.shape[0], dtype=csr.indices.dtype), np.diff(csr.indptr))
    upper = np.flatnonzero(csr.indices > rows)
    if upper.size:
        k = upper[0]
        raise ValueError("lower triangle stores an entry above the diagonal "
                         f"at (row, col) = ({rows[k]}, {csr.indices[k]})")


def as_dense(A, copy=False) -> np.ndarray:
    """A matrix argument as a square float64 array: a SparseSymMatrix's
    dense copy (finite by construction, so not scanned), the dense() of an
    object that has one (a Preconditioner), or what numpy reads.
    ValueError unless the array is square, not 0 x 0, with finite entries.

    With copy=True the result shares no memory with A, so the caller may
    overwrite it: the dense copy and dense() are new arrays already, and
    numpy makes one copy of anything else, an ndarray of the caller's too.
    """
    if isinstance(A, SparseSymMatrix):
        A = A.to_dense()
    else:
        if callable(getattr(A, "dense", None)):
            A = A.dense()
        elif copy:
            A = np.array(A, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"square matrix required, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("matrix has non-finite entries")
    if A.shape[0] == 0:
        raise ValueError("empty matrix: order 0 x 0")
    return A


def as_dense_pair(A, P):
    """as_dense of A and P; ValueError unless their orders match."""
    A, P = as_dense(A), as_dense(P)
    if A.shape != P.shape:
        raise ValueError(f"A and P must have matching shape, got {A.shape} and {P.shape}")
    return A, P


def as_sparse(A) -> SparseSymMatrix:
    """A matrix argument of the factored path as a SparseSymMatrix: one is
    returned as given, anything else as SparseSymMatrix.from_dense of
    as_dense(A), so it is checked as as_dense checks, and symmetrized."""
    if isinstance(A, SparseSymMatrix):
        return A
    return SparseSymMatrix.from_dense(as_dense(A))


def as_matvec(A):
    """(product, n) for a matrix argument: the matvec of as_sparse(A),
    looked up at this call.  A callable is rejected with TypeError, since
    its order is unknown."""
    if callable(A):
        raise TypeError("pass (apply, n) operators as SparseSymMatrix or ndarray")
    A = as_sparse(A)
    return A.matvec, A.n


def _symmetrized(S: np.ndarray, out=None) -> np.ndarray:
    """0.5 (S + S^T) into out, a new F-ordered array when None; ValueError
    unless max|S - S^T| <= 1e-10 max(max|S|, 1).

    One pass over the pairs of PANEL x PANEL blocks (I, J) and (J, I), each
    pair read before either block is written, takes max|S - S^T| and max|S|
    and writes the symmetrized pair.  So out=S symmetrizes in place, and no
    n x n temporary is made beside S and out.  Each half is taken before
    the sum, so entries near the largest float do not overflow; halving is
    exact wherever the halves are normal numbers, and there the sum has the
    bits of 0.5 (S + S^T).  The result is exactly symmetric, so LAPACK may
    read either of its triangles or its transpose, and equals S bit for bit
    if S is symmetric and no half is subnormal.
    """
    n = S.shape[0]
    if out is None:
        out = np.empty((n, n), order="F")
    asym = smax = 0.0
    for i in range(0, n, PANEL):
        for j in range(0, i + 1, PANEL):
            lo, up = S[i:i + PANEL, j:j + PANEL], S[j:j + PANEL, i:i + PANEL].T
            blk = lo - up
            asym = max(asym, np.abs(blk, out=blk).max())
            smax = max(smax, lo.max(), -lo.min(), up.max(), -up.min())
            np.multiply(lo, 0.5, out=blk)
            blk += 0.5 * up
            out[i:i + PANEL, j:j + PANEL] = blk
            out[j:j + PANEL, i:i + PANEL] = blk.T
    if asym > 1e-10 * max(smax, 1.0):
        raise ValueError("matrix is not symmetric to 1e-10 relative")
    return out


def _parse_banner(line: str):
    parts = line.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"bad banner line: {line.strip()!r}")
    _, obj, fmt, fieldkind, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(f"unsupported object/format: {obj} {fmt}")
    if fieldkind != "real":
        raise MatrixMarketError(f"unsupported field type: {fieldkind}")
    if symmetry not in ("symmetric", "general"):
        raise MatrixMarketError(f"unsupported symmetry: {symmetry}")
    return symmetry


def read_matrix_market(path) -> SparseSymMatrix:
    """Read a real coordinate Matrix Market file as a symmetric matrix.

    `symmetric` files are taken as-is (lower triangle).  `general` files
    must be square and symmetric to 1e-12 relative; the lower triangle of
    the symmetrized matrix is kept.  Sizes are plain decimal digits, and
    entries plain decimal integers and floats; anything else raises
    MatrixMarketError.
    """
    with open(path, "r", encoding="ascii") as fh:
        return _read_mm_stream(fh)


def _read_mm_stream(fh) -> SparseSymMatrix:
    banner = fh.readline()
    if not banner:
        raise MatrixMarketError("empty file")
    symmetry = _parse_banner(banner)

    size_line = None
    for line in fh:
        if line.startswith("%") or not line.strip():
            continue
        size_line = line
        break
    if size_line is None:
        raise MatrixMarketError("missing size line")
    parts = size_line.split()
    if len(parts) != 3 or not all(p.isascii() and p.isdigit() for p in parts):
        raise MatrixMarketError(f"bad size line: {size_line.strip()!r}")
    n, m, nnz = (int(p) for p in parts)
    if n != m:
        raise MatrixMarketError(f"matrix must be square, got {n}x{m}")
    if n == 0:
        raise MatrixMarketError(f"bad dimensions in size line: {size_line.strip()!r}")

    # one strict parse of plain decimal numerals: Python's int and float
    # would also take digit-group underscores, reading 1_0 as 10
    try:
        with warnings.catch_warnings():  # an empty block is the count check's to judge
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, dtype=[("i", np.int64), ("j", np.int64), ("v", np.float64)],
                              comments="%", ndmin=1)
    except ValueError as exc:
        raise MatrixMarketError(f"bad entry block: {exc}") from exc
    if data.size != nnz:
        raise MatrixMarketError(f"declared {nnz} entries, found {data.size}")
    rows, cols, vals = data["i"] - 1, data["j"] - 1, data["v"]
    if nnz and not (min(rows.min(), cols.min()) >= 0 and max(rows.max(), cols.max()) < n):
        raise MatrixMarketError(f"entry index out of range for order {n}")

    if symmetry == "symmetric":
        if np.any(cols > rows):
            raise MatrixMarketError("symmetric file stores an upper-triangle entry")
        return SparseSymMatrix.from_coo(n, rows, cols, vals)

    # general: assemble fully and verify symmetry before folding
    full = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    full.sum_duplicates()
    gap = abs(full - full.T)
    scale = max(abs(full).max(), 1.0) if full.nnz else 1.0
    if gap.nnz and gap.max() > 1e-12 * scale:
        raise SymmetryError("general file is not symmetric to 1e-12 relative")
    # halve before the sum, as _symmetrized does: entries near the largest
    # float do not overflow, and where the halves are normal numbers the
    # bits are those of 0.5 (full + full^T)
    folded = sp.tril(0.5 * full + 0.5 * full.T).tocoo()
    return SparseSymMatrix.from_coo(n, folded.row, folded.col, folded.data)


def write_matrix_market(mat: SparseSymMatrix, path) -> None:
    """Emit the lower triangle as `matrix coordinate real symmetric`."""
    rows, cols, vals = mat.coo_entries()
    buf = io.StringIO()
    buf.write("%%MatrixMarket matrix coordinate real symmetric\n")
    buf.write(f"{mat.n} {mat.n} {len(vals)}\n")
    for i, j, v in zip(rows, cols, vals):
        buf.write(f"{i + 1} {j + 1} {v:.17g}\n")
    _atomic_write(path, buf.getvalue())


def write_table(rows, path) -> None:
    """Write named real tuples as CSV with 17 significant digits.

    `rows` is a non-empty sequence of mappings sharing one column set; the
    header order is that of the first row.  No rows, or a row with another
    column set, raises SchemaError.
    """
    rows = list(rows)
    if not rows:
        raise SchemaError("no rows: schema unknown")
    columns = list(rows[0].keys())
    colset = set(columns)
    lines = [",".join(columns)]
    for k, row in enumerate(rows):
        if set(row.keys()) != colset:
            raise SchemaError(f"row {k} columns {sorted(row.keys())} != {sorted(colset)}")
        lines.append(",".join(_format_cell(row[c]) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return f"{float(v):.17g}"


def write_json(obj, path) -> None:
    """Write obj as indented, key-sorted ASCII JSON ending in a newline; a
    non-finite float, which JSON cannot hold, raises ValueError first."""
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _atomic_write(path, text) -> None:
    """Write text to a new file beside path, then rename it onto path.

    On any failure the temporary file is removed and an existing file at
    path is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
    try:
        try:
            with open(tmp, "x", encoding="ascii", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc
