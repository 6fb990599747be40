"""Synthetic test matrices with known spectra.

Dense instances are A = W diag(spectrum) W' with W drawn Haar-like from
the QR of a seeded Gaussian matrix, so the exact spectrum doubles as an
oracle: make_spectrum names the spectrum (uniform, geometric or
clustered), make_dense_spd(spectrum, basis_seed) builds the matrix, and
random_spd draws both from a generator.  Sparse instances mimic network
matrices: a random tree plus extra chords, symmetric diagonally dominant,
for exercising zero-fill factorizations at a given order and density.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .matio import SparseSymMatrix

__all__ = [
    "haar_orthogonal",
    "make_spectrum",
    "make_dense_spd",
    "random_spd",
    "make_sparse_network",
]


def make_spectrum(n: int, generator: str, params) -> np.ndarray:
    """Non-increasing spectrum of order n: generator uniform with params
    (a, b), geometric with (kappa,) or clustered with (values, mults), the
    mults integers >= 0."""
    if generator == "uniform":
        a, b = params
        if not 0.0 < a <= b < np.inf:
            raise DomainError("uniform spectrum needs 0 < a <= b, both finite")
        spec = np.linspace(b, a, n)
    elif generator == "geometric":
        (kappa,) = params
        if not 1.0 <= kappa < np.inf:
            raise DomainError("geometric spectrum needs a finite kappa >= 1")
        spec = kappa ** (-np.arange(n) / max(n - 1, 1))
    elif generator == "clustered":
        values, mults = params
        if not all(isinstance(k, Integral) and k >= 0 for k in mults):
            raise DomainError(f"clustered multiplicities must be integers >= 0, got {list(mults)}")
        spec = np.repeat(np.asarray(values, dtype=np.float64), np.asarray(mults, dtype=int))
        if spec.size != n:
            raise DomainError("clustered multiplicities must sum to n")
        spec = np.sort(spec)[::-1]
    else:
        raise DomainError(f"unknown spectrum generator {generator!r}")
    if not np.all((spec > 0.0) & (spec < np.inf)):
        raise DomainError("spectrum must be finite and strictly positive")
    return spec


def haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """Orthogonal matrix from the sign-fixed QR of a seeded Gaussian."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def make_dense_spd(spectrum, basis_seed: int = 0) -> np.ndarray:
    spec = np.asarray(spectrum, dtype=np.float64)
    W = haar_orthogonal(spec.size, basis_seed)
    A = (W * spec) @ W.T
    return 0.5 * (A + A.T)


def random_spd(n: int, rng: np.random.Generator, kappa: float | None = None) -> np.ndarray:
    """Random dense SPD matrix; eigenvalues log-uniform over [1/kappa, 1]
    when kappa is given, else uniform over [0.5, 5]."""
    if kappa is None:
        spec = rng.uniform(0.5, 5.0, size=n)
    else:
        spec = np.exp(rng.uniform(-np.log(kappa), 0.0, size=n))
    return make_dense_spd(spec, int(rng.integers(0, 2**31)))


def make_sparse_network(n: int, seed: int = 0) -> SparseSymMatrix:
    """Sparse SPD matrix shaped like a power-network Laplacian plus mass.

    A random spanning tree keeps it connected; int(1.4 n) extra chords
    add irregular fill (fewer when the order has too few free pairs).
    Off-diagonals are negative weights, the diagonal dominates, so IC(0)
    runs shift-free.
    """
    rng = np.random.default_rng(seed)
    chords = int(1.4 * n)
    rows, cols, vals = [], [], []

    def add_edge(i, j, w):
        rows.append(max(i, j))
        cols.append(min(i, j))
        vals.append(-w)

    order = rng.permutation(n)
    for k in range(1, n):
        i = order[k]
        j = order[rng.integers(0, k)]
        add_edge(int(i), int(j), float(rng.uniform(0.5, 2.0)))
    seen = {(max(r, c), min(r, c)) for r, c in zip(rows, cols)}
    attempts = 0
    while len(seen) < n - 1 + chords and attempts < 50 * chords:
        attempts += 1
        i, j = int(rng.integers(0, n)), int(rng.integers(0, n))
        if i == j or (max(i, j), min(i, j)) in seen:
            continue
        seen.add((max(i, j), min(i, j)))
        add_edge(i, j, float(rng.uniform(0.5, 2.0)))

    off = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    row_sums = np.abs(off).sum(axis=1).A1 + np.abs(off).sum(axis=0).A1
    diag = row_sums + rng.uniform(0.1, 1.0, size=n)
    rows_all = np.concatenate([off.tocoo().row, np.arange(n)])
    cols_all = np.concatenate([off.tocoo().col, np.arange(n)])
    vals_all = np.concatenate([off.tocoo().data, diag])
    return SparseSymMatrix.from_coo(n, rows_all, cols_all, vals_all)
