"""Matrix algebra over GF(2^8).

Matrices are ``numpy.uint8`` 2-D arrays. These routines back every
encoder/decoder in :mod:`repro.codes`: encoding is a matmul of the
generator against the data, decoding is a solve against the surviving
rows of the generator.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import _EXP, _INV_TABLE, _LOG, FIELD_ORDER, _MUL_TABLE, gf_inv


class SingularMatrixError(ValueError):
    """Raised when inverting / solving with a singular GF matrix."""


def gf_identity(n: int) -> np.ndarray:
    """n x n identity matrix over GF(256)."""
    return np.eye(n, dtype=np.uint8)


def gf_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference matrix product over GF(256) (exact, fully vectorised).

    Materialises the full ``(m, n, k)`` table-lookup product before the
    XOR-reduction — ideal for small matrices, quadratic-in-memory for
    bulk chunk data. A multiply plan answers from here below the kernel
    threshold; the differential tests pin the fast path to this one.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gf_matmul expects 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    # products[i, j, t] = a[i, t] * b[t, j]
    products = _MUL_TABLE[a[:, None, :], b.T[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=2)


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) through the cached plan for ``a``.

    Shapes follow numpy matmul rules for 2-D inputs: (m, k) @ (k, n).
    The plan (:class:`repro.gf.kernels.MulPlan`) sizes the work itself:
    small products (coefficient algebra: inverses, rank checks, narrow
    solves) come back from :func:`gf_matmul_reference`, bulk chunk data
    from the cache-blocked table kernels, which are bit-identical but
    never materialise an ``(m, n, k)`` intermediate.
    """
    from repro.gf.kernels import plan_for_matrix

    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("gf_matmul expects 2-D matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return plan_for_matrix(a).apply(b)


def gf_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product over GF(256)."""
    x = np.asarray(x, dtype=np.uint8)
    return gf_matmul(a, x.reshape(-1, 1)).reshape(-1)


def gf_matinv(a: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(256) by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: if the matrix is not invertible.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("gf_matinv expects a square matrix")
    n = a.shape[0]
    # Work in an augmented [A | I] matrix.
    aug = np.concatenate([a.copy(), gf_identity(n)], axis=1)
    for col in range(n):
        # Find a pivot at or below the diagonal.
        pivot_rows = np.nonzero(aug[col:, col])[0]
        if pivot_rows.size == 0:
            raise SingularMatrixError("matrix is singular over GF(256)")
        pivot = col + int(pivot_rows[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        # Normalise the pivot row.
        inv_pivot = gf_inv(int(aug[col, col]))
        aug[col] = _MUL_TABLE[aug[col], inv_pivot]
        # Eliminate the column from every other row.
        factors = aug[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            aug[rows] ^= _MUL_TABLE[factors[rows][:, None], aug[col][None, :]]
    return aug[:, n:]


def gf_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A @ X = B over GF(256); B may be a vector or matrix."""
    b = np.asarray(b, dtype=np.uint8)
    inv = gf_matinv(a)
    if b.ndim == 1:
        return gf_matvec(inv, b)
    return gf_matmul(inv, b)


def gf_rank(a: np.ndarray) -> int:
    """Rank of a matrix over GF(256) (row-echelon elimination)."""
    a = np.asarray(a, dtype=np.uint8).copy()
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot_rows = np.nonzero(a[rank:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = rank + int(pivot_rows[0])
        if pivot != rank:
            a[[rank, pivot]] = a[[pivot, rank]]
        inv_pivot = gf_inv(int(a[rank, col]))
        a[rank] = _MUL_TABLE[a[rank], inv_pivot]
        factors = a[:, col].copy()
        factors[rank] = 0
        nz = np.nonzero(factors)[0]
        if nz.size:
            a[nz] ^= _MUL_TABLE[factors[nz][:, None], a[rank][None, :]]
        rank += 1
    return rank


def vandermonde(points, n_rows: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = points[j] ** i over GF(256).

    Args:
        points: iterable of distinct nonzero field elements (columns).
        n_rows: number of rows (powers 0 .. n_rows-1).
    """
    pts = [int(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("Vandermonde evaluation points must be distinct")
    if n_rows == 0 or not pts:
        return np.zeros((n_rows, len(pts)), dtype=np.uint8)
    # p**i == exp[(i * log[p]) % order]; one outer product + one gather
    # instead of the n_rows * len(pts) scalar gf_pow loop.
    arr = np.asarray(pts, dtype=np.int64)
    exponents = (np.arange(n_rows, dtype=np.int64)[:, None] * _LOG[arr][None, :]) % (
        FIELD_ORDER
    )
    out = _EXP[exponents].astype(np.uint8)
    zero_cols = arr == 0
    if zero_cols.any():
        out[:, zero_cols] = 0
        out[0, zero_cols] = 1  # 0**0 == 1, matching gf_pow
    return out


def cauchy_matrix(xs, ys) -> np.ndarray:
    """Cauchy matrix C[i, j] = 1 / (xs[i] + ys[j]) over GF(256).

    Every square submatrix of a Cauchy matrix is nonsingular, which makes
    ``[I | C^T]`` a systematic MDS generator — the textbook construction
    for Reed-Solomon in storage systems.

    Args:
        xs, ys: disjoint sequences of distinct field elements.
    """
    xs = [int(x) for x in xs]
    ys = [int(y) for y in ys]
    if set(xs) & set(ys):
        raise ValueError("Cauchy xs and ys must be disjoint")
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise ValueError("Cauchy xs and ys must each be distinct")
    if not xs or not ys:
        return np.zeros((len(xs), len(ys)), dtype=np.uint8)
    # One XOR outer product + one inverse-table gather replaces the
    # len(xs) * len(ys) scalar loop; disjointness guarantees no zeros.
    diff = np.asarray(xs, dtype=np.int64)[:, None] ^ np.asarray(ys, dtype=np.int64)
    return _INV_TABLE[diff].astype(np.uint8)


def is_superregular(m: np.ndarray) -> bool:
    """True if every square submatrix of ``m`` is nonsingular.

    This is the property a parity block P must have for ``[I | P]`` to be
    an MDS generator. Exponential in min(m.shape); intended for the small
    parity matrices (r <= 5) used by the codes in this repo.
    """
    from itertools import combinations

    m = np.asarray(m, dtype=np.uint8)
    rows, cols = m.shape
    max_sq = min(rows, cols)
    for size in range(1, max_sq + 1):
        for rsel in combinations(range(rows), size):
            sub_rows = m[list(rsel), :]
            for csel in combinations(range(cols), size):
                sub = sub_rows[:, list(csel)]
                if gf_rank(sub) < size:
                    return False
    return True
