"""GF(2^16) arithmetic for wide convertible codes.

Superregular generalized-Vandermonde families over GF(2^8) top out around
width 24 for r = 4 (see :mod:`repro.codes.pointsearch`); the theory's
field-size bounds say wide stripes simply need a bigger field. This
module provides GF(2^16) with the standard primitive polynomial
x^16 + x^12 + x^3 + x + 1 (0x1100B).

A full multiplication table would be 8 GiB, so multiplication is
log/exp-table based with explicit zero handling; symbols are
``numpy.uint16``. Chunks of bytes map to symbols through
:meth:`repro.gf.kernels.GF16.symbols` (little-endian pairs; a chunk holds
whole symbols).
"""

from __future__ import annotations

import numpy as np

PRIMITIVE_POLY_16 = 0x1100B
FIELD_SIZE_16 = 1 << 16
FIELD_ORDER_16 = FIELD_SIZE_16 - 1
GENERATOR_16 = 2


def _build_tables():
    exp = np.zeros(2 * FIELD_ORDER_16, dtype=np.int64)
    log = np.zeros(FIELD_SIZE_16, dtype=np.int64)
    x = 1
    for i in range(FIELD_ORDER_16):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x10000:
            x ^= PRIMITIVE_POLY_16
    exp[FIELD_ORDER_16:] = exp[:FIELD_ORDER_16]
    return exp, log


_EXP16, _LOG16 = _build_tables()


def gf16_mul(a, b):
    """Multiply field elements; vectorised over uint16 arrays."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if a == 0 or b == 0:
            return 0
        return int(_EXP16[_LOG16[a] + _LOG16[b]])
    a = np.asarray(a, dtype=np.uint16)
    b = np.asarray(b, dtype=np.uint16)
    out = _EXP16[_LOG16[a.astype(np.int64)] + _LOG16[b.astype(np.int64)]].astype(
        np.uint16
    )
    zero = (a == 0) | (b == 0)
    if np.isscalar(zero):
        return np.uint16(0) if zero else out
    out[zero] = 0
    return out


def gf16_inv(a):
    """Multiplicative inverse (scalar or array)."""
    if isinstance(a, (int, np.integer)):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^16)")
        return int(_EXP16[FIELD_ORDER_16 - _LOG16[a]])
    a = np.asarray(a, dtype=np.uint16)
    if np.any(a == 0):
        raise ZeroDivisionError("0 has no inverse in GF(2^16)")
    return _EXP16[FIELD_ORDER_16 - _LOG16[a.astype(np.int64)]].astype(np.uint16)


def gf16_pow(a: int, e: int) -> int:
    """Scalar power, supporting negative exponents."""
    if a == 0:
        if e == 0:
            return 1
        if e < 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^16)")
        return 0
    return int(_EXP16[(_LOG16[a] * e) % FIELD_ORDER_16])


def gf16_element(i: int) -> int:
    """i-th power of the generator."""
    return int(_EXP16[i % FIELD_ORDER_16])


# ---------------------------------------------------------------------------
# matrix algebra
# ---------------------------------------------------------------------------

def gf16_matmul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference matrix product over GF(2^16); shapes (m,k) @ (k,n).

    Per-column log/exp outer products with full zero masks — exact but
    with per-element table math in the hot loop. A multiply plan answers
    from here for small operands; the differential tests pin the kernel
    fast path to this implementation.
    """
    a = np.asarray(a, dtype=np.uint16)
    b = np.asarray(b, dtype=np.uint16)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint16)
    # Row-by-row accumulation keeps memory bounded for wide codes.
    for t in range(a.shape[1]):
        col = a[:, t]
        row = b[t]
        out ^= gf16_mul(col[:, None], row[None, :])
    return out


def gf16_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2^16) through the cached plan for ``a``
    (:func:`repro.gf.matrix.gf_matmul`'s sibling: the same plan class,
    told apart by dtype, and bit-identical to the reference)."""
    from repro.gf.kernels import plan_for_matrix

    a = np.asarray(a, dtype=np.uint16)
    b = np.asarray(b, dtype=np.uint16)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return plan_for_matrix(a).apply(b)


def gf16_matinv(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inversion over GF(2^16)."""
    from repro.gf.matrix import SingularMatrixError

    a = np.asarray(a, dtype=np.uint16)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.concatenate([a.copy(), np.eye(n, dtype=np.uint16)], axis=1)
    for col in range(n):
        pivots = np.nonzero(aug[col:, col])[0]
        if pivots.size == 0:
            raise SingularMatrixError("matrix is singular over GF(2^16)")
        pivot = col + int(pivots[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = gf16_mul(aug[col], gf16_inv(int(aug[col, col])))
        factors = aug[:, col].copy()
        factors[col] = 0
        rows = np.nonzero(factors)[0]
        if rows.size:
            aug[rows] ^= gf16_mul(factors[rows][:, None], aug[col][None, :])
    return aug[:, n:]


def gf16_batch_det(mats: np.ndarray) -> np.ndarray:
    """Determinants of a batch of small square matrices (Laplace)."""
    mats = np.asarray(mats, dtype=np.uint16)
    n, s, s2 = mats.shape
    if s != s2:
        raise ValueError("matrices must be square")
    if s == 1:
        return mats[:, 0, 0]
    if s == 2:
        return gf16_mul(mats[:, 0, 0], mats[:, 1, 1]) ^ gf16_mul(
            mats[:, 0, 1], mats[:, 1, 0]
        )
    out = np.zeros(n, dtype=np.uint16)
    cols = np.arange(s)
    for j in range(s):
        minor = mats[:, 1:, :][:, :, cols[cols != j]]
        out ^= gf16_mul(mats[:, 0, j], gf16_batch_det(minor))
    return out
