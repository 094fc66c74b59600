"""Matrix helpers over GF(2^8) for the code constructions.

Matrices are ``numpy.uint8`` 2-D arrays. Everything written once for
both fields — inverse, rank, determinants, the Vandermonde power matrix,
the reference matmul — is a method of the field value
(:class:`repro.gf.field.GaloisField`); what is left here is the bulk
product through a cached plan and the Cauchy construction of RS and LRC.
"""

from __future__ import annotations

import numpy as np

from repro.gf.field import GF8


def gf_identity(n: int) -> np.ndarray:
    """n x n identity matrix over GF(256)."""
    return np.eye(n, dtype=np.uint8)


def gf_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256) through the cached plan for ``a``.

    Shapes follow numpy matmul rules for 2-D inputs: (m, k) @ (k, n).
    The plan (:class:`repro.gf.kernels.MulPlan`) sizes the work itself:
    small products (coefficient algebra: inverses, rank checks, narrow
    solves) come back from the field's reference matmul, bulk chunk data
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
    # One XOR outer product + one inverse gather replaces the
    # len(xs) * len(ys) scalar loop; disjointness guarantees no zeros.
    diff = np.asarray(xs, dtype=np.int64)[:, None] ^ np.asarray(ys, dtype=np.int64)
    return GF8.inv(diff)
