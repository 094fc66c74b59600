"""Galois-field arithmetic substrate.

The erasure codes in :mod:`repro.codes` are linear codes over GF(256)
(the wide-stripe code: over GF(2^16), :mod:`repro.gf.field16`). This
package provides the field itself (log/exp tables, vectorised
add/mul/div over numpy uint8 arrays), the matrix algebra built on it
(matmul, inversion, rank, Vandermonde and Cauchy constructions) and the
bulk-multiply plan both fields share (:mod:`repro.gf.kernels`; ``GF8``
and ``GF16`` are the two field values it tells apart by dtype).
"""

from repro.gf.field import GF256, gf_add, gf_div, gf_inv, gf_mul, gf_pow
from repro.gf.kernels import (
    GF8,
    GF16,
    MulPlan,
    clear_plan_caches,
    gf_scale,
    gf_scale_xor,
    plan_for_matrix,
)
from repro.gf.matrix import (
    SingularMatrixError,
    cauchy_matrix,
    gf_identity,
    gf_matinv,
    gf_matmul,
    gf_matmul_reference,
    gf_matvec,
    gf_rank,
    gf_solve,
    is_superregular,
    vandermonde,
)

__all__ = [
    "GF256",
    "GF8",
    "GF16",
    "MulPlan",
    "clear_plan_caches",
    "gf_add",
    "gf_mul",
    "gf_div",
    "gf_inv",
    "gf_pow",
    "gf_scale",
    "gf_scale_xor",
    "gf_matmul",
    "gf_matmul_reference",
    "plan_for_matrix",
    "gf_matvec",
    "gf_matinv",
    "gf_identity",
    "gf_solve",
    "gf_rank",
    "vandermonde",
    "cauchy_matrix",
    "is_superregular",
    "SingularMatrixError",
]
