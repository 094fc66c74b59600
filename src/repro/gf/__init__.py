"""Galois-field arithmetic substrate.

The erasure codes in :mod:`repro.codes` are linear codes over GF(2^8)
(the wide-stripe code: over GF(2^16)). This package provides the field
as a value — :class:`~repro.gf.field.GaloisField`, whose two values
``GF8`` and ``GF16`` hold their exp/log tables and every algorithm over
single elements written once (arithmetic, inverse and rank, batched
determinants, the Vandermonde power matrix, the reference matmul) — the
GF(2^8) matrix helpers of the code constructions (:mod:`repro.gf.matrix`)
and the bulk-multiply plan both fields share (:mod:`repro.gf.kernels`),
which tells them apart by dtype.
"""

from repro.gf.field import GF8, GF16, GaloisField, SingularMatrixError
from repro.gf.kernels import (
    MulPlan,
    clear_plan_caches,
    gf_scale,
    gf_scale_xor,
    plan_for_matrix,
)
from repro.gf.matrix import cauchy_matrix, gf_identity, gf_matmul

__all__ = [
    "GaloisField",
    "GF8",
    "GF16",
    "MulPlan",
    "clear_plan_caches",
    "gf_scale",
    "gf_scale_xor",
    "gf_matmul",
    "plan_for_matrix",
    "gf_identity",
    "cauchy_matrix",
    "SingularMatrixError",
]
