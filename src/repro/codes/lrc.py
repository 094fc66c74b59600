"""Locally Recoverable Codes — LRC(k, l, r).

``k`` data chunks are organised into ``l`` local groups, each protected by
one local parity; ``r`` global parities protect all data. Chunk layout of
a stripe: ``k`` data, then ``l`` local parities, then ``r`` globals
(``n = k + l + r``). A single failure inside a group repairs by reading
only the ``k/l`` other group members — the reason wide late-life codes are
LRCs (paper §2).

This is the *non-convertible* baseline; its convertible counterpart is
:class:`repro.codes.lrcc.LocallyRecoverableConvertibleCode`.
"""

from __future__ import annotations

import numpy as np

from repro.codes.base import LocalGroupCode
from repro.gf.matrix import cauchy_matrix, gf_identity


class LocalReconstructionCode(LocalGroupCode):
    """LRC(k, l, r): l local groups, one XOR local parity each, r globals."""

    def __init__(self, k: int, l: int, r_global: int):
        super().__init__(k, l, r_global)
        self._generator = self._build_generator()

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def _build_generator(self) -> np.ndarray:
        rows = [gf_identity(self.k)]
        local = np.zeros((self.l, self.k), dtype=np.uint8)
        for g in range(self.l):
            local[g, g * self.group_size : (g + 1) * self.group_size] = 1
        rows.append(local)
        if self.r_global:
            xs = list(range(self.k, self.k + self.r_global))
            rows.append(cauchy_matrix(xs, list(range(self.k))))
        return np.concatenate(rows, axis=0)

    def __repr__(self) -> str:
        return f"LRC({self.k},{self.l},{self.r_global})"
