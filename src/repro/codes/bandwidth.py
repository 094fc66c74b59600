"""Bandwidth-optimal Convertible Codes (vector codes with piggybacking).

Access-optimal CC cannot help when a conversion *adds* parities: the
information for the new parities simply is not present in the old ones.
BWO-CC (paper Appendix A, case 2a) solves this with a vector code:

* Each chunk is (logically) divided into ``r_F`` substripes.
* At encode time, for each of the first ``r_I`` substripes *all* ``r_F``
  parities are computed. The ``r_F - r_I`` "extra" parities are XORed
  (piggybacked) into the stored parities of the later substripes.
* At conversion time only the parities plus the **last** ``r_F - r_I``
  substripes of each data chunk are read — laid out contiguously on disk,
  which is the paper's hop-and-couple optimization (one 4 MB sequential
  read instead of 8 scattered half-MB reads in their example).

Per merged stripe the read cost is ``r_I + k * (r_F - r_I) / r_F`` chunks
versus ``k`` for RS: Fig 8's CC(4,5)->CC(8,10) reads 6 chunk-equivalents
instead of 8 (25% less).

The stored code tolerates any ``r_I`` chunk erasures (same as RS(k, k+r_I));
conversion emits stripes byte-identical to a scalar
:class:`~repro.codes.convertible.ConvertibleCode` of the final parameters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, Stripe
from repro.codes.convertible import (
    ConversionIO,
    ConversionPath,
    ConversionPlan,
    ConvertibleCode,
)
from repro.codes.pointsearch import FAMILY
from repro.gf.kernels import gf_scale_xor
from repro.gf.matrix import gf_identity, gf_matmul


class BandwidthOptimalCC(ErasureCode):
    #: Parities carry piggybacked substripe sums, not plain generator-row
    #: products — the generic batched/fused codec paths must defer to the
    #: per-stripe encode/decode here.
    generator_encoded = False
    """BWO-CC(k, r_I -> r_F): stores r_I parities, converts into r_F.

    ``n = k + r_I`` chunks are stored; the code is built over the
    ``r_F``-point family so that a future merge into a wider stripe with
    ``r_F`` parities reads only parities plus a ``(r_F - r_I)/r_F``
    fraction of each data chunk.
    """

    def __init__(
        self, k: int, r_initial: int, r_final: int, family_width: Optional[int] = None
    ):
        if not 0 < r_initial < r_final:
            raise ValueError("BWO-CC requires 0 < r_I < r_F")
        super().__init__(k, k + r_initial)
        self.r_initial = r_initial
        self.r_final = r_final
        if family_width is None:
            family_width = FAMILY.default_width(r_final, k)
        self.family_width = max(family_width, k)
        self.points = FAMILY.points(r_final, self.family_width)
        # (k, r_F) parity coefficients shared by every substripe.
        self._parity_coeffs = self.field.vandermonde(self.points, k)

    @property
    def generator(self) -> np.ndarray:
        # Scalar-view generator (data rows + the r_I *clean* parity rows).
        # Only meaningful per-substripe; provided for interface completeness.
        parity = self._parity_coeffs[:, : self.r_initial].T
        return np.concatenate([gf_identity(self.k), parity], axis=0)

    # -- substripe helpers -------------------------------------------------
    def _substripe_len(self, chunk_size: int) -> int:
        if chunk_size % self.r_final != 0:
            raise ValueError(
                f"chunk size {chunk_size} must be divisible by r_F={self.r_final}"
            )
        return chunk_size // self.r_final

    def _sub(self, chunk: np.ndarray, s: int) -> np.ndarray:
        sublen = self._substripe_len(len(chunk))
        return chunk[s * sublen : (s + 1) * sublen]

    def _substripe_parity(
        self, data_chunks: Sequence[np.ndarray], s: int, j: int
    ) -> np.ndarray:
        """Parity j of substripe s over the given data chunks."""
        sublen = self._substripe_len(len(data_chunks[0]))
        acc = np.zeros(sublen, dtype=np.uint8)
        for t, chunk in enumerate(data_chunks):
            gf_scale_xor(acc, int(self._parity_coeffs[t, j]), self._sub(chunk, s))
        return acc

    # -- encode ------------------------------------------------------------
    def encode(self, data_chunks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Compute the r_I stored (piggybacked) parity chunks."""
        if len(data_chunks) != self.k:
            raise ValueError(f"expected {self.k} data chunks")
        data = [np.asarray(c, dtype=np.uint8) for c in data_chunks]
        chunk_size = len(data[0])
        sublen = self._substripe_len(chunk_size)
        r_i, r_f = self.r_initial, self.r_final
        parities = [np.zeros(chunk_size, dtype=np.uint8) for _ in range(r_i)]
        for j in range(r_i):
            for s in range(r_f):
                piece = self._substripe_parity(data, s, j)
                if s >= r_i:
                    # Piggyback: extra parity s of substripe j rides here.
                    piece = piece ^ self._substripe_parity(data, j, s)
                parities[j][s * sublen : (s + 1) * sublen] = piece
        return parities

    # -- decode ------------------------------------------------------------
    def decode(
        self, available: Dict[int, np.ndarray], erased: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Recover erased chunks; tolerates any r_I chunk erasures.

        Substripes 0..r_I-1 carry clean parities and decode directly;
        their recovery lets the piggybacks be computed and stripped from
        the later substripes, which then decode the same way.
        """
        erased = list(erased)
        if not erased:
            return {}
        if len(available) < self.k:
            raise DecodeError(
                f"need {self.k} chunks, only {len(available)} available"
            )
        chunk_size = len(next(iter(available.values())))
        sublen = self._substripe_len(chunk_size)
        r_i, r_f = self.r_initial, self.r_final
        # Every substripe is the scalar code of :attr:`generator` (data
        # rows + the r_I clean parity rows), so one inverse serves all.
        inv, use = self._invert_survivors(sorted(available))

        recovered_data = np.zeros((self.k, chunk_size), dtype=np.uint8)
        # Pass 1: clean substripes.
        for s in range(r_i):
            stacked = np.stack(
                [self._sub(available[idx], s) for idx in use]
            )
            recovered_data[:, s * sublen : (s + 1) * sublen] = gf_matmul(inv, stacked)
        # Pass 2: strip piggybacks (computable now) then decode.
        early = [recovered_data[t] for t in range(self.k)]
        for s in range(r_i, r_f):
            stacked_rows = []
            for idx in use:
                piece = self._sub(available[idx], s)
                if idx >= self.k:
                    j = idx - self.k
                    piece = piece ^ self._substripe_parity(early, j, s)
                stacked_rows.append(piece)
            recovered_data[:, s * sublen : (s + 1) * sublen] = gf_matmul(
                inv, np.stack(stacked_rows)
            )
        out: Dict[int, np.ndarray] = {}
        full_data = [recovered_data[t] for t in range(self.k)]
        for idx in erased:
            if idx < self.k:
                out[idx] = recovered_data[idx].copy()
            else:
                out[idx] = self.encode(full_data)[idx - self.k]
        return out

    # -- conversion ----------------------------------------------------------
    def convert_merge(
        self,
        final: ConvertibleCode,
        stripes: Sequence[Stripe],
        plan: ConversionPlan,
    ) -> Tuple[List[Stripe], ConversionIO]:
        """Merge stripes into one scalar CC stripe with r_F parities, as
        the plan (:func:`repro.codes.convertible.plan_conversion`) reads.

        Reads all stored parities plus the last ``r_F - r_I`` substripes
        of every data chunk (a single contiguous tail range per chunk —
        hop-and-couple). The output is byte-identical to encoding the
        concatenated data with ``final`` directly.
        """
        plan.check(ConversionPath.BANDWIDTH_OPTIMAL, self, final, stripes)
        lam = len(stripes)
        k_i, r_i, r_f = self.k, self.r_initial, self.r_final
        if final.r != r_f or final.points[:r_f] != self.points[:r_f]:
            raise ValueError("final code is not the one this code anticipates")
        chunk_size = stripes[0].chunk_size()
        sublen = self._substripe_len(chunk_size)

        final_parities = np.zeros((r_f, chunk_size), dtype=np.uint8)
        for i in range(lam):
            offset = i * k_i
            # Extra parities of the early substripes, extracted from the
            # piggyback slots using the (read) tail data.
            if any(stripes[i].chunks[t] is None for t in range(k_i)):
                raise DecodeError("conversion requires an erased data chunk")
            tail_data = [
                stripes[i].chunks[t][r_i * sublen :] for t in range(k_i)
            ]
            for j in range(r_i):
                parity = stripes[i].chunks[k_i + j]
                if parity is None:
                    raise DecodeError("conversion requires an erased parity")
                for s in range(r_f):
                    piece = parity[s * sublen : (s + 1) * sublen]
                    if s >= r_i:
                        # Remove the direct parity of this tail substripe to
                        # expose the piggyback p_{j, s}; recompute it from the
                        # tail data (which is read anyway).
                        direct = np.zeros(sublen, dtype=np.uint8)
                        for t in range(k_i):
                            sub = tail_data[t][(s - r_i) * sublen : (s - r_i + 1) * sublen]
                            gf_scale_xor(direct, int(self._parity_coeffs[t, j]), sub)
                        extracted = piece ^ direct  # == p_{substripe j, parity s}
                        coeff = final.shift_coefficient(s, offset)
                        gf_scale_xor(
                            final_parities[s, j * sublen : (j + 1) * sublen],
                            coeff,
                            extracted,
                        )
                    else:
                        coeff = final.shift_coefficient(j, offset)
                        gf_scale_xor(
                            final_parities[j, s * sublen : (s + 1) * sublen],
                            coeff,
                            piece,
                        )
            # Tail substripes of the final parities: direct from read data.
            for s in range(r_i, r_f):
                for j in range(r_f):
                    acc = final_parities[j, s * sublen : (s + 1) * sublen]
                    for t in range(k_i):
                        coeff = int(final._generator[final.k + j, offset + t])
                        sub = tail_data[t][(s - r_i) * sublen : (s - r_i + 1) * sublen]
                        gf_scale_xor(acc, coeff, sub)

        chunks: List[np.ndarray] = []
        for i in range(lam):
            chunks.extend(stripes[i].chunks[:k_i])
        chunks.extend(final_parities[j] for j in range(r_f))
        return [Stripe(final.k, final.n, chunks)], plan.io()
