"""Shared abstractions for erasure codes.

A *chunk* is a 1-D ``numpy.uint8`` array. A *stripe* is the ordered set of
``n`` equal-length chunks (``k`` data followed by ``n - k`` parity) that a
code couples together. Codes are linear over their field (GF(256) unless
the class says otherwise) and systematic: the first ``k`` chunks of a
stripe are the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gf.field import GF8
from repro.gf.kernels import (
    PACKED_TILE_LANES,
    FusedDecode,
    MulPlan,
    PatternCache,
    gf_scale,
    gf_scale_xor,
    plan_for_matrix,
)
from repro.obs.codec import record_codec


#: Chunk length below which the batch forms stack same-length stripes
#: into one ``(k, S*L)`` kernel pass: one kernel tile. A shorter row
#: leaves the kernel dispatch-bound, and a stacked pass amortises the
#: dispatch over the batch; from a tile up the pass is bandwidth-bound
#: and the stack is a batch-sized copy that buys nothing
#: (docs/performance.md, "Multi-stripe batching").
STACK_BELOW_BYTES = 2 * PACKED_TILE_LANES


class DecodeError(Exception):
    """Raised when the available chunks cannot recover the erased ones."""


def chunks_equal(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    """True if two chunk lists are element-wise identical."""
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass
class Stripe:
    """One erasure-coded stripe: k data chunks + r parity chunks.

    ``chunks[i]`` may be ``None`` to represent an erased/unavailable chunk.
    """

    k: int
    n: int
    chunks: List[Optional[np.ndarray]] = field(default_factory=list)

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def data_chunks(self) -> List[Optional[np.ndarray]]:
        return self.chunks[: self.k]

    @property
    def parity_chunks(self) -> List[Optional[np.ndarray]]:
        return self.chunks[self.k :]

    def erased_indices(self) -> List[int]:
        return [i for i, c in enumerate(self.chunks) if c is None]

    def erase(self, *indices: int) -> "Stripe":
        """Return a copy of the stripe with the given chunks erased."""
        new_chunks: List[Optional[np.ndarray]] = list(self.chunks)
        for i in indices:
            new_chunks[i] = None
        return Stripe(self.k, self.n, new_chunks)

    def chunk_size(self) -> int:
        for c in self.chunks:
            if c is not None:
                return len(c)
        raise ValueError("stripe has no available chunks")


class ErasureCode:
    """Base interface for systematic linear erasure codes.

    Subclasses define :attr:`generator`, an ``(n, k)`` matrix over
    :attr:`field` whose top ``k`` rows are the identity; chunk ``i`` of a
    stripe equals row ``i`` of the generator applied to the k data
    chunks. Everything here — encode, decode, their batched forms and the
    recovery transform for a failure pattern — is written once against
    the field value and serves every code in both fields.
    """

    #: The field the generator's coefficients and the chunks' symbols
    #: live in: GF(2^8) unless a subclass says otherwise (a convertible
    #: code's is its point family's: GF(2^16) for the wide code).
    field = GF8

    #: True when every stored chunk is exactly a generator-row product of
    #: the data — the invariant the generic batched/fused paths rely on.
    #: Codes with extra structure folded into their chunks (e.g. the BWO
    #: piggybacked parities) set this False, and encode_batch /
    #: decode_batch then defer to their per-stripe encode / decode.
    generator_encoded = True

    def __init__(self, k: int, n: int):
        if not 0 < k < n:
            raise ValueError(f"need 0 < k < n, got k={k} n={n}")
        self.k = k
        self.n = n
        # Multiply plan over the parity rows, shared by every stripe of
        # this code. Built lazily on first encode because subclasses
        # construct the generator after this __init__ returns; pinned
        # here so the global plan LRU can never evict a live code's plan.
        self._encode_plan = None
        # Composed (e, k) recovery transforms keyed by failure pattern
        # (available-set, erased-set); see ErasureCode._recovery.
        self._pattern_cache = PatternCache()

    @property
    def r(self) -> int:
        return self.n - self.k

    # -- to be provided by subclasses ------------------------------------
    @property
    def generator(self) -> np.ndarray:
        """(n, k) generator matrix; rows 0..k-1 are the identity."""
        raise NotImplementedError

    # -- generic machinery ------------------------------------------------
    def encode_plan(self):
        """The cached multiply plan over this code's parity rows."""
        if self._encode_plan is None:
            self._encode_plan = plan_for_matrix(self.generator[self.k :])
        return self._encode_plan

    def encode(self, data_chunks: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Compute the r parity chunks for k equal-length data chunks."""
        if len(data_chunks) != self.k:
            raise ValueError(f"expected {self.k} data chunks, got {len(data_chunks)}")
        rows = [self.field.symbols(c) for c in data_chunks]
        with record_codec("encode", self.k * rows[0].nbytes):
            parities = self.field.chunks(self.encode_plan().apply(rows))
        return [parities[i] for i in range(self.r)]

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> Stripe:
        """Encode and package data + parities into a :class:`Stripe`."""
        parities = self.encode(data_chunks)
        chunks = [np.asarray(c, dtype=np.uint8) for c in data_chunks] + parities
        return Stripe(self.k, self.n, chunks)

    def _stacked(self, stripes: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
        """``(k, S*L)`` symbols: stripe ``j``'s k chunks side by side in
        columns ``j*L : (j+1)*L`` — one kernel pass over S same-length
        stripes."""
        width = len(self.field.symbols(stripes[0][0]))
        batch = np.empty((self.k, width * len(stripes)), dtype=self.field.dtype)
        for j, chunks in enumerate(stripes):
            for t, c in enumerate(chunks):
                batch[t, j * width : (j + 1) * width] = self.field.symbols(c)
        return batch

    def _unstacked(self, product: np.ndarray, count: int) -> List[List[np.ndarray]]:
        """Per stripe, the rows of a :meth:`_stacked` product over
        ``count`` stripes, as chunks."""
        width = product.shape[1] // count
        return [
            [
                self.field.chunks(np.ascontiguousarray(row[j * width : (j + 1) * width]))
                for row in product
            ]
            for j in range(count)
        ]

    def encode_batch(
        self, stripes: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Parity chunks for many stripes, bit-identical to calling
        :meth:`encode` once per stripe.

        Stripes of chunks shorter than :data:`STACK_BELOW_BYTES` are
        stacked along the chunk axis into a single ``(k, S*L)`` multiply
        per length group (a ragged final stripe lands in its own group),
        amortising plan lookup, ``np.take`` dispatch, and per-call
        overhead across the batch. Longer chunks go to the plan as they
        are, stripe by stripe.
        """
        results: List[Optional[List[np.ndarray]]] = [None] * len(stripes)
        groups: Dict[int, List[int]] = {}
        for s, chunks in enumerate(stripes):
            if len(chunks) != self.k:
                raise ValueError(
                    f"expected {self.k} data chunks per stripe, got {len(chunks)}"
                )
            length = len(chunks[0])
            if self.generator_encoded and length < STACK_BELOW_BYTES:
                groups.setdefault(length, []).append(s)
            else:
                results[s] = self.encode(chunks)
        for members in groups.values():
            batch = self._stacked([stripes[s] for s in members])
            with record_codec("encode", batch.nbytes):
                parities = self.encode_plan().apply(batch)
            for s, chunks in zip(members, self._unstacked(parities, len(members))):
                results[s] = chunks
        return results  # type: ignore[return-value]

    def decode_batch(
        self,
        availables: Sequence[Dict[int, np.ndarray]],
        eraseds: Sequence[Sequence[int]],
    ) -> List[Dict[int, np.ndarray]]:
        """Recover erased chunks for many stripes at once.

        Stripes sharing the same (available-set, erased-set, chunk
        length) failure pattern — the shape of a node-failure burst —
        with chunks shorter than :data:`STACK_BELOW_BYTES` are stacked
        along the chunk axis and recovered with a single application of
        the fused pattern transform. Everything else (long chunks, short
        availability, unique patterns, patterns nothing recovers) falls
        back to per-stripe :meth:`decode`, so results are always
        bit-identical to the per-stripe loop.
        """
        if len(availables) != len(eraseds):
            raise ValueError("availables and eraseds must have equal length")
        if not self.generator_encoded:
            return [
                self.decode(a, list(e)) for a, e in zip(availables, eraseds)
            ]
        results: List[Optional[Dict[int, np.ndarray]]] = [None] * len(availables)
        groups: Dict[Tuple, List[int]] = {}
        fallback: List[int] = []
        for s, (available, erased) in enumerate(zip(availables, eraseds)):
            erased = list(erased)
            if not erased:
                results[s] = {}
                continue
            if len(available) < self.k:
                fallback.append(s)
                continue
            length = len(next(iter(available.values())))
            if length >= STACK_BELOW_BYTES:
                fallback.append(s)
                continue
            key = (tuple(sorted(available)), tuple(erased), length)
            groups.setdefault(key, []).append(s)
        for (_, erased_key, _), members in groups.items():
            fused = None
            if len(members) > 1:
                try:
                    fused = self._recovery(availables[members[0]], erased_key)
                except DecodeError:
                    pass
            if fused is None:
                # Single-member groups and patterns nothing recovers go
                # through decode (which raises for the latter).
                fallback.extend(members)
                continue
            batch = self._stacked(
                [[availables[s][idx] for idx in fused.use] for s in members]
            )
            with record_codec("decode", len(erased_key) * batch[0].nbytes):
                recovered = fused.plan.apply(batch)
            for s, chunks in zip(members, self._unstacked(recovered, len(members))):
                results[s] = dict(zip(erased_key, chunks))
        for s in fallback:
            results[s] = self.decode(availables[s], list(eraseds[s]))
        return results  # type: ignore[return-value]

    def decode(
        self, available: Dict[int, np.ndarray], erased: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Recover erased chunks from any sufficient set of available ones.

        Args:
            available: map chunk-index -> chunk bytes.
            erased: indices to reconstruct.

        Returns:
            map erased-index -> recovered chunk.

        Raises:
            DecodeError: if the available chunks are insufficient.
        """
        erased = list(erased)
        if not erased:
            return {}
        if len(available) < self.k:
            raise DecodeError(
                f"need {self.k} chunks to decode, only {len(available)} available"
            )
        fused = self._recovery(available, erased)
        rows = [self.field.symbols(available[i]) for i in fused.use]
        with record_codec("decode", len(erased) * rows[0].nbytes):
            recovered = self.field.chunks(fused.plan.apply(rows))
        return {idx: recovered[j] for j, idx in enumerate(erased)}

    def _recovery(
        self, available: Dict[int, np.ndarray], erased: Sequence[int]
    ) -> FusedDecode:
        """The fused recovery transform for this failure pattern, cached
        in the per-code pattern LRU — the one such routine for every code.

        Composes ``generator[erased] @ inv`` once in the symbol domain —
        an (e, k) by (k, k) product over single field elements — so the
        chunk-domain work per decode is one (e, k) product instead of a
        (k, k) data-recovery matmul chained into an (e, k) re-encode.
        """
        rows = tuple(sorted(available))
        key = (rows, tuple(erased))
        fused = self._pattern_cache.get(key)
        if fused is None:
            inv, use = self._invert_survivors(rows)
            recovery = self.field.matmul_reference(
                self.generator[list(erased), :], inv
            )
            fused = FusedDecode(MulPlan(recovery), tuple(use))
            self._pattern_cache.put(key, fused)
        return fused

    def _invert_survivors(self, rows: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
        """``(inverse, use)``: k of the surviving chunk indices ``rows``
        (ascending) whose generator rows are independent, and the inverse
        of those rows. Which independent rows are used does not show in
        the output: the chunks they recover are unique.

        Raises:
            DecodeError: if the survivors do not span the data.
        """
        # The survivors in order, each one that adds rank (for an MDS code
        # the first k; for an LRC-family code maybe not): the pivot columns
        # of one Gauss-Jordan over their generator rows taken as columns.
        # Carried along, the identity becomes the inverse of those rows.
        k = self.k
        aug = np.concatenate(
            [self.generator[list(rows), :].T, np.eye(k, dtype=self.field.dtype)], axis=1
        )
        if self.field._reduce(aug, len(rows)) < k:
            raise DecodeError(
                f"chunks {list(rows)} of {self!r} do not span the data: unrecoverable"
            )
        use = [rows[int(np.flatnonzero(aug[i])[0])] for i in range(k)]
        return np.ascontiguousarray(aug[:, len(rows):].T), use

    def decode_stripe(self, stripe: Stripe) -> Stripe:
        """Fill in every erased chunk of a stripe, returning a full copy."""
        available = {i: c for i, c in enumerate(stripe.chunks) if c is not None}
        recovered = self.decode(available, stripe.erased_indices())
        chunks = [
            stripe.chunks[i] if stripe.chunks[i] is not None else recovered[i]
            for i in range(stripe.n)
        ]
        return Stripe(stripe.k, stripe.n, chunks)

    # -- verification ------------------------------------------------------
    def decodable(self, slots: Iterable[int]) -> bool:
        """Do the generator rows of ``slots`` span the data? Any k rows of
        an MDS code do, so counting answers; a non-MDS code asks :meth:`spans`."""
        return len(set(slots)) >= self.k

    def spans(self, slots: Iterable[int]) -> bool:
        """The rank answer: the survivor selection the decoder itself
        uses (:meth:`_invert_survivors`) finds k independent rows."""
        rows = sorted(set(slots))
        if len(rows) < self.k:
            return False
        try:
            self._invert_survivors(rows)
        except DecodeError:
            return False
        return True

    def is_mds(self) -> bool:
        """The MDS property: every k generator rows span the data, i.e.
        every pattern of exactly r erasures is decodable."""
        from itertools import combinations

        return all(self.spans(rows) for rows in combinations(range(self.n), self.k))

    def storage_overhead(self) -> float:
        """Ratio of raw bytes stored to logical bytes (n / k)."""
        return self.n / self.k

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.k},{self.n})"


class LocalGroupCode(ErasureCode):
    """What LRC and LRCC share: ``k`` data chunks in ``l`` local groups
    with one local parity each, then ``r_global`` global parities, and a
    decode that repairs inside a group before it reads the stripe.

    Subclasses supply the generator; a group's one equation is read off
    its local-parity row, so the repair does not care whether that row is
    all ones (LRC: XOR) or a point-0 CC parity (LRCC).
    """

    def __init__(self, k: int, l: int, r_global: int):
        if l < 1 or k % l != 0:
            raise ValueError(f"k={k} must be divisible by l={l}")
        if r_global < 0:
            raise ValueError("r_global must be >= 0")
        super().__init__(k, k + l + r_global)
        self.l = l
        self.r_global = r_global
        self.group_size = k // l

    # -- indices -------------------------------------------------------------
    def group_of(self, index: int) -> int:
        """Local group of a data or local-parity chunk index."""
        if index < self.k:
            return index // self.group_size
        if index < self.k + self.l:
            return index - self.k
        raise ValueError(f"chunk {index} is a global parity; it has no group")

    def group_members(self, group: int) -> List[int]:
        """Data chunk indices of a group plus its local-parity index."""
        data = list(range(group * self.group_size, (group + 1) * self.group_size))
        return data + [self.k + group]

    def local_parity_index(self, group: int) -> int:
        return self.k + group

    def decodable(self, slots: Iterable[int]) -> bool:
        """By rank: k slots may not span the data, nor n - k lost break it."""
        return self.spans(slots)

    # -- repair ---------------------------------------------------------------
    def local_repair(
        self, failed: int, available: Dict[int, np.ndarray]
    ) -> np.ndarray:
        """Repair one failed group member from the rest of its group.

        Reads exactly ``k/l`` chunks (group peers + local parity) and
        solves the group's single-unknown equation
        ``local_parity = sum_u c_u * d_u``.

        Raises:
            DecodeError: if any other group member is also unavailable.
        """
        group = self.group_of(failed)
        parity_idx = self.local_parity_index(group)
        peers = [m for m in self.group_members(group) if m != failed]
        missing = [m for m in peers if m not in available]
        if missing:
            raise DecodeError(
                f"local repair of {failed} needs group chunks {missing}"
            )
        coeffs = self.generator[parity_idx]
        acc = np.zeros_like(np.asarray(available[peers[0]], dtype=np.uint8))
        for m in peers:
            gf_scale_xor(
                acc,
                1 if m == parity_idx else coeffs[m],
                np.asarray(available[m], dtype=np.uint8),
            )
        if failed == parity_idx:
            return acc
        return gf_scale(self.field.inv(int(coeffs[failed])), acc)

    def decode(
        self, available: Dict[int, np.ndarray], erased: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Recover erased chunks, preferring local repair.

        Single in-group failures use local repair; what is left goes, with
        the repaired chunks as further survivors, to the generic decode
        over the available rows (these codes are not MDS — some patterns
        beyond l + r failures, and some unlucky smaller ones, are
        unrecoverable and raise).
        """
        erased = list(erased)
        out: Dict[int, np.ndarray] = {}
        local = [
            idx
            for idx in erased
            if idx < self.k + self.l
            and all(
                m in available
                for m in self.group_members(self.group_of(idx))
                if m != idx
            )
        ]
        if local:
            chunk_len = len(next(iter(available.values())))
            with record_codec("decode", len(local) * chunk_len):
                for idx in local:
                    out[idx] = self.local_repair(idx, available)
        remaining = [idx for idx in erased if idx not in out]
        if remaining:
            out.update(super().decode({**available, **out}, remaining))
        return out
