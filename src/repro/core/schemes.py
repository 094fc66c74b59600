"""Redundancy scheme descriptors.

A *scheme* describes how a file's bytes are made redundant — replication,
erasure coding, or Morph's hybrid of both — independent of any particular
file. Schemes know their storage overhead (which is also their ingest
disk IO), fault tolerance and chunk footprint, and can instantiate the
matching codec from :mod:`repro.codes`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.codes.convertible import ConvertibleCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.rs import ReedSolomon


class CodeKind(enum.Enum):
    """Which erasure-code construction an ECScheme uses."""

    RS = "rs"
    CC = "cc"
    LRC = "lrc"
    LRCC = "lrcc"

    @property
    def convertible(self) -> bool:
        return self in (CodeKind.CC, CodeKind.LRCC)


class RedundancyScheme:
    """Common interface for replication, EC and hybrid schemes."""

    @property
    def storage_overhead(self) -> float:
        """Bytes at rest per logical byte — and disk bytes written per
        logical byte at ingest: a hybrid's temporary extra replicas leave
        the buffer cache before they reach disk in the common case
        (§4.2)."""
        raise NotImplementedError

    @property
    def fault_tolerance(self) -> int:
        """Number of arbitrary simultaneous chunk failures tolerated."""
        raise NotImplementedError

    @property
    def ec_part(self) -> Optional["ECScheme"]:
        """The EC scheme the stripes are coded with — an EC scheme is its
        own, a hybrid's is the one it embeds — or ``None`` (replication)."""
        return None


@dataclass(frozen=True)
class Replication(RedundancyScheme):
    """c-way replication (the classic 3-r when copies == 3)."""

    copies: int = 3

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("need at least one copy")

    @property
    def storage_overhead(self) -> float:
        return float(self.copies)

    @property
    def fault_tolerance(self) -> int:
        return self.copies - 1

    def __str__(self) -> str:
        return f"{self.copies}-r"


#: Every codec made so far, one per distinct :class:`ECScheme`: see
#: :meth:`ECScheme.make_code`.
_CODES: Dict["ECScheme", object] = {}


@dataclass(frozen=True)
class ECScheme(RedundancyScheme):
    """An erasure-coding scheme: kind + (k, n) [+ LRC group structure].

    For LRC/LRCC kinds, ``n = k + local_groups + r_global`` and both
    ``local_groups`` and ``r_global`` must be given.

    ``anticipate_parities`` (CC only) declares that a future transcode
    will *increase* the parity count to that value; stripes are then
    encoded with bandwidth-optimal vector codes (piggybacking) so the
    conversion reads only parities plus a fraction of each data chunk
    (paper Appendix A, case 2a / Fig 8). The stored footprint is
    unchanged — only the parity *contents* differ.
    """

    kind: CodeKind
    k: int
    n: int
    local_groups: Optional[int] = None
    r_global: Optional[int] = None
    anticipate_parities: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got k={self.k} n={self.n}")
        if self.kind in (CodeKind.LRC, CodeKind.LRCC):
            if self.local_groups is None or self.r_global is None:
                raise ValueError(f"{self.kind} needs local_groups and r_global")
            if self.k + self.local_groups + self.r_global != self.n:
                raise ValueError(
                    "LRC layout mismatch: n must equal k + local_groups + r_global"
                )
        if self.anticipate_parities is not None:
            if self.kind is not CodeKind.CC:
                raise ValueError("anticipate_parities requires a CC scheme")
            if self.anticipate_parities <= self.r:
                raise ValueError(
                    "anticipate_parities must exceed the current parity count"
                )

    @property
    def r(self) -> int:
        return self.n - self.k

    @property
    def storage_overhead(self) -> float:
        return self.n / self.k

    @property
    def fault_tolerance(self) -> int:
        if self.kind in (CodeKind.LRC, CodeKind.LRCC):
            # Guaranteed tolerance of an LRC: any single failure per group
            # plus globals is pattern-dependent; the *guaranteed* arbitrary
            # count is r_global + 1 (one local failure anywhere plus globals).
            return (self.r_global or 0) + 1
        return self.r

    @property
    def ec_part(self) -> "ECScheme":
        return self

    def at_width(self, k: int) -> "ECScheme":
        """The scheme a width-``k`` stripe of this scheme is coded with:
        this one at full width; a short tail stripe its own width with
        the same parity count, a CC family member (else RS)."""
        if k == self.k:
            return self
        kind = CodeKind.CC if self.kind is CodeKind.CC else CodeKind.RS
        return ECScheme(kind, k, k + self.r)

    def make_code(self):
        """The process's one codec implementing this scheme (a CC-family
        code in its parity count's default family: see
        :meth:`repro.codes.pointsearch.PointFamily.default_width`).

        Equal schemes share the object, so its encode plan and its
        failure-pattern LRU outlive any one filesystem, as the global
        plan LRU does; a codec holds nothing else that changes."""
        code = _CODES.get(self)
        if code is None:
            code = _CODES.setdefault(self, self._new_code())
        return code

    def _new_code(self):
        if self.kind is CodeKind.RS:
            return ReedSolomon(self.k, self.n)
        if self.kind is CodeKind.CC:
            if self.anticipate_parities is not None:
                from repro.codes.bandwidth import BandwidthOptimalCC

                return BandwidthOptimalCC(
                    self.k, self.r, self.anticipate_parities
                )
            return ConvertibleCode(self.k, self.n)
        if self.kind is CodeKind.LRC:
            return LocalReconstructionCode(self.k, self.local_groups, self.r_global)
        if self.kind is CodeKind.LRCC:
            return LocallyRecoverableConvertibleCode(
                self.k, self.local_groups, self.r_global
            )
        raise ValueError(f"unknown kind {self.kind}")

    def __str__(self) -> str:
        if self.kind in (CodeKind.LRC, CodeKind.LRCC):
            return f"{self.kind.value.upper()}({self.k},{self.local_groups},{self.r_global})"
        return f"{self.kind.value.upper()}({self.k},{self.n})"


@dataclass(frozen=True)
class HybridScheme(RedundancyScheme):
    """Morph's Hy(c, EC(k, n)): c replicas coexisting with an EC stripe.

    The EC data chunks hold the same bytes as the replicas, so any range
    can be served from a replica or from the stripe. Tolerates
    ``c + (n - k)`` arbitrary chunk failures (§4.4). Transcode to the
    embedded EC scheme is a metadata change plus replica deletion — zero
    IO (§4.5).
    """

    copies: int
    ec: ECScheme

    def __post_init__(self):
        if self.copies < 1:
            raise ValueError("hybrid needs at least one replica")

    @property
    def storage_overhead(self) -> float:
        return self.copies + self.ec.storage_overhead

    @property
    def fault_tolerance(self) -> int:
        return self.copies + (self.ec.n - self.ec.k)

    @property
    def ec_part(self) -> ECScheme:
        return self.ec

    def __str__(self) -> str:
        return f"Hy({self.copies},{self.ec})"


def degraded_read_probability(f: float, k: int, n: int, copies: int = 1) -> float:
    """Probability a client read of a Hy(copies, EC(k, n)) file is degraded.

    Appendix B: a degraded-mode stripe read happens only when every
    replica of the range is unavailable *and* the covering data chunk of
    the stripe is unavailable (the client then decodes from the rest of
    the stripe). The dominant term, with per-chunk unavailability ``f``:

        P = f**copies * f * (1 - f)**(n - 2)

    For Hy(1, CC(6, 9)) at f = 0.01 this is ~9e-5 — the paper's
    "tail-of-the-tail" 0.00009.
    """
    if not 0 <= f <= 1:
        raise ValueError("f must be a probability")
    return (f ** copies) * f * (1.0 - f) ** (n - 2)
