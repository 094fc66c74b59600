"""Access-optimal Convertible Codes (CC), over either field.

A CC *family* is fixed by ``r`` verified evaluation points in a field (see
:mod:`repro.codes.pointsearch`; GF(2^8) here, GF(2^16) for the wide codes
of :mod:`repro.codes.wide`, which differ from this class in nothing but
their family). A member code of width ``k`` has parity
``p_j = sum_t d_t * alpha_j**t`` — i.e. a polynomial evaluation where the
coefficient of a data symbol depends only on its *position*. Shifting a
block of symbols by ``o`` positions multiplies its contribution to parity
``j`` by ``alpha_j**o``, which is the algebraic fact every conversion
below exploits:

* **Merge** (``k_F = lam * k_I``): final parity j is
  ``sum_i alpha_j**(i*k_I) * p_j^(i)`` — computed from *parities only*
  (paper Fig 7: 6 parity reads instead of 12 data reads).
* **Split** (``k_I = lam * k_F``): the first ``lam - 1`` final stripes are
  re-encoded from their (read) data; the last one's parities are derived
  by subtracting those contributions from the initial parities
  (paper Fig 16: 10 reads instead of 12).
* **General** (any ``k_I -> k_F`` with the same points): initial stripes
  fully contained in a final stripe contribute via their parities;
  straddling stripes are read; one fully-contained final stripe per
  initial stripe is derived by subtraction (paper: EC(6,9)->EC(15,18)
  reads 40% less).

Every regime is written once for both fields: :func:`convert`
accumulates in the final code's symbols. Conversions that *increase* the
parity count need vector codes — see
:class:`repro.codes.bandwidth.BandwidthOptimalCC`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, Stripe
from repro.codes.pointsearch import FAMILY, PointFamily
from repro.gf.field import GaloisField
from repro.gf.kernels import gf_scale_xor


class ConvertibleCode(ErasureCode):
    """CC(k, n): RS-equivalent fault tolerance, IO-efficient transcode.

    Codes of one family with the same ``r`` share evaluation points and
    are mutually convertible; so are codes whose points share a prefix.
    """

    #: where the points come from; its field is the code's
    family: PointFamily = FAMILY

    def __init__(self, k: int, n: int, family_width: Optional[int] = None):
        super().__init__(k, n)
        if family_width is None:
            family_width = self.family.default_width(self.r, k)
        self.family_width = max(k, family_width)
        self.points = self.family.points(self.r, self.family_width)
        field = self.field
        self._generator = np.concatenate(
            [np.eye(k, dtype=field.dtype), field.vandermonde(self.points, k).T]
        )

    @property
    def field(self) -> GaloisField:
        return self.family.field

    @property
    def generator(self) -> np.ndarray:
        return self._generator

    def shift_coefficient(self, j: int, offset: int) -> int:
        """Coefficient scaling parity j of a block shifted by ``offset``."""
        return self.field.pow(self.points[j], offset)

    def compatible_with(self, other: "ConvertibleCode") -> bool:
        """True if ``other`` is over this code's field and shares its
        evaluation-point prefix."""
        shared = min(self.r, other.r)
        return (
            self.field is other.field
            and self.points[:shared] == other.points[:shared]
        )


@dataclass
class ConversionIO:
    """Byte-granularity IO performed by a conversion."""

    data_chunks_read: int = 0
    parity_chunks_read: int = 0
    parity_chunks_written: int = 0
    data_chunks_moved: int = 0
    #: fraction of each counted data-chunk read actually transferred
    #: (1.0 for scalar codes; (r_F-r_I)/r_F for vector-code conversions).
    data_read_fraction: float = 1.0

    @property
    def chunks_read(self) -> float:
        return self.data_chunks_read * self.data_read_fraction + self.parity_chunks_read

    def read_bytes(self, chunk_size: int) -> float:
        return self.chunks_read * chunk_size

    def write_bytes(self, chunk_size: int) -> float:
        return (self.parity_chunks_written + self.data_chunks_moved) * chunk_size


@dataclass
class ConversionPlan:
    """Which chunks a conversion must touch, before any byte moves.

    ``data_reads`` holds *global* data-chunk indices (position in the file
    region being converted); ``parity_reads`` is the table of old
    parities a final parity combines: ``(stripe, j) -> (final stripe,
    j)``. ``derived_finals`` maps a final-stripe index to the initial
    stripe whose parities will be used to derive it by subtraction.
    """

    k_initial: int
    r_initial: int
    k_final: int
    r_final: int
    n_initial_stripes: int
    n_final_stripes: int
    data_reads: Set[int] = field(default_factory=set)
    parity_reads: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    derived_finals: Dict[int, int] = field(default_factory=dict)

    def io(self) -> ConversionIO:
        return ConversionIO(
            data_chunks_read=len(self.data_reads),
            parity_chunks_read=len(self.parity_reads),
            parity_chunks_written=self.n_final_stripes * self.r_final,
        )


def plan_conversion(
    initial: ConvertibleCode, final: ConvertibleCode, n_stripes: int
) -> ConversionPlan:
    """Plan an access-optimal conversion of ``n_stripes`` initial stripes.

    Requires ``final.r <= initial.r`` (otherwise vector codes are needed)
    and total data divisible by the final width.
    """
    if final.r > initial.r:
        raise ValueError(
            "access-optimal CC cannot add parities; use BandwidthOptimalCC"
        )
    if not initial.compatible_with(final):
        raise ValueError("codes are from different CC families")
    k_i, k_f = initial.k, final.k
    total = n_stripes * k_i
    if total % k_f != 0:
        raise ValueError(
            f"{n_stripes} stripes of width {k_i} do not tile stripes of width {k_f}"
        )
    plan = ConversionPlan(
        k_initial=k_i,
        r_initial=initial.r,
        k_final=k_f,
        r_final=final.r,
        n_initial_stripes=n_stripes,
        n_final_stripes=total // k_f,
    )
    for i in range(n_stripes):
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        # Case (a): initial stripe contained in one final stripe. Using
        # its parities costs r_F reads; reading its data costs k_I — take
        # the cheaper (parities win except for very narrow stripes).
        if i_lo // k_f == (i_hi - 1) // k_f:
            if final.r < k_i:
                for j in range(final.r):
                    plan.parity_reads[(i, j)] = (i_lo // k_f, j)
            else:
                plan.data_reads.update(range(i_lo, i_hi))
            continue
        # Finals fully contained in this initial stripe are candidates for
        # derivation-by-subtraction; at most one can be derived, and only
        # when skipping its k_F data reads beats the r_F parity reads.
        contained = [
            m
            for m in range(i_lo // k_f, (i_hi - 1) // k_f + 1)
            if i_lo <= m * k_f and (m + 1) * k_f <= i_hi
        ]
        derived: Optional[int] = (
            contained[-1] if contained and final.r < k_f else None
        )
        if derived is not None:
            plan.derived_finals[derived] = i
            for j in range(final.r):
                plan.parity_reads[(i, j)] = (derived, j)
        for t in range(i_lo, i_hi):
            if derived is not None and derived * k_f <= t < (derived + 1) * k_f:
                continue
            plan.data_reads.add(t)
    return plan


def convert(
    initial: ConvertibleCode,
    final: ConvertibleCode,
    stripes: Sequence[Stripe],
    plan: Optional[ConversionPlan] = None,
) -> Tuple[List[Stripe], ConversionIO]:
    """Execute an access-optimal conversion, touching only planned chunks.

    Returns the final stripes (byte-identical to re-encoding from scratch
    with ``final``) and the IO actually performed. Chunks the plan does
    not read are never accessed — erase them first to prove it. The
    arithmetic is over ``final.field``'s symbols: a chunk that does not
    hold whole symbols is a ``ValueError``.
    """
    if plan is None:
        plan = plan_conversion(initial, final, len(stripes))
    k_i, k_f, r_f = initial.k, final.k, final.r
    field = final.field

    def data_chunk(t: int) -> np.ndarray:
        chunk = stripes[t // k_i].chunks[t % k_i]
        if chunk is None:
            raise DecodeError(f"plan requires data chunk {t} but it is erased")
        return field.symbols(chunk)

    def parity_chunk(i: int, j: int) -> np.ndarray:
        chunk = stripes[i].chunks[k_i + j]
        if chunk is None:
            raise DecodeError(f"plan requires parity ({i},{j}) but it is erased")
        return field.symbols(chunk)

    io = ConversionIO(
        data_chunks_read=len(plan.data_reads),
        parity_chunks_read=len(plan.parity_reads),
        parity_chunks_written=plan.n_final_stripes * r_f,
    )

    # Accumulate each final parity, in final.field's symbols (``sums``);
    # derived finals are filled by subtraction.
    shape = (plan.n_final_stripes, r_f, stripes[0].chunk_size())
    parities = np.zeros(shape, dtype=np.uint8)
    sums = field.symbols(parities)
    derived_from = {i: m for m, i in plan.derived_finals.items()}
    for (i, j), (m, _j) in plan.parity_reads.items():
        if derived_from.get(i) != m:
            # A whole stripe contributes via its parities, shifted into place.
            coeff = final.shift_coefficient(j, i * k_i - m * k_f)
            gf_scale_xor(sums[m, j], coeff, parity_chunk(i, j))
    for i in range(plan.n_initial_stripes):
        derived = derived_from.get(i)
        if derived is None and (i, 0) in plan.parity_reads:
            continue
        # The stripe's data is read: a narrow or straddling stripe.
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        for t in range(i_lo, i_hi):
            m = t // k_f
            if m == derived:
                continue
            local = t - m * k_f
            chunk = data_chunk(t)
            for j in range(r_f):
                coeff = final.shift_coefficient(j, local)
                gf_scale_xor(sums[m, j], coeff, chunk)
        if derived is not None:
            # initial parity = sum over the stripe's span with *initial-local*
            # exponents; re-expressed per final stripe that gives, for each j:
            #   p_init_j = sum_R alpha_j**(R_start - i_lo) * contrib_R
            # where contrib_R is region R's final-local parity contribution.
            # Every region except the derived final is known from data reads.
            for j in range(r_f):
                acc = parity_chunk(i, j).copy()
                for t in range(i_lo, i_hi):
                    m = t // k_f
                    if m == derived:
                        continue
                    coeff = final.shift_coefficient(j, t - i_lo)
                    gf_scale_xor(acc, coeff, data_chunk(t))
                # acc == alpha_j**(derived_start - i_lo) * missing contribution
                inv = final.shift_coefficient(j, i_lo - derived * k_f)
                gf_scale_xor(sums[derived, j], inv, acc)

    out: List[Stripe] = []
    for m in range(plan.n_final_stripes):
        chunks: List[Optional[np.ndarray]] = []
        for t in range(m * k_f, (m + 1) * k_f):
            chunks.append(stripes[t // k_i].chunks[t % k_i])
        chunks.extend(parities[m, j] for j in range(r_f))
        out.append(Stripe(k_f, final.n, chunks))
    return out, io
