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

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codes.base import DecodeError, ErasureCode, Stripe
from repro.codes.pointsearch import FAMILY, PointFamily
from repro.gf.field import GaloisField
from repro.gf.kernels import gf_scale_xor

if TYPE_CHECKING:
    from repro.core.schemes import ECScheme


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
    #: fraction of each counted data-chunk read actually transferred
    #: (1.0 for scalar codes; (r_F-r_I)/r_F for vector-code conversions).
    data_read_fraction: float = 1.0

    @property
    def chunks_read(self) -> float:
        return self.data_chunks_read * self.data_read_fraction + self.parity_chunks_read

    def read_bytes(self, chunk_size: int) -> float:
        return self.chunks_read * chunk_size

    def write_bytes(self, chunk_size: int) -> float:
        return self.parity_chunks_written * chunk_size


class ConversionPath(enum.Enum):
    """The native conversions (§5): which one a plan runs."""

    #: CC -> CC without parity growth: merge, split or general regime
    ACCESS_OPTIMAL = "access-optimal"
    #: a BWO-coded CC merge that adds the parities it anticipated
    BANDWIDTH_OPTIMAL = "bandwidth-optimal"
    #: CC stripes merged into one LRCC stripe
    CC_TO_LRCC = "cc-to-lrcc"
    #: LRCC stripes merged into one wider LRCC stripe
    LRCC_MERGE = "lrcc-merge"


@dataclass
class ConversionPlan:
    """One native conversion of a group of stripes, decided before any
    byte moves: which path runs, what it reads and what it writes.

    ``initial`` is the scheme the group's ``n_initial_stripes`` stripes
    are coded with (a short tail run's own width); ``final`` the scheme of
    each of the ``n_final_stripes`` it produces (a short tail group's one
    final stripe keeps the group's width). ``data_reads`` holds *global*
    data-chunk indices (position in the group); ``parity_reads`` is the
    table of old parities a final parity combines: ``(stripe, j) ->
    (final stripe, j')``. ``derived_finals`` maps a final-stripe index to
    the initial stripe whose parities will be used to derive it by
    subtraction. ``width`` counts the chunks each final parity's node
    combines (its CPU charge); ``data_read_fraction`` the share of each
    data read transferred (a BWO merge reads only the tail substripes).
    """

    path: ConversionPath
    initial: "ECScheme"
    final: "ECScheme"
    n_initial_stripes: int
    n_final_stripes: int
    width: int = 0
    data_reads: Set[int] = field(default_factory=set)
    parity_reads: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    derived_finals: Dict[int, int] = field(default_factory=dict, init=False)
    data_read_fraction: float = 1.0

    def io(self) -> ConversionIO:
        """The IO the conversion performs: what its executor returns."""
        return ConversionIO(
            data_chunks_read=len(self.data_reads),
            parity_chunks_read=len(self.parity_reads),
            parity_chunks_written=self.n_final_stripes * self.final.r,
            data_read_fraction=self.data_read_fraction,
        )

    def check(
        self,
        path: ConversionPath,
        initial: ErasureCode,
        final: ErasureCode,
        stripes: Sequence[Stripe],
    ) -> None:
        """``ValueError`` unless this plan runs ``path`` on ``stripes``
        coded with ``initial`` into stripes of ``final``: what an executor
        asks before it touches a byte."""
        planned = (self.path, self.n_initial_stripes, self.initial.k, self.initial.n,
                   self.final.k, self.final.n)
        given = (path, len(stripes), initial.k, initial.n, final.k, final.n)
        if planned != given:
            raise ValueError(
                f"a {self.path.value} plan of {self.n_initial_stripes} x {self.initial}"
                f" -> {self.final} cannot run {path.value} on {len(stripes)} x"
                f" {initial!r} -> {final!r}"
            )

    def read_from(self, chunk_size: int) -> int:
        """First byte of each planned data read: a BWO merge reads only
        the last ``r_F - r_I`` of a chunk's ``r_F`` substripes, one
        contiguous range (hop-and-couple)."""
        if self.path is ConversionPath.BANDWIDTH_OPTIMAL:
            return self.initial.r * (chunk_size // self.final.r)
        return 0


def _one_family(r_a: int, r_b: int) -> bool:
    """Do codes of :data:`FAMILY` with ``r_a`` and ``r_b`` points share
    their first ``min(r_a, r_b)``? The curated chain nests for r >= 2;
    r = 1 stands apart. An r past the chain has no points to compare."""
    a, b = FAMILY.exponents.get(r_a), FAMILY.exponents.get(r_b)
    shared = min(r_a, r_b)
    return a is None or b is None or a[:shared] == b[:shared]


def plan_conversion(
    initial: "ECScheme", n_stripes: int, final: "ECScheme"
) -> Optional[ConversionPlan]:
    """The one decision of a native conversion: ``n_stripes`` stripes
    coded with ``initial`` into stripes of ``final`` — which path, what
    it reads, what it costs — or ``None`` where no native path exists.

    Integer arithmetic over the schemes only: no codec is built. The
    paths and their preconditions (each code from :data:`FAMILY`):

    * **access-optimal** — CC -> CC with ``r_F <= r_I``; a group whose
      data does not tile ``final.k`` (a short tail) becomes one final
      stripe of its own width;
    * **bandwidth-optimal** — stripes coded anticipating ``r_F``
      parities, merged (``k_F = lam * k_I``) into a CC with ``r_F``;
    * **CC -> LRCC** — ``k_F = lam * k_I``, each group an integral number
      of initial stripes, ``r_global <= r_I - 1``;
    * **LRCC -> LRCC** — ``k_F = lam * k_I``, final groups integral
      numbers of initial groups, ``r_global`` not growing.
    """
    from repro.core.schemes import CodeKind

    if final.kind is CodeKind.LRCC:
        return _plan_lrcc(initial, n_stripes, final)
    if (
        initial.kind is not CodeKind.CC
        or final.kind is not CodeKind.CC
        or final.anticipate_parities is not None
    ):
        return None
    if initial.anticipate_parities is not None:
        if initial.anticipate_parities != final.r or final.k != n_stripes * initial.k:
            return None
        r_i, r_f = initial.r, final.r
        return ConversionPlan(
            ConversionPath.BANDWIDTH_OPTIMAL, initial, final, n_stripes, 1,
            width=n_stripes * r_i + final.k,
            data_reads=set(range(final.k)),
            parity_reads={(i, j): (0, j) for i in range(n_stripes) for j in range(r_i)},
            data_read_fraction=(r_f - r_i) / r_f,
        )
    if final.r > initial.r or not _one_family(initial.r, final.r):
        return None
    k_i, total = initial.k, n_stripes * initial.k
    if total % final.k:
        final = replace(final, k=total, n=total + final.r)
    k_f, r_f = final.k, final.r
    plan = ConversionPlan(
        ConversionPath.ACCESS_OPTIMAL, initial, final, n_stripes, total // k_f
    )
    for i in range(n_stripes):
        i_lo, i_hi = i * k_i, (i + 1) * k_i
        # Case (a): initial stripe contained in one final stripe. Using
        # its parities costs r_F reads; reading its data costs k_I — take
        # the cheaper (parities win except for very narrow stripes).
        if i_lo // k_f == (i_hi - 1) // k_f:
            if r_f < k_i:
                for j in range(r_f):
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
        derived: Optional[int] = contained[-1] if contained and r_f < k_f else None
        if derived is not None:
            plan.derived_finals[derived] = i
            for j in range(r_f):
                plan.parity_reads[(i, j)] = (derived, j)
        for t in range(i_lo, i_hi):
            if derived is not None and derived * k_f <= t < (derived + 1) * k_f:
                continue
            plan.data_reads.add(t)
    # Each parity node combines one old parity per stripe plus the data
    # chunks the plan reads.
    plan.width = n_stripes + len(plan.data_reads)
    return plan


def _plan_lrcc(
    initial: "ECScheme", n_stripes: int, final: "ECScheme"
) -> Optional[ConversionPlan]:
    """A merge into one LRCC stripe, reading parities only. A final
    local merges the first parities (a CC source: "the first parity of
    each initial stripe remains unchanged and is used as the
    corresponding local parity") or the locals (an LRCC source) of the
    groups it covers; final global ``j`` merges every stripe's parity
    ``j + 1`` (CC) or global ``j`` (LRCC)."""
    from repro.core.schemes import CodeKind

    if initial.kind is CodeKind.LRCC:
        path, locals_per_stripe = ConversionPath.LRCC_MERGE, initial.local_groups
        globals_, points = initial.r_global, initial.r_global + 1
    elif initial.kind is CodeKind.CC and initial.anticipate_parities is None:
        path, locals_per_stripe = ConversionPath.CC_TO_LRCC, 1
        globals_, points = initial.r - 1, initial.r
    else:
        return None
    span = initial.k // locals_per_stripe
    group = final.k // final.local_groups
    if (
        final.k != n_stripes * initial.k
        or final.k % final.local_groups
        or group % span
        or final.r_global > globals_
        or not _one_family(points, final.r_global + 1)
    ):
        return None
    reads: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for i in range(n_stripes):
        for g in range(locals_per_stripe):
            reads[(i, g)] = (0, (i * initial.k + g * span) // group)
        for j in range(final.r_global):
            reads[(i, locals_per_stripe + j)] = (0, final.local_groups + j)
    return ConversionPlan(path, initial, final, n_stripes, 1, n_stripes, parity_reads=reads)


def convert(
    initial: ErasureCode,
    final: ConvertibleCode,
    stripes: Sequence[Stripe],
    plan: ConversionPlan,
) -> Tuple[List[Stripe], ConversionIO]:
    """Execute an access-optimal CC -> CC conversion (merge, split or
    general regime), touching only the chunks ``plan`` names.

    Returns the final stripes (byte-identical to re-encoding from scratch
    with ``final``) and the plan's IO. Chunks the plan does not read are
    never accessed — erase them first to prove it. The arithmetic is over
    ``final.field``'s symbols: a chunk that does not hold whole symbols
    is a ``ValueError``, as are codes of different families.
    """
    plan.check(ConversionPath.ACCESS_OPTIMAL, initial, final, stripes)
    if not initial.compatible_with(final):
        raise ValueError("codes are from different CC families")
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
    return out, plan.io()
