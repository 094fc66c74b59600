"""StripeMerge baseline (Yao et al., ICDCS 2021) — related-work comparator.

StripeMerge supports exactly one transition: merging **two** narrow
stripes of a carefully designed k-of-n code into one 2k-of-n' stripe with
the *same* number of parities. Unlike Morph it is not file-oriented: it
searches the whole cluster for stripe pairs whose chunks happen to live on
disjoint servers, and pairs that conflict must move chunks first.

For the Fig 18 comparison we model it as:

* applicable only when ``k_F == 2 * k_I`` and ``r_F == r_I``;
* when applicable, parity merge reads the 2 r parities (like CC merge)
  plus moves an expected number (``CONFLICT_RATE``) of conflicting data chunks,
  since placement was not planned around the merge;
* anywhere else its cost is the RS/RRW cost (no support).
"""

from __future__ import annotations

#: expected fraction of data chunks relocated because the two merged
#: stripes overlapped on a server. The paper's placement-aware Morph needs
#: none; StripeMerge's cluster-wide pairing typically leaves a small
#: residue even with a good matching.
CONFLICT_RATE = 0.05


class StripeMergeModel:
    """Cost model for StripeMerge in chunk-equivalents per final stripe."""

    def supports(self, k_initial: int, r_initial: int, k_final: int, r_final: int) -> bool:
        return k_final == 2 * k_initial and r_final == r_initial

    def read_chunks(self, k_initial: int, r_initial: int, k_final: int, r_final: int) -> float:
        """Chunks read to produce one final stripe."""
        if not self.supports(k_initial, r_initial, k_final, r_final):
            # Falls back to read-re-encode-write over all data.
            return float(k_final)
        moved = CONFLICT_RATE * k_final
        return 2 * r_initial + moved

    def write_chunks(self, k_initial: int, r_initial: int, k_final: int, r_final: int) -> float:
        """Chunks written to produce one final stripe (parities + moves)."""
        if not self.supports(k_initial, r_initial, k_final, r_final):
            return float(k_final + r_final)
        moved = CONFLICT_RATE * k_final
        return r_final + moved
