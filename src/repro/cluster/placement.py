"""Block placement policies (paper §5.3, §6.1).

Placement is where Convertible Codes meet the physical cluster:

* **Data separation.** New stripes form over *sequential* data chunks, so
  chunks that may later share a (wider) stripe must never share a server.
  Morph computes ``k*`` — the LCM of every potential future stripe width —
  and places each window of ``k*`` consecutive chunks on distinct nodes.
* **Parity co-location.** When ``r`` stays constant, each merged parity is
  a function of exactly the parities it replaces, so parity ``j`` of all
  stripes in a merge group is placed on one node: the merge is then a
  server-local read-combine-write with **zero network IO**.
* **Hybrid no-overlap.** Replica blocks of a hybrid file exclude the EC
  chunk locations (and vice versa), preserving the failure independence
  that gives Hy(c, EC(k,n)) its c + (n-k) tolerance.

After ingest every chunk that needs a node — a merged parity, a rebuilt
chunk, a relocated data chunk, a sealed parity — gets it from
:func:`home_for`, with one idea of occupied: the chunks of the stripe
being formed or repaired plus the homes already chosen for it.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Cluster


class PlacementError(Exception):
    """Raised when the cluster cannot satisfy a placement constraint."""


def home_for(
    nodes: Iterable[str],
    usable: Callable[[str], bool],
    occupied: Collection[str],
    held: Sequence[str] = (),
    prefer: Iterable[str] = (),
) -> str:
    """The node for a chunk placed after ingest, among ``nodes`` (every
    node, in cluster order) that are ``usable`` (the namenode can command
    them).

    The first of ``prefer`` — where its sources sit, or the slot its
    k*-window reserves — that is usable and not ``occupied``; else a
    fresh node: usable, not occupied, holding none of the file's chunks
    (``held``: their nodes), else the one holding fewest, ties in
    cluster order. Only when every usable node is occupied is one
    reused: the first. Usability is asked only of the nodes considered."""
    for node_id in prefer:
        if node_id not in occupied and usable(node_id):
            return node_id
    # The rule is the ``min`` below. While a usable node holds none of the
    # file, the first such is its answer, found here by set lookup:
    # counting for every target takes a 48 KiB file's repair 10 us where
    # this takes 5, and read smallfile_lifetime's repair_mb_s -4.2 % and
    # scrub_mb_s -3.7 % (0 of 6 pairs).
    taken = set(held)
    taken.update(occupied)
    for node_id in nodes:
        if node_id not in taken and usable(node_id):
            return node_id
    live = [node_id for node_id in nodes if usable(node_id)]
    eligible = [node_id for node_id in live if node_id not in occupied]
    if eligible:
        return min(eligible, key=Counter(held).__getitem__)
    if not live:
        raise PlacementError("no usable node to place a chunk on")
    return live[0]


class PlacementPolicy:
    """Base: rack-spread random placement with exclusions and distinctness.

    Chunks of one stripe should survive a rack failure, so selection
    round-robins across racks (each rack's candidates in random order)
    before taking the first ``count`` — stripes of n <= #racks chunks land
    on n distinct racks, wider stripes spread as evenly as possible.
    """

    def __init__(self, cluster: Cluster, seed: int = 0):
        self.cluster = cluster
        self.seed = seed
        #: node class preferred for new placements (``None`` = no
        #: preference). Heterogeneous clusters set this per file from the
        #: lifecycle tier mapping: hot files land on the fast tier, cold
        #: ones on the dense tier. A preference never *fails* a
        #: placement — when the preferred class can't supply ``count``
        #: nodes the remainder comes from the rest of the cluster.
        self.prefer_class: Optional[str] = None

    @cached_property
    def rng(self) -> np.random.Generator:
        """Made on the first draw: most policies (a seal, a merge, a repair) draw none."""
        return np.random.default_rng(self.seed)

    def reserved(self, file_id: str, chunk_index: int, parity_j: int) -> List[str]:
        """The nodes the policy keeps for parity ``j`` of the stripe holding
        ``chunk_index``, best first, if it keeps any (by default: none)."""
        return []

    def pick_nodes(
        self,
        count: int,
        exclude: Optional[Sequence[str]] = None,
        spread_racks: bool = True,
        prefer_class: Optional[str] = None,
    ) -> List[str]:
        """Pick ``count`` distinct live nodes, avoiding ``exclude``."""
        excluded = set(exclude or [])
        pool = [n for n in self.cluster.alive_nodes() if n.node_id not in excluded]
        if len(pool) < count:
            raise PlacementError(
                f"need {count} nodes, only {len(pool)} available after exclusions"
            )
        prefer = prefer_class if prefer_class is not None else self.prefer_class
        if not spread_racks:
            idx = self.rng.choice(len(pool), size=count, replace=False)
            picked_nodes = [pool[int(i)] for i in idx]
            if prefer:
                # Stable reorder: preferred-class picks first. The rng
                # draw is identical with or without a preference, so a
                # homogeneous cluster is unaffected.
                picked_nodes.sort(key=lambda n: n.node_class != prefer)
            return [n.node_id for n in picked_nodes]
        by_rack: dict = {}
        klass = {n.node_id: n.node_class for n in pool}
        for node in pool:
            by_rack.setdefault(node.rack, []).append(node.node_id)
        racks = list(by_rack)
        self.rng.shuffle(racks)
        for rack in racks:
            self.rng.shuffle(by_rack[rack])
            if prefer:
                # Within each rack, preferred-class nodes rank first; the
                # cross-rack round-robin below then consumes the fast
                # tier of every rack before touching the rest. Stable
                # sort keeps the shuffled order within each class.
                by_rack[rack].sort(key=lambda nid: klass[nid] != prefer)
        picked: List[str] = []
        level = 0
        while len(picked) < count:
            progressed = False
            for rack in racks:
                nodes = by_rack[rack]
                if level < len(nodes):
                    picked.append(nodes[level])
                    progressed = True
                    if len(picked) == count:
                        break
            if not progressed:
                break
            level += 1
        return picked[:count]


class DefaultPlacement(PlacementPolicy):
    """HDFS-style placement: distinct nodes per stripe, nothing planned.

    Each stripe independently lands on random distinct nodes, so a later
    merge of two stripes usually finds overlapping servers and must move
    chunks (exactly the overhead Morph's policy designs away).
    """

    def place_stripe(self, k: int, r: int) -> Dict[str, List[str]]:
        nodes = self.pick_nodes(k + r)
        return {"data": nodes[:k], "parity": nodes[k:]}

    def place_replicas(self, copies: int, exclude: Optional[Sequence[str]] = None) -> List[str]:
        return self.pick_nodes(copies, exclude=exclude)


class TranscodeAwarePlacement(PlacementPolicy):
    """Morph's policy: k*-window data separation + parity co-location.

    Per file, window ``w`` of ``k_star`` sequential data chunks is bound
    to ``k_star`` distinct nodes; ``r_star`` additional nodes are reserved
    for parities (parity ``j`` of every stripe in the window lands on
    reserved node ``j``). This guarantees (1) every current *and* future
    stripe within the window has all chunks on distinct servers, (2) data
    and parity never overlap, (3) merge-partner parities are co-located.
    """

    def __init__(self, cluster: Cluster, k_star: int, r_star: int, seed: int = 0):
        super().__init__(cluster, seed)
        if k_star < 1 or r_star < 0:
            raise ValueError("k_star must be >= 1 and r_star >= 0")
        if k_star + r_star > len(cluster):
            raise PlacementError(
                f"k*+r* = {k_star + r_star} exceeds cluster size {len(cluster)}"
            )
        self.k_star = k_star
        self.r_star = r_star
        # (file_id, window) -> {"data": [...k_star], "parity": [...r_star]}
        self._windows: Dict[tuple, Dict[str, List[str]]] = {}
        # (file_id, window) -> the window's k_star + r_star slots, a node
        # where a chunk of the file already sits (see ``adopt``), else None
        self._listed: Dict[tuple, List[Optional[str]]] = {}
        # (file_id, window, j) -> the window's listed parity-j homes, in order
        self._peers: Dict[tuple, List[str]] = {}

    def adopt(
        self,
        file_id: str,
        stripes: Iterable[Tuple[int, Sequence[str], Sequence[str]]],
    ) -> None:
        """Bind the windows of a file that is already placed to where its
        chunks are, before any of them is drawn: ``stripes`` gives, per
        stripe, the file-wide index of its first data chunk, its data
        homes and its parity homes. Data slots take the data homes,
        parity slot ``j`` of a window the home of the first parity ``j``
        listed in it (:meth:`reserved` offers the others after it); a
        window's other slots are drawn when it is first used, away from
        every node listed in it."""
        width = self.k_star + self.r_star
        for first, data, parity in stripes:
            for t, node in enumerate(data):
                window, slot = divmod(first + t, self.k_star)
                self._listed.setdefault((file_id, window), [None] * width)[slot] = node
            window = first // self.k_star
            slots = self._listed.setdefault((file_id, window), [None] * width)
            for j, node in enumerate(parity[: self.r_star]):
                if slots[self.k_star + j] is None:
                    slots[self.k_star + j] = node
                self._peers.setdefault((file_id, window, j), []).append(node)

    def _window_nodes(self, file_id: str, window: int) -> Dict[str, List[str]]:
        key = (file_id, window)
        if key not in self._windows:
            slots = self._listed.pop(key, None)
            if slots is None:
                nodes = self.pick_nodes(self.k_star + self.r_star)
            else:
                listed = [node for node in slots if node is not None]
                drawn = iter(self.pick_nodes(len(slots) - len(listed), exclude=listed))
                nodes = [next(drawn) if node is None else node for node in slots]
            self._windows[key] = {
                "data": nodes[: self.k_star],
                "parity": nodes[self.k_star :],
            }
        return self._windows[key]

    def data_node(self, file_id: str, chunk_index: int) -> str:
        """Node for the ``chunk_index``-th data chunk of a file."""
        window, slot = divmod(chunk_index, self.k_star)
        return self._window_nodes(file_id, window)["data"][slot]

    def parity_node(self, file_id: str, chunk_index: int, parity_j: int) -> str:
        """Node for parity ``j`` of the stripe containing ``chunk_index``.

        Co-located across all stripes of the same k*-window, which is what
        makes same-r CC merges network-free.
        """
        if parity_j >= self.r_star:
            raise PlacementError(
                f"parity index {parity_j} exceeds reserved r*={self.r_star}"
            )
        window = chunk_index // self.k_star
        return self._window_nodes(file_id, window)["parity"][parity_j]

    def reserved(self, file_id: str, chunk_index: int, parity_j: int) -> List[str]:
        """Where parity ``j`` of the stripe holding ``chunk_index`` stays
        co-located with its merge partners: every parity ``j`` home its
        k*-window lists, in order, else the window's drawn slot; none
        beyond r* or when the cluster is too small to draw the window."""
        if parity_j >= self.r_star:
            return []
        listed = self._peers.get((file_id, chunk_index // self.k_star, parity_j))
        if listed:
            return listed
        try:
            return [self.parity_node(file_id, chunk_index, parity_j)]
        except PlacementError:
            return []

    def place_stripe(self, file_id: str, stripe_index: int, k: int, r: int) -> Dict[str, List[str]]:
        """Data + parity nodes for stripe ``stripe_index`` of width k."""
        first_chunk = stripe_index * k
        data = [self.data_node(file_id, first_chunk + t) for t in range(k)]
        parity = [self.parity_node(file_id, first_chunk, j) for j in range(r)]
        return {"data": data, "parity": parity}

    def place_replicas(
        self, file_id: str, block_index: int, copies: int, exclude: Sequence[str]
    ) -> List[str]:
        """Replica nodes for a hybrid block, excluding its EC chunk nodes."""
        return self.pick_nodes(copies, exclude=exclude)

    def verify_no_future_overlap(self, file_id: str, n_chunks: int) -> bool:
        """True if every k*-window of the file has fully distinct nodes."""
        for window_start in range(0, n_chunks, self.k_star):
            window_nodes = [
                self.data_node(file_id, t)
                for t in range(window_start, min(window_start + self.k_star, n_chunks))
            ]
            if len(set(window_nodes)) != len(window_nodes):
                return False
        return True


class UnplannedPlacement(PlacementPolicy):
    """Ablation policy: per-stripe random placement, nothing planned.

    API-compatible with :class:`TranscodeAwarePlacement` so MorphFS can
    run with planning disabled: stripes still get distinct nodes, but
    merge partners may collide across stripes and parities are scattered,
    so CC merges pay network IO (and real systems would also move data).
    It reserves no parity node. Used by the placement ablation benchmark.
    """

    def __init__(self, cluster: Cluster, seed: int = 0):
        super().__init__(cluster, seed)
        self._stripes: Dict[tuple, Dict[str, List[str]]] = {}

    def place_stripe(self, file_id: str, stripe_index: int, k: int, r: int) -> Dict[str, List[str]]:
        key = (file_id, stripe_index, k, r)
        if key not in self._stripes:
            nodes = self.pick_nodes(k + r)
            self._stripes[key] = {"data": nodes[:k], "parity": nodes[k:]}
        return self._stripes[key]

    def place_replicas(
        self, file_id: str, block_index: int, copies: int, exclude: Sequence[str]
    ) -> List[str]:
        return self.pick_nodes(copies, exclude=exclude)
