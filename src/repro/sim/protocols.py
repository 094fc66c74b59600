"""Client protocol processes (latency semantics of §4 and §6).

Each function is a generator suitable for ``SimCluster.env.process``; it
finishes when the client-visible operation completes and returns the
operation latency implicitly through the workload driver's clock.

Protocol structure (what waits on what) is taken straight from the paper:

* ``write_replicated`` — pipeline to c nodes; durable at slowest-of-c
  in-memory absorb; disk flush is background.
* ``write_hybrid`` — identical client path to 3-r (slowest-of-3 absorb);
  striping + parity persist run as background processes (their latency is
  what Fig 13c measures).
* ``write_rs`` — client-side encode, then *synchronous* chunk writes to
  all n nodes: slowest-of-n with disks on the critical path.
* ``read_replica_hedged`` — race a second copy (or the stripe) after the
  hedge deadline.
* ``read_striped`` — slowest-of-k parallel chunk reads.
* ``transcode_*`` — the read/compute phases of Fig 15.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.engine import AllOf
from repro.sim.cluster import SimCluster

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------

def write_replicated(sim: SimCluster, size_bytes: float, copies: int = 3):
    """c-way replicated write: pipeline transfer + slowest-of-c absorb.

    Also the hybrid write's parities-disabled option (§6.1): ``Hy(c)``
    with parities disabled is ``c + 1`` replicas and nothing else, so its
    durability and its (maximum) throughput are this write's."""
    nodes = sim.pick_nodes(copies)
    # First-byte latency of the pipeline: one hop per stage.
    yield sim.env.timeout(sim.cal.net_time(size_bytes) + (copies - 1) * sim.cal.net_rtt_s)
    absorbs = [sim.replica_absorb(node, size_bytes) for node in nodes]
    yield AllOf(sim.env, absorbs)
    # Background flush to disk (not on the client path).
    for node in nodes:
        sim.background_flush(node, size_bytes)


def write_hybrid(
    sim: SimCluster,
    size_bytes: float,
    k: int,
    n: int,
    copies: int = 1,
    parity_persist_log: Optional[List[float]] = None,
):
    """Hybrid write: client sees the 3-r path; striping is asynchronous.

    ``parity_persist_log`` (if given) records the time from client ack to
    parity persistence — the Fig 13c distribution that bounds how long
    temporary replicas occupy buffer cache.
    """
    nodes = sim.pick_nodes(3)
    yield sim.env.timeout(sim.cal.net_time(size_bytes) + 2 * sim.cal.net_rtt_s)
    absorbs = [sim.replica_absorb(node, size_bytes) for node in nodes]
    yield AllOf(sim.env, absorbs)
    # Client is done; the striper works in the background.
    ack_time = sim.env.now
    sim.env.process(
        _background_stripe(sim, size_bytes, k, n, copies, ack_time, parity_persist_log)
    )


def _background_stripe(
    sim: SimCluster,
    size_bytes: float,
    k: int,
    n: int,
    copies: int,
    ack_time: float,
    parity_persist_log: Optional[List[float]],
):
    """Striper: distribute data chunks, encode, persist parities."""
    chunk = size_bytes / k
    stripe_nodes = sim.pick_nodes(n)
    yield sim.env.timeout(sim.cal.striper_poll_s)
    data_writes = [sim.background_chunk_write(node, chunk) for node in stripe_nodes[:k]]
    yield AllOf(sim.env, data_writes)
    yield sim.env.timeout(sim.cal.encode_time(k, n - k, chunk))
    parity_writes = [sim.background_chunk_write(node, chunk) for node in stripe_nodes[k:]]
    yield AllOf(sim.env, parity_writes)
    if parity_persist_log is not None:
        parity_persist_log.append(sim.env.now - ack_time)


def write_rs(sim: SimCluster, size_bytes: float, k: int, n: int):
    """Direct RS write of a small file: encode + slowest-of-n persist.

    For small (sub-stripe-buffer) writes the client buffers the whole
    stripe, computes parities on its critical path and waits for all n
    chunk writes — the Fig 3 / Fig 13a regime.
    """
    chunk = size_bytes / k
    yield sim.env.timeout(sim.cal.net_time(size_bytes))
    yield sim.env.timeout(sim.cal.encode_time(k, n - k, chunk))
    nodes = sim.pick_nodes(n)
    writes = [sim.ec_chunk_write(node, chunk) for node in nodes]
    yield AllOf(sim.env, writes)


def write_rs_streaming(sim: SimCluster, size_bytes: float, k: int, n: int):
    """Direct RS write of a large streaming file (Fig 13b regime).

    Cells stream to the n stripe nodes concurrently, with encode largely
    overlapped; the residual costs vs replication are the parity cell
    traffic, per-cell handling, and the tail of the final stripe flush.
    """
    cell = size_bytes / k
    yield sim.env.timeout(sim.cal.net_time(size_bytes))
    nodes = sim.pick_nodes(n)
    absorbs = [sim.replica_absorb(node, cell) for node in nodes]
    yield AllOf(sim.env, absorbs)
    # Non-overlapped fraction of the parity encode plus the final-stripe
    # commit handshake (cell checksums, stripe close) — disk flush itself
    # is background, as for replication.
    import numpy as np

    commit = 0.6 * sim.rng.lognormal(
        np.log(sim.cal.ec_write_median_s), sim.cal.ec_write_sigma
    )
    yield sim.env.timeout(0.25 * sim.cal.encode_time(k, n - k, cell) + commit)
    for node in nodes:
        sim.background_flush(node, cell)


def write_hybrid_sync_parity(sim: SimCluster, size_bytes: float, k: int, n: int, copies: int = 1):
    """Hybrid write, *synchronous* parity option (§6.1): the client
    buffers the stripe, encodes, and waits for parity persistence —
    faster additional durability at the cost of write latency."""
    chunk = size_bytes / k
    nodes = sim.pick_nodes(3)
    yield sim.env.timeout(sim.cal.net_time(size_bytes) + 2 * sim.cal.net_rtt_s)
    absorbs = [sim.replica_absorb(node, size_bytes) for node in nodes]
    yield AllOf(sim.env, absorbs)
    # Parity encode + persist on the critical path.
    yield sim.env.timeout(sim.cal.encode_time(k, n - k, chunk))
    parity_nodes = sim.pick_nodes(n - k)
    yield AllOf(sim.env, [sim.ec_chunk_write(node, chunk) for node in parity_nodes])


# ---------------------------------------------------------------------------
# reads
# ---------------------------------------------------------------------------

def read_replica_hedged(
    sim: SimCluster,
    size_bytes: float,
    n_copies: int,
    stripe_k: int = 0,
    stripe_n: int = 0,
):
    """Replica read with hedging (§6.1).

    Request copy 1; at the hedge deadline request copy 2 (etc.); when
    copies are exhausted, fall back to a striped (possibly degraded)
    read. ``n_copies`` counts *live* replicas of the range.
    """
    candidates = sim.pick_nodes_any(max(n_copies, 1))
    live = [node for node in candidates if node.is_alive][:n_copies]
    if not live:
        # No live replica at all: go to the stripe immediately.
        if stripe_k:
            yield from read_striped(sim, size_bytes, stripe_k, stripe_n, degraded=True)
        return
    attempts = [lambda node=node: sim.disk_read(node, size_bytes) for node in live]
    if stripe_k:
        attempts.append(
            lambda: sim.env.process(
                read_striped(sim, size_bytes, stripe_k, stripe_n, degraded=False)
            )
        )
    yield from sim.hedged(attempts, sim.cal.hedge_deadline_s)


def read_striped(
    sim: SimCluster,
    size_bytes: float,
    k: int,
    n: int,
    degraded: bool = False,
    unavailable_fraction: float = 0.0,
):
    """Striped read: slowest-of-k chunks; degraded adds decode + parity.

    With ``unavailable_fraction`` > 0 each chunk's home may be down, in
    which case one extra (parity) chunk is read and the client decodes.
    """
    chunk = size_bytes / k
    nodes = sim.pick_nodes_any(n)
    data_nodes = nodes[:k]
    missing = [node for node in data_nodes if not node.is_alive]
    if unavailable_fraction > 0.0:
        extra = int(sim.rng.random() < unavailable_fraction)
    else:
        extra = 0
    n_missing = len(missing) + (1 if degraded else 0) + extra
    live_data = [node for node in data_nodes if node.is_alive]
    reads = [sim.striped_chunk_read(node, chunk) for node in live_data]
    parity_pool = [node for node in nodes[k:] if node.is_alive]
    for i in range(min(n_missing, len(parity_pool))):
        reads.append(sim.striped_chunk_read(parity_pool[i], chunk))
    if reads:
        yield AllOf(sim.env, reads)
    if n_missing:
        # Decode sits on the critical path (paper §2: degraded-mode read).
        yield sim.env.timeout(sim.cal.decode_time(k, n_missing, chunk))


def read_large_scan(
    sim: SimCluster, size_bytes: float, k: int, n: int, from_stripe: bool
):
    """Throughput scan (Fig 14e): replica sequential vs parallel striped."""
    if from_stripe:
        yield from read_striped(sim, size_bytes, k, n)
    else:
        node = sim.pick_nodes(1)[0]
        yield sim.disk_read(node, size_bytes)


# ---------------------------------------------------------------------------
# transcode read / compute (Fig 15)
# ---------------------------------------------------------------------------

def transcode_read_rs(sim: SimCluster, file_bytes: float, k_final: int, k_initial: int):
    """RS transcode read: every data chunk of the merged span in parallel."""
    chunk = file_bytes / k_final
    nodes = sim.pick_nodes(k_final)
    yield AllOf(sim.env, [sim.disk_read(node, chunk) for node in nodes])


def transcode_read_cc(
    sim: SimCluster,
    file_bytes: float,
    k_final: int,
    n_parity_reads: int,
    data_fraction: float = 0.0,
    n_data_reads: int = 0,
):
    """CC transcode read: parities (and optionally data tails) in parallel."""
    chunk = file_bytes / k_final
    reads = []
    parity_nodes = sim.pick_nodes(n_parity_reads)
    reads.extend(sim.disk_read(node, chunk) for node in parity_nodes)
    if n_data_reads and data_fraction > 0:
        data_nodes = sim.pick_nodes(n_data_reads)
        # Hop-and-couple: each is one contiguous fractional read.
        reads.extend(sim.disk_read(node, chunk * data_fraction) for node in data_nodes)
    yield AllOf(sim.env, reads)


def transcode_compute(
    sim: SimCluster, file_bytes: float, k_final: int, width: int, parities: int,
    vector_overhead: float = 1.0,
):
    """Parity computation: proportional to combination-matrix width."""
    chunk = file_bytes / k_final
    yield sim.env.timeout(
        sim.cal.encode_time(width, parities, chunk) * vector_overhead
    )
