"""Adversarial scenario suite: correlated failures, partitions, stragglers.

Each scenario pairs two runs:

1. a **functional** run on the byte-exact in-memory DFS — a seeded
   workload is written, the adversity is injected, the heartbeat monitor
   drives repair until the backlog drains, and the suite asserts *zero
   data loss* (every file reads back byte-identical, no chunk is left on
   a dead node);
2. an **event-driven** run (:func:`repro.sched.simulate.run_failure_burst`
   on a 12-node timed cluster carrying the scenario's slowdowns), which
   checks the scheduler's
   foreground-latency guarantee: with per-node byte budgets the burst
   never admits more than the budget per node-tick, and the foreground
   p99 stays at or below the unthrottled run's.

Every run is seeded and emits a canonical event trace whose sha256
digest is the determinism oracle: same seed, same digest. Every
functional run ends on :func:`repro.dfs.audit.audit` — namenode and
datanodes agree, stored bytes carry their sums, parities encode their
data, the partition scenario's journal replays to its live state — and
reports what it finds as ``violations``.

Scenarios::

    rack_burst       a whole rack (switch domain) fails at once
    partition_heal   a minority island is cut off, repaired around,
                     then the partition heals
    straggler        one node's disk turns slow; hedged reads route
                     around it
    tiers            heterogeneous ssd/hdd cluster; placement follows
                     the lifecycle tier mapping, then a burst hits

Run with ``python -m repro scenarios [names] [--quick] [--check]``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.failure import FailureInjector
from repro.cluster.topology import Cluster, ClusterSpec, NodeClass
from repro.dfs.audit import Violation, audit

KB = 1024


class ScenarioError(AssertionError):
    """A scenario invariant (zero loss, latency) failed."""


@dataclass
class ScenarioResult:
    """One scenario run's outcome and its verification verdicts."""

    name: str
    seed: int
    #: canonical event trace (what happened, in order)
    events: List[dict] = field(default_factory=list)
    #: sha256 over the canonical-JSON trace — the determinism oracle
    trace_digest: str = ""
    files_verified: int = 0
    #: chunks still homed on dead nodes after the drain (must be 0)
    lost_chunks: int = 0
    chunks_recovered: int = 0
    repairs_cancelled: int = 0
    hedged_reads: int = 0
    ticks: int = 0
    #: what :func:`repro.dfs.audit.audit` finds at the end of the
    #: functional run (must be empty)
    violations: List[Violation] = field(default_factory=list)
    #: event-driven companion run: foreground p99 with budgets on/off
    fg_p99_ms: float = 0.0
    fg_p99_unthrottled_ms: float = 0.0
    #: max maintenance bytes any (node, tick) admitted under budget
    fg_max_node_tick_mb: float = 0.0

    def summary(self) -> str:
        parts = [
            f"{self.name}: {self.files_verified} files byte-exact",
            f"{self.lost_chunks} lost",
            f"{self.chunks_recovered} repaired in {self.ticks} ticks",
        ]
        if self.repairs_cancelled:
            parts.append(f"{self.repairs_cancelled} stale repairs cancelled")
        if self.hedged_reads:
            parts.append(f"{self.hedged_reads} hedged reads")
        parts.append(f"{len(self.violations)} audit violations")
        parts.append(
            f"fg p99 {self.fg_p99_ms:.1f} ms budgeted"
            f" vs {self.fg_p99_unthrottled_ms:.1f} ms unthrottled"
        )
        return "\n    ".join(
            ["  ".join(parts)] + [" ".join(violation) for violation in self.violations]
        )


def _digest(events: List[dict]) -> str:
    payload = json.dumps(events, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


# -- functional-run machinery -------------------------------------------------

def _make_fs(seed: int, spec: ClusterSpec, journaled: bool = False):
    """A MorphFS on the given cluster, optionally journal-backed."""
    from repro.dfs.filesystem import MorphFS

    namenode = None
    if journaled:
        from repro.dfs.journal import JournaledNamenode

        namenode = JournaledNamenode()
    fs = MorphFS(
        cluster=Cluster(spec),
        chunk_size=4 * KB,
        seed=seed,
        future_widths=[6, 12],
        namenode=namenode,
    )
    return fs


def _write_workload(fs, seed: int, quick: bool) -> Dict[str, str]:
    """Seeded mixed workload (hybrid + pure EC); name -> payload sha256."""
    from repro.core.schemes import CodeKind, ECScheme, HybridScheme

    cc69 = ECScheme(CodeKind.CC, 6, 9)
    rng = np.random.default_rng(seed)
    digests: Dict[str, str] = {}
    kb_per_file = 48 if quick else 96
    for i in range(2 if quick else 6):
        name = f"f{i:02d}"
        data = rng.integers(0, 256, kb_per_file * KB, dtype=np.uint8)
        scheme = HybridScheme(1, cc69) if i % 2 == 0 else cc69
        fs.write_file(name, data, scheme)
        digests[name] = hashlib.sha256(data.tobytes()).hexdigest()
    return digests


def _drain(fs, monitor, events: List[dict], max_ticks: int = 64) -> dict:
    """Tick the heartbeat monitor until repair work stops, with a bound."""
    from repro.dfs.recovery import RecoveryManager

    recovered = 0
    cancelled = 0
    ticks = 0
    for _ in range(max_ticks):
        report = monitor.tick()
        ticks += 1
        recovered += report.chunks_recovered
        cancelled += report.repairs_cancelled
        if report.newly_dead or report.newly_alive or report.chunks_recovered:
            events.append(
                {
                    "event": "tick",
                    "tick": report.tick,
                    "newly_dead": sorted(report.newly_dead),
                    "newly_alive": sorted(report.newly_alive),
                    "recovered": report.chunks_recovered,
                    "cancelled": report.repairs_cancelled,
                }
            )
        backlog_empty = not fs.scheduler.queue.backlog()
        lost = RecoveryManager(fs).lost_chunks(monitor.declared_dead())
        if backlog_empty and not lost and ticks >= monitor.config.dead_after_missed:
            break
    return {
        "recovered": recovered,
        "cancelled": cancelled,
        "ticks": ticks,
        "lost": len(RecoveryManager(fs).lost_chunks(monitor.declared_dead())),
    }


def _verify_readback(fs, digests: Dict[str, str]) -> int:
    """Byte-exact readback of every file; returns the verified count."""
    verified = 0
    for name, want in digests.items():
        data = fs.read_file(name)
        got = hashlib.sha256(np.asarray(data, dtype=np.uint8).tobytes()).hexdigest()
        if got != want:
            raise ScenarioError(f"{name}: readback digest mismatch after scenario")
        verified += 1
    return verified


# -- event-driven companion run ----------------------------------------------

def _burst(budget, sim_cfg, slowdown: Optional[Dict[int, float]] = None):
    """One companion run on a fresh timed cluster; ``slowdown`` maps a
    node's index to its disk multiplier."""
    from repro.sched.simulate import run_failure_burst
    from repro.sim.cluster import SimCluster

    sim = SimCluster(sim_cfg.n_nodes, seed=sim_cfg.seed)
    for index, multiplier in (slowdown or {}).items():
        sim.nodes[index].disk_multiplier = multiplier
    return run_failure_burst(budget, sim_cfg, cluster=sim)


def _fg_guarantee(
    result: ScenarioResult, sim_cfg, slowdown: Optional[Dict[int, float]] = None
) -> None:
    """Run the burst budgeted and unthrottled; enforce the guarantee and
    record the foreground figures on ``result``."""
    from repro.sched.simulate import BUDGET_DISK_BYTES_PER_TICK

    throttled = _burst(BUDGET_DISK_BYTES_PER_TICK, sim_cfg, slowdown)
    unthrottled = _burst(None, sim_cfg, slowdown)
    if throttled.repairs_completed != sim_cfg.n_repairs:
        raise ScenarioError(
            f"budgeted run left {sim_cfg.n_repairs - throttled.repairs_completed}"
            " repairs unfinished"
        )
    if throttled.max_node_tick_disk_bytes > BUDGET_DISK_BYTES_PER_TICK + 1e-6:
        raise ScenarioError(
            "budget violated: a node-tick admitted "
            f"{throttled.max_node_tick_disk_bytes:.0f} bytes"
        )
    p99_b = throttled.p99_latency_s * 1e3
    p99_u = unthrottled.p99_latency_s * 1e3
    # The guarantee: budgets never make the foreground tail *worse*.
    if p99_b > p99_u * 1.05:
        raise ScenarioError(
            f"foreground p99 regressed under budgets: {p99_b:.1f} ms"
            f" vs {p99_u:.1f} ms unthrottled"
        )
    result.fg_p99_ms = p99_b
    result.fg_p99_unthrottled_ms = p99_u
    result.fg_max_node_tick_mb = throttled.max_node_tick_disk_bytes / 1e6


# -- scenarios ----------------------------------------------------------------

def run_rack_burst(seed: int = 0, quick: bool = False) -> ScenarioResult:
    """A whole rack (shared switch/PDU) fails at once.

    With rack-spread placement a 4-rack cluster keeps at most
    ceil(n/4) chunks of any stripe in one rack, so the burst stays
    within CC(6,9)'s tolerance and every chunk re-materialises on the
    surviving racks.
    """
    from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
    from repro.sched.simulate import SimConfig

    result = ScenarioResult(name="rack_burst", seed=seed)
    spec = ClusterSpec(n_datanodes=16 if quick else 20, n_racks=4)
    fs = _make_fs(seed, spec)
    digests = _write_workload(fs, seed, quick)
    injector = FailureInjector(fs.cluster, seed=seed)
    rack = injector.fail_random_rack()
    downed = sorted(injector.failed_nodes)
    result.events.append({"event": "fail_rack", "rack": rack, "nodes": downed})

    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    stats = _drain(fs, monitor, result.events)
    result.chunks_recovered = stats["recovered"]
    result.ticks = stats["ticks"]
    result.lost_chunks = stats["lost"]
    if result.lost_chunks:
        raise ScenarioError(f"rack_burst: {result.lost_chunks} chunks lost")
    result.files_verified = _verify_readback(fs, digests)
    result.violations = audit(fs)

    # Companion event-driven burst: a rack of simultaneous repairs.
    sim = SimConfig(
        n_nodes=12,
        n_repairs=24 if quick else 96,
        duration_s=14.0 if quick else 30.0,
        seed=seed,
    )
    _fg_guarantee(result, sim)
    result.trace_digest = _digest(result.events)
    return result


def run_partition_heal(seed: int = 0, quick: bool = False) -> ScenarioResult:
    """A minority island is cut off, repaired around, then heals.

    While the partition holds, the namenode declares the island dead
    (missed beats) and re-homes its chunks on the majority side, never
    sourcing bytes across the cut. After heal, stale queued repairs for
    chunks the island still holds are cancelled, the island drops the
    copies re-homed while it was away, and the audit's journal check
    holds the live namenode to a from-scratch replay of its journal.
    """
    from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
    from repro.sched.simulate import SimConfig

    result = ScenarioResult(name="partition_heal", seed=seed)
    spec = ClusterSpec(n_datanodes=16 if quick else 20, n_racks=4)
    fs = _make_fs(seed, spec, journaled=True)
    digests = _write_workload(fs, seed, quick)

    rng = np.random.default_rng(seed)
    node_ids = [n.node_id for n in fs.cluster.nodes]
    island = sorted(
        node_ids[int(i)] for i in rng.choice(len(node_ids), size=2, replace=False)
    )
    fs.partition.isolate(island)
    result.events.append({"event": "partition", "island": island})

    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    stats = _drain(fs, monitor, result.events)
    result.chunks_recovered = stats["recovered"]
    result.ticks = stats["ticks"]
    if stats["lost"]:
        raise ScenarioError(f"partition_heal: {stats['lost']} chunks unrepaired")

    fs.partition.heal()
    result.events.append({"event": "heal", "island": island})
    heal_stats = _drain(fs, monitor, result.events, max_ticks=8)
    result.ticks += heal_stats["ticks"]
    result.chunks_recovered += heal_stats["recovered"]
    result.repairs_cancelled = stats["cancelled"] + heal_stats["cancelled"]
    result.lost_chunks = heal_stats["lost"]
    if result.lost_chunks:
        raise ScenarioError(f"partition_heal: {result.lost_chunks} chunks lost")
    result.files_verified = _verify_readback(fs, digests)
    result.violations = audit(fs)

    sim = SimConfig(
        n_nodes=12,
        n_repairs=16 if quick else 64,
        burst_at_s=4.0,
        duration_s=14.0 if quick else 30.0,
        seed=seed,
    )
    _fg_guarantee(result, sim)
    result.trace_digest = _digest(result.events)
    return result


def run_straggler(seed: int = 0, quick: bool = False) -> ScenarioResult:
    """One node's disk turns slow; hedged reads route around it.

    The functional run proves the hedge policy is *correct* (byte-exact
    reads that avoid the slow home copy); the event-driven run proves it
    *wins* (hedged p99 strictly below unhedged p99 under the same seed).
    """
    from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
    from repro.sched.simulate import SimConfig

    result = ScenarioResult(name="straggler", seed=seed)
    spec = ClusterSpec(n_datanodes=16 if quick else 20, n_racks=4)
    fs = _make_fs(seed, spec)
    digests = _write_workload(fs, seed, quick)

    rng = np.random.default_rng(seed)
    slow = fs.cluster.nodes[int(rng.integers(len(fs.cluster.nodes)))].node_id
    fs.cluster.node(slow).disk_multiplier = 8.0
    fs.hedge_slow_disk_multiplier = 4.0
    result.events.append({"event": "slow_disk", "node": slow, "multiplier": 8.0})

    result.files_verified = _verify_readback(fs, digests)
    result.hedged_reads = fs.reader.hedged_reads
    result.events.append({"event": "hedged_reads", "count": result.hedged_reads})

    # The straggler is NOT dead: the heartbeat monitor must keep it in
    # the living set (no repair storm for a slow-but-alive node).
    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    for _ in range(3):
        report = monitor.tick()
        if report.newly_dead:
            raise ScenarioError("straggler: slow node wrongly declared dead")
    result.ticks = 3
    result.lost_chunks = 0
    result.violations = audit(fs)

    # Event-driven: same burst with and without hedging; hedging must
    # strictly improve the foreground tail on a cluster with one node as
    # slow as the functional run's.
    base = dict(
        n_nodes=12,
        n_repairs=16 if quick else 48,
        duration_s=14.0 if quick else 30.0,
        seed=seed,
    )
    straggler = {3: fs.cluster.node(slow).disk_multiplier}
    hedged_cfg = SimConfig(**base, hedge_after_s=0.05)
    unhedged = _burst(None, SimConfig(**base), straggler)
    hedged = _burst(None, hedged_cfg, straggler)
    if hedged.hedged_reads == 0:
        raise ScenarioError("straggler: hedging never fired")
    if hedged.p99_latency_s >= unhedged.p99_latency_s:
        raise ScenarioError(
            f"straggler: hedged p99 {hedged.p99_latency_s * 1e3:.1f} ms did not"
            f" beat unhedged {unhedged.p99_latency_s * 1e3:.1f} ms"
        )
    result.hedged_reads += hedged.hedged_reads
    _fg_guarantee(result, hedged_cfg, straggler)
    result.trace_digest = _digest(result.events)
    return result


def run_tiers(seed: int = 0, quick: bool = False) -> ScenarioResult:
    """Heterogeneous ssd/hdd cluster: tiered placement, then a burst.

    Hot files follow the lifecycle tier mapping onto the ssd class;
    after a failure burst the repaired cluster still reads back
    byte-exact and the tier preference demonstrably steered placement.
    """
    from repro.core.lifecycle import morph_microbench_policy
    from repro.dfs.heartbeat import HeartbeatConfig, HeartbeatMonitor
    from repro.sched.simulate import SimConfig

    result = ScenarioResult(name="tiers", seed=seed)
    # Strictly larger than the k*+r* placement window (16), or the
    # window consumes every node and the tier preference has no slack.
    n_nodes = 24 if quick else 28
    ssd = NodeClass("ssd", count=n_nodes // 2, disk_multiplier=0.25)
    hdd = NodeClass("hdd", count=n_nodes - n_nodes // 2, disk_multiplier=1.0)
    spec = ClusterSpec(n_datanodes=n_nodes, n_racks=4, node_classes=[ssd, hdd])
    fs = _make_fs(seed, spec)

    # Hot files prefer the tier the lifecycle mapping names for age 0.
    policy = morph_microbench_policy()
    fs.placement_prefer_class = policy.tier_at(0.0)
    digests = _write_workload(fs, seed, quick)
    ssd_ids = {n.node_id for n in fs.cluster.nodes_in_class("ssd")}
    placed = [c.node_id for name in digests
              for c in fs.namenode.lookup(name).all_chunks()]
    on_ssd = sum(1 for node_id in placed if node_id in ssd_ids)
    ssd_fraction = on_ssd / len(placed)
    result.events.append(
        {"event": "tiered_placement", "prefer": fs.placement_prefer_class,
         "ssd_fraction": round(ssd_fraction, 4)}
    )
    # Half the nodes are ssd; a working preference must beat a fair coin.
    if ssd_fraction <= 0.5:
        raise ScenarioError(
            f"tiers: only {ssd_fraction:.0%} of chunks landed on the ssd tier"
        )

    injector = FailureInjector(fs.cluster, seed=seed)
    downed = injector.fail_fraction(0.10)
    result.events.append({"event": "fail_fraction", "nodes": sorted(downed)})
    monitor = HeartbeatMonitor(fs, HeartbeatConfig(dead_after_missed=2))
    stats = _drain(fs, monitor, result.events)
    result.chunks_recovered = stats["recovered"]
    result.ticks = stats["ticks"]
    result.lost_chunks = stats["lost"]
    if result.lost_chunks:
        raise ScenarioError(f"tiers: {result.lost_chunks} chunks lost")
    result.files_verified = _verify_readback(fs, digests)
    result.violations = audit(fs)

    # Companion burst on a cluster split the same way (half at the ssd
    # tier's multiplier). The burst is sized to saturate: under-sized
    # bursts finish fast either way and throttling only stretches the
    # interference window.
    sim = SimConfig(
        n_nodes=12,
        n_repairs=48 if quick else 96,
        duration_s=14.0 if quick else 30.0,
        seed=seed,
    )
    _fg_guarantee(
        result, sim, {i: ssd.disk_multiplier for i in range(sim.n_nodes // 2)}
    )
    result.trace_digest = _digest(result.events)
    return result


SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "rack_burst": run_rack_burst,
    "partition_heal": run_partition_heal,
    "straggler": run_straggler,
    "tiers": run_tiers,
}


def run_scenarios(
    names: Optional[List[str]] = None, seed: int = 0, quick: bool = False
) -> Dict[str, ScenarioResult]:
    """Run the named scenarios (default: all), in declaration order."""
    targets = list(SCENARIOS) if not names else names
    unknown = [n for n in targets if n not in SCENARIOS]
    if unknown:
        raise KeyError(f"unknown scenario(s): {', '.join(unknown)}")
    return {name: SCENARIOS[name](seed=seed, quick=quick) for name in targets}


def main(argv: Optional[List[str]] = None) -> int:
    """Implements ``python -m repro scenarios``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro scenarios",
        description="adversarial scenario suite (seeded, self-verifying)",
    )
    parser.add_argument("names", nargs="*", help=f"subset of: {' '.join(SCENARIOS)}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small clusters and short sims (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if any scenario invariant fails or "
                             "the audit finds any violation")
    args = parser.parse_args(argv)
    try:
        results = run_scenarios(args.names, seed=args.seed, quick=args.quick)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    except ScenarioError as exc:
        print(f"FAIL: {exc}")
        return 1
    for result in results.values():
        print(result.summary())
        print(f"  trace sha256 {result.trace_digest}")
    if args.check:
        failed = [result.name for result in results.values() if result.violations]
        if failed:
            print(f"FAIL: audit violations in {', '.join(failed)}")
            return 1
        print(f"check: {len(results)} scenario(s) passed all invariants")
    return 0
