"""Failure-burst interference simulation: budgets vs. free-for-all.

An event-driven model of the one scenario budgets exist for: a node
failure burst drops a backlog of chunk repairs onto a cluster that is
also serving foreground reads. Every repair is a
:class:`~repro.sched.tasks.CallbackTask` with exact per-node charges, a
ticker process drives :meth:`MaintenanceScheduler.run_tick` at the
heartbeat cadence, and admitted repairs occupy the same per-node disk
queues the foreground reads use. The nodes, their slowdowns and those
queues are a :class:`repro.sim.cluster.SimCluster` — the same timed
cluster the latency figures run on.

Run twice — once with per-node byte budgets, once unthrottled — and the
difference shows up exactly where the paper says it should: foreground
tail latency during the burst, with the repair backlog still draining to
zero in both runs.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.engine import Resource
from repro.obs import LogLinearHistogram, MetricsRegistry
from repro.sched.policies import SchedulerPolicy
from repro.sched.scheduler import MaintenanceScheduler
from repro.sched.tasks import CallbackTask, TaskClass, TaskCost
from repro.sim.cluster import SimCluster


#: every node's disk bandwidth
DISK_BW_BYTES_PER_S = 100e6
#: size of one foreground read
READ_BYTES = 4e6
#: each repair reads one chunk from ``REPAIR_SOURCES`` nodes and writes
#: one chunk on a target node
CHUNK_BYTES = 8e6
REPAIR_SOURCES = 4
#: scheduler cadence and the per-node disk budget under test
TICK_S = 0.5
BUDGET_DISK_BYTES_PER_TICK = 16e6


@dataclass
class SimConfig:
    """Shape of the failure-burst experiment."""

    n_nodes: int = 12
    #: mean exponential interarrival of the foreground reads
    read_interarrival_s: float = 0.04
    #: the burst: how many chunk repairs land, and when
    n_repairs: int = 96
    burst_at_s: float = 2.0
    duration_s: float = 30.0
    seed: int = 0
    #: hedged foreground reads: when a read's primary lands on a node
    #: with disk multiplier > 1 and hasn't completed after this many
    #: seconds, a backup read races it on a fast node (None = hedging
    #: off). The loser still occupies its disk — hedges consume real
    #: resources.
    hedge_after_s: Optional[float] = None


@dataclass
class SimResult:
    """One run's outcome (see :func:`run_failure_burst`)."""

    label: str
    budget_disk_bytes_per_tick: Optional[float]
    foreground_latencies: List[float]
    repairs_completed: int
    n_repairs: int
    ticks: int
    #: backup reads launched by the hedging policy
    hedged_reads: int = 0
    #: admitted maintenance disk bytes per (node, tick) — the budget
    #: invariant is ``max(values) <= budget``
    node_tick_disk_bytes: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: foreground latencies again, as the shared log-linear histogram all
    #: reported percentiles come from (±0.3% at 128 subbuckets/octave)
    latency_hist: Optional[LogLinearHistogram] = None
    #: the run's metrics registry (latency + per-disk wait histograms)
    registry: Optional[MetricsRegistry] = None

    @property
    def max_node_tick_disk_bytes(self) -> float:
        return max(self.node_tick_disk_bytes.values(), default=0.0)

    def latency_percentile(self, p: float) -> float:
        return self.latency_hist.percentile(p)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)


def run_failure_burst(
    budget_disk_bytes_per_tick: Optional[float],
    config: Optional[SimConfig] = None,
    label: str = "",
    cluster: Optional[SimCluster] = None,
) -> SimResult:
    """Simulate the burst under one budget setting (None = unthrottled).

    ``cluster`` is the timed cluster this one run stands on — pass a
    fresh one whose nodes carry the slowdowns under test; by default
    ``config.n_nodes`` uniform nodes.
    """
    cfg = config or SimConfig()
    rng = random.Random(cfg.seed)
    sim = cluster or SimCluster(cfg.n_nodes, seed=cfg.seed)
    env = sim.env
    registry = MetricsRegistry()
    latency_hist = registry.histogram("foreground_read_latency_seconds")
    # Same disk queues, named and metered: the run's registry carries a
    # wait histogram per disk.
    sim.disks = {
        n.node_id: Resource(env, name=n.node_id, registry=registry) for n in sim.nodes
    }
    nodes = sim.nodes

    policy = SchedulerPolicy(disk_bytes_per_tick=budget_disk_bytes_per_tick)
    sched = MaintenanceScheduler(fs=None, policy=policy)

    latencies: List[float] = []
    repairs_done = {"n": 0}
    hedges = {"n": 0}
    node_tick_bytes: Dict[Tuple[str, int], float] = defaultdict(float)

    def disk_io(node, nbytes: float):
        return env.process(sim.disk_op(node, nbytes / DISK_BW_BYTES_PER_S))

    def one_read():
        start = env.now
        primary = rng.choice(nodes)
        attempts = [lambda: disk_io(primary, READ_BYTES)]
        if cfg.hedge_after_s is not None and primary.disk_multiplier > 1.0:
            # Straggler primary: give it a grace period, then race a
            # backup replica read on a fast node.
            def backup():
                fast = [n for n in nodes if n.disk_multiplier <= 1.0]
                hedges["n"] += 1
                return disk_io(rng.choice(fast or nodes), READ_BYTES)

            attempts.append(backup)
        yield from sim.hedged(attempts, cfg.hedge_after_s)
        latencies.append(env.now - start)

    def foreground():
        while True:
            yield env.timeout(rng.expovariate(1.0 / cfg.read_interarrival_s))
            env.process(one_read())

    def make_repair(index: int) -> CallbackTask:
        involved = rng.sample(nodes, REPAIR_SOURCES + 1)
        charges = {
            s.node_id: TaskCost(disk_bytes=CHUNK_BYTES, net_bytes=CHUNK_BYTES)
            for s in involved[:-1]
        }
        charges[involved[-1].node_id] = TaskCost(
            disk_bytes=CHUNK_BYTES, net_bytes=REPAIR_SOURCES * CHUNK_BYTES
        )
        pending = {"n": len(involved)}

        def leg(node):
            yield from sim.disk_op(node, CHUNK_BYTES / DISK_BW_BYTES_PER_S)
            pending["n"] -= 1
            if pending["n"] == 0:
                repairs_done["n"] += 1

        def fire():
            # Admitted: account the charges against this tick and put the
            # IO on the same disks the foreground reads contend for.
            for node_id, cost in charges.items():
                node_tick_bytes[(node_id, sched.tick_count)] += cost.disk_bytes
            for node in involved:
                env.process(leg(node))

        return CallbackTask(
            fire, klass=TaskClass.REPAIR, charges=charges, label=f"repair-{index}"
        )

    def burst():
        yield env.timeout(cfg.burst_at_s)
        for i in range(cfg.n_repairs):
            sched.submit(make_repair(i))

    def ticker():
        while env.now < cfg.duration_s:
            yield env.timeout(TICK_S)
            sched.run_tick()

    env.process(foreground())
    env.process(burst())
    env.process(ticker())
    env.run(until=cfg.duration_s)
    for latency in latencies:
        latency_hist.record(latency)

    return SimResult(
        label=label
        or ("throttled" if budget_disk_bytes_per_tick else "unthrottled"),
        budget_disk_bytes_per_tick=budget_disk_bytes_per_tick,
        foreground_latencies=latencies,
        repairs_completed=repairs_done["n"],
        n_repairs=cfg.n_repairs,
        ticks=sched.tick_count,
        hedged_reads=hedges["n"],
        node_tick_disk_bytes=dict(node_tick_bytes),
        latency_hist=latency_hist,
        registry=registry,
    )


def compare_budgets(config: Optional[SimConfig] = None) -> Dict[str, SimResult]:
    """The headline experiment: same burst, with and without budgets."""
    cfg = config or SimConfig()
    return {
        "unthrottled": run_failure_burst(None, cfg, label="unthrottled"),
        "throttled": run_failure_burst(BUDGET_DISK_BYTES_PER_TICK, cfg, label="throttled"),
    }


def format_report(results: Dict[str, SimResult], cfg: Optional[SimConfig] = None) -> str:
    """Human-readable comparison table for the CLI."""
    cfg = cfg or SimConfig()
    lines = [
        "Failure-burst maintenance simulation",
        f"  nodes={cfg.n_nodes}  repairs={cfg.n_repairs} x {CHUNK_BYTES / 1e6:.0f} MB"
        f"  burst at t={cfg.burst_at_s:.1f}s  tick={TICK_S}s",
        f"  budget under test: {BUDGET_DISK_BYTES_PER_TICK / 1e6:.0f} MB/node/tick",
        "",
        f"  {'run':<12} {'fg reads':>8} {'p50 (ms)':>9} {'p99 (ms)':>9}"
        f" {'repairs':>8} {'max node-tick MB':>17}",
    ]
    for name in ("unthrottled", "throttled"):
        r = results[name]
        lines.append(
            f"  {r.label:<12} {len(r.foreground_latencies):>8}"
            f" {r.latency_percentile(50) * 1e3:>9.1f}"
            f" {r.p99_latency_s * 1e3:>9.1f}"
            f" {r.repairs_completed:>3}/{r.n_repairs:<3}"
            f" {r.max_node_tick_disk_bytes / 1e6:>17.1f}"
        )
    un, th = results["unthrottled"], results["throttled"]
    if th.p99_latency_s > 0:
        lines.append(
            f"\n  foreground p99 improvement: "
            f"{un.p99_latency_s / th.p99_latency_s:.1f}x "
            f"({un.p99_latency_s * 1e3:.0f} ms -> {th.p99_latency_s * 1e3:.0f} ms)"
        )
    return "\n".join(lines)
