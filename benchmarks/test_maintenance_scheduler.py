"""Background-maintenance scheduler under a failure burst (§4.4, §6).

Not a paper figure — this quantifies the subsystem the paper assumes:
repair/transcode/scrub traffic must not trample foreground IO. Two
claims are demonstrated:

* **budgets bound interference** — with per-node byte budgets, a burst
  of 96 chunk repairs never pushes any node past its per-tick budget,
  and foreground read tail latency stays flat instead of spiking, while
  every repair still completes;
* **free transitions are unthrottled** — a hybrid -> EC transition that
  moves zero bytes (§4.5) finishes within a single scheduler tick even
  when every node's budget is exhausted, because metadata-only tasks
  bypass the byte gate entirely.
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.sched import MaintenanceScheduler, SchedulerPolicy
from repro.sched.simulate import (
    BUDGET_DISK_BYTES_PER_TICK,
    SimConfig,
    compare_budgets,
    format_report,
)

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def test_budgets_protect_foreground_tail_latency(once):
    """Failure burst with vs. without per-node maintenance budgets."""
    cfg = SimConfig()
    results = once(compare_budgets, cfg)
    print(format_report(results, cfg))

    free = results["unthrottled"]
    capped = results["throttled"]

    # All repairs complete under both regimes — throttling delays
    # background work, it never starves it.
    assert free.repairs_completed == free.n_repairs
    assert capped.repairs_completed == capped.n_repairs

    # The budget is a hard per-node, per-tick ceiling on maintenance IO.
    assert capped.max_node_tick_disk_bytes <= BUDGET_DISK_BYTES_PER_TICK
    assert free.max_node_tick_disk_bytes > BUDGET_DISK_BYTES_PER_TICK

    # Headline: the burst inflates unthrottled foreground p99 well above
    # the throttled run's.
    assert capped.p99_latency_s < free.p99_latency_s / 2


def test_free_transition_immune_to_budget_exhaustion(once):
    """Zero-IO hybrid->EC transcode completes in one tick, budget or not."""

    def drained_transition():
        fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
        data = np.random.default_rng(1).integers(0, 256, 96 * KB, dtype=np.uint8)
        fs.write_file("f", data, HybridScheme(1, CC69))
        fs.scheduler = MaintenanceScheduler(
            fs, SchedulerPolicy(disk_bytes_per_tick=1.0)
        )
        for node_id in fs.datanodes:
            fs.scheduler.budgets.charge(node_id, disk_bytes=1e12)
        disk0 = fs.metrics.disk_bytes_total
        fs.schedule_transcode("f", CC69)
        report = fs.scheduler.run_tick()
        disk_moved = fs.metrics.disk_bytes_total - disk0
        ok = np.array_equal(fs.read_file("f"), data)
        return {
            "ticks": 1,
            "executed": [t.describe() for t in report.executed],
            "disk_moved": disk_moved,
            "scheme": fs.namenode.lookup("f").scheme,
            "intact": ok,
        }

    r = once(drained_transition)
    print_table(
        "Free transition under exhausted budgets",
        ["metric", "value"],
        [
            ("scheduler ticks to complete", r["ticks"]),
            ("maintenance disk bytes moved", r["disk_moved"]),
            ("resulting scheme", str(r["scheme"])),
        ],
    )
    assert r["executed"] == ["free-transition f"]
    assert r["disk_moved"] == 0
    assert r["scheme"] == CC69
    assert r["intact"]
