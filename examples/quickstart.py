#!/usr/bin/env python3
"""Quickstart: a file's whole life under Morph, next to the baseline.

Creates one 8 MB file on both systems, walks it through the paper's
microbenchmark lifetime (hot -> warm -> cool), and prints the IO and
capacity ledger side by side — the Fig 11a/b comparison in miniature.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.bench.reporting import print_table
from repro.core.schemes import CodeKind, ECScheme, HybridScheme, Replication
from repro.dfs import BaselineDFS, MorphFS
from repro.dfs.audit import audit

MB = 1024 * 1024


def main():
    rng = np.random.default_rng(42)
    data = rng.integers(0, 256, 8 * MB, dtype=np.uint8)

    # --- Baseline HDFS: 3-way replication, then RRW transcodes ----------
    baseline = BaselineDFS(chunk_size=64 * 1024)
    baseline.write_file("video.mp4", data, Replication(3))
    baseline.transcode("video.mp4", ECScheme(CodeKind.RS, 6, 9))
    baseline.transcode("video.mp4", ECScheme(CodeKind.RS, 12, 15))
    baseline_ledger = dict(baseline.metrics.summary(), capacity=baseline.capacity_used())
    assert np.array_equal(baseline.read_file("video.mp4"), data)

    # --- Morph: hybrid ingest, free first transition, CC merge ----------
    cc69 = ECScheme(CodeKind.CC, 6, 9)
    morph = MorphFS(chunk_size=64 * 1024, future_widths=[6, 12])
    morph.write_file("video.mp4", data, HybridScheme(1, cc69))
    morph.transcode("video.mp4", cc69)              # delete replica: FREE
    morph.transcode("video.mp4", ECScheme(CodeKind.CC, 12, 15))  # parity merge
    morph_ledger = dict(morph.metrics.summary(), capacity=morph.capacity_used())
    assert np.array_equal(morph.read_file("video.mp4"), data)

    b, m = baseline_ledger, morph_ledger
    rows = [
        ("disk read (MB)", b["disk_read"] / MB, m["disk_read"] / MB),
        ("disk write (MB)", b["disk_write"] / MB, m["disk_write"] / MB),
        ("network (MB)", b["network"] / MB, m["network"] / MB),
        ("capacity at rest (MB)", b["capacity"] / MB, m["capacity"] / MB),
        ("IO amplification (x)",
         (b["disk_total"] + b["network"]) / len(data),
         (m["disk_total"] + m["network"]) / len(data)),
    ]
    print_table("8 MB file, full lifetime (3-r -> EC(6,9) -> EC(12,15))",
                ["metric", "baseline HDFS", "Morph"], rows)
    disk_cut = 1 - m["disk_total"] / b["disk_total"]
    net_cut = 1 - m["network"] / b["network"]
    print(f"\nMorph: {disk_cut:.0%} less disk IO, {net_cut:.0%} less network IO"
          f" (paper Fig 11: 58% / 55%).")
    # Both filesystems end whole: namenode and datanodes agree, every
    # stored byte carries its sum, every parity encodes its data.
    for fs in (baseline, morph):
        assert audit(fs) == [], audit(fs)
    print("audit: both filesystems whole, 0 violations.")


if __name__ == "__main__":
    main()
