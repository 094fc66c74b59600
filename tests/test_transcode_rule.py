"""One rule decides a transition, file by file.

:meth:`TranscodePlanner.plan` gives a transition's kind per scheme;
``MorphFS`` applies it to a file, inline and scheduled alike, and goes by
RRW where the file has a group no native plan covers or the target is
hybrid (only ingest lays replica blocks). Each case here used to end
wrong: the misaligned merges raised ``TranscodeError: no native
conversion of 1 width-6 stripes`` after the planner had said convertible,
and the hybrid targets ran as native EC merges that left the file
labelled hybrid with no replica copy. A conversion group moves what its
plan reads and writes, and a plain file's k*-window tiles its own width
when the full window does not fit the cluster.
"""

import numpy as np
import pytest

from repro.codes.convertible import plan_conversion
from repro.core.planner import TranscodeKind, TranscodePlanner
from repro.core.schemes import CodeKind, ECScheme, HybridScheme
from repro.dfs import MorphFS
from repro.dfs.audit import audit
from repro.sched.tasks import ConversionGroupTask, TranscodeFinalizeTask

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)
CC1215 = ECScheme(CodeKind.CC, 12, 15)
BWO67 = ECScheme(CodeKind.CC, 6, 7, anticipate_parities=2)
CC1214 = ECScheme(CodeKind.CC, 12, 14)
LRCC12 = ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2)


def written(source, n_chunks, chunk=4 * KB, future_widths=(6, 12), seed=5):
    """A file of ``n_chunks`` chunks ingested as ``source``; a hybrid
    source is left hybrid, any other ingested as its hybrid and moved
    to it by the free transition."""
    fs = MorphFS(chunk_size=chunk, future_widths=list(future_widths))
    data = np.random.default_rng(seed).integers(0, 256, n_chunks * chunk, dtype=np.uint8)
    if isinstance(source, HybridScheme):
        fs.write_file("f", data, source)
    else:
        fs.write_file("f", data, HybridScheme(1, source))
        fs.transcode("f", source)
    return fs, data


def transcoded(fs, target, scheduled):
    if scheduled:
        fs.schedule_transcode("f", target)
        fs.scheduler.run_until_drained()
    else:
        fs.transcode("f", target)


def assert_rewritten(fs, data, target, read_before):
    meta = fs.namenode.lookup("f")
    assert fs.metrics.disk_bytes_read - read_before >= len(data)  # the client read it all
    assert meta.scheme == target
    assert np.array_equal(fs.read_file("f"), data)
    assert audit(fs) == []


@pytest.mark.parametrize("scheduled", [False, True], ids=["inline", "scheduled"])
@pytest.mark.parametrize(
    "source, target",
    [(BWO67, CC1214), (CC69, LRCC12)],
    ids=["bwo-merge", "cc-to-lrcc"],
)
def test_a_file_whose_last_group_has_no_plan_goes_by_rrw(source, target, scheduled):
    """Three stripes into a width-12 target: the third has no partner.
    The planner's kind is per scheme — convertible — the file's is RRW."""
    assert TranscodePlanner().plan(source, target).kind is TranscodeKind.CONVERTIBLE
    fs, data = written(source, 18)
    read = fs.metrics.disk_bytes_read
    transcoded(fs, target, scheduled)
    assert_rewritten(fs, data, target, read)
    assert "f" not in fs.namenode.utm


@pytest.mark.parametrize("scheduled", [False, True], ids=["inline", "scheduled"])
@pytest.mark.parametrize(
    "source, target",
    [
        (HybridScheme(1, CC69), HybridScheme(2, CC69)),
        (CC69, HybridScheme(1, CC1215)),
    ],
    ids=["more-copies", "ec-to-hybrid"],
)
def test_a_hybrid_target_is_rewritten_with_its_copies(source, target, scheduled):
    assert TranscodePlanner().plan(source, target).kind is TranscodeKind.RRW
    fs, data = written(source, 24)
    read = fs.metrics.disk_bytes_read
    transcoded(fs, target, scheduled)
    assert_rewritten(fs, data, target, read)
    meta = fs.namenode.lookup("f")
    assert meta.replica_blocks
    assert all(len(block.copies) == target.copies for block in meta.replica_blocks)


@pytest.mark.parametrize("future_widths", [[6, 12], [6, 9, 12], [6, 9]], ids=str)
def test_a_window_that_does_not_fit_falls_back_to_a_multiple_of_the_width(future_widths):
    """CC(9,13) with k* = 36 needs 40 nodes of 23: the fallback window
    must still tile width-9 stripes — 18, not 12, which put stripes 1
    and 2 on 11 nodes for 13 chunks."""
    ec = ECScheme(CodeKind.CC, 9, 13)
    fs = MorphFS(chunk_size=12 * KB, future_widths=future_widths)
    data = np.random.default_rng(5).integers(0, 256, 36 * 12 * KB, dtype=np.uint8)
    fs.write_file("f", data, ec)
    assert fs._window(ec) == (18, 4)
    assert np.array_equal(fs.read_file("f"), data)
    assert audit(fs) == []


def test_a_window_that_nothing_fits_is_the_width_itself():
    fs = MorphFS(chunk_size=4 * KB, future_widths=[6, 12])
    for node in fs.cluster.nodes[10:]:
        fs.cluster.fail_node(node.node_id)
    assert fs._window(ECScheme(CodeKind.CC, 9, 13)) == (9, 4)


class TestConversionGroupIO:
    """A scheduled conversion group converts, healthy and with a source
    node down; healthy, it moves on disk exactly what its plan reads and
    writes."""

    CASES = [
        (CC69, CC1215),   # access-optimal merge
        (CC1215, CC69),   # split
        (CC69, LRCC12),   # CC -> LRCC
        (BWO67, CC1214),  # bandwidth-optimal merge
    ]

    @pytest.mark.parametrize("down", [False, True], ids=["healthy", "source-down"])
    @pytest.mark.parametrize(
        "source, target", CASES, ids=["merge", "split", "cc-to-lrcc", "bwo-merge"]
    )
    def test_a_group_moves_what_its_plan_reads_and_writes(self, source, target, down):
        chunk = 4 * KB
        fs, data = written(source, 24, chunk=chunk)
        # Parity 0 of stripe 0: every conversion here reads it, so the
        # group rebuilds it where it is down.
        victim = fs.namenode.lookup("f").stripes[0].parities[0].node_id
        if down:
            fs.cluster.fail_node(victim)
        fs.schedule_transcode("f", target)
        groups = fs.namenode.utm["f"].pending_groups()
        assert groups
        for group in groups:
            meta = fs.namenode.lookup("f")
            stripes = [meta.stripes[i] for i in group.initial_stripe_indices]
            io = plan_conversion(
                source.at_width(stripes[0].k), len(stripes), target
            ).io()
            disk0, net0 = fs.metrics.disk_bytes_total, fs.metrics.net_bytes_total
            assert ConversionGroupTask(group).execute(fs) == "converted"
            if not down:
                assert fs.metrics.disk_bytes_total - disk0 == io.read_bytes(
                    chunk
                ) + io.write_bytes(chunk)
            if (source, target, down) == (CC69, CC1215, False):
                # Six parity reads and three writes; on the network at
                # most the six parities (they are local).
                assert fs.metrics.disk_bytes_total - disk0 == 9 * chunk
                assert fs.metrics.net_bytes_total - net0 <= 6 * chunk
        assert TranscodeFinalizeTask("f").execute(fs) == "finalized"
        assert fs.namenode.lookup("f").scheme == target
        assert np.array_equal(fs.read_file("f"), data)
        if down:
            fs.cluster.recover_node(victim)
            fs.drop_unlisted(victim)
        assert audit(fs) == []
