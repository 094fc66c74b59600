"""Placement policies: k*-window separation, parity co-location."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.placement import (
    DefaultPlacement,
    PlacementError,
    TranscodeAwarePlacement,
)
from repro.cluster.topology import Cluster, ClusterSpec


def cluster(n=23):
    return Cluster(ClusterSpec(n_datanodes=n))


class TestDefaultPlacement:
    def test_stripe_nodes_distinct(self):
        p = DefaultPlacement(cluster(), seed=1)
        spots = p.place_stripe("f", 0, 6, 3)
        nodes = spots["data"] + spots["parity"]
        assert len(set(nodes)) == 9

    def test_exclusions_respected(self):
        p = DefaultPlacement(cluster(), seed=2)
        exclude = [f"dn{i:03d}" for i in range(20)]
        picked = p.pick_nodes(3, exclude=exclude)
        assert not set(picked) & set(exclude)

    def test_too_many_exclusions_raise(self):
        p = DefaultPlacement(cluster(5), seed=3)
        with pytest.raises(PlacementError):
            p.pick_nodes(3, exclude=[f"dn{i:03d}" for i in range(4)])

    def test_dead_nodes_skipped(self):
        c = cluster(10)
        c.fail_node("dn000")
        p = DefaultPlacement(c, seed=4)
        for _ in range(20):
            assert "dn000" not in p.pick_nodes(5)


class TestTranscodeAwarePlacement:
    def test_window_nodes_distinct(self):
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=4, seed=5)
        nodes = [p.data_node("f", t) for t in range(12)]
        assert len(set(nodes)) == 12

    def test_future_merge_partners_never_collide(self):
        """Any stripe of any width dividing k* has distinct homes."""
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=4, seed=6)
        for width in (3, 4, 6, 12):
            for stripe in range(4):
                nodes = [
                    p.data_node("f", stripe * width + t) for t in range(width)
                ]
                assert len(set(nodes)) == width, (width, stripe)

    def test_parity_co_location_across_merge_partners(self):
        """Parity j of all stripes in one k*-window shares a node (§5.3)."""
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=3, seed=7)
        for j in range(3):
            homes = {p.parity_node("f", chunk, j) for chunk in range(12)}
            assert len(homes) == 1

    def test_parity_and_data_never_overlap(self):
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=4, seed=8)
        data = {p.data_node("f", t) for t in range(12)}
        parity = {p.parity_node("f", 0, j) for j in range(4)}
        assert not data & parity

    def test_different_windows_resample(self):
        p = TranscodeAwarePlacement(cluster(), k_star=6, r_star=3, seed=9)
        w0 = [p.data_node("f", t) for t in range(6)]
        w1 = [p.data_node("f", 6 + t) for t in range(6)]
        assert len(set(w0)) == 6 and len(set(w1)) == 6

    def test_different_files_independent(self):
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=3, seed=10)
        a = [p.data_node("a", t) for t in range(12)]
        b = [p.data_node("b", t) for t in range(12)]
        assert a != b  # overwhelmingly likely with distinct windows

    def test_parity_index_beyond_reserved_raises(self):
        p = TranscodeAwarePlacement(cluster(), k_star=6, r_star=2, seed=11)
        with pytest.raises(PlacementError):
            p.parity_node("f", 0, 2)

    def test_cluster_too_small_raises(self):
        with pytest.raises(PlacementError):
            TranscodeAwarePlacement(cluster(10), k_star=12, r_star=4)

    def test_every_window_of_a_long_file_is_distinct(self):
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=4, seed=12)
        for start in range(0, 48, 12):
            assert len({p.data_node("f", t) for t in range(start, start + 12)}) == 12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000))
    def test_placement_invariant_property(self, seed):
        """For random seeds: every k*-window fully distinct, parities
        co-located per j, data/parity disjoint per window."""
        p = TranscodeAwarePlacement(cluster(), k_star=10, r_star=3, seed=seed)
        for window in range(3):
            base = window * 10
            data = [p.data_node("f", base + t) for t in range(10)]
            assert len(set(data)) == 10
            parities = {p.parity_node("f", base, j) for j in range(3)}
            assert len(parities) == 3
            assert not set(data) & parities

    def test_place_stripe_consistent_with_chunk_queries(self):
        p = TranscodeAwarePlacement(cluster(), k_star=12, r_star=3, seed=13)
        spots = p.place_stripe("f", stripe_index=1, k=6, r=3)
        assert spots["data"] == [p.data_node("f", 6 + t) for t in range(6)]
        assert spots["parity"] == [p.parity_node("f", 6, j) for j in range(3)]


class TestRackAwareness:
    def test_small_stripe_spans_max_racks(self):
        c = cluster(23)  # 4 racks by default
        p = DefaultPlacement(c, seed=21)
        for _ in range(10):
            spots = p.place_stripe("f", 0, 4, 0)
            racks = {c.node(n).rack for n in spots["data"]}
            assert len(racks) == 4  # one chunk per rack

    def test_wide_stripe_spreads_evenly(self):
        c = cluster(23)
        p = DefaultPlacement(c, seed=22)
        spots = p.place_stripe("f", 0, 8, 4)
        nodes = spots["data"] + spots["parity"]
        per_rack = {}
        for n in nodes:
            per_rack[c.node(n).rack] = per_rack.get(c.node(n).rack, 0) + 1
        assert max(per_rack.values()) - min(per_rack.values()) <= 1

    def test_transcode_aware_windows_also_spread(self):
        c = cluster(23)
        p = TranscodeAwarePlacement(c, k_star=12, r_star=3, seed=24)
        nodes = [p.data_node("f", t) for t in range(12)]
        racks = {c.node(n).rack for n in nodes}
        assert len(racks) == 4

    def test_survives_rack_failure(self):
        """A CC(6,9) stripe placed rack-aware survives losing one rack."""
        import numpy as np

        from repro.core.schemes import CodeKind, ECScheme
        from repro.dfs import MorphFS

        fs = MorphFS(chunk_size=4 * 1024, future_widths=[6])
        data = np.random.default_rng(9).integers(0, 256, 24 * 1024, dtype=np.uint8)
        fs.write_file("f", data, ECScheme(CodeKind.CC, 6, 9))
        # Fail every node of rack 0.
        for node in fs.cluster.nodes:
            if node.rack == 0:
                fs.cluster.fail_node(node.node_id)
                fs.datanodes[node.node_id].fail()
        assert np.array_equal(fs.read_file("f"), data)
