"""Redundancy scheme descriptors, Appendix-B probability, k*, and the
nominal fault tolerance each scheme claims, pinned against the rank rule."""

import inspect
from itertools import combinations

import numpy as np
import pytest

from repro.core.schemes import (
    CodeKind,
    ECScheme,
    HybridScheme,
    Replication,
    degraded_read_probability,
)
from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.base import ErasureCode
from repro.codes.convertible import ConvertibleCode
from repro.codes.rs import ReedSolomon
from repro.codes.wide import WideConvertibleCode
from repro.dfs import MorphFS


class TestReplication:
    def test_overhead_and_tolerance(self):
        r = Replication(3)
        assert r.storage_overhead == 3.0
        assert r.fault_tolerance == 2
        assert str(r) == "3-r"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Replication(0)


class TestECScheme:
    def test_rs(self):
        ec = ECScheme(CodeKind.RS, 6, 9)
        assert ec.r == 3
        assert ec.storage_overhead == pytest.approx(1.5)
        assert ec.fault_tolerance == 3
        assert str(ec) == "RS(6,9)"

    def test_lrc_layout_validation(self):
        with pytest.raises(ValueError):
            ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=1)  # 12+2+1 != 16
        with pytest.raises(ValueError):
            ECScheme(CodeKind.LRC, 12, 16)  # missing group structure

    def test_lrc_fault_tolerance_is_guaranteed_level(self):
        ec = ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2)
        assert ec.fault_tolerance == 3  # r_global + 1

    def test_make_code_kinds(self):
        from repro.codes import (
            ConvertibleCode,
            LocalReconstructionCode,
            LocallyRecoverableConvertibleCode,
            ReedSolomon,
        )

        assert isinstance(ECScheme(CodeKind.RS, 6, 9).make_code(), ReedSolomon)
        assert isinstance(ECScheme(CodeKind.CC, 6, 9).make_code(), ConvertibleCode)
        assert isinstance(
            ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2).make_code(),
            LocalReconstructionCode,
        )
        assert isinstance(
            ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2).make_code(),
            LocallyRecoverableConvertibleCode,
        )

    def test_convertible_flag(self):
        assert ECScheme(CodeKind.CC, 6, 9).kind.convertible
        assert not ECScheme(CodeKind.RS, 6, 9).kind.convertible


class TestHybrid:
    def test_overheads(self):
        hy = HybridScheme(1, ECScheme(CodeKind.CC, 6, 9))
        assert hy.storage_overhead == pytest.approx(2.5)
        assert str(hy) == "Hy(1,CC(6,9))"

    def test_fault_tolerance_c_plus_r(self):
        hy = HybridScheme(2, ECScheme(CodeKind.CC, 6, 9))
        assert hy.fault_tolerance == 5  # 2 replicas + 3 parities (§4.4)

    def test_cheaper_than_3r(self):
        for k, n in [(5, 6), (6, 9), (12, 15)]:
            hy = HybridScheme(1, ECScheme(CodeKind.CC, k, n))
            assert hy.storage_overhead < 3.0

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            HybridScheme(0, ECScheme(CodeKind.CC, 6, 9))


class TestDegradedReadProbability:
    def test_paper_anchor(self):
        # Appendix B: Hy(1, CC(6,9)) at f=0.01 -> ~0.00009.
        p = degraded_read_probability(0.01, 6, 9, copies=1)
        assert p == pytest.approx(9e-5, rel=0.1)

    def test_monotone_in_f(self):
        ps = [degraded_read_probability(f, 6, 9) for f in (0.001, 0.01, 0.05)]
        assert ps[0] < ps[1] < ps[2]

    def test_more_copies_much_rarer(self):
        p1 = degraded_read_probability(0.01, 6, 9, copies=1)
        p2 = degraded_read_probability(0.01, 6, 9, copies=2)
        assert p2 < p1 / 50

    def test_monte_carlo_agreement(self):
        from repro.bench.experiments import appendix_b

        result = appendix_b(trials=300_000)
        assert result["monte_carlo"] == pytest.approx(result["analytic"], rel=0.5)

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            degraded_read_probability(1.5, 6, 9)


# -- nominal tolerance against the rule ------------------------------------------

KB = 1024
CC69 = ECScheme(CodeKind.CC, 6, 9)


def survived_losses(scheme) -> int:
    """How many node losses a one-group file always survives, found by a
    search over node subsets of an ideal layout (one source per node):
    the size of the smallest lost set that leaves the group's sources
    not ``decodable``, less one."""
    ec = scheme.ec_part
    k = ec.k if ec is not None else 1
    fs = MorphFS(chunk_size=4 * KB, future_widths=[k])
    fs.write_file("f", np.ones(k * 4 * KB, np.uint8), scheme)
    meta = fs.namenode.lookup("f")
    (group,) = meta.hybrid_blocks()
    nodes = [source.node_id for source, _slots in group.sources()]
    assert len(set(nodes)) == len(nodes)
    for size in range(len(nodes) + 1):
        for lost in combinations(nodes, size):
            left = group.slots(lambda c: c.node_id not in lost)
            if not fs.rank_rule(meta, group)(left):
                return size - 1
    raise AssertionError("losing every node left the data readable")


@pytest.mark.parametrize("scheme", [
    ECScheme(CodeKind.RS, 12, 15),
    CC69,
    ECScheme(CodeKind.CC, 12, 15),
    ECScheme(CodeKind.LRC, 12, 16, local_groups=2, r_global=2),
    ECScheme(CodeKind.LRCC, 12, 16, local_groups=2, r_global=2),
    HybridScheme(1, CC69),
    HybridScheme(2, CC69),
    Replication(2),
    Replication(3),
], ids=str)
def test_the_nominal_tolerance_is_what_the_rank_rule_finds(scheme):
    assert survived_losses(scheme) == scheme.fault_tolerance


MDS_CODES = [
    ReedSolomon(4, 7),
    ConvertibleCode(4, 7),
    WideConvertibleCode(4, 7),
    BandwidthOptimalCC(4, 2, 3),
]


@pytest.mark.parametrize("code", MDS_CODES, ids=repr)
def test_counting_answers_as_rank_does_for_an_mds_code(code):
    assert code.is_mds()
    for size in range(code.n + 1):
        for slots in combinations(range(code.n), size):
            assert code.decodable(slots) == code.spans(slots), slots


def test_is_mds_enumerates_every_pattern():
    assert list(inspect.signature(ErasureCode.is_mds).parameters) == ["self"]
