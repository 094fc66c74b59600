"""Fig 15: transcode compute and read latency, CC vs RS, three scenarios.

Paper (20 x 96 MB files in parallel): (A) EC(6,9)->EC(12,15): CC halves
compute (6-wide vs 12-wide matrix) and cuts read latency ~40%; (B)
EC(6,7)->EC(12,14): CC reads 33% less data but pays extra compute to
separate piggybacks; (C) EC(6,9)->LRC(12,2,2): ~30% read / ~50% compute
cuts. This module also times the *real* GF(256) codecs (pytest-benchmark)
to confirm the computational claim outside the simulator.
"""

import numpy as np
import pytest

from repro.bench import experiments as E
from repro.bench.reporting import print_table
from repro.codes.convertible import ConvertibleCode, convert, plan_conversion
from repro.core.schemes import CodeKind, ECScheme


def test_fig15_simulated_latencies(once):
    result = once(E.fig15_transcode)
    rows = []
    for label, res in result.items():
        rows.append((label, res["rs"]["read_p50_ms"], res["cc"]["read_p50_ms"],
                     res["rs"]["compute_p50_ms"], res["cc"]["compute_p50_ms"]))
    print_table("Fig 15: transcode latency (20 x 96 MB files)",
                ["scenario", "RS read", "CC read", "RS compute", "CC compute"], rows)

    a = result["EC(6,9)->EC(12,15)"]
    assert a["cc"]["read_p50_ms"] < 0.75 * a["rs"]["read_p50_ms"]      # ~-40%
    assert a["cc"]["compute_p50_ms"] == pytest.approx(
        0.5 * a["rs"]["compute_p50_ms"], rel=0.2)                       # ~-50%
    b = result["EC(6,7)->EC(12,14)"]
    assert b["cc"]["compute_p50_ms"] > b["rs"]["compute_p50_ms"]        # slower
    assert b["cc"]["read_p50_ms"] < 1.1 * b["rs"]["read_p50_ms"]        # not worse
    c = result["EC(6,9)->LRC(12,2,2)"]
    assert c["cc"]["read_p50_ms"] < 0.8 * c["rs"]["read_p50_ms"]        # ~-30%
    assert c["cc"]["compute_p50_ms"] < 0.7 * c["rs"]["compute_p50_ms"]  # ~-50%


@pytest.fixture(scope="module")
def merge_inputs():
    rng = np.random.default_rng(0)
    cc6 = ConvertibleCode(6, 9)
    cc12 = ConvertibleCode(12, 15)
    stripes, alldata = [], []
    for _ in range(2):
        data = [rng.integers(0, 256, 256 * 1024, dtype=np.uint8) for _ in range(6)]
        alldata.extend(data)
        stripes.append(cc6.encode_stripe(data))
    plan = plan_conversion(ECScheme(CodeKind.CC, 6, 9), 2, ECScheme(CodeKind.CC, 12, 15))
    return cc6, cc12, stripes, alldata, plan


def test_fig15_real_codec_cc_merge_compute(benchmark, merge_inputs):
    """Real GF(256) wall time of the CC parity merge (6 parity inputs)."""
    cc6, cc12, stripes, _alldata, plan = merge_inputs
    out, _io = benchmark(convert, cc6, cc12, stripes, plan)
    assert len(out) == 1


def test_fig15_real_codec_rs_reencode_compute(benchmark, merge_inputs):
    """Real GF(256) wall time of the RS re-encode (12 data inputs)."""
    _cc6, cc12, _stripes, alldata, _plan = merge_inputs
    parities = benchmark(cc12.encode, alldata)
    assert len(parities) == 3
