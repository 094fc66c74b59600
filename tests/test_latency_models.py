"""Sanity of the one set of service-time models, ``repro.sim``'s
:class:`SimCalibration` (disk, network, coding and absorb times)."""

import numpy as np
import pytest

from repro.sim.calibration import SimCalibration

MB = 1024 * 1024


def samples(fn, n=4000, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([fn(rng) for _ in range(n)])


class TestDiskModel:
    def test_service_time_scales_with_size(self):
        cal = SimCalibration()
        small = samples(lambda r: cal.disk_time(r, 64 * 1024)).mean()
        large = samples(lambda r: cal.disk_time(r, 8 * MB)).mean()
        assert large > small + 0.05  # 8 MB adds ~66 ms of transfer

    def test_median_positioning_time(self):
        cal = SimCalibration()
        arr = samples(lambda r: cal.disk_time(r, 0))
        assert np.percentile(arr, 50) == pytest.approx(cal.disk_seek_median_s, rel=0.1)


class TestNetworkAndCpuModels:
    def test_network_transfer_time(self):
        cal = SimCalibration()
        expected = cal.net_rtt_s + 8 * MB / (cal.net_bandwidth_mb_s * MB)
        assert cal.net_time(8 * MB) == pytest.approx(expected)

    def test_cpu_encode_scales_with_width(self):
        cal = SimCalibration()
        assert cal.encode_time(12, 3, MB) == pytest.approx(2 * cal.encode_time(6, 3, MB))


class TestCalibration:
    def test_disk_time_components(self):
        cal = SimCalibration()
        rng = np.random.default_rng(1)
        arr = np.array([cal.disk_time(rng, 8 * MB) for _ in range(2000)])
        transfer = 8 * MB / (cal.disk_bandwidth_mb_s * MB)
        assert np.median(arr) > transfer  # seek adds on top

    def test_encode_decode_asymmetry(self):
        """Decode is far slower than encode (Java HDFS codec reality)."""
        cal = SimCalibration()
        assert cal.decode_time(6, 1, MB) > 5 * cal.encode_time(6, 1, MB)

    def test_ec_read_overhead_exceeds_replica_read_overhead(self):
        cal = SimCalibration()
        rng = np.random.default_rng(2)
        ec = np.median([cal.ec_read_overhead(rng) for _ in range(2000)])
        rep = np.median([cal.read_overhead(rng) for _ in range(2000)])
        assert ec > rep

    def test_absorb_uses_pipeline_bandwidth(self):
        cal = SimCalibration()
        rng = np.random.default_rng(3)
        arr = np.array([cal.absorb_time(rng, 120 * MB) for _ in range(500)])
        floor = 120 * MB / (cal.pipeline_mb_s * MB)
        assert arr.min() > floor
