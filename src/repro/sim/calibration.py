"""Calibration constants for the performance simulation.

Fit to the paper's measured anchors on a 23-Datanode HDD cluster:

* 8 MB 3-r write: p90 ~ 191 ms (Fig 3 / Fig 13a)
* 8 MB RS(6,9) write: p90 ~ 732 ms (~4x 3-r; ~6x at the median under load)
* 8 MB read: 3-r p90 ~ 265 ms; RS(6,9) p90 ~ 402 ms degraded ~ +52% (Fig 14)
* 95% of async hybrid parities persist within 500 ms (Fig 13c)

The constants are per-operation software+device service times; protocol
structure (pipeline depth, fan-out width, what sits on the critical
path) does the differentiating work.
"""

from __future__ import annotations

MB = 1024 * 1024


class SimCalibration:
    """Service-time parameters, all in seconds: constants, fit once."""

    # Per-node software overhead of absorbing a replicated/streamed block
    # into the buffer cache (HDFS pipeline stage).
    replica_absorb_median_s = 0.062
    replica_absorb_sigma = 0.55
    #: effective per-node pipeline ingest bandwidth (HDFS receive path is
    #: far below wire speed: checksumming, packet handling, copying).
    pipeline_mb_s = 800.0

    # Per-node overhead of an EC chunk write: synchronous cell handling,
    # smaller writes, more seeks. Applied per chunk on the stripe path.
    ec_write_median_s = 0.075
    ec_write_sigma = 0.32

    # Disk service: positioning + transfer.
    disk_seek_median_s = 0.0085
    disk_seek_sigma = 0.45
    disk_bandwidth_mb_s = 120.0

    # Read-side software overhead per chunk request.
    read_overhead_median_s = 0.024
    read_overhead_sigma = 0.55

    # Striped (EC) reads pay more per chunk: k remote block opens, cell
    # reassembly, no hedging alternative. Applied per stripe chunk.
    ec_read_overhead_median_s = 0.050
    ec_read_overhead_sigma = 0.60

    # Degraded-mode decode rate (Java HDFS codec, per unit matrix width).
    decode_mb_s = 60.0

    # Client / Datanode GF(256) coding rate per unit generator width.
    encode_mb_s = 1400.0

    # Network (40 GbE).
    net_rtt_s = 0.0002
    net_bandwidth_mb_s = 4500.0

    # Hedged read trigger: issue a second request at this deadline.
    hedge_deadline_s = 0.220

    # Background parity persistence delay (Fig 13c).
    striper_poll_s = 0.050

    def disk_time(self, rng, size_bytes: float) -> float:
        import numpy as np

        seek = rng.lognormal(np.log(self.disk_seek_median_s), self.disk_seek_sigma)
        return seek + size_bytes / (self.disk_bandwidth_mb_s * MB)

    def absorb_time(self, rng, size_bytes: float) -> float:
        import numpy as np

        base = rng.lognormal(
            np.log(self.replica_absorb_median_s), self.replica_absorb_sigma
        )
        return base + size_bytes / (self.pipeline_mb_s * MB)

    def ec_write_time(self, rng, size_bytes: float) -> float:
        import numpy as np

        base = rng.lognormal(np.log(self.ec_write_median_s), self.ec_write_sigma)
        return base + size_bytes / (self.disk_bandwidth_mb_s * MB)

    def read_overhead(self, rng) -> float:
        import numpy as np

        return rng.lognormal(
            np.log(self.read_overhead_median_s), self.read_overhead_sigma
        )

    def net_time(self, size_bytes: float) -> float:
        return self.net_rtt_s + size_bytes / (self.net_bandwidth_mb_s * MB)

    def encode_time(self, width: int, parities: int, size_bytes: float) -> float:
        return width * parities * size_bytes / (self.encode_mb_s * MB)

    def decode_time(self, width: int, missing: int, size_bytes: float) -> float:
        return width * missing * size_bytes / (self.decode_mb_s * MB)

    def ec_read_overhead(self, rng) -> float:
        import numpy as np

        return rng.lognormal(
            np.log(self.ec_read_overhead_median_s), self.ec_read_overhead_sigma
        )
