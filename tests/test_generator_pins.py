"""Generator and family pins: the bytes every code's generator is made
of, and the points each GF(2^8) family has at its ceiling, as sha256 /
values recorded before GF(2^16) and GF(2^8) became two values of one
field type. A change to the field arithmetic, the Vandermonde matrix or
the point lookup that moves any stored parity fails here first."""

import hashlib

import numpy as np
import pytest

from repro.codes.bandwidth import BandwidthOptimalCC
from repro.codes.convertible import ConvertibleCode
from repro.codes.lrc import LocalReconstructionCode
from repro.codes.lrcc import LocallyRecoverableConvertibleCode
from repro.codes.pointsearch import FAMILY, MAX_FEASIBLE_WIDTH
from repro.codes.rs import ReedSolomon
from repro.codes.wide import WideConvertibleCode

GENERATORS = {
    "RS(6,9)": (
        lambda: ReedSolomon(6, 9),
        "890abad94866755f7bbe95ae7d3829821b61f7bcfefe1bc50a2733391f864c55",
    ),
    "CC(6,9)": (
        lambda: ConvertibleCode(6, 9),
        "c9da1bae78c00b66a694ec9c3c83b7c3ccbd95a34567c67f215f2bd6f3307c88",
    ),
    "CC(12,15)": (
        lambda: ConvertibleCode(12, 15),
        "a2a7fa4f01c8a03d751dcc01f8cc14d37360ae500172cf3ea70ecf6de399ae06",
    ),
    "CC(12,14)": (
        lambda: ConvertibleCode(12, 14),
        "6b477a29dcaefce42bd39c91960e7bd703d3a57f618482a7b2b5e2dd1fe90abd",
    ),
    "LRC(12,2,2)": (
        lambda: LocalReconstructionCode(12, 2, 2),
        "eed951dccff82528b05322e9319e89e49dc8575b2909511b320b758a8e59d17c",
    ),
    "LRCC(12,2,2)": (
        lambda: LocallyRecoverableConvertibleCode(12, 2, 2),
        "732b8d774ba7544318b5f3ef4ac33b1c0310ff2b218fff2a643b056691a1bc65",
    ),
    # Its clean parity rows are CC(6,9)'s: the r = 4 chain's prefix.
    "BWO(6,3->4)@12": (
        lambda: BandwidthOptimalCC(6, 3, 4, family_width=12),
        "c9da1bae78c00b66a694ec9c3c83b7c3ccbd95a34567c67f215f2bd6f3307c88",
    ),
    "wide CC(6,9)": (
        lambda: WideConvertibleCode(6, 9),
        "bd03b091b2fdfd4b28622f63a54c9ade26bef913e9a3e35e6df90c01858803b4",
    ),
    "wide CC(17,20)@34": (
        lambda: WideConvertibleCode(17, 20, family_width=34),
        "4f7591890844276f3809faaeafda19585e598b095e2fe207090c684cb65685b2",
    ),
    "wide CC(34,37)@34": (
        lambda: WideConvertibleCode(34, 37, family_width=34),
        "d7092e91b2235121b44acf6579189092ba9938359ef7ee488acf8bf17e390001",
    ),
}


@pytest.mark.parametrize("name", list(GENERATORS))
def test_generator_bytes_are_pinned(name):
    make, digest = GENERATORS[name]
    generator = np.ascontiguousarray(make().generator)
    assert generator.dtype == (np.uint16 if name.startswith("wide") else np.uint8)
    assert hashlib.sha256(generator.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("r,points", [
    (2, [1, 135]),
    (3, [1, 135, 188]),
    (4, [1, 135, 188, 141]),
    (5, [1, 135, 188, 141, 159]),
])
def test_family_points_at_each_ceiling_are_pinned(r, points):
    assert FAMILY.points(r, MAX_FEASIBLE_WIDTH[r]) == points
