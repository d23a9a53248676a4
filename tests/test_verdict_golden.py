"""Byte-exact verdicts of ``analyze``, with the spectrum entries each kernel matched.

``BifurcationVerdict.to_json`` does not carry ``KernelReps.matched``, so each
spec's verdicts are pinned here by the sha256 of their JSON together with
every kernel's matched entries as (eigenvalue, angular_index, root_index),
in order.  The first three specs and windows are the seed-1 inputs of the
verdicts workload of ``perfbench/workloads.py``, on one disk loaded as far
as that workload loads it; the fourth has three blocks within 1.2e-8 of
each other, so pairs fuse into kernels of two and three matches.
"""

import hashlib
import json
from collections import Counter

import pytest

from symbif import DiskDomain, SystemSpec, analyze

#: name -> (SystemSpec arguments, window, number of candidates by matched entries, sha256)
GOLDEN = {
    "a9-even": (
        dict(p1=2, p2=2, sigma_b1={1: 2}, sigma_b2={1: 2}, mu_b0=0, a9=True),
        (-1198.4255160786702, 1198.4255160786702),
        {1: 326, 2: 1},
        "f732f0dbe8c6e11e53cd4e0cd9eee87c1e217b456fb2cf74f608c2e002348a71",
    ),
    "a9-odd": (
        dict(p1=4, p2=1, sigma_b1={0: 1, 1: 3}, sigma_b2={1: 1}, mu_b0=1, a9=True),
        (-1197.8748022190362, 1197.8748022190362),
        {1: 326, 2: 1},
        "5efc2d6367e18aca9c201b0f4f19024b73464a0c5180aac361239d2e91b69002",
    ),
    "general": (
        dict(
            p1=2,
            p2=3,
            sigma_b1={0.50048828125: 1, -0.75048828125: 1},
            sigma_b2={1.250732421875: 2, -0.37548828125: 1},
        ),
        (-798.128698340376, 798.128698340376),
        {1: 322, 4: 1},
        "9470c9723cc47a3fa05333198e68a74587099ba85db58fb804e034378576a14b",
    ),
    "near-band": (
        dict(p1=3, p2=0, sigma_b1={1: 1, 1 + 6e-9: 1, 1 + 1.2e-8: 1}),
        (-60.0, 60.0),
        {2: 20, 3: 1},
        "23e45cef6e52fd8495e1f59876158ade074f41a6aa5a42aba7e2fc1de99814ba",
    ),
}

#: how far the verdicts workload loads its disk for the seed-1 windows
COVERAGE = 1200.6239415947487


@pytest.fixture(scope="module")
def disk():
    domain = DiskDomain()
    domain.entries_up_to(COVERAGE)
    return domain


def digest(verdicts) -> str:
    doc = [
        [v.to_json(), [[e.eigenvalue, e.angular_index, e.root_index] for e in v.kernel.matched]] for v in verdicts
    ]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_verdicts_and_matched_entries(disk, name):
    args, window, hits, sha = GOLDEN[name]
    verdicts = analyze(SystemSpec(**args, domain=disk), window)
    assert Counter(len(v.kernel.matched) for v in verdicts) == hits
    assert digest(verdicts) == sha
