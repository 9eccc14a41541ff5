"""Golden pins for the corpus driver on the full 1327-loop suite.

Each case schedules ``loop_suite(1327, seed)`` against the reduced
cydra5-subset description through :class:`CorpusScheduler` (its default
``discrete`` representation, the path a loop scheduled alone takes) and
pins:

* the sha256 of ``repr(result.signatures())`` — every loop's II,
  placements and chosen alternatives, in suite order;
* the exact ``work.units`` and ``work.calls`` maps of the merged run.

Any rewrite of the corpus driver, the scheduler or the discrete query
module must keep both byte-identical.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.reduce import reduce_machine
from repro.machines import cydra5_subset
from repro.scheduler.corpus import CorpusScheduler
from repro.workloads import loop_suite

GOLDEN = {
    0: (
        "893695dd745243a3a5581ccb334eb505f6f53201bf46b94ab3d4fc663380b88c",
        {"check": 90783, "assign&free": 45833, "free": 1832},
        {"check": 64934, "assign&free": 21275, "free": 1768},
    ),
    7919: (
        "234e6c3ba2075e3c68a23cc120786df20bc273a527ec65db2da4b894168e8487",
        {"check": 93540, "assign&free": 46913, "free": 1414},
        {"check": 66907, "assign&free": 21568, "free": 1375},
    ),
}


@pytest.fixture(scope="module")
def reduced():
    return reduce_machine(cydra5_subset()).reduced


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_corpus_suite_is_pinned(reduced, seed):
    digest, units, calls = GOLDEN[seed]
    result = CorpusScheduler(reduced).schedule_suite(loop_suite(1327, seed))
    assert result.representation == "discrete"
    signatures = repr(result.signatures()).encode("utf-8")
    assert hashlib.sha256(signatures).hexdigest() == digest
    assert dict(result.work.units) == units
    assert dict(result.work.calls) == calls
