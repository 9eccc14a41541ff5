"""Golden pins for the corpus driver on the full 1327-loop suite.

Each case schedules ``loop_suite(1327, seed)`` against the reduced
cydra5-subset description through :class:`CorpusScheduler` (the
``batch`` representation: one shared compilation, columnar window
scans) and pins:

* the sha256 of ``repr(result.signatures())`` — every loop's II,
  placements and chosen alternatives, in suite order;
* the exact ``work.units`` and ``work.calls`` maps of the merged run.

Any rewrite of the batch plane or the corpus driver must keep both
byte-identical: schedules and the ``batch`` charge rule are the
contract, the column store behind them is not.
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
        {"assign&free": 42550, "batch": 21275, "compile": 8326,
         "free": 3536},
        {"assign&free": 21275, "batch": 21275, "compile": 4672,
         "free": 1768},
    ),
    7919: (
        "234e6c3ba2075e3c68a23cc120786df20bc273a527ec65db2da4b894168e8487",
        {"assign&free": 43136, "batch": 21568, "compile": 8992,
         "free": 2750},
        {"assign&free": 21568, "batch": 21568, "compile": 5040,
         "free": 1375},
    ),
}


@pytest.fixture(scope="module")
def reduced():
    return reduce_machine(cydra5_subset()).reduced


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_corpus_suite_is_pinned(reduced, seed):
    digest, units, calls = GOLDEN[seed]
    result = CorpusScheduler(reduced).schedule_suite(loop_suite(1327, seed))
    signatures = repr(result.signatures()).encode("utf-8")
    assert hashlib.sha256(signatures).hexdigest() == digest
    assert dict(result.work.units) == units
    assert dict(result.work.calls) == calls
