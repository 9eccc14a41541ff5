"""Golden pins for Algorithm 1 (the generating set of maximal resources).

Every digest below was computed with the frozenset implementation of
``build_generating_set`` and must survive any rewrite of its internals.
A digest covers the resources in *returned order* (each resource's
usages sorted): selection breaks ties by resource index, so the order is
part of what the reduction's output depends on.

Pinned:

* the generating set of every built-in machine and of fuzz ``deep``
  machines 0-23;
* the ``BudgetExceeded`` raised on the deep machines that exhaust a
  150000-unit cap: units charged, progress and the partial resource list;
* textbook mode (``prune_subsets_every=None``) on the small machines,
  including every intermediate step of the trace;
* the paper's Figure-3 trace of the example machine, rule by rule.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import machines
from repro.core import ForbiddenLatencyMatrix, build_generating_set
from repro.errors import BudgetExceeded
from repro.fuzz.mdlgen import DEEP, generate_machine
from repro.resilience.budget import Budget

BUILTINS = {
    "example": machines.example_machine,
    "single-op": machines.single_op_machine,
    "independent-ops": machines.independent_ops_machine,
    "alternatives": machines.alternatives_machine,
    "dense-conflict": machines.dense_conflict_machine,
    "issue-limited": machines.issue_limited_machine,
    "empty-op": machines.empty_op_machine,
    "cydra5-subset": machines.cydra5_subset,
    "alpha21064": machines.alpha21064,
    "mips-r3000": machines.mips_r3000,
    "playdoh": machines.playdoh,
    "buffered-pu": machines.buffered_pu,
    "clustered-vliw": machines.clustered_vliw,
    "cydra5": machines.cydra5,
}

#: Machines small enough to run without periodic subset pruning.
SMALL = (
    "example", "single-op", "independent-ops", "alternatives",
    "dense-conflict", "issue-limited", "empty-op", "cydra5-subset",
    "alpha21064", "playdoh", "buffered-pu", "clustered-vliw",
)

DEEP_CAP = 150_000


def _usages(resource):
    return None if resource is None else sorted(resource)


def digest(resources) -> str:
    """sha256 prefix of the resource list, order kept, usages sorted."""
    text = json.dumps([_usages(r) for r in resources])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def trace_rows(steps):
    """One ``(pair, rules, resources)`` row per trace step."""
    return [
        (
            _usages(step.pair),
            [(a.rule, _usages(a.target), _usages(a.result))
             for a in step.applications],
            [_usages(r) for r in step.resources],
        )
        for step in steps
    ]


def trace_digest(steps) -> str:
    text = json.dumps(trace_rows(steps))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def builtin_matrix(name):
    return ForbiddenLatencyMatrix.from_machine(BUILTINS[name]())


def deep_matrix(index):
    return ForbiddenLatencyMatrix.from_machine(generate_machine(index, DEEP))


def capped_run(index):
    """``(units, progress, partial digest)`` of a capped deep machine."""
    with pytest.raises(BudgetExceeded) as info:
        build_generating_set(deep_matrix(index), budget=Budget(max_units=DEEP_CAP))
    error = info.value
    assert error.phase == "generating_set"
    return error.units, error.progress, digest(error.partial)


BUILTIN_DIGESTS = {
    "alpha21064": "719a40d4a2af4909",
    "alternatives": "693b1b4b985e00c8",
    "buffered-pu": "00f546c0433b0a0b",
    "clustered-vliw": "84415ae98bcdad21",
    "cydra5": "5a7c700feb329d25",
    "cydra5-subset": "57c23f52ecaeba1e",
    "dense-conflict": "950f9a811daa773c",
    "empty-op": "578aff2c3cf936a8",
    "example": "9f28b4b22a7e1a1c",
    "independent-ops": "d347f2715798b0b2",
    "issue-limited": "e4be5b4b48e0d562",
    "mips-r3000": "a1c24e90e3897ad0",
    "playdoh": "ff23a0c66dcfcbb9",
    "single-op": "bd27ed65e0b925d8",
}

DEEP_DIGESTS = {
    0: "fe76eb3280bf7c8f",
    1: "c60dd2ac7b596d19",
    2: "0f848ca173a1414c",
    3: "b622cf53911f75e0",
    4: "d4c94ba33eac9c98",
    5: "36c4e33f829c615a",
    6: "c9bf630ee57c47ef",
    7: "70afa9eebe705aea",
    8: "b2b5f7bd49586376",
    9: "9e8910758bbe79a8",
    10: "25313b213a456a6b",
    11: "a37e8510ae7cadcf",
    12: "dd661d4fda945d2d",
    13: "6f6c965f899c9624",
    14: "5da4eabe8168f5a2",
    15: "c709910874571fbd",
    16: "690c25fb9fec554e",
    17: "6040df23039c0780",
    18: "6bb3cca7b488aaf3",
    19: "2f5efee6350197d9",
    20: "624baf8cf969adc9",
    21: "cf7ba64c98ee2b72",
    22: "d3d1ec98f174cc4f",
    23: "24cd366609345570",
}

CAPPED = {
    4: (151482, "296/307 pairs", "5c46a08527591b68"),
    12: (150637, "288/475 pairs", "45ebd72653e49c9a"),
    17: (151470, "300/1107 pairs", "7d58d1b71d922615"),
    21: (150140, "255/493 pairs", "ff817eba6beeba40"),
    22: (150752, "288/673 pairs", "ba594f800bb13d8f"),
}

#: ``name -> (result digest, trace digest)`` with pruning disabled.
TEXTBOOK = {
    "alpha21064": ("719a40d4a2af4909", "ca9a44802131d45c"),
    "alternatives": ("693b1b4b985e00c8", "858ef31316f5f1e3"),
    "buffered-pu": ("00f546c0433b0a0b", "8b4b33d0cfe3f148"),
    "clustered-vliw": ("84415ae98bcdad21", "9e4f51b4b559fa5d"),
    "cydra5-subset": ("57c23f52ecaeba1e", "d5163e3acc74c015"),
    "dense-conflict": ("950f9a811daa773c", "c423163b0373edc4"),
    "empty-op": ("578aff2c3cf936a8", "6f3c139f64b55e2e"),
    "example": ("9f28b4b22a7e1a1c", "e9fd8013b1068968"),
    "independent-ops": ("d347f2715798b0b2", "deb3bf2e83d451b7"),
    "issue-limited": ("e4be5b4b48e0d562", "18f9a9680176e15e"),
    "playdoh": ("ff23a0c66dcfcbb9", "4b623ed27166b991"),
    "single-op": ("bd27ed65e0b925d8", "63f02a22d619f06f"),
}

#: Figure 3: the example machine's four elementary pairs, the rules each
#: one fires (rule, target, result) and the generating set after it.
FIGURE3 = [
    (
        [("A", 1), ("B", 0)],
        [(3, None, [("A", 1), ("B", 0)])],
        [[("A", 1), ("B", 0)]],
    ),
    (
        [("B", 0), ("B", 1)],
        [(2, [("A", 1), ("B", 0)], None), (3, None, [("B", 0), ("B", 1)])],
        [[("A", 1), ("B", 0)], [("B", 0), ("B", 1)]],
    ),
    (
        [("B", 0), ("B", 2)],
        [
            (2, [("A", 1), ("B", 0)], None),
            (1, [("B", 0), ("B", 1)], [("B", 0), ("B", 1), ("B", 2)]),
        ],
        [[("A", 1), ("B", 0)], [("B", 0), ("B", 1), ("B", 2)]],
    ),
    (
        [("B", 0), ("B", 3)],
        [
            (2, [("A", 1), ("B", 0)], None),
            (
                1,
                [("B", 0), ("B", 1), ("B", 2)],
                [("B", 0), ("B", 1), ("B", 2), ("B", 3)],
            ),
        ],
        [[("A", 1), ("B", 0)], [("B", 0), ("B", 1), ("B", 2), ("B", 3)]],
    ),
]


@pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
def test_builtin_generating_sets(name):
    assert digest(build_generating_set(builtin_matrix(name))) == BUILTIN_DIGESTS[name]


@pytest.mark.parametrize("index", sorted(DEEP_DIGESTS))
def test_deep_generating_sets(index):
    assert digest(build_generating_set(deep_matrix(index))) == DEEP_DIGESTS[index]


@pytest.mark.parametrize("index", sorted(CAPPED))
def test_capped_deep_machines(index):
    assert capped_run(index) == CAPPED[index]


@pytest.mark.parametrize("name", sorted(TEXTBOOK))
def test_textbook_mode(name):
    steps = []
    resources = build_generating_set(
        builtin_matrix(name), prune_subsets_every=None, trace=steps.append
    )
    assert (digest(resources), trace_digest(steps)) == TEXTBOOK[name]


def test_figure3_trace():
    steps = []
    build_generating_set(builtin_matrix("example"), trace=steps.append)
    assert trace_rows(steps) == FIGURE3


def test_pins_cover_every_case():
    assert sorted(BUILTIN_DIGESTS) == sorted(BUILTINS)
    assert sorted(DEEP_DIGESTS) == list(range(24))
    assert sorted(CAPPED) == [4, 12, 17, 21, 22]
    assert sorted(TEXTBOOK) == sorted(SMALL)
