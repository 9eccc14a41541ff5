"""Golden pins for the selection heuristic (paper Step 3).

Every digest below was computed with the ``min(uncovered, ...)`` target
pick of ``select_resources`` and must survive any rewrite of its
internals.  A digest covers the selected usage sets, the generating-set
resource each was carved from, and their order: the reduced machine's
resource names and layout follow that order.

Pinned: the selection over the pruned generating set of every built-in
machine and of fuzz ``deep`` machines 0-23, under ``res-uses`` and under
``word-uses`` with ``k`` = 1, 2 and 4.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import machines
from repro.core import (
    ForbiddenLatencyMatrix,
    build_generating_set,
    prune_covered_resources,
    select_resources,
)
from repro.core.selection import RES_USES, WORD_USES
from repro.fuzz.mdlgen import DEEP, generate_machine

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

#: ``(objective, word_cycles)`` in digest-tuple order.
OBJECTIVES = ((RES_USES, 1), (WORD_USES, 1), (WORD_USES, 2), (WORD_USES, 4))


def digest(selection) -> str:
    """sha256 prefix of resources and origins, order kept, usages sorted."""
    text = json.dumps([
        [sorted(resource) for resource in selection.resources],
        [sorted(origin) for origin in selection.origins],
    ])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(machine):
    """One selection digest per objective of :data:`OBJECTIVES`."""
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    pool = prune_covered_resources(build_generating_set(matrix))
    return tuple(
        digest(select_resources(matrix, pool, objective, word_cycles))
        for objective, word_cycles in OBJECTIVES
    )


BUILTIN_DIGESTS = {
    "alpha21064": (
        "abce7ddd306de3c7",
        "e643b4c7c4c54489",
        "acc65f015612ce3e",
        "5390de9fcb79b263",
    ),
    "alternatives": (
        "8aa042fb2572664a",
        "8aa042fb2572664a",
        "8aa042fb2572664a",
        "8aa042fb2572664a",
    ),
    "buffered-pu": (
        "bdacfcb0c3513f5e",
        "bdacfcb0c3513f5e",
        "bdacfcb0c3513f5e",
        "bdacfcb0c3513f5e",
    ),
    "clustered-vliw": (
        "83a0cfc6201daedc",
        "f3a0d0fcc393077f",
        "f3a0d0fcc393077f",
        "f3a0d0fcc393077f",
    ),
    "cydra5": (
        "25727870953c776c",
        "45f4950cc01db67e",
        "952f6d9cfe3a8c34",
        "952f6d9cfe3a8c34",
    ),
    "cydra5-subset": (
        "1b8f788f78f8e214",
        "1b8f788f78f8e214",
        "1b8f788f78f8e214",
        "1b8f788f78f8e214",
    ),
    "dense-conflict": (
        "a552fa82e21c0cfc",
        "a552fa82e21c0cfc",
        "a552fa82e21c0cfc",
        "a552fa82e21c0cfc",
    ),
    "empty-op": (
        "49ca72c3e71b28ef",
        "49ca72c3e71b28ef",
        "49ca72c3e71b28ef",
        "49ca72c3e71b28ef",
    ),
    "example": (
        "6dd18b210159ef8e",
        "6dd18b210159ef8e",
        "669765ed4dc5bd8e",
        "669765ed4dc5bd8e",
    ),
    "independent-ops": (
        "7ed03535e1aba950",
        "7ed03535e1aba950",
        "7ed03535e1aba950",
        "7ed03535e1aba950",
    ),
    "issue-limited": (
        "e2399be680fa7f0e",
        "e2399be680fa7f0e",
        "e2399be680fa7f0e",
        "e2399be680fa7f0e",
    ),
    "mips-r3000": (
        "0e855ac2ed47aeab",
        "1352d49075ca856c",
        "28a2824169285324",
        "28a2824169285324",
    ),
    "playdoh": (
        "a353e80fc7e2b206",
        "cd6be84287d9f5c4",
        "8012f12d511c1d0d",
        "83a543b81e8849ac",
    ),
    "single-op": (
        "52f3af9a70e1006f",
        "52f3af9a70e1006f",
        "52f3af9a70e1006f",
        "52f3af9a70e1006f",
    ),
}

DEEP_DIGESTS = {
    0: (
        "de7feb71c9351b10",
        "8a55d042205c300c",
        "291503c98e6256b6",
        "22362a249f23c1ec",
    ),
    1: (
        "16def7ddac731063",
        "27c27542ff1ed104",
        "a991ff708ab66851",
        "c65b804be9e2ec66",
    ),
    2: (
        "895fa3ff938201b8",
        "fdb24b7eb0983543",
        "07e8cbbf4a772a84",
        "9c9aac94ef0872bd",
    ),
    3: (
        "b0e5346e9e87add8",
        "c3e66bfbacf4b0eb",
        "c961389cd463c728",
        "311cafeb95ba76fa",
    ),
    4: (
        "b192177235c01261",
        "0d669ef0af2ce530",
        "d412ad50d6230ea9",
        "f82f82d57c083d05",
    ),
    5: (
        "068c0f712b24dbb9",
        "1a6e8e53f74d0f05",
        "70b66e2fb6961726",
        "24a0df13275a395f",
    ),
    6: (
        "ebb2f81ceee59702",
        "322add25c987fe1e",
        "3ca167c231e17e48",
        "4a46e239975dfee3",
    ),
    7: (
        "03adc4f4cf8642b0",
        "d4081c50cac1ddfd",
        "0e5c3a9cf5ee4b69",
        "271aebd8d61f7dcc",
    ),
    8: (
        "f24a2d17c3c02c6b",
        "a6c8fb0c550f914e",
        "c3217bbe18c1b898",
        "c3217bbe18c1b898",
    ),
    9: (
        "4002ec72571b0d8f",
        "57c45cca6cbdfed6",
        "1967ccb28e2fac4d",
        "0e2200a2848fda1c",
    ),
    10: (
        "ab4538936bdf4302",
        "c69d0ab0e656c0a8",
        "c69d0ab0e656c0a8",
        "c69d0ab0e656c0a8",
    ),
    11: (
        "7db79b540d20430e",
        "9e42eaa2b696bb50",
        "4d41bfdbd11e8fda",
        "a5a9689429f48c1a",
    ),
    12: (
        "c7c50f4d0de7ddee",
        "7b3467ee3671b56c",
        "f199ba3f00c16bfc",
        "ac9ed7542e653a8d",
    ),
    13: (
        "eef4242f3f987672",
        "a2fd8805afe1d9fa",
        "a0c7aa97d148704b",
        "17e3f533f909d9b7",
    ),
    14: (
        "9c6c88e9d23d4583",
        "5a08ad7000c8bea0",
        "3bbc7f3e83fb8a26",
        "069e5bce830253e3",
    ),
    15: (
        "7e1320675571b1b1",
        "91432d1a639b90ca",
        "223ab35e6c3e8af5",
        "223ab35e6c3e8af5",
    ),
    16: (
        "74b1e29d261944b2",
        "eb5f6e660b532069",
        "8fa19bd8cc1e762d",
        "ba4f615c7b325c61",
    ),
    17: (
        "a2dcc064f3e5645f",
        "f2acd237030f5104",
        "a0e3fd5280f31b4f",
        "4f6f9de77849ee60",
    ),
    18: (
        "929f0f514bc43f9c",
        "fb3ba87eaf2f9dc9",
        "69a59175352ad3b9",
        "efe9b02fdc369484",
    ),
    19: (
        "522fe6b0d70bc8fc",
        "42fac57d71922ad3",
        "86848c7ebafbe605",
        "249db7812baf4395",
    ),
    20: (
        "d03628a7451f5596",
        "25d01e779a6b07e0",
        "300d4e535585df1b",
        "5504042acc1d9a9d",
    ),
    21: (
        "f68e49e34af65b6c",
        "18609eb1a4a7ef57",
        "ba5fdf4e26c87bf1",
        "c521a456c64bf969",
    ),
    22: (
        "5f2a92186ca0b8af",
        "84c39069d1406ec7",
        "47287d02644400ee",
        "d47f081d93374df3",
    ),
    23: (
        "d2c5a9eddfc4832f",
        "b20ac71dc4236828",
        "750a5ed72c60b26d",
        "adf2789c38cb8347",
    ),
}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_selection_is_pinned(name):
    assert digests(BUILTINS[name]()) == BUILTIN_DIGESTS[name]


@pytest.mark.parametrize("index", range(24))
def test_deep_selection_is_pinned(index):
    assert digests(generate_machine(index, DEEP)) == DEEP_DIGESTS[index]
