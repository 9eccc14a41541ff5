"""HPL PlayDoh-flavoured research VLIW (Kathail, Schlansker & Rau 1994).

The paper cites PlayDoh as one of the research architectures the IMPACT
compiler's query module targeted.  This model follows the PlayDoh
architecture specification's canonical configuration: a wide EPIC-style
machine with clustered integer units, separate float/memory/branch units,
and explicit inter-cluster communication — useful here as a *fourth*
study machine exercising wider issue than the Cydra 5.

Structure (one cluster pair):

* 4 integer ALUs (``i0..i3``), fully pipelined, latency 1;
* 2 floating units running FMA-style ops at latency 4 (pipelined) plus a
  non-pipelined divide (hold 16/30);
* 2 memory ports, load latency 8, stores buffered;
* 1 branch unit with 2 delay-slot fetch bubbles;
* a pair of cross-cluster move buses.

Integer ops are 4-way alternatives (any ALU), loads/stores 2-way,
floating ops 2-way — a heavier alternative mix than the Cydra 5, which
stresses ``check_with_alternatives`` policies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.machine import MachineBuilder, MachineDescription
from repro.machines._tables import merge, span


def _unit_variants(
    prefix: str, count: int, usages: Dict[str, List[int]]
) -> Sequence[Dict[str, List[int]]]:
    """One variant per unit instance; "@" resources are per-unit."""
    variants = []
    for index in range(count):
        unit = "%s%d" % (prefix, index)
        renamed = {"%s.issue" % unit: [0]}
        for resource, cycles in usages.items():
            if resource.startswith("@"):
                renamed["%s.%s" % (unit, resource[1:])] = list(cycles)
            else:
                renamed.setdefault(resource, []).extend(cycles)
        variants.append(renamed)
    return variants


#: Result latencies for PlayDoh workloads (base opcode names).
PLAYDOH_LATENCIES: Dict[str, int] = {
    "ialu": 1,
    "icmpp": 2,
    "ishift": 2,
    "fma": 4,
    "fdiv_s": 18,
    "fdiv_d": 32,
    "ld": 8,
    "st": 1,
    "pbr": 1,
    "br": 1,
    "xmove": 2,
}


def playdoh() -> MachineDescription:
    """The PlayDoh-flavoured wide VLIW."""
    b = MachineBuilder("playdoh")

    # Integer ALUs: 4-way alternatives, latency 1, shared predicate bus
    # for compare-to-predicate ops.
    b.operation_with_alternatives(
        "ialu", _unit_variants("i", 4, {"@ex": [1]})
    )
    b.operation_with_alternatives(
        "icmpp", _unit_variants("i", 4, {"@ex": [1], "pred.wbus": [2]})
    )
    # Shifts take two ALU passes on the lower pair only.
    b.operation_with_alternatives(
        "ishift", _unit_variants("i", 2, {"@ex": [1, 2]})
    )

    # Floating units: pipelined FMA at latency 4; non-pipelined divides.
    b.operation_with_alternatives(
        "fma",
        _unit_variants(
            "f", 2, {"@m1": [1], "@m2": [2], "@add": [3], "@wb": [4]}
        ),
    )
    b.operation_with_alternatives(
        "fdiv_s",
        _unit_variants(
            "f", 2, merge(span("@divider", 1, 16), {"@wb": [18]})
        ),
    )
    b.operation_with_alternatives(
        "fdiv_d",
        _unit_variants(
            "f", 2, merge(span("@divider", 1, 30), {"@wb": [32]})
        ),
    )

    # Memory ports: latency-8 loads, buffered stores, shared tag array.
    b.operation_with_alternatives(
        "ld",
        _unit_variants(
            "m", 2, {"@agen": [1], "mem.tags": [2], "@data": [7], "@wb": [8]}
        ),
    )
    b.operation_with_alternatives(
        "st",
        _unit_variants(
            "m", 2, {"@agen": [1], "mem.tags": [2], "@wbuf": [3, 4]}
        ),
    )

    # Branch unit: prepare-to-branch plus the actual branch, which
    # bubbles the fetch stream for two cycles.
    b.operation("pbr", {"br.issue": [0], "br.target": [1]})
    b.operation(
        "br", {"br.issue": [0], "br.target": [1], "fetch.stream": [2, 3]}
    )

    # Cross-cluster moves ride a pair of shared buses.
    b.operation_with_alternatives(
        "xmove", _unit_variants("x", 2, {"@bus": [1, 2]})
    )

    for op, value in PLAYDOH_LATENCIES.items():
        b.latency(op, value)
    return b.build()


#: Opcode mix for PlayDoh basic blocks / loops.
PLAYDOH_MIX = (
    ("ialu", 30),
    ("fma", 25),
    ("ld", 20),
    ("xmove", 8),
    ("icmpp", 7),
    ("ishift", 5),
    ("st", 5),
)
