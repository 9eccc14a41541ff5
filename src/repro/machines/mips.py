"""MIPS R3000/R3010 machine description.

Reconstructed from the published pipeline structure (Kane & Heinrich,
*MIPS RISC Architecture*) in the spirit of the description Proebsting and
Fraser used (15 operation classes, 428 forbidden latencies, all < 34).  The
R3000 integer unit is a classic five-stage pipeline (IF, RD, EX, MEM, WB);
integer multiply/divide ties up the autonomous HI/LO unit for many cycles
(divide ~34, the source of the largest forbidden latencies); the R3010
floating-point coprocessor has a two-cycle adder, a partially pipelined
multiplier, and a long non-pipelined divider, all sharing one result bus.

The description is deliberately written *structurally*: each operation
reserves every pipeline stage it flows through plus a redundant unit-busy
interlock row — the manual-reduction-prone redundancy the paper's algorithm
removes automatically.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.machine import MachineDescription
from repro.machines._tables import merge, span


_FRONT = {"iu.istream": [0], "iu.if": [0], "iu.rd": [1]}


def mips_r3000() -> MachineDescription:
    """The 15-operation-class MIPS R3000/R3010 description."""
    ops: Dict[str, Dict[str, List[int]]] = {}

    # ------------------------------------------------------------------
    # Integer unit (R3000)
    # ------------------------------------------------------------------
    ops["int_alu"] = merge(
        _FRONT, {"iu.ex": [2], "iu.mem": [3], "iu.wb": [4]}
    )
    ops["load"] = merge(
        _FRONT,
        {"iu.ex": [2], "iu.mem": [3], "iu.dcache": [3], "iu.dbus": [4], "iu.wb": [4]},
    )
    # Stores drain through a one-deep write buffer: the cache is busy for
    # two cycles and the data bus is claimed alongside the load return path.
    ops["store"] = merge(
        _FRONT, {"iu.ex": [2], "iu.mem": [3], "iu.dcache": [3, 4], "iu.dbus": [4]}
    )
    # Taken control flow re-steers the fetch stream, bubbling it one cycle
    # (two for conditional branches, whose target resolves in EX).
    ops["branch"] = merge(_FRONT, {"iu.ex": [2], "iu.istream": [2]})
    ops["jump"] = merge(_FRONT, {"iu.istream": [1]})
    # Integer multiply: HI/LO unit busy 10 cycles, mirrored by the
    # coprocessor-0 busy interlock row (redundant on purpose).
    ops["mult"] = merge(
        _FRONT,
        {"iu.ex": [2]},
        span("iu.multdiv", 2, 11),
        span("iu.mdbusy", 2, 11),
    )
    # Integer divide: HI/LO unit busy 34 cycles -> forbidden latencies up
    # to 33, the maximum of this machine (matching "all < 34").
    ops["div"] = merge(
        _FRONT,
        {"iu.ex": [2]},
        span("iu.multdiv", 2, 35),
        span("iu.mdbusy", 2, 35),
    )
    ops["mfhilo"] = merge(
        _FRONT, {"iu.ex": [2], "iu.multdiv": [2], "iu.wb": [4]}
    )

    # ------------------------------------------------------------------
    # Floating-point coprocessor (R3010)
    # ------------------------------------------------------------------
    ops["fadd"] = merge(
        _FRONT,
        {"fp.decode": [1]},
        span("fp.add", 2, 3),
        span("fp.busy", 2, 3),
        {"fp.bus": [4]},
    )
    ops["fmul_s"] = merge(
        _FRONT,
        {"fp.decode": [1]},
        span("fp.mul", 2, 3),
        {"fp.acc": [4]},
        span("fp.busy", 2, 4),
        {"fp.bus": [6]},
    )
    ops["fmul_d"] = merge(
        _FRONT,
        {"fp.decode": [1]},
        span("fp.mul", 2, 4),
        {"fp.acc": [5]},
        span("fp.busy", 2, 5),
        {"fp.bus": [7]},
    )
    ops["fdiv_s"] = merge(
        _FRONT,
        {"fp.decode": [1]},
        span("fp.div", 2, 12),
        span("fp.busy", 2, 12),
        {"fp.bus": [14]},
    )
    ops["fdiv_d"] = merge(
        _FRONT,
        {"fp.decode": [1]},
        span("fp.div", 2, 19),
        span("fp.busy", 2, 19),
        {"fp.bus": [21]},
    )
    ops["fcmp"] = merge(
        _FRONT,
        {"fp.decode": [1], "fp.add": [2], "fp.cc": [3]},
    )
    ops["fmov"] = merge(
        _FRONT,
        {"iu.ex": [2], "fp.decode": [1], "fp.bus": [3]},
    )

    resources = [
        "iu.istream",
        "iu.if",
        "iu.rd",
        "iu.ex",
        "iu.mem",
        "iu.dcache",
        "iu.dbus",
        "iu.wb",
        "iu.multdiv",
        "iu.mdbusy",
        "fp.decode",
        "fp.add",
        "fp.mul",
        "fp.acc",
        "fp.div",
        "fp.busy",
        "fp.cc",
        "fp.bus",
    ]
    latencies = {
        "int_alu": 1, "load": 2, "store": 1, "branch": 1, "jump": 1,
        "mult": 10, "div": 35, "mfhilo": 2,
        "fadd": 2, "fmul_s": 4, "fmul_d": 5, "fdiv_s": 12, "fdiv_d": 19,
        "fcmp": 2, "fmov": 2,
    }
    return MachineDescription(
        "mips-r3000", ops, resources=resources, latencies=latencies
    )
