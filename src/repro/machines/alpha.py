"""DEC Alpha 21064 machine description.

Reconstructed from the DECchip 21064 hardware reference manual in the
spirit of the description Bala and Rubin used (12 operation classes, 293
forbidden latencies, all < 58).  The 21064 is dual-issue: one instruction
per cycle into the integer side (EBOX / ABOX / BBOX) and one into the
floating-point side (FBOX).  The FP add and multiply pipelines are fully
pipelined with 6-cycle latency; the divider is *not* pipelined and holds
for ~34 (single) or ~58 (double) cycles — the source of the machine's
largest forbidden latencies.  Divide results drain through the add
pipeline's final stage, so divides structurally hazard against adds but
not multiplies.  Integer multiply occupies a non-pipelined multiplier for
~19 cycles.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.machine import MachineDescription
from repro.machines._tables import merge, span


# Integer-side ops contend for the lower issue slot, FP ops for the
# upper; the fetch stream itself delivers both per cycle, so ``ib.istream``
# is claimed only by control flow, which bubbles it while re-steering.
_ILOWER = {"ib.lower": [0]}
_IUPPER = {"ib.upper": [0]}


def alpha21064() -> MachineDescription:
    """The 12-operation-class DEC Alpha 21064 description."""
    ops: Dict[str, Dict[str, List[int]]] = {}

    # ------------------------------------------------------------------
    # EBOX (integer execute)
    # ------------------------------------------------------------------
    ops["int_alu"] = merge(
        _ILOWER, {"e.stage1": [1], "e.wport": [2]}
    )
    # The barrel shifter takes two passes for double-width shifts.
    ops["shift"] = merge(
        _ILOWER, {"e.stage1": [1, 2], "e.shifter": [1, 2], "e.wport": [3]}
    )
    # Integer multiply occupies a non-pipelined multiplier ~19 cycles.
    ops["imul"] = merge(
        _ILOWER,
        {"e.stage1": [1]},
        span("e.imul", 1, 19),
        {"e.wport": [21]},
    )

    # ------------------------------------------------------------------
    # ABOX (load/store)
    # ------------------------------------------------------------------
    ops["load"] = merge(
        _ILOWER,
        {"a.agen": [1], "a.dcache": [2], "a.dbus": [3], "e.wport": [3]},
    )
    ops["store"] = merge(
        _ILOWER,
        {"a.agen": [1], "a.dcache": [2, 3], "a.wbuf": [3, 4]},
    )

    # ------------------------------------------------------------------
    # BBOX (control flow)
    # ------------------------------------------------------------------
    ops["branch"] = merge(_ILOWER, {"b.cond": [1], "ib.istream": [1]})
    ops["jsr"] = merge(_ILOWER, {"b.calc": [1], "ib.istream": [1, 2]})

    # ------------------------------------------------------------------
    # FBOX (floating point)
    # ------------------------------------------------------------------
    ops["fadd"] = merge(
        _IUPPER,
        {"f.rport": [0], "f.add1": [1], "f.add2": [2], "f.add3": [3], "f.round": [4, 5],
         "f.wport": [6]},
    )
    ops["fmul"] = merge(
        _IUPPER,
        {"f.rport": [0], "f.mul1": [1], "f.mul2": [2], "f.mul3": [3], "f.mround": [4, 5],
         "f.wport": [6]},
    )
    # Divides hold the non-pipelined divider, then retire through the add
    # pipeline's final stage and the FP write port.
    ops["fdiv_s"] = merge(
        _IUPPER,
        {"f.rport": [0]},
        span("f.div", 1, 30),
        {"f.add3": [31], "f.round": [32], "f.wport": [33]},
    )
    ops["fdiv_d"] = merge(
        _IUPPER,
        {"f.rport": [0]},
        span("f.div", 1, 58),
        {"f.add3": [59], "f.round": [60], "f.wport": [61]},
    )
    # FP-conditional branches read the FP register file, contending for
    # its read port with the FBOX ops issued the same cycle.
    ops["fbranch"] = merge(_ILOWER, {"f.rport": [0], "f.cc": [1], "ib.istream": [1]})

    resources = [
        "ib.istream",
        "ib.lower",
        "ib.upper",
        "e.stage1",
        "e.shifter",
        "e.imul",
        "e.wport",
        "a.agen",
        "a.dcache",
        "a.dbus",
        "a.wbuf",
        "b.cond",
        "b.calc",
        "f.add1",
        "f.add2",
        "f.add3",
        "f.round",
        "f.mul1",
        "f.mul2",
        "f.mul3",
        "f.mround",
        "f.div",
        "f.wport",
        "f.cc",
        "f.rport",
    ]
    latencies = {
        "int_alu": 1, "shift": 2, "imul": 21, "load": 3, "store": 1,
        "branch": 1, "jsr": 1, "fadd": 6, "fmul": 6,
        "fdiv_s": 34, "fdiv_d": 63, "fbranch": 1,
    }
    return MachineDescription(
        "alpha-21064", ops, resources=resources, latencies=latencies
    )
