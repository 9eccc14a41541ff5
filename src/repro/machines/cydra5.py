"""Cydra 5 machine description (full model and benchmark subset).

The Cydra 5 numeric processor (Beck, Yen & Anderson; Dehnert & Towle) is a
VLIW with seven functional units: two memory ports, two address-generation
units, one floating-point adder, one floating-point multiplier, and one
branch unit.  Its Fortran77 compiler used a manually optimized description
with 56 resources and 52 operation classes producing 10223 forbidden
latencies (all < 41); the 1327-loop benchmark exercised a 12-class subset
(39 resources, 132 usages, 166 forbidden latencies, all < 21).

This reconstruction follows the same structure, at a somewhat smaller
scale (see EXPERIMENTS.md for the side-by-side accounting):

* duplicated memory and address units are exposed as *alternative
  operations* (``load_s.0`` issues on port 0, ``load_s.1`` on port 1) —
  in the paper's benchmark 21% of operations had exactly one alternative;
* memory has a long (~17 cycle) latency and returns data through a single
  crossbar that address traffic also crosses, generating the subset's
  large (but < 21) forbidden latencies;
* the adder unit runs integer, compare, shift, predicate and FP
  add/convert ops at different latencies through shared stages and buses;
* the multiplier unit runs multiplies plus the long non-pipelined divide,
  square-root and remainder ops that produce latencies up to 40;
* every unit carries redundant busy/predicate-port rows written close to
  the hardware — the redundancy the automated reduction removes;
* ``mov`` can execute on either the adder or the multiplier — the paper's
  example of alternatives beyond replicated hardware.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.machine import MachineBuilder, MachineDescription
from repro.machines._tables import merge, span


def _adder(usages: Dict[str, List[int]], hold: int = 1) -> Dict[str, List[int]]:
    """An op issued on the FP adder: issue slot, predicate read port, and a
    redundant unit-busy row spanning its occupancy."""
    return merge(
        {"fa.issue": [0], "fa.prp": [0]},
        span("fa.busy", 1, max(1, hold)),
        usages,
    )


def _multiplier(usages: Dict[str, List[int]], hold: int = 1) -> Dict[str, List[int]]:
    return merge(
        {"fm.issue": [0], "fm.prp": [0]},
        span("fm.busy", 1, max(1, hold)),
        usages,
    )


def _per_port(prefix: str, usages: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """Rename "@name" resources to "<prefix>.name" (per-unit resources)."""
    renamed = {}
    for resource, cycles in usages.items():
        if resource.startswith("@"):
            renamed[prefix + "." + resource[1:]] = cycles
        else:
            renamed[resource] = cycles
    return renamed


def _mem_variants(usages: Dict[str, List[int]]) -> Sequence[Dict[str, List[int]]]:
    return [
        merge({"m%d.issue" % port: [0]}, _per_port("m%d" % port, usages))
        for port in (0, 1)
    ]


def _addr_variants(usages: Dict[str, List[int]]) -> Sequence[Dict[str, List[int]]]:
    return [
        merge({"a%d.issue" % unit: [0]}, _per_port("a%d" % unit, usages))
        for unit in (0, 1)
    ]


def cydra5() -> MachineDescription:
    """The full Cydra 5 description."""
    b = MachineBuilder("cydra5")

    # ------------------------------------------------------------------
    # Memory ports (alternatives: port 0 / port 1).  Loads return data at
    # cycle ~17 through the single shared crossbar; address-generation
    # traffic crosses the same crossbar at cycle 2, so loads and address
    # ops structurally hazard ~15 cycles apart.
    # ------------------------------------------------------------------
    # Loads flow through the port pipeline at rate 1 (each stage used for
    # a single cycle); stores enter the same stages at *different* offsets
    # and drive the port data bus at issue time, while loads drive it only
    # when data returns — the staggered shared stages produce the subset's
    # long cross-operation forbidden latencies (up to ~17 cycles) without
    # throttling port throughput.  Double-width ops hold stages two cycles.
    b.operation_with_alternatives(
        "load_s",
        _mem_variants(
            {"@mar": [1], "@ctl": [2], "@bank": [3], "@dbus": [16],
             "mem.xbar": [17], "rf.wm": [18]}
        ),
    )
    b.operation_with_alternatives(
        "load_d",
        _mem_variants(
            {"@mar": [1], "@ctl": [2], "@bank": [3, 4], "@dbus": [16, 17],
             "mem.xbar": [17, 18], "rf.wm": [18, 19]}
        ),
    )
    b.operation_with_alternatives(
        "store_s",
        _mem_variants(
            {"@dbus": [0], "@mar": [1], "@wbuf": [2], "@ctl": [4],
             "@bank": [6]}
        ),
    )
    b.operation_with_alternatives(
        "store_d",
        _mem_variants(
            {"@dbus": [0, 1], "@mar": [1], "@wbuf": [2, 3], "@ctl": [4],
             "@bank": [6, 7]}
        ),
    )

    # ------------------------------------------------------------------
    # Address generation units (alternatives: unit 0 / unit 1); generated
    # addresses are forwarded over the shared address bus to the ports.
    # ------------------------------------------------------------------
    b.operation_with_alternatives(
        "addr_gen", _addr_variants({"@alu": [1], "@bus": [2], "mem.abus": [2]})
    )
    b.operation_with_alternatives(
        "addr_inc", _addr_variants({"@alu": [1, 2], "@bus": [2], "mem.abus": [3]})
    )

    # ------------------------------------------------------------------
    # FP adder unit.
    # ------------------------------------------------------------------
    b.operation("iadd", _adder({"fa.s1": [1], "fa.busi": [1], "rf.wai": [2]}))
    b.operation("icmp", _adder({"fa.s1": [1], "pred.bus": [1]}))
    b.operation("pred_or", _adder({"fa.s1": [1], "pred.bus": [2]}))
    b.operation("ishift", _adder({"fa.sh": [1, 2], "fa.busi": [2], "rf.wai": [3]}, hold=2))
    b.operation(
        "extract", _adder({"fa.sh": [1], "fa.s1": [1], "fa.busi": [2], "rf.wai": [3]})
    )
    b.operation(
        "fadd_s",
        _adder({"fa.s1": [1], "fa.s2": [2], "fa.s3": [3], "fa.s4": [4],
                "fa.bus": [4], "rf.wa": [5]}),
    )
    b.operation(
        "fadd_d",
        _adder({"fa.s1": [1], "fa.s2": [2, 3], "fa.s3": [4], "fa.s4": [5],
                "fa.bus": [5], "rf.wa": [6]}, hold=2),
    )
    b.operation(
        "fminmax", _adder({"fa.s1": [1], "fa.s2": [2], "fa.bus": [2], "rf.wa": [3]})
    )
    b.operation("cvt_fx", _adder({"fa.s1": [1], "fa.s4": [2], "fa.busi": [2], "rf.wai": [3]}))
    b.operation("cvt_xf", _adder({"fa.s1": [1], "fa.s3": [2], "fa.busi": [2], "rf.wai": [3]}))
    b.operation(
        "cvt_fd",
        _adder({"fa.s1": [1], "fa.s2": [2], "fa.s4": [3], "fa.bus": [3], "rf.wa": [4]}),
    )
    b.operation(
        "fcmp_s",
        _adder({"fa.s1": [1], "fa.s2": [2], "fa.s3": [3], "pred.bus": [3]}),
    )
    b.operation(
        "fcmp_d",
        _adder({"fa.s1": [1], "fa.s2": [2, 3], "fa.s3": [4], "pred.bus": [4]},
               hold=2),
    )

    # ------------------------------------------------------------------
    # FP multiplier unit.  Divide, square root and remainder iterate on
    # the non-pipelined divide array: holds of 16..38 cycles generate the
    # machine's largest forbidden latencies (all < 41).
    # ------------------------------------------------------------------
    b.operation(
        "imul", _multiplier({"fm.s1": [1], "fm.s2": [2], "fm.bus": [3], "rf.wm": [4]})
    )
    b.operation(
        "fmul_s",
        _multiplier({"fm.s1": [1], "fm.s2": [2], "fm.acc": [3], "fm.bus": [4], "rf.wm": [5]}),
    )
    b.operation(
        "fmul_d",
        _multiplier(
            {"fm.s1": [1, 2], "fm.s2": [3], "fm.acc": [4], "fm.bus": [5],
             "rf.wm": [6]},
            hold=2,
        ),
    )
    b.operation(
        "div_s",
        _multiplier(
            merge(span("fm.div", 1, 16), {"fm.acc": [17], "fm.bus": [18], "rf.wm": [19]}),
            hold=16,
        ),
    )
    b.operation(
        "div_d",
        _multiplier(
            merge(span("fm.div", 1, 30), {"fm.acc": [31], "fm.bus": [32], "rf.wm": [33]}),
            hold=30,
        ),
    )
    b.operation(
        "rem_s",
        _multiplier(
            merge(span("fm.div", 1, 18), {"fm.bus": [20], "rf.wm": [21]}), hold=18
        ),
    )
    b.operation(
        "rem_d",
        _multiplier(
            merge(span("fm.div", 1, 32), {"fm.bus": [34], "rf.wm": [35]}), hold=32
        ),
    )
    b.operation(
        "sqrt_s",
        _multiplier(
            merge(span("fm.div", 1, 24), {"fm.bus": [26], "rf.wm": [27]}), hold=24
        ),
    )
    b.operation(
        "sqrt_d",
        _multiplier(
            merge(span("fm.div", 1, 38), {"fm.bus": [40]}), hold=38
        ),
    )

    # ------------------------------------------------------------------
    # Branch unit: branches, the brtop loop-control op, control-register
    # access (returning values over the adder's result bus) and predicate
    # clears (sharing the predicate write bus with the compares).
    # ------------------------------------------------------------------
    b.operation(
        "branch", {"br.issue": [0], "br.cond": [1], "br.istream": [2, 3]}
    )
    b.operation(
        "brtop",
        {"br.issue": [0], "br.cond": [1, 2], "br.icp": [2], "br.istream": [3]},
    )
    b.operation(
        "ldcr", {"br.issue": [0], "br.ccr": [1, 2], "fa.bus": [3]}
    )
    b.operation("pred_clear", {"br.issue": [0], "pred.bus": [1]})

    # ------------------------------------------------------------------
    # Register moves execute on either the adder or the multiplier —
    # alternatives beyond replicated hardware (paper Section 7).
    # ------------------------------------------------------------------
    b.operation_with_alternatives(
        "mov",
        [
            _adder({"fa.s1": [1], "fa.busi": [1], "rf.wai": [2]}),
            _multiplier({"fm.s1": [1], "fm.bus": [3], "rf.wm": [4]}),
        ],
    )

    # Result-latency metadata (consumed by workloads and schedulers;
    # resource semantics stay in the reservation tables above).
    for op, value in {
        "load_s": 18, "load_d": 19, "store_s": 1, "store_d": 1,
        "addr_gen": 2, "addr_inc": 2,
        "iadd": 2, "icmp": 2, "pred_or": 3, "ishift": 3, "extract": 3,
        "fadd_s": 5, "fadd_d": 6, "fminmax": 3, "cvt_fx": 3, "cvt_xf": 3,
        "cvt_fd": 4, "fcmp_s": 4, "fcmp_d": 5,
        "imul": 4, "fmul_s": 5, "fmul_d": 6,
        "div_s": 19, "div_d": 33, "rem_s": 21, "rem_d": 35,
        "sqrt_s": 27, "sqrt_d": 41,
        "branch": 1, "brtop": 1, "ldcr": 4, "pred_clear": 1, "mov": 2,
    }.items():
        b.latency(op, value)
    return b.build()


#: Operation classes exercised by the software-pipelined loop benchmark:
#: single-precision memory traffic, address arithmetic, FP add/multiply,
#: integer add/compare and loop control — no divide or square root, which
#: is why the subset's forbidden latencies all stay below 21.
SUBSET_OPERATIONS = (
    "load_s.0",
    "load_s.1",
    "store_s.0",
    "store_s.1",
    "addr_gen.0",
    "addr_gen.1",
    "iadd",
    "icmp",
    "fadd_s",
    "fmul_s",
    "mov.0",
    "brtop",
)


def cydra5_subset() -> MachineDescription:
    """The benchmark subset of the Cydra 5 description.

    Resources never used by the subset's operations are dropped, mirroring
    the paper's separate accounting for the subset (39 of 56 resources).
    """
    full = cydra5().with_operations(SUBSET_OPERATIONS, name="cydra5-subset")
    used = set()
    for _op, table in full.items():
        used.update(table.resources)
    resources = [r for r in full.resources if r in used]
    operations = {op: table for op, table in full.items()}
    return MachineDescription(
        "cydra5-subset", operations, resources=resources,
        alternatives=full.alternatives, latencies=full.latencies,
    )
