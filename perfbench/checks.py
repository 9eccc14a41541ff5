"""Output checks with references that do not come from the code under test,
and the deliberately broken inputs the sabotage self-test feeds them."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core import ForbiddenLatencyMatrix, MachineDescription, schedule_is_contention_free

#: ``(machine, objective) -> (original resources, original usages,
#: reduced resources, reduced usages, k)`` for the built-in machines,
#: written down from verified reductions (``k`` is ``64 // reduced
#: resources`` for ``word-uses``).  Any change here is a change in
#: reduction quality and must be explained.
STUDY_EXPECTED: Dict[Tuple[str, str], Tuple[int, int, int, int, int]] = {
    ("cydra5", "res-uses"): (47, 573, 23, 278, 1),
    ("cydra5", "word-uses"): (47, 573, 23, 290, 2),
    ("cydra5-subset", "res-uses"): (44, 73, 12, 27, 1),
    ("cydra5-subset", "word-uses"): (44, 73, 12, 27, 5),
    ("alpha21064", "res-uses"): (25, 167, 11, 72, 1),
    ("alpha21064", "word-uses"): (25, 167, 11, 102, 5),
    ("mips-r3000", "res-uses"): (18, 246, 6, 101, 1),
    ("mips-r3000", "word-uses"): (18, 246, 6, 119, 10),
    ("playdoh", "res-uses"): (39, 168, 16, 84, 1),
    ("playdoh", "word-uses"): (39, 168, 16, 102, 4),
    ("buffered-pu", "res-uses"): (11, 38, 5, 24, 1),
    ("buffered-pu", "word-uses"): (11, 38, 5, 24, 12),
    ("clustered-vliw", "res-uses"): (9, 34, 9, 32, 1),
    ("clustered-vliw", "word-uses"): (9, 34, 9, 38, 7),
    ("example", "res-uses"): (5, 11, 2, 5, 1),
    ("example", "word-uses"): (5, 11, 2, 6, 32),
}


def word_usages(machine: MachineDescription, k: int) -> int:
    """Non-empty k-cycle words summed over operations and the k word
    alignments of the issue cycle (the paper's word-usage count)."""
    total = 0
    for _, table in machine.items():
        cycles = {cycle for _, cycle in table.iter_usages()}
        for alignment in range(k):
            total += len({(cycle + alignment) // k for cycle in cycles})
    return total


def modulo_schedule_problem(
    machine: MachineDescription, graph, ii: int, times: Dict[str, int],
    chosen: Dict[str, str],
) -> Optional[str]:
    """Why a modulo schedule is wrong on ``machine``, or ``None``.

    Dependences are checked edge by edge.  Resources are checked with
    :func:`schedule_is_contention_free` on enough overlapped iterations
    that any two usages whose cycles differ by a multiple of ``ii`` meet.
    """
    for edge in graph.edges():
        slack = times[edge.dst] - times[edge.src] - edge.latency + ii * edge.distance
        if slack < 0:
            return "dependence %s->%s violated by %d" % (edge.src, edge.dst, -slack)
    cycles = [
        times[name] + cycle
        for name in times
        for _, cycle in machine.table(chosen[name]).iter_usages()
    ]
    if not cycles:
        return None
    iterations = (max(cycles) - min(cycles)) // ii + 2
    placements = [
        (chosen[name], time + ii * iteration)
        for iteration in range(iterations)
        for name, time in sorted(times.items())
    ]
    if not schedule_is_contention_free(machine, placements):
        return "resource contention on %s" % machine.name
    return None


# ----------------------------------------------------------------------
# Sabotage: broken inputs built here, fed to the normal checks
# ----------------------------------------------------------------------
def _tables(machine: MachineDescription) -> Dict[str, Dict[str, List[int]]]:
    tables: Dict[str, Dict[str, List[int]]] = {}
    for op, table in machine.items():
        rows: Dict[str, List[int]] = {}
        for resource, cycle in table.iter_usages():
            rows.setdefault(resource, []).append(cycle)
        tables[op] = rows
    return tables


def drop_one_usage(machine: MachineDescription) -> MachineDescription:
    """A copy of ``machine`` missing the first usage whose removal
    changes the forbidden-latency matrix."""
    matrix = ForbiddenLatencyMatrix.from_machine(machine)
    tables = _tables(machine)
    for op in sorted(tables):
        for resource in sorted(tables[op]):
            for cycle in sorted(tables[op][resource]):
                broken = {o: {r: list(c) for r, c in rows.items()} for o, rows in tables.items()}
                broken[op][resource].remove(cycle)
                if not broken[op][resource]:
                    del broken[op][resource]
                candidate = MachineDescription(
                    machine.name, broken, resources=machine.resources,
                    alternatives=machine.alternatives, latencies=machine.latencies,
                )
                if ForbiddenLatencyMatrix.from_machine(candidate) != matrix:
                    return candidate
    raise ValueError("no usage of %s matters" % machine.name)


def shift_one_placement(graph, ii: int, times: Dict[str, int]) -> Dict[str, int]:
    """The schedule with one placement moved a cycle earlier than a
    dependence allows (the first edge with no slack)."""
    for edge in graph.edges():
        if edge.src == edge.dst:
            continue
        if times[edge.dst] - times[edge.src] - edge.latency + ii * edge.distance == 0:
            shifted = dict(times)
            shifted[edge.dst] -= 1
            return shifted
    raise ValueError("no tight dependence in %s" % graph.name)
