"""Data dependence graphs for loop and basic-block scheduling.

Nodes are operation instances; each carries the *opcode* naming its
reservation table in the machine description.  Edges carry a ``latency``
(cycles the consumer must wait after the producer issues) and a
``distance`` (iteration distance for loop-carried dependences; 0 for
intra-iteration edges).  A modulo schedule with initiation interval II is
valid when for every edge ``time(dst) - time(src) >= latency - II *
distance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ScheduleError
from repro.obs import ledger as obs_ledger


@dataclass(frozen=True)
class Operation:
    """A scheduled entity: a named instance of a machine opcode."""

    name: str
    opcode: str


@dataclass(frozen=True)
class Dependence:
    """A dependence edge ``src -> dst``.

    ``latency`` may be zero or even negative (as produced e.g. by
    IF-conversion bookkeeping); ``distance`` must be non-negative and is
    positive only for loop-carried dependences.
    """

    src: str
    dst: str
    latency: int
    distance: int = 0
    kind: str = "flow"


class DependenceGraph:
    """A mutable dependence graph with loop-carried distances.

    Examples
    --------
    >>> g = DependenceGraph("dot-product")
    >>> g.add_operation("load1", "mem")
    >>> g.add_operation("mac", "fmul")
    >>> g.add_dependence("load1", "mac", latency=2)
    >>> g.add_dependence("mac", "mac", latency=3, distance=1)  # recurrence
    >>> g.num_operations
    2
    """

    def __init__(self, name: str = "loop"):
        self.name = name
        self._operations: Dict[str, Operation] = {}
        self._edges: List[Dependence] = []
        self._succs: Dict[str, List[Dependence]] = {}
        self._preds: Dict[str, List[Dependence]] = {}
        #: Memoized :meth:`is_acyclic` answer; ``None`` until asked, and
        #: reset by every mutation.
        self._acyclic: Optional[bool] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operation(self, name: str, opcode: str) -> Operation:
        """Add a node; raises on duplicate names."""
        if name in self._operations:
            raise ScheduleError(
                "duplicate operation %r" % name,
                ledger_tail=obs_ledger.active_tail(),
            )
        op = Operation(name, opcode)
        self._operations[name] = op
        self._succs[name] = []
        self._preds[name] = []
        self._acyclic = None
        return op

    def add_dependence(
        self,
        src: str,
        dst: str,
        latency: int,
        distance: int = 0,
        kind: str = "flow",
    ) -> Dependence:
        """Add an edge; endpoints must already exist."""
        for endpoint in (src, dst):
            if endpoint not in self._operations:
                raise ScheduleError(
                    "unknown operation %r" % endpoint,
                    ledger_tail=obs_ledger.active_tail(),
                )
        if distance < 0:
            raise ScheduleError(
                "dependence distance must be >= 0",
                ledger_tail=obs_ledger.active_tail(),
            )
        edge = Dependence(src, dst, latency, distance, kind)
        self._edges.append(edge)
        self._succs[src].append(edge)
        self._preds[dst].append(edge)
        self._acyclic = None
        return edge

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        return len(self._operations)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._operations.values())

    def operation(self, name: str) -> Operation:
        try:
            return self._operations[name]
        except KeyError:
            raise ScheduleError(
                "unknown operation %r" % name,
                ledger_tail=obs_ledger.active_tail(),
            ) from None

    def edges(self) -> Iterator[Dependence]:
        return iter(self._edges)

    def successors(self, name: str) -> List[Dependence]:
        """Outgoing edges of ``name``."""
        return list(self._succs[name])

    def predecessors(self, name: str) -> List[Dependence]:
        """Incoming edges of ``name``."""
        return list(self._preds[name])

    def opcodes(self) -> List[str]:
        """Opcode of every operation (with multiplicity)."""
        return [op.opcode for op in self._operations.values()]

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """True when ignoring distances the intra-iteration edges (distance
        0) form a DAG — required of any real dependence graph.

        The answer is cached until the graph changes, so validating a
        loop and computing its RecMII share one topological sort."""
        if self._acyclic is None:
            self._acyclic = self.topological_order() is not None
        return self._acyclic

    def topological_order(self) -> Optional[List[str]]:
        """Topological order over distance-0 edges, or None on a cycle."""
        indegree = {name: 0 for name in self._operations}
        for edge in self._edges:
            if edge.distance == 0:
                indegree[edge.dst] += 1
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for edge in self._succs[name]:
                if edge.distance == 0:
                    indegree[edge.dst] -= 1
                    if indegree[edge.dst] == 0:
                        ready.append(edge.dst)
        if len(order) != len(self._operations):
            return None
        return order

    def validate(self) -> None:
        """Raise :class:`ScheduleError` on structural problems."""
        if not self._operations:
            raise ScheduleError(
                "graph %r has no operations" % self.name,
                ledger_tail=obs_ledger.active_tail(),
            )
        if not self.is_acyclic():
            raise ScheduleError(
                "graph %r has a zero-distance dependence cycle" % self.name
            , ledger_tail=obs_ledger.active_tail())

    def critical_path_length(self) -> int:
        """Longest latency path over distance-0 edges (acyclic height)."""
        order = self.topological_order()
        if order is None:
            raise ScheduleError(
                "graph %r is cyclic at distance 0" % self.name,
                ledger_tail=obs_ledger.active_tail(),
            )
        finish: Dict[str, int] = {}
        for name in order:
            start = 0
            for edge in self._preds[name]:
                if edge.distance == 0:
                    start = max(start, finish.get(edge.src, 0) + edge.latency)
            finish[name] = start
        return max(finish.values(), default=0)

    def verify_schedule(self, times: Dict[str, int], ii: Optional[int] = None) -> None:
        """Check that placement times satisfy every dependence.

        ``ii`` enables the modulo form ``t(dst) - t(src) >= latency - II *
        distance``; without it, loop-carried edges (distance > 0) are
        ignored, which is the acyclic (basic block) interpretation.
        """
        missing = [n for n in self._operations if n not in times]
        if missing:
            raise ScheduleError(
                "unscheduled operations: %s" % missing[:5],
                ledger_tail=obs_ledger.active_tail(),
            )
        for edge in self._edges:
            if ii is None:
                if edge.distance > 0:
                    continue
                slack = times[edge.dst] - times[edge.src] - edge.latency
            else:
                slack = (
                    times[edge.dst]
                    - times[edge.src]
                    - edge.latency
                    + ii * edge.distance
                )
            if slack < 0:
                raise ScheduleError(
                    "dependence %s->%s violated by %d cycles"
                    % (edge.src, edge.dst, -slack)
                , ledger_tail=obs_ledger.active_tail())

    def __repr__(self) -> str:
        return "DependenceGraph(%r, %d ops, %d edges)" % (
            self.name,
            self.num_operations,
            self.num_edges,
        )


def chain(name: str, opcodes: Iterable[str], latency: int = 1) -> DependenceGraph:
    """Convenience: a straight-line chain of operations (tests/examples)."""
    graph = DependenceGraph(name)
    previous: Optional[str] = None
    for index, opcode in enumerate(opcodes):
        node = "n%d" % index
        graph.add_operation(node, opcode)
        if previous is not None:
            graph.add_dependence(previous, node, latency)
        previous = node
    return graph
