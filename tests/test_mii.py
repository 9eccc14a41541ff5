"""Unit tests for the MII bounds (ResMII / RecMII)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ForbiddenLatencyMatrix, MachineDescription
from repro.errors import ScheduleError
from repro.scheduler import (
    DependenceGraph,
    min_feasible_ii_for_op,
    min_ii,
    rec_mii,
    res_mii,
)
from repro.workloads import loop_suite


@pytest.fixture
def simple_machine():
    return MachineDescription(
        "simple",
        {
            "alu": {"alu": [0]},
            "mul": {"mul": [0, 1]},  # partially pipelined: rate 1/2
        },
    )


class TestResMII:
    def test_counts_most_used_resource(self, simple_machine):
        assert res_mii(simple_machine, ["alu", "alu", "alu"]) == 3

    def test_self_infeasibility_bound(self, simple_machine):
        # One mul: the unit is busy 2 cycles, so II=1 self-collides.
        assert res_mii(simple_machine, ["mul"]) == 2

    def test_empty_oplist(self, simple_machine):
        assert res_mii(simple_machine, []) == 1

    def test_alternatives_spread_round_robin(self, dual_pipe):
        # Two movs can go one to each pipe: II bound stays 1... but each
        # pipe also serves add/mul; two movs alone need only 1 slot each.
        assert res_mii(dual_pipe, ["mov", "mov"]) == 1
        assert res_mii(dual_pipe, ["mov", "mov", "mov", "mov"]) == 2

    def test_min_feasible_ii_skips_colliding_divisors(self):
        md = MachineDescription("gap", {"X": {"u": [0, 4]}})
        matrix = ForbiddenLatencyMatrix.from_machine(md)
        # F[X][X] = {0, 4}: II in {1, 2, 4} wraps 4 onto 0; II=3 is fine.
        assert min_feasible_ii_for_op(matrix, "X") == 3

    def test_min_feasible_ii_simple(self, example):
        matrix = ForbiddenLatencyMatrix.from_machine(example)
        assert min_feasible_ii_for_op(matrix, "A") == 1
        assert min_feasible_ii_for_op(matrix, "B") == 4


class TestRecMII:
    def test_no_recurrence_gives_one(self):
        g = DependenceGraph("line")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 5)
        assert rec_mii(g) == 1

    def test_accumulator(self):
        g = DependenceGraph("acc")
        g.add_operation("a", "op")
        g.add_dependence("a", "a", 4, distance=1)
        assert rec_mii(g) == 4

    def test_distance_two_halves_bound(self):
        g = DependenceGraph("d2")
        g.add_operation("a", "op")
        g.add_dependence("a", "a", 5, distance=2)
        assert rec_mii(g) == 3  # ceil(5/2)

    def test_multi_node_cycle(self):
        g = DependenceGraph("cyc")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 3)
        g.add_dependence("b", "a", 4, distance=1)
        assert rec_mii(g) == 7

    def test_max_over_cycles(self):
        g = DependenceGraph("two")
        for name in "abc":
            g.add_operation(name, "op")
        g.add_dependence("a", "a", 2, distance=1)
        g.add_dependence("b", "c", 6)
        g.add_dependence("c", "b", 6, distance=2)
        assert rec_mii(g) == 6  # max(2, ceil(12/2))

    def test_zero_distance_cycle_rejected(self):
        g = DependenceGraph("bad")
        g.add_operation("a", "op")
        g.add_operation("b", "op")
        g.add_dependence("a", "b", 1)
        g.add_dependence("b", "a", 1)
        with pytest.raises(ScheduleError):
            rec_mii(g)


def reference_rec_mii(graph, upper_bound=None):
    """RecMII by binary search with Bellman-Ford over *every* edge.

    The textbook form :func:`rec_mii` must agree with; it returns the
    bound or the ``ScheduleError`` message.
    """
    if not graph.is_acyclic():
        return "graph %r has a zero-distance dependence cycle" % graph.name
    edges = list(graph.edges())
    names = [op.name for op in graph.operations()]

    def positive_cycle(ii):
        dist = {name: 0 for name in names}
        for _ in range(len(names)):
            changed = False
            for edge in edges:
                candidate = dist[edge.src] + edge.latency - ii * edge.distance
                if candidate > dist[edge.dst]:
                    dist[edge.dst] = candidate
                    changed = True
            if not changed:
                return False
        return True

    if upper_bound is None:
        upper_bound = max(1, sum(max(0, e.latency) for e in edges))
    low, high = 1, upper_bound
    if positive_cycle(high):
        return "no feasible II up to %d for graph %r" % (high, graph.name)
    while low < high:
        mid = (low + high) // 2
        if positive_cycle(mid):
            low = mid + 1
        else:
            high = mid
    return low


def outcome(graph, upper_bound=None):
    try:
        return rec_mii(graph, upper_bound)
    except ScheduleError as exc:
        return str(exc)


@st.composite
def dependence_graphs(draw):
    """Up to 7 operations; edges of any direction, latency and distance.

    Distance-0 edges may close a cycle, so the zero-distance error is
    drawn too.
    """
    size = draw(st.integers(1, 7))
    graph = DependenceGraph("drawn")
    for index in range(size):
        graph.add_operation("n%d" % index, "op")
    for _ in range(draw(st.integers(0, 12))):
        graph.add_dependence(
            "n%d" % draw(st.integers(0, size - 1)),
            "n%d" % draw(st.integers(0, size - 1)),
            draw(st.integers(-2, 9)),
            distance=draw(st.integers(0, 3)),
        )
    return graph


class TestRecMIIReference:
    @pytest.mark.parametrize("seed", [0, 7919])
    def test_loop_suite_matches_all_edges_reference(self, seed):
        for graph in loop_suite(200, seed):
            assert outcome(graph) == reference_rec_mii(graph), graph.name

    @settings(max_examples=300, deadline=None)
    @given(dependence_graphs(), st.one_of(st.none(), st.integers(1, 30)))
    def test_drawn_graphs_match_all_edges_reference(self, graph, upper_bound):
        assert outcome(graph, upper_bound) == reference_rec_mii(
            graph, upper_bound
        )

    def test_acyclic_graph_gives_one(self):
        g = DependenceGraph("dag")
        for name in "abcd":
            g.add_operation(name, "op")
        g.add_dependence("a", "b", 9)
        g.add_dependence("b", "c", 9, distance=2)
        g.add_dependence("a", "d", 9, distance=1)
        assert rec_mii(g) == reference_rec_mii(g) == 1

    def test_self_loop_beside_acyclic_edges(self):
        g = DependenceGraph("self")
        for name in "abc":
            g.add_operation(name, "op")
        g.add_dependence("a", "b", 8)
        g.add_dependence("b", "b", 5, distance=2)
        g.add_dependence("b", "c", 8, distance=1)
        assert rec_mii(g) == reference_rec_mii(g) == 3

    def test_infeasible_upper_bound_raises(self):
        g = DependenceGraph("tight")
        g.add_operation("a", "op")
        g.add_dependence("a", "a", 6, distance=1)
        with pytest.raises(ScheduleError) as info:
            rec_mii(g, upper_bound=5)
        assert str(info.value) == reference_rec_mii(g, upper_bound=5)
        assert str(info.value) == "no feasible II up to 5 for graph 'tight'"

    def test_long_chain_needs_no_recursion(self):
        # Far deeper than the interpreter's recursion limit.
        g = DependenceGraph("chain")
        names = ["n%d" % i for i in range(5000)]
        for name in names:
            g.add_operation(name, "op")
        for src, dst in zip(names, names[1:]):
            g.add_dependence(src, dst, 1)
        g.add_dependence(names[-1], names[-1], 4, distance=1)
        g.add_dependence(names[-1], names[-2], 5, distance=2)
        assert rec_mii(g) == 4  # max(4, ceil((1 + 5) / 2))


class TestMinII:
    def test_takes_the_max(self, simple_machine):
        g = DependenceGraph("loop")
        g.add_operation("m", "mul")
        g.add_dependence("m", "m", 1, distance=1)
        # ResMII = 2 (mul unit), RecMII = 1.
        assert min_ii(simple_machine, g) == 2

    def test_recurrence_dominates(self, simple_machine):
        g = DependenceGraph("loop")
        g.add_operation("a", "alu")
        g.add_dependence("a", "a", 7, distance=1)
        assert min_ii(simple_machine, g) == 7
