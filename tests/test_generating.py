"""Tests for Algorithm 1 — the generating set of maximal resources."""

import pytest

from repro.core import (
    ForbiddenLatencyMatrix,
    MachineDescription,
    build_generating_set,
    generated_instances,
    is_maximal,
    normalize_resource,
    resource_is_valid,
)
from repro.machines import (
    example_machine,
    independent_ops_machine,
    single_op_machine,
)


def _matrix(md):
    return ForbiddenLatencyMatrix.from_machine(md)


class TestExampleMachine:
    """Figure 1c: the example machine has exactly two maximal resources."""

    def test_contains_both_maximal_resources(self, example_matrix):
        resources = build_generating_set(example_matrix)
        assert frozenset({("B", 0), ("A", 1)}) in resources
        assert (
            frozenset({("B", 0), ("B", 1), ("B", 2), ("B", 3)}) in resources
        )

    def test_all_resources_valid(self, example_matrix):
        for resource in build_generating_set(example_matrix):
            assert resource_is_valid(resource, example_matrix)

    def test_pruning_independent_of_flag(self, example_matrix):
        with_prune = set(build_generating_set(example_matrix, 1))
        without = set(build_generating_set(example_matrix, None))
        # Both contain all maximal resources; textbook mode may keep
        # additional submaximal ones.
        maximal = {r for r in without if is_maximal(r, example_matrix)}
        assert maximal <= with_prune
        assert maximal <= without

    def test_trace_records_rule_applications(self, example_matrix):
        steps = []
        build_generating_set(example_matrix, trace=steps.append)
        assert len(steps) == 4  # one per elementary pair (Figure 3)
        rules = [app.rule for step in steps for app in step.applications]
        assert 3 in rules  # the first pair starts a fresh resource
        assert 1 in rules or 2 in rules


class TestTheoremOne:
    """Theorem 1 on a family of machines: every maximal resource appears,
    and nothing in the set forbids an allowed latency."""

    MACHINES = [
        example_machine(),
        single_op_machine(),
        independent_ops_machine(),
        MachineDescription("bus", {
            "P": {"bus": [0, 2]},
            "Q": {"bus": [1, 4]},
        }),
        MachineDescription("pipes", {
            "U": {"p": [0], "q": [1]},
            "V": {"q": [0], "r": [1, 2]},
            "W": {"r": [0], "p": [2]},
        }),
    ]

    def _all_maximal_resources(self, matrix):
        """Brute-force enumerate maximal resources by greedy closure from
        every elementary pair (sound for these small machines)."""
        from repro.core import elementary_pairs, usages_compatible

        span = matrix.max_latency
        candidates = set()
        universe = [
            (op, cycle)
            for op in matrix.operations
            if matrix.uses_resources(op)
            for cycle in range(0, 2 * span + 1)
        ]
        for pair in elementary_pairs(matrix):
            grown = set(pair)
            for usage in sorted(universe):
                if usage in grown:
                    continue
                if all(
                    usages_compatible(usage, existing, matrix)
                    for existing in grown
                ):
                    grown.add(usage)
            candidates.add(normalize_resource(grown))
        return {c for c in candidates if is_maximal(c, matrix)}

    def test_every_machine(self):
        for md in self.MACHINES:
            matrix = _matrix(md)
            generating = set(build_generating_set(matrix))
            for resource in generating:
                assert resource_is_valid(resource, matrix), md.name
            maximal = self._all_maximal_resources(matrix)
            for resource in maximal:
                assert any(
                    resource <= other for other in generating
                ), (md.name, sorted(resource))


class TestRuleFour:
    def test_isolated_ops_get_single_usage_resources(self):
        md = independent_ops_machine()
        resources = build_generating_set(_matrix(md))
        assert frozenset({("A", 0)}) in resources
        assert frozenset({("B", 0)}) in resources

    def test_not_added_when_op_in_other_resources(self, example_matrix):
        resources = build_generating_set(example_matrix)
        assert frozenset({("A", 0)}) not in resources


class TestCoverage:
    def test_generating_set_covers_all_instances(self):
        """The union of generated instances covers the whole matrix, for
        every study machine's matrix (prerequisite of selection)."""
        for md in (example_machine(), single_op_machine()):
            matrix = _matrix(md)
            resources = build_generating_set(matrix)
            covered = set()
            for resource in resources:
                covered |= generated_instances(resource)
            assert covered >= set(matrix.instances())

    def test_mips_coverage(self, mips):
        matrix = _matrix(mips)
        covered = set()
        for resource in build_generating_set(matrix):
            covered |= generated_instances(resource)
        assert covered >= set(matrix.instances())


def _reference_generating_set(matrix, prune_subsets_every):
    """Algorithm 1 over frozensets, exactly as the paper states it: the
    reference the integer-mask implementation must match, order included."""
    from repro.core import elementary_pairs
    from repro.core.elementary import pair_usages, usages_compatible

    def prune(resources):
        distinct = list(dict.fromkeys(resources))
        return [r for r in distinct if not any(r < other for other in distinct)]

    resources = []
    for processed, pair in enumerate(elementary_pairs(matrix), start=1):
        u0, u1 = pair_usages(pair)
        found_together = False
        additions = []
        for index, current in enumerate(resources):
            compatible = frozenset(
                u for u in current
                if usages_compatible(u, u0, matrix)
                and usages_compatible(u, u1, matrix)
            )
            if compatible == current:
                resources[index] = current | pair
                found_together = True
            elif pair | compatible != pair:
                additions.append(pair | compatible)
                found_together = True
        for candidate in additions:
            if candidate not in resources:
                resources.append(candidate)
        if not found_together and pair not in resources:
            resources.append(pair)
        if prune_subsets_every and processed % prune_subsets_every == 0:
            resources = prune(resources)
    for op in matrix.operations:
        if matrix.latencies(op, op) != frozenset({0}):
            continue
        if any(
            matrix.latencies(op, other) or matrix.latencies(other, op)
            for other in matrix.operations if other != op
        ):
            continue
        if not any(usage[0] == op for r in resources for usage in r):
            resources.append(frozenset({(op, 0)}))
    return prune(resources)


class TestFrozensetReference:
    """The mask implementation returns the reference's list, in order, on
    generated machines and under every pruning period."""

    @pytest.mark.parametrize("profile, seeds", [
        ("tiny", range(12)),
        ("mixed", range(12)),
        ("clustered-vliw", range(12)),
        ("deep", (5, 8, 10, 11)),
    ])
    @pytest.mark.parametrize("every", [None, 1, 3, 64])
    def test_matches_reference(self, profile, seeds, every):
        from repro.fuzz.mdlgen import PROFILES, generate_machine

        for seed in seeds:
            matrix = _matrix(generate_machine(seed, PROFILES[profile]))
            assert build_generating_set(matrix, every) == (
                _reference_generating_set(matrix, every)
            ), (profile, seed)
