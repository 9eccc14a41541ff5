"""The columnar batch plane: equivalence and accounting.

The batch module inherits the compiled reserved-table protocol and
replaces only the window-scan derivation with incrementally-maintained
per-class columns.  These tests pin it to the compiled representation
(and through it, to the discrete reference) over random machines and
call sequences — including evictions via ``assign_free``, negative
cycles, snapshot/restore, and both scan directions — and pin the
``batch`` charge rule of the bulk alternatives scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MachineDescription
from repro.machines import (
    STUDY_MACHINES,
    alternatives_machine,
    cydra5_subset,
    example_machine,
)
from repro.query import (
    BATCH,
    COMPILE,
    CompiledQueryModule,
    make_query_module,
)
from repro.core.certificate import machine_digest
from repro.query.batch import BatchQueryModule
from repro.query.compiled import compiled_kernel

RESOURCES = ["r0", "r1", "r2"]
OPS = ["opA", "opB"]


@st.composite
def machines(draw):
    """Small random machines: 1-2 ops over 1-3 resources, cycles 0-5."""
    operations = {}
    for index in range(draw(st.integers(1, 2))):
        usages = {}
        for _ in range(draw(st.integers(0, 4))):
            usages.setdefault(
                draw(st.sampled_from(RESOURCES)), set()
            ).add(draw(st.integers(0, 5)))
        operations[OPS[index]] = usages
    return MachineDescription("random", operations)


@st.composite
def call_sequences(draw):
    """Random basic-function sequences driving both representations."""
    sequence = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(
            st.sampled_from(
                ("check", "assign", "assign_free", "free", "range", "first")
            )
        )
        cycle = draw(st.integers(-6, 20))
        width = draw(st.integers(0, 12))
        direction = draw(st.sampled_from((1, -1)))
        sequence.append((kind, cycle, width, direction))
    return sequence


def _drive(machine, module, reference, sequence, use_assign_free):
    """Run one call sequence against both modules, asserting agreement."""
    ops = machine.operation_names
    mine, theirs = [], []
    for index, (kind, cycle, width, direction) in enumerate(sequence):
        op = ops[index % len(ops)]
        if kind == "check":
            assert module.check(op, cycle) == reference.check(op, cycle)
        elif kind == "range":
            assert module.check_range(op, cycle, cycle + width) == (
                reference.check_range(op, cycle, cycle + width)
            )
        elif kind == "first":
            assert module.first_free(
                op, cycle, cycle + width, direction
            ) == reference.first_free(op, cycle, cycle + width, direction)
        elif kind == "free" and mine:
            module.free(mine.pop())
            reference.free(theirs.pop())
        elif kind in ("assign", "assign_free"):
            if use_assign_free:
                token, evicted = module.assign_free(op, cycle)
                ref_token, ref_evicted = reference.assign_free(op, cycle)
                assert [(t.op, t.cycle) for t in evicted] == (
                    [(t.op, t.cycle) for t in ref_evicted]
                )
                gone = {t.ident for t in evicted}
                mine[:] = [t for t in mine if t.ident not in gone]
                theirs[:] = [
                    t for t in theirs
                    if t.ident not in {x.ident for x in ref_evicted}
                ]
                mine.append(token)
                theirs.append(ref_token)
            elif module.check(op, cycle):
                mine.append(module.assign(op, cycle))
                theirs.append(reference.assign(op, cycle))


class TestPropertyEquivalence:
    @given(machines(), call_sequences(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scalar_sequences_match_compiled(
        self, machine, sequence, use_assign_free
    ):
        _drive(
            machine,
            BatchQueryModule(machine),
            CompiledQueryModule(machine),
            sequence,
            use_assign_free,
        )

    @given(
        machines(), call_sequences(), st.integers(1, 9), st.booleans()
    )
    @settings(max_examples=40, deadline=None)
    def test_modulo_sequences_match_compiled(
        self, machine, sequence, ii, use_assign_free
    ):
        _drive(
            machine,
            BatchQueryModule(machine, modulo=ii),
            CompiledQueryModule(machine, modulo=ii),
            sequence,
            use_assign_free,
        )


class TestBuiltinMachines:
    @pytest.mark.parametrize("name", sorted(STUDY_MACHINES))
    def test_probe_sweep_matches_compiled(self, name):
        machine = STUDY_MACHINES[name]()
        rng = random.Random(hash(name) & 0xFFFF)
        for modulo in (None, 3, 7):
            batch = BatchQueryModule(machine, modulo=modulo)
            compiled = CompiledQueryModule(machine, modulo=modulo)
            placed = 0
            for _step in range(100):
                op = rng.choice(machine.operation_names)
                cycle = rng.randint(-4, 30)
                free = compiled.check(op, cycle)
                assert batch.check(op, cycle) == free
                if free and placed < 25 and rng.random() < 0.5:
                    batch.assign(op, cycle)
                    compiled.assign(op, cycle)
                    placed += 1
                start = rng.randint(-4, 25)
                stop = start + rng.randint(0, 14)
                assert batch.check_range(op, start, stop) == (
                    compiled.check_range(op, start, stop)
                )
                for direction in (1, -1):
                    assert batch.first_free(
                        op, start, stop, direction
                    ) == compiled.first_free(op, start, stop, direction)

    def test_snapshot_restore_rebuilds_columns(self):
        machine = cydra5_subset()
        batch = BatchQueryModule(machine, modulo=6)
        compiled = CompiledQueryModule(machine, modulo=6)
        ops = machine.operation_names
        rng = random.Random(11)
        for _ in range(12):
            op = rng.choice(ops)
            cycle = rng.randint(0, 11)
            batch.assign_free(op, cycle)
            compiled.assign_free(op, cycle)
        mark = batch.snapshot()
        ref_mark = compiled.snapshot()
        for _ in range(8):
            op = rng.choice(ops)
            cycle = rng.randint(0, 11)
            batch.assign_free(op, cycle)
            compiled.assign_free(op, cycle)
        batch.restore(mark)
        compiled.restore(ref_mark)
        for op in ops:
            for start in range(-2, 10):
                assert batch.check_range(op, start, start + 6) == (
                    compiled.check_range(op, start, start + 6)
                )


class TestBulkEntryPoints:
    #: Alternative groups of cydra5-subset: ``load_s`` has two variants
    #: in two operation classes, ``addr_gen`` two variants in one class.
    GROUPS = ("load_s", "addr_gen")

    def _every_variant_blocked(self, modulo):
        """Occupy cycle 0 so no variant of :attr:`GROUPS` fits there.

        A one-cycle alternatives scan at cycle 0 then visits every
        variant of the group, which makes its charge deterministic.
        """
        machine = cydra5_subset()
        batch = BatchQueryModule(machine, modulo=modulo)
        for group in self.GROUPS:
            for variant in machine.alternatives_of(group):
                if batch.check(variant, 0):
                    batch.assign(variant, 0)
        return machine, batch

    def _scan_charges(self, modulo):
        """``(classes, calls, units)`` of one blocked scan per group."""
        machine, batch = self._every_variant_blocked(modulo)
        charges = []
        for group in self.GROUPS:
            classes = {
                batch.kernel.rep_of[variant]
                for variant in machine.alternatives_of(group)
            }
            calls = batch.work.calls[BATCH]
            units = batch.work.units[BATCH]
            assert batch.first_free_with_alternatives(group, 0, 1) == (
                None, None,
            )
            charges.append((
                len(classes),
                batch.work.calls[BATCH] - calls,
                batch.work.units[BATCH] - units,
            ))
        return charges

    def test_bulk_invocation_charges_once_in_modulo_mode(self):
        assert self._scan_charges(7) == [(2, 1, 1), (1, 1, 1)]

    def test_bulk_invocation_charges_per_class_in_scalar_mode(self):
        assert self._scan_charges(None) == [(2, 1, 2), (1, 1, 1)]

    def test_first_free_with_alternatives_matches_compiled(self):
        machine = alternatives_machine()
        for modulo in (None, 4, 9):
            batch = BatchQueryModule(machine, modulo=modulo)
            compiled = CompiledQueryModule(machine, modulo=modulo)
            rng = random.Random(3)
            for _ in range(30):
                group = rng.choice(machine.operation_names)
                start = rng.randint(-3, 8)
                stop = start + rng.randint(0, 10)
                direction = rng.choice((1, -1))
                got = batch.first_free_with_alternatives(
                    group, start, stop, direction
                )
                want = compiled.first_free_with_alternatives(
                    group, start, stop, direction
                )
                assert got == want
                if got[0] is not None and rng.random() < 0.4:
                    batch.assign(got[1], got[0])
                    compiled.assign(want[1], want[0])


class TestSharedCompilation:
    """Every module of a machine draws the one memoized compiled kernel
    and charges its build per construction, like the compiled module."""

    def test_unshared_module_charges_like_compiled(self):
        machine = cydra5_subset()
        batch = BatchQueryModule(machine, modulo=7)
        compiled = CompiledQueryModule(machine, modulo=7)
        assert batch.work.units[COMPILE] == compiled.work.units[COMPILE]

    def test_digest_is_content_addressed(self):
        a = cydra5_subset()
        b = cydra5_subset()
        assert a is not b
        assert machine_digest(a) == machine_digest(b)
        assert machine_digest(a) != machine_digest(example_machine())
        assert compiled_kernel(a) is compiled_kernel(b)

    def test_make_query_module_builds_batch(self):
        machine = cydra5_subset()
        module = make_query_module(machine, BATCH, modulo=6)
        assert isinstance(module, BatchQueryModule)
        assert module._kernel is compiled_kernel(machine)
