"""Columnar batch plane: corpus-scale contention queries.

The compiled representation (:mod:`repro.query.compiled`) answers one
window scan by OR-ing one shifted collision bitset per *distinct live
(class, cycle) pair* — cost proportional to the partial schedule.  This
module keeps that OR **incrementally materialized**: per operation
class, a column of per-slot conflict *counts* is updated on every
``assign``/``free`` (one update per target class column), so any
window scan is an O(1) fetch of the class column no matter how many
operations are live.

Layout: per class, a packed big-int column of blocked slots plus a
slot-count dict, so a free clears a bit only when its last conflict
goes.  The slot axis is the II ring for a modulo reservation table (the
ring the corpus scheduler lives on), or a bias-grown cycle axis for
scalar tables.

Work currency: the read path charges the ``batch`` currency.  A lone
window scan costs one unit (one column fetch).  The alternatives scan
(:meth:`BatchQueryModule.first_free_with_alternatives`) is one bulk
invocation: it costs one unit in modulo mode, where every class ring is
kept current and reading it is O(1), and one unit per distinct class
column in scalar mode, where each window is shifted out of its own
bias-grown column.  Column *maintenance* is write-path cost: each
assign/free tops up the triggering call's own
``assign``/``assign&free``/``free`` units by one per column update, so
the check-path currencies (``check`` + ``check_range`` + ``first_free``
+ ``batch``) stay a pure read-path measure, comparable against the
per-loop numbers they replace.

Schedules are byte-identical to the compiled module's: the blocked
window a column fetch yields equals the compiled OR (a slot's count is
positive iff some live pair's bitset covers it), and all downstream
window math — self-conflict short circuit, effective width, downward
residue scan, variant-major shrink — is inherited, not reimplemented.

:class:`SharedCompilation` amortizes machine-level compilation across a
corpus: one :class:`~repro.query.compiled.CompiledKernel` per machine
digest with shared per-II fold caches, so ``compile`` is charged once
per corpus instead of once per loop per II attempt.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.certificate import machine_digest
from repro.core.machine import MachineDescription
from repro.query.alternatives import ROUND_ROBIN, order_variants
from repro.query.base import ScheduledToken
from repro.query.compiled import CompiledQueryModule, compiled_kernel
from repro.query.work import ASSIGN, ASSIGN_FREE, BATCH, FREE


class _PureRingColumns:
    """Modulo ring columns: packed big-int per class + slot counts."""

    def __init__(self, num_classes: int, slots: int):
        self.slots = slots
        self._counts: List[Dict[int, int]] = [
            {} for _ in range(num_classes)
        ]
        self._rings = [0] * num_classes

    def _rotated(self, bits: int, rotation: int) -> int:
        if not rotation:
            return bits
        slots = self.slots
        return ((bits << rotation) | (bits >> (slots - rotation))) & (
            (1 << slots) - 1
        )

    def add(self, rings: List[int], rotation: int) -> None:
        for index, ring in enumerate(rings):
            if not ring:
                continue
            bits = self._rotated(ring, rotation)
            counts = self._counts[index]
            while bits:
                low = bits & -bits
                bits ^= low
                slot = low.bit_length() - 1
                count = counts.get(slot, 0) + 1
                counts[slot] = count
                if count == 1:
                    self._rings[index] |= low

    def sub(self, rings: List[int], rotation: int) -> None:
        for index, ring in enumerate(rings):
            if not ring:
                continue
            bits = self._rotated(ring, rotation)
            counts = self._counts[index]
            while bits:
                low = bits & -bits
                bits ^= low
                slot = low.bit_length() - 1
                count = counts[slot] - 1
                if count:
                    counts[slot] = count
                else:
                    del counts[slot]
                    self._rings[index] &= ~low

    def ring(self, class_index: int) -> int:
        return self._rings[class_index]

    def clear(self) -> None:
        for counts in self._counts:
            counts.clear()
        self._rings = [0] * len(self._rings)


class _ScalarColumns:
    """Scalar (non-modulo) columns: bias-grown packed-int per class.

    The scalar axis is unbounded.  Positions are kept unbiased in the
    count keys; the packed column grows its bias like the compiled
    module's reserved integer.
    """

    def __init__(self, num_classes: int):
        self._counts: List[Dict[int, int]] = [
            {} for _ in range(num_classes)
        ]
        self._columns = [0] * num_classes
        self._bias = 0

    def _grow(self, position: int) -> None:
        biased = position + self._bias
        if biased < 0:
            grow = -biased
            self._columns = [col << grow for col in self._columns]
            self._bias += grow

    def add(self, rings: List[int], base: int) -> None:
        for index, bits in enumerate(rings):
            if not bits:
                continue
            counts = self._counts[index]
            remaining = bits
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                position = base + low.bit_length() - 1
                count = counts.get(position, 0) + 1
                counts[position] = count
                if count == 1:
                    self._grow(position)
                    self._columns[index] |= 1 << (position + self._bias)

    def sub(self, rings: List[int], base: int) -> None:
        for index, bits in enumerate(rings):
            if not bits:
                continue
            counts = self._counts[index]
            remaining = bits
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                position = base + low.bit_length() - 1
                count = counts[position] - 1
                if count:
                    counts[position] = count
                else:
                    del counts[position]
                    self._columns[index] &= ~(
                        1 << (position + self._bias)
                    )

    def window(self, class_index: int, start: int, width: int) -> int:
        """Blocked bits of ``[start, start + width)`` for one class."""
        shift = start + self._bias
        column = self._columns[class_index]
        if shift >= 0:
            column >>= shift
        else:
            column <<= -shift
        return column & ((1 << width) - 1)

    def clear(self) -> None:
        for counts in self._counts:
            counts.clear()
        self._columns = [0] * len(self._columns)
        self._bias = 0


class SharedCompilation:
    """Machine-level compiled state shared across a corpus of loops.

    One :class:`~repro.query.compiled.CompiledKernel` per machine
    digest, plus the per-II lazy caches (mask folds, pair rings,
    self-conflict flags, column increments) every
    :class:`BatchQueryModule` of the corpus reuses.  The kernel build
    cost is charged to ``compile`` exactly once — by the first module
    constructed against this handle — instead of once per loop per II
    attempt; per-II folds are likewise charged by whichever module
    builds them first.

    ``charge_compile=False`` suppresses compile charging entirely
    (multiprocessing workers, whose kernel the parent already charged).
    """

    def __init__(
        self, machine: MachineDescription, charge_compile: bool = True
    ):
        self.machine = machine
        self.kernel = compiled_kernel(machine)
        self.digest = machine_digest(machine)
        self.charge_compile = charge_compile
        self._kernel_charged = False
        self._folds: Dict[Optional[int], Dict] = {}
        self._pairs: Dict[Optional[int], Dict] = {}
        self._self_conflicts: Dict[Optional[int], Dict[str, bool]] = {}
        self._increments: Dict[Optional[int], Dict[str, List[int]]] = {}

    def mark_kernel_charged(self) -> bool:
        """True exactly once, when the kernel build should be charged."""
        if not self.charge_compile or self._kernel_charged:
            return False
        self._kernel_charged = True
        return True

    def fold_cache(self, modulo: Optional[int]) -> Dict:
        return self._folds.setdefault(modulo, {})

    def pair_fold(self, modulo: Optional[int]) -> Dict:
        return self._pairs.setdefault(modulo, {})

    def self_conflicts(self, modulo: Optional[int]) -> Dict[str, bool]:
        return self._self_conflicts.setdefault(modulo, {})

    def increments(self, modulo: Optional[int]) -> Dict[str, List[int]]:
        return self._increments.setdefault(modulo, {})


class BatchQueryModule(CompiledQueryModule):
    """Compiled query module with incrementally-maintained columns.

    Inherits the compiled module's reserved-table protocol verbatim
    (``check``, blame decoding, the optimistic/update-mode
    ``assign&free``), and replaces only the window-scan derivation: the
    per-class blocked column is kept current across assigns and frees,
    so ``first_free``/``check_range`` cost one ``batch`` unit instead
    of one ``check_range`` unit per live collision pair.

    Parameters
    ----------
    machine / modulo:
        As for :class:`~repro.query.compiled.CompiledQueryModule`.
    shared:
        Optional :class:`SharedCompilation` handle: per-II caches are
        shared and compilation is charged once per corpus.  Without it
        the module charges compilation per construction, exactly like
        the compiled representation.
    """

    def __init__(
        self,
        machine: MachineDescription,
        modulo: Optional[int] = None,
        shared: Optional[SharedCompilation] = None,
    ):
        self._shared = shared
        super().__init__(machine, modulo=modulo)
        if shared is not None:
            self._fold_cache = shared.fold_cache(modulo)
            self._pair_fold = shared.pair_fold(modulo)
            self._sc_cache = shared.self_conflicts(modulo)
            self._increments = shared.increments(modulo)
        else:
            self._sc_cache = {}
            self._increments = {}
        kernel = self._kernel
        self._classes = sorted(set(kernel.rep_of.values()))
        self._class_index = {
            rep: index for index, rep in enumerate(self._classes)
        }
        if modulo is not None:
            self._cols = _PureRingColumns(len(self._classes), modulo)
        else:
            self._cols = _ScalarColumns(len(self._classes))

    # ------------------------------------------------------------------
    # Shared-compilation charging
    # ------------------------------------------------------------------
    def _charge_construction(self) -> None:
        shared = self._shared
        if shared is None:
            super()._charge_construction()
        elif shared.mark_kernel_charged():
            super()._charge_construction()

    # ------------------------------------------------------------------
    # Column maintenance (the batch plane's write path)
    # ------------------------------------------------------------------
    def _increment_of(self, rep_y: str) -> List[int]:
        """Source class ``rep_y``'s contribution to every class column.

        Entry ``x`` is the packed bitset the source adds to target class
        ``x``'s column, before rotation/shift to the source's cycle.
        """
        rings = self._increments.get(rep_y)
        if rings is None:
            if self.modulo is not None:
                rings = [
                    self._pair_ring(rep_x, rep_y)
                    for rep_x in self._classes
                ]
            else:
                pair_bits = self._kernel.pair_bits
                rings = [
                    pair_bits.get((rep_x, rep_y), 0)
                    for rep_x in self._classes
                ]
            self._increments[rep_y] = rings
        return rings

    def _column_shift(self, cycle: int) -> int:
        if self.modulo is not None:
            return cycle % self.modulo
        # Scalar: collision bit k of a source at cycle c blocks cycle
        # c + k - offset (bit k encodes forbidden distance k - offset).
        return cycle - self._kernel.offset

    def _apply_token(self, token: ScheduledToken, sign: int) -> None:
        rings = self._increment_of(self._kernel.rep_of[token.op])
        shift = self._column_shift(token.cycle)
        if sign > 0:
            self._cols.add(rings, shift)
        else:
            self._cols.sub(rings, shift)

    def _col_add(self, token: ScheduledToken, function: str) -> None:
        self._apply_token(token, +1)
        # Write-path top-up: the column update is part of the assign's
        # own cost, one extra unit on the call super() just charged.
        self.work.units[function] += 1

    def _col_sub(self, token: ScheduledToken, function: str) -> None:
        self._apply_token(token, -1)
        self.work.units[function] += 1

    def _rebuild_columns(self) -> None:
        """Resynchronize columns from the live set (restore path)."""
        self._cols.clear()
        for token in self._live.values():
            self._apply_token(token, +1)
        self.work.charge(BATCH, len(self._live))

    # ------------------------------------------------------------------
    # Public protocol: same answers, columns kept in sync
    # ------------------------------------------------------------------
    def assign(self, op: str, cycle: int) -> ScheduledToken:
        token = super().assign(op, cycle)
        self._col_add(token, ASSIGN)
        return token

    def assign_free(
        self, op: str, cycle: int
    ) -> Tuple[ScheduledToken, List[ScheduledToken]]:
        token, evicted = super().assign_free(op, cycle)
        self._col_add(token, ASSIGN_FREE)
        for gone in evicted:
            self._col_sub(gone, ASSIGN_FREE)
        return token, evicted

    def free(self, token: ScheduledToken) -> None:
        super().free(token)
        self._col_sub(token, FREE)

    def reset(self) -> None:
        super().reset()
        self._cols.clear()

    def restore(self, snapshot: tuple) -> None:
        super().restore(snapshot)
        self._rebuild_columns()

    # ------------------------------------------------------------------
    # The O(1) window derivation
    # ------------------------------------------------------------------
    def _self_conflict(self, op: str) -> bool:
        """Whether the op's usages fold onto one MRT slot at this II.

        Alignment-independent (two usages collide iff their table
        cycles are congruent mod II), so one fold decides for every
        window — the compiled module re-derives it per alignment.
        """
        flag = self._sc_cache.get(op)
        if flag is None:
            flag = self._fold(op, 0)[1]
            self._sc_cache[op] = flag
        return flag

    def _blocked_window(
        self, op: str, start: int, width: int
    ) -> Tuple[int, int]:
        kernel = self._kernel
        rep_x = kernel.rep_of.get(op)
        if rep_x is None:
            self.machine.table(op)  # canonical unknown-operation error
        class_index = self._class_index[rep_x]
        if self.modulo is None:
            blocked = self._cols.window(class_index, start, width)
            return blocked, 1
        modulo = self.modulo
        effective = min(width, modulo)
        window_mask = (1 << effective) - 1
        if self._self_conflict(op):
            # A self-wrapping fold is alignment-independent: every slot
            # of this II is illegal for the operation.
            return window_mask, 1
        ring = self._cols.ring(class_index)
        shift = start % modulo
        if shift:
            ring = (
                (ring >> shift) | (ring << (modulo - shift))
            ) & ((1 << modulo) - 1)
        return ring & window_mask, 1

    def _charge_scan(self, units: int) -> None:
        self.work.charge(BATCH, units)

    # ------------------------------------------------------------------
    # The bulk alternatives scan
    # ------------------------------------------------------------------
    def first_free_with_alternatives(
        self, op: str, start: int, stop: int, direction: int = 1
    ) -> Tuple[Optional[int], Optional[str]]:
        """The IMS/list candidate scan, as one bulk kernel invocation.

        Same variant-major semantics (and answers) as the compiled
        module's :meth:`_first_free_by_variant` — later variants must
        strictly improve on the best cycle — but all variants of the
        decision are answered in *one* charged bulk invocation instead
        of one ``check_range`` charge per variant.
        """
        variants = self.machine.alternatives_of(op)
        ordered = order_variants(
            self.alternative_policy,
            variants,
            self._alt_rotation.get(op, 0),
            self._live_op_counts,
        )
        best_cycle: Optional[int] = None
        best_variant: Optional[str] = None
        lo, hi = start, stop
        classes: set = set()
        for alternative in ordered:
            if lo >= hi:
                break
            width = hi - lo
            blocked, _units = self._blocked_window(alternative, lo, width)
            classes.add(self._kernel.rep_of[alternative])
            effective = width
            if self.modulo is not None:
                effective = min(width, self.modulo)
            offset = self._pick_free(blocked, width, effective, direction)
            if offset is None:
                continue
            cycle = lo + offset
            best_cycle = cycle
            best_variant = alternative
            # Later variants must find a strictly better cycle.
            if direction >= 0:
                hi = cycle
            else:
                lo = cycle + 1
        if best_variant is not None:
            if self.alternative_policy == ROUND_ROBIN and len(variants) > 1:
                self._alt_rotation[op] = self._alt_rotation.get(op, 0) + 1
        # One unit per invocation in modulo mode, where every class ring
        # is kept current; one per distinct class column in scalar mode,
        # where each window is shifted out of its own column.  ``charge``
        # floors the result at one either way.
        units = 1 if self.modulo is not None else len(classes)
        self.work.charge(BATCH, units)
        return best_cycle, best_variant

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shared(self) -> Optional[SharedCompilation]:
        """The shared-compilation handle, when corpus-scoped."""
        return self._shared


__all__ = [
    "BatchQueryModule",
    "SharedCompilation",
    "machine_digest",
]
