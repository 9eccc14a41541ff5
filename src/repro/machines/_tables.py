"""Reservation-table building blocks shared by the built-in machines."""

from __future__ import annotations

from typing import Dict, List


def span(resource: str, first: int, last: int) -> Dict[str, List[int]]:
    """Usage of ``resource`` for every cycle in [first, last]."""
    return {resource: list(range(first, last + 1))}


def merge(*parts: Dict[str, List[int]]) -> Dict[str, List[int]]:
    """One usage map: each resource's cycles from ``parts``, in order."""
    accum: Dict[str, List[int]] = {}
    for part in parts:
        for resource, cycles in part.items():
            accum.setdefault(resource, []).extend(cycles)
    return accum
