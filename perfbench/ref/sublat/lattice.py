"""Finite lattices of subspaces: closure, law checking, Hasse diagrams.

A FiniteLattice is a closed family of subspaces of one ambient space with
precomputed order, meet, and join tables over element indices. Elements
are sorted by (dimension, basis entries), so index 0 is the zero subspace
and the last index is the full space, and rebuilding from the same family
reproduces the same object.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import subspace as sub
from .subspace import Subspace

__all__ = [
    "FiniteLattice",
    "LawReport",
    "LawViolation",
    "ClosureCapError",
    "close_and_build",
    "atoms",
    "covers",
    "orthocomplement_indices",
    "check_distributive",
    "check_modular",
    "check_orthomodular",
    "to_dot",
]

DEFAULT_MAX_ELEMENTS = 256


class ClosureCapError(ValueError):
    """Raised when meet/join closure would exceed the element cap."""


@dataclass(frozen=True)
class FiniteLattice:
    ambient_dim: int
    elements: tuple[Subspace, ...]
    order: tuple[tuple[bool, ...], ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]
    bottom: int
    top: int
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_index", {s: i for i, s in enumerate(self.elements)}
        )

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, s: Subspace) -> int:
        try:
            return self._index[s]
        except KeyError:
            raise ValueError(f"{s.span_str()} is not a lattice element") from None

    def __contains__(self, s: Subspace) -> bool:
        return s in self._index

    def leq(self, i: int, j: int) -> bool:
        return self.order[i][j]

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def spans(self) -> tuple[str, ...]:
        return tuple(s.span_str() for s in self.elements)


def close_and_build(
    seeds: Iterable[Subspace],
    *,
    ambient_dim: int | None = None,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> FiniteLattice:
    """Close seeds under meet and join, adjoin bottom and top, build tables.

    Rebuilding from a lattice's own elements returns an equal lattice.
    Raises ClosureCapError if closure would exceed max_elements and
    ValueError on an ambient-dimension mismatch (or when no dimension can
    be inferred from empty seeds).
    """
    seed_list = list(seeds)
    n = ambient_dim
    for s in seed_list:
        if n is None:
            n = s.ambient_dim
        elif s.ambient_dim != n:
            raise ValueError(
                f"ambient dimensions differ: {n} vs {s.ambient_dim}"
            )
    if n is None:
        raise ValueError("ambient_dim is required when seeds are empty")

    members: set[Subspace] = {Subspace.zero(n), Subspace.full(n)}
    members.update(seed_list)
    if len(members) > max_elements:
        raise ClosureCapError(
            f"{len(members)} seed elements exceed the cap of {max_elements}"
        )
    while True:
        current = sorted(members, key=Subspace.sort_key)
        new: list[Subspace] = []
        for a, b in itertools.combinations(current, 2):
            for candidate in (sub.meet(a, b), sub.join(a, b)):
                if candidate not in members:
                    members.add(candidate)
                    new.append(candidate)
                    if len(members) > max_elements:
                        raise ClosureCapError(
                            f"meet/join closure exceeds the cap of {max_elements} elements"
                        )
        if not new:
            break

    elements = tuple(sorted(members, key=Subspace.sort_key))
    index = {s: i for i, s in enumerate(elements)}
    size = len(elements)
    order = tuple(
        tuple(sub.leq(elements[i], elements[j]) for j in range(size))
        for i in range(size)
    )
    meet_table = tuple(
        tuple(index[sub.meet(elements[i], elements[j])] for j in range(size))
        for i in range(size)
    )
    join_table = tuple(
        tuple(index[sub.join(elements[i], elements[j])] for j in range(size))
        for i in range(size)
    )
    bottom = index[Subspace.zero(n)]
    top = index[Subspace.full(n)]
    return FiniteLattice(
        ambient_dim=n,
        elements=elements,
        order=order,
        meet_table=meet_table,
        join_table=join_table,
        bottom=bottom,
        top=top,
    )


def atoms(lat: FiniteLattice) -> tuple[int, ...]:
    """Indices of elements covering the bottom."""
    found = []
    for i in range(len(lat)):
        if i == lat.bottom:
            continue
        strictly_below = [
            z for z in range(len(lat)) if z != i and lat.leq(z, i) and z != lat.bottom
        ]
        if not strictly_below:
            found.append(i)
    return tuple(found)


def covers(lat: FiniteLattice) -> tuple[tuple[int, int], ...]:
    """All covering pairs (i, j): i < j with nothing strictly between."""
    pairs = []
    for i in range(len(lat)):
        for j in range(len(lat)):
            if i == j or not lat.leq(i, j):
                continue
            between = any(
                z not in (i, j) and lat.leq(i, z) and lat.leq(z, j)
                for z in range(len(lat))
            )
            if not between:
                pairs.append((i, j))
    return tuple(pairs)


def orthocomplement_indices(
    lat: FiniteLattice,
    complement: Callable[[Subspace], Subspace] = sub.orthocomplement,
) -> tuple[int, ...]:
    """Index of each element's complement; ValueError when one is missing."""
    out = []
    for s in lat.elements:
        c = complement(s)
        if c not in lat:
            raise ValueError(
                f"orthocomplement {c.span_str()} of {s.span_str()} is not a lattice element"
            )
        out.append(lat.index_of(c))
    return tuple(out)


@dataclass(frozen=True)
class LawViolation:
    """One failed instance: the elements tried and the two unequal sides."""

    elements: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class LawReport:
    law: str
    holds: bool
    total_violations: int
    violations: tuple[LawViolation, ...]


def _collect(law: str, found: list[LawViolation], total: int) -> LawReport:
    return LawReport(law, total == 0, total, tuple(found))


def check_distributive(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Scan all ordered triples (a, b, c) for (a v b) ^ c = (a ^ c) v (b ^ c)."""
    found: list[LawViolation] = []
    total = 0
    size = len(lat)
    for a, b, c in itertools.product(range(size), repeat=3):
        lhs = lat.meet(lat.join(a, b), c)
        rhs = lat.join(lat.meet(a, c), lat.meet(b, c))
        if lhs != rhs:
            total += 1
            if len(found) < limit:
                found.append(LawViolation((a, b, c), lhs, rhs))
    return _collect("distributive", found, total)


def check_modular(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Scan triples with a <= c for a v (b ^ c) = (a v b) ^ c."""
    found: list[LawViolation] = []
    total = 0
    size = len(lat)
    for a, b, c in itertools.product(range(size), repeat=3):
        if not lat.leq(a, c):
            continue
        lhs = lat.join(a, lat.meet(b, c))
        rhs = lat.meet(lat.join(a, b), c)
        if lhs != rhs:
            total += 1
            if len(found) < limit:
                found.append(LawViolation((a, b, c), lhs, rhs))
    return _collect("modular", found, total)


def check_orthomodular(
    lat: FiniteLattice,
    complement: Callable[[Subspace], Subspace] = sub.orthocomplement,
    *,
    limit: int = 10,
) -> LawReport:
    """Scan pairs with a <= b for b = a v (a' ^ b).

    Requires every element's complement to be a lattice element; raises
    ValueError naming the first one that is not.
    """
    comp = orthocomplement_indices(lat, complement)
    found: list[LawViolation] = []
    total = 0
    size = len(lat)
    for a in range(size):
        for b in range(size):
            if not lat.leq(a, b):
                continue
            rebuilt = lat.join(a, lat.meet(comp[a], b))
            if rebuilt != b:
                total += 1
                if len(found) < limit:
                    found.append(LawViolation((a, b), rebuilt, b))
    return _collect("orthomodular", found, total)


def to_dot(lat: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT form: one node per element, covering edges only."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, s in enumerate(lat.elements):
        lines.append(f'  n{i} [label="{s.span_str()}"];')
    for i, j in covers(lat):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
