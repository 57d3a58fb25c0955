"""Finite lattices of subspaces: closure, law checking, Hasse diagrams.

A FiniteLattice is a closed family of subspaces of one ambient space with
precomputed order, meet, and join tables over element indices. Elements
are sorted by (dimension, basis entries), so index 0 is the zero subspace
and the last index is the full space, and rebuilding from the same family
reproduces the same object. Closure is a worklist that settles each
pair of elements once: dimension alone settles pairs that involve the
bottom or the top, pairs of hyperplanes of C^2 and the zero meets that
Grassmann's formula shows, and exact meet or join does the rest. All
three tables are read off those pair results, and sublattices of a built
lattice are taken by restricting its tables. Atoms, covers and law
reports are counted off the tables too, with no subspace algebra.
"""

from __future__ import annotations

import itertools
import operator
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
    "sublattice",
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

    The closure runs as a worklist: each element is paired once with every
    element found before it, so each unordered pair is settled exactly
    once, and dimension settles most pairs without exact algebra (see
    `_settle`). The meet and join tables are read off those pair results,
    and the order table off the meet table.

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

    zero, full = Subspace.zero(n), Subspace.full(n)
    found = list(dict.fromkeys([zero, full, *seed_list]))
    if len(found) > max_elements:
        raise ClosureCapError(
            f"{len(found)} seed elements exceed the cap of {max_elements}"
        )
    index = {s: k for k, s in enumerate(found)}

    def locate(x: Subspace) -> int:
        """Discovery index of x; x is appended when new."""
        d = index.get(x)
        if d is None:
            d = index[x] = len(found)
            found.append(x)
            if len(found) > max_elements:
                raise ClosureCapError(
                    f"meet/join closure exceeds the cap of {max_elements} elements"
                )
        return d

    # pairs[k][i] holds the discovery indices of the meet and the join of
    # found[i] and found[k], for i < k; iterating over the growing list
    # reaches the elements appended along the way.
    pairs = []
    for k, t in enumerate(found):
        row = []
        for i, s in enumerate(found[:k]):
            m, j = _settle(s, t, zero, full)
            row.append((locate(m), locate(j)))
        pairs.append(row)

    size = len(found)
    ranked = sorted(range(size), key=lambda k: found[k].sort_key())
    rank = [0] * size
    for r, k in enumerate(ranked):
        rank[k] = r
    meets = [[r] * size for r in range(size)]
    joins = [[r] * size for r in range(size)]
    for k, row in enumerate(pairs):
        for i, (m, j) in enumerate(row):
            a, b = rank[k], rank[i]
            meets[a][b] = meets[b][a] = rank[m]
            joins[a][b] = joins[b][a] = rank[j]
    return FiniteLattice(
        ambient_dim=n,
        elements=tuple(found[k] for k in ranked),
        order=tuple(tuple(m == i for m in meets[i]) for i in range(size)),
        meet_table=tuple(map(tuple, meets)),
        join_table=tuple(map(tuple, joins)),
        bottom=0,
        top=size - 1,
    )


def _settle(
    s: Subspace, t: Subspace, zero: Subspace, full: Subspace
) -> tuple[Subspace, Subspace]:
    """Meet and join of distinct s and t.

    Dimension settles a pair where it can; by Grassmann's formula,
    dim(s ^ t) + dim(s v t) = dim s + dim t.
    """
    if s.dim > t.dim:
        s, t = t, s
    n = full.dim
    if s.dim == 0 or t.dim == n:
        return s, t
    if s.dim == n - 1:
        # two distinct hyperplanes span the whole space
        return (zero if n == 2 else sub.meet(s, t)), full
    j = sub.join(s, t)
    if j.dim == t.dim:
        # t <= j, so j = t and s <= t
        return s, t
    if s.dim + t.dim == j.dim:
        return zero, j
    return sub.meet(s, t), j


def sublattice(lat: FiniteLattice, indices: Iterable[int]) -> FiniteLattice:
    """The lattice on an index subset that holds the bottom and the top and
    is closed under meet and join, read off lat's tables with no subspace
    algebra; the full index set returns lat itself."""
    kept = sorted(set(indices))
    for i in kept[:1] + kept[-1:]:  # the least and the greatest index
        if not 0 <= i < len(lat):
            raise ValueError(f"element index {i} out of range")
    if kept == list(range(len(lat))):
        return lat
    new = {old: k for k, old in enumerate(kept)}

    def restrict(table):
        return tuple(tuple(table[i][j] for j in kept) for i in kept)

    def renumber(table):
        return tuple(tuple(new[k] for k in row) for row in restrict(table))

    try:
        return FiniteLattice(
            lat.ambient_dim, tuple(lat.elements[i] for i in kept), restrict(lat.order),
            renumber(lat.meet_table), renumber(lat.join_table),
            new[lat.bottom], new[lat.top],
        )
    except KeyError:
        raise ValueError(
            "index subset is not closed under meet and join "
            "or misses the bottom or the top"
        ) from None


def atoms(lat: FiniteLattice) -> tuple[int, ...]:
    """Indices of elements covering the bottom: a != bottom whose down-set,
    its order column, is exactly {bottom, a}."""
    return tuple(
        i for i, column in enumerate(zip(*lat.order))
        if i != lat.bottom and sum(column) == 2
    )


def covers(lat: FiniteLattice) -> tuple[tuple[int, int], ...]:
    """All covering pairs (i, j): i < j with nothing strictly between, that
    is, the interval {z : i <= z <= j} holds exactly i and j."""
    columns = tuple(zip(*lat.order))
    return tuple(
        (i, j)
        for i, up in enumerate(lat.order)
        for j, down in enumerate(columns)
        if i != j and up[j] and sum(map(operator.and_, up, down)) == 2
    )


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


def _report(
    law: str, cases: Iterable[tuple[tuple[int, ...], int, int]], limit: int
) -> LawReport:
    """Count the (elements, lhs, rhs) cases whose sides differ, keeping the
    first limit of them."""
    total = 0
    found: list[LawViolation] = []
    for elements, lhs, rhs in cases:
        if lhs != rhs:
            total += 1
            if len(found) < limit:
                found.append(LawViolation(elements, lhs, rhs))
    return LawReport(law, total == 0, total, tuple(found))


def check_distributive(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Scan all ordered triples (a, b, c) for (a v b) ^ c = (a ^ c) v (b ^ c)."""
    meet, join = lat.meet_table, lat.join_table
    return _report("distributive", (
        ((a, b, c), meet[join[a][b]][c], join[meet[a][c]][meet[b][c]])
        for a, b, c in itertools.product(range(len(lat)), repeat=3)
    ), limit)


def check_modular(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Scan triples with a <= c for a v (b ^ c) = (a v b) ^ c."""
    meet, join, order = lat.meet_table, lat.join_table, lat.order
    return _report("modular", (
        ((a, b, c), join[a][meet[b][c]], meet[join[a][b]][c])
        for a, b, c in itertools.product(range(len(lat)), repeat=3)
        if order[a][c]
    ), limit)


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
    meet, join, order = lat.meet_table, lat.join_table, lat.order
    return _report("orthomodular", (
        ((a, b), join[a][meet[comp[a]][b]], b)
        for a, b in itertools.product(range(len(lat)), repeat=2)
        if order[a][b]
    ), limit)


def to_dot(lat: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT form: one node per element, covering edges only."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, s in enumerate(lat.elements):
        lines.append(f'  n{i} [label="{s.span_str()}"];')
    for i, j in covers(lat):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
