"""Finite lattices of subspaces: closure, law checking, Hasse diagrams.

A FiniteLattice is a closed family of subspaces of one ambient space and
its meet and join tables over element indices; the rest (the order, the
bottom and the top) is read off those tables, and row a of the order is
the 0/1 indicator of up(a). Elements are sorted by (dimension, basis
entries), so index 0 is the zero subspace and the last index is the full
space, and rebuilding from the same family reproduces the same object.
Closure is a worklist that settles each pair of elements once, by
discovery index, and appends the result to the table rows of both:
index 0 is the bottom and index 1 the top. A pair that dimension leaves
open (see `close_and_build`) is settled off pairs settled before it when
one of the two was first found as p v q or p ^ q: by associativity,
s v (p v q) = (s v p) v q and dually, or by the modular law, which every
subspace lattice obeys: s ^ (p v q) = p v (s ^ q) when p <= s, and
s v (p ^ q) = p ^ (s v q) when s <= p. These rules name an index; exact
meet or join runs only when none applies, and only its result is hashed
to find its index. The sublattice some elements of a built lattice
generate is their closure under its tables. Both renumber a parent's
meet and join tables onto the kept indices. Atoms, covers and law
reports are counted off the tables too, with no subspace algebra: an
atom is read off its own meet row, whose values are its down-set. The
atom set, and the order rows and columns as hashed sets, are lazily
filled facts of the lattice, each computed once on first use, so an
atom test, or asking whether a 0/1 tuple is some up(a) or down(b), is
one hashed lookup. A law scan settles each instance either by an
identity that holds in every lattice or by comparing two whole table
rows with `map`, never by a Python loop per triple: the distributive
sides agree when a and b are comparable and do not change when a and b
swap, and the modular sides agree when a is the bottom, c = a or c is
the top.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
    "is_atom",
    "covers",
    "orthocomplement_indices",
    "check_distributive",
    "check_modular",
    "check_orthomodular",
    "to_dot",
]

# The most elements close_and_build lets a closure reach, read at each call.
MAX_ELEMENTS = 256
Table = Sequence[Sequence[int]]


class ClosureCapError(ValueError):
    """Raised when meet/join closure would exceed the element cap."""


@dataclass(frozen=True)
class FiniteLattice:
    """A lattice is its elements and its meet and join tables, which alone
    decide equality and the hash. The rest is read off them: `ambient_dim`,
    `order` (0/1 ints: entry j of row i is 1 exactly when i ^ j = i, so row
    i is the indicator of up(i)), `bottom` (the meet of every index) and
    `top` (the join of every index). Four more facts are filled on first
    use and stay out of equality, the hash and the repr: `order_columns`,
    the transposed order table; `up_sets` and `down_sets`, its rows and
    its columns as hashed sets, so asking whether a 0/1 tuple is some
    up(a) or some down(b) is one hashed lookup; and `atom_set`, the
    indices covering the bottom. `leq` answers a bool."""

    elements: tuple[Subspace, ...]
    meet_table: tuple[tuple[int, ...], ...]
    join_table: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        meet, join = self.meet_table, self.join_table
        put = object.__setattr__
        put(self, "ambient_dim", self.elements[0].ambient_dim)
        put(self, "order",
            tuple(tuple([1 if m == i else 0 for m in row]) for i, row in enumerate(meet)))
        put(self, "bottom", functools.reduce(lambda a, b: meet[a][b], range(len(meet))))
        put(self, "top", functools.reduce(lambda a, b: join[a][b], range(len(join))))
        put(self, "_index", {s: i for i, s in enumerate(self.elements)})

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
        return self.order[i][j] == 1

    def meet(self, i: int, j: int) -> int:
        return self.meet_table[i][j]

    def join(self, i: int, j: int) -> int:
        return self.join_table[i][j]

    def spans(self) -> tuple[str, ...]:
        return tuple(s.span_str() for s in self.elements)

    @functools.cached_property
    def order_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j of the order table: the indicator of down(j)."""
        return tuple(zip(*self.order))

    @functools.cached_property
    def up_sets(self) -> frozenset[tuple[int, ...]]:
        """The order rows, hashed: the indicators of the sets up(a)."""
        return frozenset(self.order)

    @functools.cached_property
    def down_sets(self) -> frozenset[tuple[int, ...]]:
        """The order columns, hashed: the indicators of the sets down(b)."""
        return frozenset(self.order_columns)

    @functools.cached_property
    def atom_set(self) -> frozenset[int]:
        """The indices other than the bottom whose meet row takes exactly two
        values. The values of row i are its down-set, so that set is
        {bottom, i}: i covers the bottom."""
        return frozenset(i for i, row in enumerate(self.meet_table)
                         if i != self.bottom and len(set(row)) == 2)


def close_and_build(
    seeds: Iterable[Subspace], *, ambient_dim: int | None = None
) -> FiniteLattice:
    """Close seeds under meet and join, adjoin bottom and top, build tables.

    The closure runs as a worklist: each element is paired once with every
    element found before it, so each unordered pair (i, k), i < k, of
    discovery indices is settled exactly once. Index 0 is the bottom and
    index 1 the top, and the dimension rules name an index: the join is k
    when i is the bottom and the top when i is the top or both are
    hyperplanes, and Grassmann's formula gives the meet as the bottom, i or
    k. A pair they leave open is settled by an identity over pairs already
    settled when one applies (`by_laws` below), which also returns an
    index, and by one exact `join` or `meet` only when none does; only
    those exact results are hashed to find their index (`locate`). An
    identity only names an element already found, so the elements are
    found in the same order as by exact algebra alone. The meet and join
    tables are filled in discovery order, row by row as pairs settle, then
    relabelled in sorted order.

    Rebuilding from a lattice's own elements returns an equal lattice.
    Raises ClosureCapError if closure would exceed MAX_ELEMENTS and
    ValueError on an ambient-dimension mismatch (or when no dimension can
    be inferred from empty seeds).
    """
    seed_list = list(seeds)
    n = ambient_dim
    for s in seed_list:
        n = s.ambient_dim if n is None else n
        sub._require_same_ambient(n, s.ambient_dim)
    if n is None:
        raise ValueError("ambient_dim is required when seeds are empty")

    zero, full = Subspace.zero(n), Subspace.full(n)
    found = list(dict.fromkeys([zero, full, *seed_list]))
    if len(found) > MAX_ELEMENTS:
        raise ClosureCapError(
            f"{len(found)} seed elements exceed the cap of {MAX_ELEMENTS}"
        )
    index = {s: k for k, s in enumerate(found)}
    dim = [s.dim for s in found]
    # Row x of meets (joins) lists the meets (joins) of found[x] with found[0],
    # found[1], ... in that order, as they settle: entry y is settled exactly
    # when y < len(row).
    meets: list[list[int]] = [[] for _ in found]
    joins: list[list[int]] = [[] for _ in found]
    # origin[x] is (table, p, q) when found[x] was first found as the meet
    # (table is meets) or the join (joins) of found[p] and found[q], and None
    # for the bottom, the top and the seeds.
    origin: list[tuple[Table, int, int] | None] = [None] * len(found)

    def locate(x: Subspace, table: Table, i: int, k: int) -> int:
        """Discovery index of x, found from (i, k) in table; appended, with empty rows, if new."""
        d = index.get(x)
        if d is None:
            d = index[x] = len(found)
            found.append(x)
            dim.append(x.dim)
            meets.append([])
            joins.append([])
            origin.append((table, i, k))
            if len(found) > MAX_ELEMENTS:
                raise ClosureCapError(
                    f"meet/join closure exceeds the cap of {MAX_ELEMENTS} elements"
                )
        return d

    def settled(table: Table, x: int | None, y: int) -> int | None:
        """Entry (x, y) of table when it is settled, else None (also when x is None)."""
        if x is None or x == y:
            return x
        return table[x][y] if y < len(table[x]) else None

    def by_laws(table: Table, i: int, k: int) -> int | None:
        """The index of found[i] op found[k], op the operation of table, from
        settled pairs when one of the two is a recorded p op' q:
        - associativity, op' = op: s op (p op q) = (s op p) op q;
        - the modular law, op' the dual of op: s ^ (p v q) = p v (s ^ q)
          when p <= s, and s v (p ^ q) = p ^ (s v q) when s <= p; in both,
          s op p = p is the side condition.
        Tried with either element as s and either factor as p."""
        dual = joins if table is meets else meets
        for s, t in ((i, k), (k, i)):
            if origin[t] is None:
                continue
            op, p0, q0 = origin[t]
            for p, q in ((p0, q0), (q0, p0)):
                if op is table:
                    x = settled(table, settled(table, s, p), q)
                elif settled(table, s, p) == p:
                    x = settled(dual, settled(table, s, q), p)
                else:
                    continue
                if x is not None:
                    return x
        return None

    # Index 0 is the bottom and index 1 the top. Iterating over the growing
    # list reaches the elements appended along the way.
    for k, t in enumerate(found):
        for i in range(k):
            j = k if i == 0 else 1 if i == 1 or dim[i] == dim[k] == n - 1 else by_laws(joins, i, k)
            exact = sub.join(found[i], t) if j is None else None
            # Grassmann's formula: dim(s ^ t) + dim(s v t) = dim s + dim t.
            d = dim[i] + dim[k] - (exact.dim if j is None else dim[j])
            m = 0 if d == 0 else i if d == dim[i] else k if d == dim[k] else by_laws(meets, i, k)
            m = locate(sub.meet(found[i], t), meets, i, k) if m is None else m
            j = locate(exact, joins, i, k) if j is None else j
            meets[i].append(m)
            meets[k].append(m)
            joins[i].append(j)
            joins[k].append(j)
        meets[k].append(k)
        joins[k].append(k)

    ranked = sorted(range(len(found)), key=lambda k: found[k].sort_key())
    return _relabelled(found, meets, joins, ranked)


def _relabelled(elements: Sequence[Subspace], meets: Table, joins: Table,
                kept: Sequence[int]) -> FiniteLattice:
    """The lattice on the kept indices of a parent's tables, numbered in the
    order of kept, which must be closed under both tables."""
    new = dict(zip(kept, range(len(kept))))

    def renumber(table: Table) -> tuple[tuple[int, ...], ...]:
        rows = map(table.__getitem__, kept)
        return tuple(tuple([new[row[j]] for j in kept]) for row in rows)

    return FiniteLattice(tuple(elements[i] for i in kept), renumber(meets), renumber(joins))


def sublattice(lat: FiniteLattice, indices: Iterable[int]) -> FiniteLattice:
    """The sublattice that the indices, the bottom and the top generate: their
    closure under lat's tables, with no subspace algebra, in lat's order;
    when that is every index, lat itself."""
    picks = sorted(set(indices))
    for i in picks[:1] + picks[-1:]:  # the least and the greatest index
        if not 0 <= i < len(lat):
            raise ValueError(f"element index {i} out of range")
    kept = {lat.bottom, lat.top, *picks}
    tables = (lat.meet_table, lat.join_table)
    while (grown := {t[i][j] for t in tables for i in kept for j in kept}) != kept:
        kept = grown
    if len(kept) == len(lat):
        return lat
    return _relabelled(lat.elements, *tables, sorted(kept))


def is_atom(lat: FiniteLattice, i: int) -> bool:
    """i covers the bottom: one hashed lookup in `lat.atom_set`, which reads
    each atom off its meet row once. An index out of range is no atom."""
    return i in lat.atom_set


def atoms(lat: FiniteLattice) -> tuple[int, ...]:
    """Indices of the elements covering the bottom, ascending."""
    return tuple(sorted(lat.atom_set))


def covers(lat: FiniteLattice) -> tuple[tuple[int, int], ...]:
    """All covering pairs (i, j): i < j with nothing strictly between, that
    is, the interval {z : i <= z <= j} holds exactly i and j."""
    return tuple(
        (i, j)
        for i, up in enumerate(lat.order)
        for j, down in enumerate(lat.order_columns)
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
        i = lat._index.get(c)
        if i is None:
            raise ValueError(
                f"orthocomplement {c.span_str()} of {s.span_str()} is not a lattice element"
            )
        out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class LawViolation:
    """One failed instance: the elements tried and the two unequal sides."""

    elements: tuple[int, ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class LawReport:
    total_violations: int
    violations: tuple[LawViolation, ...]

    @property
    def holds(self) -> bool:
        return self.total_violations == 0


def _mismatches(lhs: Sequence[int], rhs: Sequence[int]) -> Iterator[int]:
    """The positions, ascending, where two rows differ."""
    return itertools.compress(itertools.count(), map(operator.ne, lhs, rhs))


def check_distributive(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Count the ordered triples (a, b, c) where (a v b) ^ c != (a ^ c) v (b ^ c),
    keeping the first limit in (a, b, c) order.

    Both sides agree when a and b are comparable, and (a, b, c) and
    (b, a, c) give the same sides, so each incomparable pair a < b is
    scanned once over every c and its mismatches count twice. The left
    side is the row meet[a v b]; the right side reads the flat join table
    at n(a ^ c) + (b ^ c), from meet rows scaled by n.
    """
    meet, join, order = lat.meet_table, lat.join_table, lat.order
    n = len(lat)
    flat = [x for row in join for x in row]
    scaled = [[n * x for x in row] for row in meet]

    def right_row(a: int, b: int) -> Iterator[int]:
        return map(flat.__getitem__, map(operator.add, scaled[a], meet[b]))

    total = 0
    # partners[a] lists, ascending, each b whose pair with a has a mismatch
    partners: list[list[int]] = [[] for _ in range(n)]
    for a, (up, down) in enumerate(zip(order, lat.order_columns)):
        comparable = list(map(operator.or_, up, down))
        for b in itertools.filterfalse(comparable.__getitem__, range(a + 1, n)):
            if bad := sum(map(operator.ne, meet[join[a][b]], right_row(a, b))):
                total += 2 * bad
                partners[a].append(b)
                partners[b].append(a)

    def witnesses() -> Iterator[LawViolation]:
        for a, bs in enumerate(partners):
            for b in bs:
                lhs, rhs = meet[join[a][b]], tuple(right_row(a, b))
                for c in _mismatches(lhs, rhs):
                    yield LawViolation((a, b, c), lhs[c], rhs[c])

    return LawReport(total, tuple(itertools.islice(witnesses(), limit)))


def check_modular(lat: FiniteLattice, *, limit: int = 10) -> LawReport:
    """Count the triples (a, b, c) with a <= c where a v (b ^ c) != (a v b) ^ c,
    keeping the first limit in (a, b, c) order.

    Both sides agree when a is the bottom (b ^ c each), when c = a (a each)
    and when c is the top (a v b each), so only a < c with a above the bottom
    and c below the top is scanned, over every b: the left side is the join
    row of a read at meet[c], the right side the meet row of c read at
    join[a]. MO_k leaves no such pair.
    """
    meet, join, order = lat.meet_table, lat.join_table, lat.order
    n, bottom, top = len(lat), lat.bottom, lat.top

    def sides(a: int, c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(map(join[a].__getitem__, meet[c])),
                tuple(map(meet[c].__getitem__, join[a])))

    total = 0
    # bad[a] lists each c whose row over b has a mismatch
    bad: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        if a == bottom:
            continue
        for c in itertools.compress(range(n), order[a]):
            if c != a and c != top:
                lhs, rhs = sides(a, c)
                if lhs != rhs:
                    total += sum(map(operator.ne, lhs, rhs))
                    bad[a].append(c)

    def witnesses() -> Iterator[LawViolation]:
        for a, cs in enumerate(bad):
            rows = {c: sides(a, c) for c in cs}
            for b, c in sorted((b, c) for c, row in rows.items() for b in _mismatches(*row)):
                lhs, rhs = rows[c]
                yield LawViolation((a, b, c), lhs[b], rhs[b])

    return LawReport(total, tuple(itertools.islice(witnesses(), limit)))


def check_orthomodular(
    lat: FiniteLattice,
    complement: Callable[[Subspace], Subspace] = sub.orthocomplement,
    *,
    limit: int = 10,
) -> LawReport:
    """Count the pairs (a, b) with a <= b where a v (a' ^ b) != b, keeping the
    first limit in (a, b) order. For each a, the left side is read for every
    b above a at once, as join[a] at meet[a'] at b, and compared with b.

    Requires every element's complement to be a lattice element; raises
    ValueError naming the first one that is not.
    """
    comp = orthocomplement_indices(lat, complement)
    meet, join, order = lat.meet_table, lat.join_table, lat.order
    n = len(lat)
    # bad[a] lists the b above a where the sides differ
    bad = []
    for a, up in enumerate(order):
        above = list(itertools.compress(range(n), up))
        rebuilt = map(join[a].__getitem__, map(meet[comp[a]].__getitem__, above))
        bad.append(list(itertools.compress(above, map(operator.ne, rebuilt, above))))
    witnesses = (
        LawViolation((a, b), join[a][meet[comp[a]][b]], b) for a, bs in enumerate(bad) for b in bs
    )
    return LawReport(sum(map(len, bad)), tuple(itertools.islice(witnesses, limit)))


def to_dot(lat: FiniteLattice, name: str = "lattice") -> str:
    """Hasse diagram in DOT form: one node per element, covering edges only."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, s in enumerate(lat.elements):
        lines.append(f'  n{i} [label="{s.span_str()}"];')
    for i, j in covers(lat):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
