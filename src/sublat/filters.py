"""Filters, ideals, and two-valued maps on finite subspace lattices.

A {0,1} map preserves meets exactly when its 1-set is empty or a
principal filter up(a), and joins exactly when its 0-set is empty or a
principal ideal down(b), so the bounded two-valued homomorphisms are
the indicators of the prime filters; each law is decided that way.

Every verdict reads a fact that the lattice or the subset computed once,
or one row or column of a table per element it asks about, never a whole
table. The meet-hom law is one hashed lookup of its 1-set among the order
rows (the sets up(a), `FiniteLattice.up_sets`) and the join-hom law one of
its 0-set among the order columns (the sets down(b),
`FiniteLattice.down_sets`); an atom test is one lookup in
`FiniteLattice.atom_set`; the lattice fills each of these on first use. A
subset stores its complement when it is made. Paper primality reads the
join row of each removed element at the removed elements; upward closure
reads each member's order row at the non-members, and downward
directedness its meet row at the members.

Two regimes are implemented side by side, and every verdict is tagged
with the convention that produced it:

* the "paper" convention takes the deleted-element construction
  literally: the filter attached to a nontrivial atom w is the whole
  lattice minus {w}, primality is quantified only against the removed
  element, and the associated two-valued map sends w to 1 and everything
  else, including the top, to 0;
* the "standard" convention uses the order-theoretic notions: filters are
  nonempty, proper, upward closed, and meet closed; primality quantifies
  over all pairs; value 1 marks filter membership.

The deleted-element filter is not upward closed, so is_upward_closed
returns a counterexample pair instead of a bare False, and
is_prime_standard answers NOT_APPLICABLE on sets that are not standard
filters rather than forcing a boolean.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

from .exactlin import ExactMatrix
from .lattice import FiniteLattice, is_atom, orthocomplement_indices
from .subspace import StateVector, contains_vector, image, orthocomplement

__all__ = [
    "CONVENTION_PAPER",
    "CONVENTION_STANDARD",
    "MEET_HOM",
    "JOIN_HOM",
    "COMPLEMENT_LAW",
    "TOP_TO_ONE",
    "BOTTOM_TO_ZERO",
    "KNOWN_LAWS",
    "FULL_HOMOMORPHISM_LAWS",
    "INDETERMINATE",
    "NOT_APPLICABLE",
    "LatticeSubset",
    "Bivaluation",
    "coatom_complement_filter",
    "ideal_complement",
    "is_downward_directed",
    "is_upward_closed",
    "is_standard_filter",
    "is_prime_paper",
    "is_prime_standard",
    "homomorphism_from_filter",
    "satisfies_laws",
    "state_valuation",
    "search_bivaluations",
    "SEARCH_FREE_BIT_CAP",
]

CONVENTION_PAPER = "paper"
CONVENTION_STANDARD = "standard"
_CONVENTIONS = (CONVENTION_PAPER, CONVENTION_STANDARD)

MEET_HOM = "meet-hom"
JOIN_HOM = "join-hom"
COMPLEMENT_LAW = "complement-law"
TOP_TO_ONE = "top-to-one"
BOTTOM_TO_ZERO = "bottom-to-zero"
KNOWN_LAWS = frozenset({MEET_HOM, JOIN_HOM, COMPLEMENT_LAW, TOP_TO_ONE, BOTTOM_TO_ZERO})
FULL_HOMOMORPHISM_LAWS = frozenset({MEET_HOM, JOIN_HOM, TOP_TO_ONE, BOTTOM_TO_ZERO})

SEARCH_FREE_BIT_CAP = 16


class _Sentinel:
    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


INDETERMINATE = _Sentinel("indeterminate")
NOT_APPLICABLE = _Sentinel("not-applicable")


@dataclass(frozen=True)
class LatticeSubset:
    """A subset of one lattice's elements, held as indices. Its complement
    is stored when it is made, outside the fields, so equality, the hash
    and the repr read the host and the members only."""

    host: FiniteLattice
    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        everything = frozenset(range(len(self.host)))
        if bad := members - everything:
            first = next(filter(bad.__contains__, members))
            raise ValueError(f"member index {first} out of range")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_complement", everything - members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def complement_members(self) -> frozenset[int]:
        return self._complement

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Bivaluation:
    """A total {0,1} assignment on one lattice, tagged with its convention."""

    host: FiniteLattice
    assignment: tuple[int, ...]
    convention: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if len(self.assignment) != len(self.host):
            raise ValueError("assignment length must match the lattice size")
        try:
            binary = set(self.assignment) <= {0, 1}
        except TypeError:  # an unhashable value is neither 0 nor 1
            binary = False
        if not binary:
            raise ValueError("assignment values must be 0 or 1")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")

    def ones(self) -> tuple[int, ...]:
        return tuple(itertools.compress(range(len(self.assignment)), self.assignment))


def coatom_complement_filter(host: FiniteLattice, w: int) -> LatticeSubset:
    """The whole lattice minus {w}; w must be a nontrivial atom, which its
    meet row shows."""
    if not (0 <= w < len(host)):
        raise ValueError(f"element index {w} out of range")
    if w == host.bottom or w == host.top:
        raise ValueError("cannot remove the bottom or the top")
    if not is_atom(host, w):
        raise ValueError(
            f"{host.elements[w].span_str()} is not an atom of the lattice"
        )
    return LatticeSubset(host, frozenset(range(len(host))) - {w})


def ideal_complement(subset: LatticeSubset) -> LatticeSubset:
    """Set complement; the ideal mate of a deleted-element filter."""
    return LatticeSubset(subset.host, subset.complement_members())


def is_downward_directed(subset: LatticeSubset) -> bool:
    """Every pair of members has its meet inside the set: each member's meet
    row, read at the members, names members only."""
    members, meet = subset.members, subset.host.meet_table
    return all(members.issuperset(map(meet[x].__getitem__, members)) for x in members)


def is_upward_closed(subset: LatticeSubset) -> tuple[bool, Optional[tuple[int, int]]]:
    """(True, None), or (False, (x, y)) with x a member, x <= y, y outside:
    the least such x, and the least y for it, read off x's order row at the
    non-members."""
    outside = sorted(subset.complement_members())
    for x in subset.sorted_members():
        above = subset.host.order[x]
        y = next(itertools.compress(outside, map(above.__getitem__, outside)), None)
        if y is not None:
            return (False, (x, y))
    return (True, None)


def is_standard_filter(subset: LatticeSubset) -> bool:
    """Nonempty, proper, upward closed, and closed under meets; for a finite
    subset, that is nonempty, proper and up(a), a the meet of the members."""
    return _standard_filter(subset.host, _indicator(subset))


def _indicator(subset: LatticeSubset) -> tuple[int, ...]:
    return tuple(map(subset.members.__contains__, range(len(subset.host))))


def _standard_filter(host: FiniteLattice, v: tuple[int, ...]) -> bool:
    """v is the indicator of a standard filter: its 1-set is nonempty and
    proper, and `_meet_hom` holds."""
    return 0 < sum(v) < len(host) and _meet_hom(host, v)


def is_prime_paper(subset: LatticeSubset) -> bool:
    """Literal primality: quantify joins against removed elements only.

    For every lattice element x and every w outside the set,
    x v w inside the set forces x inside the set. A violation needs x
    outside too, so each removed w's join row is read at the removed
    elements only; a deleted-atom filter takes one lookup.
    """
    outside = subset.complement_members()
    join, inside = subset.host.join_table, subset.members.__contains__
    return not any(any(map(inside, map(join[w].__getitem__, outside))) for w in outside)


def is_prime_standard(subset: LatticeSubset):
    """All-pairs primality, or NOT_APPLICABLE off standard filters.

    On a standard filter: for every pair (x, y), x v y inside the set
    forces x or y inside, that is, the indicator preserves joins.
    Returns NOT_APPLICABLE when the subset is not a standard filter, so
    the caller can report which convention answered.
    """
    v = _indicator(subset)
    if not _standard_filter(subset.host, v):
        return NOT_APPLICABLE
    return _join_hom(subset.host, v)


def homomorphism_from_filter(
    host: FiniteLattice, filt: LatticeSubset, convention: str = CONVENTION_PAPER
) -> Bivaluation:
    """The two-valued map attached to a deleted-element filter.

    With convention "paper" the removed element w gets 1 and every
    other element, including the top, gets 0. Convention "standard"
    flips the values. The filter must be the complement of a single
    nontrivial atom, which w's meet row shows.
    """
    outside = filt.complement_members()
    if len(outside) != 1:
        raise ValueError("filter is not the complement of a single element")
    (w,) = outside
    if w in (filt.host.bottom, filt.host.top) or not is_atom(filt.host, w):
        raise ValueError("filter does not come from removing a nontrivial atom")
    if filt.host is not host and filt.host != host:
        raise ValueError("filter belongs to a different lattice")
    rest, removed = (0, 1) if convention == CONVENTION_PAPER else (1, 0)
    assignment = [rest] * len(host)
    assignment[w] = removed
    return Bivaluation(host, assignment, convention)


def _check_law_tokens(laws: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(laws)
    unknown = chosen - KNOWN_LAWS
    if unknown:
        raise ValueError(f"unknown law tokens: {', '.join(sorted(unknown))}")
    return chosen


def _meet_hom(host: FiniteLattice, v: tuple[int, ...]) -> bool:
    """v preserves meets: its 1-set is empty or up(a) for some a, the meet of
    the 1-set; one hashed lookup among the rows of the order table."""
    return not any(v) or v in host.up_sets


def _join_hom(host: FiniteLattice, v: tuple[int, ...]) -> bool:
    """v preserves joins: its 0-set is empty or down(b) for some b, the join
    of the 0-set; one hashed lookup among the columns of the order table."""
    return all(v) or tuple(map(operator.not_, v)) in host.down_sets


def _holds(host: FiniteLattice, v: tuple[int, ...], chosen, comp) -> bool:
    """v satisfies each law in chosen; comp is None without the complement law."""
    return (
        (BOTTOM_TO_ZERO not in chosen or v[host.bottom] == 0)
        and (TOP_TO_ONE not in chosen or v[host.top] == 1)
        and (comp is None or all(map(operator.ne, v, map(v.__getitem__, comp))))
        and (MEET_HOM not in chosen or _meet_hom(host, v))
        and (JOIN_HOM not in chosen or _join_hom(host, v))
    )


def satisfies_laws(
    host: FiniteLattice, assignment: tuple[int, ...], laws: Iterable[str]
) -> bool:
    """Full check of a {0,1} assignment against the chosen law set;
    ValueError, as from Bivaluation, when it is not one."""
    chosen = _check_law_tokens(laws)
    comp = orthocomplement_indices(host) if COMPLEMENT_LAW in chosen else None
    v = Bivaluation(host, assignment, CONVENTION_STANDARD).assignment
    return _holds(host, v, chosen, comp)


def search_bivaluations(
    host: FiniteLattice, laws: Iterable[str]
) -> tuple[tuple[int, ...], ...]:
    """All {0,1} assignments satisfying the law set, as sorted bit tuples.

    Under meet-hom the candidates are the zero map and the principal
    filters up(a), the order table's 0/1 rows; under join-hom alone,
    the all-ones map and the complements of the principal ideals down(b).
    Otherwise they are a product over k free bits, one per element or
    per orthocomplement pair, and more than SEARCH_FREE_BIT_CAP free bits
    are refused before any of the 2^k is listed. Under complement-law a
    plan gives each element the free bit it reads and whether to flip it:
    the lesser index of a pair reads its bit and the greater one the
    flipped bit, so every candidate keeps the law. No element is its own
    orthocomplement, as x = x' would force {0} = C^n. Each candidate is
    then checked for the laws its source does not guarantee.
    """
    chosen = _check_law_tokens(laws)
    size = len(host)
    comp = orthocomplement_indices(host) if COMPLEMENT_LAW in chosen else None
    if MEET_HOM in chosen:
        candidates = [(0,) * size, *host.order]
        chosen -= {MEET_HOM}
    elif JOIN_HOM in chosen:
        candidates = [(1,) * size] + [tuple(map((1).__sub__, c)) for c in host.order_columns]
        chosen -= {JOIN_HOM}
    else:
        # bottom and top are left to the law check
        free = [i for i in range(size) if comp is None or i <= comp[i]]
        if len(free) > SEARCH_FREE_BIT_CAP:
            raise ValueError(
                f"lattice has {size} elements and {len(free)} free bits; the "
                f"search cap is {SEARCH_FREE_BIT_CAP} free bits for law sets "
                "without meet-hom or join-hom, whose valuations are listed "
                f"one by one (2^{len(free)} candidates)"
            )
        candidates = itertools.product((0, 1), repeat=len(free))
        if comp is not None:
            # Two products give each candidate's free bits and their flips in
            # lockstep; the plan reads free bit k of element i at k in
            # bits + flips, or at len(free) + k when i is the flipped one. A
            # lattice with orthocomplements has two elements or more, so the
            # itemgetter returns a tuple.
            slot = {i: k for k, i in enumerate(free)}
            read = operator.itemgetter(
                *(slot[i] if i in slot else len(free) + slot[comp[i]] for i in range(size)))
            flipped = itertools.product((1, 0), repeat=len(free))
            candidates = (read(bits + flips) for bits, flips in zip(candidates, flipped))
            comp = None  # the plan keeps the complement law
    return tuple(sorted(v for v in candidates if _holds(host, v, chosen, comp)))


def state_valuation(p: ExactMatrix, psi: StateVector):
    """Three-valued truth of a projector on a state: 1, 0, or INDETERMINATE.

    1 when psi lies in ran(p), 0 when psi lies in ran(1 - p), and
    INDETERMINATE otherwise. For an orthogonal projector, ran(1 - p) is
    the orthocomplement of ran(p). Raises ValueError if p is not a
    projector or the dimensions do not match.
    """
    if not p.is_projector():
        raise ValueError("state valuation requires a Hermitian idempotent matrix")
    ran = image(p)
    if contains_vector(ran, psi):
        return 1
    if contains_vector(orthocomplement(ran), psi):
        return 0
    return INDETERMINATE
