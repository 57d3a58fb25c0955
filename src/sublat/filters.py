"""Filters, ideals, and two-valued maps on finite subspace lattices.

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
from dataclasses import dataclass
from typing import Iterable, Optional

from .exactlin import ExactMatrix
from .lattice import FiniteLattice, atoms, orthocomplement_indices
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
    """A subset of one lattice's elements, held as indices."""

    host: FiniteLattice
    members: frozenset[int]

    def __post_init__(self) -> None:
        members = frozenset(self.members)
        for i in members:
            if not (0 <= i < len(self.host)):
                raise ValueError(f"member index {i} out of range")
        object.__setattr__(self, "members", members)

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def complement_members(self) -> frozenset[int]:
        return frozenset(range(len(self.host))) - self.members

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
        if any(v not in (0, 1) for v in self.assignment):
            raise ValueError("assignment values must be 0 or 1")
        if self.convention not in _CONVENTIONS:
            raise ValueError(f"unknown convention {self.convention!r}")

    def value(self, index: int) -> int:
        return self.assignment[index]

    def ones(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.assignment) if v == 1)


def coatom_complement_filter(host: FiniteLattice, w: int) -> LatticeSubset:
    """The whole lattice minus {w}; w must be a nontrivial atom."""
    if not (0 <= w < len(host)):
        raise ValueError(f"element index {w} out of range")
    if w == host.bottom or w == host.top:
        raise ValueError("cannot remove the bottom or the top")
    if w not in atoms(host):
        raise ValueError(
            f"{host.elements[w].span_str()} is not an atom of the lattice"
        )
    return LatticeSubset(host, frozenset(range(len(host))) - {w})


def ideal_complement(host: FiniteLattice, subset: LatticeSubset) -> LatticeSubset:
    """Set complement; the ideal mate of a deleted-element filter."""
    if subset.host is not host and subset.host != host:
        raise ValueError("subset belongs to a different lattice")
    return LatticeSubset(host, subset.complement_members())


def is_downward_directed(subset: LatticeSubset) -> bool:
    """Every pair of members has its meet inside the set."""
    lat = subset.host
    idx = subset.sorted_members()
    return all(lat.meet(x, y) in subset for x, y in itertools.product(idx, repeat=2))


def is_upward_closed(subset: LatticeSubset) -> tuple[bool, Optional[tuple[int, int]]]:
    """(True, None), or (False, (x, y)) with x a member, x <= y, y outside."""
    lat = subset.host
    for x in subset.sorted_members():
        for y in range(len(lat)):
            if lat.leq(x, y) and y not in subset:
                return (False, (x, y))
    return (True, None)


def is_standard_filter(subset: LatticeSubset) -> bool:
    """Nonempty, proper, upward closed, and closed under meets."""
    if not subset.members or not subset.complement_members():
        return False
    closed, _ = is_upward_closed(subset)
    return closed and is_downward_directed(subset)


def is_prime_paper(subset: LatticeSubset) -> bool:
    """Literal primality: quantify joins against removed elements only.

    For every lattice element x and every w outside the set,
    x v w inside the set forces x inside the set.
    """
    lat = subset.host
    outside = sorted(subset.complement_members())
    for w in outside:
        for x in range(len(lat)):
            if lat.join(x, w) in subset and x not in subset:
                return False
    return True


def is_prime_standard(subset: LatticeSubset):
    """All-pairs primality, or NOT_APPLICABLE off standard filters.

    On a standard filter: for every pair (x, y), x v y inside the set
    forces x or y inside, which _join_prime decides in one join fold.
    Returns NOT_APPLICABLE when the subset is not a standard filter, so
    the caller can report which convention answered.
    """
    if not is_standard_filter(subset):
        return NOT_APPLICABLE
    lat = subset.host
    return _join_prime(lat, tuple(int(i in subset) for i in range(len(lat))))


def homomorphism_from_filter(
    host: FiniteLattice, filt: LatticeSubset, convention: str = CONVENTION_PAPER
) -> Bivaluation:
    """The two-valued map attached to a deleted-element filter.

    With convention "paper" the removed element w gets 1 and every
    other element, including the top, gets 0. Convention "standard"
    flips the values. The filter must be the complement of a single
    nontrivial atom.
    """
    outside = filt.complement_members()
    if len(outside) != 1:
        raise ValueError("filter is not the complement of a single element")
    (w,) = outside
    if w in (filt.host.bottom, filt.host.top) or w not in atoms(filt.host):
        raise ValueError("filter does not come from removing a nontrivial atom")
    if filt.host is not host and filt.host != host:
        raise ValueError("filter belongs to a different lattice")
    if convention == CONVENTION_PAPER:
        assignment = tuple(1 if i == w else 0 for i in range(len(host)))
    else:
        assignment = tuple(0 if i == w else 1 for i in range(len(host)))
    return Bivaluation(host, assignment, convention)


def _check_law_tokens(laws: Iterable[str]) -> frozenset[str]:
    chosen = frozenset(laws)
    unknown = chosen - KNOWN_LAWS
    if unknown:
        raise ValueError(f"unknown law tokens: {', '.join(sorted(unknown))}")
    return chosen


def _join_prime(host: FiniteLattice, v: tuple[int, ...]) -> bool:
    """The 0-set of v is empty or its join maps to 0.

    For a {0,1} map whose 1-set is an up-set this is exactly
    v(x v y) = max(v(x), v(y)) for all pairs: the 0-set is a down-set,
    and a down-set is closed under joins when it holds its own join.
    """
    zeros = [i for i, b in enumerate(v) if b == 0]
    if not zeros:
        return True
    joined = host.bottom
    for i in zeros:
        joined = host.join_table[joined][i]
    return v[joined] == 0


def _bounds_and_complement(host: FiniteLattice, v, chosen, comp) -> bool:
    if BOTTOM_TO_ZERO in chosen and v[host.bottom] != 0:
        return False
    if TOP_TO_ONE in chosen and v[host.top] != 1:
        return False
    return comp is None or all(v[i] + v[comp[i]] == 1 for i in range(len(host)))


def satisfies_laws(
    host: FiniteLattice, assignment: tuple[int, ...], laws: Iterable[str]
) -> bool:
    """Full check of a {0,1} assignment against the chosen law set;
    ValueError, as from Bivaluation, when it is not one."""
    chosen = _check_law_tokens(laws)
    comp = orthocomplement_indices(host) if COMPLEMENT_LAW in chosen else None
    v = Bivaluation(host, assignment, CONVENTION_STANDARD).assignment
    if not _bounds_and_complement(host, v, chosen, comp):
        return False
    meet_hom, join_hom = MEET_HOM in chosen, JOIN_HOM in chosen
    if not (meet_hom or join_hom):
        return True
    for vx, meet_row, join_row in zip(v, host.meet_table, host.join_table):
        for vy, m, j in zip(v, meet_row, join_row):
            if meet_hom and v[m] != min(vx, vy):
                return False
            if join_hom and v[j] != max(vx, vy):
                return False
    return True


def search_bivaluations(
    host: FiniteLattice, laws: Iterable[str]
) -> tuple[Bivaluation, ...]:
    """All {0,1} assignments satisfying the law set, sorted by bits.

    The candidates come from the order table, and no pair is checked.
    Under meet-hom the 1-set is empty or a principal filter up(a), each
    a meet-homomorphism, and with join-hom one is kept when the join of
    its 0-set maps to 0. Under join-hom alone the 0-set is empty or a
    principal ideal down(b), each a join-homomorphism. Without either
    law the candidates are a product over free bits, one per element or
    per orthocomplement pair, so k free bits give 2^k candidates; more
    than SEARCH_FREE_BIT_CAP free bits are refused before any candidate
    is listed. Each candidate is then checked for the bounds and the
    complement law.
    """
    chosen = _check_law_tokens(laws)
    size = len(host)
    comp = orthocomplement_indices(host) if COMPLEMENT_LAW in chosen else None
    if MEET_HOM in chosen:
        candidates = [(0,) * size] + [tuple(map(int, row)) for row in host.order]
        if JOIN_HOM in chosen:
            candidates = [v for v in candidates if _join_prime(host, v)]
    elif JOIN_HOM in chosen:
        candidates = [(1,) * size] + [tuple(int(not x) for x in c) for c in zip(*host.order)]
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
        bit_maps = (
            dict(zip(free, bits)) for bits in itertools.product((0, 1), repeat=len(free))
        )
        candidates = (
            tuple(b[i] if i in b else 1 - b[comp[i]] for i in range(size))
            for b in bit_maps
        )
    found = sorted(v for v in candidates if _bounds_and_complement(host, v, chosen, comp))
    return tuple(Bivaluation(host, v, CONVENTION_STANDARD) for v in found)


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
