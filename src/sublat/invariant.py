"""Invariant-subspace lattices, generated operator algebras, and
contextual valuation reports over sets of contexts.

An operator family's invariant indices are those of the universe elements
every operator maps into themselves, and its invariant sublattice is the
sublattice they generate. Invariant subspaces are closed under
intersection and sum, so that sublattice holds those elements and nothing
more.
The generated unital algebra is spanned by closing {identity, generators}
under left multiplication by the generators, one product at a time, and
stopping at n^2 members. The walk starts at the generators, since g @ I = g
was tried when g went in. Each member's columns are cut once and multiplied
by every generator's nonzero terms. A product stays Gaussian-integer parts
until inserting them into the canonical rows of the members so far,
exactlin's one elimination routine, finds it independent; only a kept
product becomes a matrix. Irreducibility is decided by its
dimension: by Burnside's theorem it is the full matrix algebra, of
dimension n^2, exactly when no nontrivial subspace is invariant.

A context is named universe indices and stands for the sublattice that
they, the bottom and the top generate, as lattice.sublattice reads them.
Contexts whose pairwise overlaps are trivial leave meets between elements
of different contexts undefined, and the contextual report spells out
what each per-context valuation can and cannot see. Their union lattice
is the sublattice of the universe that the contexts' elements generate.
The report reads every per-context fact off one owner map (see its docstring).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import filters as flt
from . import lattice as lt
from . import subspace as sub
from .exactlin import (
    ExactMatrix, Rows, _columns, _gaussian_product, _insert_row, _lowest, rank)
from .lattice import FiniteLattice
from .subspace import Subspace

__all__ = [
    "CONSISTENT_CAP",
    "AlgebraBasis",
    "LatticeValuationSummary",
    "ContextualValuationReport",
    "algebra_span",
    "is_irreducible",
    "invariant_indices",
    "invariant_sublattice",
    "common_invariant_sublattice",
    "meet_defined",
    "contextual_valuation_report",
]

# The most assignments the contexts report lists, as many as the valuation
# search's free-bit cap allows it to try.
CONSISTENT_CAP = 2 ** flt.SEARCH_FREE_BIT_CAP


@dataclass(frozen=True)
class AlgebraBasis:
    """A linearly independent spanning set for a unital operator algebra."""

    side: int
    basis: tuple[ExactMatrix, ...]

    def __post_init__(self) -> None:
        for m in self.basis:
            if m.rows != self.side or m.cols != self.side:
                raise ValueError("basis members must be square of the stated side")
        stacked = _vectorized(self.basis)
        if rank(stacked) != len(self.basis):
            raise ValueError("basis members must be linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


def _vectorized(mats: Sequence[ExactMatrix]) -> ExactMatrix:
    if not mats:
        raise ValueError("need at least one matrix")
    # Each member's Gaussian-integer parts: scaling a row keeps the rank.
    width = mats[0].rows * mats[0].cols
    return _lowest(len(mats), width, [x for m in mats for x in m.ints], 1)


def algebra_span(generators: Iterable[ExactMatrix]) -> AlgebraBasis:
    """Basis of the unital algebra generated by the given operators.

    The algebra is the span of all words in the generators: the smallest
    subspace of M_n that holds the identity and is closed under left
    multiplication by each generator. The basis starts as the identity
    and the generators, and is then walked as a queue from the first
    member after the identity, since g @ I = g was tried already: for each
    member b and each generator g, the product g @ b joins the basis when
    it is independent of the members so far. The walk ends when the queue
    is exhausted or the basis has n^2 members, which is all of M_n.

    A candidate is a member when exactlin's _insert_row finds its
    Gaussian-integer parts independent of the canonical rows of the
    members so far; the matrix is those parts over a nonzero scale, which
    changes no independence, and the canonical rows do not depend on the
    scale either. So a product stays the raw parts of g's and b's ints
    until it is kept, and only then is put in lowest terms as g @ b. It
    reads g's terms, built once per generator, against b's columns, cut
    once per member for every generator.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square matrices of one side")
    if n == 0:
        raise ValueError("generators must be at least 1x1, got 0x0")

    full = n * n
    members: list[ExactMatrix] = []
    rows: Rows = {}
    for m in (ExactMatrix.identity(n), *gens):
        if _insert_row(rows, m.ints):
            members.append(m)
    # g @ I = g was tried above, so the walk starts at the generators.
    queued = 1
    while queued < len(members) < full:
        b = members[queued]
        queued += 1
        columns = _columns(b)
        for g in gens:
            product = _gaussian_product(g.terms, columns)
            if _insert_row(rows, product):
                members.append(_lowest(n, n, product, g.den * b.den))
                if len(members) == full:
                    break
    return AlgebraBasis(n, tuple(members))


def invariant_indices(operators: Iterable[ExactMatrix], universe: FiniteLattice) -> frozenset[int]:
    """Indices of the universe elements that every operator maps into
    themselves, each operator tried at most once on each; every index for
    an empty operator family."""
    ops = list(operators)
    return frozenset(i for i, s in enumerate(universe.elements)
                     if all(sub.maps_into(op, s) for op in ops))


def invariant_sublattice(operator: ExactMatrix, universe: FiniteLattice) -> FiniteLattice:
    """The universe elements the operator maps into themselves."""
    return common_invariant_sublattice([operator], universe)


def common_invariant_sublattice(
    operators: Iterable[ExactMatrix], universe: FiniteLattice
) -> FiniteLattice:
    """Intersection of the per-operator invariant sublattices; the universe
    itself for an empty operator family."""
    return lt.sublattice(universe, invariant_indices(operators, universe))


def is_irreducible(generators: Iterable[ExactMatrix]) -> bool:
    """Burnside's test: the generated algebra has dimension n^2.

    Over C, that is the full matrix algebra, which leaves no subspace
    other than {0} and C^n invariant.
    """
    span = algebra_span(generators)
    return span.dim == span.side * span.side


def meet_defined(x: Subspace, y: Subspace, contexts: Mapping[str, FiniteLattice]) -> bool:
    """True when some context lattice contains both x and y."""
    return any(x in lat and y in lat for lat in contexts.values())


@dataclass(frozen=True)
class LatticeValuationSummary:
    """Valuations available inside one context lattice.

    paper_valuations holds the literal map for each atom (1 on the atom,
    0 elsewhere); standard_valuations holds every map on this lattice
    satisfying the full homomorphism laws. excluded_atom_spans lists the
    other contexts' atoms that this lattice's maps never see because the
    meets pairing them with local elements are undefined.
    """

    name: str
    element_spans: tuple[str, ...]
    atom_spans: tuple[str, ...]
    paper_valuations: tuple[tuple[int, ...], ...]
    standard_valuations: tuple[tuple[int, ...], ...]
    excluded_atom_spans: tuple[str, ...]


@dataclass(frozen=True)
class ContextualValuationReport:
    """Both readings of a two-valued map on a set of contexts.

    per_lattice_consistent: assignments to the union's atoms whose
    restriction to each context lattice separately satisfies the
    homomorphism laws (meets and joins evaluated inside that lattice).
    global_valuations: maps on the single union lattice, with meets and
    joins evaluated there, satisfying the full homomorphism laws.
    meet_defined_rows: (span of x, bits) for each element x some context
    holds, in universe order; bit j is meet_defined(x, y_j) over those y_j.
    """

    summaries: tuple[LatticeValuationSummary, ...]
    union_spans: tuple[str, ...]
    union_atom_spans: tuple[str, ...]
    per_lattice_consistent: tuple[tuple[int, ...], ...]
    global_valuations: tuple[tuple[int, ...], ...]
    meet_defined_rows: tuple[tuple[str, str], ...]


def contextual_valuation_report(
    universe: FiniteLattice, contexts: Mapping[str, Iterable[int]]
) -> ContextualValuationReport:
    """Per-context valuations, the two union-level readings, the meet-defined rows.

    Each context is read as the module docstring states, so an index out
    of range is refused there. The contexts are reported in sorted name
    order; their union lattice is the sublattice of universe that their
    elements generate, read off its tables. Requires every pair of contexts
    to intersect exactly in {bottom, top} and every context element to be
    the bottom, the top, or an atom of the union lattice; a context that is
    just {bottom, top} is rejected. Raises ValueError, before listing any,
    when more than CONSISTENT_CAP assignments are consistent with every
    context separately.

    Past those checks, each context element but the bottom and the top is a
    union atom that one context alone holds, and every context has the
    universe's bottom and top. So the owner map, from such an element's
    universe index to its context, decides each per-context fact: a
    context's atoms are those it owns, it excludes those the others own,
    and x and y meet inside a context when either is trivial or one owns both.
    A union atom that no context owns takes either bit in reading (a);
    hand-built tables reach one, such as the meet of two joins of context
    atoms that lies in no context.
    """
    if not contexts:
        raise ValueError("the contexts mapping is empty")
    items = [(name, lt.sublattice(universe, contexts[name])) for name in sorted(contexts)]
    held: dict[str, list[int]] = {}
    for name, lat in items:
        if len(lat) == 2:
            raise ValueError(
                f"context {name!r} has no element besides {{0}} and "
                f"C^{lat.ambient_dim}"
            )
        held[name] = [universe.index_of(s) for s in lat.elements]
    # Each context element but the bottom and the top, by universe index, to
    # the first context in name order holding it. A later holder records a
    # pair; the least is the least overlapping pair, as the first holder
    # precedes every other.
    owner: dict[int, str] = {}
    shared = []
    for name, indices in held.items():
        for i in indices:
            if i not in (universe.bottom, universe.top) and owner.setdefault(i, name) != name:
                shared.append((owner[i], name))
    if shared:
        name_a, name_b = min(shared)
        raise ValueError(
            f"lattices {name_a!r} and {name_b!r} must intersect exactly in "
            "the bottom and the top"
        )

    union = lt.sublattice(universe, owner)
    union_atoms = [universe.index_of(union.elements[a]) for a in lt.atoms(union)]
    stray = [i for i in owner if i not in union_atoms]
    if stray:
        raise ValueError(
            f"lattice {owner[stray[0]]!r} element {universe.elements[stray[0]].span_str()}"
            " is neither trivial nor an atom of the union lattice"
        )

    # Reading (a): one bit per union atom, laws checked inside each context
    # separately. The contexts' atoms are disjoint, so a consistent
    # assignment picks one standard valuation per context (its bits on the
    # atoms the context owns) and either bit on each union atom that lies
    # in no context; they are counted before any is listed.
    summaries = []
    parts = []
    for name, lat in items:
        owned = [(k, i) for k, i in enumerate(held[name]) if owner.get(i) == name]
        standard_vals = flt.search_bivaluations(lat, flt.FULL_HOMOMORPHISM_LAWS)
        parts.append([{i: bits[k] for k, i in owned} for bits in standard_vals])
        summaries.append(LatticeValuationSummary(
            name=name,
            element_spans=lat.spans(),
            atom_spans=tuple(lat.elements[k].span_str() for k, _ in owned),
            paper_valuations=tuple(tuple(int(j == k) for j in range(len(lat))) for k, _ in owned),
            standard_valuations=standard_vals,
            excluded_atom_spans=tuple(sorted(
                universe.elements[i].span_str() for i, o in owner.items() if o != name)),
        ))
    parts += [[{i: 0}, {i: 1}] for i in union_atoms if i not in owner]
    count = math.prod(map(len, parts))
    if count > CONSISTENT_CAP:
        raise ValueError(
            f"{count} atom assignments are consistent with every context "
            f"separately; the report lists at most {CONSISTENT_CAP} "
            f"(2^{flt.SEARCH_FREE_BIT_CAP}, the valuation search's free-bit cap)"
        )
    consistent = []
    for pick in itertools.product(*parts):
        chosen = {i: bit for part in pick for i, bit in part.items()}
        consistent.append(tuple(chosen[i] for i in union_atoms))
    consistent.sort()

    # Reading (b): one map on the union lattice, laws checked there.
    global_vals = flt.search_bivaluations(union, flt.FULL_HOMOMORPHISM_LAWS)

    # x and y meet in some context when either is trivial or one context owns both.
    in_some = sorted({universe.bottom, universe.top, *owner})
    return ContextualValuationReport(
        summaries=tuple(summaries),
        union_spans=union.spans(),
        union_atom_spans=tuple(universe.elements[i].span_str() for i in union_atoms),
        per_lattice_consistent=tuple(consistent),
        global_valuations=global_vals,
        meet_defined_rows=tuple(
            (universe.elements[i].span_str(),
             "".join(["01"[i not in owner or j not in owner or owner[i] == owner[j]]
                      for j in in_some]))
            for i in in_some
        ),
    )
