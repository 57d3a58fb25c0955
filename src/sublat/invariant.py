"""Invariant-subspace lattices, generated operator algebras, and
contextual valuation reports over registries of lattices.

The invariant sublattice of an operator collects the universe elements it
maps into themselves; families of operators share the intersection of
their invariant sublattices. Invariant subspaces are closed under
intersection and sum, so both are restrictions of the universe's tables.
Irreducibility is decided by the dimension of the generated unital
algebra: by Burnside's theorem it is the full matrix algebra, of
dimension n^2, exactly when no nontrivial subspace is invariant.

A LatticeRegistry holds named lattices over one ambient space whose
pairwise overlaps are trivial; meets between elements of different
lattices are then undefined, and the contextual report spells out what
each per-lattice valuation can and cannot see.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import filters as flt
from . import lattice as lt
from . import subspace as sub
from .exactlin import ExactMatrix, rank
from .lattice import FiniteLattice, close_and_build
from .subspace import Subspace

__all__ = [
    "AlgebraBasis",
    "LatticeRegistry",
    "LatticeValuationSummary",
    "ContextualValuationReport",
    "algebra_span",
    "is_irreducible",
    "invariant_sublattice",
    "common_invariant_sublattice",
    "meet_defined",
    "contextual_valuation_report",
]


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
    width = mats[0].rows * mats[0].cols
    flat = tuple(e for m in mats for e in m.entries)
    return ExactMatrix(len(mats), width, flat)


def algebra_span(generators: Iterable[ExactMatrix]) -> AlgebraBasis:
    """Basis of the unital algebra generated by the given operators.

    Starts from the identity and the generators, then closes under
    products, keeping only matrices that grow the rank of the vectorized
    stack. Stabilizes within n^2 rounds for side n.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square matrices of one side")

    basis: list[ExactMatrix] = []

    def try_add(m: ExactMatrix) -> bool:
        candidate = basis + [m]
        if rank(_vectorized(candidate)) == len(candidate):
            basis.append(m)
            return True
        return False

    try_add(ExactMatrix.identity(n))
    for g in gens:
        try_add(g)
    for _ in range(n * n):
        snapshot = list(basis)
        added = False
        for a in snapshot:
            for b in snapshot:
                if try_add(a @ b):
                    added = True
        if not added:
            break
    else:
        raise RuntimeError("product closure failed to stabilize")
    return AlgebraBasis(n, tuple(basis))


def invariant_sublattice(operator: ExactMatrix, universe: FiniteLattice) -> FiniteLattice:
    """The universe elements the operator maps into themselves."""
    return common_invariant_sublattice([operator], universe)


def common_invariant_sublattice(
    operators: Iterable[ExactMatrix], universe: FiniteLattice
) -> FiniteLattice:
    """Intersection of the per-operator invariant sublattices.

    An empty operator family constrains nothing and returns the universe
    itself.
    """
    ops = list(operators)
    kept = [
        i for i, s in enumerate(universe.elements)
        if all(sub.maps_into(op, s) for op in ops)
    ]
    return lt.sublattice(universe, kept)


def is_irreducible(generators: Iterable[ExactMatrix]) -> bool:
    """Burnside's test: the generated algebra has dimension n^2.

    Over C, that is the full matrix algebra, which leaves no subspace
    other than {0} and C^n invariant.
    """
    span = algebra_span(generators)
    return span.dim == span.side * span.side


class LatticeRegistry:
    """Named lattices over one ambient space."""

    def __init__(self, lattices: Mapping[str, FiniteLattice] | None = None):
        self._lattices: dict[str, FiniteLattice] = {}
        if lattices:
            for name in sorted(lattices):
                self.register(name, lattices[name])

    def register(self, name: str, lattice: FiniteLattice) -> None:
        if name in self._lattices:
            raise ValueError(f"name {name!r} is already registered")
        if self._lattices:
            existing = next(iter(self._lattices.values()))
            if lattice.ambient_dim != existing.ambient_dim:
                raise ValueError(
                    f"ambient dimensions differ: {existing.ambient_dim} vs "
                    f"{lattice.ambient_dim}"
                )
        self._lattices[name] = lattice

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._lattices))

    def get(self, name: str) -> FiniteLattice:
        try:
            return self._lattices[name]
        except KeyError:
            raise ValueError(f"no lattice registered under {name!r}") from None

    def items(self) -> tuple[tuple[str, FiniteLattice], ...]:
        return tuple((name, self._lattices[name]) for name in self.names())

    def __len__(self) -> int:
        return len(self._lattices)

    @property
    def ambient_dim(self) -> int:
        if not self._lattices:
            raise ValueError("registry is empty")
        return next(iter(self._lattices.values())).ambient_dim


def meet_defined(x: Subspace, y: Subspace, registry: LatticeRegistry) -> bool:
    """True when some registered lattice contains both x and y."""
    return any(x in lat and y in lat for _, lat in registry.items())


@dataclass(frozen=True)
class LatticeValuationSummary:
    """Valuations available inside one registered lattice.

    paper_valuations holds the literal map for each atom (1 on the atom,
    0 elsewhere); standard_valuations holds every map on this lattice
    satisfying the full homomorphism laws. excluded_atom_spans lists the
    other lattices' atoms that this lattice's maps never see because the
    meets pairing them with local elements are undefined in the registry.
    """

    name: str
    element_spans: tuple[str, ...]
    atom_spans: tuple[str, ...]
    paper_valuations: tuple[tuple[int, ...], ...]
    standard_valuations: tuple[tuple[int, ...], ...]
    excluded_atom_spans: tuple[str, ...]


@dataclass(frozen=True)
class ContextualValuationReport:
    """Both readings of a two-valued map on a registry of lattices.

    per_lattice_consistent: assignments to the union's atoms whose
    restriction to each registered lattice separately satisfies the
    homomorphism laws (meets and joins evaluated inside that lattice).
    global_valuations: maps on the single union lattice, with meets and
    joins evaluated there, satisfying the full homomorphism laws.
    """

    summaries: tuple[LatticeValuationSummary, ...]
    union_spans: tuple[str, ...]
    union_atom_spans: tuple[str, ...]
    per_lattice_consistent: tuple[tuple[int, ...], ...]
    global_valuations: tuple[tuple[int, ...], ...]


def contextual_valuation_report(registry: LatticeRegistry) -> ContextualValuationReport:
    """Per-lattice valuations plus the two union-level searches.

    Requires every pair of registered lattices to intersect exactly in
    {bottom, top}, and every registered element to be the bottom, the
    top, or an atom of the union lattice.
    """
    if len(registry) == 0:
        raise ValueError("registry is empty")
    n = registry.ambient_dim
    bottom = Subspace.zero(n)
    top = Subspace.full(n)
    trivial = {bottom, top}

    items = registry.items()
    for (name_a, lat_a), (name_b, lat_b) in itertools.combinations(items, 2):
        overlap = set(lat_a.elements) & set(lat_b.elements)
        if overlap != trivial:
            raise ValueError(
                f"lattices {name_a!r} and {name_b!r} must intersect exactly in "
                "the bottom and the top"
            )

    union_elements = sorted(
        {s for _, lat in items for s in lat.elements}, key=Subspace.sort_key
    )
    union = close_and_build(union_elements, ambient_dim=n)
    union_atoms = lt.atoms(union)
    union_atom_subspaces = [union.elements[i] for i in union_atoms]
    allowed = trivial | set(union_atom_subspaces)
    for name, lat in items:
        stray = [s for s in lat.elements if s not in allowed]
        if stray:
            raise ValueError(
                f"lattice {name!r} element {stray[0].span_str()} is neither "
                "trivial nor an atom of the union lattice"
            )

    summaries = []
    for name, lat in items:
        lat_atoms = lt.atoms(lat)
        paper_vals = tuple(
            flt.homomorphism_from_filter(
                lat,
                flt.coatom_complement_filter(lat, a),
                flt.CONVENTION_PAPER,
            ).assignment
            for a in lat_atoms
        )
        standard_vals = tuple(
            b.assignment
            for b in flt.search_bivaluations(lat, flt.FULL_HOMOMORPHISM_LAWS)
        )
        other_atoms = {
            s
            for other_name, other in items
            if other_name != name
            for s in (other.elements[i] for i in lt.atoms(other))
        }
        excluded = sorted(
            s.span_str() for s in other_atoms
            if not any(meet_defined(s, lat.elements[a], registry) for a in lat_atoms)
        )
        summaries.append(
            LatticeValuationSummary(
                name=name,
                element_spans=lat.spans(),
                atom_spans=tuple(lat.elements[a].span_str() for a in lat_atoms),
                paper_valuations=paper_vals,
                standard_valuations=standard_vals,
                excluded_atom_spans=tuple(excluded),
            )
        )

    # Reading (a): one bit per union atom, laws checked inside each
    # registered lattice separately.
    consistent: list[tuple[int, ...]] = []
    for bits in itertools.product((0, 1), repeat=len(union_atoms)):
        by_subspace = dict(zip(union_atom_subspaces, bits))
        ok = True
        for _, lat in items:
            assignment = []
            for s in lat.elements:
                if s == bottom:
                    assignment.append(0)
                elif s == top:
                    assignment.append(1)
                else:
                    assignment.append(by_subspace[s])
            if not flt.satisfies_laws(lat, tuple(assignment), flt.FULL_HOMOMORPHISM_LAWS):
                ok = False
                break
        if ok:
            consistent.append(bits)

    # Reading (b): one map on the union lattice, laws checked there.
    global_vals = tuple(
        b.assignment
        for b in flt.search_bivaluations(union, flt.FULL_HOMOMORPHISM_LAWS)
    )

    return ContextualValuationReport(
        summaries=tuple(summaries),
        union_spans=union.spans(),
        union_atom_spans=tuple(s.span_str() for s in union_atom_subspaces),
        per_lattice_consistent=tuple(consistent),
        global_valuations=global_vals,
    )
