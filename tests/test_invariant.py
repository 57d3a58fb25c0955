import itertools

import pytest

from sublat.exactlin import ExactMatrix
from sublat.invariant import (
    AlgebraBasis,
    LatticeRegistry,
    algebra_span,
    common_invariant_sublattice,
    contextual_valuation_report,
    invariant_sublattice,
    is_irreducible,
    meet_defined,
)
from sublat.lattice import atoms, close_and_build
from sublat.qubit import ProjectorId, context, nontrivial_projectors, projector
from sublat.subspace import Subspace, image, maps_into, projector_of, span

M = ExactMatrix.from_rows


@pytest.fixture(scope="module")
def universe():
    return close_and_build([image(p) for p in nontrivial_projectors()])


@pytest.fixture(scope="module")
def registry(universe):
    reg = LatticeRegistry()
    for w in (1, 2, 3):
        members = list(context(w).members)
        reg.register(f"L{w}", common_invariant_sublattice(members, universe))
    return reg


EXPECTED_CONTEXT_SPANS = {
    1: {"{0}", "span{[1,1]}", "span{[1,-1]}", "C^2"},
    2: {"{0}", "span{[1,i]}", "span{[1,-i]}", "C^2"},
    3: {"{0}", "span{[1,0]}", "span{[0,1]}", "C^2"},
}


def test_invariant_sublattice_per_projector(universe):
    for w in (1, 2, 3):
        for n in (1, 2):
            lat = invariant_sublattice(projector(ProjectorId(w, n)), universe)
            assert set(lat.spans()) == EXPECTED_CONTEXT_SPANS[w]


def test_trivial_operators_leave_everything_invariant(universe):
    for op in (ExactMatrix.zeros(2, 2), ExactMatrix.identity(2)):
        lat = invariant_sublattice(op, universe)
        assert lat == close_and_build(universe.elements)


def test_invariant_sublattice_validates_operator(universe):
    with pytest.raises(ValueError, match="operator"):
        invariant_sublattice(ExactMatrix.zeros(3, 3), universe)


def test_common_invariant_sublattice(universe):
    for w in (1, 2, 3):
        lat = common_invariant_sublattice(list(context(w).members), universe)
        assert set(lat.spans()) == EXPECTED_CONTEXT_SPANS[w]
        assert len(atoms(lat)) == 2
    full = common_invariant_sublattice(list(nontrivial_projectors()), universe)
    assert full.spans() == ("{0}", "C^2")
    empty = common_invariant_sublattice([], universe)
    assert empty == close_and_build(universe.elements)
    assert empty is universe


def test_algebra_span_dimensions():
    assert algebra_span([ExactMatrix.identity(2)]).dim == 1
    assert algebra_span(list(context(1).members)).dim == 2
    assert algebra_span(list(nontrivial_projectors())).dim == 4
    # one projector from each of two contexts already generates everything
    assert (
        algebra_span([projector(ProjectorId(1, 1)), projector(ProjectorId(2, 1))]).dim
        == 4
    )


def test_algebra_span_monotone():
    sigma = list(nontrivial_projectors())
    dims = [algebra_span(sigma[: k + 1]).dim for k in range(len(sigma))]
    assert dims == sorted(dims)
    assert dims[-1] == 4


def test_algebra_span_validation():
    with pytest.raises(ValueError, match="generator"):
        algebra_span([])
    with pytest.raises(ValueError, match="square"):
        algebra_span([ExactMatrix.zeros(2, 3)])
    with pytest.raises(ValueError, match="one side"):
        algebra_span([ExactMatrix.identity(2), ExactMatrix.identity(3)])


def test_algebra_basis_independence():
    eye = ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="independent"):
        AlgebraBasis(2, (eye, 2 * eye))
    basis = AlgebraBasis(2, (eye, projector(ProjectorId(1, 1))))
    assert basis.dim == 2


def test_is_irreducible():
    assert is_irreducible(list(nontrivial_projectors()))
    assert not is_irreducible(list(context(1).members))
    assert not is_irreducible([ExactMatrix.identity(2)])
    with pytest.raises(ValueError, match="generator"):
        is_irreducible([])


def test_meet_defined(registry):
    k = span([[1, 1]])
    m = span([[1, -1]])
    o = span([[1, 0]])
    assert meet_defined(k, m, registry)
    assert not meet_defined(k, o, registry)
    bottom, top = Subspace.zero(2), Subspace.full(2)
    for x in (k, m, o):
        assert meet_defined(bottom, x, registry)
        assert meet_defined(x, top, registry)
        assert meet_defined(x, x, registry)
    assert meet_defined(k, m, registry) == meet_defined(m, k, registry)


def test_registry_validation(universe):
    reg = LatticeRegistry()
    lat = common_invariant_sublattice(list(context(1).members), universe)
    reg.register("a", lat)
    with pytest.raises(ValueError, match="already registered"):
        reg.register("a", lat)
    with pytest.raises(ValueError, match="ambient"):
        reg.register("b", close_and_build([], ambient_dim=3))
    assert reg.names() == ("a",)
    assert reg.get("a") == lat
    with pytest.raises(ValueError, match="no lattice"):
        reg.get("missing")
    assert reg.ambient_dim == 2


def test_contextual_report_counts(registry):
    report = contextual_valuation_report(registry)
    assert len(report.summaries) == 3
    assert len(report.union_spans) == 8
    assert len(report.union_atom_spans) == 6
    assert len(report.per_lattice_consistent) == 8
    assert report.global_valuations == ()


def test_contextual_report_consistent_assignments_structure(registry):
    report = contextual_valuation_report(registry)
    spans = report.union_atom_spans
    pairings = [
        ("span{[1,1]}", "span{[1,-1]}"),
        ("span{[1,i]}", "span{[1,-i]}"),
        ("span{[1,0]}", "span{[0,1]}"),
    ]
    for bits in report.per_lattice_consistent:
        values = dict(zip(spans, bits))
        for left, right in pairings:
            assert values[left] + values[right] == 1
    # independent count: one free binary choice per context
    assert len(report.per_lattice_consistent) == 2 ** 3


def test_contextual_report_per_lattice_valuations(registry):
    report = contextual_valuation_report(registry)
    for summary in report.summaries:
        assert len(summary.atom_spans) == 2
        assert summary.standard_valuations == ((0, 0, 1, 1), (0, 1, 0, 1))
        assert summary.paper_valuations == ((0, 1, 0, 0), (0, 0, 1, 0))
        assert len(summary.excluded_atom_spans) == 4
        for span_str in summary.excluded_atom_spans:
            assert span_str not in summary.element_spans


def test_contextual_report_single_lattice(universe):
    reg = LatticeRegistry()
    reg.register("only", common_invariant_sublattice(list(context(1).members), universe))
    report = contextual_valuation_report(reg)
    assert len(report.per_lattice_consistent) == 2
    assert len(report.global_valuations) == 2
    assert report.summaries[0].excluded_atom_spans == ()


def test_contextual_report_rejects_overlapping_lattices(universe):
    reg = LatticeRegistry()
    reg.register("a", common_invariant_sublattice(list(context(1).members), universe))
    reg.register("b", close_and_build([span([[1, 1]]), span([[1, 0]])]))
    with pytest.raises(ValueError, match="intersect"):
        contextual_valuation_report(reg)


def test_contextual_report_rejects_mid_rank_elements():
    reg = LatticeRegistry()
    reg.register(
        "deep", close_and_build([span([[1, 0, 0]]), span([[1, 0, 0], [0, 1, 0]])])
    )
    with pytest.raises(ValueError, match="atom"):
        contextual_valuation_report(reg)


def test_contextual_report_empty_registry():
    with pytest.raises(ValueError, match="empty"):
        contextual_valuation_report(LatticeRegistry())


def test_irreducibility_cross_check_runs(universe):
    # the dual route: full algebra dimension and trivial common invariants
    sigma = list(nontrivial_projectors())
    assert algebra_span(sigma).dim == 4
    common = common_invariant_sublattice(sigma, universe)
    assert common.spans() == ("{0}", "C^2")


def _unit_ray(rng, n):
    return [1] + [rng.choice([1, -1, "i", "-i"]) for _ in range(n - 1)]


def _ray_projector(vector):
    return projector_of(span([vector]))


def _full_family(rng):
    """Projectors onto e1, e2 and a ray with unit entries generate M_3."""
    return [_ray_projector([1, 0, 0]), _ray_projector([0, 1, 0]),
            _ray_projector(_unit_ray(rng, 3))]


def _block_family(rng, m):
    """M_m (+) M_(3-m): in each block its first basis ray and a ray with
    unit entries, plus the projector onto the first block."""
    gens = []
    for lo, hi in ((0, m), (m, 3)):
        for ray in ([1] + [0] * (hi - lo - 1), _unit_ray(rng, hi - lo)):
            gens.append(_ray_projector([0] * lo + ray + [0] * (3 - hi)))
    block = projector_of(span([[int(k == i) for k in range(3)] for i in range(m)]))
    return gens + [block], block


def _generated_universe(gens):
    return close_and_build([image(g) for g in gens], ambient_dim=gens[0].rows)


def _reference_sublattice(ops, universe):
    """The former route: re-close the kept elements with exact algebra."""
    kept = [s for s in universe.elements if all(maps_into(op, s) for op in ops)]
    return close_and_build(kept, ambient_dim=universe.ambient_dim)


def test_invariant_sublattice_matches_closure_reference(universe, rng):
    qubit_ops = list(nontrivial_projectors()) + [ExactMatrix.zeros(2, 2)]
    cases = [(op, universe) for op in qubit_ops]
    for gens, _ in (_block_family(rng, 1), _block_family(rng, 2)):
        cases += [(g, _generated_universe(gens)) for g in gens]
    for op, lat in cases:
        assert invariant_sublattice(op, lat) == _reference_sublattice([op], lat)


def test_full_and_block_families(rng):
    gens = _full_family(rng)
    assert is_irreducible(gens)
    common = common_invariant_sublattice(gens, _generated_universe(gens))
    assert common.spans() == ("{0}", "C^3")
    for m in (1, 2, 1, 2):
        gens, block = _block_family(rng, m)
        assert not is_irreducible(gens)
        lat = _generated_universe(gens)
        common = common_invariant_sublattice(gens, lat)
        assert image(block) in common
        assert common == _reference_sublattice(gens, lat)


def test_is_irreducible_generic_rank_one_projectors():
    # closing these four images exceeds the closure cap, so irreducibility
    # must come from the algebra dimension alone
    gens = [_ray_projector(v) for v in ([1, 0, 0], [0, 1, 0], [1, 2, "i"], [1, -1, 3])]
    assert is_irreducible(gens)
