import itertools
from fractions import Fraction

import pytest

from sublat import exactlin, invariant
from sublat.exactlin import (
    ZERO,
    ExactMatrix,
    GaussianInteger,
    GaussianRational,
    invert,
    rank,
)
from sublat.filters import FULL_HOMOMORPHISM_LAWS, satisfies_laws, search_bivaluations
from sublat.invariant import (
    AlgebraBasis,
    _vectorized,
    algebra_span,
    common_invariant_sublattice,
    contextual_valuation_report,
    invariant_indices,
    invariant_sublattice,
    is_irreducible,
    meet_defined,
)
from sublat.lattice import FiniteLattice, atoms, check_modular, close_and_build, sublattice
from sublat.qubit import context, nontrivial_projectors, projector
from sublat.subspace import Subspace, image, maps_into, projector_of, span

M = ExactMatrix.from_rows


@pytest.fixture(scope="module")
def universe():
    return close_and_build([image(p) for p in nontrivial_projectors()])


@pytest.fixture(scope="module")
def contexts(universe):
    return {f"L{w}": invariant_indices(context(w), universe) for w in (1, 2, 3)}


EXPECTED_CONTEXT_SPANS = {
    1: {"{0}", "span{[1,1]}", "span{[1,-1]}", "C^2"},
    2: {"{0}", "span{[1,i]}", "span{[1,-i]}", "C^2"},
    3: {"{0}", "span{[1,0]}", "span{[0,1]}", "C^2"},
}


def test_invariant_sublattice_per_projector(universe):
    for w in (1, 2, 3):
        for n in (1, 2):
            lat = invariant_sublattice(projector(w, n), universe)
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
        lat = common_invariant_sublattice(context(w), universe)
        assert set(lat.spans()) == EXPECTED_CONTEXT_SPANS[w]
        assert len(atoms(lat)) == 2
    full = common_invariant_sublattice(list(nontrivial_projectors()), universe)
    assert full.spans() == ("{0}", "C^2")
    empty = common_invariant_sublattice([], universe)
    assert empty == close_and_build(universe.elements)
    assert empty is universe


def test_algebra_span_dimensions():
    assert algebra_span([ExactMatrix.identity(2)]).dim == 1
    assert algebra_span(context(1)).dim == 2
    assert algebra_span(list(nontrivial_projectors())).dim == 4
    # one projector from each of two contexts already generates everything
    assert algebra_span([projector(1, 1), projector(2, 1)]).dim == 4


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
    with pytest.raises(ValueError, match="at least 1x1, got 0x0"):
        algebra_span([ExactMatrix(0, 0, ())])


def test_algebra_basis_independence():
    eye = ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="independent"):
        AlgebraBasis(2, (eye, 2 * eye))
    basis = AlgebraBasis(2, (eye, projector(1, 1)))
    assert basis.dim == 2


@pytest.mark.parametrize("members, message", [
    ((ExactMatrix.zeros(2, 3),), "basis members must be square of the stated side"),
    ((), "need at least one matrix"),
], ids=["non-square", "empty"])
def test_algebra_basis_rejects_malformed_members(members, message):
    with pytest.raises(ValueError) as err:
        AlgebraBasis(2, members)
    assert str(err.value) == message


def test_is_irreducible():
    assert is_irreducible(list(nontrivial_projectors()))
    assert not is_irreducible(context(1))
    assert not is_irreducible([ExactMatrix.identity(2)])
    with pytest.raises(ValueError, match="generator"):
        is_irreducible([])


def test_meet_defined(universe, contexts):
    contexts = {name: sublattice(universe, indices) for name, indices in contexts.items()}
    k = span([[1, 1]])
    m = span([[1, -1]])
    o = span([[1, 0]])
    assert meet_defined(k, m, contexts)
    assert not meet_defined(k, o, contexts)
    bottom, top = Subspace.zero(2), Subspace.full(2)
    for x in (k, m, o):
        assert meet_defined(bottom, x, contexts)
        assert meet_defined(x, top, contexts)
        assert meet_defined(x, x, contexts)
    assert meet_defined(k, m, contexts) == meet_defined(m, k, contexts)


def test_contextual_report_rejects_elements_outside_universe(universe, contexts):
    # An element outside the universe is an index out of its range, which
    # lattice.sublattice refuses: the least index first, then the greatest.
    for stray, named in (([8], 8), ([-1], -1), ([0, 3, 99], 99), ([-2, 99], -2)):
        with pytest.raises(ValueError) as err:
            contextual_valuation_report(universe, {**contexts, "b": stray})
        assert str(err.value) == f"element index {named} out of range"


def test_contextual_report_counts(universe, contexts):
    report = contextual_valuation_report(universe, contexts)
    assert len(report.summaries) == 3
    assert len(report.union_spans) == 8
    assert len(report.union_atom_spans) == 6
    assert len(report.per_lattice_consistent) == 8
    assert report.global_valuations == ()


def test_contextual_report_consistent_assignments_structure(universe, contexts):
    report = contextual_valuation_report(universe, contexts)
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


def test_contextual_report_per_lattice_valuations(universe, contexts):
    report = contextual_valuation_report(universe, contexts)
    assert [s.name for s in report.summaries] == ["L1", "L2", "L3"]
    for summary in report.summaries:
        assert len(summary.atom_spans) == 2
        assert summary.standard_valuations == ((0, 0, 1, 1), (0, 1, 0, 1))
        assert summary.paper_valuations == ((0, 1, 0, 0), (0, 0, 1, 0))
        assert len(summary.excluded_atom_spans) == 4
        for span_str in summary.excluded_atom_spans:
            assert span_str not in summary.element_spans


def test_contextual_report_single_lattice(universe):
    only = invariant_indices(context(1), universe)
    report = contextual_valuation_report(universe, {"only": only})
    assert len(report.per_lattice_consistent) == 2
    assert len(report.global_valuations) == 2
    assert report.summaries[0].excluded_atom_spans == ()


def test_contextual_report_rejects_overlapping_lattices(universe):
    contexts = {
        "a": invariant_indices(context(1), universe),
        "b": [universe.index_of(span([r])) for r in ([1, 1], [1, 0])],
    }
    with pytest.raises(ValueError, match="intersect"):
        contextual_valuation_report(universe, contexts)


def test_contextual_report_rejects_trivial_context(universe, contexts):
    # x1 and z1 share no invariant subspace besides {0} and C^2
    bad = invariant_indices([projector(1, 1), projector(3, 1)], universe)
    assert bad == {universe.bottom, universe.top}
    with pytest.raises(ValueError) as err:
        contextual_valuation_report(universe, {**contexts, "bad": bad})
    assert str(err.value) == "context 'bad' has no element besides {0} and C^2"


def test_contextual_report_requires_the_sublattice_each_context_generates():
    # A context is the sublattice of the universe that its indices, the
    # bottom and the top generate. So span{[0,1]} with or without {0} is the
    # chain {0} < span{[0,1]} < C^2, and in C^3 the lines e1 and e2 bring
    # their plane, which is no atom of the union. {0, C^2} keeps its own
    # message.
    u = close_and_build([span([r]) for r in ([1, 0], [0, 1], [1, 1], [1, -1])])
    ray = u.index_of(span([[0, 1]]))
    for indices in ([u.bottom, ray], [ray], [ray, ray, u.top]):
        report = contextual_valuation_report(u, {"c": indices})
        assert report.summaries[0].element_spans == ("{0}", "span{[0,1]}", "C^2")
    e1, e2, e3 = (span([r]) for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    frame = close_and_build([e1, e2, e3])
    wide = [frame.bottom, frame.index_of(e2), frame.index_of(e1), frame.top]
    with pytest.raises(ValueError) as err:
        contextual_valuation_report(frame, {"c": wide})
    assert str(err.value) == (
        "lattice 'c' element span{[1,0,0],[0,1,0]} is neither trivial nor an "
        "atom of the union lattice"
    )
    for trivial in ([], [u.bottom, u.top]):
        with pytest.raises(ValueError) as err:
            contextual_valuation_report(u, {"c": trivial})
        assert str(err.value) == "context 'c' has no element besides {0} and C^2"


def test_contextual_report_rejects_mid_rank_elements():
    deep = close_and_build([span([[1, 0, 0]]), span([[1, 0, 0], [0, 1, 0]])])
    with pytest.raises(ValueError, match="atom"):
        contextual_valuation_report(deep, {"deep": range(len(deep))})


def test_contextual_report_names_the_least_overlapping_pair():
    # A and B are disjoint; B and C share [1,-1] and A and D share [0,1],
    # and ('A', 'D') precedes ('B', 'C') in name order.
    rays = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 2], [2, -1]]
    u = close_and_build([span([r]) for r in rays])

    def ctx(*picks):
        return [u.index_of(span([r])) for r in picks]

    contexts = {"A": ctx([1, 0], [0, 1]), "B": ctx([1, 1], [1, -1]),
                "C": ctx([1, -1], [1, 2]), "D": ctx([0, 1], [2, -1])}
    with pytest.raises(ValueError) as err:
        contextual_valuation_report(u, contexts)
    assert str(err.value) == (
        "lattices 'A' and 'D' must intersect exactly in the bottom and the top"
    )


def test_contextual_report_checks_shared_elements_before_atoms():
    e1, e2, e3 = (span([r]) for r in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    u = close_and_build([e1, e2, e3])

    def ctx(*picks):
        return [u.index_of(s) for s in picks]

    # a holds the plane span{e1, e2}, no atom of the union; b and c share e2
    contexts = {"a": ctx(e1, span([[1, 0, 0], [0, 1, 0]])), "b": ctx(e2), "c": ctx(e2, e3)}
    with pytest.raises(ValueError) as err:
        contextual_valuation_report(u, contexts)
    assert str(err.value) == (
        "lattices 'b' and 'c' must intersect exactly in the bottom and the top"
    )
    del contexts["c"]
    with pytest.raises(ValueError) as err:
        contextual_valuation_report(u, contexts)
    assert str(err.value) == (
        "lattice 'a' element span{[1,0,0],[0,1,0]} is neither trivial nor an "
        "atom of the union lattice"
    )


def test_contextual_report_empty_registry(universe):
    with pytest.raises(ValueError, match="empty"):
        contextual_valuation_report(universe, {})


def _two_tents():
    """Hand-built tables with rays [1, k] of C^2 as labels: the bottom; atoms
    a, b, e, f and x; c above a, b and x; d above e, f and x; the top. So
    c ^ d = x, an atom that a union of contexts holding a, b, e and f
    generates but no context holds. The tables are not a subspace closure."""
    names = ["0", "a", "b", "e", "f", "x", "c", "d", "1"]
    below = {"0": "0", "1": "".join(names)}
    below.update({atom: "0" + atom for atom in "abefx"})
    below.update(c="0abxc", d="0efxd")
    size = len(names)
    leq = [[names[i] in below[names[j]] for j in range(size)] for i in range(size)]

    def extreme(i, j, bound):
        bounds = [z for z in range(size) if bound(i, z) and bound(j, z)]
        return next(z for z in bounds if all(bound(z, w) for w in bounds))

    meets = tuple(tuple(extreme(i, j, lambda u, z: leq[z][u]) for j in range(size))
                  for i in range(size))
    joins = tuple(tuple(extreme(i, j, lambda u, z: leq[u][z]) for j in range(size))
                  for i in range(size))
    labels = tuple(span([[1, k]]) for k in range(size))
    return FiniteLattice(labels, meets, joins), names


def test_contextual_report_leaves_a_free_atom_free():
    universe, names = _two_tents()
    assert universe.meet(names.index("c"), names.index("d")) == names.index("x")
    assert check_modular(universe).total_violations == 8
    contexts = {name: [names.index(name)] for name in "abef"}
    report = contextual_valuation_report(universe, contexts)
    assert len(report.union_spans) == 9
    assert report.union_atom_spans == tuple(
        universe.elements[names.index(atom)].span_str() for atom in "abefx")
    # x lies in no context, so its bit is free: every 5-bit tuple is consistent.
    assert report.per_lattice_consistent == tuple(itertools.product((0, 1), repeat=5))
    assert report.global_valuations == ()


def _reference_report(contexts):
    """The former route: re-close the union with exact algebra, try all
    2^atoms assignments against each context's laws, exclude the other
    contexts' atoms that no context pairs with a local atom, and fill the
    meet-defined matrix on the elements some context holds."""
    items = sorted(contexts.items())
    n = items[0][1].ambient_dim
    union = close_and_build({s for _, lat in items for s in lat.elements}, ambient_dim=n)
    union_atoms = [union.elements[i] for i in atoms(union)]
    excluded = []
    for name, lat in items:
        local = [lat.elements[a] for a in atoms(lat)]
        others = {
            other.elements[a]
            for other_name, other in items if other_name != name
            for a in atoms(other)
        }
        excluded.append(tuple(sorted(
            s.span_str() for s in others
            if not any(meet_defined(s, a, contexts) for a in local)
        )))
    consistent = []
    for bits in itertools.product((0, 1), repeat=len(union_atoms)):
        value = {Subspace.zero(n): 0, Subspace.full(n): 1, **dict(zip(union_atoms, bits))}
        if all(
            satisfies_laws(lat, tuple(value[s] for s in lat.elements), FULL_HOMOMORPHISM_LAWS)
            for _, lat in items
        ):
            consistent.append(bits)
    found = search_bivaluations(union, FULL_HOMOMORPHISM_LAWS)
    # The union is sorted as the universe is, so its held elements come in
    # universe order.
    held = [s for s in union.elements if any(s in lat for _, lat in items)]
    rows = tuple(
        (x.span_str(), "".join("1" if meet_defined(x, y, contexts) else "0" for y in held))
        for x in held
    )
    return (union.spans(), tuple(excluded), tuple(consistent),
            found, rows)


_PAIRS = [
    ([1, 0], [0, 1]),
    ([1, 1], [1, -1]),
    ([1, "i"], [1, "-i"]),
    ([1, 2], [2, -1]),
    ([2, 1], [1, -2]),
]


def _qubit_case(ws):
    universe = close_and_build([image(p) for p in nontrivial_projectors()])
    return universe, {f"L{w}": invariant_indices(context(w), universe) for w in ws}


def _pairs_case(count):
    pairs = [(span([a]), span([b])) for a, b in _PAIRS[:count]]
    universe = close_and_build([s for pair in pairs for s in pair])
    return universe, {f"P{k}": [universe.index_of(s) for s in pair]
                      for k, pair in enumerate(pairs)}


def _lines_case():
    lines = [span([[int(k == i) for k in range(3)]]) for i in range(3)]
    universe = close_and_build(lines)
    return universe, {f"e{i + 1}": [universe.index_of(s)] for i, s in enumerate(lines)}


def _c2_case(*contexts):
    """One context per list of rays of C^2, as those lines' indices in the
    universe that every listed line generates."""
    u = close_and_build([span([r]) for rays in contexts for r in rays])
    return u, {f"C{k}": [u.index_of(span([r])) for r in rays]
               for k, rays in enumerate(contexts)}


_MO3 = ([1, 0], [1, 1], [1, 2])
_PAIR = ([1, "i"], [1, "-i"])
_LINE = ([0, 1],)


@pytest.mark.parametrize(
    "case, union_size, consistent, global_count",
    [
        (lambda: _qubit_case([1, 2, 3]), 8, 8, 0),
        (lambda: _qubit_case([1]), 4, 2, 2),
        (lambda: _pairs_case(4), 10, 16, 0),
        (lambda: _pairs_case(5), 12, 32, 0),
        (_lines_case, 8, 8, 3),
        # An MO_3 context has no standard valuation, so nothing is consistent.
        (lambda: _c2_case(_MO3, _PAIR, _LINE), 8, 0, 0),
        (lambda: _c2_case(_PAIR, _LINE), 5, 4, 0),
        (lambda: _c2_case(_LINE, ([1, 3],)), 4, 4, 2),
    ],
    ids=["qubit", "single", "pairs4", "pairs5", "lines_c3", "mo3_pair_line",
         "pair_line", "two_lines"],
)
def test_contextual_report_matches_enumeration_reference(
    case, union_size, consistent, global_count
):
    universe, contexts = case()
    report = contextual_valuation_report(universe, contexts)
    union_spans, excluded, expected, global_vals, rows = _reference_report(
        {name: sublattice(universe, indices) for name, indices in contexts.items()})
    assert report.union_spans == union_spans
    assert report.meet_defined_rows == rows
    assert tuple(s.excluded_atom_spans for s in report.summaries) == excluded
    assert report.per_lattice_consistent == expected
    assert report.global_valuations == global_vals
    assert (len(union_spans), len(expected), len(global_vals)) == (
        union_size, consistent, global_count)


def _report_or_refusal(universe, contexts):
    try:
        return contextual_valuation_report(universe, contexts)
    except ValueError as err:
        return str(err)


def test_contextual_report_reads_generators_as_their_closure(universe, rng):
    # A context is the sublattice its indices generate, so random generating
    # subsets give the report that their closures give, or the same
    # refusal. The subsets are one-atom contexts on all atoms but one, which
    # on _two_tents leave x free once x is the one, then disjoint runs of
    # atoms, now and then with a stray index added.
    cases = [universe, _pairs_case(4)[0], _c2_case(_MO3, _PAIR, _LINE)[0],
             _lines_case()[0], _two_tents()[0]]
    reports = refusals = free = 0
    for u in cases:
        shuffled = list(atoms(u))
        draws = []
        for left_out in atoms(u):
            rng.shuffle(shuffled)
            draws.append([[a] for a in shuffled if a != left_out])
        for _ in range(40):
            rng.shuffle(shuffled)
            cuts = sorted(rng.sample(range(1, len(shuffled)), rng.randint(0, len(shuffled) - 1)))
            runs = [shuffled[i:j] for i, j in zip([0, *cuts], [*cuts, len(shuffled)])]
            runs = runs[:rng.randint(1, len(runs))]
            if rng.random() < 0.3:
                rng.choice(runs).append(rng.randrange(len(u)))
            draws.append(runs)
        for runs in draws:
            gens = {f"K{k}": run for k, run in enumerate(runs)}
            closure = {name: [u.index_of(s) for s in sublattice(u, g).elements]
                       for name, g in gens.items()}
            outcome = _report_or_refusal(u, gens)
            assert outcome == _report_or_refusal(u, closure)
            if isinstance(outcome, str):
                refusals += 1
                continue
            reports += 1
            owned = sum(len(summary.atom_spans) for summary in outcome.summaries)
            free += u is cases[-1] and len(outcome.union_atom_spans) > owned
    assert reports and refusals and free


def test_common_sublattice_is_the_intersection_of_per_operator_indices(universe, rng):
    # Families of three or more: the sublattice of what every operator
    # keeps, read off one index set per operator, is the common one.
    pool = list(nontrivial_projectors()) + [ExactMatrix.identity(2), ExactMatrix.zeros(2, 2)]
    cases = [(rng.sample(pool, rng.randint(3, len(pool))), universe) for _ in range(8)]
    for m in (1, 2, 1, 2):
        gens, _ = _block_family(rng, m)
        lat = _generated_universe(gens)
        cases += [(rng.sample(gens, rng.randint(3, len(gens))), lat) for _ in range(2)]
    proper = 0
    for ops, lat in cases:
        kept = frozenset.intersection(*(invariant_indices([op], lat) for op in ops))
        assert kept == invariant_indices(ops, lat)
        common = common_invariant_sublattice(ops, lat)
        assert sublattice(lat, kept) == common
        proper += 2 < len(common) < len(lat)
    assert proper > 0


def test_contextual_report_cap_is_inclusive(monkeypatch):
    # five orthogonal pairs: 2^5 = 32 consistent assignments
    universe, contexts = _pairs_case(5)
    monkeypatch.setattr(invariant, "CONSISTENT_CAP", 32)
    assert len(contextual_valuation_report(universe, contexts).per_lattice_consistent) == 32
    monkeypatch.setattr(invariant, "CONSISTENT_CAP", 31)
    with pytest.raises(ValueError, match="^32 atom assignments .* at most 31 "):
        contextual_valuation_report(universe, contexts)


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


def test_invariant_elements_are_closed_under_meet_and_join(universe, rng):
    # Invariant subspaces are closed under intersection and sum, so the
    # sublattice they generate adds nothing: it holds exactly the elements
    # every operator maps into themselves. (_reference_sublattice re-closes
    # its kept elements and would not see a set that is not closed.)
    qubit_ops = list(nontrivial_projectors())
    cases = [([op], universe) for op in qubit_ops]
    cases.append((qubit_ops, universe))
    for gens, _ in (_block_family(rng, 1), _block_family(rng, 2)):
        lat = _generated_universe(gens)
        cases += [([g], lat) for g in gens] + [(gens, lat)]
    proper = 0
    for ops, lat in cases:
        kept = tuple(s for s in lat.elements if all(maps_into(op, s) for op in ops))
        assert common_invariant_sublattice(ops, lat).elements == kept
        proper += 2 < len(kept) < len(lat)
    assert proper > 0


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


def _reference_span(gens):
    """The former route: starting from the identity and the generators,
    add every product a @ b of two members that grows the rank of the
    stack, round after round, until a round adds nothing."""
    basis = []

    def try_add(m):
        if rank(_vectorized(basis + [m])) == len(basis) + 1:
            basis.append(m)
            return True
        return False

    try_add(ExactMatrix.identity(gens[0].rows))
    for g in gens:
        try_add(g)
    added = True
    while added:
        snapshot = list(basis)
        added = False
        for a in snapshot:
            for b in snapshot:
                added = try_add(a @ b) or added
    return basis


def _random_integer_matrix(rng, n):
    return M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])


def _block_triangular_family(rng, random_matrix, n, m):
    """Two random operators that keep span(e_1..e_m) invariant, conjugated
    by a unit lower-triangular matrix with small Gaussian-integer entries,
    so the invariant subspace is no coordinate subspace."""
    s = M([[1 if i == j else rng.choice((0, 1, -1, "i", "1-i")) if i > j else 0
            for j in range(n)] for i in range(n)])
    gens = []
    for _ in range(2):
        g = random_matrix(n, n)
        gens.append(ExactMatrix(n, n, tuple(
            ZERO if i >= m > j else g[i, j] for i in range(n) for j in range(n)
        )))
    return [invert(s) @ g @ s for g in gens]


def _span_cases(rng, random_matrix):
    sigma = list(nontrivial_projectors())
    cases = [rng.sample(sigma, rng.randint(1, len(sigma))) for _ in range(6)]
    cases.append(_full_family(rng))
    cases += [_block_family(rng, m)[0] for m in (1, 2)]
    for n, count in ((2, 1), (2, 2), (3, 1), (3, 2)):
        cases.append([_random_integer_matrix(rng, n) for _ in range(count)])
    # Denominators and imaginary parts make the reduction divide by
    # non-real pivots.
    for n, count in ((3, 1), (3, 2), (4, 1)):
        cases.append([random_matrix(n, n) for _ in range(count)])
    cases += [_block_triangular_family(rng, random_matrix, n, m) for n, m in ((3, 1), (4, 2))]
    return cases


def test_algebra_span_matches_product_closure_reference(rng, random_matrix):
    for gens in _span_cases(rng, random_matrix):
        got = algebra_span(gens).basis
        expected = _reference_span(gens)
        assert len(got) == len(expected)
        assert rank(_vectorized(list(got) + expected)) == len(got)
        products = [a @ b for a in got for b in got]
        assert rank(_vectorized(list(got) + products)) == len(got)


def _bareiss_step(row, pivot_row, col, prev):
    """One Bareiss step over Z[i], the elimination step algebra_span used
    to run: (p*row - row[col]*pivot_row) / prev with p = pivot_row[col].

    prev is the pivot of the step before (1 for the first step). By
    Sylvester's identity every entry of the result is a minor of the
    scaled matrix, so the division is exact in Z[i]; it multiplies through
    by the conjugate of prev and divides by its norm. The oracle keeps
    this step so that it shares no elimination code with algebra_span.
    """
    pr, pi = pivot_row[col]
    fr, fi = row[col]
    qr, qi = prev
    if qi:
        norm = qr * qr + qi * qi
        pr, pi = pr * qr + pi * qi, pi * qr - pr * qi
        fr, fi = fr * qr + fi * qi, fi * qr - fr * qi
    else:
        norm = qr
    return [
        (
            (pr * xr - pi * xi - fr * yr + fi * yi) // norm,
            (pr * xi + pi * xr - fr * yi - fi * yr) // norm,
        )
        for (xr, xi), (yr, yi) in zip(row, pivot_row)
    ]


def _reference_algebra_span(generators):
    """The former body of algebra_span: each product g @ b is reduced, as
    its Gaussian-integer parts, by a forward Bareiss step of its own."""
    gens = list(generators)
    if not gens:
        raise ValueError("at least one generator is required")
    n = gens[0].rows
    for g in gens:
        if g.rows != n or g.cols != n:
            raise ValueError("generators must be square matrices of one side")

    full = n * n
    basis: list[ExactMatrix] = []
    echelon: list[tuple[int, list[GaussianInteger]]] = []

    def try_add(m: ExactMatrix) -> None:
        # Forward Bareiss, one kept row at a time: each kept row is 0 at every
        # earlier pivot, so one pass in insertion order clears all of them,
        # each step dividing exactly by the previous kept row's pivot.
        row = list(m.ints)
        prev: GaussianInteger = (1, 0)
        for pivot, kept in echelon:
            row = _bareiss_step(row, kept, pivot, prev)
            prev = kept[pivot]
        pivot = next((c for c, e in enumerate(row) if e != (0, 0)), None)
        if pivot is None:
            return
        echelon.append((pivot, row))
        basis.append(m)

    try_add(ExactMatrix.identity(n))
    for g in gens:
        try_add(g)
    queued = 0
    while queued < len(basis) < full:
        b = basis[queued]
        queued += 1
        for g in gens:
            try_add(g @ b)
            if len(basis) == full:
                break
    return AlgebraBasis(n, tuple(basis))


def _unit(n, i, j):
    return M([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_span_nilpotent_jordan_block(n):
    jordan = M([[int(c == r + 1) for c in range(n)] for r in range(n)])
    assert algebra_span([jordan]).dim == n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_algebra_span_upper_triangular(n):
    gens = [_unit(n, i, i) for i in range(n)]
    gens += [_unit(n, i, i + 1) for i in range(n - 1)]
    assert algebra_span(gens).dim == n * (n + 1) // 2


def _c4_rays_and_all_ones():
    return [_ray_projector(v) for v in
            ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 1])]


def test_is_irreducible_c4_coordinate_rays_and_all_ones():
    assert is_irreducible(_c4_rays_and_all_ones())


def test_algebra_span_members_and_order_match_reference(rng, random_matrix):
    cases = _span_cases(rng, random_matrix)
    for n in (2, 3, 4):
        cases.append([M([[int(c == r + 1) for c in range(n)] for r in range(n)])])
        cases.append([_unit(n, i, i) for i in range(n)]
                     + [_unit(n, i, i + 1) for i in range(n - 1)])
    cases.append(_c4_rays_and_all_ones())
    for gens in cases:
        got = algebra_span(gens).basis
        assert got == _reference_algebra_span(gens).basis
        for m in got:
            assert all(type(e) is GaussianRational and type(e.real) is Fraction
                       and type(e.imag) is Fraction for e in m.entries)


def _c4_two_blocks():
    """M_2 (+) M_2 in C^4: rays e1, [1,1,0,0], e3, [0,0,1,1] and the
    projector onto the first block, so the algebra has dimension 8."""
    rays = ([1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1])
    block = projector_of(span([[1, 0, 0, 0], [0, 1, 0, 0]]))
    return [_ray_projector(v) for v in rays] + [block]


@pytest.mark.parametrize("case, dim, products", [
    # The queue runs dry: 7 members after the identity, 5 generators each.
    (_c4_two_blocks, 8, 35),
    (_c4_rays_and_all_ones, 16, 25),
    # The identity and three generators already span M_2.
    (lambda: list(nontrivial_projectors()), 4, 0),
], ids=["c4-two-blocks", "c4-rays-and-all-ones", "qubit"])
def test_algebra_span_forms_no_product_it_knows(monkeypatch, case, dim, products):
    gens = case()
    n = gens[0].rows
    unit = tuple(exactlin._columns(ExactMatrix.identity(n)))
    right_factors = []
    for module in (exactlin, invariant):
        original = getattr(module, "_gaussian_product", None)
        if original is not None:
            def counted(terms, columns, original=original):
                right_factors.append(tuple(columns))
                return original(terms, columns)
            monkeypatch.setattr(module, "_gaussian_product", counted)
    assert algebra_span(gens).dim == dim
    assert len(right_factors) == products
    assert unit not in right_factors


def test_terms_are_built_once_per_matrix(monkeypatch, universe):
    # Each matrix builds its nonzero terms on its first read, however often
    # the walk, Burnside's test and the invariance checks read them.
    builds = []
    read = ExactMatrix.terms.fget

    def counted(m):
        if m._terms is None:
            builds.append(m)
        return read(m)

    monkeypatch.setattr(ExactMatrix, "terms", property(counted))
    families = [_c4_two_blocks(), _c4_rays_and_all_ones()]
    for gens in families:
        algebra_span(gens)
        is_irreducible(gens)
        for _ in range(3):
            assert all(maps_into(g, image(g)) for g in gens)
    qubit = list(nontrivial_projectors())
    for _ in range(3):
        common_invariant_sublattice(qubit, universe)
    built = [id(m) for m in builds]
    assert len(set(built)) == len(built)
    assert {id(g) for gens in families for g in gens} <= set(built)
    assert any(id(p) in built for p in qubit)
