import itertools

import pytest

from sublat import lattice
from sublat import subspace as sub
from sublat.exactlin import ExactMatrix
from sublat.filters import (
    BOTTOM_TO_ZERO,
    Bivaluation,
    COMPLEMENT_LAW,
    CONVENTION_PAPER,
    CONVENTION_STANDARD,
    FULL_HOMOMORPHISM_LAWS,
    INDETERMINATE,
    JOIN_HOM,
    KNOWN_LAWS,
    LatticeSubset,
    MEET_HOM,
    NOT_APPLICABLE,
    TOP_TO_ONE,
    coatom_complement_filter,
    homomorphism_from_filter,
    ideal_complement,
    is_downward_directed,
    is_prime_paper,
    is_prime_standard,
    is_standard_filter,
    is_upward_closed,
    satisfies_laws,
    search_bivaluations,
    state_valuation,
)
from sublat.lattice import ClosureCapError, atoms, close_and_build, orthocomplement_indices
from sublat.qubit import ProjectorId, nontrivial_projectors, projector
from sublat.subspace import image, span, vector


@pytest.fixture(scope="module")
def full_lattice():
    return close_and_build([image(p) for p in nontrivial_projectors()])


@pytest.fixture(scope="module")
def diamond():
    return close_and_build([span([[1, 1]]), span([[1, -1]])])


@pytest.fixture(scope="module")
def boolean_frame():
    return close_and_build([span([[1, 0, 0]]), span([[0, 1, 0]]), span([[0, 0, 1]])])


@pytest.fixture(scope="module")
def mo5():
    return close_and_build([span([[1, k]]) for k in range(4)] + [span([[0, 1]])])


@pytest.fixture(scope="module")
def three_chain():
    return close_and_build([span([[1, 0]])])


@pytest.fixture(scope="module")
def non_atomistic_chain():
    return close_and_build([span([[1, 0, 0], [0, 1, 0]]), span([[1, 0, 0]])])


ALL_LAW_SETS = [
    frozenset(laws)
    for r in range(len(KNOWN_LAWS) + 1)
    for laws in itertools.combinations(sorted(KNOWN_LAWS), r)
]


def up_set(lat, x):
    """The principal filter {y : x <= y}."""
    return LatticeSubset(lat, frozenset(y for y in range(len(lat)) if lat.leq(x, y)))


def naive_search(lat, laws):
    """Independent oracle: brute-force enumeration over the tables."""
    size = len(lat)
    comp = None
    if COMPLEMENT_LAW in laws:
        comp = [
            lat.index_of(sub.orthocomplement(s)) for s in lat.elements
        ]
    found = []
    for bits in itertools.product((0, 1), repeat=size):
        if BOTTOM_TO_ZERO in laws and bits[lat.bottom] != 0:
            continue
        if TOP_TO_ONE in laws and bits[lat.top] != 1:
            continue
        if comp is not None and any(
            bits[i] + bits[comp[i]] != 1 for i in range(size)
        ):
            continue
        pairs = itertools.product(range(size), repeat=2)
        ok = True
        for x, y in pairs:
            if MEET_HOM in laws and bits[lat.meet_table[x][y]] != min(bits[x], bits[y]):
                ok = False
                break
            if JOIN_HOM in laws and bits[lat.join_table[x][y]] != max(bits[x], bits[y]):
                ok = False
                break
        if ok:
            found.append(bits)
    return found


def assert_search_matches_oracle(lat, laws):
    if COMPLEMENT_LAW in laws and any(
        sub.orthocomplement(s) not in lat for s in lat.elements
    ):
        with pytest.raises(ValueError, match="not a lattice element"):
            search_bivaluations(lat, laws)
        return
    optimized = [b.assignment for b in search_bivaluations(lat, laws)]
    assert optimized == naive_search(lat, laws)


def test_coatom_complement_filter(full_lattice):
    filt = coatom_complement_filter(full_lattice, 6)
    assert len(filt) == 7
    assert 6 not in filt
    assert full_lattice.bottom in filt and full_lattice.top in filt
    with pytest.raises(ValueError, match="bottom or the top"):
        coatom_complement_filter(full_lattice, full_lattice.bottom)
    with pytest.raises(ValueError, match="bottom or the top"):
        coatom_complement_filter(full_lattice, full_lattice.top)


@pytest.mark.parametrize("w", [99, -3])
def test_coatom_complement_rejects_out_of_range(diamond, w):
    # -3 must not wrap around to the atom at index 1
    with pytest.raises(ValueError, match=f"element index {w} out of range"):
        coatom_complement_filter(diamond, w)


def test_coatom_complement_requires_atom():
    plane = span([[1, 0, 0], [0, 1, 0]])
    lat = close_and_build([plane, span([[1, 0, 0]])])
    with pytest.raises(ValueError, match="not an atom"):
        coatom_complement_filter(lat, lat.index_of(plane))


def test_filter_battery_every_atom(full_lattice, diamond, mo5, boolean_frame):
    lat = full_lattice
    for w in atoms(lat):
        filt = coatom_complement_filter(lat, w)
        assert is_downward_directed(filt)
        closed, witness = is_upward_closed(filt)
        assert not closed
        assert witness == (lat.bottom, w)
        assert is_prime_paper(filt)
        assert is_prime_standard(filt) is NOT_APPLICABLE
        assert not is_standard_filter(filt)
        ideal = ideal_complement(lat, filt)
        assert ideal.sorted_members() == (w,)
    # The contexts report writes each atom's paper map down as the atom's
    # indicator, without building the filter; the standard map is its
    # complement.
    for lat in (full_lattice, diamond, mo5, boolean_frame):
        for w in atoms(lat):
            filt = coatom_complement_filter(lat, w)
            indicator = tuple(int(i == w) for i in range(len(lat)))
            paper = homomorphism_from_filter(lat, filt, CONVENTION_PAPER)
            standard = homomorphism_from_filter(lat, filt, CONVENTION_STANDARD)
            assert paper.assignment == indicator
            assert standard.assignment == tuple(1 - b for b in indicator)


def test_upward_closed_cases(full_lattice):
    lat = full_lattice
    top_only = LatticeSubset(lat, frozenset({lat.top}))
    assert is_upward_closed(top_only) == (True, None)
    assert is_standard_filter(top_only)
    up_w = up_set(lat, 6)
    assert up_w.sorted_members() == (6, lat.top)
    assert is_upward_closed(up_w) == (True, None)
    assert is_standard_filter(up_w)
    two_atoms = LatticeSubset(lat, frozenset({1, 2}))
    closed, witness = is_upward_closed(two_atoms)
    assert not closed
    assert witness == (1, lat.top)
    assert not is_downward_directed(two_atoms)


def test_prime_standard(diamond):
    top_only = LatticeSubset(diamond, frozenset({diamond.top}))
    assert is_prime_standard(top_only) is False
    a = atoms(diamond)[0]
    up_a = up_set(diamond, a)
    assert is_prime_standard(up_a) is True
    everything = LatticeSubset(diamond, frozenset(range(len(diamond))))
    assert is_prime_standard(everything) is NOT_APPLICABLE


def test_prime_standard_matches_all_pairs_definition(
    full_lattice, diamond, boolean_frame, mo5, three_chain, non_atomistic_chain
):
    for lat in (full_lattice, diamond, boolean_frame, mo5, three_chain, non_atomistic_chain):
        pairs = list(itertools.product(range(len(lat)), repeat=2))
        for bits in itertools.product((0, 1), repeat=len(lat)):
            subset = LatticeSubset(lat, frozenset(i for i, b in enumerate(bits) if b))
            if not is_standard_filter(subset):
                expected = NOT_APPLICABLE
            else:
                expected = all(
                    lat.join(x, y) not in subset or x in subset or y in subset
                    for x, y in pairs
                )
            assert is_prime_standard(subset) is expected


def test_homomorphism_from_filter(full_lattice):
    lat = full_lattice
    filt = coatom_complement_filter(lat, 6)
    paper = homomorphism_from_filter(lat, filt, CONVENTION_PAPER)
    assert paper.convention == CONVENTION_PAPER
    assert paper.assignment == (0, 0, 0, 0, 0, 0, 1, 0)
    assert paper.value(lat.top) == 0
    standard = homomorphism_from_filter(lat, filt, CONVENTION_STANDARD)
    assert standard.assignment == (1, 1, 1, 1, 1, 1, 0, 1)
    assert standard.value(lat.top) == 1
    with pytest.raises(ValueError, match="^unknown convention 'other'$"):
        homomorphism_from_filter(lat, filt, "other")
    not_a_filter = LatticeSubset(lat, frozenset({0, 1, 2}))
    with pytest.raises(ValueError, match="single element"):
        homomorphism_from_filter(lat, not_a_filter)
    # the filter is checked before the convention
    with pytest.raises(ValueError, match="^filter is not the complement of a single element$"):
        homomorphism_from_filter(lat, not_a_filter, "other")


def test_homomorphism_from_filter_rejections(full_lattice, diamond, non_atomistic_chain):
    # the single removed element must be a nontrivial atom
    lat = full_lattice
    for w in (lat.bottom, lat.top):
        no_atom = LatticeSubset(lat, frozenset(range(len(lat))) - {w})
        with pytest.raises(ValueError, match="^filter does not come from removing a nontrivial atom$"):
            homomorphism_from_filter(lat, no_atom)
    chain = non_atomistic_chain
    plane = chain.index_of(span([[1, 0, 0], [0, 1, 0]]))
    no_plane = LatticeSubset(chain, frozenset(range(len(chain))) - {plane})
    with pytest.raises(ValueError, match="^filter does not come from removing a nontrivial atom$"):
        homomorphism_from_filter(chain, no_plane)
    # and the filter must live on the host lattice, or an equal one
    a = atoms(diamond)[0]
    foreign = coatom_complement_filter(diamond, a)
    with pytest.raises(ValueError, match="^filter belongs to a different lattice$"):
        homomorphism_from_filter(lat, foreign)
    rebuilt = close_and_build(diamond.elements)
    assert rebuilt is not diamond
    assert homomorphism_from_filter(rebuilt, foreign).ones() == (a,)


def test_is_prime_paper_false_on_the_top_alone(full_lattice):
    # two distinct atoms lie outside and join to the top, which is inside
    lat = full_lattice
    assert is_prime_paper(LatticeSubset(lat, frozenset({lat.top}))) is False
    two_removed = LatticeSubset(lat, frozenset(range(len(lat))) - {1, 2})
    assert is_prime_paper(two_removed) is False
    assert is_prime_paper(coatom_complement_filter(lat, 1)) is True


def test_ideal_complement_rejects_a_foreign_subset(full_lattice, diamond):
    foreign = coatom_complement_filter(diamond, atoms(diamond)[0])
    with pytest.raises(ValueError, match="^subset belongs to a different lattice$"):
        ideal_complement(full_lattice, foreign)


def test_complement_law_pairs(full_lattice):
    # v(x) + v(x') = 1 holds exactly on the removed atom and its complement
    lat = full_lattice
    comp = orthocomplement_indices(lat)
    w = 6
    v = homomorphism_from_filter(
        lat, coatom_complement_filter(lat, w), CONVENTION_PAPER
    ).assignment
    satisfied = {i for i in range(len(lat)) if v[i] + v[comp[i]] == 1}
    assert satisfied == {w, comp[w]}


def test_standard_flip_fails_meet_preservation_on_context(diamond):
    # the flip of the literal valuation is 1 on the bottom, so it cannot
    # be a meet homomorphism; the principal up-set valuation is one
    a = atoms(diamond)[0]
    flip = homomorphism_from_filter(
        diamond, coatom_complement_filter(diamond, a), CONVENTION_STANDARD
    )
    assert not satisfies_laws(diamond, flip.assignment, {MEET_HOM, JOIN_HOM})
    principal = tuple(int(i in up_set(diamond, a)) for i in range(len(diamond)))
    assert satisfies_laws(diamond, principal, {MEET_HOM, JOIN_HOM})
    found = {
        b.assignment for b in search_bivaluations(diamond, FULL_HOMOMORPHISM_LAWS)
    }
    assert principal in found


def test_search_full_lattice_empty(full_lattice):
    assert search_bivaluations(full_lattice, FULL_HOMOMORPHISM_LAWS) == ()
    assert naive_search(full_lattice, FULL_HOMOMORPHISM_LAWS) == []


def test_search_diamond_two(diamond):
    found = search_bivaluations(diamond, FULL_HOMOMORPHISM_LAWS)
    assert len(found) == 2
    assert [b.assignment for b in found] == naive_search(
        diamond, FULL_HOMOMORPHISM_LAWS
    )
    for b in found:
        assert b.convention == CONVENTION_STANDARD
        assert satisfies_laws(diamond, b.assignment, {MEET_HOM, JOIN_HOM})


@pytest.mark.parametrize("laws", ALL_LAW_SETS)
def test_search_matches_naive_oracle(
    full_lattice, diamond, boolean_frame, mo5, three_chain, non_atomistic_chain, laws
):
    assert (len(boolean_frame), len(mo5)) == (8, 7)
    assert (len(three_chain), len(non_atomistic_chain)) == (3, 4)
    # MO_5 and the two chains lack orthocomplements, so complement-law
    # is refused there
    for lat in (full_lattice, diamond, boolean_frame, mo5, three_chain, non_atomistic_chain):
        assert_search_matches_oracle(lat, laws)


def test_search_matches_naive_oracle_on_random_rays(rng, monkeypatch):
    # rays with entries in {0, +-1, +-i} in C^2 and C^3, sometimes with
    # their orthocomplements, kept when they close to at most 10 elements
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 10)
    units = ("0", "1", "-1", "i", "-i")
    closed = 0
    for _ in range(60):
        n, k = rng.choice((2, 3)), rng.choice((2, 3))
        seeds = []
        while len(seeds) < k:
            ray = [rng.choice(units) for _ in range(n)]
            if ray != ["0"] * n:
                seeds.append(span([ray]))
        if rng.random() < 0.5:
            seeds += [sub.orthocomplement(s) for s in seeds]
        try:
            lat = close_and_build(seeds)
        except ClosureCapError:
            continue
        for laws in ALL_LAW_SETS:
            assert_search_matches_oracle(lat, laws)
        closed += 1
        if closed == 6:
            break
    assert closed == 6


def test_search_law_validation(full_lattice):
    with pytest.raises(ValueError, match="unknown law"):
        search_bivaluations(full_lattice, {"nonsense"})


def test_search_size_guard():
    lines = [span([[1, k]]) for k in range(23)] + [span([[0, 1]])]
    lat = close_and_build(lines)
    assert len(lat) == 26
    # with a homomorphism law the candidates are the n+1 principal filters,
    # so no cap applies; MO_24 has no two-valued homomorphism
    assert search_bivaluations(lat, FULL_HOMOMORPHISM_LAWS) == ()
    assert len(search_bivaluations(lat, {MEET_HOM, BOTTOM_TO_ZERO})) == 26
    with pytest.raises(
        ValueError,
        match="26 elements and 26 free bits; the search cap is 16 free bits .* "
        "without meet-hom or join-hom",
    ):
        search_bivaluations(lat, {TOP_TO_ONE})
    # MO_16 has 18 elements, within the earlier cap of 24 elements, but 2^18
    # candidates; it is refused before any is listed
    mo16 = close_and_build([span([[1, k]]) for k in range(15)] + [span([[0, 1]])])
    assert len(mo16) == 18
    with pytest.raises(ValueError, match="18 elements and 18 free bits"):
        search_bivaluations(mo16, {TOP_TO_ONE})


def test_satisfies_laws(full_lattice):
    zero_map = tuple(0 for _ in range(len(full_lattice)))
    assert satisfies_laws(full_lattice, zero_map, {MEET_HOM, JOIN_HOM, BOTTOM_TO_ZERO})
    assert not satisfies_laws(full_lattice, zero_map, {TOP_TO_ONE})
    # 0 on the bottom and 1 elsewhere keeps both bounds, and with no
    # homomorphism law chosen nothing more is checked; the meet law sees two
    # atoms meet in the bottom, the complement law an atom and its complement
    bounds_only = (0,) + (1,) * (len(full_lattice) - 1)
    for laws in (set(), {BOTTOM_TO_ZERO}, {BOTTOM_TO_ZERO, TOP_TO_ONE}, {JOIN_HOM}):
        assert satisfies_laws(full_lattice, bounds_only, laws)
    for laws in ({MEET_HOM}, {COMPLEMENT_LAW}):
        assert not satisfies_laws(full_lattice, bounds_only, laws)


@pytest.mark.parametrize("assignment,laws,message", [
    ((0,), {MEET_HOM}, "length"),
    ((0,) * 6, {MEET_HOM}, "length"),
    ((0, 2, 0, 1), set(), "0 or 1"),
])
def test_satisfies_laws_validates_the_assignment(assignment, laws, message):
    # the table scan would stop at the shorter side, and no law chosen here
    # reads the stray value
    axes = close_and_build([span([[1, 0]]), span([[0, 1]])])
    with pytest.raises(ValueError, match=message):
        satisfies_laws(axes, assignment, laws)


def test_bivaluation_validation(full_lattice):
    with pytest.raises(ValueError, match="length"):
        Bivaluation(full_lattice, (0, 1), CONVENTION_PAPER)
    with pytest.raises(ValueError, match="0 or 1"):
        Bivaluation(full_lattice, (2,) * 8, CONVENTION_PAPER)
    with pytest.raises(ValueError, match="convention"):
        Bivaluation(full_lattice, (0,) * 8, "loose")
    b = Bivaluation(full_lattice, (0, 1, 0, 0, 0, 0, 0, 0), CONVENTION_PAPER)
    assert b.ones() == (1,)


def test_bivaluation_from_list_equals_tuple_twin(diamond):
    listed = Bivaluation(diamond, [0, 1, 0, 0], CONVENTION_STANDARD)
    twin = Bivaluation(diamond, (0, 1, 0, 0), CONVENTION_STANDARD)
    assert listed.assignment == (0, 1, 0, 0)
    assert listed == twin
    assert hash(listed) == hash(twin)


def test_state_valuation_examples():
    p = projector(ProjectorId(1, 1))
    assert state_valuation(p, vector([1, 1])) == 1
    assert state_valuation(p, vector([1, -1])) == 0
    assert state_valuation(p, vector([1, 0])) is INDETERMINATE
    assert state_valuation(p, vector([3, 3])) == 1
    assert state_valuation(ExactMatrix.identity(2), vector([1, 7])) == 1
    assert state_valuation(ExactMatrix.zeros(2, 2), vector([1, 7])) == 0


def test_state_valuation_errors():
    with pytest.raises(ValueError, match="Hermitian idempotent"):
        state_valuation(ExactMatrix.from_rows([[0, 1], [0, 0]]), vector([1, 0]))
    with pytest.raises(ValueError, match="ambient"):
        state_valuation(ExactMatrix.identity(2), vector([1, 0, 0]))


def test_subset_validation(full_lattice):
    with pytest.raises(ValueError, match="out of range"):
        LatticeSubset(full_lattice, frozenset({99}))
    subset = LatticeSubset(full_lattice, frozenset({0, 3}))
    assert len(subset) == 2
    assert 3 in subset and 4 not in subset
    assert ideal_complement(full_lattice, subset).sorted_members() == (
        1, 2, 4, 5, 6, 7,
    )


def test_subset_from_generator(diamond):
    subset = LatticeSubset(diamond, (i for i in range(4) if i != 1))
    assert subset.sorted_members() == (0, 2, 3)
    with pytest.raises(ValueError, match="member index 9 out of range"):
        LatticeSubset(diamond, (i for i in (0, 9)))
