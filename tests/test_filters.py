import itertools

import pytest

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
    LatticeSubset,
    MEET_HOM,
    NOT_APPLICABLE,
    TOP_TO_ONE,
    coatom_complement_filter,
    homomorphism_from_filter,
    ideal_complement,
    indicator_bivaluation,
    is_downward_directed,
    is_lattice_homomorphism,
    is_prime_paper,
    is_prime_standard,
    is_standard_filter,
    is_upward_closed,
    principal_up_set,
    satisfies_laws,
    search_bivaluations,
    state_valuation,
)
from sublat.lattice import atoms, close_and_build, orthocomplement_indices
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


def test_coatom_complement_filter(full_lattice):
    filt = coatom_complement_filter(full_lattice, 6)
    assert len(filt) == 7
    assert 6 not in filt
    assert full_lattice.bottom in filt and full_lattice.top in filt
    with pytest.raises(ValueError, match="bottom or the top"):
        coatom_complement_filter(full_lattice, full_lattice.bottom)
    with pytest.raises(ValueError, match="bottom or the top"):
        coatom_complement_filter(full_lattice, full_lattice.top)


def test_coatom_complement_requires_atom():
    plane = span([[1, 0, 0], [0, 1, 0]])
    lat = close_and_build([plane, span([[1, 0, 0]])])
    with pytest.raises(ValueError, match="not an atom"):
        coatom_complement_filter(lat, lat.index_of(plane))


def test_filter_battery_every_atom(full_lattice):
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


def test_upward_closed_cases(full_lattice):
    lat = full_lattice
    top_only = LatticeSubset(lat, frozenset({lat.top}))
    assert is_upward_closed(top_only) == (True, None)
    assert is_standard_filter(top_only)
    up_w = principal_up_set(lat, 6)
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
    up_a = principal_up_set(diamond, a)
    assert is_prime_standard(up_a) is True
    everything = LatticeSubset(diamond, frozenset(range(len(diamond))))
    assert is_prime_standard(everything) is NOT_APPLICABLE


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
    with pytest.raises(ValueError, match="convention"):
        homomorphism_from_filter(lat, filt, "other")
    not_a_filter = LatticeSubset(lat, frozenset({0, 1, 2}))
    with pytest.raises(ValueError, match="single element"):
        homomorphism_from_filter(lat, not_a_filter)


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
    assert not is_lattice_homomorphism(flip)
    principal = indicator_bivaluation(
        diamond, principal_up_set(diamond, a), CONVENTION_STANDARD
    )
    assert is_lattice_homomorphism(principal)
    found = {
        b.assignment for b in search_bivaluations(diamond, FULL_HOMOMORPHISM_LAWS)
    }
    assert principal.assignment in found


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
        assert is_lattice_homomorphism(b)


@pytest.mark.parametrize(
    "laws",
    [
        frozenset(),
        frozenset({MEET_HOM}),
        frozenset({JOIN_HOM}),
        frozenset({MEET_HOM, JOIN_HOM}),
        frozenset({COMPLEMENT_LAW}),
        frozenset({TOP_TO_ONE, BOTTOM_TO_ZERO}),
        FULL_HOMOMORPHISM_LAWS,
        FULL_HOMOMORPHISM_LAWS | {COMPLEMENT_LAW},
    ],
)
def test_search_matches_naive_oracle(full_lattice, diamond, boolean_frame, mo5, laws):
    assert (len(boolean_frame), len(mo5)) == (8, 7)
    for lat in (full_lattice, diamond, boolean_frame, mo5):
        if COMPLEMENT_LAW in laws and lat is mo5:
            # the line [1,1] has no orthocomplement in MO_5
            with pytest.raises(ValueError, match="not a lattice element"):
                search_bivaluations(lat, laws)
            continue
        optimized = [b.assignment for b in search_bivaluations(lat, laws)]
        assert optimized == naive_search(lat, laws)


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
    with pytest.raises(ValueError, match="search cap is 24 .* without meet-hom or join-hom"):
        search_bivaluations(lat, {TOP_TO_ONE})


def test_satisfies_laws(full_lattice):
    zero_map = tuple(0 for _ in range(len(full_lattice)))
    assert satisfies_laws(full_lattice, zero_map, {MEET_HOM, JOIN_HOM, BOTTOM_TO_ZERO})
    assert not satisfies_laws(full_lattice, zero_map, {TOP_TO_ONE})


def test_bivaluation_validation(full_lattice):
    with pytest.raises(ValueError, match="length"):
        Bivaluation(full_lattice, (0, 1), CONVENTION_PAPER)
    with pytest.raises(ValueError, match="0 or 1"):
        Bivaluation(full_lattice, (2,) * 8, CONVENTION_PAPER)
    with pytest.raises(ValueError, match="convention"):
        Bivaluation(full_lattice, (0,) * 8, "loose")
    b = Bivaluation(full_lattice, (0, 1, 0, 0, 0, 0, 0, 0), CONVENTION_PAPER)
    assert b.ones() == (1,)


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
