import copy
import functools
import itertools
import pickle
import re
from fractions import Fraction

import pytest

from sublat import lattice
from sublat import subspace as sub
from sublat.exactlin import ExactMatrix, GaussianRational
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
from sublat.lattice import (
    ClosureCapError, atoms, close_and_build, is_atom, orthocomplement_indices,
)
from sublat.qubit import nontrivial_projectors, projector
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
    expected = naive_search(lat, laws)
    assert list(search_bivaluations(lat, laws)) == expected
    # every candidate the search lists is an up-set, so only the other
    # assignments show a law check that is too weak off up-sets
    accepted = set(expected)
    for bits in itertools.product((0, 1), repeat=len(lat)):
        assert satisfies_laws(lat, bits, laws) == (bits in accepted)


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
    message = f"^{re.escape(plane.span_str())} is not an atom of the lattice$"
    with pytest.raises(ValueError, match=message):
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
        ideal = ideal_complement(filt)
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


def _reference_is_standard_filter(subset):
    """The definition read literally: nonempty, proper, upward closed, and
    closed under meets."""
    if not subset.members or not subset.complement_members():
        return False
    closed, _ = is_upward_closed(subset)
    return closed and is_downward_directed(subset)


def test_standard_filter_matches_its_definition(
    full_lattice, boolean_frame, non_atomistic_chain, mo5
):
    # A finite standard filter is up(a), a the meet of its members.
    compared = 0
    for lat in (full_lattice, boolean_frame, non_atomistic_chain, mo5):
        for bits in itertools.product((0, 1), repeat=len(lat)):
            subset = LatticeSubset(lat, frozenset(i for i, b in enumerate(bits) if b))
            assert is_standard_filter(subset) is _reference_is_standard_filter(subset), bits
            compared += 1
    assert compared == 656


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
    assert paper.assignment[lat.top] == 0
    standard = homomorphism_from_filter(lat, filt, CONVENTION_STANDARD)
    assert standard.assignment == (1, 1, 1, 1, 1, 1, 0, 1)
    assert standard.assignment[lat.top] == 1
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
    assert principal in search_bivaluations(diamond, FULL_HOMOMORPHISM_LAWS)


def test_search_full_lattice_empty(full_lattice):
    assert search_bivaluations(full_lattice, FULL_HOMOMORPHISM_LAWS) == ()
    assert naive_search(full_lattice, FULL_HOMOMORPHISM_LAWS) == []


def test_search_diamond_two(diamond):
    found = search_bivaluations(diamond, FULL_HOMOMORPHISM_LAWS)
    assert len(found) == 2
    assert list(found) == naive_search(diamond, FULL_HOMOMORPHISM_LAWS)
    for bits in found:
        assert satisfies_laws(diamond, bits, {MEET_HOM, JOIN_HOM})


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


COMPLEMENT_LAW_SETS = [laws for laws in ALL_LAW_SETS if COMPLEMENT_LAW in laws]


def test_complement_law_refuses_a_lattice_without_orthocomplements():
    # MO_3 of three lines holds no orthocomplement of span{[1,0]}. Every law
    # set with complement-law names it, whatever the assignment and whichever
    # source lists the search's candidates; an assignment of the wrong
    # length is reported first.
    mo3 = close_and_build([span([r]) for r in ([1, 0], [1, 1], [1, 2])])
    assert len(mo3) == 5
    message = "^" + re.escape(
        "orthocomplement span{[0,1]} of span{[1,0]} is not a lattice element") + "$"
    for laws in COMPLEMENT_LAW_SETS:
        for v in itertools.product((0, 1), repeat=len(mo3)):
            with pytest.raises(ValueError, match=message):
                satisfies_laws(mo3, v, laws)
        with pytest.raises(ValueError, match=message):
            search_bivaluations(mo3, laws)
        with pytest.raises(ValueError, match="length"):
            satisfies_laws(mo3, (0,) * 4, laws)


def test_orthocomplements_are_computed_once_per_lattice(monkeypatch):
    # The lattice keeps its orthocomplement table, so many law checks and a
    # search through each candidate source build it once between them.
    lat = close_and_build([image(p) for p in nontrivial_projectors()])
    calls = []
    original = lattice.orthocomplement_indices

    def counted(host, *args):
        calls.append(host)
        return original(host, *args)

    monkeypatch.setattr(lattice, "orthocomplement_indices", counted)
    bit_vectors = itertools.cycle(itertools.product((0, 1), repeat=len(lat)))
    for v in itertools.islice(bit_vectors, 100):
        satisfies_laws(lat, v, {COMPLEMENT_LAW})
    assert len(search_bivaluations(lat, {COMPLEMENT_LAW})) == 16
    for laws in ({MEET_HOM, COMPLEMENT_LAW}, {JOIN_HOM, COMPLEMENT_LAW}):
        search_bivaluations(lat, laws)
    assert calls == [lat]


def _reference_complement_candidates(lat):
    """The complement-law candidates as the search once listed them: one
    dict of free bits per candidate, the lesser index of each
    orthocomplement pair free and the greater one its flip."""
    size = len(lat)
    comp = orthocomplement_indices(lat)
    free = [i for i in range(size) if i <= comp[i]]
    bit_maps = (dict(zip(free, bits)) for bits in itertools.product((0, 1), repeat=len(free)))
    return [tuple(b[i] if i in b else 1 - b[comp[i]] for i in range(size)) for b in bit_maps]


def _random_orthopairs(rng, p):
    """MO_2p: p lines [1, z] of C^2 with random slopes and their
    orthocomplements. Each slope has a positive real part and each
    orthocomplement's slope, -1/conj(z), a negative one, so the 2p lines
    are distinct."""
    slopes = set()
    while len(slopes) < p:
        slopes.add(GaussianRational(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    lines = [span([[1, z]]) for z in slopes]
    return close_and_build(lines + [sub.orthocomplement(s) for s in lines])


def _random_frame(rng, n):
    """2^n: the columns of |v|^2 I - 2 v v*, a scaled Householder
    reflection, for a random nonzero Gaussian-integer v; they are n
    orthogonal rays of C^n."""
    v = [(0, 0)] * n
    while v == [(0, 0)] * n:
        v = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
    norm = sum(a * a + b * b for a, b in v)

    def entry(i, j):  # |v|^2 [i = j] - 2 v_i conj(v_j)
        (a, b), (c, d) = v[i], v[j]
        return GaussianRational(Fraction(norm * (i == j) - 2 * (a * c + b * d)),
                                Fraction(-2 * (b * c - a * d)))

    return close_and_build([span([[entry(i, j) for i in range(n)]]) for j in range(n)])


def test_complement_search_matches_reference_candidates(rng):
    # The naive oracle lists all 2^n maps, so it stops near 10 elements;
    # here the reference lists the 2^k complement-law candidates of MO_2p up
    # to the 16-free-bit cap (p pairs and the bottom-top pair) and of the
    # frames 2^3 and 2^4. satisfies_laws decides each law alone on each
    # candidate, and a law set holds where each of its laws does.
    lattices = [_random_orthopairs(rng, p) for p in range(1, 16)]
    lattices += [_random_frame(rng, n) for n in (3, 4)]
    assert [len(lat) for lat in lattices] == [2 * p + 2 for p in range(1, 16)] + [8, 16]
    for lat in lattices:
        candidates = _reference_complement_candidates(lat)
        held = [frozenset(law for law in KNOWN_LAWS if satisfies_laws(lat, v, {law}))
                for v in candidates]
        for laws in COMPLEMENT_LAW_SETS:
            expected = sorted(v for v, ok in zip(candidates, held) if laws <= ok)
            assert list(search_bivaluations(lat, laws)) == expected, (len(lat), sorted(laws))
    assert len(search_bivaluations(lattices[14], {COMPLEMENT_LAW})) == 2 ** 16


def test_cached_facts_stay_out_of_equality_hash_and_copies():
    # The lattice's lazily filled facts and the subset's stored complement
    # are read before any comparison or copy; fresh has none of them yet.
    lat = close_and_build([image(p) for p in nontrivial_projectors()])
    fresh = close_and_build(lat.elements)
    text = repr(lat)

    def facts(host):
        return (host.atom_set, host.up_sets, host.down_sets, host.order_columns,
                host.orthocomplements)

    read = facts(lat)
    assert repr(lat) == text and lat == fresh and hash(lat) == hash(fresh)
    w = atoms(lat)[0]
    subset = coatom_complement_filter(lat, w)
    assert subset.complement_members() == {w}
    assert subset == LatticeSubset(fresh, subset.members)
    assert hash(subset) == hash(LatticeSubset(fresh, subset.members))
    assert repr(subset) == f"LatticeSubset(host={text}, members={subset.members!r})"
    bit_vectors = list(itertools.product((0, 1), repeat=len(lat)))

    def answers(host):
        return (atoms(host), [is_atom(host, i) for i in range(-1, len(host) + 1)],
                [(satisfies_laws(host, v, {MEET_HOM}), satisfies_laws(host, v, {JOIN_HOM}))
                 for v in bit_vectors])

    expected = answers(lat)
    for duplicate in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        for original, host_of in ((lat, lambda x: x), (subset, lambda x: x.host)):
            twin = duplicate(original)
            assert twin == original and hash(twin) == hash(original)
            assert facts(host_of(twin)) == read and answers(host_of(twin)) == expected
        twin = duplicate(subset)
        assert twin.complement_members() == {w}
        assert is_prime_paper(twin) and is_upward_closed(twin) == is_upward_closed(subset)


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
    ((0, [1], 0, 1), set(), "0 or 1"),
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
    p = projector(1, 1)
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
    assert ideal_complement(subset).sorted_members() == (
        1, 2, 4, 5, 6, 7,
    )


def test_subset_from_generator(diamond):
    subset = LatticeSubset(diamond, (i for i in range(4) if i != 1))
    assert subset.sorted_members() == (0, 2, 3)
    with pytest.raises(ValueError, match="^member index 9 out of range$"):
        LatticeSubset(diamond, (i for i in (0, 9)))
    with pytest.raises(ValueError, match="^member index -1 out of range$"):
        LatticeSubset(diamond, (-1, 2))


# Whole-table scans of the atom test, paper primality, the join-hom law,
# downward directedness and upward closure, kept as oracles: the library's
# row and column reads must give the same verdicts, witnesses and messages.
def _reference_atoms(lat):
    return tuple(
        i for i, column in enumerate(zip(*lat.order))
        if i != lat.bottom and sum(column) == 2
    )


def _reference_is_prime_paper(subset):
    lat = subset.host
    outside = sorted(subset.complement_members())
    for w in outside:
        for x in range(len(lat)):
            if lat.join(x, w) in subset and x not in subset:
                return False
    return True


def _reference_join_hom(host, v):
    zeros = [i for i, b in enumerate(v) if b == 0]
    if not zeros:
        return True
    b = functools.reduce(host.join, zeros)
    return v[b] == 0 and all(v[x] == 0 for x, row in enumerate(host.order) if row[b])


def _reference_is_downward_directed(subset):
    lat = subset.host
    idx = subset.sorted_members()
    return all(lat.meet(x, y) in subset for x, y in itertools.product(idx, repeat=2))


def _reference_is_upward_closed(subset):
    lat = subset.host
    for x in subset.sorted_members():
        for y in range(len(lat)):
            if lat.leq(x, y) and y not in subset:
                return (False, (x, y))
    return (True, None)


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def _assert_filters_match_references(lat, bit_vectors):
    """Compare every verdict with its oracle on each bit vector, read both
    as a subset and as a {0,1} map, and the deleted-element filter and its
    map at every index; return the verdicts seen, so a caller can check
    that both answers came up."""
    size = len(lat)
    reference_atoms = _reference_atoms(lat)
    assert atoms(lat) == reference_atoms
    seen = set()
    for bits in bit_vectors:
        subset = LatticeSubset(lat, frozenset(itertools.compress(range(size), bits)))
        verdicts = (
            is_prime_paper(subset),
            is_downward_directed(subset),
            is_upward_closed(subset),
            satisfies_laws(lat, bits, {JOIN_HOM}),
        )
        assert verdicts == (
            _reference_is_prime_paper(subset),
            _reference_is_downward_directed(subset),
            _reference_is_upward_closed(subset),
            _reference_join_hom(lat, bits),
        ), bits
        seen |= {(k, v if isinstance(v, bool) else v[0]) for k, v in enumerate(verdicts)}
    for w in range(-1, size + 1):
        got = _outcome(coatom_complement_filter, lat, w)
        if not 0 <= w < size:
            assert got == f"element index {w} out of range"
        elif w in (lat.bottom, lat.top):
            assert got == "cannot remove the bottom or the top"
        elif w not in reference_atoms:
            assert got == f"{lat.elements[w].span_str()} is not an atom of the lattice"
        else:
            assert got.sorted_members() == tuple(i for i in range(size) if i != w)
        if not 0 <= w < size:
            continue
        removed = LatticeSubset(lat, frozenset(range(size)) - {w})
        for convention, mark in ((CONVENTION_PAPER, 1), (CONVENTION_STANDARD, 0)):
            got = _outcome(homomorphism_from_filter, lat, removed, convention)
            if w in (lat.bottom, lat.top) or w not in reference_atoms:
                assert got == "filter does not come from removing a nontrivial atom"
            else:
                expected = tuple(mark if i == w else 1 - mark for i in range(size))
                assert (got.assignment, got.convention) == (expected, convention)
                assert got.ones() == tuple(i for i in range(size) if expected[i] == 1)
    return seen


def _structured_bit_vectors(lat):
    """Each up(a), each complement of down(b), and the whole lattice less
    one element: the subsets most verdicts answer True on."""
    size = len(lat)
    yield from (tuple(map(int, row)) for row in lat.order)
    yield from (tuple(1 - b for b in column) for column in zip(*lat.order))
    yield from (tuple(int(i != w) for i in range(size)) for w in range(size))


def test_filters_match_references_on_every_subset(
    full_lattice, boolean_frame, three_chain, non_atomistic_chain, pentagon, mo5
):
    lattices = (full_lattice, boolean_frame, three_chain, non_atomistic_chain, pentagon, mo5)
    seen = set()
    for lat in lattices:
        seen |= _assert_filters_match_references(
            lat, itertools.product((0, 1), repeat=len(lat)))
    # both answers came up for each of the four verdicts
    assert seen == {(k, v) for k in range(4) for v in (False, True)}
    # the chains and the 2^3 frame have atoms that are not coatoms; MO_k does not
    assert atoms(boolean_frame) != tuple(
        i for i, row in enumerate(boolean_frame.join_table) if len(set(row)) == 2)


def test_filters_match_references_on_set_family_lattices(rng, set_family_lattice):
    # Lattices of up to 10 elements are compared on every subset, larger
    # ones on 512 random subsets; each also on its structured subsets.
    seen = set()
    bottoms = set()
    for _ in range(30):
        lat = set_family_lattice()
        size = len(lat)
        if size <= 10:
            vectors = list(itertools.product((0, 1), repeat=size))
        else:
            vectors = [tuple(rng.getrandbits(1) for _ in range(size)) for _ in range(512)]
        seen |= _assert_filters_match_references(lat, vectors + list(_structured_bit_vectors(lat)))
        bottoms.add(lat.bottom)
    assert seen == {(k, v) for k in range(4) for v in (False, True)}
    assert bottoms != {0}


@pytest.mark.parametrize("laws", ALL_LAW_SETS)
def test_search_matches_naive_oracle_on_set_family_lattices(
    rng, set_family_lattice, pentagon, laws
):
    # The labels have no orthocomplements, so complement-law is refused;
    # the naive oracle lists all 2^n maps, so only lattices of up to 8
    # elements are searched.
    assert_search_matches_oracle(pentagon, laws)
    searched = 0
    for _ in range(30):
        lat = set_family_lattice()
        if len(lat) <= 8:
            assert_search_matches_oracle(lat, laws)
            searched += 1
    assert searched >= 10
