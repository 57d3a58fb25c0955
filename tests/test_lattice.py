import itertools

import pytest

from sublat.lattice import (
    ClosureCapError,
    FiniteLattice,
    atoms,
    check_distributive,
    check_modular,
    check_orthomodular,
    close_and_build,
    covers,
    orthocomplement_indices,
    sublattice,
    to_dot,
)
from sublat.qubit import nontrivial_projectors
from sublat.subspace import Subspace, image, span


@pytest.fixture(scope="module")
def full_lattice():
    return close_and_build([image(p) for p in nontrivial_projectors()])


@pytest.fixture(scope="module")
def diamond():
    return close_and_build([span([[1, 1]]), span([[1, -1]])])


@pytest.fixture(scope="module")
def two_chain():
    return close_and_build([], ambient_dim=2)


def test_full_lattice_shape(full_lattice):
    assert len(full_lattice) == 8
    assert full_lattice.bottom == 0
    assert full_lattice.top == 7
    assert full_lattice.elements[0] == Subspace.zero(2)
    assert full_lattice.elements[7] == Subspace.full(2)
    assert full_lattice.spans() == (
        "{0}",
        "span{[0,1]}",
        "span{[1,-1]}",
        "span{[1,-i]}",
        "span{[1,0]}",
        "span{[1,i]}",
        "span{[1,1]}",
        "C^2",
    )


def test_closure_sizes(diamond, two_chain):
    assert len(diamond) == 4
    assert len(two_chain) == 2
    assert two_chain.bottom == 0 and two_chain.top == 1


def test_close_and_build_idempotent(full_lattice, diamond):
    assert close_and_build(full_lattice.elements) == full_lattice
    assert close_and_build(diamond.elements) == diamond


def test_close_and_build_errors():
    with pytest.raises(ValueError, match="ambient_dim"):
        close_and_build([])
    with pytest.raises(ValueError, match="ambient"):
        close_and_build([Subspace.zero(2), Subspace.zero(3)])
    with pytest.raises(ClosureCapError, match="cap"):
        close_and_build(
            [image(p) for p in nontrivial_projectors()], max_elements=4
        )
    # closure itself can overflow: two planes of C^3 generate their join
    with pytest.raises(ClosureCapError, match="cap"):
        close_and_build(
            [span([[1, 0, 0]]), span([[0, 1, 0]])], max_elements=4
        )


def test_index_and_membership(full_lattice):
    k = span([[1, 1]])
    assert full_lattice.index_of(k) == 6
    assert k in full_lattice
    outside = span([[1, 2]])
    assert outside not in full_lattice
    with pytest.raises(ValueError, match="not a lattice element"):
        full_lattice.index_of(outside)


def test_tables_match_subspace_operations(full_lattice):
    # the meet and join tables are read off the order table; they must
    # agree with exact intersections and spans
    from sublat import subspace as sub

    mo_6 = close_and_build([span([[1, k]]) for k in range(5)] + [span([[0, 1]])])
    boolean = close_and_build([span([[1, 1, 0]]), span([[1, -1, 0]]), span([[0, 0, 1]])])
    mixed = close_and_build(
        [span([[1, 0, 0]]), span([[1, 1, 0]]), span([[0, 1, 0], [0, 0, 1]]),
         span([[0, 1, "i"]])]
    )
    assert [len(lat) for lat in (mo_6, boolean, mixed)] == [8, 8, 10]
    for lat in (full_lattice, mo_6, boolean, mixed):
        for i, j in itertools.product(range(len(lat)), repeat=2):
            s, t = lat.elements[i], lat.elements[j]
            assert lat.leq(i, j) == sub.leq(s, t)
            assert lat.elements[lat.meet(i, j)] == sub.meet(s, t)
            assert lat.elements[lat.join(i, j)] == sub.join(s, t)


def test_lattice_axioms_all_pairs_and_triples(full_lattice):
    lat = full_lattice
    size = len(lat)
    for i in range(size):
        assert lat.meet(i, i) == i
        assert lat.join(i, i) == i
        assert lat.meet(i, lat.bottom) == lat.bottom
        assert lat.join(i, lat.top) == lat.top
    for i, j in itertools.product(range(size), repeat=2):
        assert lat.meet(i, j) == lat.meet(j, i)
        assert lat.join(i, j) == lat.join(j, i)
        assert lat.meet(i, lat.join(i, j)) == i
        assert lat.join(i, lat.meet(i, j)) == i
        assert lat.leq(i, j) == (lat.meet(i, j) == i)
        assert lat.leq(i, j) == (lat.join(i, j) == j)
    for i, j, k in itertools.product(range(size), repeat=3):
        assert lat.meet(lat.meet(i, j), k) == lat.meet(i, lat.meet(j, k))
        assert lat.join(lat.join(i, j), k) == lat.join(i, lat.join(j, k))


def test_atoms(full_lattice, diamond, two_chain):
    assert atoms(full_lattice) == (1, 2, 3, 4, 5, 6)
    assert len(atoms(diamond)) == 2
    assert atoms(two_chain) == (1,)
    pair = close_and_build([span([[1, 0]]), span([[0, 1]])])
    assert {pair.elements[a].span_str() for a in atoms(pair)} == {
        "span{[1,0]}",
        "span{[0,1]}",
    }


def test_distinct_atoms_meet_bottom_join_top(full_lattice):
    for a, b in itertools.combinations(atoms(full_lattice), 2):
        assert full_lattice.meet(a, b) == full_lattice.bottom
        assert full_lattice.join(a, b) == full_lattice.top


def test_check_distributive(full_lattice, diamond, two_chain):
    report = check_distributive(full_lattice)
    assert not report.holds
    assert report.total_violations > 0
    assert len(report.violations) == 10
    # the canonical witness triple is among the violations somewhere
    big = check_distributive(full_lattice, limit=10_000)
    k = full_lattice.index_of(span([[1, 1]]))
    m = full_lattice.index_of(span([[1, -1]]))
    o = full_lattice.index_of(span([[1, 0]]))
    assert any(v.elements == (k, m, o) for v in big.violations)
    assert check_distributive(diamond).holds
    assert check_distributive(two_chain).holds


def test_distributivity_witness_values(full_lattice):
    lat = full_lattice
    k = lat.index_of(span([[1, 1]]))
    m = lat.index_of(span([[1, -1]]))
    o = lat.index_of(span([[1, 0]]))
    assert lat.join(k, m) == lat.top
    assert lat.meet(lat.join(k, m), o) == o
    assert lat.meet(k, o) == lat.bottom
    assert lat.meet(m, o) == lat.bottom
    assert lat.join(lat.meet(k, o), lat.meet(m, o)) == lat.bottom


def test_check_modular_and_orthomodular(full_lattice, diamond, two_chain):
    for lat in (full_lattice, diamond, two_chain):
        assert check_modular(lat).holds
        assert check_orthomodular(lat).holds


def test_orthomodular_requires_complements():
    lat = close_and_build([span([[1, 1]])])
    with pytest.raises(ValueError, match="not a lattice element"):
        check_orthomodular(lat)
    with pytest.raises(ValueError, match="not a lattice element"):
        orthocomplement_indices(lat)


def test_orthocomplement_indices(full_lattice):
    comp = orthocomplement_indices(full_lattice)
    assert comp == (7, 4, 6, 5, 1, 3, 2, 0)
    assert all(comp[comp[i]] == i for i in range(8))


def test_non_modular_lattice_detected():
    # Subspace lattices are always modular, so the failure branch of the
    # scanner needs hand-built pentagon tables: bottom < a < c, bottom < b.
    order = {
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
        (1, 1), (1, 3), (1, 4),
        (2, 2), (2, 4),
        (3, 3), (3, 4),
        (4, 4),
    }
    size = 5
    leq = [[(i, j) in order for j in range(size)] for i in range(size)]

    def meet(i, j):
        lower = [z for z in range(size) if leq[z][i] and leq[z][j]]
        return next(z for z in lower if all(leq[w][z] for w in lower))

    def join(i, j):
        upper = [z for z in range(size) if leq[i][z] and leq[j][z]]
        return next(z for z in upper if all(leq[z][w] for w in upper))

    meets = tuple(tuple(meet(i, j) for j in range(size)) for i in range(size))
    joins = tuple(tuple(join(i, j) for j in range(size)) for i in range(size))
    spans = [
        Subspace.zero(5),
        span([[1, 0, 0, 0, 0]]),
        span([[0, 1, 0, 0, 0]]),
        span([[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]]),
        Subspace.full(5),
    ]
    pentagon = FiniteLattice(
        ambient_dim=5,
        elements=tuple(spans),
        order=tuple(tuple(row) for row in leq),
        meet_table=meets,
        join_table=joins,
        bottom=0,
        top=4,
    )
    assert not check_modular(pentagon).holds
    assert not check_distributive(pentagon).holds


def test_to_dot(full_lattice, diamond, two_chain):
    for lat, nodes, edges in (
        (full_lattice, 8, 12),
        (diamond, 4, 4),
        (two_chain, 2, 1),
    ):
        dot = to_dot(lat)
        assert dot.startswith("digraph lattice {")
        assert dot.rstrip().endswith("}")
        assert dot.count("label=") == nodes
        assert dot.count("->") == edges
        assert len(covers(lat)) == edges
    named = to_dot(two_chain, name="chain")
    assert named.startswith("digraph chain {")


def test_covers(full_lattice):
    pairs = covers(full_lattice)
    assert all(full_lattice.leq(i, j) and i != j for i, j in pairs)
    from_bottom = [j for i, j in pairs if i == full_lattice.bottom]
    assert tuple(from_bottom) == atoms(full_lattice)


def test_sublattice_restricts_tables(full_lattice):
    k = full_lattice.index_of(span([[1, 1]]))
    m = full_lattice.index_of(span([[1, -1]]))
    context = sublattice(full_lattice, [full_lattice.top, m, k, full_lattice.bottom])
    assert context == close_and_build([span([[1, 1]]), span([[1, -1]])])
    assert sublattice(full_lattice, range(len(full_lattice))) is full_lattice
    # two atoms without the top miss their join; the top alone misses the bottom
    with pytest.raises(ValueError, match="not closed"):
        sublattice(full_lattice, [full_lattice.bottom, k, m])
    with pytest.raises(ValueError, match="bottom or the top"):
        sublattice(full_lattice, [full_lattice.top])
