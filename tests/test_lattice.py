import itertools

import pytest

from sublat import lattice
from sublat import subspace as sub
from sublat.exactlin import GaussianRational, as_scalar
from sublat.lattice import (
    ClosureCapError,
    FiniteLattice,
    LawReport,
    LawViolation,
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


def test_close_and_build_errors(monkeypatch):
    with pytest.raises(ValueError, match="ambient_dim"):
        close_and_build([])
    with pytest.raises(ValueError, match="ambient"):
        close_and_build([Subspace.zero(2), Subspace.zero(3)])
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 4)
    with pytest.raises(ClosureCapError, match="^8 seed elements exceed the cap of 4$"):
        close_and_build([image(p) for p in nontrivial_projectors()])
    # closure itself can overflow: two lines of C^3 generate their join
    with pytest.raises(
        ClosureCapError, match="^meet/join closure exceeds the cap of 4 elements$"
    ):
        close_and_build([span([[1, 0, 0]]), span([[0, 1, 0]])])


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


# Subspace lattices are always modular, so the failure branch of the
# scanner needs hand-built pentagon tables: bottom < a < c, bottom < b.
_PENTAGON_ORDER = {
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 1), (1, 3), (1, 4),
    (2, 2), (2, 4),
    (3, 3), (3, 4),
    (4, 4),
}


def _pentagon():
    size = 5
    leq = [[(i, j) in _PENTAGON_ORDER for j in range(size)] for i in range(size)]

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
    return FiniteLattice(elements=tuple(spans), meet_table=meets, join_table=joins)


def test_non_modular_lattice_detected():
    pentagon = _pentagon()
    assert not check_modular(pentagon).holds
    assert not check_distributive(pentagon).holds


def test_pentagon_reads_its_order_off_its_tables():
    # Built from its elements and two tables alone (and failing both laws,
    # above), the pentagon reads its order, bottom, top and ambient
    # dimension off them.
    pentagon = _pentagon()
    assert {(i, j) for i in range(5) for j in range(5) if pentagon.leq(i, j)} == _PENTAGON_ORDER
    assert (pentagon.bottom, pentagon.top, pentagon.ambient_dim) == (0, 4, 5)


@pytest.mark.parametrize("total", [0, 1, 120])
def test_law_report_holds_exactly_without_violations(total):
    assert LawReport("modular", total, ()).holds is (total == 0)


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
    # two atoms without the top generate their join, C^2; the top alone
    # generates the bottom too
    assert sublattice(full_lattice, [full_lattice.bottom, k, m]) == context
    assert context.spans() == ("{0}", "span{[1,-1]}", "span{[1,1]}", "C^2")
    assert sublattice(full_lattice, [full_lattice.top]) == close_and_build([], ambient_dim=2)
    assert sublattice(full_lattice, [full_lattice.top]).spans() == ("{0}", "C^2")


@pytest.mark.parametrize("indices,bad", [([0, 1, 2, 3, -1], -1), ([0, 3, 7], 7)])
def test_sublattice_rejects_out_of_range_indices(indices, bad):
    # -1 would otherwise index the last element, and 7 nothing at all
    axes = close_and_build([span([[1, 0]]), span([[0, 1]])])
    assert len(axes) == 4
    with pytest.raises(ValueError, match=f"^element index {bad} out of range$"):
        sublattice(axes, indices)


def _reference_close_and_build(seeds, max_elements=256):
    """The former route: pair every two members in every round until a
    round adds nothing, then take the order table from exact containment
    tests and read the meet and join tables off it."""
    seeds = list(seeds)
    n = seeds[0].ambient_dim
    members = {Subspace.zero(n), Subspace.full(n)} | set(seeds)
    while True:
        current = sorted(members, key=Subspace.sort_key)
        new = []
        for a, b in itertools.combinations(current, 2):
            for candidate in (sub.meet(a, b), sub.join(a, b)):
                if candidate not in members:
                    members.add(candidate)
                    new.append(candidate)
                    if len(members) > max_elements:
                        raise ClosureCapError(
                            f"meet/join closure exceeds the cap of {max_elements} elements"
                        )
        if not new:
            break
    elements = tuple(sorted(members, key=Subspace.sort_key))
    size = len(elements)
    order = tuple(
        tuple(sub.leq(elements[i], elements[j]) for j in range(size))
        for i in range(size)
    )
    meet_table = tuple(
        tuple(next(k for k in range(min(i, j), -1, -1) if order[k][i] and order[k][j])
              for j in range(size))
        for i in range(size)
    )
    join_table = tuple(
        tuple(next(k for k in range(max(i, j), size) if order[i][k] and order[j][k])
              for j in range(size))
        for i in range(size)
    )
    return elements, order, meet_table, join_table


def _tables(lat):
    return lat.elements, lat.order, lat.meet_table, lat.join_table


_UNITS = ("1", "-1", "i", "-i")


def _slopes(rng, k):
    """k distinct small Gaussian rationals."""
    out = set()
    while len(out) < k:
        out.add(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) / rng.randint(1, 2))
    return sorted(out, key=GaussianRational.sort_key)


def _householder_frame(rng, n):
    """The columns of I - 2 v v* / (v* v) for v with unit entries: n
    orthogonal lines of C^n, none of them a coordinate axis."""
    v = [GaussianRational(1)] + [as_scalar(rng.choice(_UNITS)) for _ in range(n - 1)]
    norm = sum((x * x.conjugate()).real for x in v)
    return [
        span([[int(i == j) - 2 * v[i] * v[j].conjugate() / norm for i in range(n)]])
        for j in range(n)
    ]


def _random_span(rng, n, dim):
    while True:
        s = span([[rng.randint(-2, 2) for _ in range(n)] for _ in range(dim)])
        if s.dim == dim:
            return s


def _closure_cases(rng):
    cases = {}
    for k in (3, 5, 8):
        cases[f"MO_{k}"] = [span([[1, z]]) for z in _slopes(rng, k - 1)] + [span([[0, 1]])]
    for n in (3, 4):
        cases[f"Boolean_2^{n}"] = _householder_frame(rng, n)
    cases["MO_2+MO_3"] = (
        [span([[1, z, 0, 0]]) for z in _slopes(rng, 2)]
        + [span([[0, 0, 1, z]]) for z in _slopes(rng, 3)]
    )
    cases["planes_C3"] = [_random_span(rng, 3, 2) for _ in range(3)]
    cases["hyperplanes_C4"] = [_random_span(rng, 4, 3) for _ in range(3)]
    return cases


def test_close_and_build_matches_round_reference(rng):
    cases = _closure_cases(rng)
    sizes = {}
    for label, seeds in cases.items():
        lat = close_and_build(seeds)
        assert _tables(lat) == _reference_close_and_build(seeds), label
        sizes[label] = len(lat)
    assert sizes["MO_3"] == 5 and sizes["MO_5"] == 7 and sizes["MO_8"] == 10
    assert sizes["Boolean_2^3"] == 8 and sizes["Boolean_2^4"] == 16
    assert sizes["MO_2+MO_3"] == 20


def test_close_and_build_matches_round_reference_on_unit_rays(rng, monkeypatch):
    # Rays with entries in {0, +-1, +-i} in C^3; both routes must agree on
    # the lattice, or both hit the cap.
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 24)
    closed = 0
    for _ in range(40):
        seeds = []
        while len(seeds) < rng.choice((3, 4)):
            ray = [rng.choice(("0",) + _UNITS) for _ in range(3)]
            if ray != ["0"] * 3:
                seeds.append(span([ray]))
        try:
            expected = _reference_close_and_build(seeds, max_elements=24)
        except ClosureCapError as exc:
            with pytest.raises(ClosureCapError, match=str(exc)):
                close_and_build(seeds)
            continue
        assert _tables(close_and_build(seeds)) == expected
        closed += 1
        if closed == 4:
            break
    assert closed == 4


def test_thirteen_unit_rays_of_c3_exceed_the_cap():
    # the {0, +-1} rays of C^3 up to sign; their closure does not terminate
    rays = [
        v for v in itertools.product((-1, 0, 1), repeat=3)
        if any(v) and v[next(i for i in range(3) if v[i])] == 1
    ]
    assert len(rays) == 13
    with pytest.raises(ClosureCapError) as caught:
        close_and_build([span([list(v)]) for v in rays])
    assert str(caught.value) == "meet/join closure exceeds the cap of 256 elements"


def test_close_and_build_operation_counts(monkeypatch):
    # Dimension settles every MO_k pair, and no pair of any lattice needs a
    # containment test; the counts would grow if per-pair algebra returned.
    counts = {"meet": 0, "join": 0, "leq": 0}

    def counting(name):
        original = getattr(sub, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    for name in counts:
        monkeypatch.setattr(sub, name, counting(name))
    mo_24 = close_and_build([span([[1, k]]) for k in range(23)] + [span([[0, 1]])])
    assert len(mo_24) == 26
    assert counts == {"meet": 0, "join": 0, "leq": 0}
    frame = close_and_build([span([[1, 0, 0]]), span([[0, 1, 0]]), span([[0, 0, 1]])])
    assert len(frame) == 8
    assert counts == {"meet": 3, "join": 12, "leq": 0}


# The bodies below are the earlier accessor-based scans, kept verbatim as
# references for the table-counting versions.


def _reference_atoms(lat):
    found = []
    for i in range(len(lat)):
        if i == lat.bottom:
            continue
        strictly_below = [
            z for z in range(len(lat)) if z != i and lat.leq(z, i) and z != lat.bottom
        ]
        if not strictly_below:
            found.append(i)
    return tuple(found)


def _reference_covers(lat):
    pairs = []
    for i in range(len(lat)):
        for j in range(len(lat)):
            if i == j or not lat.leq(i, j):
                continue
            between = any(
                z not in (i, j) and lat.leq(i, z) and lat.leq(z, j)
                for z in range(len(lat))
            )
            if not between:
                pairs.append((i, j))
    return tuple(pairs)


def _reference_collect(law, found, total):
    return LawReport(law, total, tuple(found))


def _reference_check_distributive(lat, *, limit=10):
    found = []
    total = 0
    size = len(lat)
    for a, b, c in itertools.product(range(size), repeat=3):
        lhs = lat.meet(lat.join(a, b), c)
        rhs = lat.join(lat.meet(a, c), lat.meet(b, c))
        if lhs != rhs:
            total += 1
            if len(found) < limit:
                found.append(LawViolation((a, b, c), lhs, rhs))
    return _reference_collect("distributive", found, total)


def _reference_check_modular(lat, *, limit=10):
    found = []
    total = 0
    size = len(lat)
    for a, b, c in itertools.product(range(size), repeat=3):
        if not lat.leq(a, c):
            continue
        lhs = lat.join(a, lat.meet(b, c))
        rhs = lat.meet(lat.join(a, b), c)
        if lhs != rhs:
            total += 1
            if len(found) < limit:
                found.append(LawViolation((a, b, c), lhs, rhs))
    return _reference_collect("modular", found, total)


def _reference_check_orthomodular(lat, complement=sub.orthocomplement, *, limit=10):
    comp = orthocomplement_indices(lat, complement)
    found = []
    total = 0
    size = len(lat)
    for a in range(size):
        for b in range(size):
            if not lat.leq(a, b):
                continue
            rebuilt = lat.join(a, lat.meet(comp[a], b))
            if rebuilt != b:
                total += 1
                if len(found) < limit:
                    found.append(LawViolation((a, b), rebuilt, b))
    return _reference_collect("orthomodular", found, total)


def _generated(lat, picks):
    """The index set that picks, the bottom and the top generate under the
    lattice's meet and join tables."""
    kept = {lat.bottom, lat.top, *picks}
    while True:
        more = {
            table[i][j] for table in (lat.meet_table, lat.join_table)
            for i in kept for j in kept
        }
        if more <= kept:
            return kept
        kept |= more


def test_sublattice_matches_exact_reclosure(rng):
    # The generated sublattice, read off the tables, equals closing the
    # picked elements again with exact algebra, and holds the index set
    # that _generated finds.
    whole = proper = 0
    for label, seeds in _closure_cases(rng).items():
        lat = close_and_build(seeds)
        for _ in range(25):
            picks = rng.sample(range(len(lat)), rng.randint(0, min(4, len(lat))))
            got = sublattice(lat, picks)
            expected = close_and_build(
                [lat.elements[i] for i in picks], ambient_dim=lat.ambient_dim
            )
            assert got == expected, (label, picks)
            assert set(got.elements) == {lat.elements[i] for i in _generated(lat, picks)}
            whole += got is lat
            proper += 2 < len(got) < len(lat)
    assert whole > 0 and proper > 0


def test_lattice_is_its_elements_and_two_tables(rng, monkeypatch):
    # Closed families, random unit-ray families of C^3 and generated
    # sublattices of each: the three fields rebuild an equal lattice, and the
    # order, bottom, top and ambient dimension are read off them.
    lattices = [close_and_build(seeds) for seeds in _closure_cases(rng).values()]
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 24)
    rays = 0
    for _ in range(60):
        seeds = [span([[rng.choice(("0",) + _UNITS) for _ in range(3)]])
                 for _ in range(rng.choice((3, 4)))]
        try:
            lattices.append(close_and_build(seeds))
        except ClosureCapError:
            continue
        rays += 1
        if rays == 4:
            break
    assert rays == 4
    for lat in list(lattices):
        for k in (0, 1, 2, 3):
            lattices.append(sublattice(lat, rng.sample(range(len(lat)), min(k, len(lat)))))
    for lat in lattices:
        size, n = len(lat), lat.ambient_dim
        rebuilt = FiniteLattice(lat.elements, lat.meet_table, lat.join_table)
        assert rebuilt == lat and hash(rebuilt) == hash(lat)
        assert (rebuilt.order, rebuilt.bottom, rebuilt.top) == (lat.order, lat.bottom, lat.top)
        assert lat.order == tuple(
            tuple(lat.meet_table[i][j] == i for j in range(size)) for i in range(size)
        )
        assert lat.bottom == 0 and lat.elements[0] == Subspace.zero(n)
        assert lat.top == size - 1 and lat.elements[-1] == Subspace.full(n)
        assert {s.ambient_dim for s in lat.elements} == {n}


def _outcome(check, lat, limit):
    try:
        return check(lat, limit=limit)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_table_counts_match_accessor_references(rng, full_lattice, diamond, two_chain):
    lattices = {"qubit": full_lattice, "diamond": diamond, "2-chain": two_chain}
    lattices["pentagon"] = _pentagon()
    for label, seeds in _closure_cases(rng).items():
        lat = lattices[label] = close_and_build(seeds)
        for k in (1, 2, 3):
            picks = rng.sample(range(len(lat)), min(k, len(lat)))
            lattices[f"{label}/sub{k}"] = sublattice(lat, _generated(lat, picks))
    checks = (
        (check_distributive, _reference_check_distributive),
        (check_modular, _reference_check_modular),
        (check_orthomodular, _reference_check_orthomodular),
    )
    raised = 0
    for label, lat in lattices.items():
        assert atoms(lat) == _reference_atoms(lat), label
        assert covers(lat) == _reference_covers(lat), label
        for check, reference in checks:
            for limit in (0, 1, 10, 10_000):
                got = _outcome(check, lat, limit)
                assert got == _outcome(reference, lat, limit), (label, check, limit)
                raised += isinstance(got, tuple)
    # the pentagon fails distributivity, and some cases have no orthocomplements
    assert not check_distributive(lattices["pentagon"]).holds
    assert raised > 0
