import functools
import itertools
import tracemalloc

import pytest

from sublat import lattice
from sublat import subspace as sub
from sublat.exactlin import GaussianRational, as_scalar
from sublat.filters import MEET_HOM, search_bivaluations
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
    assert not lattice.is_atom(two_chain, -1)
    assert not lattice.is_atom(two_chain, len(two_chain))
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
    message = r"^orthocomplement span\{\[1,-1\]\} of span\{\[1,1\]\} is not a lattice element$"
    with pytest.raises(ValueError, match=message):
        orthocomplement_indices(lat)


def test_orthocomplement_indices(full_lattice):
    comp = orthocomplement_indices(full_lattice)
    assert comp == (7, 4, 6, 5, 1, 3, 2, 0)
    assert all(comp[comp[i]] == i for i in range(8))


def test_non_modular_lattice_detected(pentagon):
    assert not check_modular(pentagon).holds
    assert not check_distributive(pentagon).holds


def test_pentagon_reads_its_order_off_its_tables(pentagon):
    # Built from its elements and two tables alone (and failing both laws,
    # above), the pentagon reads its order, bottom, top and ambient
    # dimension off them.
    strict = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)}
    assert {(i, j) for i in range(5) for j in range(5) if pentagon.leq(i, j)} == (
        strict | {(i, i) for i in range(5)})
    assert (pentagon.bottom, pentagon.top, pentagon.ambient_dim) == (0, 4, 5)


@pytest.mark.parametrize("total", [0, 1, 120])
def test_law_report_holds_exactly_without_violations(total):
    assert LawReport(total, ()).holds is (total == 0)


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


def test_close_and_build_operation_counts(monkeypatch, frame_c4_rays):
    # Dimension settles every MO_k pair, and no pair of any lattice needs a
    # containment test. On the frames, associativity and the modular law
    # leave no exact meet and few exact joins, all of lines and planes: 4 of
    # the 2^3 frame's 28 pairs and 13 of the C^4 frame's 120. The counts
    # would grow if per-pair algebra returned.
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
    # Each exact meet is (s' v t')', so it makes one join of its own.
    frame = close_and_build([span([[1, 0, 0]]), span([[0, 1, 0]]), span([[0, 0, 1]])])
    assert len(frame) == 8
    assert counts == {"meet": 0, "join": 4, "leq": 0}
    counts.update(meet=0, join=0)
    frame = close_and_build(frame_c4_rays)
    assert len(frame) == 16
    assert counts == {"meet": 0, "join": 13, "leq": 0}


def test_closure_of_253_lines_stays_under_5_mb():
    # A closure at the cap's size holds its two discovery-order tables and
    # the returned lattice: about 2.9 MB traced on CPython 3.11. Pair results
    # kept in dicts beside the tables would take it past 7 MB.
    seeds = [span([[1, k]]) for k in range(253)]
    tracemalloc.start()
    try:
        lat = close_and_build(seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat) == 255
    assert peak < 5_000_000


def _reference_settle(s, t, zero, full):
    """Meet and join of distinct s and t by dimension, else by exact algebra:
    the join is t when s is the bottom or t the top, the full space when
    both are hyperplanes, and exact join otherwise; Grassmann's formula then
    gives the meet's dimension."""
    if s.dim > t.dim:
        s, t = t, s
    n = full.dim
    j = t if s.dim == 0 or t.dim == n else full if s.dim == t.dim == n - 1 else sub.join(s, t)
    d = s.dim + t.dim - j.dim
    return (zero if d == 0 else s if d == s.dim else sub.meet(s, t)), j


def _reference_discovery(seeds, n):
    """The worklist closure with no lattice identities: each element is paired
    once with every element found before it, and every pair that dimension
    leaves open takes exact algebra. Returns the elements in discovery order
    and the meet and join tables over discovery indices."""
    zero, full = Subspace.zero(n), Subspace.full(n)
    found = list(dict.fromkeys([zero, full, *seeds]))
    index = {s: k for k, s in enumerate(found)}

    def locate(x):
        if x not in index:
            index[x] = len(found)
            found.append(x)
            if len(found) > lattice.MAX_ELEMENTS:
                raise ClosureCapError(
                    f"meet/join closure exceeds the cap of {lattice.MAX_ELEMENTS} elements"
                )
        return index[x]

    pairs = []
    for k, t in enumerate(found):
        pairs.append([tuple(map(locate, _reference_settle(s, t, zero, full)))
                      for s in found[:k]])
    size = len(found)
    meets = [[k] * size for k in range(size)]
    joins = [[k] * size for k in range(size)]
    for k, row in enumerate(pairs):
        for i, (m, j) in enumerate(row):
            meets[k][i] = meets[i][k] = m
            joins[k][i] = joins[i][k] = j
    return found, meets, joins


def _discovery(monkeypatch, seeds, n):
    """close_and_build's elements and tables in discovery order, as it hands
    them to _relabelled, and the lattice it returns."""
    seen = []
    relabelled = lattice._relabelled

    def capture(elements, meets, joins, kept):
        seen.append((list(elements), [list(row) for row in meets], [list(row) for row in joins]))
        return relabelled(elements, meets, joins, kept)

    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_relabelled", capture)
        lat = close_and_build(seeds, ambient_dim=n)
    (discovered,) = seen
    return discovered, lat


def test_closure_by_laws_matches_exact_closure(rng, monkeypatch):
    # Associativity and the modular law only name elements already found, so
    # the closure finds the same elements in the same order, with the same
    # tables, as the closure that takes exact algebra on every open pair.
    cases = _closure_cases(rng)
    cases["Boolean_2^5"] = _householder_frame(rng, 5)
    cases["Boolean_2^6"] = _householder_frame(rng, 6)
    cases["MO_3+MO_4"] = (
        [span([[1, z, 0, 0]]) for z in _slopes(rng, 3)]
        + [span([[0, 0, 1, z]]) for z in _slopes(rng, 4)]
    )
    sizes = {}
    for label, seeds in cases.items():
        n = seeds[0].ambient_dim
        discovered, lat = _discovery(monkeypatch, seeds, n)
        assert discovered == _reference_discovery(seeds, n), label
        sizes[label] = len(lat)
    assert (sizes["Boolean_2^5"], sizes["Boolean_2^6"], sizes["MO_3+MO_4"]) == (32, 64, 30)


def _random_unit_span(rng, n, dim):
    """A dim-dimensional span of vectors with entries in {0, +-1, +-i}."""
    while True:
        s = span([[rng.choice(("0",) + _UNITS) for _ in range(n)] for _ in range(dim)])
        if s.dim == dim:
            return s


def test_closure_by_laws_matches_exact_closure_on_random_families(rng, monkeypatch):
    # 1-4 random rays and higher-dimensional spans of C^2-C^4: the same
    # discovery order and tables as the exact closure, or the same cap error.
    # Every other list also holds some of {0}, C^n and a repeated seed at
    # random positions: the pair loop reads index 0 as the bottom and index 1
    # as the top, and the lattice is that of the seeds without them.
    monkeypatch.setattr(lattice, "MAX_ELEMENTS", 40)
    closed, capped, spans, large, padded = 0, 0, 0, 0, 0
    for trial in range(100):
        n = rng.choice((2, 3, 4, 4))
        plain = [_random_unit_span(rng, n, rng.randint(1, n - 1))
                 for _ in range(rng.randint(1, 4))]
        spans += any(s.dim > 1 for s in plain)
        seeds = list(plain)
        extras = [Subspace.zero(n), Subspace.full(n), rng.choice(plain)]
        for x in rng.sample(extras, rng.randint(1, 3)) if trial % 2 else ():
            seeds.insert(rng.randint(0, len(seeds)), x)
        try:
            expected = _reference_discovery(seeds, n)
        except ClosureCapError as exc:
            with pytest.raises(ClosureCapError, match=f"^{exc}$"):
                close_and_build(seeds)
            capped += 1
            continue
        discovered, lat = _discovery(monkeypatch, seeds, n)
        assert discovered == expected, seeds
        assert discovered[0][:2] == extras[:2], seeds
        closed += 1
        large += len(expected[0]) >= 12
        if seeds != plain:
            assert lat == close_and_build(plain), seeds
            padded += 1
    assert closed >= 50 and capped > 0 and spans > 0 and large >= 3 and padded >= 25


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


def _reference_collect(found, total):
    return LawReport(total, tuple(found))


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
    return _reference_collect(found, total)


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
    return _reference_collect(found, total)


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
    return _reference_collect(found, total)


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


def test_lattice_is_its_elements_and_two_tables(rng, monkeypatch, pentagon):
    # Closed families, random unit-ray families of C^3, generated sublattices
    # of each and the pentagon: the three fields rebuild an equal lattice, and
    # the order, bottom, top and ambient dimension are read off them. The
    # order rows are 0/1 ints, so with the zero map they are the meet-hom
    # valuations as they stand, and leq still answers a bool.
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
    for lat in [*lattices, pentagon]:
        size = len(lat)
        assert all(type(b) is int and b in (0, 1) for row in lat.order for b in row)
        assert all(type(lat.leq(i, j)) is bool for i in range(size) for j in range(size))
        assert search_bivaluations(lat, {MEET_HOM}) == tuple(sorted([(0,) * size, *lat.order]))
    for lat in lattices:
        size, n = len(lat), lat.ambient_dim
        rebuilt = FiniteLattice(lat.elements, lat.meet_table, lat.join_table)
        assert rebuilt == lat and hash(rebuilt) == hash(lat)
        assert (rebuilt.order, rebuilt.bottom, rebuilt.top) == (lat.order, lat.bottom, lat.top)
        assert lat.order == tuple(
            tuple(int(lat.meet_table[i][j] == i) for j in range(size)) for i in range(size)
        )
        assert lat.bottom == 0 and lat.elements[0] == Subspace.zero(n)
        assert lat.top == size - 1 and lat.elements[-1] == Subspace.full(n)
        assert {s.ambient_dim for s in lat.elements} == {n}


def _outcome(check, lat, limit):
    try:
        return check(lat, limit=limit)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_table_counts_match_accessor_references(rng, full_lattice, diamond, two_chain, pentagon):
    lattices = {"qubit": full_lattice, "diamond": diamond, "2-chain": two_chain}
    lattices["pentagon"] = pentagon
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


def test_law_scans_match_references_on_set_family_lattices(rng, set_family_lattice):
    # Each check equals its per-triple reference at every limit; the
    # orthomodular scan takes a random map as the complement.
    verdicts = set()
    for _ in range(30):
        lat = set_family_lattice()
        size = len(lat)
        picks = [rng.randrange(size) for _ in range(size)]

        def complement(s, picks=picks, lat=lat):
            return lat.elements[picks[lat.index_of(s)]]

        checks = (
            (check_distributive, _reference_check_distributive),
            (check_modular, _reference_check_modular),
            (functools.partial(check_orthomodular, complement=complement),
             functools.partial(_reference_check_orthomodular, complement=complement)),
        )
        for check, reference in checks:
            for limit in (0, 1, 10, 10_000):
                got = _outcome(check, lat, limit)
                assert got == _outcome(reference, lat, limit), (lat, check, limit)
        verdicts.add((check_modular(lat).holds, check_distributive(lat).holds))
    # both non-modular and distributive lattices come up
    assert {(False, False), (True, True)} <= verdicts


def test_mo_k_law_totals_in_closed_form():
    # In MO_k each ordered triple of distinct atoms breaks distributivity, and
    # nothing breaks modularity.
    for k in range(3, 41):
        lat = close_and_build([span([[1, j]]) for j in range(k)])
        assert len(lat) == k + 2
        assert check_distributive(lat, limit=0).total_violations == k * (k - 1) * (k - 2)
        assert check_modular(lat).holds
