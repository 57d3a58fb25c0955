"""End-to-end acceptance checks, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Every
comparison here is exact: equality of canonical objects, never a
numeric tolerance. Expected values are re-derived inside each check
from routes independent of the code under test wherever possible
(hand-built spans, brute-force enumeration, subprocess runs).
"""

import itertools
import subprocess
import sys
from contextlib import contextmanager

from sublat.exactlin import rank
from sublat.filters import (
    FULL_HOMOMORPHISM_LAWS,
    INDETERMINATE,
    NOT_APPLICABLE,
    coatom_complement_filter,
    homomorphism_from_filter,
    ideal_complement,
    is_downward_directed,
    is_prime_paper,
    is_prime_standard,
    is_upward_closed,
    search_bivaluations,
    state_valuation,
)
from sublat.invariant import (
    algebra_span,
    common_invariant_sublattice,
    is_irreducible,
)
from sublat.lattice import atoms, check_distributive, close_and_build
from sublat.qubit import context, nontrivial_projectors, projector
from sublat.subspace import (
    Subspace,
    image,
    join,
    meet,
    orthocomplement,
    span,
    vector,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def _full_lattice():
    return close_and_build([image(p) for p in nontrivial_projectors()])


def _context_lattice(q):
    return close_and_build([image(p) for p in context(q)])


def test_criterion_1_projector_image_closure():
    with criterion(1, "projector image closure"):
        lat = _full_lattice()
        expected = {
            Subspace.zero(2),
            span([["0", "1"]]),
            span([["1", "-1"]]),
            span([["i", "1"]]),
            span([["1", "0"]]),
            span([["1", "i"]]),
            span([["1", "1"]]),
            Subspace.full(2),
        }
        assert set(lat.elements) == expected
        assert len(lat) == 8
        assert lat.elements[lat.bottom].dim == 0
        assert lat.elements[lat.top].dim == 2


def test_criterion_2_context_sublattices():
    with criterion(2, "context sublattices"):
        expected = {
            1: {span([["1", "1"]]), span([["1", "-1"]])},
            2: {span([["1", "i"]]), span([["i", "1"]])},
            3: {span([["1", "0"]]), span([["0", "1"]])},
        }
        for q in (1, 2, 3):
            lat = _context_lattice(q)
            assert len(lat) == 4
            mids = {s for s in lat.elements if s.dim == 1}
            assert mids == expected[q]
        lat2 = _context_lattice(2)
        assert span([["1", "i"]]) in lat2
        assert span([["i", "1"]]) in lat2
        # Inside the full lattice, each context's common invariant
        # sublattice is its own closure.
        full = _full_lattice()
        for q in (1, 2, 3):
            inside = common_invariant_sublattice(context(q), full)
            assert set(inside.elements) == set(_context_lattice(q).elements)


def test_criterion_3_full_family_irreducibility():
    with criterion(3, "full family irreducibility"):
        sigma = [projector(q, n) for q in (1, 2, 3) for n in (1, 2)]
        assert algebra_span(sigma).dim == 4
        assert is_irreducible(sigma)
        common = common_invariant_sublattice(sigma, _full_lattice())
        assert [s.span_str() for s in common.elements] == ["{0}", "C^2"]
        single = [projector(1, 1), projector(1, 2)]
        assert algebra_span(single).dim == 2
        assert not is_irreducible(single)


def test_criterion_4_distributivity_failure():
    with criterion(4, "distributivity failure"):
        lat = _full_lattice()
        k = lat.index_of(span([["1", "1"]]))
        m = lat.index_of(span([["1", "-1"]]))
        o = lat.index_of(span([["1", "0"]]))
        lhs = lat.meet(lat.join(k, m), o)
        rhs = lat.join(lat.meet(k, o), lat.meet(m, o))
        assert lat.elements[lhs] == span([["1", "0"]])
        assert lat.elements[rhs] == Subspace.zero(2)
        assert lhs != rhs

        report = check_distributive(lat, limit=10_000)
        assert not report.holds
        assert (k, m, o) in {v.elements for v in report.violations}

        for q in (1, 2, 3):
            assert check_distributive(_context_lattice(q)).holds


def test_criterion_5_deleted_atom_filter_battery():
    with criterion(5, "deleted-atom filter battery"):
        lat = _full_lattice()
        for w in atoms(lat):
            filt = coatom_complement_filter(lat, w)
            assert len(filt.members) == len(lat) - 1
            assert is_downward_directed(filt)
            closed, witness = is_upward_closed(filt)
            assert not closed
            assert witness == (lat.bottom, w)
            assert is_prime_paper(filt)
            assert is_prime_standard(filt) is NOT_APPLICABLE
            assert ideal_complement(filt).members == frozenset({w})
            val = homomorphism_from_filter(lat, filt, "paper")
            assert val.ones() == (w,)
            assert val.assignment[lat.top] == 0


def test_criterion_6_two_valued_homomorphism_counts():
    with criterion(6, "two-valued homomorphism counts"):
        laws = FULL_HOMOMORPHISM_LAWS

        def brute_force(lat):
            size = len(lat)
            found = []
            for bits in itertools.product((0, 1), repeat=size):
                if bits[lat.bottom] != 0 or bits[lat.top] != 1:
                    continue
                ok = all(
                    bits[lat.meet(x, y)] == min(bits[x], bits[y])
                    and bits[lat.join(x, y)] == max(bits[x], bits[y])
                    for x, y in itertools.product(range(size), repeat=2)
                )
                if ok:
                    found.append(bits)
            return sorted(found)

        full = _full_lattice()
        assert brute_force(full) == []
        assert search_bivaluations(full, laws) == ()

        for q in (1, 2, 3):
            lat = _context_lattice(q)
            naive = brute_force(lat)
            assert len(naive) == 2
            assert list(search_bivaluations(lat, laws)) == naive


def test_criterion_7_state_valuation_trichotomy():
    with criterion(7, "state valuation trichotomy"):
        p = projector(1, 1)
        assert state_valuation(p, vector(["1", "1"])) == 1
        assert state_valuation(p, vector(["1", "-1"])) == 0
        assert state_valuation(p, vector(["1", "0"])) is INDETERMINATE


def test_criterion_8_exact_arithmetic_property_suites(rng, random_scalar, random_matrix):
    with criterion(8, "exact arithmetic property suites"):
        from sublat.exactlin import format_scalar, parse_scalar

        for _ in range(1000):
            z = random_scalar()
            assert parse_scalar(format_scalar(z)) == z

        for _ in range(40):
            a = random_matrix(3, 4)
            r = rank(a)
            assert r == rank(a.transpose()) == rank(a.conjugate_transpose())
            assert 0 <= r <= 3

        lat = _full_lattice()
        subs = lat.elements
        for s, t in itertools.product(subs, repeat=2):
            assert orthocomplement(join(s, t)) == meet(
                orthocomplement(s), orthocomplement(t)
            )
            assert s.dim + t.dim == meet(s, t).dim + join(s, t).dim

        size = len(lat)
        for x, y in itertools.product(range(size), repeat=2):
            assert lat.meet(x, lat.join(x, y)) == x
            assert lat.join(x, lat.meet(x, y)) == x
        for x, y, z in itertools.product(range(size), repeat=3):
            assert lat.meet(lat.meet(x, y), z) == lat.meet(x, lat.meet(y, z))
            assert lat.join(lat.join(x, y), z) == lat.join(x, lat.join(y, z))

        for q in (0, 1, 2, 3):
            for n in (1, 2):
                p = projector(q, n)
                assert p.is_hermitian() and p.is_idempotent()


def test_criterion_9_cli_demo_determinism():
    with criterion(9, "CLI demo determinism"):
        command = [
            sys.executable, "-m", "sublat", "demo-qubit", "--format", "records",
        ]
        first = subprocess.run(command, capture_output=True, timeout=120)
        second = subprocess.run(command, capture_output=True, timeout=120)
        assert first.returncode == 0
        assert second.returncode == 0
        assert first.stdout
        assert first.stdout == second.stdout
