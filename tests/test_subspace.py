import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from sublat.exactlin import (
    ExactMatrix,
    GaussianRational,
    format_scalar,
    hstack,
    kernel_basis,
    rank,
    rref,
)
from sublat.subspace import (
    StateVector,
    Subspace,
    contains_vector,
    image,
    join,
    leq,
    maps_into,
    meet,
    orthocomplement,
    projector_of,
    span,
    vector,
)
from sublat.filters import state_valuation
from sublat.lattice import close_and_build

M = ExactMatrix.from_rows

# The eight closed subspaces of C^2 generated by the projector family.
CATALOGUE = [
    Subspace.zero(2),
    span([[1, 1]]),
    span([[1, -1]]),
    span([["1", "i"]]),
    span([["i", "1"]]),
    span([[1, 0]]),
    span([[0, 1]]),
    Subspace.full(2),
]


def test_image_examples():
    assert image(ExactMatrix.zeros(2, 2)) == Subspace.zero(2)
    assert image(ExactMatrix.identity(2)) == Subspace.full(2)
    assert image(M([["1/2", "1/2"], ["1/2", "1/2"]])) == span([[1, 1]])


def test_canonical_equality():
    assert span([[2, 2]]) == span([[1, 1]])
    assert span([["i", "i"]]) == span([[1, 1]])
    assert span([["i", "1"]]) == span([["1", "-i"]])
    assert span([[1, 0], [0, 1]]) == Subspace.full(2)
    assert span([[1, 1], [2, 2]]) == span([[1, 1]])
    assert span([[1, 1]]) != span([[1, -1]])


def test_span_str():
    assert Subspace.zero(2).span_str() == "{0}"
    assert Subspace.full(2).span_str() == "C^2"
    assert span([[1, -1]]).span_str() == "span{[1,-1]}"
    assert span([["i", "1"]]).span_str() == "span{[1,-i]}"
    assert span([[1, 0, 0], [0, 1, 0]]).span_str() == "span{[1,0,0],[0,1,0]}"


def test_leq():
    assert leq(Subspace.zero(2), span([[1, 1]]))
    assert leq(span([[1, 1]]), Subspace.full(2))
    assert leq(span([[1, 1]]), span([[1, 1]]))
    assert not leq(span([[1, 1]]), span([[1, -1]]))
    assert not leq(Subspace.full(2), span([[1, 1]]))
    with pytest.raises(ValueError, match="ambient"):
        leq(Subspace.zero(2), Subspace.zero(3))


def test_meet_examples():
    assert meet(span([[1, 1]]), span([[1, -1]])) == Subspace.zero(2)
    assert meet(span([[1, 1]]), Subspace.full(2)) == span([[1, 1]])
    assert meet(span([[1, 1]]), span([[1, 1]])) == span([[1, 1]])
    assert meet(Subspace.zero(2), span([[1, 1]])) == Subspace.zero(2)
    planes = meet(
        span([[1, 0, 0], [0, 1, 0]]),
        span([[0, 1, 0], [0, 0, 1]]),
    )
    assert planes == span([[0, 1, 0]])


def test_orthocomplement_examples():
    assert orthocomplement(Subspace.zero(2)) == Subspace.full(2)
    assert orthocomplement(Subspace.full(2)) == Subspace.zero(2)
    assert orthocomplement(span([[1, 1]])) == span([[1, -1]])
    assert orthocomplement(span([["1", "i"]])) == span([["i", "1"]])
    assert orthocomplement(span([[1, 0]])) == span([[0, 1]])
    line_perp = orthocomplement(span([["1", "i", "0"]]))
    assert line_perp.dim == 2
    assert contains_vector(line_perp, vector(["i", "1", "0"]))
    assert contains_vector(line_perp, vector([0, 0, 1]))


def test_double_complement_is_identity():
    for s in CATALOGUE:
        assert orthocomplement(orthocomplement(s)) == s


def test_join_examples():
    assert join(span([[1, 1]]), span([[1, -1]])) == Subspace.full(2)
    assert join(span([[1, 1]]), Subspace.zero(2)) == span([[1, 1]])
    assert join(span([[1, 0]]), span([[0, 1]])) == Subspace.full(2)
    assert join(span([[1, 0, 0]]), span([[0, 1, 0]])) == span(
        [[1, 0, 0], [0, 1, 0]]
    )


def test_de_morgan_and_dimension_over_all_pairs():
    for s, t in itertools.product(CATALOGUE, repeat=2):
        assert orthocomplement(join(s, t)) == meet(orthocomplement(s), orthocomplement(t))
        assert orthocomplement(meet(s, t)) == join(orthocomplement(s), orthocomplement(t))
        assert meet(s, t).dim + join(s, t).dim == s.dim + t.dim
        assert leq(s, t) == (meet(s, t) == s)
        assert leq(s, t) == (join(s, t) == t)


def test_projector_of_examples():
    assert projector_of(span([[1, 1]])) == M([["1/2", "1/2"], ["1/2", "1/2"]])
    assert projector_of(span([["1", "i"]])) == M([["1/2", "-1/2i"], ["1/2i", "1/2"]])
    assert projector_of(Subspace.zero(2)) == ExactMatrix.zeros(2, 2)
    assert projector_of(Subspace.full(2)) == ExactMatrix.identity(2)


def test_projector_round_trip():
    for s in CATALOGUE:
        p = projector_of(s)
        assert p.is_projector()
        assert image(p) == s


def test_contains_vector():
    assert contains_vector(span([[1, 1]]), vector([2, 2]))
    assert not contains_vector(span([[1, 1]]), vector([1, -1]))
    assert contains_vector(Subspace.full(2), vector([1, 7]))
    assert not contains_vector(Subspace.zero(2), vector([1, 0]))
    with pytest.raises(ValueError, match="ambient"):
        contains_vector(Subspace.zero(2), vector([1, 0, 0]))


def test_state_vector_validation():
    with pytest.raises(ValueError, match="nonzero"):
        vector([0, 0])
    with pytest.raises(ValueError, match="single column"):
        StateVector(ExactMatrix.identity(2))
    assert vector([1, -1]).ambient_dim == 2
    assert str(vector([1, -1])) == "[1,-1]"


def test_maps_into():
    p = M([["1/2", "1/2"], ["1/2", "1/2"]])
    assert maps_into(p, span([[1, 1]]))
    assert maps_into(p, span([[1, -1]]))
    assert not maps_into(p, span([[1, 0]]))
    for s in CATALOGUE:
        assert maps_into(ExactMatrix.identity(2), s)
        assert maps_into(ExactMatrix.zeros(2, 2), s)
    with pytest.raises(ValueError, match="operator"):
        maps_into(ExactMatrix.zeros(3, 3), span([[1, 1]]))


def test_span_validation():
    with pytest.raises(ValueError, match="ambient_dim"):
        span([])
    assert span([], ambient_dim=2) == Subspace.zero(2)
    with pytest.raises(ValueError, match="ambient"):
        Subspace(3, ExactMatrix.identity(2))


@pytest.mark.parametrize("make, message", [
    (lambda: Subspace.zero(0), "ambient dimension must be at least 1"),
    (lambda: span([[1, 0]], ambient_dim=3), "vectors of length 2 do not live in C^3"),
    (lambda: StateVector(ExactMatrix(0, 1, ())), "a state vector needs at least one component"),
], ids=["zero-of-C^0", "span-outside-ambient", "empty-state-vector"])
def test_constructor_error_branches(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


_C2, _C3 = Subspace.full(2), Subspace.zero(3)


# Every caller of the one ambient check names its operands in its own order.
@pytest.mark.parametrize("call, dims", [
    (lambda: leq(_C2, _C3), "2 vs 3"),
    (lambda: meet(_C3, _C2), "3 vs 2"),
    (lambda: join(_C2, _C3), "2 vs 3"),
    (lambda: contains_vector(_C3, vector([1, 0])), "3 vs 2"),
    (lambda: close_and_build([_C2, _C3]), "2 vs 3"),
    (lambda: close_and_build([_C2], ambient_dim=3), "3 vs 2"),
    (lambda: state_valuation(ExactMatrix.identity(2), vector([1, 0, 0])), "2 vs 3"),
], ids=["leq", "meet", "join", "contains_vector", "close_and_build-seeds",
        "close_and_build-ambient_dim", "state_valuation"])
def test_ambient_mismatch_names_both_dimensions(call, dims):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"ambient dimensions differ: {dims}"


def test_span_rejects_vectors_of_unequal_length():
    # The first vector's length used to set the ambient space: the longer
    # vector was cut short, or a shorter one raised a bare IndexError.
    with pytest.raises(ValueError, match=r"unequal lengths \[1, 2\]"):
        span([[1], [1, 0]])
    with pytest.raises(ValueError, match=r"unequal lengths \[1, 2\]"):
        span([[1, 0], [1]])


def test_subspaces_are_immutable_and_copy_by_basis():
    s = span([["1", "i", "0"], [0, 1, "2/3"]])
    with pytest.raises(AttributeError, match="immutable"):
        s.ambient_dim = 4
    with pytest.raises(AttributeError, match="immutable"):
        del s.ambient_dim
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert twin == s and hash(twin) == hash(s) and twin.basis == s.basis


def test_sort_key_orders_catalogue():
    ordered = sorted(CATALOGUE, key=Subspace.sort_key)
    assert ordered[0] == Subspace.zero(2)
    assert ordered[-1] == Subspace.full(2)
    spans = [s.span_str() for s in ordered]
    assert spans == [
        "{0}",
        "span{[0,1]}",
        "span{[1,-1]}",
        "span{[1,-i]}",
        "span{[1,0]}",
        "span{[1,i]}",
        "span{[1,1]}",
        "C^2",
    ]


def _random_subspace(rng, n):
    vectors = [
        [GaussianRational(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
         for _ in range(n)]
        for _ in range(rng.randint(0, n))
    ]
    return span(vectors, ambient_dim=n)


@pytest.mark.parametrize("n, pairs", [(3, 40), (4, 25)])
def test_join_matches_orthocomplement_identity(rng, n, pairs):
    # join is the direct span; (s v t) = (s' ^ t')' must agree with it
    for _ in range(pairs):
        s, t = _random_subspace(rng, n), _random_subspace(rng, n)
        expected = orthocomplement(meet(orthocomplement(s), orthocomplement(t)))
        assert join(s, t) == expected


# The bodies below are the former ExactMatrix implementations of the
# subspace operations, kept as references for the Gaussian-integer rows.
# Each works on canonical basis matrices (one basis vector per column) and
# returns a canonical basis matrix or a verdict.


def _reference_column_canonical(m: ExactMatrix) -> ExactMatrix:
    reduced, _, r = rref(m.transpose())
    flat = tuple(reduced[j, i] for i in range(m.rows) for j in range(r))
    return ExactMatrix(m.rows, r, flat)


def _reference_leq(bs: ExactMatrix, bt: ExactMatrix) -> bool:
    if bs.cols == 0:
        return True
    return rank(hstack(bt, bs)) == bt.cols


def _reference_meet(bs: ExactMatrix, bt: ExactMatrix) -> ExactMatrix:
    coeffs = kernel_basis(hstack(bs, bt))
    x_part = coeffs.take_rows(range(bs.cols))
    return _reference_column_canonical(bs @ x_part)


def _reference_orthocomplement(bs: ExactMatrix) -> ExactMatrix:
    return _reference_column_canonical(kernel_basis(bs.conjugate_transpose()))


def _reference_join(bs: ExactMatrix, bt: ExactMatrix) -> ExactMatrix:
    return _reference_column_canonical(hstack(bs, bt))


def _reference_contains_vector(bs: ExactMatrix, psi: StateVector) -> bool:
    return rank(hstack(bs, psi.components)) == bs.cols


def _reference_maps_into(operator: ExactMatrix, bs: ExactMatrix) -> bool:
    return rank(hstack(bs, operator @ bs)) == bs.cols


def _reference_span_str(b: ExactMatrix) -> str:
    if b.cols == 0:
        return "{0}"
    if b.cols == b.rows:
        return f"C^{b.rows}"
    columns = []
    for j in range(b.cols):
        body = ",".join(format_scalar(b[i, j]) for i in range(b.rows))
        columns.append(f"[{body}]")
    return "span{" + ",".join(columns) + "}"


def _reference_sort_key(b: ExactMatrix):
    return (b.cols, tuple(e.sort_key() for e in b.entries))


def _small_scalar(rng):
    # Mostly Gaussian integers, some with a denominator, so pivots are
    # often non-real and rows need clearing.
    den = rng.choice((1, 1, 1, 2, 3))
    return GaussianRational(Fraction(rng.randint(-2, 2), den), Fraction(rng.randint(-2, 2), den))


def _generator(rng, n, kind):
    """A spanning matrix: of {0} for kind 0, of C^n for kind 1, else of 1
    to n+1 random columns, sometimes with one column a combination of two
    others."""
    if kind == 0:
        return ExactMatrix.zeros(n, rng.randint(0, 2))
    cols = rng.randint(1, n + 1)
    m = ExactMatrix(n, cols, tuple(_small_scalar(rng) for _ in range(n * cols)))
    if kind == 1:
        return hstack(m, ExactMatrix.identity(n) * GaussianRational(1, 1))
    if cols > 1 and rng.random() < 0.3:
        m = hstack(m, m.take_cols([0]) * _small_scalar(rng) + m.take_cols([1]))
    return m


def _random_column(rng, rows):
    return ExactMatrix.column([_small_scalar(rng) for _ in range(rows)])


def _assert_matches(got: Subspace, expected: ExactMatrix) -> None:
    n = expected.rows
    assert got.basis == expected, (got, expected)
    assert all(type(e) is GaussianRational for e in got.basis.entries)
    rebuilt = Subspace(n, expected)
    assert got == rebuilt
    assert hash(got) == hash(rebuilt)
    assert got.dim == expected.cols
    assert got.sort_key() == _reference_sort_key(expected)
    assert got.span_str() == _reference_span_str(expected)
    assert Subspace(n, got.basis) == got


@pytest.mark.parametrize("n, cases", [(1, 15), (2, 40), (3, 40), (4, 25)])
def test_operations_match_their_references(rng, n, cases):
    verdicts = {"leq": set(), "contains_vector": set(), "maps_into": set()}
    dims = set()
    for case in range(cases):
        gs, gt = _generator(rng, n, case % 10), _generator(rng, n, rng.randrange(10))
        s, t = image(gs), image(gt)
        bs, bt = _reference_column_canonical(gs), _reference_column_canonical(gt)
        dims.add(s.dim)
        _assert_matches(s, bs)
        _assert_matches(meet(s, t), _reference_meet(bs, bt))
        _assert_matches(join(s, t), _reference_join(bs, bt))
        _assert_matches(orthocomplement(s), _reference_orthocomplement(bs))

        joined, met = join(s, t), meet(s, t)
        for a, b in ((s, t), (t, s), (s, joined), (met, s), (joined, t)):
            got = leq(a, b)
            assert got == _reference_leq(a.basis, b.basis)
            verdicts["leq"].add(got)

        vectors = [_random_column(rng, n)]
        if bs.cols:
            vectors.append(bs @ _random_column(rng, bs.cols))
        for v in vectors:
            if not v.is_zero():
                got = contains_vector(s, StateVector(v))
                assert got == _reference_contains_vector(bs, StateVector(v))
                verdicts["contains_vector"].add(got)

        # An operator whose image lies in s maps s into s.
        random_op = ExactMatrix(n, n, tuple(_small_scalar(rng) for _ in range(n * n)))
        into_s = bs @ ExactMatrix(bs.cols, n, tuple(
            _small_scalar(rng) for _ in range(bs.cols * n)))
        for op in (projector_of(t), random_op, into_s):
            got = maps_into(op, s)
            assert got == _reference_maps_into(op, bs)
            verdicts["maps_into"].add(got)
    assert dims == set(range(n + 1))
    assert verdicts == {"leq": {True, False}, "contains_vector": {True, False},
                        # in C^1 every operator maps {0} and C^1 into themselves
                        "maps_into": {True, False} if n > 1 else {True}}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operations_leave_the_basis_unbuilt(rng, n):
    # Every operation reads the canonical rows; none builds the basis matrix.
    for case in range(20):
        s = image(_generator(rng, n, case % 10))
        t = image(_generator(rng, n, rng.randrange(10)))
        op = ExactMatrix(n, n, tuple(_small_scalar(rng) for _ in range(n * n)))
        results = [meet(s, t), join(s, t), orthocomplement(s)]
        leq(s, t)
        leq(t, s)
        contains_vector(s, vector([1] + [0] * (n - 1)))
        maps_into(op, s)
        maps_into(op, t)
        assert all(x._basis is None for x in (s, t, *results)), case


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equal_subspaces_reached_in_any_order_hash_equal(rng, n):
    for _ in range(20):
        s, t = _random_subspace(rng, n), _random_subspace(rng, n)
        for a, b in ((join(s, t), join(t, s)), (meet(s, t), meet(t, s))):
            assert a == b and hash(a) == hash(b)
            assert hash(a) == hash(Subspace(n, b.basis))
        count = rng.randint(1, n + 1)
        vectors = [[_small_scalar(rng) for _ in range(n)] for _ in range(count)]
        shuffled = rng.sample(vectors, len(vectors))
        assert span(vectors) == span(shuffled) and hash(span(vectors)) == hash(span(shuffled))
