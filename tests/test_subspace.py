import itertools
from fractions import Fraction

import pytest

from sublat.exactlin import ExactMatrix, GaussianRational
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
