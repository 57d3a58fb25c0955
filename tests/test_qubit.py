import itertools

import pytest

from sublat.exactlin import ExactMatrix
from sublat.qubit import context, nontrivial_projectors, projector
from sublat.subspace import Subspace, image, span

M = ExactMatrix.from_rows

EXPECTED = {
    (0, 1): ExactMatrix.zeros(2, 2),
    (0, 2): ExactMatrix.identity(2),
    (1, 1): M([["1/2", "1/2"], ["1/2", "1/2"]]),
    (1, 2): M([["1/2", "-1/2"], ["-1/2", "1/2"]]),
    (2, 1): M([["1/2", "-1/2i"], ["1/2i", "1/2"]]),
    (2, 2): M([["1/2", "1/2i"], ["-1/2i", "1/2"]]),
    (3, 1): M([["1", "0"], ["0", "0"]]),
    (3, 2): M([["0", "0"], ["0", "1"]]),
}


@pytest.mark.parametrize("q,n", sorted(EXPECTED))
def test_projector_values(q, n):
    assert projector(q, n) == EXPECTED[(q, n)]


def test_projector_ids_validate():
    with pytest.raises(ValueError, match="^q must be in 0..3, got 4$"):
        projector(4, 1)
    with pytest.raises(ValueError, match="^n must be 1 or 2, got 3$"):
        projector(1, 3)


def test_all_projectors_hermitian_idempotent():
    for p in (projector(q, n) for q in range(4) for n in (1, 2)):
        assert p.is_hermitian()
        assert p.is_idempotent()


def test_projector_images():
    assert image(projector(1, 1)) == span([[1, 1]])
    assert image(projector(1, 2)) == span([[1, -1]])
    assert image(projector(2, 1)) == span([["1", "i"]])
    assert image(projector(2, 2)) == span([["i", "1"]])
    assert image(projector(3, 1)) == span([[1, 0]])
    assert image(projector(3, 2)) == span([[0, 1]])
    assert image(projector(0, 1)) == Subspace.zero(2)
    assert image(projector(0, 2)) == Subspace.full(2)


def test_nontrivial_images_are_six_distinct_lines():
    images = [image(p) for p in nontrivial_projectors()]
    assert len(set(images)) == 6
    assert all(s.dim == 1 for s in images)


def test_negation():
    # 1 - P swaps the two projectors of each (q, 1), (q, 2) pair
    identity = ExactMatrix.identity(2)
    for q in (0, 1, 2, 3):
        first, second = projector(q, 1), projector(q, 2)
        assert identity - first == second
        assert identity - second == first
        assert identity - (identity - first) == first


def test_contexts():
    for w in (1, 2, 3):
        first, second = context(w)
        assert first.is_projector() and second.is_projector()
        assert (first @ second).is_zero()
        assert (second @ first).is_zero()
        assert first + second == ExactMatrix.identity(2)
        assert first @ second == second @ first
    assert context(3) == (EXPECTED[(3, 1)], EXPECTED[(3, 2)])
    with pytest.raises(ValueError, match="^context label must be 1, 2 or 3, got 4$"):
        context(4)


def test_cross_context_projectors_do_not_commute():
    for w, v in itertools.combinations((1, 2, 3), 2):
        a = projector(w, 1)
        b = projector(v, 1)
        assert a @ b != b @ a
