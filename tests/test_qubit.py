import itertools

import pytest

from sublat.exactlin import ExactMatrix
from sublat.qubit import (
    ContextSet,
    ProjectorId,
    context,
    nontrivial_projectors,
    projector,
)
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
    assert projector(ProjectorId(q, n)) == EXPECTED[(q, n)]


def test_projector_ids_validate():
    with pytest.raises(ValueError, match="q"):
        ProjectorId(4, 1)
    with pytest.raises(ValueError, match="n"):
        ProjectorId(1, 3)
    assert len({ProjectorId(q, n) for q in range(4) for n in (1, 2)}) == 8
    assert str(ProjectorId(1, 2)) == "P(1,2)"


def test_all_projectors_hermitian_idempotent():
    for p in (projector(ProjectorId(q, n)) for q in range(4) for n in (1, 2)):
        assert p.is_hermitian()
        assert p.is_idempotent()


def test_projector_images():
    assert image(projector(ProjectorId(1, 1))) == span([[1, 1]])
    assert image(projector(ProjectorId(1, 2))) == span([[1, -1]])
    assert image(projector(ProjectorId(2, 1))) == span([["1", "i"]])
    assert image(projector(ProjectorId(2, 2))) == span([["i", "1"]])
    assert image(projector(ProjectorId(3, 1))) == span([[1, 0]])
    assert image(projector(ProjectorId(3, 2))) == span([[0, 1]])
    assert image(projector(ProjectorId(0, 1))) == Subspace.zero(2)
    assert image(projector(ProjectorId(0, 2))) == Subspace.full(2)


def test_nontrivial_images_are_six_distinct_lines():
    images = [image(p) for p in nontrivial_projectors()]
    assert len(set(images)) == 6
    assert all(s.dim == 1 for s in images)


def test_negation():
    # 1 - P swaps the two projectors of each (q, 1), (q, 2) pair
    identity = ExactMatrix.identity(2)
    for q in (0, 1, 2, 3):
        first, second = projector(ProjectorId(q, 1)), projector(ProjectorId(q, 2))
        assert identity - first == second
        assert identity - second == first
        assert identity - (identity - first) == first


def test_contexts():
    for w in (1, 2, 3):
        ctx = context(w)
        first, second = ctx.members
        assert (first @ second).is_zero()
        assert (second @ first).is_zero()
        assert first + second == ExactMatrix.identity(2)
        assert first @ second == second @ first
    assert context(3).members == (EXPECTED[(3, 1)], EXPECTED[(3, 2)])
    with pytest.raises(ValueError, match="context label"):
        context(4)


def test_context_set_validation():
    p = EXPECTED[(1, 1)]
    with pytest.raises(ValueError, match="orthogonal"):
        ContextSet((p, p))
    with pytest.raises(ValueError, match="projectors"):
        ContextSet((M([[0, 1], [0, 0]]), EXPECTED[(3, 2)]))
    # orthogonal projectors that sum to less than the identity
    with pytest.raises(ValueError, match="^context members must resolve the identity$"):
        ContextSet((projector(ProjectorId(1, 1)), ExactMatrix.zeros(2, 2)))


def test_cross_context_projectors_do_not_commute():
    for w, v in itertools.combinations((1, 2, 3), 2):
        a = projector(ProjectorId(w, 1))
        b = projector(ProjectorId(v, 1))
        assert a @ b != b @ a
