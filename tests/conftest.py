import functools
import random
from fractions import Fraction

import pytest

from sublat.exactlin import ExactMatrix, GaussianRational
from sublat.lattice import FiniteLattice
from sublat.subspace import Subspace, span

DEFAULT_SEED = 20250815


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized property tests",
    )


@pytest.fixture
def seed(request):
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed):
    return random.Random(seed)


@pytest.fixture
def random_scalar(rng):
    def make():
        return GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    return make


@pytest.fixture
def random_matrix(rng, random_scalar):
    def make(rows, cols):
        return ExactMatrix(
            rows, cols, tuple(random_scalar() for _ in range(rows * cols))
        )

    return make


@pytest.fixture
def reference_hstack():
    """Matrices side by side, built from their entries; all share a row count."""
    def hstack(*matrices):
        nrows = matrices[0].rows
        flat = [e for i in range(nrows) for m in matrices
                for e in m.entries[i * m.cols : (i + 1) * m.cols]]
        return ExactMatrix(nrows, sum(m.cols for m in matrices), tuple(flat))

    return hstack


@pytest.fixture
def frame_c4_rays():
    """The four orthogonal rays of tests/data/frame_c4.sublat; their closure
    has 16 elements and makes exact meets."""
    return [span([r]) for r in (
        [1, "i", 1, "i"], [1, "-i", 1, "-i"], [1, "i", -1, "-i"], [1, "-i", -1, "i"])]


# Subspace lattices are always modular, so a non-modular lattice needs
# hand-built tables: the pentagon, with bottom < a < c < top and
# bottom < b < top.
_PENTAGON_ORDER = {
    (0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 1), (1, 3), (1, 4),
    (2, 2), (2, 4),
    (3, 3), (3, 4),
    (4, 4),
}


@pytest.fixture
def pentagon():
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


@pytest.fixture
def set_family_lattice(rng):
    def make():
        """A random finite lattice: subsets of a small ground set, closed
        under intersection and holding the ground set, ordered by inclusion,
        so the meet is the intersection and the join the least member
        holding the union. Every finite lattice arises this way, so these
        tables reach laws that no subspace lattice breaks. The elements,
        rays of C^2, are labels only, listed in a random order (the bottom
        is not always 0)."""
        ground = range(rng.randint(4, 6))
        family = {frozenset(ground)} | {
            frozenset(rng.sample(ground, rng.randint(0, len(ground))))
            for _ in range(rng.randint(3, 9))
        }
        while not (more := {x & y for x in family for y in family}) <= family:
            family |= more
        members = rng.sample(sorted(family, key=sorted), len(family))
        index = {x: i for i, x in enumerate(members)}

        def least_above(x):
            return index[functools.reduce(frozenset.__and__, (z for z in members if x <= z))]

        meets = tuple(tuple(index[x & y] for y in members) for x in members)
        joins = tuple(tuple(least_above(x | y) for y in members) for x in members)
        labels = tuple(span([[1, k]]) for k in range(len(members)))
        return FiniteLattice(labels, meets, joins)

    return make
