import random
from fractions import Fraction

import pytest

from sublat.exactlin import ExactMatrix, GaussianRational
from sublat.subspace import span

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
def frame_c4_rays():
    """The four orthogonal rays of tests/data/frame_c4.sublat; their closure
    has 16 elements and makes exact meets."""
    return [span([r]) for r in (
        [1, "i", 1, "i"], [1, "-i", 1, "-i"], [1, "i", -1, "-i"], [1, "-i", -1, "i"])]
