"""Seeded input families whose answers are known in closed form.

Every generator takes a `random.Random` and returns plain inputs plus the
facts lattice theory predicts for them, derived here from the family's
parameters and never from running the library:

* MO_k, the closure of k distinct lines in C^2: k+2 elements, modular,
  distributive only for k <= 2;
* Boolean 2^n, the closure of the n lines of an orthogonal frame of C^n:
  2^n elements, distributive and modular;
* MO_a (+) MO_b, lines inside the two coordinate blocks of C^2 (+) C^2:
  (a+2)(b+2) elements, modular, distributive only when a, b <= 2;
* full generator families (rank-one projectors onto e_1..e_{n-1} plus one
  all-nonzero ray) generate the full algebra M_n of dimension n^2;
* block families repeat that construction inside C^m (+) C^{n-m} and add
  the block projector; they generate M_m (+) M_{n-m}, of dimension
  m^2 + (n-m)^2, whose common invariant subspaces are exactly
  {0, C^m (+) 0, 0 (+) C^{n-m}, C^n}.

Valuation counts follow from Davey & Priestley (prime filters and
homomorphisms to 2): under `meet-hom` alone the 1-set is empty or a
principal filter (N+1 maps on N elements), dually for `join-hom`; the
lattice homomorphisms are the two constants plus one map per join-prime
element, and the bounded ones exclude the constants. With the complement
law and fixed bounds, each of the (N-2)/2 orthocomplement pairs picks
which member gets 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from sublat.exactlin import ExactMatrix, GaussianRational

FULL_HOM = ("bottom-to-zero", "join-hom", "meet-hom", "top-to-one")
COMPLEMENT = ("bottom-to-zero", "complement-law", "top-to-one")
LAW_SETS = (
    ("meet-hom",),
    ("join-hom",),
    ("join-hom", "meet-hom"),
    FULL_HOM,
    COMPLEMENT,
)

_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def gauss(re: int | Fraction, im: int | Fraction = 0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def random_factor(rng: random.Random) -> GaussianRational:
    """A nonzero Gaussian rational (a + bi)/c with small a, b, c."""
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return gauss(Fraction(a, rng.randint(1, 3)), Fraction(b, rng.randint(1, 3)))


def distinct_slopes(rng: random.Random, k: int, exclude=()) -> list[GaussianRational]:
    """k distinct slopes z = (a + bi)/c, so the lines span{(1, z)} differ."""
    taken = set(exclude)
    out: list[GaussianRational] = []
    while len(out) < k:
        z = gauss(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        if z not in taken:
            taken.add(z)
            out.append(z)
    return out


def scaled(rng: random.Random, vec: list[GaussianRational]) -> list[GaussianRational]:
    """The same line, spanned by a rescaled vector."""
    f = random_factor(rng)
    return [f * x for x in vec]


@dataclass(frozen=True)
class LatticeFamily:
    """Seed vectors for a closure, with the facts the closure must show."""

    label: str
    ambient_dim: int
    vectors: tuple[tuple[GaussianRational, ...], ...]
    elements: int
    atoms: int
    distributive: bool
    join_primes: int
    orthocomplemented: bool

    def valuation_count(self, laws: tuple[str, ...]) -> int:
        chosen = set(laws)
        if chosen == {"meet-hom"} or chosen == {"join-hom"}:
            return self.elements + 1
        if chosen == {"meet-hom", "join-hom"}:
            return self.join_primes + 2
        if chosen == set(FULL_HOM):
            return self.join_primes
        if chosen == set(COMPLEMENT):
            return 2 ** ((self.elements - 2) // 2)
        raise ValueError(f"no closed form for law set {sorted(chosen)}")

    def law_sets(self) -> tuple[tuple[str, ...], ...]:
        return tuple(s for s in LAW_SETS if s != COMPLEMENT or self.orthocomplemented)


def mo_lines(rng: random.Random, k: int) -> LatticeFamily:
    """MO_k from k distinct lines in C^2 (k >= 3)."""
    vectors = tuple(tuple(scaled(rng, [gauss(1), z])) for z in distinct_slopes(rng, k))
    return LatticeFamily(f"MO_{k}", 2, vectors, k + 2, k, k <= 2, 0, False)


def mo_orthopairs(rng: random.Random, pairs: int) -> LatticeFamily:
    """MO_2p from p lines and their orthocomplements, like the qubit lattice."""
    vectors = []
    taken: set[GaussianRational] = set()
    while len(vectors) < 2 * pairs:
        (z,) = distinct_slopes(rng, 1, exclude=taken)
        if not z:
            continue
        perp = -gauss(1) / z.conjugate()
        if perp in taken or perp == z:
            continue
        taken.update((z, perp))
        vectors.append(tuple(scaled(rng, [gauss(1), z])))
        vectors.append(tuple(scaled(rng, [gauss(1), perp])))
    k = 2 * pairs
    return LatticeFamily(f"MO_{k}-orthopairs", 2, tuple(vectors), k + 2, k, k <= 2, 0, True)


def householder(v: list[GaussianRational]) -> list[list[GaussianRational]]:
    """I - 2 v v* / (v* v): unitary over Q(i), so its columns are orthogonal."""
    n = len(v)
    norm = sum((x * x.conjugate()).real for x in v)
    return [
        [(gauss(1) if i == j else gauss(0)) - gauss(2) * v[i] * v[j].conjugate() / norm
         for j in range(n)]
        for i in range(n)
    ]


def boolean_frame(rng: random.Random, n: int) -> LatticeFamily:
    """Boolean 2^n from the n lines of a Householder frame of C^n.

    The reflecting vector has unit entries, so every frame's closure costs
    about the same.
    """
    h = householder(_all_nonzero_ray(rng, n))
    vectors = tuple(tuple(scaled(rng, [h[i][j] for i in range(n)])) for j in range(n))
    return LatticeFamily(f"Boolean_2^{n}", n, vectors, 2**n, n, True, n, True)


def mo_direct_sum(rng: random.Random, a: int, b: int) -> LatticeFamily:
    """MO_a (+) MO_b: lines in the blocks C^2 (+) 0 and 0 (+) C^2 of C^4."""
    zero = gauss(0)
    first = [scaled(rng, [gauss(1), z]) + [zero, zero] for z in distinct_slopes(rng, a)]
    second = [[zero, zero] + scaled(rng, [gauss(1), z]) for z in distinct_slopes(rng, b)]
    vectors = tuple(tuple(v) for v in first + second)
    join_primes = (2 if a == 2 else 0) + (2 if b == 2 else 0)
    return LatticeFamily(
        f"MO_{a}+MO_{b}", 4, vectors, (a + 2) * (b + 2), a + b, a <= 2 and b <= 2, join_primes,
        False,
    )


def _all_nonzero_ray(rng: random.Random, length: int) -> list[GaussianRational]:
    return [gauss(1)] + [gauss(*rng.choice(_UNITS)) for _ in range(length - 1)]


def ray_projector(v: list[GaussianRational]) -> ExactMatrix:
    norm = sum((x * x.conjugate()).real for x in v)
    return ExactMatrix.from_rows([[x * y.conjugate() / norm for y in v] for x in v])


def basis_ray(n: int, i: int) -> list[GaussianRational]:
    return [gauss(1) if k == i else gauss(0) for k in range(n)]


@dataclass(frozen=True)
class GeneratorFamily:
    """Hermitian generators with the algebra facts they must show."""

    label: str
    side: int
    generators: tuple[ExactMatrix, ...]
    algebra_dim: int
    irreducible: bool
    block: ExactMatrix | None

    def common_invariant_count(self) -> int:
        return 2 if self.irreducible else 4


def full_family(rng: random.Random, n: int) -> GeneratorFamily:
    """Projectors onto e_1..e_{n-1} and one all-nonzero ray: they generate M_n."""
    gens = [ray_projector(basis_ray(n, i)) for i in range(n - 1)]
    gens.append(ray_projector(_all_nonzero_ray(rng, n)))
    return GeneratorFamily(f"full_C^{n}", n, tuple(gens), n * n, True, None)


def block_family(rng: random.Random, n: int, m: int) -> GeneratorFamily:
    """The full construction inside C^m (+) C^{n-m}, plus the block projector."""
    zero = gauss(0)
    gens = [ray_projector(basis_ray(n, i)) for i in range(m - 1)]
    gens.append(ray_projector(_all_nonzero_ray(rng, m) + [zero] * (n - m)))
    gens += [ray_projector(basis_ray(n, i)) for i in range(m, n - 1)]
    gens.append(ray_projector([zero] * m + _all_nonzero_ray(rng, n - m)))
    block = ExactMatrix.from_rows(
        [[gauss(1) if i == j and i < m else zero for j in range(n)] for i in range(n)]
    )
    gens.append(block)
    return GeneratorFamily(
        f"block_C^{m}+C^{n - m}", n, tuple(gens), m * m + (n - m) ** 2, False, block
    )
