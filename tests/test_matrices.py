import copy
import pickle
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from sublat import subspace as sub
from sublat.exactlin import (
    ONE,
    ExactMatrix,
    GaussianRational,
    RrefResult,
    ZERO,
    _insert_row,
    _lowest,
    _reduced_rows,
    hstack,
    invert,
    kernel_basis,
    rank,
    rref,
)

M = ExactMatrix.from_rows


def _reference_rref(m: ExactMatrix) -> RrefResult:
    """Gauss-Jordan in GaussianRational arithmetic, the former body of rref."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = next((i for i in range(r, m.rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        work[r] = [e * inv for e in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    flat = tuple(e for row in work for e in row)
    return RrefResult(ExactMatrix(m.rows, m.cols, flat), tuple(pivots), r)


def _reference_matmul(self: ExactMatrix, other: ExactMatrix) -> ExactMatrix:
    """The product in GaussianRational arithmetic, the former body of
    ExactMatrix.__matmul__ (self and other are the two factors)."""
    flat: list[GaussianRational] = []
    for i in range(self.rows):
        # Zero terms add nothing, so only the row's nonzero entries are
        # multiplied, and only by nonzero entries of the other factor.
        terms = [(j, a) for j, a in enumerate(self.row(i)) if a]
        for k in range(other.cols):
            acc = ZERO
            for j, a in terms:
                b = other.entries[j * other.cols + k]
                if b:
                    acc = acc + a * b
            flat.append(acc)
    return ExactMatrix(self.rows, other.cols, tuple(flat))


# The former ExactMatrix bodies, which kept a tuple of GaussianRationals
# and worked entry by entry in Fraction arithmetic.


def _reference_neg(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.rows, m.cols, tuple(-e for e in m.entries))


def _reference_add(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.rows, a.cols, tuple(x + y for x, y in zip(a.entries, b.entries)))


def _reference_sub(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.rows, a.cols, tuple(x - y for x, y in zip(a.entries, b.entries)))


def _reference_scale(m: ExactMatrix, z: GaussianRational) -> ExactMatrix:
    return ExactMatrix(m.rows, m.cols, tuple(e * z for e in m.entries))


def _reference_transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.cols, m.rows, tuple(
        m.entries[i * m.cols + j] for j in range(m.cols) for i in range(m.rows)))


def _reference_conjugate_transpose(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(m.cols, m.rows, tuple(
        m.entries[i * m.cols + j].conjugate() for j in range(m.cols) for i in range(m.rows)))


def _reference_take_rows(m: ExactMatrix, indices) -> ExactMatrix:
    flat = [e for i in indices for e in m.entries[i * m.cols : (i + 1) * m.cols]]
    return ExactMatrix(len(indices), m.cols, tuple(flat))


def _reference_take_cols(m: ExactMatrix, indices) -> ExactMatrix:
    flat = [m.entries[i * m.cols + j] for i in range(m.rows) for j in indices]
    return ExactMatrix(m.rows, len(indices), tuple(flat))


def _reference_hstack(*matrices: ExactMatrix) -> ExactMatrix:
    nrows = matrices[0].rows
    flat = [e for i in range(nrows) for m in matrices
            for e in m.entries[i * m.cols : (i + 1) * m.cols]]
    return ExactMatrix(nrows, sum(m.cols for m in matrices), tuple(flat))


def _reference_kernel_basis(m: ExactMatrix) -> ExactMatrix:
    reduced, pivots, _ = _reference_rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    flat: list[GaussianRational] = []
    for c in range(m.cols):
        for f in free:
            if c == f:
                flat.append(ONE)
            elif c in pivots:
                flat.append(-reduced.entries[pivots.index(c) * m.cols + f])
            else:
                flat.append(ZERO)
    return ExactMatrix(m.cols, len(free), tuple(flat))


def _reference_invert(m: ExactMatrix) -> ExactMatrix | None:
    """The inverse, or None for a singular matrix."""
    n = m.rows
    reduced, pivots, r = _reference_rref(_reference_hstack(m, ExactMatrix.identity(n)))
    if r < n or pivots != tuple(range(n)):
        return None
    return _reference_take_cols(reduced, range(n, 2 * n))


def _reference_is_hermitian(m: ExactMatrix) -> bool:
    return m.rows == m.cols and m.entries == _reference_conjugate_transpose(m).entries


def _reference_is_idempotent(m: ExactMatrix) -> bool:
    return m.rows == m.cols and _reference_matmul(m, m).entries == m.entries


def test_rref_examples():
    reduced, pivots, r = rref(M([[1, 1], [1, 1]]))
    assert reduced == M([[1, 1], [0, 0]])
    assert pivots == (0,)
    assert r == 1

    reduced, pivots, r = rref(ExactMatrix.identity(2))
    assert reduced == ExactMatrix.identity(2)
    assert pivots == (0, 1)
    assert r == 2

    reduced, pivots, r = rref(M([["1", "-i"], ["i", "1"]]))
    assert reduced == M([["1", "-i"], ["0", "0"]])
    assert pivots == (0,)
    assert r == 1

    reduced, pivots, r = rref(ExactMatrix.zeros(2, 3))
    assert reduced == ExactMatrix.zeros(2, 3)
    assert pivots == ()
    assert r == 0


def test_rref_pivot_normalization():
    # pivot scan is left to right, top to bottom; leading entries become 1
    reduced, pivots, r = rref(M([[0, 2], [3, 0]]))
    assert reduced == ExactMatrix.identity(2)
    assert pivots == (0, 1)
    assert r == 2

    reduced, pivots, r = rref(M([["2i", 0, 4]]))
    assert reduced == M([["1", "0", "-2i"]])
    assert pivots == (0,)


def _elimination_cases(rng, random_matrix):
    """Matrices up to 12x12, most with non-unit denominators and nonzero
    imaginary parts, so most residuals have non-real pivots before they
    are made canonical."""
    cases = [random_matrix(1, 1), ExactMatrix.zeros(1, 1)]
    # dense square, wide and tall
    cases += [random_matrix(n, n) for n in (2, 3, 4, 8, 12)]
    cases += [random_matrix(r, c) for r, c in ((2, 5), (3, 7), (4, 12), (6, 12))]
    cases += [random_matrix(r, c) for r, c in ((5, 2), (7, 3), (12, 4), (12, 6))]
    # dependent rows: each row a combination of the same r random rows
    for rows, cols, r in ((3, 3, 1), (5, 5, 2), (8, 8, 5), (12, 12, 7), (6, 10, 3), (10, 4, 2)):
        cases.append(random_matrix(rows, r) @ random_matrix(r, cols))
    # small Gaussian integers, whose pivots reach units and 1+i
    small = [GaussianRational(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]
    for rows, cols in ((2, 2), (3, 3), (4, 6), (6, 6)):
        cases += [M([[rng.choice(small) for _ in range(cols)] for _ in range(rows)])
                  for _ in range(10)]
    # all-zero columns, first and inside, and about half the entries zero
    for rows, cols in ((4, 4), (6, 9), (12, 12)):
        m = random_matrix(rows, cols)
        zero_cols = {0, rng.randrange(1, cols)}
        cases.append(ExactMatrix(rows, cols, tuple(
            ZERO if j in zero_cols or rng.random() < 0.5 else m[i, j]
            for i in range(rows) for j in range(cols)
        )))
    return cases


def test_rref_matches_reference(rng, random_matrix):
    for m in _elimination_cases(rng, random_matrix):
        got = rref(m)
        assert got == _reference_rref(m), str(m)
        assert (m @ kernel_basis(m)).is_zero()
        if m.is_square() and got.rank == m.rows:
            assert invert(m) @ m == ExactMatrix.identity(m.rows)
        elif m.is_square():
            with pytest.raises(ValueError, match="singular"):
                invert(m)


def _assert_canonical(rows, n):
    """Each row is primitive, has a positive integer at its pivot, the
    column it is keyed by and its first nonzero entry, and is 0 at every
    other row's pivot."""
    for c, row in rows.items():
        assert len(row) == n
        assert all(x == (0, 0) for x in row[:c])
        assert row[c][0] > 0 and row[c][1] == 0
        assert gcd(*chain.from_iterable(row)) == 1
        assert all(row[other] == (0, 0) for other in rows if other != c)


def _insertion_case(rng, random_scalar, n):
    """Vectors in C^n with non-real and fractional entries: independent
    ones, combinations of them with Gaussian-rational coefficients, zero
    vectors, and vectors with zero entries."""
    small = [GaussianRational(a, b) for a in (-1, 0, 1, Fraction(1, 2)) for b in (-1, 0, 1)]
    independent = [[random_scalar() for _ in range(n)] for _ in range(rng.randint(1, n))]
    vectors = list(independent)
    for _ in range(rng.randint(0, 3)):
        coefficients = [rng.choice(small) for _ in independent]
        vectors.append([sum((a * v[j] for a, v in zip(coefficients, independent)), ZERO)
                        for j in range(n)])
    if rng.random() < 0.3:
        vectors.append([ZERO] * n)
    if rng.random() < 0.5:
        gaps = {rng.randrange(n) for _ in range(n // 2)}
        vectors.append([ZERO if j in gaps else random_scalar() for j in range(n)])
    rng.shuffle(vectors)
    return vectors


def test_insert_row_keeps_canonical_rows_in_any_order(rng, random_scalar):
    for n in range(1, 17):
        vectors = _insertion_case(rng, random_scalar, n)
        scaled = [ExactMatrix(1, n, v).ints for v in vectors]
        rows = {}
        added = [_insert_row(rows, x) for x in scaled]
        _assert_canonical(rows, n)
        assert sum(added) == len(rows)
        for _ in range(3):
            assert _reduced_rows(rng.sample(scaled, len(scaled))) == rows
        # a combination of the rows is dependent and changes nothing
        combination = [(0, 0)] * n
        for row in rows.values():
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            combination = [(xr + a * yr - b * yi, xi + a * yi + b * yr)
                           for (xr, xi), (yr, yi) in zip(combination, row)]
        kept = dict(rows)
        assert not _insert_row(rows, combination)
        assert rows == kept
        m = ExactMatrix(len(vectors), n, tuple(chain.from_iterable(vectors)))
        assert rref(m) == _reference_rref(m), str(m)


def test_kernel_examples():
    k = kernel_basis(M([[1, 1], [0, 0]]))
    assert k.cols == 1
    assert (M([[1, 1], [0, 0]]) @ k).is_zero()
    # kernel spans [x, -x]; the reported generator has a -1 in the pivot slot
    assert k == M([[-1], [1]])

    assert kernel_basis(ExactMatrix.identity(3)).cols == 0
    z = kernel_basis(ExactMatrix.zeros(2, 2))
    assert z == ExactMatrix.identity(2)


def test_kernel_annihilates(random_matrix):
    for _ in range(50):
        m = random_matrix(3, 4)
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert rank(m) + k.cols == m.cols


def test_conjugate_transpose():
    hermitian = M([["0", "-i"], ["i", "0"]])
    assert hermitian.conjugate_transpose() == hermitian
    assert M([["i"]]).conjugate_transpose() == M([["-i"]])
    real = M([[1, 2], [3, 4]])
    assert real.conjugate_transpose() == real.transpose()


def test_rank_laws(random_matrix):
    for _ in range(60):
        a = random_matrix(3, 3)
        b = random_matrix(3, 3)
        assert rank(a) == rank(a.conjugate_transpose())
        assert rank(a @ b) <= min(rank(a), rank(b))
        reduced = rref(a).matrix
        assert rref(reduced).matrix == reduced
        assert a.conjugate_transpose().conjugate_transpose() == a


def test_invert():
    m = M([[1, 2], [3, 4]])
    assert m @ invert(m) == ExactMatrix.identity(2)
    assert invert(m) @ m == ExactMatrix.identity(2)
    c = M([["i", "0"], ["1", "1-i"]])
    assert c @ invert(c) == ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="singular"):
        invert(M([[1, 1], [1, 1]]))
    with pytest.raises(ValueError):
        invert(ExactMatrix.zeros(2, 3))


def test_invert_random(rng, random_matrix):
    produced = 0
    while produced < 20:
        m = random_matrix(3, 3)
        if rank(m) < 3:
            continue
        produced += 1
        assert m @ invert(m) == ExactMatrix.identity(3)


def test_projector_predicates():
    p = M([["1/2", "1/2"], ["1/2", "1/2"]])
    assert p.is_hermitian()
    assert p.is_idempotent()
    assert p.is_projector()
    assert not M([[0, 1], [0, 0]]).is_hermitian()
    assert not M([[2, 0], [0, 0]]).is_idempotent()


def test_shape_errors():
    with pytest.raises(ValueError, match="conformable"):
        ExactMatrix.zeros(2, 3) @ ExactMatrix.zeros(2, 3)
    with pytest.raises(ValueError, match="differ"):
        ExactMatrix.zeros(2, 3) + ExactMatrix.zeros(3, 2)
    with pytest.raises(ValueError, match="unequal"):
        M([[1, 2], [3]])
    with pytest.raises(ValueError, match="entries"):
        ExactMatrix(2, 2, (ZERO,))
    # the length is checked after coercion too
    for entries in ((1, 2, 3), [1, 2, 3], iter("123")):
        with pytest.raises(ValueError, match="expected 4 entries for a 2x2 matrix, got 3"):
            ExactMatrix(2, 2, entries)


def test_negative_dimensions_are_refused():
    with pytest.raises(ValueError) as err:
        ExactMatrix(-1, 0, ())
    assert str(err.value) == "matrix dimensions must be nonnegative"


def test_zero_width_edges():
    empty = ExactMatrix.zeros(2, 0)
    assert (empty @ ExactMatrix.zeros(0, 3)) == ExactMatrix.zeros(2, 3)
    assert rank(empty) == 0
    assert kernel_basis(empty) == ExactMatrix.zeros(0, 0)
    assert invert(ExactMatrix.zeros(0, 0)) == ExactMatrix.zeros(0, 0)
    assert hstack(empty, ExactMatrix.identity(2)) == ExactMatrix.identity(2)


def test_matrix_algebra(random_matrix):
    for _ in range(20):
        a = random_matrix(2, 3)
        b = random_matrix(3, 2)
        c = random_matrix(2, 2)
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).conjugate_transpose() == b.conjugate_transpose() @ a.conjugate_transpose()
        assert 2 * a == a + a
        assert GaussianRational(Fraction(0), Fraction(1)) * a != a or a.is_zero()


def test_hstack():
    a = M([[1], [2]])
    b = M([[3], [4]])
    assert hstack(a, b) == M([[1, 3], [2, 4]])
    with pytest.raises(ValueError, match="common row count"):
        hstack(a, ExactMatrix.zeros(3, 1))


def _sparse(rng, m: ExactMatrix) -> ExactMatrix:
    """m with about two thirds of its entries zeroed, and its first row
    and last column entirely zero."""
    return ExactMatrix(m.rows, m.cols, tuple(
        ZERO if i == 0 or j == m.cols - 1 or rng.random() < 2 / 3 else m[i, j]
        for i in range(m.rows) for j in range(m.cols)
    ))


def _product_cases(rng, random_matrix):
    """Factor pairs: 1x1, dense, rectangular, sparse, purely imaginary,
    small integer and zero-width shapes."""
    pairs = [(random_matrix(1, 1), random_matrix(1, 1))]
    pairs += [(random_matrix(n, n), random_matrix(n, n)) for n in (2, 3, 4, 8)]
    pairs += [(random_matrix(r, k), random_matrix(k, c))
              for r, k, c in ((2, 5, 3), (4, 1, 4), (1, 6, 1), (3, 2, 7), (6, 4, 2))]
    for r, k, c in ((3, 3, 3), (4, 6, 5), (8, 8, 8)):
        pairs.append((_sparse(rng, random_matrix(r, k)), _sparse(rng, random_matrix(k, c))))
        pairs.append((random_matrix(r, k), _sparse(rng, random_matrix(k, c))))
    for r, k, c in ((2, 2, 2), (3, 4, 2)):
        a, b = (ExactMatrix(x, y, tuple(
            GaussianRational(Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(x * y))) for x, y in ((r, k), (k, c)))
        pairs += [(a, b), (a, random_matrix(k, c))]
    for n in (2, 4):
        a, b = (M([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]) for _ in range(2))
        pairs.append((a, b))
    pairs += [(random_matrix(3, 0), random_matrix(0, 4)),
              (random_matrix(0, 3), random_matrix(3, 4)),
              (random_matrix(3, 4), random_matrix(4, 0)),
              (random_matrix(0, 0), random_matrix(0, 0))]
    return pairs


def test_matmul_matches_reference(rng, random_matrix):
    for a, b in _product_cases(rng, random_matrix):
        got = a @ b
        assert got == _reference_matmul(a, b), f"{a} @ {b}"
        assert (got.rows, got.cols) == (a.rows, b.cols)


def _assert_lowest(m: ExactMatrix) -> None:
    """m's parts and its positive denominator share no factor."""
    assert m.den > 0 and gcd(m.den, *chain.from_iterable(m.ints)) == 1, str(m)
    assert len(m.ints) == m.rows * m.cols


def _assert_same(got: ExactMatrix, want: ExactMatrix) -> None:
    assert got == want, f"{got} != {want}"
    assert got.entries == want.entries
    _assert_lowest(got)


def _hermitian_and_idempotent_cases(rng, random_matrix):
    """Projectors onto random spans, Hermitian matrices A + A^*, A^* A and
    scaled projectors, next to random and rescaled ones."""
    cases = []
    for n, k in ((1, 1), (2, 1), (3, 2), (4, 1), (4, 3)):
        p = sub.projector_of(sub.image(random_matrix(n, k)))
        a = random_matrix(n, n)
        cases += [p, p * 2, ExactMatrix.identity(n) - p, a + a.conjugate_transpose(),
                  a.conjugate_transpose() @ a, a, p @ a]
    return cases + [ExactMatrix.zeros(2, 2), random_matrix(2, 3), ExactMatrix.zeros(0, 0)]


def test_matrix_operations_match_references(rng, random_matrix, random_scalar):
    for m in _elimination_cases(rng, random_matrix) + [random_matrix(0, 3), random_matrix(3, 0)]:
        other = random_matrix(m.rows, m.cols)
        z = rng.choice([random_scalar(), ZERO, ONE, GaussianRational(Fraction(0), Fraction(1, 3))])
        rows = [rng.randrange(m.rows) for _ in range(rng.randint(0, 4))] if m.rows else []
        cols = [rng.randrange(m.cols) for _ in range(rng.randint(0, 4))] if m.cols else []
        _assert_same(-m, _reference_neg(m))
        _assert_same(m + other, _reference_add(m, other))
        _assert_same(m + -m, ExactMatrix.zeros(m.rows, m.cols))
        _assert_same(m - other, _reference_sub(m, other))
        _assert_same(m * z, _reference_scale(m, z))
        _assert_same(z * m, _reference_scale(m, z))
        _assert_same(m.transpose(), _reference_transpose(m))
        _assert_same(m.conjugate_transpose(), _reference_conjugate_transpose(m))
        _assert_same(m.take_rows(rows), _reference_take_rows(m, rows))
        _assert_same(m.take_cols(cols), _reference_take_cols(m, cols))
        _assert_same(hstack(m, other, m), _reference_hstack(m, other, m))
        _assert_same(kernel_basis(m), _reference_kernel_basis(m))
        _assert_same(rref(m).matrix, _reference_rref(m).matrix)
        if m.is_square():
            want = _reference_invert(m)
            if want is None:
                with pytest.raises(ValueError, match="singular"):
                    invert(m)
            else:
                _assert_same(invert(m), want)
    for m in _hermitian_and_idempotent_cases(rng, random_matrix):
        assert m.is_hermitian() == _reference_is_hermitian(m), str(m)
        assert m.is_idempotent() == _reference_is_idempotent(m), str(m)


def test_representation_is_unique_immutable_and_copies(rng, random_matrix, random_scalar):
    cases = _elimination_cases(rng, random_matrix)
    cases += [random_matrix(0, 2), ExactMatrix.identity(3), rref(cases[3]).matrix]
    for m in cases:
        _assert_lowest(m)
        # ints times a nonzero Gaussian integer g over den times g, through
        # the public gate, and ints times a positive k over den times k
        g = GaussianRational(rng.randint(-6, 6), rng.choice([-5, -1, 1, 2, 7]))
        rescaled = ExactMatrix(m.rows, m.cols, tuple(
            GaussianRational(re, im) * g / (m.den * g) for re, im in m.ints))
        k = rng.randint(2, 30)
        for same in (rescaled, _lowest(m.rows, m.cols, [(re * k, im * k) for re, im in m.ints],
                                       m.den * k)):
            assert same == m and hash(same) == hash(m)
            assert (same.ints, same.den) == (m.ints, m.den)
        assert ExactMatrix(m.rows, m.cols, m.entries) == m
        for copied in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
            assert copied == m and hash(copied) == hash(m)
            assert copied.entries == m.entries
        for name in ("rows", "cols", "ints", "den", "entries", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, None)
        with pytest.raises(AttributeError):
            del m.ints
    assert M([[1, 2]]) != M([[2, 4]]) and M([[1, 2]]) != M([[1], [2]])
    assert M([["1/2", "1/3"]]).den == 6 and M([["1/2", "1/3"]]).ints == ((3, 0), (2, 0))


def _assert_exact_entries(m: ExactMatrix) -> None:
    for e in m.entries:
        assert type(e) is GaussianRational, repr(e)
        assert type(e.real) is Fraction and type(e.imag) is Fraction, repr(e)


def test_internal_constructions_hold_exact_scalars(rng, random_matrix):
    # The constructor keeps a tuple of GaussianRationals as it is, so every
    # matrix the library builds must hold GaussianRationals over Fractions.
    for a, b in _product_cases(rng, random_matrix):
        _assert_exact_entries(a @ b)
    for n, j, k in ((2, 1, 1), (3, 2, 2), (3, 1, 2), (4, 3, 2), (4, 2, 3)):
        s, t = sub.image(random_matrix(n, j)), sub.image(random_matrix(n, k))
        for space in (sub.meet(s, t), sub.join(s, t), sub.orthocomplement(s)):
            assert type(space.basis.entries) is tuple
            _assert_exact_entries(space.basis)
    for m in _elimination_cases(rng, random_matrix)[:20]:
        reduced = rref(m).matrix
        results = [reduced, kernel_basis(m), m.transpose(), m.conjugate_transpose(),
                   m.take_rows(range(0, m.rows, 2)), m.take_cols(range(0, m.cols, 2)),
                   hstack(m, reduced), -m, m + m, m - reduced, m * 3,
                   GaussianRational(Fraction(0), Fraction(1, 2)) * m]
        if m.is_square() and rank(m) == m.rows:
            results.append(invert(m))
        for result in results:
            assert type(result.entries) is tuple
            _assert_exact_entries(result)


_HALF = Fraction(1, 2)
_EXPECTED_ROW = ExactMatrix(1, 3, (GaussianRational(Fraction(2)), GaussianRational(_HALF),
                                   GaussianRational(Fraction(0), Fraction(-1))))


@pytest.mark.parametrize("entries", [
    (2, _HALF, "-i"),
    ("2", "1/2", "-i"),
    (GaussianRational(2), _HALF, "-i"),
    [2, _HALF, "-i"],
    list(_EXPECTED_ROW.entries),
    (e for e in (2, _HALF, "-i")),
])
def test_constructor_coerces_every_exact_kind(entries):
    # ints, Fractions and scalar text, in a tuple, a list or a generator,
    # alone or next to GaussianRationals; a list of GaussianRationals too
    m = ExactMatrix(1, 3, entries)
    assert m == _EXPECTED_ROW
    assert type(m.entries) is tuple
    _assert_exact_entries(m)


@pytest.mark.parametrize("entry", [0.1, None, 1j])
def test_constructor_refuses_inexact_entries(entry):
    for entries in ((entry,), [entry], (ONE, entry)):
        with pytest.raises(TypeError, match="as an exact scalar"):
            ExactMatrix(1, len(entries), entries)
