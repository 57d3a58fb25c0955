"""Exact arithmetic over the Gaussian rationals.

Scalars are complex numbers whose real and imaginary parts are rationals
in lowest terms, backed by fractions.Fraction; they are the entries of
every matrix that crosses this module's boundary. Matrices are immutable
and row-major. Everything downstream rests on the four exact algorithms
here: reduced row echelon form, kernel bases, conjugate transposition,
and inversion, with kernels and inverses read off the reduced form.

Elimination runs over the Gaussian integers Z[i], in one loop,
_gauss_jordan, which rref and the subspace layer share. It works on rows
of (re, im) int pairs; rref scales each row to Gaussian integers by the
lcm of its denominators first. Each pivot step is a fraction-free step
of Bareiss (Math. Comp. 22, 1968) that divides exactly by the previous
pivot, so every intermediate entry is a minor of the scaled matrix.
rref forms Fractions only when the reduced rows are divided by their
pivots at the end; the subspace layer keeps the reduced rows as Gaussian
integers. The pivot is the first nonzero entry scanning columns left to
right and rows top to bottom, as in elimination over Q(i): every
fraction-free row is a nonzero multiple of the row that elimination over
Q(i) holds at the same step, so the pivots, and hence the reduced form,
are the same. No floating point is used anywhere.

Products run over Z[i] too: each factor is scaled once to Gaussian
integers, the integer product is taken term by term, and Fractions are
formed once per result entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence, Union

__all__ = [
    "GaussianRational",
    "ExactMatrix",
    "RrefResult",
    "ScalarParseError",
    "ZERO",
    "ONE",
    "I_UNIT",
    "as_scalar",
    "parse_scalar",
    "format_scalar",
    "rref",
    "rank",
    "kernel_basis",
    "invert",
    "hstack",
]

ScalarLike = Union["GaussianRational", Fraction, int, str]


class ScalarParseError(ValueError):
    """Malformed scalar text. `position` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    real: Fraction
    imag: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        # A part that is exactly a Fraction is in lowest terms with a positive
        # denominator already; ints and other Fractions are converted, and
        # anything else is refused, as _coerce refuses it.
        if type(self.real) is not Fraction:
            object.__setattr__(self, "real", _exact_part(self.real))
        if type(self.imag) is not Fraction:
            object.__setattr__(self, "imag", _exact_part(self.imag))

    def __repr__(self) -> str:
        return f"GaussianRational({format_scalar(self)!r})"

    def __str__(self) -> str:
        return format_scalar(self)

    def __bool__(self) -> bool:
        return bool(self.real or self.imag)

    def is_zero(self) -> bool:
        return not self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.real, -self.imag)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.real, -self.imag)

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.real + o.real, self.imag + o.imag)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.real - o.real, self.imag - o.imag)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.real * o.real - self.imag * o.imag,
            self.real * o.imag + self.imag * o.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        norm = o.real * o.real + o.imag * o.imag
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return self * GaussianRational(o.real / norm, -o.imag / norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.real, self.imag)


def _exact_part(part: object) -> Fraction:
    if isinstance(part, (int, Fraction)):
        return Fraction(part)
    raise TypeError(f"cannot interpret {part!r} as an exact scalar")


def _coerce(value: object) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    return None


def as_scalar(value: ScalarLike) -> GaussianRational:
    """Coerce ints, Fractions, and scalar text to GaussianRational."""
    coerced = _coerce(value)
    if coerced is not None:
        return coerced
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


ZERO = GaussianRational(Fraction(0))
ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))


def parse_scalar(text: str) -> GaussianRational:
    """Parse canonical scalar text.

    Accepted forms: `[-]p[/q]`, `[-]p[/q](+|-)[r[/s]]i`, and the pure
    imaginary `[-][r[/s]]i`. An omitted imaginary coefficient means 1.
    Raises ScalarParseError (with a position) on malformed text or a zero
    denominator.
    """
    s = text
    n = len(s)
    pos = 0

    def fail(message: str, at: int) -> None:
        raise ScalarParseError(message, at)

    def read_sign() -> int:
        nonlocal pos
        if pos < n and s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            return sign
        return 1

    def read_fraction() -> Fraction:
        nonlocal pos
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            fail("expected a digit", start)
        numerator = int(s[start:pos])
        if pos < n and s[pos] == "/":
            pos += 1
            dstart = pos
            while pos < n and s[pos].isdigit():
                pos += 1
            if pos == dstart:
                fail("expected a digit after '/'", dstart)
            denominator = int(s[dstart:pos])
            if denominator == 0:
                fail("zero denominator", dstart)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    if n == 0:
        fail("empty scalar", 0)
    first_sign = read_sign()
    if pos < n and s[pos] == "i":
        pos += 1
        if pos != n:
            fail("trailing characters after 'i'", pos)
        return GaussianRational(Fraction(0), Fraction(first_sign))
    first = read_fraction()
    if pos == n:
        return GaussianRational(first_sign * first)
    if s[pos] == "i":
        pos += 1
        if pos != n:
            fail("trailing characters after 'i'", pos)
        return GaussianRational(Fraction(0), first_sign * first)
    if s[pos] not in "+-":
        fail("expected '+', '-' or 'i'", pos)
    second_sign = read_sign()
    if pos < n and s[pos] == "i":
        imag = Fraction(1)
        pos += 1
    else:
        imag = read_fraction()
        if pos >= n or s[pos] != "i":
            fail("expected 'i' after the imaginary part", pos)
        pos += 1
    if pos != n:
        fail("trailing characters after 'i'", pos)
    return GaussianRational(first_sign * first, second_sign * imag)


def format_scalar(value: ScalarLike) -> str:
    """Canonical text form; parse_scalar(format_scalar(z)) == z."""
    z = as_scalar(value)
    if z.imag == 0:
        return str(z.real)
    magnitude = abs(z.imag)
    body = "" if magnitude == 1 else str(magnitude)
    if z.real == 0:
        sign = "-" if z.imag < 0 else ""
        return f"{sign}{body}i"
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real}{sign}{body}i"


_EXACT = {GaussianRational}


@dataclass(frozen=True)
class ExactMatrix:
    """Immutable matrix of Gaussian rationals, row-major entries.

    The constructor is the one gate into the type: entries may be any
    iterable of ints, Fractions, scalar text or GaussianRationals, and a
    tuple that holds only GaussianRationals is kept as it is.
    """

    rows: int
    cols: int
    entries: tuple[GaussianRational, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = self.entries
        if type(entries) is not tuple or not _EXACT.issuperset(map(type, entries)):
            entries = tuple(as_scalar(e) for e in entries)
            object.__setattr__(self, "entries", entries)
        if len(entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[ScalarLike] = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("rows have unequal lengths")
            flat.extend(r)
        return cls(nrows, ncols, tuple(flat))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def column(cls, values: Sequence[ScalarLike]) -> "ExactMatrix":
        return cls(len(values), 1, tuple(values))

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def take_rows(self, indices: Iterable[int]) -> "ExactMatrix":
        idx = list(indices)
        flat: list[GaussianRational] = []
        for i in idx:
            flat.extend(self.row(i))
        return ExactMatrix(len(idx), self.cols, tuple(flat))

    def take_cols(self, indices: Iterable[int]) -> "ExactMatrix":
        idx = list(indices)
        flat = [self.entries[i * self.cols + j] for i in range(self.rows) for j in idx]
        return ExactMatrix(self.rows, len(idx), tuple(flat))

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, tuple(-e for e in self.entries))

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __mul__(self, scalar: ScalarLike) -> "ExactMatrix":
        z = _coerce(scalar)
        if z is None:
            return NotImplemented
        return ExactMatrix(self.rows, self.cols, tuple(e * z for e in self.entries))

    __rmul__ = __mul__

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The matrix product, taken over Z[i].

        Each factor is scaled once to Gaussian integers by the lcm of its
        denominators; the integer product is divided by the two scales'
        product, so a Fraction is formed once per result entry, not once
        per term.
        """
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} "
                "are not conformable"
            )
        a, da = _integer_row(self.entries)
        b, db = _integer_row(other.entries)
        product = _gaussian_product(a, b, self.rows, self.cols, other.cols)
        return ExactMatrix(self.rows, other.cols, tuple(_divided(product, (da * db, 0))))

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def conjugate_transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols,
            self.rows,
            tuple(
                self.entries[i * self.cols + j].conjugate()
                for j in range(self.cols)
                for i in range(self.rows)
            ),
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_hermitian(self) -> bool:
        return self.is_square() and self == self.conjugate_transpose()

    def is_idempotent(self) -> bool:
        return self.is_square() and self @ self == self

    def is_projector(self) -> bool:
        return self.is_hermitian() and self.is_idempotent()

    def _require_same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} differ"
            )

    def __str__(self) -> str:
        body = "; ".join(
            "[" + ", ".join(format_scalar(e) for e in self.row(i)) + "]"
            for i in range(self.rows)
        )
        return f"<{self.rows}x{self.cols} {body}>"


# A Gaussian integer a+bi as the int pair (a, b).
GaussianInteger = tuple[int, int]
_GZERO: GaussianInteger = (0, 0)


def _integer_row(
    entries: Sequence[GaussianRational],
) -> tuple[list[GaussianInteger], int]:
    """The entries scaled by the lcm of their denominators, as (re, im)
    pairs, and that lcm: entry k is pairs[k] / lcm.

    A nonzero rational scale leaves the row's span and its zero entries as
    they were, so pivots found on the scaled row are the row's own.
    """
    scale = 1
    for e in entries:
        scale = lcm(scale, e.real.denominator, e.imag.denominator)
    return [
        (
            e.real.numerator * (scale // e.real.denominator),
            e.imag.numerator * (scale // e.imag.denominator),
        )
        for e in entries
    ], scale


def _gaussian_product(
    a: Sequence[GaussianInteger],
    b: Sequence[GaussianInteger],
    rows: int,
    inner: int,
    cols: int,
) -> list[GaussianInteger]:
    """The row-major product of a (rows x inner) and b (inner x cols) over Z[i].

    Zero terms add nothing, so only each row's nonzero entries of a are
    multiplied, and only by nonzero entries of b.
    """
    columns = [b[k::cols] for k in range(cols)]
    out: list[GaussianInteger] = []
    for i in range(rows):
        terms = [(j, x) for j, x in enumerate(a[i * inner : (i + 1) * inner]) if x != _GZERO]
        for column in columns:
            re = im = 0
            for j, (xr, xi) in terms:
                yr, yi = column[j]
                if yr or yi:
                    re += xr * yr - xi * yi
                    im += xr * yi + xi * yr
            out.append((re, im))
    return out


def _eliminate(
    row: Sequence[GaussianInteger],
    pivot_row: Sequence[GaussianInteger],
    col: int,
    prev: GaussianInteger,
) -> list[GaussianInteger]:
    """One Bareiss step, (p*row - row[col]*pivot_row) / prev with p = pivot_row[col].

    prev is the pivot of the step before (1 for the first step). By
    Sylvester's identity every entry of the result is a minor of the scaled
    matrix, so the division is exact in Z[i]; it multiplies through by the
    conjugate of prev and divides by its norm. The result is 0 at col.
    """
    pr, pi = pivot_row[col]
    fr, fi = row[col]
    qr, qi = prev
    if qi:
        norm = qr * qr + qi * qi
        pr, pi = pr * qr + pi * qi, pi * qr - pr * qi
        fr, fi = fr * qr + fi * qi, fi * qr - fr * qi
    else:
        norm = qr
    return [
        (
            (pr * xr - pi * xi - fr * yr + fi * yi) // norm,
            (pr * xi + pi * xr - fr * yi - fi * yr) // norm,
        )
        for (xr, xi), (yr, yi) in zip(row, pivot_row)
    ]


def _divided(row: Sequence[GaussianInteger], d: GaussianInteger) -> list[GaussianRational]:
    """The row divided by the nonzero Gaussian integer d, as Gaussian rationals."""
    dr, di = d
    if di:
        norm = dr * dr + di * di
        row = [(xr * dr + xi * di, xi * dr - xr * di) for xr, xi in row]
    else:
        norm = dr
    one = (norm, 0)
    return [
        ONE if x == one else ZERO if x == _GZERO
        else GaussianRational(Fraction(x[0], norm), Fraction(x[1], norm))
        for x in row
    ]


def _gauss_jordan(work: list[Sequence[GaussianInteger]], cols: int) -> list[int]:
    """Fraction-free Gauss-Jordan over Z[i] on the rows of work, in place.

    The pivot is the first nonzero entry scanning columns left to right and
    rows top to bottom; each pivot step is one Bareiss step on every other
    row. Returns the pivot columns: afterwards row k of work has its pivot
    at pivots[k] and every other row is 0 there, and the rows after the
    last pivot row are 0. Each row stays a nonzero multiple of its
    counterpart in elimination over Q(i), so dividing row k by its pivot
    gives row k of the reduced row echelon form.
    """
    rows = len(work)
    pivots: list[int] = []
    prev: GaussianInteger = (1, 0)
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if work[i][c] != _GZERO), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(rows):
            if i != r:
                work[i] = _eliminate(work[i], work[r], c, prev)
        prev = work[r][c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


class RrefResult(NamedTuple):
    matrix: ExactMatrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: ExactMatrix) -> RrefResult:
    """Reduced row echelon form with pivot columns and rank.

    Pivots are chosen as the first nonzero entry scanning columns left to
    right and rows top to bottom, so the result is unique for a given
    matrix and equality of rref forms is entry-wise equality.

    The rows are scaled to Gaussian integers and reduced by _gauss_jordan;
    each pivot row is divided by its pivot once, at the end.
    """
    work = [_integer_row(m.row(i))[0] for i in range(m.rows)]
    pivots = _gauss_jordan(work, m.cols)
    flat: list[GaussianRational] = []
    for row, c in zip(work, pivots):
        flat.extend(_divided(row, row[c]))
    flat.extend([ZERO] * ((m.rows - len(pivots)) * m.cols))
    return RrefResult(ExactMatrix(m.rows, m.cols, tuple(flat)), tuple(pivots), len(pivots))


def rank(m: ExactMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns spanning {x : m @ x = 0}, one per free column of rref(m)."""
    reduced, pivots, _ = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    flat: list[GaussianRational] = []
    for c in range(m.cols):
        row_vals: list[GaussianRational] = []
        for f in free:
            if c == f:
                row_vals.append(ONE)
            elif c in pivots:
                row_vals.append(-reduced[pivots.index(c), f])
            else:
                row_vals.append(ZERO)
        flat.extend(row_vals)
    return ExactMatrix(m.cols, len(free), tuple(flat))


def invert(m: ExactMatrix) -> ExactMatrix:
    """Inverse of a square matrix via Gauss-Jordan; ValueError if singular."""
    if not m.is_square():
        raise ValueError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n = m.rows
    reduced, pivots, r = rref(hstack(m, ExactMatrix.identity(n)))
    if r < n or pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return reduced.take_cols(range(n, 2 * n))


def hstack(*matrices: ExactMatrix) -> ExactMatrix:
    """Concatenate matrices side by side; all must share a row count."""
    if not matrices:
        raise ValueError("hstack needs at least one matrix")
    nrows = matrices[0].rows
    for m in matrices:
        if m.rows != nrows:
            raise ValueError("hstack requires a common row count")
    flat: list[GaussianRational] = []
    for i in range(nrows):
        for m in matrices:
            flat.extend(m.row(i))
    total_cols = sum(m.cols for m in matrices)
    return ExactMatrix(nrows, total_cols, tuple(flat))
