"""Exact arithmetic over the Gaussian rationals.

Scalars are complex numbers whose real and imaginary parts are rationals
in lowest terms, backed by fractions.Fraction. A scalar's arithmetic
takes another scalar, an int or a Fraction on either side and coerces it
once; any other operand, a float or a str among them, gets
NotImplemented, so Python raises TypeError. Scalar text is a term, a term
and then 'i', or a term, a second term that starts with its sign, and
'i'. A term is an optional sign and then a fraction, p or p/q in ASCII
digits with q not 0 and at most MAX_LITERAL_DIGITS to a literal, or the
sign alone before 'i', which reads as 1.

Matrices are immutable and row-major, and this module alone knows how
they are stored: as Gaussian-integer (re, im) int pairs over one positive
denominator, in lowest terms. The form is unique, so equality and hashing
compare ints, and every operation works on them. Two facts are formed on
first use: a matrix's GaussianRational entries, and its terms, the
(column, re, im) of each row's nonzero entries. A product reads the left
factor's terms against the right factor's columns, so it multiplies
nonzero terms only. Everything downstream rests on the four exact
algorithms here: reduced row echelon form, kernel bases, conjugate
transposition, and inversion, with kernels and inverses read off
canonical rows.

Elimination runs over the Gaussian integers Z[i], in one routine,
_insert_row, which rref, the subspace layer and the algebra span share.
It grows a span's canonical rows, a dict keyed by pivot column, one
vector at a time. A canonical row holds (re, im) int pairs; it is
primitive (its parts share no factor), has a positive integer at its
pivot, its first nonzero entry, and is 0 at every other row's pivot. It
is the row of the reduced row echelon form times the one positive
rational that makes it primitive, so the canonical rows of a span are
unique, whatever the order of insertion. An insert clears each kept
pivot c from the vector x with d*x - x[c]*row, d the row's pivot, which
needs no division; that one clearing step changes only the entries where
the row is nonzero, past the d* scaling, which d = 1 skips. A nonzero
residual is made canonical, its pivot is cleared from the kept rows by the
same step, and it joins them. rref puts the canonical rows over the lcm of
their pivots, and kernels are read straight off them, as inverses are off
the canonical rows of [m | I]. No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, Sequence, Union

__all__ = [
    "GaussianRational",
    "ExactMatrix",
    "RrefResult",
    "ScalarParseError",
    "MAX_LITERAL_DIGITS",
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
]

ScalarLike = Union["GaussianRational", Fraction, int, str]

# parse_scalar's most digits to a literal, as many as CPython 3.11+'s int() takes.
MAX_LITERAL_DIGITS = 4300


class ScalarParseError(ValueError):
    """Malformed scalar text. `position` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


def _operators(fn: Callable) -> tuple[Callable, Callable]:
    """The forward and the reflected operator of fn(a, b). Each coerces the
    operand that is not self by the operand rule of the module docstring,
    and the reflected one passes it to fn first."""

    def forward(a, b):
        b = _coerce(b)
        return NotImplemented if b is None else fn(a, b)

    def reflected(b, a):
        a = _coerce(a)
        return NotImplemented if a is None else fn(a, b)

    return forward, reflected


def _add(a: "GaussianRational", b: "GaussianRational") -> "GaussianRational":
    return GaussianRational(a.real + b.real, a.imag + b.imag)


def _sub(a: "GaussianRational", b: "GaussianRational") -> "GaussianRational":
    return GaussianRational(a.real - b.real, a.imag - b.imag)


def _mul(a: "GaussianRational", b: "GaussianRational") -> "GaussianRational":
    return GaussianRational(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _truediv(a: "GaussianRational", b: "GaussianRational") -> "GaussianRational":
    norm = b.real * b.real + b.imag * b.imag
    if norm == 0:
        raise ZeroDivisionError("division by zero scalar")
    return _mul(a, GaussianRational(b.real / norm, -b.imag / norm))


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

    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(_sub)
    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(_truediv)

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
    """Parse scalar text in the term grammar of the module docstring.

    Raises ScalarParseError (with a position) on malformed text, a literal
    longer than MAX_LITERAL_DIGITS or a zero denominator.
    """
    s = text
    n = len(s)
    pos = 0

    def fail(message: str, at: int) -> None:
        raise ScalarParseError(message, at)

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and "0" <= s[pos] <= "9":
            pos += 1
        if pos == start:
            fail("expected a digit", start)
        if pos - start > MAX_LITERAL_DIGITS:
            fail(f"more than {MAX_LITERAL_DIGITS} digits", start)
        return int(s[start:pos])

    def read_term() -> Fraction:
        """One term of the module docstring's grammar, its sign on the numerator."""
        nonlocal pos
        negative = pos < n and s[pos] == "-"
        if pos < n and s[pos] in "+-":
            pos += 1
        if pos < n and s[pos] == "i":
            return Fraction(-1 if negative else 1)
        numerator = -read_int() if negative else read_int()
        if pos < n and s[pos] == "/":
            pos += 1
            dstart = pos
            denominator = read_int()
            if denominator == 0:
                fail("zero denominator", dstart)
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    if n == 0:
        fail("empty scalar", 0)
    first = read_term()
    if pos == n:
        return GaussianRational(first)
    if s[pos] == "i":
        real, imag = Fraction(0), first
    else:
        if s[pos] not in "+-":
            fail("expected '+', '-' or 'i'", pos)
        real, imag = first, read_term()
        if pos == n or s[pos] != "i":
            fail("expected 'i' after the imaginary part", pos)
    pos += 1
    if pos != n:
        fail("trailing characters after 'i'", pos)
    return GaussianRational(real, imag)


def format_scalar(value: ScalarLike) -> str:
    """Canonical text form; parse_scalar(format_scalar(z)) == z."""
    z = as_scalar(value)
    if z.imag == 0:
        return str(z.real)
    magnitude = abs(z.imag)
    body = "" if magnitude == 1 else str(magnitude)
    real = str(z.real) if z.real else ""
    sign = "-" if z.imag < 0 else "+" if z.real else ""
    return f"{real}{sign}{body}i"


# A Gaussian integer a+bi as the int pair (a, b), and as a nonzero term
# (column, a, b) of a matrix row.
GaussianInteger = tuple[int, int]
Term = tuple[int, int, int]
_GZERO: GaussianInteger = (0, 0)


class ExactMatrix:
    """Immutable matrix of Gaussian rationals, row-major.

    The constructor is the one gate into the type: entries may be any
    iterable of ints, Fractions, scalar text or GaussianRationals. A matrix
    keeps them as Gaussian-integer (re, im) pairs, `ints`, over one
    positive denominator, `den`, in lowest terms. That form is unique, so
    equality and the hash compare ints. Two facts are built on first use
    and kept out of equality, the hash, the repr and copies: `entries`, the
    GaussianRationals, and `terms`, each row's nonzero (column, re, im),
    which every product reads for its left factor.
    """

    __slots__ = ("rows", "cols", "ints", "den", "_entries", "_terms")

    def __new__(cls, rows: int, cols: int, entries: Iterable[ScalarLike]) -> "ExactMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        entries = tuple(e if type(e) is GaussianRational else as_scalar(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a "
                f"{rows}x{cols} matrix, got {len(entries)}"
            )
        return _matrix(rows, cols, *_integer_parts(entries))

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: ExactMatrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (_matrix, (self.rows, self.cols, self.ints, self.den))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.ints) == (
            other.rows, other.cols, other.den, other.ints)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.ints))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}, {self.cols}, {self.entries!r})"

    @property
    def entries(self) -> tuple[GaussianRational, ...]:
        """The row-major entries as GaussianRationals."""
        if self._entries is None:
            d = self.den
            object.__setattr__(self, "_entries", tuple(
                ONE if x == (d, 0) else ZERO if x == _GZERO
                else GaussianRational(Fraction(x[0], d), Fraction(x[1], d))
                for x in self.ints
            ))
        return self._entries

    @property
    def terms(self) -> tuple[tuple[Term, ...], ...]:
        """For each row, the (column, re, im) of its nonzero Gaussian-integer
        entries, in column order."""
        if self._terms is None:
            c = self.cols
            object.__setattr__(self, "_terms", tuple(
                tuple((j, re, im) for j, (re, im) in enumerate(self.ints[i * c : (i + 1) * c])
                      if re or im)
                for i in range(self.rows)
            ))
        return self._terms

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
        """The n x n identity: its unit ints over den 1, no coercion."""
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        return _matrix(n, n, tuple((int(i == j), 0) for i in range(n) for j in range(n)), 1)

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

    def __neg__(self) -> "ExactMatrix":
        return _matrix(self.rows, self.cols, tuple((-re, -im) for re, im in self.ints), self.den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._require_same_shape(other)
        d = lcm(self.den, other.den)
        p, q = d // self.den, d // other.den
        return _lowest(self.rows, self.cols, [
            (ar * p + br * q, ai * p + bi * q)
            for (ar, ai), (br, bi) in zip(self.ints, other.ints)
        ], d)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def _scaled(self, z: GaussianRational) -> "ExactMatrix":
        # z is (a+bi)/d, so each entry's parts times a+bi over den*d.
        ((a, b),), d = _integer_parts((z,))
        return _lowest(self.rows, self.cols, [
            (xr * a - xi * b, xr * b + xi * a) for xr, xi in self.ints], self.den * d)

    # Scaling commutes, so the forward operator, which coerces the scalar,
    # serves on both sides.
    __mul__ = __rmul__ = _operators(_scaled)[0]

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """The matrix product: the product of the Gaussian-integer parts over
        the product of the denominators."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(
                f"shapes {self.rows}x{self.cols} and {other.rows}x{other.cols} "
                "are not conformable"
            )
        product = _gaussian_product(self.terms, _columns(other))
        return _lowest(self.rows, other.cols, product, self.den * other.den)

    def transpose(self) -> "ExactMatrix":
        c = self.cols
        return _matrix(c, self.rows, tuple(x for j in range(c) for x in self.ints[j::c]), self.den)

    def conjugate_transpose(self) -> "ExactMatrix":
        c = self.cols
        return _matrix(c, self.rows, tuple(
            (re, -im) for j in range(c) for re, im in self.ints[j::c]
        ), self.den)

    def is_zero(self) -> bool:
        return all(x == _GZERO for x in self.ints)

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


def _matrix(rows: int, cols: int, ints: tuple[GaussianInteger, ...], den: int) -> ExactMatrix:
    """The ExactMatrix ints / den, which must be in lowest terms already."""
    m = object.__new__(ExactMatrix)
    put = object.__setattr__
    put(m, "rows", rows)
    put(m, "cols", cols)
    put(m, "ints", ints)
    put(m, "den", den)
    put(m, "_entries", None)
    put(m, "_terms", None)
    return m


def _integer_parts(entries: Sequence[GaussianRational]) -> tuple[tuple[GaussianInteger, ...], int]:
    """The entries as Gaussian-integer parts over the lcm of their
    denominators, which is in lowest terms: a part whose denominator holds
    the most factors p of the lcm stays prime to p."""
    den = lcm(*(p.denominator for e in entries for p in (e.real, e.imag)))
    return tuple(
        (e.real.numerator * (den // e.real.denominator),
         e.imag.numerator * (den // e.imag.denominator))
        for e in entries
    ), den


def _lowest(rows: int, cols: int, ints: Sequence[GaussianInteger], den: int) -> ExactMatrix:
    """The ExactMatrix ints / den, den positive, with the common factor of
    den and every part divided out."""
    g = gcd(den, *chain.from_iterable(ints))
    if g > 1:
        ints, den = [(re // g, im // g) for re, im in ints], den // g
    return _matrix(rows, cols, tuple(ints), den)


def _int_rows(m: ExactMatrix) -> Iterable[Sequence[GaussianInteger]]:
    """The rows of m's Gaussian-integer parts; they span its row space."""
    c = m.cols
    return (m.ints[i * c : (i + 1) * c] for i in range(m.rows))


def _columns(m: ExactMatrix) -> list[Sequence[GaussianInteger]]:
    """The columns of m's Gaussian-integer parts."""
    c = m.cols
    return [m.ints[k::c] for k in range(c)]


def _gaussian_product(
    terms: Sequence[Sequence[Term]],
    columns: Sequence[Sequence[GaussianInteger]],
) -> list[GaussianInteger]:
    """The row-major product over Z[i] of a left factor, given by the
    nonzero terms of each row, and a right factor, given by its columns.

    Zero terms add nothing, so each row's nonzero terms are multiplied, and
    only by nonzero entries of the column.
    """
    out: list[GaussianInteger] = []
    for row in terms:
        for column in columns:
            re = im = 0
            for j, xr, xi in row:
                yr, yi = column[j]
                if yr or yi:
                    re += xr * yr - xi * yi
                    im += xr * yi + xi * yr
            out.append((re, im))
    return out


# A canonical row: primitive Gaussian-integer entries with a positive
# integer at the pivot, the first nonzero entry; Rows keys them by pivot.
Row = tuple[GaussianInteger, ...]
Rows = dict[int, Row]


def _canonical_row(row: Sequence[GaussianInteger], pivot: int) -> Row:
    """The one primitive multiple of the row with a positive integer at
    pivot, its first nonzero entry.

    The row times conj(p), p its pivot entry, has the positive pivot
    |p|^2; dividing out the gcd of all its parts leaves that multiple.
    """
    pr, pi = row[pivot]
    if pi or pr < 0:
        row = [(xr * pr + xi * pi, xi * pr - xr * pi) for xr, xi in row]
    g = gcd(*chain.from_iterable(row))
    return tuple((xr // g, xi // g) for xr, xi in row) if g > 1 else tuple(row)


def _cleared(x: Sequence[GaussianInteger], c: int, row: Row) -> list[GaussianInteger]:
    """d*x - f*row, d the row's pivot entry at c and f = x[c]: x with c cleared.

    Past the d* scaling, which d = 1 skips, only the entries where the row
    is nonzero change.
    """
    fr, fi = x[c]
    d = row[c][0]
    x = list(x) if d == 1 else [(d * xr, d * xi) for xr, xi in x]
    for j, (yr, yi) in enumerate(row):
        if yr or yi:
            xr, xi = x[j]
            x[j] = (xr - fr * yr + fi * yi, xi - fr * yi - fi * yr)
    return x


def _residual(rows: Rows, x: Sequence[GaussianInteger]) -> Sequence[GaussianInteger]:
    """x with every pivot c of the canonical rows cleared, each by one
    _cleared step.

    Each row is 0 at the other rows' pivots, so one pass clears them all,
    and the residual is 0 exactly when x lies in the span of the rows.
    """
    for c, row in rows.items():
        fr, fi = x[c]
        if fr or fi:
            x = _cleared(x, c, row)
    return x


def _insert_row(rows: Rows, x: Sequence[GaussianInteger]) -> bool:
    """Insert the Gaussian-integer vector x into the canonical rows; True
    when x was independent of them.

    A nonzero residual of x with pivot p is made canonical as rows[p], once
    p is cleared from every kept row, which is made canonical again.
    """
    x = _residual(rows, x)
    for p, (re, im) in enumerate(x):
        if re or im:
            break
    else:
        return False
    new = _canonical_row(x, p)
    for c, row in rows.items():
        if row[p] != _GZERO:
            rows[c] = _canonical_row(_cleared(row, p, new), c)
    rows[p] = new
    return True


def _reduced_rows(vectors: Iterable[Sequence[GaussianInteger]]) -> Rows:
    """The canonical rows of the span of the vectors, keyed by pivot."""
    rows: Rows = {}
    for x in vectors:
        _insert_row(rows, x)
    return rows


def _echelon(rows: Rows, nrows: int, cols: int) -> ExactMatrix:
    """The nrows x cols reduced row echelon matrix whose nonzero rows are
    the canonical rows in pivot order, each divided by its pivot entry.

    Over the lcm D of the pivot entries, a row with pivot entry d is the
    canonical row times D / d, and that is in lowest terms: each prime
    factor p of D is prime to D / d for some row, which is primitive.
    """
    den = lcm(*(row[c][0] for c, row in rows.items()))
    ints: list[GaussianInteger] = []
    for c in sorted(rows):
        q = den // rows[c][c][0]
        ints.extend((re * q, im * q) for re, im in rows[c])
    ints.extend([_GZERO] * ((nrows - len(rows)) * cols))
    return _matrix(nrows, cols, tuple(ints), den)


def _kernel(rows: Rows, n: int) -> tuple[list[list[GaussianInteger]], int]:
    """The kernel of the canonical rows in C^n times D, the lcm of their pivot
    entries d, and D: per free column f, D at f and -row[f]*D/d at each pivot."""
    den = lcm(*(row[c][0] for c, row in rows.items()))
    vectors = []
    for f in range(n):
        if f not in rows:
            x = [_GZERO] * n
            x[f] = (den, 0)
            for c, row in rows.items():
                x[c] = tuple(-part * (den // row[c][0]) for part in row[f])
            vectors.append(x)
    return vectors, den


class RrefResult(NamedTuple):
    matrix: ExactMatrix
    pivots: tuple[int, ...]
    rank: int


def rref(m: ExactMatrix) -> RrefResult:
    """Reduced row echelon form with pivot columns and rank.

    The reduced form of a matrix depends only on its row space, so it is
    unique, and equality of rref forms is entry-wise equality.

    The rows of m's Gaussian-integer parts are inserted one at a time with
    _insert_row; as the canonical rows of a span are unique, the order of
    insertion does not matter. The reduced form is the canonical rows, each
    divided by its pivot, and zero rows fill the rank deficit.
    """
    rows = _reduced_rows(_int_rows(m))
    return RrefResult(_echelon(rows, m.rows, m.cols), tuple(sorted(rows)), len(rows))


def rank(m: ExactMatrix) -> int:
    return rref(m).rank


def kernel_basis(m: ExactMatrix) -> ExactMatrix:
    """Columns spanning {x : m @ x = 0}, one per free column f of rref(m):
    1 at f and -rref(m)[k, f] at the k-th pivot column."""
    vectors, den = _kernel(_reduced_rows(_int_rows(m)), m.cols)
    return _lowest(m.cols, len(vectors), [v[i] for i in range(m.cols) for v in vectors], den)


def invert(m: ExactMatrix) -> ExactMatrix:
    """Inverse of a square matrix, read off canonical rows; ValueError if
    singular.

    The rows [m.ints | m.den*I] have rank n, and m is singular exactly when
    a pivot lies at column n or beyond. Otherwise canonical row c is
    d_c*[e_c | row c of m^-1], so their echelon matrix is [I | m^-1].
    """
    if not m.is_square():
        raise ValueError(f"cannot invert a {m.rows}x{m.cols} matrix")
    n, unit = m.rows, (m.den, 0)
    rows = _reduced_rows((*x, *(unit if j == i else _GZERO for j in range(n)))
                         for i, x in enumerate(_int_rows(m)))
    if any(c >= n for c in rows):
        raise ValueError("matrix is singular")
    reduced = _echelon(rows, n, 2 * n)
    return _lowest(n, n, [x for row in _int_rows(reduced) for x in row[n:]], reduced.den)
