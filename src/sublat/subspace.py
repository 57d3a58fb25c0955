"""Closed linear subspaces of C^n in a canonical form.

A subspace keeps its reduced echelon basis over the Gaussian integers:
the nonzero rows of the reduced row echelon form of any spanning set,
each scaled to (re, im) int pairs over one positive denominator, in
lowest terms, so that its pivot entry is that denominator. The form is
unique, so subspace equality is equality of these int rows, and
instances hash on them. `Subspace.basis` is the same basis as the
columns of an ExactMatrix (the reduced column echelon form), built on
first use.

A Subspace built from an ExactMatrix (the constructor, `image`, `span`)
is canonicalized once, through exactlin.rref. The operations work on the
int rows and reduce with exactlin's one fraction-free Gauss-Jordan
kernel, with no Gaussian rationals in between:
- a join reduces the rows of both subspaces together;
- a meet reduces the Zassenhaus rows [r | r] of s and [r | 0] of t; the
  rows whose left half vanishes span s ^ t, already reduced;
- an orthocomplement writes down the kernel of the conjugated rows,
  which are already reduced, and canonicalizes it;
- containment, membership and invariance reduce vectors against the
  canonical rows, one Bareiss step per pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from .exactlin import (
    _GZERO,
    ExactMatrix,
    GaussianInteger,
    ScalarLike,
    _divided,
    _eliminate,
    _gauss_jordan,
    _gaussian_product,
    _integer_row,
    format_scalar,
    invert,
    rank,  # noqa: F401 -- kept bound here: perfbench's tracer wraps subspace.rank
    rref,
)

__all__ = [
    "Subspace",
    "StateVector",
    "span",
    "vector",
    "image",
    "leq",
    "meet",
    "join",
    "orthocomplement",
    "projector_of",
    "contains_vector",
    "maps_into",
]

# A canonical row: Gaussian-integer entries over the positive denominator
# held at its pivot, the first nonzero entry; the entries and the
# denominator share no factor.
Row = tuple[GaussianInteger, ...]

_GONE: GaussianInteger = (1, 0)


def _ambient(n: int) -> int:
    if n < 1:
        raise ValueError("ambient dimension must be at least 1")
    return n


class Subspace:
    """A closed subspace of C^ambient_dim with a canonical basis.

    Any spanning matrix may be passed as `basis`, one spanning vector per
    column; it is canonicalized on construction, so equal subspaces compare
    equal no matter how they were produced. Instances are immutable.
    """

    __slots__ = ("ambient_dim", "dim", "_rows", "_pivots", "_hash", "_basis")

    def __new__(cls, ambient_dim: int, basis: ExactMatrix) -> "Subspace":
        _ambient(ambient_dim)
        if basis.rows != ambient_dim:
            raise ValueError(
                f"basis has {basis.rows} rows but the ambient dimension is "
                f"{ambient_dim}"
            )
        reduced, pivots, r = rref(basis.transpose())
        rows = tuple(tuple(_integer_row(reduced.row(k))[0]) for k in range(r))
        return _subspace(ambient_dim, rows, pivots)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: Subspace is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: Subspace is immutable")

    def __reduce__(self):
        return (Subspace, (self.ambient_dim, self.basis))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim}, {self.basis!r})"

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return _subspace(_ambient(ambient_dim), (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        n = _ambient(ambient_dim)
        rows = tuple(tuple(_GONE if i == j else _GZERO for j in range(n)) for i in range(n))
        return _subspace(n, rows, range(n))

    @property
    def basis(self) -> ExactMatrix:
        """The canonical basis as the columns of an ExactMatrix: the reduced
        column echelon form, with each pivot entry 1."""
        if self._basis is None:
            n, r = self.ambient_dim, self.dim
            columns = [_divided(row, row[c]) for row, c in zip(self._rows, self._pivots)]
            flat = tuple(columns[j][i] for i in range(n) for j in range(r))
            object.__setattr__(self, "_basis", ExactMatrix(n, r, flat))
        return self._basis

    def span_str(self) -> str:
        if self.dim == 0:
            return "{0}"
        if self.dim == self.ambient_dim:
            return f"C^{self.ambient_dim}"
        columns = []
        for j in range(self.dim):
            body = ",".join(format_scalar(self.basis[i, j]) for i in range(self.ambient_dim))
            columns.append(f"[{body}]")
        return "span{" + ",".join(columns) + "}"

    def __str__(self) -> str:
        return self.span_str()

    def sort_key(self) -> tuple[int, tuple[tuple[Fraction, Fraction], ...]]:
        return (self.dim, tuple(e.sort_key() for e in self.basis.entries))


def _subspace(n: int, rows: tuple[Row, ...], pivots: Sequence[int]) -> Subspace:
    """A Subspace of C^n from its canonical rows and their pivot columns."""
    s = object.__new__(Subspace)
    put = object.__setattr__
    put(s, "ambient_dim", n)
    put(s, "dim", len(rows))
    put(s, "_rows", rows)
    put(s, "_pivots", tuple(pivots))
    put(s, "_hash", hash((n, rows)))
    put(s, "_basis", None)
    return s


def _canonical_row(row: Sequence[GaussianInteger], pivot: int) -> Row:
    """The row scaled to its canonical form: the row divided by its pivot
    entry p, as int pairs over a positive denominator in lowest terms.

    A row times conj(p) has the positive pivot |p|^2; dividing out the gcd
    of all its parts leaves the one primitive multiple with a positive
    pivot, which is the lcm-scaled reduced row.
    """
    pr, pi = row[pivot]
    if pi or pr < 0:
        row = [(xr * pr + xi * pi, xi * pr - xr * pi) for xr, xi in row]
    g = gcd(*chain.from_iterable(row))
    return tuple((xr // g, xi // g) for xr, xi in row) if g > 1 else tuple(row)


def _reduced(n: int, work: list[Sequence[GaussianInteger]]) -> Subspace:
    """The subspace of C^n spanned by the Gaussian-integer rows of work."""
    pivots = _gauss_jordan(work, n)
    return _subspace(n, tuple(_canonical_row(work[k], c) for k, c in enumerate(pivots)), pivots)


def _in_span(vec: Sequence[GaussianInteger], s: Subspace) -> bool:
    """True when the Gaussian-integer vector lies in s.

    Each canonical row is 0 at the other rows' pivots, so one Bareiss step
    per row clears vec at every pivot; what is left is 0 exactly when vec
    is a combination of the rows.
    """
    for row, c in zip(s._rows, s._pivots):
        if vec[c] != _GZERO:
            vec = _eliminate(vec, row, c, _GONE)
    return all(x == _GZERO for x in vec)


@dataclass(frozen=True)
class StateVector:
    """A nonzero column vector used for membership and valuation queries."""

    components: ExactMatrix

    def __post_init__(self) -> None:
        if self.components.cols != 1:
            raise ValueError("a state vector is a single column")
        if self.components.rows < 1:
            raise ValueError("a state vector needs at least one component")
        if self.components.is_zero():
            raise ValueError("a state vector must be nonzero")

    @property
    def ambient_dim(self) -> int:
        return self.components.rows

    def __str__(self) -> str:
        body = ",".join(
            format_scalar(self.components[i, 0]) for i in range(self.ambient_dim)
        )
        return f"[{body}]"


def vector(values: Sequence[ScalarLike]) -> StateVector:
    return StateVector(ExactMatrix.column(values))


def span(vectors: Sequence[Sequence[ScalarLike]], ambient_dim: int | None = None) -> Subspace:
    """Closed span of the given vectors (columns)."""
    if not vectors:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty span")
        return Subspace.zero(ambient_dim)
    lengths = sorted({len(v) for v in vectors})
    if len(lengths) > 1:
        raise ValueError(f"vectors have unequal lengths {lengths}")
    n = lengths[0]
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError(f"vectors of length {n} do not live in C^{ambient_dim}")
    return Subspace(n, ExactMatrix(n, len(vectors), tuple(v[i] for i in range(n) for v in vectors)))


def image(m: ExactMatrix) -> Subspace:
    """Column space of m as a canonical subspace."""
    return Subspace(m.rows, m)


def _require_same_ambient(s: Subspace, t: Subspace) -> None:
    if s.ambient_dim != t.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s.ambient_dim} vs {t.ambient_dim}"
        )


def leq(s: Subspace, t: Subspace) -> bool:
    """True when s is contained in t."""
    _require_same_ambient(s, t)
    return s.dim <= t.dim and all(_in_span(row, t) for row in s._rows)


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Intersection, by Zassenhaus's method: reduce the rows [r | r] for
    the rows r of s and [r | 0] for those of t. A reduced row whose left
    half is 0 has a right half in both, and those right halves, already
    reduced among themselves, span s ^ t."""
    _require_same_ambient(s, t)
    n = s.ambient_dim
    zeros = (_GZERO,) * n
    work = [row + row for row in s._rows] + [row + zeros for row in t._rows]
    pivots = _gauss_jordan(work, 2 * n)
    rows = tuple(_canonical_row(work[k][n:], c - n) for k, c in enumerate(pivots) if c >= n)
    return _subspace(n, rows, [c - n for c in pivots if c >= n])


def orthocomplement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s: the kernel of the conjugated canonical
    rows. Those rows are reduced with real pivots, so the kernel vector of
    a free column f is read off them: D at f and -conj(r[f]) * D / d at the
    pivot of each row r with denominator d, with D the lcm of the d."""
    n = s.ambient_dim
    scale = lcm(*(row[c][0] for row, c in zip(s._rows, s._pivots)))
    work = []
    for f in range(n):
        if f in s._pivots:
            continue
        x = [_GZERO] * n
        x[f] = (scale, 0)
        for row, c in zip(s._rows, s._pivots):
            q = scale // row[c][0]
            x[c] = (-row[f][0] * q, row[f][1] * q)
        work.append(x)
    return _reduced(n, work)


def join(s: Subspace, t: Subspace) -> Subspace:
    """Closed join: the span of both bases (every subspace of C^n is closed)."""
    _require_same_ambient(s, t)
    return _reduced(s.ambient_dim, [*s._rows, *t._rows])


def projector_of(s: Subspace) -> ExactMatrix:
    """Orthogonal projector onto s: B (B^* B)^-1 B^*."""
    b = s.basis
    b_star = b.conjugate_transpose()
    gram = b_star @ b
    return b @ invert(gram) @ b_star


def contains_vector(s: Subspace, psi: StateVector) -> bool:
    if s.ambient_dim != psi.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s.ambient_dim} vs {psi.ambient_dim}"
        )
    return _in_span(_integer_row(psi.components.entries)[0], s)


def maps_into(operator: ExactMatrix, s: Subspace) -> bool:
    """True when operator carries every vector of s back into s: the
    operator, scaled once to Gaussian integers, maps each canonical row
    into s."""
    if not operator.is_square() or operator.rows != s.ambient_dim:
        raise ValueError(
            f"operator must be {s.ambient_dim}x{s.ambient_dim}, "
            f"got {operator.rows}x{operator.cols}"
        )
    n, r = s.ambient_dim, s.dim
    a = _integer_row(operator.entries)[0]
    columns = [row[i] for i in range(n) for row in s._rows]
    images = _gaussian_product(a, columns, n, n, r)
    return all(_in_span(images[k::r], s) for k in range(r))
