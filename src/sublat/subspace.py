"""Closed linear subspaces of C^n in a canonical form.

A subspace keeps its reduced echelon basis over the Gaussian integers:
exactlin's canonical rows, the nonzero rows of the reduced row echelon
form of any spanning set, each scaled to the primitive (re, im) int
pairs with a positive integer at its pivot, keyed by pivot column. The
form is unique, so subspace equality is equality of these rows, and
instances hash on them in pivot order. `Subspace.basis` is the same
basis as the columns of an ExactMatrix (the reduced column echelon
form), the transposed echelon matrix of the rows, built on first use;
no subspace operation needs it.

A Subspace built from an ExactMatrix (the constructor, `image`, `span`)
is canonicalized once, through exactlin.rref, whose reduced integer rows
are made primitive. The operations work on the canonical rows and reduce
with exactlin's one insert routine, with no Gaussian rationals between:
- a join inserts the rows of one subspace into those of the other;
- a meet inserts the Zassenhaus rows [r | 0] of t into the rows [r | r]
  of s; the rows whose pivot falls in the right half span s ^ t, already
  canonical;
- an orthocomplement reads the kernel off the conjugated rows, which are
  canonical too, and canonicalizes it;
- containment, membership and invariance clear a vector's entries at
  the canonical rows' pivots and read the residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    _GZERO,
    ExactMatrix,
    GaussianInteger,
    Rows,
    ScalarLike,
    _canonical_row,
    _echelon,
    _gaussian_product,
    _insert_row,
    _int_rows,
    _kernel,
    _reduced_rows,
    _residual,
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

    __slots__ = ("ambient_dim", "dim", "_rows", "_hash", "_basis")

    def __new__(cls, ambient_dim: int, basis: ExactMatrix) -> "Subspace":
        _ambient(ambient_dim)
        if basis.rows != ambient_dim:
            raise ValueError(
                f"basis has {basis.rows} rows but the ambient dimension is "
                f"{ambient_dim}"
            )
        reduced, pivots, _ = rref(basis.transpose())
        return _subspace(ambient_dim, {
            c: _canonical_row(x, c) for x, c in zip(_int_rows(reduced), pivots)})

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
        return _subspace(_ambient(ambient_dim), {})

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.identity(_ambient(ambient_dim)))

    @property
    def basis(self) -> ExactMatrix:
        """The canonical basis as the columns of an ExactMatrix: the reduced
        column echelon form, with each pivot entry 1."""
        if self._basis is None:
            echelon = _echelon(self._rows, self.dim, self.ambient_dim)
            object.__setattr__(self, "_basis", echelon.transpose())
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


def _subspace(n: int, rows: Rows) -> Subspace:
    """A Subspace of C^n from its canonical rows, keyed by pivot; it keeps
    them in pivot order, so its hash does not depend on insertion order."""
    s = object.__new__(Subspace)
    put = object.__setattr__
    rows = {c: rows[c] for c in sorted(rows)}
    put(s, "ambient_dim", n)
    put(s, "dim", len(rows))
    put(s, "_rows", rows)
    put(s, "_hash", hash((n, tuple(rows.values()))))
    put(s, "_basis", None)
    return s


def _in_span(vec: Sequence[GaussianInteger], s: Subspace) -> bool:
    """True when the Gaussian-integer vector lies in s: its residual
    against the canonical rows is 0."""
    return all(x == _GZERO for x in _residual(s._rows, vec))


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


def _require_same_ambient(m: int, n: int) -> None:
    if m != n:
        raise ValueError(f"ambient dimensions differ: {m} vs {n}")


def leq(s: Subspace, t: Subspace) -> bool:
    """True when s is contained in t."""
    _require_same_ambient(s.ambient_dim, t.ambient_dim)
    return s.dim <= t.dim and all(_in_span(row, t) for row in s._rows.values())


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Intersection, by Zassenhaus's method: insert the rows [r | 0] for
    the rows r of t into the rows [r | r] for those of s, which are
    canonical already. A row whose pivot lies in the right half is 0 on
    the left, so its right half lies in both; those right halves are the
    canonical rows of s ^ t."""
    _require_same_ambient(s.ambient_dim, t.ambient_dim)
    n = s.ambient_dim
    zeros = (_GZERO,) * n
    rows = {c: row + row for c, row in s._rows.items()}
    for row in t._rows.values():
        _insert_row(rows, row + zeros)
    return _subspace(n, {c - n: row[n:] for c, row in rows.items() if c >= n})


def orthocomplement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s: the kernel of its conjugated rows,
    which are canonical still, as each pivot entry is a positive integer."""
    conjugated = {c: tuple((re, -im) for re, im in row) for c, row in s._rows.items()}
    return _subspace(s.ambient_dim, _reduced_rows(_kernel(conjugated, s.ambient_dim)[0]))


def join(s: Subspace, t: Subspace) -> Subspace:
    """Closed join: the span of both bases (every subspace of C^n is closed)."""
    _require_same_ambient(s.ambient_dim, t.ambient_dim)
    if s.dim < t.dim:
        s, t = t, s
    rows = dict(s._rows)
    for row in t._rows.values():
        _insert_row(rows, row)
    return _subspace(s.ambient_dim, rows)


def projector_of(s: Subspace) -> ExactMatrix:
    """Orthogonal projector onto s: B (B^* B)^-1 B^*."""
    b = s.basis
    b_star = b.conjugate_transpose()
    gram = b_star @ b
    return b @ invert(gram) @ b_star


def contains_vector(s: Subspace, psi: StateVector) -> bool:
    _require_same_ambient(s.ambient_dim, psi.ambient_dim)
    return _in_span(psi.components.ints, s)


def maps_into(operator: ExactMatrix, s: Subspace) -> bool:
    """True when operator carries every vector of s back into s: the
    image of each canonical row lies in s."""
    if not operator.is_square() or operator.rows != s.ambient_dim:
        raise ValueError(
            f"operator must be {s.ambient_dim}x{s.ambient_dim}, "
            f"got {operator.rows}x{operator.cols}"
        )
    n = s.ambient_dim
    return all(_in_span(_gaussian_product(operator.ints, row, n, n, 1), s)
               for row in s._rows.values())
