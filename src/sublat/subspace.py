"""Closed linear subspaces of C^n in a canonical form.

A subspace is stored as its reduced-column-echelon basis, which is unique,
so subspace equality is entry-wise equality of the stored matrices and
instances hash consistently. Meets are computed exactly by solving the
joint membership system, orthocomplements as kernels of the conjugate
transpose, and joins as the span of both bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactlin import (
    ExactMatrix,
    GaussianRational,
    ScalarLike,
    as_scalar,
    format_scalar,
    hstack,
    invert,
    kernel_basis,
    rank,
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


def _column_canonical(m: ExactMatrix) -> ExactMatrix:
    """Reduced column echelon basis: nonzero rows of rref(m^T), as columns."""
    reduced, _, r = rref(m.transpose())
    flat = tuple(reduced[j, i] for i in range(m.rows) for j in range(r))
    return ExactMatrix(m.rows, r, flat)


@dataclass(frozen=True)
class Subspace:
    """A closed subspace of C^ambient_dim with a canonical basis.

    Any spanning matrix may be passed as `basis`; it is canonicalized on
    construction, so equal subspaces compare equal no matter how they were
    produced.
    """

    ambient_dim: int
    basis: ExactMatrix

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be at least 1")
        if self.basis.rows != self.ambient_dim:
            raise ValueError(
                f"basis has {self.basis.rows} rows but the ambient dimension is "
                f"{self.ambient_dim}"
            )
        object.__setattr__(self, "basis", _column_canonical(self.basis))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.zeros(ambient_dim, 0))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ExactMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

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
    return StateVector(ExactMatrix.column([as_scalar(v) for v in values]))


def span(vectors: Sequence[Sequence[ScalarLike]], ambient_dim: int | None = None) -> Subspace:
    """Closed span of the given vectors (columns)."""
    if not vectors:
        if ambient_dim is None:
            raise ValueError("ambient_dim is required for an empty span")
        return Subspace.zero(ambient_dim)
    n = len(vectors[0])
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError(f"vectors of length {n} do not live in C^{ambient_dim}")
    columns = [[as_scalar(v[i]) for v in vectors] for i in range(n)]
    return Subspace(n, ExactMatrix.from_rows(columns))


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
    if s.dim == 0:
        return True
    return rank(hstack(t.basis, s.basis)) == t.dim


def meet(s: Subspace, t: Subspace) -> Subspace:
    """Intersection, via the joint system B_s x = B_t y."""
    _require_same_ambient(s, t)
    stacked = hstack(s.basis, -t.basis)
    coeffs = kernel_basis(stacked)
    x_part = coeffs.take_rows(range(s.dim))
    return image(s.basis @ x_part)


def orthocomplement(s: Subspace) -> Subspace:
    """All vectors orthogonal to s: the kernel of basis^*."""
    return image(kernel_basis(s.basis.conjugate_transpose()))


def join(s: Subspace, t: Subspace) -> Subspace:
    """Closed join: the span of both bases (every subspace of C^n is closed)."""
    _require_same_ambient(s, t)
    return image(hstack(s.basis, t.basis))


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
    return rank(hstack(s.basis, psi.components)) == s.dim


def maps_into(operator: ExactMatrix, s: Subspace) -> bool:
    """True when operator carries every vector of s back into s."""
    if not operator.is_square() or operator.rows != s.ambient_dim:
        raise ValueError(
            f"operator must be {s.ambient_dim}x{s.ambient_dim}, "
            f"got {operator.rows}x{operator.cols}"
        )
    return rank(hstack(s.basis, operator @ s.basis)) == s.dim
