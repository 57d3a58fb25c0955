"""The concrete 2x2 projector family and its three measurement contexts.

All eight projectors come from one closed-form matrix expression indexed
by (q, n) with q in {0, 1, 2, 3} and n in {1, 2}. q = 0 yields the zero
and identity operators; q in {1, 2, 3} yields the pair of rank-one
projectors for one of the three mutually unbiased qubit measurement
directions. Each pair with the same q > 0 is orthogonal and resolves the
identity, so it forms a measurement context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import ExactMatrix, GaussianRational

__all__ = [
    "ProjectorId",
    "ContextSet",
    "projector",
    "context",
    "nontrivial_projectors",
]

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ProjectorId:
    """Index (q, n) into the projector family; q in 0..3, n in 1..2."""

    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q not in (0, 1, 2, 3):
            raise ValueError(f"q must be in 0..3, got {self.q}")
        if self.n not in (1, 2):
            raise ValueError(f"n must be 1 or 2, got {self.n}")

    def __str__(self) -> str:
        return f"P({self.q},{self.n})"


def projector(pid: ProjectorId) -> ExactMatrix:
    """The projector for (q, n), built from Kronecker deltas on q.

    With s = (-1)^n, the matrix is
      1/2 * [[1 + s(d0 - d3), s(-d1 + i d2)], [s(-d1 - i d2), 1 + s(d0 + d3)]]
    where dk = 1 exactly when q = k.
    """
    d0 = 1 if pid.q == 0 else 0
    d1 = 1 if pid.q == 1 else 0
    d2 = 1 if pid.q == 2 else 0
    d3 = 1 if pid.q == 3 else 0
    s = (-1) ** pid.n
    a = GaussianRational(_HALF * (1 + s * (d0 - d3)))
    b = GaussianRational(_HALF * s * (-d1), _HALF * s * d2)
    c = GaussianRational(_HALF * s * (-d1), -_HALF * s * d2)
    d = GaussianRational(_HALF * (1 + s * (d0 + d3)))
    return ExactMatrix(2, 2, (a, b, c, d))


@dataclass(frozen=True)
class ContextSet:
    """An orthogonal pair of projectors resolving the identity."""

    members: tuple[ExactMatrix, ExactMatrix]

    def __post_init__(self) -> None:
        first, second = self.members
        for m in self.members:
            if not m.is_projector():
                raise ValueError("context members must be projectors")
        if not (first @ second).is_zero():
            raise ValueError("context members must be mutually orthogonal")
        if first + second != ExactMatrix.identity(first.rows):
            raise ValueError("context members must resolve the identity")


def context(w: int) -> ContextSet:
    """The measurement context for direction w in {1, 2, 3}."""
    if w not in (1, 2, 3):
        raise ValueError(f"context label must be 1, 2 or 3, got {w}")
    return ContextSet((projector(ProjectorId(w, 1)), projector(ProjectorId(w, 2))))


def nontrivial_projectors() -> tuple[ExactMatrix, ...]:
    """The six rank-one projectors, ordered by (q, n)."""
    return tuple(projector(ProjectorId(q, n)) for q in (1, 2, 3) for n in (1, 2))
