"""The concrete 2x2 projector family and its three measurement contexts.

`projector(q, n)` is P(q, n), q in {0, 1, 2, 3} and n in {1, 2}, from one
closed-form matrix expression. q = 0 yields the zero and identity
operators; q in {1, 2, 3} yields the two rank-one projectors of one of the
three mutually unbiased qubit measurement directions. Such a pair is
orthogonal and resolves the identity, so `context(w)` returns it as the
measurement context (P(w, 1), P(w, 2)).
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import ExactMatrix, GaussianRational

__all__ = ["projector", "context", "nontrivial_projectors"]


def projector(q: int, n: int) -> ExactMatrix:
    """The projector P(q, n), built from Kronecker deltas on q.

    With s = (-1)^n, the matrix is
      1/2 * [[1 + s(d0 - d3), s(-d1 + i d2)], [s(-d1 - i d2), 1 + s(d0 + d3)]]
    where dk = 1 exactly when q = k.
    """
    if q not in (0, 1, 2, 3):
        raise ValueError(f"q must be in 0..3, got {q}")
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    d0 = 1 if q == 0 else 0
    d1 = 1 if q == 1 else 0
    d2 = 1 if q == 2 else 0
    d3 = 1 if q == 3 else 0
    s = (-1) ** n
    a = GaussianRational(Fraction(1 + s * (d0 - d3), 2))
    b = GaussianRational(Fraction(-s * d1, 2), Fraction(s * d2, 2))
    c = GaussianRational(Fraction(-s * d1, 2), Fraction(-s * d2, 2))
    d = GaussianRational(Fraction(1 + s * (d0 + d3), 2))
    return ExactMatrix(2, 2, (a, b, c, d))


def context(w: int) -> tuple[ExactMatrix, ExactMatrix]:
    """The measurement context (P(w, 1), P(w, 2)) for direction w in {1, 2, 3}."""
    if w not in (1, 2, 3):
        raise ValueError(f"context label must be 1, 2 or 3, got {w}")
    return projector(w, 1), projector(w, 2)


def nontrivial_projectors() -> tuple[ExactMatrix, ...]:
    """The six rank-one projectors, ordered by (q, n)."""
    return tuple(projector(q, n) for q in (1, 2, 3) for n in (1, 2))
