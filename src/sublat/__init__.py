"""Exact-arithmetic workbench for finite lattices of closed subspaces.

Everything is decided exactly over the Gaussian rationals: subspace
order, meets, joins, and orthocomplements; lattice law checks; filters
and two-valued maps under two conventions; invariant-subspace lattices
and irreducibility of generated operator algebras. The `sublat` console
script exposes the same machinery over line-oriented declaration files.
"""

from .exactlin import (
    ExactMatrix,
    GaussianRational,
    ScalarParseError,
    format_scalar,
    parse_scalar,
)
from .filters import (
    FULL_HOMOMORPHISM_LAWS,
    Bivaluation,
    INDETERMINATE,
    LatticeSubset,
    NOT_APPLICABLE,
    search_bivaluations,
    state_valuation,
)
from .invariant import (
    AlgebraBasis,
    LatticeRegistry,
    algebra_span,
    common_invariant_sublattice,
    contextual_valuation_report,
    invariant_sublattice,
    is_irreducible,
    meet_defined,
)
from .lattice import FiniteLattice, check_distributive, close_and_build
from .qubit import ContextSet, ProjectorId, context, full_sigma, projector
from .subspace import StateVector, Subspace, image, span, vector

__version__ = "0.1.0"

__all__ = [
    "AlgebraBasis",
    "Bivaluation",
    "ContextSet",
    "ExactMatrix",
    "FULL_HOMOMORPHISM_LAWS",
    "FiniteLattice",
    "GaussianRational",
    "INDETERMINATE",
    "LatticeRegistry",
    "LatticeSubset",
    "NOT_APPLICABLE",
    "ProjectorId",
    "ScalarParseError",
    "StateVector",
    "Subspace",
    "__version__",
    "algebra_span",
    "check_distributive",
    "close_and_build",
    "common_invariant_sublattice",
    "context",
    "contextual_valuation_report",
    "format_scalar",
    "full_sigma",
    "image",
    "invariant_sublattice",
    "is_irreducible",
    "meet_defined",
    "parse_scalar",
    "projector",
    "search_bivaluations",
    "span",
    "state_valuation",
    "vector",
]
