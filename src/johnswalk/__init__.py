"""Uniform sampling from convex polytopes via inscribed-ellipsoid walks.

The package builds Markov chains whose proposal at each interior point is
a small copy of the largest ellipsoid inscribed in the symmetrized body
around that point. Two independent solvers compute that ellipsoid (a
multiplicative-weights ascent on the polar problem, and a cutting-plane
method over the semidefinite formulation), and the diagnostics module
checks the geometric facts the step size relies on.

The package root re-exports the entry points, the types they take and
return, and the errors. Everything else is imported from its module:
``johnswalk.geometry``, ``johnswalk.mve``, ``johnswalk.vaidya``,
``johnswalk.walk``, ``johnswalk.diagnostics`` and ``johnswalk.cli``.
"""

from .errors import (
    GeometryError,
    InputDataError,
    JohnsWalkError,
    NumericalError,
    OracleInconsistencyError,
    SolverError,
    UnboundedPolytopeError,
)
from .geometry import (
    Ellipsoid,
    Polytope,
    SymmetricPolytope,
    analytic_center,
    contains,
    symmetrize,
)
from .mve import ContactSet, JohnSolution, extract_contacts, solve_mve
from .walk import Tallies, WalkConfig, run_chain

__version__ = "0.1.0"

__all__ = [
    "ContactSet",
    "Ellipsoid",
    "GeometryError",
    "InputDataError",
    "JohnSolution",
    "JohnsWalkError",
    "NumericalError",
    "OracleInconsistencyError",
    "Polytope",
    "SolverError",
    "SymmetricPolytope",
    "Tallies",
    "UnboundedPolytopeError",
    "WalkConfig",
    "analytic_center",
    "contains",
    "extract_contacts",
    "run_chain",
    "solve_mve",
    "symmetrize",
    "__version__",
]
