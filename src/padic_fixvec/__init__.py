"""Exact fixed-vector data for admissible representations of GL_n over
p-adic fields: conductors, depths, principal-congruence levels, fixed-space
dimensions, and enumeration oracles over Z/p^m that verify every closed
form used.

The exports are the representation types, which share the Representation
base class, and the closed forms and oracles that the verify suites compare.
Helpers that are not exported stay importable from their modules.
"""

from .budget import BudgetExceededError, parse_budget
from .characters import enumerate_unit_dual, num_classes_exact
from .cosets import parabolic_index_closed, parabolic_index_enumerated
from .finite_ring import FieldError, enumerate_gl, gl_order, parabolic_order
from .gl2_dims import (
    SteinbergTwist,
    Supercuspidal,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    kirillov_basis_count,
    kirillov_groups,
)
from .global_bounds import GlobalLevel, local_conductor_window
from .representations import (
    ConductorWindow,
    GenericRepresentation,
    Representation,
    SquareIntegrableBlock,
    conductor_window,
    has_fixed_vector,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConductorWindow",
    "FieldError",
    "GenericRepresentation",
    "GlobalLevel",
    "Representation",
    "SquareIntegrableBlock",
    "SteinbergTwist",
    "Supercuspidal",
    "conductor_window",
    "dim_supercuspidal_lattice",
    "dim_supercuspidal_minimal",
    "enumerate_gl",
    "enumerate_unit_dual",
    "gl_order",
    "has_fixed_vector",
    "kirillov_basis_count",
    "kirillov_groups",
    "local_conductor_window",
    "num_classes_exact",
    "parabolic_index_closed",
    "parabolic_index_enumerated",
    "parabolic_order",
    "parse_budget",
]
