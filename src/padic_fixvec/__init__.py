"""Exact fixed-vector data for admissible representations of GL_n over
p-adic fields: conductors, depths, principal-congruence levels, fixed-space
dimensions, and enumeration oracles over Z/p^m that verify every closed
form used.
"""

from .budget import (
    DEFAULT_CANDIDATE_BUDGET,
    DEFAULT_UNIT_DUAL_BUDGET,
    ENV_BUDGET,
    BudgetExceededError,
    parse_budget,
)
from .characters import (
    QuasiCharacterClass,
    conductor_histogram,
    enumerate_unit_dual,
    num_classes_exact,
    num_classes_upto,
)
from .cosets import (
    parabolic_index_closed,
    parabolic_index_enumerated,
)
from .finite_ring import (
    LocalFieldParams,
    MatrixModPM,
    enumerate_gl,
    gl_order,
    is_invertible,
    parabolic_order,
)
from .gl2_dims import (
    GL2Representation,
    KirillovBasisElement,
    PrincipalSeries,
    SteinbergTwist,
    Supercuspidal,
    dim_supercuspidal_lattice,
    dim_supercuspidal_minimal,
    kirillov_basis,
    kirillov_basis_count,
    kirillov_groups,
    twisted_conductor_minimal,
)
from .global_bounds import (
    GlobalLevel,
    factorize,
    local_conductor_window,
)
from .representations import (
    ConductorWindow,
    GenericRepresentation,
    ImplausibleConductorWarning,
    SquareIntegrableBlock,
    conductor_window,
    depth_esi,
    depth_supercuspidal_gl2,
    dim_induced_general,
    has_fixed_vector,
    has_fixed_vector_depth,
    has_fixed_vector_esi,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ConductorWindow",
    "DEFAULT_CANDIDATE_BUDGET",
    "DEFAULT_UNIT_DUAL_BUDGET",
    "ENV_BUDGET",
    "GL2Representation",
    "GenericRepresentation",
    "GlobalLevel",
    "ImplausibleConductorWarning",
    "KirillovBasisElement",
    "LocalFieldParams",
    "MatrixModPM",
    "PrincipalSeries",
    "QuasiCharacterClass",
    "SquareIntegrableBlock",
    "SteinbergTwist",
    "Supercuspidal",
    "conductor_histogram",
    "conductor_window",
    "depth_esi",
    "depth_supercuspidal_gl2",
    "dim_induced_general",
    "dim_supercuspidal_lattice",
    "dim_supercuspidal_minimal",
    "enumerate_gl",
    "enumerate_unit_dual",
    "factorize",
    "gl_order",
    "has_fixed_vector",
    "has_fixed_vector_depth",
    "has_fixed_vector_esi",
    "is_invertible",
    "kirillov_basis",
    "kirillov_basis_count",
    "kirillov_groups",
    "local_conductor_window",
    "num_classes_exact",
    "num_classes_upto",
    "parabolic_index_closed",
    "parabolic_index_enumerated",
    "parabolic_order",
    "parse_budget",
    "twisted_conductor_minimal",
]
