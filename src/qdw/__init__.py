"""Exact workbench for finite-group lattice gauge models with boundaries."""

from qdw.classify import (
    anyon_table,
    boundary_excitations,
    boundary_types,
    defect_list,
    lagrangian_algebra,
    qudit_dimension,
    symmetry_action,
)
from qdw.groups import (
    FiniteGroup,
    InvariantError,
    Subgroup,
    build_group,
    character_table,
    double_cosets,
    enumerate_subgroups,
)
from qdw.lattice import (
    Lattice,
    audit_commutation,
    build_terms,
    carve_hole,
    ground_space_dimension,
    patch,
    ring,
    torus,
)
from qdw.logical import (
    AbelianGroundSpace,
    StringOperator,
    charge_projectors,
    charge_string,
    flux_string,
    logical_action,
    logical_algebra,
    loop_operator,
    rim_loop,
    tunnel_operator,
)
from qdw.verify import check_names, run_check, verify_group

__version__ = "0.1.0"

__all__ = [
    "AbelianGroundSpace",
    "FiniteGroup",
    "InvariantError",
    "Lattice",
    "StringOperator",
    "Subgroup",
    "anyon_table",
    "audit_commutation",
    "boundary_excitations",
    "boundary_types",
    "build_group",
    "build_terms",
    "carve_hole",
    "character_table",
    "charge_projectors",
    "charge_string",
    "check_names",
    "defect_list",
    "double_cosets",
    "enumerate_subgroups",
    "flux_string",
    "ground_space_dimension",
    "lagrangian_algebra",
    "logical_action",
    "logical_algebra",
    "loop_operator",
    "patch",
    "qudit_dimension",
    "rim_loop",
    "ring",
    "run_check",
    "symmetry_action",
    "torus",
    "tunnel_operator",
    "verify_group",
    "__version__",
]
