"""Exact workbench for finite-group lattice gauge models with boundaries.

The names below are exported lazily (PEP 562): `import qdw` loads no
layer, and each name or submodule is imported when it is first read, so
a command pays only for the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qdw.classify": ("anyon_table", "boundary_excitations", "boundary_types",
                     "defect_list", "lagrangian_algebra", "qudit_dimension",
                     "symmetry_action"),
    "qdw.geometry": ("Lattice", "carve_hole", "patch", "ring", "torus"),
    "qdw.groups": ("FiniteGroup", "InvariantError", "Subgroup", "build_group",
                   "character_table", "double_cosets", "enumerate_subgroups"),
    "qdw.lattice": ("audit_commutation", "build_terms", "ground_space_dimension"),
    "qdw.logical": ("AbelianGroundSpace", "StringOperator", "charge_projectors",
                    "charge_string", "flux_string", "logical_action", "logical_algebra",
                    "loop_operator", "rim_loop", "tunnel_operator"),
    "qdw.verify": ("check_names", "run_check", "verify_group"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("classify", "cli", "geometry", "groups", "lattice", "logical", "records",
               "verify")

__all__ = sorted(_SOURCE) + ["__version__"]


def __getattr__(name: str):
    if name in _SOURCE:
        return getattr(importlib.import_module(_SOURCE[name]), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_SUBMODULES))
