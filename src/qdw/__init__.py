"""Exact workbench for finite-group lattice gauge models with boundaries.

The names below are exported lazily (PEP 562): `import qdw` loads no
layer, and each name or submodule is imported when it is first read, so
a command pays only for the layers it reaches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qdw.characters": ("character_table",),
    "qdw.classify": ("boundary_excitations", "defect_list", "qudit_dimension", "symmetry_action"),
    "qdw.geometry": ("Lattice", "carve_hole", "parse_lattice", "patch",
                     "resolve_region_subgroups", "ring", "torus"),
    "qdw.groups": ("FiniteGroup", "InvariantError", "Subgroup", "build_group",
                   "double_cosets", "parse_subgroup"),
    "qdw.gsd": ("ground_space_dimension",),
    "qdw.lattice": ("audit_commutation", "build_terms"),
    "qdw.logical": ("AbelianGroundSpace", "StringOperator", "charge_projectors",
                    "charge_string", "flux_string", "logical_action", "logical_algebra",
                    "loop_operator", "rim_loop", "tunnel_operator"),
    "qdw.sectors": ("anyon_table", "lagrangian_algebra"),
    "qdw.subgroups": ("boundary_types", "enumerate_automorphisms", "enumerate_subgroups"),
    "qdw.verify": ("check_names", "run_check", "verify_group"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("characters", "classify", "cli", "flat", "formats", "geometry", "groups", "gsd",
               "lattice", "logical", "records", "sectors", "subgroups", "verify")

__all__ = sorted(_SOURCE) + ["__version__"]


def _resolver(module: str):
    """The `__getattr__` of a module that names are read off after they
    moved out of it: a package export resolves through `_EXPORTS`, so
    reading one imports its layer, and any other name raises."""
    def __getattr__(name: str):
        if name not in _SOURCE:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(_SOURCE[name]), name)
    return __getattr__


_resolve_export = _resolver(__name__)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    return _resolve_export(name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_SUBMODULES))
