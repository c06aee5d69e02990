"""Command-line runner: one deterministic report per invocation.

Reports are value-stable: the same configuration and version always
produce the same bytes on stdout, so runs can be diffed.  Wall-clock
timing goes to stderr (and into the pretty format) only.

Each run is one process, so start-up is part of every answer.  Only the
group layer is imported here; the sector, check, geometry, lattice and
logical layers are imported inside the handlers that reach them, and
their names read off this module resolve through `__getattr__`, by the
package's table of lazy exports (`qdw._EXPORTS`).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import re
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from qdw import _SOURCE
from qdw.groups import (
    DEFAULT_TOLERANCE,
    MAX_SUBGROUP_ENUM_ORDER,
    FiniteGroup,
    InvariantError,
    Subgroup,
    _is_json_int,
    _root_of_unity,
    build_group,
    character_table,
    enumerate_subgroups,
)
from qdw.records import FrozenRecord, Record

if TYPE_CHECKING:
    from qdw.geometry import Lattice

__all__ = ["RunConfig", "Report", "main", "run"]


def __getattr__(name: str):
    """A package export read off this module, such as `cli.build_terms` in the
    benchmark's traced handlers, resolves through the package's own table,
    so reading one imports its layer."""
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_SOURCE[name]), name)


EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

class UsageError(ValueError):
    """Bad flags or specs; maps to exit status 2."""


# ---------------------------------------------------------------------------
# run configuration


class RunConfig(FrozenRecord):
    _fields = __slots__ = ("command", "group", "subgroup", "subgroup2", "lattice", "format",
                           "tolerance", "out", "inject_literal_edge")

    def __init__(self, command: str, group: Optional[str] = None,
                 subgroup: Optional[str] = None, subgroup2: Optional[str] = None,
                 lattice: Optional[str] = None, format: str = "json",
                 tolerance: float = DEFAULT_TOLERANCE, out: Optional[str] = None,
                 inject_literal_edge: Optional[str] = None):
        super().__init__(command, group, subgroup, subgroup2, lattice, format, tolerance,
                         out, inject_literal_edge)

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = sorted(set(data) - set(cls._fields))
        if unknown:
            raise UsageError(f"unknown config fields: {', '.join(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.command not in COMMAND_TABLE:
            raise UsageError(f"unknown command {self.command!r}")
        if self.format not in ("json", "csv", "pretty-table"):
            raise UsageError(f"unknown format {self.format!r}")
        if not self.tolerance > 0:
            raise UsageError("--tolerance must be positive")


class Report(Record):
    """`checks` holds {"name": ..., "status": "pass" | "skip" | "fail"} per check."""
    _fields = __slots__ = ("config", "results", "checks", "elapsed_ms")

    def __init__(self, config: RunConfig, results: dict, checks: list[dict],
                 elapsed_ms: float = 0.0):
        super().__init__(config, results, checks, elapsed_ms)

    @property
    def ok(self) -> bool:
        return all(c["status"] != "fail" for c in self.checks)

    def to_payload(self) -> dict:
        # timings are deliberately absent: stdout bytes must not vary
        return {
            "command": self.config.command,
            "config": self.config.to_dict(),
            "results": self.results,
            "checks": self.checks,
        }


# ---------------------------------------------------------------------------
# spec parsing


def _split_outside_parens(text: str) -> list[str]:
    parts, cur, depth = [], [], 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_subgroup(group: FiniteGroup, spec: str) -> Subgroup:
    """Preset ("trivial", "full", "cyclic:<element>") or an element list."""
    text = spec.strip()
    if not text:
        raise UsageError("empty subgroup spec")
    if text == "trivial":
        return group.trivial_subgroup()
    if text == "full":
        return group.full_subgroup()
    if text.startswith("cyclic:"):
        name = text[len("cyclic:"):].strip()
        return group.generated_subgroup({group.index_of(name)})
    try:
        members = [group.index_of(nm) for nm in _split_outside_parens(text)]
        return group.subgroup(members)
    except ValueError as exc:
        raise UsageError(f"bad subgroup spec {spec!r}: {exc}") from None


_LATTICE_RE = re.compile(r"^(torus|patch):(\d+)x(\d+)$|^ring:(\d+)$")


def parse_lattice(spec: str) -> tuple[Lattice, dict[str, str]]:
    """Lattice spec plus any per-region subgroup presets it carries.

    Accepts "torus:RxC", "patch:RxC", "ring:C", or a JSON object
    {"kind", "rows"/"cols", "holes": [{"name", "faces"}], "subgroups"}.
    """
    from qdw.geometry import carve_hole, patch, ring, torus

    text = spec.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad lattice JSON: {exc}") from None
        unknown = sorted(set(data) - {"kind", "rows", "cols", "holes", "subgroups"})
        if unknown:
            raise UsageError(f"unknown lattice fields: {', '.join(unknown)}")
        holes = data.get("holes", [])
        if not (isinstance(holes, list) and all(isinstance(h, dict) for h in holes)):
            raise UsageError(f"lattice 'holes' must be a list of objects, got {holes}")
        kind = data.get("kind")
        try:
            if kind not in ("torus", "patch", "ring"):
                raise UsageError(f"unknown lattice kind {kind!r}")
            sizes = [data[k] for k in (("cols",) if kind == "ring" else ("rows", "cols"))]
            if not all(_is_json_int(x) for x in sizes):
                raise UsageError(f"lattice sizes must be integers, got {sizes}")
            lat = {"torus": torus, "patch": patch, "ring": ring}[kind](*sizes)
            for hole in holes:
                extra = sorted(set(hole) - {"name", "faces"})
                if extra:
                    raise UsageError(f"unknown hole fields: {', '.join(extra)}")
                faces = hole["faces"]
                if not (isinstance(faces, list)
                        and all(isinstance(f, str) or _is_json_int(f) for f in faces)):
                    raise UsageError(f"hole faces must be a list of face names or "
                                     f"indices, got {faces}")
                lat = carve_hole(lat, faces, str(hole["name"]))
        except (KeyError, TypeError) as exc:
            raise UsageError(f"bad lattice JSON: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"bad lattice spec: {exc}") from None
        subs = data.get("subgroups", {})
        if not isinstance(subs, dict):
            raise UsageError("lattice 'subgroups' must map region names to specs")
        return lat, {str(k): str(v) for k, v in subs.items()}
    m = _LATTICE_RE.match(text)
    if not m:
        raise UsageError(
            f"bad lattice spec {spec!r}; use torus:RxC, patch:RxC, ring:C, or JSON")
    try:
        if m.group(4) is not None:
            return ring(int(m.group(4))), {}
        rows, cols = int(m.group(2)), int(m.group(3))
        return (torus if m.group(1) == "torus" else patch)(rows, cols), {}
    except ValueError as exc:
        raise UsageError(f"bad lattice spec: {exc}") from None


def resolve_region_subgroups(group: FiniteGroup, lat: Lattice, cfg: RunConfig,
                             json_specs: dict[str, str],
                             default: Optional[str] = None) -> dict[str, Subgroup]:
    """Assign one subgroup per boundary region.

    JSON lattice entries win; --subgroup/--subgroup2 fill the remaining
    regions in lattice order; `default` (if given) covers the rest.
    """
    names = [r.name for r in lat.regions]
    for key in json_specs:
        if key not in names:
            raise UsageError(f"lattice has no region named {key!r}")
    specs = dict(json_specs)
    flags = iter(f for f in (cfg.subgroup, cfg.subgroup2) if f is not None)
    for name in names:
        if name not in specs:
            nxt = next(flags, None)
            if nxt is None:
                break
            specs[name] = nxt
    if next(flags, None) is not None:
        raise UsageError("more subgroup flags than unassigned boundary regions")
    missing = [n for n in names if n not in specs]
    if missing and default is not None:
        for n in missing:
            specs[n] = default
        missing = []
    if missing:
        raise UsageError(
            f"no subgroup given for region(s) {', '.join(missing)}; "
            "use --subgroup/--subgroup2 or a lattice JSON 'subgroups' map")
    return {n: parse_subgroup(group, specs[n]) for n in names}


def _require(cfg: RunConfig, *flag_names: str) -> None:
    for flag in flag_names:
        if getattr(cfg, flag.replace("-", "_")) is None:
            raise UsageError(f"{cfg.command} needs --{flag}")


# ---------------------------------------------------------------------------
# command handlers; each returns (results, flat_table | None, checks | None),
# where checks None means every validator the command table names passed

Flat = Optional[tuple[list[str], list[list]]]
Checks = Optional[list[dict]]


def _round12(x: float) -> float:
    # 12 digits of display rounding; + 0.0 folds -0.0 into 0.0
    return round(float(x), 12) + 0.0


def _complex_pair(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


def _matrix_pairs(m: Sequence[Sequence[complex]]) -> list[list[float]]:
    return [_complex_pair(z) for row in m for z in row]


def _cmd_group_info(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    group = build_group(cfg.group)
    table = character_table(group)
    classes = [{
        "representative": group.name_of(c.rep),
        "size": len(c.members),
        "members": [group.name_of(m) for m in c.members],
    } for c in group.conjugacy_classes()]
    results = {
        "label": group.label,
        "order": group.order,
        "abelian": group.is_abelian,
        "elements": list(group.names),
        "conjugacy_classes": classes,
        "irrep_dims": [int(d) for d in table.dims],
    }
    if group.order <= MAX_SUBGROUP_ENUM_ORDER:
        results["subgroup_count"] = len(enumerate_subgroups(group))
    return results, None, None


def _cmd_anyons(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import anyon_table

    group = build_group(cfg.group)
    table = anyon_table(group)
    rows = []
    body = []
    for a in table.anyons:
        flux = group.name_of(table.classes[a.class_index].rep)
        rows.append({
            "name": a.name,
            "flux_class": flux,
            "irrep": a.irrep_index,
            "dim": a.dim,
            "twist": _complex_pair(a.twist),
        })
        body.append([a.name, flux, a.irrep_index, a.dim,
                     _round12(a.twist.real), _round12(a.twist.imag)])
    results = {
        "group": group.label,
        "count": len(table),
        "total_dim_squared": sum(a.dim ** 2 for a in table.anyons),
        "anyons": rows,
    }
    header = ["name", "flux_class", "irrep", "dim", "twist_re", "twist_im"]
    return results, (header, body), None


def _cmd_subgroups(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import boundary_types

    group = build_group(cfg.group)
    subs = enumerate_subgroups(group)
    types = boundary_types(group)
    class_of = {}
    for ti, bt in enumerate(types):
        for member in bt.members:
            class_of[member.elements] = ti
    rows = []
    body = []
    for i, sub in enumerate(subs):
        names = [group.name_of(x) for x in sub.elements]
        rows.append({
            "index": i,
            "order": sub.order,
            "elements": names,
            "normal": sub.is_normal(),
            "boundary_type": class_of[sub.elements],
        })
        body.append([i, sub.order, ";".join(names), sub.is_normal(),
                     class_of[sub.elements]])
    results = {"group": group.label, "count": len(subs),
               "boundary_type_count": len(types), "subgroups": rows}
    header = ["index", "order", "elements", "normal", "boundary_type"]
    return results, (header, body), None


def _cmd_lagrangian(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import lagrangian_algebra

    group = build_group(cfg.group)
    _require(cfg, "subgroup")
    sub = parse_subgroup(group, cfg.subgroup)
    la = lagrangian_algebra(group, sub)
    body = [[a.name, m, a.dim]
            for a, m in zip(la.table.anyons, la.multiplicities)]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in sub.elements],
        "multiplicities": list(la.multiplicities),
        "sectors": [a.name for a in la.table.anyons],
        "condensed": [{"sector": a.name, "multiplicity": m, "dim": a.dim}
                      for a, m in zip(la.table.anyons, la.multiplicities) if m],
        "weighted_dimension": sum(m * a.dim for a, m in
                                  zip(la.table.anyons, la.multiplicities)),
    }
    return results, (["sector", "multiplicity", "dim"], body), None


def _cmd_excitations(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import boundary_excitations

    group = build_group(cfg.group)
    _require(cfg, "subgroup")
    sub = parse_subgroup(group, cfg.subgroup)
    excs = boundary_excitations(sub)
    rows = [{"name": x.name, "coset": x.coset_index, "irrep": x.irrep_index,
             "dim": x.dim} for x in excs]
    body = [[x.name, x.coset_index, x.irrep_index, x.dim] for x in excs]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in sub.elements],
        "count": len(excs),
        "total_dim_squared": sum(x.dim ** 2 for x in excs),
        "excitations": rows,
    }
    return results, (["name", "coset", "irrep", "dim"], body), None


def _cmd_defects(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import defect_list

    group = build_group(cfg.group)
    _require(cfg, "subgroup", "subgroup2")
    k1 = parse_subgroup(group, cfg.subgroup)
    k2 = parse_subgroup(group, cfg.subgroup2)
    defs = defect_list(k1, k2)
    rows = [{"name": x.name, "coset": x.coset_index, "irrep": x.irrep_index,
             "dim_squared": [x.dim_squared.numerator, x.dim_squared.denominator],
             "dim": x.dim} for x in defs]
    body = [[x.name, x.coset_index, x.irrep_index,
             f"{x.dim_squared.numerator}/{x.dim_squared.denominator}", x.dim]
            for x in defs]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in k1.elements],
        "subgroup2": [group.name_of(x) for x in k2.elements],
        "count": len(defs),
        "total_dim_squared": int(sum(x.dim_squared for x in defs)),
        "defects": rows,
    }
    return results, (["name", "coset", "irrep", "dim_squared", "dim"], body), None


def _cmd_qudit_dim(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.classify import qudit_dimension

    group = build_group(cfg.group)
    _require(cfg, "subgroup", "subgroup2")
    k1 = parse_subgroup(group, cfg.subgroup)
    k2 = parse_subgroup(group, cfg.subgroup2)
    d = qudit_dimension(group, k1, k2)
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in k1.elements],
        "subgroup2": [group.name_of(x) for x in k2.elements],
        "dimension": d,
    }
    return results, (["dimension"], [[d]]), None


def _lattice_context(cfg: RunConfig, default: Optional[str] = None):
    group = build_group(cfg.group)
    _require(cfg, "lattice")
    lat, json_specs = parse_lattice(cfg.lattice)
    subs = resolve_region_subgroups(group, lat, cfg, json_specs, default)
    return group, lat, subs


def _cmd_lattice_audit(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.lattice import (HamiltonianTerm, audit_commutation, build_terms,
                             literal_gauge_edge_term)

    group, lat, subs = _lattice_context(cfg)
    terms = build_terms(lat, group, subs)
    if cfg.inject_literal_edge is not None:
        e = lat.edge_index(cfg.inject_literal_edge)
        region = lat.edge_region[e][0] if e in lat.edge_region else None
        sub = subs[region] if region is not None else group.full_subgroup()
        if sub.order == 1:
            where = "the bulk" if region is None else f"region {region!r}"
            raise ValueError(f"--inject-literal-edge {lat.edge_names[e]}: {where} has "
                             "trivial K, so the literal term is the identity")
        terms = terms + [HamiltonianTerm(
            name=f"L({lat.edge_names[e]})", kind="literal",
            op=literal_gauge_edge_term(group, e, sub), edges=(e,),
            diagonal=False, region=region)]
    rep = audit_commutation(terms, group.order)
    results = {
        "group": group.label,
        "lattice": cfg.lattice,
        "regions": {r.name: [group.name_of(x) for x in subs[r.name].elements]
                    for r in lat.regions},
        "term_count": len(terms),
        "pairs_checked": len(rep.pair_checks),
        "pairs_skipped_disjoint": rep.skipped_pairs,
        "ok": rep.ok,
        "failures": rep.failures(),
    }
    verdicts = {
        "term-projector": all(t.is_projector for t in rep.term_checks),
        "term-hermitian": all(t.is_hermitian for t in rep.term_checks),
        "pairwise-commutation": all(p.commutes for p in rep.pair_checks),
    }
    return results, None, [{"name": name, "status": "pass" if ok else "fail"}
                           for name, ok in verdicts.items()]


def _cmd_gsd(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.lattice import ground_space_dimension

    group, lat, subs = _lattice_context(cfg)
    rep = ground_space_dimension(lat, group, subs)
    results = {
        "group": group.label,
        "lattice": cfg.lattice,
        "regions": {r.name: [group.name_of(x) for x in subs[r.name].elements]
                    for r in lat.regions},
        "dimension": rep.value,
        "by_method": dict(sorted(rep.by_method.items())),
        "skipped_methods": sorted(rep.skipped),
    }
    # one route has nothing to agree with
    checks = None if len(rep.by_method) > 1 else [{"name": "gsd-route-agreement",
                                                    "status": "skip"}]
    return results, (["dimension"], [[rep.value]]), checks


def _hole_encoding(cfg: RunConfig):
    """Qudit on the first two charge-condensing regions, loop on the first."""
    from qdw.logical import (AbelianGroundSpace, logical_algebra, loop_operator,
                             tunnel_operator)

    group, lat, subs = _lattice_context(cfg, default="trivial")
    condensing = [r.name for r in lat.regions if subs[r.name].order == 1]
    if len(condensing) < 2:
        raise UsageError(
            "the hole encoding needs two regions with the trivial subgroup")
    ags = AbelianGroundSpace(lat, group, subs)
    x = tunnel_operator(ags, condensing[0], condensing[1])
    z = loop_operator(ags, condensing[0])
    qud = logical_algebra(ags, x, z)
    return group, qud, condensing[:2]


def _relation_rows(qud) -> list[dict]:
    rows = []
    for lhs, rhs, turns in qud.relation_report():
        phase = _root_of_unity(turns.numerator, turns.denominator)
        rows.append({"lhs": lhs, "rhs": rhs, "phase": _complex_pair(phase),
                     "turns": f"{turns.numerator}/{turns.denominator}"})
    return rows


def _cmd_logical(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    group, qud, holes = _hole_encoding(cfg)
    ops = [("X", qud.x_action), ("Z", qud.z_action)]
    for name, act in ops:
        if not act.is_unitary():
            raise InvariantError(f"logical {name} is not unitary")
    results = {
        "encoding": {"group": group.label, "holes": holes, "d": qud.d},
        "operators": [{"name": name, "matrix": _matrix_pairs(act.matrix())}
                      for name, act in ops],
        "relations": _relation_rows(qud),
    }
    return results, None, None


def _cmd_charge_project(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.logical import charge_projectors

    group, qud, holes = _hole_encoding(cfg)
    fam = charge_projectors(qud, holes[0])
    results = {
        "encoding": {"group": group.label, "holes": holes, "d": qud.d},
        "loop_region": holes[0],
        "labels": [[f, q] for f, q in fam.labels],
        "projectors": [{"label": [f, q],
                        "trace": _round12(p.trace()),
                        "matrix": _matrix_pairs(p.matrix())}
                       for (f, q), p in zip(fam.labels, fam.projectors)],
        "selected": [{"label": [f, q], "state": s}
                     for (f, q), s in sorted(fam.selected.items())],
    }
    return results, None, None


def _cmd_verify_all(cfg: RunConfig) -> tuple[dict, Flat, Checks]:
    from qdw.verify import verify_group

    group = build_group(cfg.group)
    outcomes = verify_group(group, cfg.tolerance)
    results = {
        "group": group.label,
        "checks": [{"name": r.name, "status": r.status, "detail": r.detail}
                   for r in outcomes],
        "failed": sorted(r.name for r in outcomes if r.status == "fail"),
    }
    return results, None, [{"name": r.name, "status": r.status}
                           for r in outcomes if r.status != "skip"]


class Command(FrozenRecord):
    """A command's handler, its help text, and the validations behind its numbers."""
    _fields = __slots__ = ("handler", "help", "validators")

    def __init__(self, handler, help: str, validators: tuple[str, ...] = ()):
        super().__init__(handler, help, validators)


COMMAND_TABLE = {
    "group-info": Command(_cmd_group_info, "elements, classes, and irrep dimensions of a group",
                          ("character-orthogonality",)),
    "anyons": Command(_cmd_anyons, "bulk sector census of the chosen group",
                      ("sector-square-sum", "twist-unimodular")),
    "subgroups": Command(_cmd_subgroups, "all subgroups with normality and boundary type",
                         ("subgroup-closure",)),
    "lagrangian": Command(_cmd_lagrangian, "condensate multiplicities for one boundary subgroup",
                          ("condensate-dimension", "vacuum-multiplicity", "boson-support")),
    "excitations": Command(_cmd_excitations, "boundary excitation census for one subgroup",
                           ("excitation-square-sum",)),
    "defects": Command(_cmd_defects, "domain-wall defects between two boundary subgroups",
                       ("defect-square-sum",)),
    "qudit-dim": Command(_cmd_qudit_dim, "strip ground-state count between two boundaries",
                         ("strip-route-agreement",)),
    "lattice-audit": Command(_cmd_lattice_audit,
                             "projector and commutation audit of all lattice terms",
                             ("term-projector", "term-hermitian", "pairwise-commutation")),
    "gsd": Command(_cmd_gsd, "ground-state count of a lattice, cross-checked routes",
                   ("gsd-route-agreement",)),
    "logical": Command(_cmd_logical, "Weyl pair report for a two-hole qudit encoding",
                       ("weyl-relations", "frame-transport", "operator-unitarity")),
    "charge-project": Command(_cmd_charge_project,
                              "anyon charge projector family around one hole",
                              ("projector-completeness", "projector-orthogonality",
                               "projector-idempotence", "frame-diagonality")),
    # its checks are the named cross-checks it runs
    "verify-all": Command(_cmd_verify_all,
                          "run every applicable named cross-check for a group"),
}
COMMANDS = tuple(COMMAND_TABLE)
VALIDATORS = {name: c.validators for name, c in COMMAND_TABLE.items() if c.validators}


# ---------------------------------------------------------------------------
# output rendering


def render_json(report: Report) -> str:
    return json.dumps(report.to_payload(), indent=2, sort_keys=True) + "\n"


def render_csv(flat: tuple[list[str], list[list]]) -> str:
    import csv

    header, rows = flat
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _format_cell(x) -> str:
    if isinstance(x, float):
        return f"{x:.10g}"
    if isinstance(x, bool):
        return "yes" if x else "no"
    return str(x)


def render_pretty(report: Report, flat: Flat) -> str:
    lines = [f"command: {report.config.command}"]
    cfg = report.config
    for key in ("group", "subgroup", "subgroup2", "lattice"):
        val = getattr(cfg, key)
        if val is not None:
            lines.append(f"{key}: {val}")
    lines.append("")
    if flat is not None:
        header, rows = flat
        cells = [header] + [[_format_cell(x) for x in row] for row in rows]
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        for ri, row in enumerate(cells):
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
            if ri == 0:
                lines.append("  ".join("-" * w for w in widths))
    else:
        lines.append(json.dumps(report.results, indent=2, sort_keys=True))
    lines.append("")
    status = "ok" if report.ok else "FAILED"
    names = ", ".join(c["name"] + (" (skip)" if c["status"] == "skip" else "")
                      for c in report.checks) or "none"
    lines.append(f"checks ({status}): {names}")
    lines.append(f"elapsed: {report.elapsed_ms:.1f} ms")
    return "\n".join(lines) + "\n"


def render(report: Report, flat: Flat) -> str:
    if report.config.format == "json":
        return render_json(report)
    if report.config.format == "csv":
        if flat is None:
            raise UsageError(
                f"{report.config.command} results are nested; csv needs a flat "
                "table (use json or pretty-table)")
        return render_csv(flat)
    return render_pretty(report, flat)


# ---------------------------------------------------------------------------
# argument parsing and entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # argparse default exits; route through UsageError
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdw",
        description="Exact workbench for finite-group lattice models "
                    "with gapped boundaries.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    # the flags every command takes, declared once and copied into each subparser
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", required=True,
                        help="group spec, e.g. cyclic:3, symmetric:3, "
                             "product:cyclic:2,cyclic:2, or a JSON table")
    common.add_argument("--subgroup",
                        help="subgroup spec: element list like \"e,(12)\", or "
                             "trivial | full | cyclic:<element>")
    common.add_argument("--subgroup2", help="second subgroup spec")
    common.add_argument("--lattice",
                        help="torus:RxC | patch:RxC | ring:C | JSON with holes")
    common.add_argument("--format", default="json",
                        choices=("json", "csv", "pretty-table"))
    common.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="numeric tolerance for report-level checks")
    common.add_argument("--out", help="write the report to this file")
    for name, command in COMMAND_TABLE.items():
        p = sub.add_parser(name, help=command.help, parents=[common])
        if name == "lattice-audit":
            p.add_argument("--inject-literal-edge", metavar="EDGE",
                           help="add the naive one-sided edge average on EDGE "
                                "so the audit demonstrably fails")
    return parser


def parse_argv(argv: Sequence[str]) -> RunConfig:
    ns = build_parser().parse_args(list(argv))
    if ns.command is None:
        raise UsageError("missing command")
    return RunConfig.from_dict(vars(ns))


def run(cfg: RunConfig) -> tuple[Report, Flat]:
    t0 = time.perf_counter()
    command = COMMAND_TABLE[cfg.command]
    results, flat, checks = command.handler(cfg)
    if checks is None:
        # reaching here means every library-internal assertion already passed
        checks = [{"name": n, "status": "pass"} for n in command.validators]
    report = Report(config=cfg, results=results, checks=checks,
                    elapsed_ms=(time.perf_counter() - t0) * 1e3)
    return report, flat


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_argv(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, flat = run(cfg)
        text = render(report, flat)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        names = ", ".join(COMMAND_TABLE[cfg.command].validators) or cfg.command
        print(f"invariant failure [{names}]: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    print(f"elapsed: {report.elapsed_ms:.1f} ms", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
