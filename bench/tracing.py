"""In-process traced run: the same jobs, with one span per call into a layer.

Spans wrap the public functions each CLI handler reaches.  The handlers
below call them the way `qdw.cli` does, and `interpose` swaps each
traced function, for the length of the run, for a wrapper that records
a span, in every `qdw` module that imported it.  Calls made inside the
library (say `double_cosets` inside `defect_list`, or `lagrangian_algebra`
inside a verify check) therefore become child spans.  Layer metrics are
self times, which exclude child spans; a verify check's metric is its
whole time.  Nothing under `src/` changes.

Every job builds its group afresh, so no group `_cache` (character
tables, anyon table) carries over from one job to the next, as in a
fresh CLI process.  Spans and counters stay in memory until the run
ends, then go out as JSON lines.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional

from qdw import cli, lattice, logical, verify
from qdw.groups import InvariantError

import oracles
from measure import Round
from workloads import Job

GSD_ROUTES = ("counting", "trace", "dense")

# check_names() at the time the benchmark was defined; one metric each
VERIFY_CHECKS = (
    "sector-census", "condensate-rules", "excitation-sum-rule",
    "defect-sum-rule", "strip-route-agreement", "conjugation-invariance",
    "automorphism-equivariance", "abelian-modular-data", "lattice-audit",
    "gsd-census", "hole-qudit", "charge-readout", "path-deformation",
)


def _per_layer_names() -> list[tuple[str, str]]:
    ms = [
        "groups.build_group", "groups.character_table",
        "groups.enumerate_subgroups", "groups.enumerate_automorphisms",
        "groups.double_cosets",
        "classify.anyon_table", "classify.lagrangian_algebra",
        "classify.boundary_excitations", "classify.defect_list",
        "classify.qudit_dimension", "classify.symmetry_action",
        "classify.abelian_anyon_data",
        "lattice.build", "lattice.build_terms", "lattice.audit",
        "lattice.gsd_counting", "lattice.gsd_trace", "lattice.gsd_dense",
        "logical.ground_space", "logical.strings", "logical.algebra",
        "logical.charge_projectors",
    ]
    counts = [
        "groups.subgroups", "groups.automorphisms", "classify.lagrangian_calls",
        "lattice.terms", "lattice.audit_pairs_checked", "lattice.audit_pairs_skipped",
        "lattice.gsd_routes_run", "lattice.gsd_routes_skipped", "logical.sectors",
        "verify.checks_run", "verify.checks_skipped",
    ]
    return ([("cli.import_s", "s"), ("cli.job_cpu_s", "s")]
            + [(f"{n}_ms", "ms") for n in ms]
            + [(f"verify.check_ms.{c}", "ms") for c in VERIFY_CHECKS]
            + [(n, "count") for n in counts]
            + [("lattice.audit_checked_frac", "ratio"), ("trace.overhead_frac", "ratio")])


PER_LAYER = _per_layer_names()


class Tracer:
    """Spans (name, start, end, parent, job) and named counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []     # [id, name, start_ns, end_ns, parent, job]
        self.counters: dict[str, float] = defaultdict(float)
        self.job: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter_ns(), None,
               self._stack[-1] if self._stack else None, self.job]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] += k

    def times_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self, total) time per span name; self time excludes child spans."""
        child = [0] * len(self.spans)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        total_ms: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            self_ms[name] += (end - start - child[sid]) / 1e6
            total_ms[name] += (end - start) / 1e6
        return self_ms, total_ms

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "job": job}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _count(name: str, size: bool = False) -> Callable:
    return lambda t, result: t.count(name, len(result) if size else 1)


def _audit_counts(t: Tracer, rep) -> None:
    t.count("lattice.audit_pairs_checked", len(rep.pair_checks))
    t.count("lattice.audit_pairs_skipped", rep.skipped_pairs)


# (module, function, span name, counter hook on the result)
TRACED = [
    ("qdw.groups", "build_group", "groups.build_group", None),
    ("qdw.groups", "character_table", "groups.character_table", None),
    ("qdw.groups", "enumerate_subgroups", "groups.enumerate_subgroups",
     _count("groups.subgroups", size=True)),
    ("qdw.groups", "enumerate_automorphisms", "groups.enumerate_automorphisms",
     _count("groups.automorphisms", size=True)),
    ("qdw.groups", "double_cosets", "groups.double_cosets", None),
    ("qdw.classify", "anyon_table", "classify.anyon_table", None),
    ("qdw.classify", "boundary_types", "classify.boundary_types", None),
    ("qdw.classify", "lagrangian_algebra", "classify.lagrangian_algebra",
     _count("classify.lagrangian_calls")),
    ("qdw.classify", "boundary_excitations", "classify.boundary_excitations", None),
    ("qdw.classify", "defect_list", "classify.defect_list", None),
    ("qdw.classify", "qudit_dimension", "classify.qudit_dimension", None),
    ("qdw.classify", "symmetry_action", "classify.symmetry_action", None),
    ("qdw.classify", "abelian_anyon_data", "classify.abelian_anyon_data", None),
    ("qdw.lattice", "torus", "lattice.build", None),
    ("qdw.lattice", "patch", "lattice.build", None),
    ("qdw.lattice", "ring", "lattice.build", None),
    ("qdw.lattice", "carve_hole", "lattice.build", None),
    ("qdw.lattice", "build_terms", "lattice.build_terms", _count("lattice.terms", size=True)),
    ("qdw.lattice", "audit_commutation", "lattice.audit", _audit_counts),
    ("qdw.logical", "tunnel_operator", "logical.strings", None),
    ("qdw.logical", "loop_operator", "logical.strings", None),
    ("qdw.logical", "rim_loop", "logical.strings", None),
    ("qdw.logical", "charge_string", "logical.strings", None),
    ("qdw.logical", "flux_string", "logical.strings", None),
    ("qdw.logical", "logical_algebra", "logical.algebra", None),
    ("qdw.logical", "charge_projectors", "logical.charge_projectors", None),
]


@contextmanager
def interpose(tracer: Tracer):
    """Route every TRACED function through a span while the block runs."""
    patched = []
    try:
        for mod_name, fn_name, span_name, hook in TRACED:
            orig = getattr(importlib.import_module(mod_name), fn_name)

            def wrapper(*args, _orig=orig, _span=span_name, _hook=hook, **kwargs):
                with tracer.span(_span):
                    result = _orig(*args, **kwargs)
                if _hook is not None:
                    _hook(tracer, result)
                return result

            for name, mod in list(sys.modules.items()):
                if (name == "qdw" or name.startswith("qdw.")) and \
                        getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)
                    patched.append((mod, fn_name, orig))
        yield
    finally:
        for mod, fn_name, orig in reversed(patched):
            setattr(mod, fn_name, orig)


# ---------------------------------------------------------------------------
# handlers: the calls each CLI handler makes, returning `results` fields


def _context(cfg, default: Optional[str] = None):
    group = cli.build_group(cfg.group)
    lat, json_specs = cli.parse_lattice(cfg.lattice)
    subs = cli.resolve_region_subgroups(group, lat, cfg, json_specs, default)
    return group, lat, subs


def _subs(cfg, group) -> list:
    return [cli.parse_subgroup(group, s) for s in (cfg.subgroup, cfg.subgroup2)
            if s is not None]


def _census(cfg, t: Tracer) -> dict:
    group = cli.build_group(cfg.group)
    cmd = cfg.command
    if cmd == "anyons":
        table = cli.anyon_table(group)
        return {"count": len(table),
                "total_dim_squared": sum(a.dim ** 2 for a in table.anyons)}
    if cmd == "subgroups":
        subs = cli.enumerate_subgroups(group)
        cli.boundary_types(group)
        return {"count": len(subs)}
    subs = _subs(cfg, group)
    if cmd == "lagrangian":
        la = cli.lagrangian_algebra(group, subs[0])
        return {"multiplicities": list(la.multiplicities),
                "weighted_dimension": sum(m * a.dim for a, m in
                                          zip(la.table.anyons, la.multiplicities))}
    if cmd == "excitations":
        excs = cli.boundary_excitations(subs[0])
        return {"count": len(excs), "total_dim_squared": sum(x.dim ** 2 for x in excs)}
    if cmd == "defects":
        defs = cli.defect_list(subs[0], subs[1])
        return {"count": len(defs),
                "total_dim_squared": int(sum(x.dim_squared for x in defs))}
    return {"dimension": cli.qudit_dimension(group, subs[0], subs[1])}


def _verify_all(cfg, t: Tracer) -> dict:
    group = cli.build_group(cfg.group)
    failed = []
    for name in verify.check_names():
        with t.span(f"verify.check:{name}"):
            try:
                status = verify.run_check(name, group, cfg.tolerance).status
            except InvariantError:
                status = "fail"
        t.count("verify.checks_skipped" if status == "skip" else "verify.checks_run")
        if status == "fail":
            failed.append(name)
    return {"failed": sorted(failed)}


def _gsd(cfg, t: Tracer) -> dict:
    group, lat, subs = _context(cfg)
    values = {}
    for route in GSD_ROUTES:
        with t.span(f"lattice.gsd_{route}"):
            try:
                values[route] = lattice.ground_space_dimension(
                    lat, group, subs, methods=(route,)).value
            except ValueError as exc:
                if "budget" not in str(exc):
                    raise
        t.count("lattice.gsd_routes_run" if route in values else "lattice.gsd_routes_skipped")
    dims = sorted(set(values.values()))
    return {"dimension": dims[0] if len(dims) == 1 else dims}


def _audit(cfg, t: Tracer) -> dict:
    group, lat, subs = _context(cfg)
    terms = cli.build_terms(lat, group, subs)
    if cfg.inject_literal_edge is not None:
        e = lat.edge_index(cfg.inject_literal_edge)
        region = next((r.name for r in lat.regions
                       if e in r.rim_edges or e in r.dangling_edges), None)
        sub = subs[region] if region is not None else group.full_subgroup()
        terms = terms + [lattice.HamiltonianTerm(
            name=f"L({lat.edge_names[e]})", kind="literal",
            op=lattice.literal_gauge_edge_term(group, e, sub), edges=(e,),
            diagonal=False, region=region)]
    rep = cli.audit_commutation(terms, group.order)
    return {"ok": rep.ok, "failures": rep.failures()}


def _hole_qudit(cfg, t: Tracer):
    group, lat, subs = _context(cfg, default="trivial")
    holes = [r.name for r in lat.regions if subs[r.name].order == 1][:2]
    with t.span("logical.ground_space"):
        ags = logical.AbelianGroundSpace(lat, group, subs)
    t.count("logical.sectors", ags.dimension)
    x = cli.tunnel_operator(ags, holes[0], holes[1])
    z = cli.loop_operator(ags, holes[0])
    return cli.logical_algebra(ags, x, z), holes


def _logical(cfg, t: Tracer) -> dict:
    qud, _ = _hole_qudit(cfg, t)
    qud.x_action.matrix()
    qud.z_action.matrix()
    relations = [{"lhs": lhs, "rhs": rhs, "turns": oracles.turns_text(turns)}
                 for lhs, rhs, turns in qud.relation_report()]
    return {"encoding": {"d": qud.d}, "relations": relations}


def _charge_project(cfg, t: Tracer) -> dict:
    qud, holes = _hole_qudit(cfg, t)
    fam = cli.charge_projectors(qud, holes[0])
    return {"encoding": {"d": qud.d},
            "projectors": [{"trace": float(p.trace().real)} for p in fam.projectors],
            "selected": list(fam.selected)}


HANDLERS = {
    "anyons": _census, "subgroups": _census, "lagrangian": _census,
    "excitations": _census, "defects": _census, "qudit-dim": _census,
    "verify-all": _verify_all, "gsd": _gsd, "lattice-audit": _audit,
    "logical": _logical, "charge-project": _charge_project,
}


def run_traced(jobs: list[Job], expected: list[dict], tracer: Tracer) -> tuple[float, list]:
    """Each job once in process; returns (traced total in s, failure reasons)."""
    failures = []
    total_ns = 0
    with interpose(tracer):
        for job, exp in zip(jobs, expected):
            tracer.job = job.id
            t0 = time.perf_counter_ns()
            try:
                with tracer.span("job"):
                    cfg = cli.parse_argv(job.argv)
                    results = HANDLERS[job.command](cfg, tracer)
                failures.append(oracles.compare(exp, oracles.observe(job, results)))
            except Exception as exc:    # a broken job is a counted failure, not a crash
                failures.append(f"{type(exc).__name__}: {exc}")
            total_ns += time.perf_counter_ns() - t0
            tracer.job = None
    return total_ns / 1e9, failures


def per_layer(tracer: Tracer, traced_s: float, untraced: Round) -> dict:
    """Every PER_LAYER metric as (value, unit)."""
    self_ms, total_ms = tracer.times_ms()
    c = tracer.counters
    setup = statistics.median(untraced.probes_s)
    work = untraced.job_wall_s - setup * len(untraced.jobs)
    pairs = c["lattice.audit_pairs_checked"] + c["lattice.audit_pairs_skipped"]
    special = {
        "cli.import_s": setup,
        "cli.job_cpu_s": statistics.median(j.spawn.cpu_s for j in untraced.jobs),
        "lattice.audit_checked_frac": c["lattice.audit_pairs_checked"] / pairs if pairs else 0.0,
        "trace.overhead_frac": traced_s / work - 1.0,
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.startswith("verify.check_ms."):
            # a check's whole time, including the layer spans nested in it
            value = total_ms.get("verify.check:" + name[len("verify.check_ms."):], 0.0)
        elif unit == "ms":
            value = self_ms.get(name[:-len("_ms")], 0.0)
        else:
            value = c.get(name, 0)
        out[name] = (value, unit)
    return out
