"""Per-job oracles computed through the library, never from stored output.

`expect(job)` derives what a correct run must report; `observe(job,
results)` pulls the same quantities out of a CLI report's `results`
object; `check` compares the two together with the exit status.  Only
`results` fields are read, so a report whose other parts change layout
still checks.  The in-process traced run builds the same observation
dicts directly from library objects.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from qdw.classify import (
    anyon_table,
    boundary_excitations,
    defect_list,
    lagrangian_algebra,
    qudit_dimension,
)
from qdw.groups import FiniteGroup, Subgroup, build_group, enumerate_subgroups

from workloads import Job

EXIT_OK = 0
EXIT_INVARIANT = 1


def _subgroups(group: FiniteGroup, job: Job) -> list[Subgroup]:
    return [Subgroup(group, [group.index_of(x) for x in names])
            for names in job.subgroups]


def expect(job: Job) -> dict:
    """What a correct report of `job` contains, computed independently of its run."""
    group = build_group(job.group)
    subs = _subgroups(group, job)
    n = group.order
    cmd = job.command
    if cmd == "verify-all":
        return {"failed": []}
    if cmd == "anyons":
        return {"count": len(anyon_table(group)), "total_dim_squared": n * n}
    if cmd == "subgroups":
        return {"count": len(enumerate_subgroups(group))}
    if cmd == "lagrangian":
        return {"multiplicities": list(lagrangian_algebra(group, subs[0]).multiplicities),
                "weighted_dimension": n}
    if cmd == "excitations":
        return {"count": len(boundary_excitations(subs[0])), "total_dim_squared": n}
    if cmd == "defects":
        return {"count": len(defect_list(subs[0], subs[1])), "total_dim_squared": n}
    if cmd == "qudit-dim":
        return {"dimension": qudit_dimension(group, subs[0], subs[1])}
    if cmd == "gsd":
        kind = job.lattice.split(":")[0]
        if kind == "torus":
            return {"dimension": len(anyon_table(group))}
        if kind == "patch":
            return {"dimension": 1}
        return {"dimension": qudit_dimension(group, subs[0], subs[1])}
    if cmd == "lattice-audit":
        if job.inject is not None:
            return {"ok": False, "names_pair": True}
        return {"ok": True, "failures": 0}
    if cmd == "logical":
        return {"d": n, "xz_turns": f"1/{n}"}
    if cmd == "charge-project":
        return {"d": n, "trace_sum": n, "selected": n}
    raise ValueError(f"no oracle for command {cmd!r}")


def observe(job: Job, results: dict) -> dict:
    """The quantities `expect` predicts, read from a report's `results`."""
    cmd = job.command
    if cmd == "verify-all":
        return {"failed": results["failed"]}
    if cmd in ("anyons", "excitations", "defects"):
        return {"count": results["count"],
                "total_dim_squared": results["total_dim_squared"]}
    if cmd == "subgroups":
        return {"count": results["count"]}
    if cmd == "lagrangian":
        return {"multiplicities": results["multiplicities"],
                "weighted_dimension": results["weighted_dimension"]}
    if cmd in ("qudit-dim", "gsd"):
        return {"dimension": results["dimension"]}
    if cmd == "lattice-audit":
        if job.inject is not None:
            term = f"L({job.inject})"
            return {"ok": results["ok"],
                    "names_pair": any("pair" in f and term in f
                                      for f in results["failures"])}
        return {"ok": results["ok"], "failures": len(results["failures"])}
    if cmd == "logical":
        xz = [r for r in results["relations"] if r["lhs"] == "X.Z"]
        return {"d": results["encoding"]["d"],
                "xz_turns": xz[0]["turns"] if xz else None}
    if cmd == "charge-project":
        return {"d": results["encoding"]["d"],
                "trace_sum": round(sum(p["trace"] for p in results["projectors"])),
                "selected": len(results["selected"])}
    raise ValueError(f"no observation for command {cmd!r}")


def expected_exit(job: Job) -> int:
    return EXIT_INVARIANT if job.inject is not None else EXIT_OK


def check(job: Job, expected: dict, exit_code: int, stdout: str) -> Optional[str]:
    """None when the run is correct, else a one-line reason."""
    want = expected_exit(job)
    if exit_code != want:
        return f"exit status {exit_code}, expected {want}"
    try:
        results = json.loads(stdout)["results"]
        seen = observe(job, results)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
    return compare(expected, seen)


def compare(expected: dict, seen: dict) -> Optional[str]:
    bad = [f"{k}={seen.get(k)!r} (expected {v!r})"
           for k, v in expected.items() if seen.get(k) != v]
    return "; ".join(bad) or None


def turns_text(turns: Fraction) -> str:
    return f"{turns.numerator}/{turns.denominator}"
