"""Seeded job lists for the two benchmark workloads.

`algebra` runs two job families, census (verify-all and the
sector-census commands) and logical (logical and charge-project);
`lattice` runs the gsd and audit families.  A job is one `qdw` command
line.  The generator draws every free choice (boundary subgroups, hole
positions, preset or relabelled group table, which audits get a
sabotaged edge) from `random.Random(f"{workload}:{seed}")`, so the same
seed always gives a byte-identical list; `job_list_hash` fingerprints it
for the result record.

Each workload keeps a fixed skeleton (which groups, which lattice sizes,
how many jobs of each kind) and lets the seed vary only choices of
similar cost, so that different seeds time the same amount of work.
The heaviest jobs always use the preset: a relabelling reorders the
counting search and moves its time by up to a third.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Optional

from qdw.groups import FiniteGroup, build_group, enumerate_subgroups

# Why each workload exists, one line each (the same lines are in BENCHMARK.json).
WHY = {
    "algebra": "sector-census, verify-all, logical and charge-project commands:"
               " groups, classify, verify and logical do the work, no GSD route"
               " or audit runs",
    "lattice": "gsd and lattice-audit on small tori, patches and rings: GSD"
               " enumeration (with its 423 MB peak), Hamiltonian terms and exact"
               " Operator algebra do the work",
}

WORKLOADS = tuple(WHY)

CENSUS_VERIFY = ("symmetric:4", "cyclic:9")
CENSUS_GROUPS = ("dihedral:5", "dihedral:6", "cyclic:12", "symmetric:4",
                 "product:cyclic:2,symmetric:3", "cyclic:9")
CENSUS_COMMANDS = ("anyons", "subgroups", "lagrangian", "excitations",
                   "defects", "qudit-dim")
CENSUS_PER_GROUP = 2

# two-hole patch size used with each cyclic order: each patch job costs
# well over a start-up, so the eleven slowest jobs of `algebra` are all
# patch or verify-all jobs and job_tail_s does not jump between a patch
# job and a start-up-sized one from seed to seed
LOGICAL_PATCHES = {2: (6, 10), 3: (5, 10), 4: (5, 8), 5: (5, 8), 6: (5, 8),
                   7: (4, 6)}

@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the oracle needs to know about it.

    `subgroups` holds the element names behind --subgroup/--subgroup2, in
    flag order; `preset` is the group the (possibly relabelled) `group`
    spec presents.
    """
    id: int
    command: str
    preset: str
    group: str
    subgroups: tuple[tuple[str, ...], ...] = ()
    lattice: Optional[str] = None
    inject: Optional[str] = None

    @property
    def argv(self) -> list[str]:
        out = [self.command, "--group", self.group]
        for flag, names in zip(("--subgroup", "--subgroup2"), self.subgroups):
            out += [flag, ",".join(names)]
        if self.lattice is not None:
            out += ["--lattice", self.lattice]
        if self.inject is not None:
            out += ["--inject-literal-edge", self.inject]
        return out


def job_list_hash(jobs: list[Job]) -> str:
    blob = json.dumps([j.argv for j in jobs], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def relabelled_table(preset: str, rng: random.Random) -> str:
    """The preset's multiplication table under a random relabelling.

    Element names travel with their elements, and the identity never
    sits at index 0, so the program must find and move it.
    """
    g = build_group(preset)
    n = g.order
    perm = list(range(n))
    rng.shuffle(perm)
    if perm[0] == 0:
        perm[0], perm[1] = perm[1], perm[0]
    table = [0] * (n * n)
    names = [""] * n
    for a in range(n):
        names[perm[a]] = g.names[a]
        for b in range(n):
            table[perm[a] * n + perm[b]] = perm[int(g.table[a, b])]
    return json.dumps({"order": n, "table": table, "names": names,
                       "label": preset}, separators=(",", ":"))


def _names(group: FiniteGroup, elements) -> tuple[str, ...]:
    return tuple(group.names[x] for x in elements)


class _Builder:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.jobs: list[Job] = []
        self._groups: dict[str, FiniteGroup] = {}

    def group(self, preset: str) -> FiniteGroup:
        if preset not in self._groups:
            self._groups[preset] = build_group(preset)
        return self._groups[preset]

    def subgroups(self, preset: str, cheap: bool = False) -> list[tuple[str, ...]]:
        """Element-name tuples of every subgroup; `cheap` keeps |K|^2 <= |G|."""
        g = self.group(preset)
        return [_names(g, s.elements) for s in enumerate_subgroups(g)
                if not cheap or s.order ** 2 <= g.order or g.order <= 3]

    def spec(self, preset: str, relabel: bool = True) -> str:
        if relabel and self.rng.random() < 0.5:
            return relabelled_table(preset, self.rng)
        return preset

    def add(self, command: str, preset: str, relabel: bool = True, **kw) -> None:
        self.jobs.append(Job(id=len(self.jobs), command=command, preset=preset,
                             group=self.spec(preset, relabel), **kw))


def _census(b: _Builder) -> None:
    for preset in CENSUS_VERIFY:
        b.add("verify-all", preset, relabel=False)
    for preset in CENSUS_GROUPS:
        subs = b.subgroups(preset)
        for cmd in b.rng.sample(CENSUS_COMMANDS, CENSUS_PER_GROUP):
            n_subs = {"lagrangian": 1, "excitations": 1, "defects": 2,
                      "qudit-dim": 2}.get(cmd, 0)
            picks = tuple(b.rng.choice(subs) for _ in range(n_subs))
            b.add(cmd, preset, subgroups=picks)


def _gsd(b: _Builder) -> None:
    full_s3 = b.subgroups("symmetric:3")[-1]
    # the two heavy routes: counting DFS, and trace enumeration's memory peak
    b.add("gsd", "symmetric:3", relabel=False, lattice="torus:3x2")
    b.add("gsd", "symmetric:3", relabel=False, lattice="patch:2x2",
          subgroups=(full_s3,))
    for preset, lat in (("cyclic:2", "torus:3x3"), ("cyclic:3", "torus:3x2"),
                        ("symmetric:3", "torus:2x2")):
        b.add("gsd", preset, lattice=lat)
    order8 = b.rng.choice(("dihedral:4", "quaternion8"))
    for preset in ("cyclic:2", "cyclic:3", "symmetric:3", order8):
        subs = b.subgroups(preset, cheap=True)
        b.add("gsd", preset, lattice="patch:2x2", subgroups=(b.rng.choice(subs),))
    for preset in ("cyclic:2", "cyclic:3", "symmetric:3", order8):
        g = b.group(preset)
        subs = b.subgroups(preset)
        pairs = [(k1, k2) for k1 in subs for k2 in subs
                 if len(k1) * len(k2) <= g.order]
        b.add("gsd", preset, lattice="ring:3", subgroups=b.rng.choice(pairs))


def _audit(b: _Builder) -> None:
    order8 = b.rng.choice(("dihedral:4", "quaternion8"))
    g8 = b.group(order8)
    pair8 = [s for s in b.subgroups(order8) if len(s) == 2]
    trivial8 = _names(g8, (0,))
    b.add("lattice-audit", order8, relabel=False, lattice="ring:3",
          subgroups=(b.rng.choice(pair8), trivial8))
    s3_pairs = [s for s in b.subgroups("symmetric:3") if len(s) == 2]
    s3_trivial = b.subgroups("symmetric:3")[0]
    b.add("lattice-audit", "symmetric:3", lattice="torus:2x2")
    b.add("lattice-audit", "symmetric:3", lattice="patch:2x2",
          subgroups=(b.rng.choice(s3_pairs),))
    b.add("lattice-audit", "symmetric:3", lattice="ring:3",
          subgroups=(b.rng.choice(s3_pairs), s3_trivial),
          inject=f"in{b.rng.randrange(3)}")
    # cyclic:3 audits; the injected ones sit on a region with K = G
    trivial, full = b.subgroups("cyclic:3")
    c3_jobs = [("torus:2x2", ()), ("patch:2x2", (trivial,)), ("patch:2x2", (full,)),
               ("ring:3", (trivial, full)), ("ring:3", (full, trivial)),
               ("ring:3", (trivial, trivial)), ("ring:3", (full, full))]
    # one sabotaged audit of each kind, so every seed pays the same mix
    kinds = {}
    for i, (lat, subs) in enumerate(c3_jobs):
        if lat == "torus:2x2" or subs[0] == full:
            kinds.setdefault(lat, []).append(i)
    injected = {b.rng.choice(idx) for idx in kinds.values()}
    for i, (lat, subs) in enumerate(c3_jobs):
        edge = None
        if i in injected:
            edges = {"torus:2x2": ("h(0,0)", "h(1,1)", "v(0,1)", "v(1,0)"),
                     "patch:2x2": ("h(0,0)", "h(2,1)", "v(0,0)", "v(1,2)"),
                     "ring:3": ("in0", "in1", "in2")}[lat]
            edge = b.rng.choice(edges)
        b.add("lattice-audit", "cyclic:3", lattice=lat, subgroups=subs, inject=edge)


def _two_hole_lattice(rows: int, cols: int, rng: random.Random) -> str:
    """Patch with two one-face holes at random interior, non-touching faces."""
    inner = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    while True:
        a, c = rng.sample(inner, 2)
        if max(abs(a[0] - c[0]), abs(a[1] - c[1])) >= 2:
            break
    holes = [{"name": f"hole{i}", "faces": [f"p({r},{q})"]}
             for i, (r, q) in enumerate(sorted((a, c)))]
    return json.dumps({"kind": "patch", "rows": rows, "cols": cols,
                       "holes": holes, "subgroups": {"outer": "full"}},
                      separators=(",", ":"))


def _logical(b: _Builder) -> None:
    # the logical layer needs the cyclic preset, so no relabelling here;
    # charge-project runs on the patches only, where it costs more than start-up
    for n in range(2, 8):
        b.add("logical", f"cyclic:{n}", relabel=False, lattice="ring:3")
    for n, (rows, cols) in LOGICAL_PATCHES.items():
        lat = _two_hole_lattice(rows, cols, b.rng)
        for cmd in ("logical", "charge-project"):
            b.add(cmd, f"cyclic:{n}", relabel=False, lattice=lat)


# Each workload joins two job families, so that one run holds enough work
# (about 40 s) to be steady on a shared host.
_MAKERS = {"algebra": (_census, _logical), "lattice": (_gsd, _audit)}


def generate(workload: str, seed: int) -> list[Job]:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _Builder(workload, seed)
    for make in _MAKERS[workload]:
        make(b)
    return b.jobs
