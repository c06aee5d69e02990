"""Exact finite-group machinery on explicit multiplication tables.

A group is a validated Cayley table over 0-based element indices with the
identity pinned at index 0.  Everything downstream (conjugacy classes,
subgroups, character tables, double cosets) works with plain integer
indices so results are deterministic and cheap to compare.  No
command imports numpy: only the array view `FiniteGroup.table` does,
and only the benchmark reads it.

Every run imports this module, so it holds only what every command
reads: the group, its presets, the subgroup specs of the command line
(`parse_subgroup`), double cosets and the 12-digit rounding of reported
numbers.  Character tables live in `qdw.characters`, and the subgroup
lattice and the automorphisms in `qdw.subgroups`, which only the layers
that read them import.  `character_table`, `enumerate_subgroups` and
`enumerate_automorphisms` read off this module resolve there, through
the package's table of exports (`qdw._resolver`), for callers that name
them here (the benchmark's traced runs, `bench/tracing.py`).

Supported presets: cyclic:n, dihedral:n, symmetric:n (n <= 4),
quaternion8, and product:<spec>,<spec>.  Explicit tables up to order 48
can be supplied as {"order": n, "table": row-major list, "names": [...]}.
"""

from __future__ import annotations

import itertools
import json
import re
from functools import cached_property, lru_cache
from math import cos, pi, sin, sqrt
from typing import Iterable, Optional, Sequence

from qdw import _resolver
from qdw.records import FrozenRecord

MAX_TABLE_ORDER = 48

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "ConjugacyClass",
    "DoubleCoset",
    "build_group",
    "canonical_group_spec",
    "parse_subgroup",
    "is_cyclic_presentation",
    "double_cosets",
]

# names that moved to the layers only some commands import
__getattr__ = _resolver(__name__)


class InvariantError(RuntimeError):
    """An internal consistency check failed; results cannot be trusted."""


class UsageError(ValueError):
    """Bad flags or specs; maps to exit status 2."""


def _breadth_first(roots, neighbours):
    """Breadth-first search from `roots`, yielding (vertex, parent, step) in reach order.

    `neighbours(v)` gives the (w, step) moves out of v.  Each vertex is
    yielded once, when it is first reached; the roots come first, with
    parent and step None.  Stopping early leaves the rest unexplored.
    """
    queue = list(dict.fromkeys(roots))
    seen = set(queue)
    for r in queue:
        yield r, None, None
    for v in queue:                  # the queue grows while it is walked
        for w, step in neighbours(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                yield w, v, step


def _orbits(points, images):
    """The orbits of a group acting on `points`, each a list.

    `images(p)` gives the images of p under the group's generators.  The
    orbits come in the order of their first point, and each is listed in
    reach order from that point.  The walk keeps its own queue: setting
    up a `_breadth_first` per orbit tripled the cost of the one-point
    element classes of small groups.
    """
    orbits: list[list] = []
    seen: set = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            orbit = [p]
            for v in orbit:             # the orbit grows while it is walked
                for w in images(v):
                    if w not in seen:
                        seen.add(w)
                        orbit.append(w)
            orbits.append(orbit)
    return orbits


class FiniteGroup:
    """Finite group given by an explicit, validated multiplication table.

    `rows[a][b]` is the index of a*b and `inv[a]` that of a^-1, both
    tuples of ints.
    """

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
                 label: str = "group", validate: bool = True):
        rows = tuple(tuple(int(x) for x in row) for row in table)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError(f"multiplication table must be square, got {n} rows "
                             f"of lengths {sorted({len(row) for row in rows})}")
        if n == 0:
            raise ValueError("empty multiplication table")
        if n > MAX_TABLE_ORDER:
            raise ValueError(f"group order {n} exceeds supported maximum {MAX_TABLE_ORDER}")
        self.order: int = n
        self.rows: tuple[tuple[int, ...], ...] = rows
        self.label: str = label
        if names is None:
            names = [str(i) for i in range(n)]
        if len(names) != n or len(set(names)) != n:
            raise ValueError("element names must be distinct and match the order")
        self.names: list[str] = list(names)
        self._name_to_index = {s: i for i, s in enumerate(self.names)}
        if "e" not in self._name_to_index:
            self._name_to_index["e"] = 0
        if validate:
            self._validate()
        inv = []
        for a, row in enumerate(rows):
            if row.count(0) != 1:
                raise ValueError(f"element {a} has no unique inverse")
            inv.append(row.index(0))
        self.inv: tuple[int, ...] = tuple(inv)
        self._cache: dict = {}

    def _validate(self) -> None:
        n, rows = self.order, self.rows
        if any(x < 0 or x >= n for row in rows for x in row):
            raise ValueError("table entries must be element indices")
        ident = tuple(range(n))
        if rows[0] != ident or tuple(row[0] for row in rows) != ident:
            raise ValueError("index 0 must act as the identity on both sides")
        for a in range(n):
            if len(set(rows[a])) != n or len({row[a] for row in rows}) != n:
                raise ValueError(f"row or column {a} is not a permutation (not a Latin square)")
        # Light's test: the s with (a*s)*b = a*(s*b) for all a, b are closed
        # under products, so checking the generators covers every element
        for s in _generating_sequence(self):
            srow = rows[s]
            if any(rows[row[s]] != tuple(row[x] for x in srow) for row in rows):
                break
        else:
            return
        for a, b, c in itertools.product(range(n), repeat=3):
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise ValueError(f"table is not associative at triple {(a, b, c)}")

    @cached_property
    def table(self):
        """`rows` as an int64 numpy array, built on first access.  Its one
        reader is the benchmark's job generator (`bench/workloads.py`); no
        command reads it."""
        import numpy as np

        return np.array(self.rows, dtype=np.int64)

    # -- basic arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.rows[self.rows[g][x]][self.inv[g]]

    def product(self, elements: Iterable[int]) -> int:
        acc = 0
        for x in elements:
            acc = self.rows[acc][x]
        return acc

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(a), -k)
        acc = 0
        for _ in range(k):
            acc = self.rows[acc][a]
        return acc

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 0:
            acc = self.rows[acc][a]
            k += 1
        return k

    def name_of(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        try:
            return self._name_to_index[name]
        except KeyError:
            raise ValueError(f"unknown element name {name!r} in {self.label}") from None

    @property
    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            self._cache["abelian"] = self.rows == tuple(zip(*self.rows))
        return self._cache["abelian"]

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"

    # -- structure -------------------------------------------------------

    def conjugacy_classes(self) -> list["ConjugacyClass"]:
        """Classes ordered by smallest member index; the identity class first."""
        if "classes" in self._cache:
            return self._cache["classes"]
        n, rows, inv = self.order, self.rows, self.inv
        gens = _generating_sequence(self)
        classes: list[ConjugacyClass] = []
        for orbit in _orbits(range(n), lambda a: (rows[rows[g][a]][inv[g]] for g in gens)):
            a = orbit[0]
            cent = self.subgroup(g for g in range(n) if rows[g][a] == rows[a][g])
            classes.append(ConjugacyClass(rep=a, members=tuple(sorted(orbit)), centralizer=cent))
        self._cache["classes"] = classes
        return classes

    def class_index_of(self, a: int) -> int:
        if "class_of" not in self._cache:
            class_of = [0] * self.order
            for i, c in enumerate(self.conjugacy_classes()):
                for m in c.members:
                    class_of[m] = i
            self._cache["class_of"] = class_of
        return self._cache["class_of"][a]

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        """The one Subgroup of this element set, so its caches are shared."""
        key = tuple(sorted({int(x) for x in elements}))
        subs = self._cache.setdefault("subgroups", {})
        if key not in subs:
            subs[key] = Subgroup(self, key)
        return subs[key]

    def generated_subgroup(self, generators: Iterable[int]) -> "Subgroup":
        # right multiples reach the whole subgroup: inverses are powers
        gens = sorted(set(generators))
        reach = _breadth_first([0], lambda x: ((self.mul(x, g), g) for g in gens))
        return self.subgroup(x for x, _, _ in reach)

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup((0,))

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))


class ConjugacyClass(FrozenRecord):
    _fields = __slots__ = ("rep", "members", "centralizer")

    @property
    def size(self) -> int:
        return len(self.members)


class Subgroup:
    """Subset of a parent group, validated to be closed under the operations."""

    def __init__(self, group: FiniteGroup, elements: Sequence[int]):
        elems = tuple(sorted(set(int(x) for x in elements)))
        if not elems or elems[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")
        es = set(elems)
        for a in elems:
            if group.inv[a] not in es:
                raise ValueError(f"subset not closed under inverse at element {a}")
            row = group.rows[a]
            for b in elems:
                if row[b] not in es:
                    raise ValueError(f"subset not closed under product at ({a}, {b})")
        if len(group) % len(elems) != 0:
            raise InvariantError("subgroup order does not divide the group order")
        self.group = group
        self.elements: tuple[int, ...] = elems
        self._set = es
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, a: int) -> bool:
        return a in self._set

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.elements == self.elements)

    def __hash__(self) -> int:
        return hash((id(self.group), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"

    def conjugate_by(self, g: int) -> "Subgroup":
        return self.group.subgroup(self.group.conj(g, x) for x in self.elements)

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Abstract copy of this subgroup plus the local-to-parent index map."""
        if "as_group" not in self._cache:
            to_parent = list(self.elements)
            local = {p: i for i, p in enumerate(to_parent)}
            k = len(to_parent)
            tbl = [[local[self.group.mul(to_parent[i], to_parent[j])] for j in range(k)]
                   for i in range(k)]
            names = [self.group.names[p] for p in to_parent]
            sub = FiniteGroup(tbl, names=names, label=f"{self.group.label}-sub{self.elements}",
                              validate=False)
            self._cache["as_group"] = (sub, to_parent)
        return self._cache["as_group"]


# ---------------------------------------------------------------------------
# presets and parsing


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group needs order >= 1")
    tbl = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(tbl, names=[str(i) for i in range(n)], label=f"cyclic:{n}", validate=False)


def is_cyclic_presentation(group: FiniteGroup) -> bool:
    """Whether the table is addition mod n, as built by build_group('cyclic:n')."""
    n = group.order
    return group.rows == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; element (f, k) = s^f r^k."""
    if n < 1:
        raise ValueError("dihedral group needs n >= 1")
    def idx(f: int, k: int) -> int:
        return f * n + k % n
    tbl = [[0] * (2 * n) for _ in range(2 * n)]
    for f1, k1, f2, k2 in itertools.product(range(2), range(n), range(2), range(n)):
        # s^f1 r^k1 * s^f2 r^k2 = s^(f1^f2) r^(k2 + (-1)^f2 k1)
        k = (k2 + (k1 if f2 == 0 else -k1)) % n
        tbl[idx(f1, k1)][idx(f2, k2)] = idx(f1 ^ f2, k)
    names = [f"r{k}" if k else "e" for k in range(n)] + \
            [f"sr{k}" if k else "s" for k in range(n)]
    return FiniteGroup(tbl, names=names, label=f"dihedral:{n}")


def _perm_name(p: tuple[int, ...]) -> str:
    """Cycle notation over 1-based points."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + "".join(str(x + 1) for x in cyc) + ")")
    return "".join(out) if out else "e"


def _symmetric(n: int) -> FiniteGroup:
    if not 1 <= n <= 4:
        raise ValueError("symmetric preset supports 1 <= n <= 4 (order cap)")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    tbl = [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]
    names = [_perm_name(p) for p in perms]
    return FiniteGroup(tbl, names=names, label=f"symmetric:{n}")


def _quaternion8() -> FiniteGroup:
    # elements: (sign, axis) with axis 0=1, 1=i, 2=j, 3=k
    axis_mul = {  # (a, b) -> (sign, axis) for unit axes
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (2, 0): (1, 2), (3, 0): (1, 3),
        (1, 1): (-1, 0), (2, 2): (-1, 0), (3, 3): (-1, 0),
        (1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
        (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2),
    }
    elems = [(s, a) for a in range(4) for s in (1, -1)]  # 1,-1,i,-i,j,-j,k,-k
    index = {e: i for i, e in enumerate(elems)}
    tbl = []
    for s1, a1 in elems:
        row = []
        for s2, a2 in elems:
            s, a = axis_mul[(a1, a2)]
            row.append(index[(s * s1 * s2, a)])
        tbl.append(row)
    base = {0: "1", 1: "i", 2: "j", 3: "k"}
    names = [("" if s == 1 else "-") + base[a] for s, a in elems]
    return FiniteGroup(tbl, names=names, label="quaternion8")


def _direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    def idx(i: int, j: int) -> int:
        return i * nb + j
    tbl = [[0] * (na * nb) for _ in range(na * nb)]
    for i1, j1, i2, j2 in itertools.product(range(na), range(nb), range(na), range(nb)):
        tbl[idx(i1, j1)][idx(i2, j2)] = idx(a.mul(i1, i2), b.mul(j1, j2))
    names = [f"({a.names[i]},{b.names[j]})" for i in range(na) for j in range(nb)]
    return FiniteGroup(tbl, names=names, label=f"product:{a.label},{b.label}", validate=False)


_SPEC_RE = re.compile(r"^(cyclic|dihedral|symmetric):([0-9]+)$")


def canonical_group_spec(spec: str) -> str:
    return spec.strip().lower().replace(" ", "")


def build_group(spec) -> FiniteGroup:
    """Build a group from a preset string or an explicit table mapping.

    Accepts "cyclic:n", "dihedral:n", "symmetric:n", "quaternion8",
    "product:<spec>,<spec>", a JSON object string, or a dict
    {"order": n, "table": [...row-major...], "names": [...]}.
    """
    if isinstance(spec, dict):
        return _group_from_table_dict(spec)
    if not isinstance(spec, str):
        raise ValueError(f"unsupported group spec of type {type(spec).__name__}")
    text = spec.strip()
    if text.startswith("{"):
        return _group_from_table_dict(json.loads(text))
    text = canonical_group_spec(text)
    if text == "quaternion8":
        return _quaternion8()
    if text.startswith("product:"):
        parts = _split_product(text[len("product:"):])
        if len(parts) < 2:
            raise ValueError(f"product spec needs at least two factors: {spec!r}")
        g = build_group(parts[0])
        for p in parts[1:]:
            h = build_group(p)
            # refused before its table is built, as FiniteGroup would refuse it
            if g.order * h.order > MAX_TABLE_ORDER:
                raise ValueError(f"group order {g.order * h.order} exceeds supported "
                                 f"maximum {MAX_TABLE_ORDER}")
            g = _direct_product(g, h)
        return g
    m = _SPEC_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized group spec {spec!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind == "cyclic":
        if n > MAX_TABLE_ORDER:
            raise ValueError(f"cyclic order {n} exceeds maximum {MAX_TABLE_ORDER}")
        return _cyclic(n)
    if kind == "dihedral":
        if 2 * n > MAX_TABLE_ORDER:
            raise ValueError(f"dihedral order {2*n} exceeds maximum {MAX_TABLE_ORDER}")
        return _dihedral(n)
    return _symmetric(n)


def _split_product(text: str) -> list[str]:
    """Split factor specs on commas that separate complete factor tokens."""
    parts, buf = [], ""
    for tok in text.split(","):
        buf = tok if not buf else buf + "," + tok
        if _SPEC_RE.match(buf) or buf == "quaternion8":
            parts.append(buf)
            buf = ""
    if buf:
        raise ValueError(f"cannot parse product factors from {text!r}")
    return parts


def _is_json_int(x) -> bool:
    """Whether a parsed JSON value is an integer (JSON true and false are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _group_from_table_dict(data: dict) -> FiniteGroup:
    if "table" not in data:
        raise ValueError("explicit group spec needs a 'table' entry")
    if not isinstance(data["table"], list):
        raise ValueError("explicit group 'table' must be a list")
    flat = data["table"]
    n = data.get("order", round(len(flat) ** 0.5))
    if not (_is_json_int(n) and n > 0):
        raise ValueError("explicit group 'order' must be a positive integer")
    if len(flat) != n * n:
        raise ValueError(f"explicit group 'table' must be a flat row-major list of "
                         f"order^2 = {n * n} entries, got {len(flat)}")
    if not all(_is_json_int(x) and 0 <= x < n for x in flat):
        raise ValueError(f"explicit group 'table' entries must be integers from 0 to {n - 1}")
    tbl = [flat[i * n:(i + 1) * n] for i in range(n)]
    names = data.get("names")
    if names is not None and not (isinstance(names, list) and len(names) == n
                                  and all(isinstance(x, str) for x in names)):
        raise ValueError(f"explicit group 'names' must be a list of {n} strings")
    # relabel so the identity sits at index 0, keeping input order otherwise
    ident = None
    for a in range(n):
        if all(tbl[a][b] == b and tbl[b][a] == b for b in range(n)):
            ident = a
            break
    if ident is None:
        raise ValueError("explicit table has no identity element")
    if ident != 0:
        order = [ident] + [x for x in range(n) if x != ident]
        pos = {x: i for i, x in enumerate(order)}
        tbl = [[pos[tbl[order[i]][order[j]]] for j in range(n)] for i in range(n)]
        if names is not None:
            names = [names[x] for x in order]
    return FiniteGroup(tbl, names=names, label=str(data.get("label", "table-group")))


# ---------------------------------------------------------------------------
# command-line specs


def _require(cfg, *flag_names: str) -> None:
    """UsageError unless the run configuration `cfg` sets every named flag."""
    for flag in flag_names:
        if getattr(cfg, flag.replace("-", "_")) is None:
            raise UsageError(f"{cfg.command} needs --{flag}")


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


# ---------------------------------------------------------------------------
# roots of unity


@lru_cache(maxsize=None)
def _root_of_unity(j: int, o: int) -> complex:
    """exp(2 pi i j / o), with cos and sin taken at an angle of at most pi/4.

    The symmetries of the circle reduce every angle to that range, so
    conjugate roots come out exactly conjugate, and the roots of order 1,
    2, 3, 4, 6, 8 and 12 come out correctly rounded.
    """
    j %= o
    if 2 * j > o:                   # exp(-i a) = conj exp(i a)
        return _root_of_unity(o - j, o).conjugate()
    if 4 * j > o:                   # a = pi - b
        z = _root_of_unity(o - 2 * j, 2 * o)
        return complex(-z.real, z.imag)
    if 8 * j > o:                   # a = pi/2 - b
        z = _root_of_unity(o - 4 * j, 4 * o)
        return complex(z.imag, z.real)
    if 8 * j == o:
        return complex(sqrt(0.5), sqrt(0.5))
    if 12 * j == o:
        return complex(sqrt(0.75), 0.5)
    a = 2 * pi * j / o
    return complex(cos(a), sin(a))


def _round12(x: float) -> float:
    """12 digits of display rounding, as reports print numbers; + 0.0 folds -0.0 into 0.0."""
    return round(float(x), 12) + 0.0


def _complex_pair(z: complex) -> list[float]:
    return [_round12(z.real), _round12(z.imag)]


# ---------------------------------------------------------------------------
# double cosets


class DoubleCoset(FrozenRecord):
    """One K1\\G/K2 double coset with its canonical representative.

    `stabilizer` is K1 intersect rep*K2*rep^-1.
    """
    _fields = __slots__ = ("rep", "members", "stabilizer")

    @property
    def size(self) -> int:
        return len(self.members)


def double_cosets(k1: Subgroup, k2: Subgroup) -> tuple[DoubleCoset, ...]:
    """K1\\G/K2 double cosets ordered by smallest member, reps canonical.

    The tuple is built once per ordered pair and kept on K1.
    """
    if k1.group is not k2.group:
        raise ValueError("double cosets need subgroups of the same parent group")
    key = ("double_cosets", k2.elements)
    if key in k1._cache:
        return k1._cache[key]
    group = k1.group
    seen = [False] * group.order
    out = []
    for g in range(group.order):
        if seen[g]:
            continue
        members = sorted({group.mul(group.mul(a, g), b)
                          for a in k1.elements for b in k2.elements})
        for m in members:
            seen[m] = True
        conj_k2 = {group.conj(g, x) for x in k2.elements}
        stab = group.subgroup(set(k1.elements) & conj_k2)
        dc = DoubleCoset(rep=g, members=tuple(members), stabilizer=stab)
        if dc.size * stab.order != k1.order * k2.order:
            raise InvariantError("double coset size does not match the stabilizer index")
        out.append(dc)
    if sum(dc.size for dc in out) != group.order:
        raise InvariantError("double cosets do not partition the group")
    k1._cache[key] = tuple(out)
    return k1._cache[key]


# ---------------------------------------------------------------------------
# generators


def _generating_sequence(group: FiniteGroup,
                         elements: Optional[Sequence[int]] = None) -> list[int]:
    """Each generator the smallest of `elements` (by default the whole
    group) that the earlier ones do not reach; `elements` must be a subgroup.

    Reach is closure of the identity under right multiplication, so this
    also runs on a table not yet known to be a group.
    """
    elements = range(group.order) if elements is None else elements
    gens: list[int] = []
    have = {0}
    while len(have) < len(elements):
        gens.append(min(x for x in elements if x not in have))
        have = {x for x, _, _ in _breadth_first(
            [0], lambda x: ((group.mul(x, g), g) for g in gens))}
    return gens
