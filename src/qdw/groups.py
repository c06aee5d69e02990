"""Exact finite-group machinery on explicit multiplication tables.

A group is a validated Cayley table over 0-based element indices with the
identity pinned at index 0.  Everything downstream (conjugacy classes,
subgroups, character tables, double cosets) works with plain integer
indices so results are deterministic and cheap to compare.

Character tables are exact.  Each value is kept as the eigenvalue
exponents of its irrep at the class representative, found over a prime
field by Dixon's method and lifted to integers, so multiplicities and
orthogonality are checked in integers; the complex values are derived
from them.  numpy is imported only to build the array views
`FiniteGroup.table` and `CharacterTable.chars`, on first access.

Supported presets: cyclic:n, dihedral:n, symmetric:n (n <= 4),
quaternion8, and product:<spec>,<spec>.  Explicit tables up to order 48
can be supplied as {"order": n, "table": row-major list, "names": [...]}.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from math import cos, gcd, isqrt, pi, sin, sqrt
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from qdw.records import FrozenRecord

MAX_TABLE_ORDER = 48
MAX_SUBGROUP_ENUM_ORDER = 24
DEFAULT_TOLERANCE = 1e-10   # report-level numeric checks (`--tolerance`)

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "ConjugacyClass",
    "CharacterTable",
    "DoubleCoset",
    "build_group",
    "canonical_group_spec",
    "is_cyclic_presentation",
    "enumerate_subgroups",
    "subgroup_conjugacy_classes",
    "character_table",
    "double_cosets",
    "enumerate_automorphisms",
    "is_automorphism",
    "inner_automorphism",
]


class InvariantError(RuntimeError):
    """An internal consistency check failed; results cannot be trusted."""


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


class FiniteGroup:
    """Finite group given by an explicit, validated multiplication table.

    `rows[a][b]` is the index of a*b and `inv[a]` that of a^-1, both
    tuples of ints; `table` is the same table as an int64 array, built on
    first access for the callers that index it with arrays.
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
        n = self.order
        seen = [False] * n
        classes: list[ConjugacyClass] = []
        for a in range(n):
            if seen[a]:
                continue
            members = sorted({self.conj(g, a) for g in range(n)})
            for m in members:
                seen[m] = True
            cent = self.subgroup(g for g in range(n) if self.rows[g][a] == self.rows[a][g])
            classes.append(ConjugacyClass(rep=a, members=tuple(members), centralizer=cent))
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

    def __init__(self, rep: int, members: tuple[int, ...], centralizer: "Subgroup"):
        super().__init__(rep, members, centralizer)

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

    def is_normal(self) -> bool:
        return all(self.conjugate_by(g).elements == self.elements for g in range(len(self.group)))

    def canonical_key(self) -> tuple[int, ...]:
        """Lexicographically smallest conjugate; identifies the conjugacy class."""
        return min(self.conjugate_by(g).elements for g in range(len(self.group)))

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

    def left_cosets(self) -> list[tuple[int, ...]]:
        """Left cosets g*K, each as a sorted tuple, ordered by smallest member."""
        seen = set()
        cosets = []
        for g in range(len(self.group)):
            if g in seen:
                continue
            c = tuple(sorted(self.group.mul(g, k) for k in self.elements))
            seen.update(c)
            cosets.append(c)
        return cosets


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
            g = _direct_product(g, build_group(p))
        if g.order > MAX_TABLE_ORDER:
            raise ValueError(f"product order {g.order} exceeds maximum {MAX_TABLE_ORDER}")
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
        raise ValueError(f"table length {len(flat)} does not match order {n}")
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
# subgroup enumeration


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, ordered by (order, element tuple).

    Exhaustive closure search, run once per group and kept in its cache;
    each call returns a fresh list.  Refuses groups of order above
    MAX_SUBGROUP_ENUM_ORDER to keep the blowup desk-scale.
    """
    if group.order > MAX_SUBGROUP_ENUM_ORDER:
        raise ValueError(
            f"subgroup enumeration is capped at order {MAX_SUBGROUP_ENUM_ORDER}; "
            f"got {group.order} (use generated_subgroup with explicit generators)")
    if "subgroup_list" in group._cache:
        return list(group._cache["subgroup_list"])
    found: set[tuple[int, ...]] = set()
    queue: list[tuple[int, ...]] = []
    triv = (0,)
    found.add(triv)
    queue.append(triv)
    while queue:
        elems = queue.pop()
        for g in range(1, group.order):
            if g in elems:
                continue
            ext = group.generated_subgroup(set(elems) | {g}).elements
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    group._cache["subgroup_list"] = tuple(
        group.subgroup(e) for e in sorted(found, key=lambda e: (len(e), e)))
    return list(group._cache["subgroup_list"])


def subgroup_conjugacy_classes(group: FiniteGroup) -> list[list[Subgroup]]:
    """Subgroups grouped under conjugation, classes keyed by smallest member."""
    classes: dict[tuple[int, ...], list[Subgroup]] = {}
    for sub in enumerate_subgroups(group):
        classes.setdefault(sub.canonical_key(), []).append(sub)
    out = []
    for key in sorted(classes, key=lambda k: (len(k), k)):
        members = sorted(classes[key], key=lambda s: s.elements)
        out.append(members)
    return out


# ---------------------------------------------------------------------------
# character tables


class CharacterTable:
    """Irreducible characters of a finite group, exact.

    Rows are irreps in canonical order (dimension, then descending
    lexicographic character vector); columns follow conjugacy-class order.
    `spectra[i][c]` is the sorted tuple of exponents j for which the
    eigenvalues of irrep i at the representative of class c are the
    zeta^j, zeta = exp(2 pi i / orders[c]); the character value there is
    their sum.  `values` holds those sums as complex numbers, and `chars`
    the same as a complex array, built on first access.
    """

    def __init__(self, group: FiniteGroup, spectra: list[list[tuple[int, ...]]]):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.orders = [group.element_order(c.rep) for c in self.classes]
        self.spectra = spectra
        self.dims = [len(row[0]) for row in spectra]
        self.values = [_complex_row(row, self.orders) for row in spectra]

    @cached_property
    def chars(self):
        import numpy as np

        return np.array(self.values, dtype=complex)

    @property
    def n_irreps(self) -> int:
        return len(self.spectra)

    def value(self, irrep: int, element: int) -> complex:
        return self.values[irrep][self.group.class_index_of(element)]

    def multiplicities(self, class_function: Sequence[int]) -> list[int]:
        """Multiplicity of each irrep in a character given by integer class values.

        Exact: the values must be constant on each rational class, every
        multiplicity must be a non-negative integer, and the multiplicities
        must give the values back.
        """
        vals = list(class_function)
        if not all(isinstance(v, int) for v in vals):
            raise ValueError("multiplicities need integer class values")
        reps, images, cyclic = _rational_classes(self.group)
        at_rep = [vals[c] for c in reps]
        if any(v != at_rep[r] for v, (r, _) in zip(vals, images)):
            raise InvariantError("the class function is not constant on rational classes, "
                                 "so its multiplicities are not all integers")
        n = self.group.order
        out = []
        for traces in self._traces:
            num = sum(map(mul, map(mul, at_rep, cyclic), traces))
            if num % n or num < 0:
                raise InvariantError(f"character multiplicity {Fraction(num, n)} "
                                     "is not a non-negative integer")
            out.append(num // n)
        if self.character(out) != vals:
            raise InvariantError("character multiplicities do not give the class function back")
        return out

    def character(self, weights: Sequence[int]) -> list[int]:
        """Class values of sum_i weights[i] chi_i, which must be rational integers.

        At a representative g of order o the sum is x = sum_j m_j zeta^j,
        with m_j the weighted count of exponent j, decided by `_integer_sum`.
        """
        reps, images, _ = _rational_classes(self.group)
        at_rep = []
        for c in reps:
            count: dict[int, int] = {}
            for w, row in zip(weights, self.spectra):
                if w:
                    for j in row[c]:
                        count[j] = count.get(j, 0) + w
            value = _integer_sum(count, self.orders[c])
            if value is None:
                raise InvariantError("weighted character sum is not integer-valued")
            at_rep.append(value)
        return [at_rep[r] for r, _ in images]

    @cached_property
    def _traces(self) -> list[list[int]]:
        """Trace from Q(zeta_o) to Q of each character at each rational class representative."""
        reps, _, _ = _rational_classes(self.group)
        return [[sum(_ramanujan_sums(self.orders[c])[j] for j in row[c]) for c in reps]
                for row in self.spectra]


def character_table(target) -> CharacterTable:
    """Exact character table by the Dixon-Schneider method.

    Accepts a FiniteGroup or a Subgroup (computed on its abstract copy).
    Over F_p, with p prime, p = 1 mod exp(G) and p > 2 sqrt(|G|), the class
    sums split F_p^k into one common eigenvector per irrep, which gives the
    irrep's values mod p (Dixon, "High speed computation of group
    characters", Numer. Math. 10, 1967).  At g of order o those values on
    the powers of g determine, by a discrete Fourier transform over F_p,
    the multiplicity of each eigenvalue zeta_o^j; each lies between 0 and
    the dimension, below p/2, so it lifts to a unique integer.  Values at
    the other classes of a rational class are Galois images, checked
    against their values mod p.  The rows are then checked to be exactly
    orthonormal.
    """
    if isinstance(target, Subgroup):
        group, _ = target.as_group()
    else:
        group = target
    if "char_table" in group._cache:
        return group._cache["char_table"]
    classes = group.conjugacy_classes()
    n = group.order
    class_of = [group.class_index_of(a) for a in range(n)]
    reps, images, _ = _rational_classes(group)
    orders = [group.element_order(c.rep) for c in classes]
    exponent = 1
    for o in orders:
        exponent = exponent * o // gcd(exponent, o)
    p = exponent + 1
    while p * p <= 4 * n or not _is_prime(p):
        p += exponent
    z = _primitive_root_of_unity(exponent, p)
    # powers of a primitive o-th root of unity mod p, for each element order o
    roots = {o: [pow(z, exponent // o * j, p) for j in range(o)] for o in set(orders)}
    dft = {}    # dft[o][j][m] = zeta^(-j m) / o, which maps values on g^m to multiplicities
    for o, w in roots.items():
        inv_o = pow(o, -1, p)
        dft[o] = [[w[-j * m % o] * inv_o % p for m in range(o)] for j in range(o)]
    power_classes = []
    for c in reps:
        x, cls = 0, []
        for _ in range(orders[c]):
            cls.append(class_of[x])
            x = group.mul(x, classes[c].rep)
        power_classes.append(cls)
    spectra = []
    for row in _characters_mod_p(group, classes, class_of, p):
        at_rep = [_lift([row[d] for d in cls], row[0], dft[orders[c]], p)
                  for c, cls in zip(reps, power_classes)]
        spectra_row = []
        for c, (r, t) in enumerate(images):
            o = orders[c]
            s = _power_spectrum(at_rep[r], t, o)
            if sum(roots[o][j] for j in s) % p != row[c]:
                raise InvariantError("exact character value does not reduce to its value mod p")
            spectra_row.append(s)
        spectra.append(spectra_row)
    spectra.sort(key=lambda row: _row_key(len(row[0]), _complex_row(row, orders)))
    table = CharacterTable(group, spectra)
    _check_table(table)
    group._cache["char_table"] = table
    return table


def _complex_row(spectra: Sequence[tuple[int, ...]], orders: Sequence[int]) -> list[complex]:
    return [sum(_root_of_unity(j, o) for j in s) for s, o in zip(spectra, orders)]


def _row_key(dim: int, values: Sequence[complex]) -> tuple:
    # canonical order: dimension asc, then character vector descending lex
    return (dim, tuple((-round(z.real, 6), -round(z.imag, 6)) for z in values))


def _check_table(table: CharacterTable) -> None:
    """Rows in canonical order, Galois-consistent, and exactly orthonormal.

    Over a rational class R (the classes of the powers g^t, t prime to the
    order o of its representative g) the values are the Galois conjugates
    of those at g.  So the sum over R of |C| chi_a conj chi_b is the number
    of cyclic subgroups R generates times the trace from Q(zeta_o) to Q of
    chi_a(g) conj chi_b(g), that is the sum of the Ramanujan sums
    c_o(j - j') over the exponents j of chi_a and j' of chi_b at g: an
    integer.  Orthonormality of the square table also gives the column
    relations.
    """
    group, n = table.group, table.group.order
    keys = [_row_key(d, v) for d, v in zip(table.dims, table.values)]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InvariantError("character rows are not in canonical order")
    if len(table.spectra) != len(table.classes):
        raise InvariantError("character table is not square")
    reps, images, cyclic = _rational_classes(group)
    for row in table.spectra:
        for c, (r, t) in enumerate(images):
            o = table.orders[c]
            if row[c] != _power_spectrum(row[reps[r]], t, o):
                raise InvariantError("character values are not Galois conjugates "
                                     "across a rational class")
    weights = [(c, cyc, _ramanujan_sums(table.orders[c])) for c, cyc in zip(reps, cyclic)]
    for a, row_a in enumerate(table.spectra):
        for b in range(a, len(table.spectra)):
            row_b = table.spectra[b]
            total = sum(cyc * ram[j - j2] for c, cyc, ram in weights
                        for j in row_a[c] for j2 in row_b[c])
            if total != (n if a == b else 0):
                raise InvariantError("character rows are not orthonormal")
    if sum(d * d for d in table.dims) != n:
        raise InvariantError("irrep dimensions do not satisfy the order sum rule")


def _characters_mod_p(group: FiniteGroup, classes: list[ConjugacyClass],
                      class_of: list[int], p: int) -> list[list[int]]:
    """Each irrep's class values mod p, rows in no particular order.

    With K_i the class sums, K_i K_j = sum_l a_ijl K_l, the central
    character w_l = |C_l| chi(g_l) / chi(1) of each irrep is a common right
    eigenvector of the matrices (A_i)[j, l] = a_ijl with w_0 = 1.  The
    identity class's unit vector meets every such eigenvector, so splitting
    it by one class matrix after another ends with one vector per irrep.
    Then chi(1)^2 = |G| / sum_l w_l w_l* / |C_l|, l* the class of inverses.
    """
    n, k = group.order, len(classes)
    mats: list[list[dict[int, int]]] = [[{} for _ in range(k)] for _ in range(k)]
    for l, cl in enumerate(classes):
        for x in range(n):
            entry = mats[class_of[x]][class_of[group.mul(group.inv[x], cl.rep)]]
            entry[l] = entry.get(l, 0) + 1
    vecs = [[1] + [0] * (k - 1)]
    for mat in mats[1:]:
        if len(vecs) == k:
            break
        vecs = [part for v in vecs for part in _eigenparts(mat, v, p)]
    if len(vecs) != k or any(v[0] == 0 for v in vecs):
        raise InvariantError("class sums did not split into one eigenvector per class")
    sizes = [cl.size for cl in classes]
    inv_sizes = [pow(s, -1, p) for s in sizes]
    inv_class = [class_of[group.inv[cl.rep]] for cl in classes]
    rows = []
    for v in vecs:
        scale = pow(v[0], -1, p)
        w = [x * scale % p for x in v]
        norm = sum(w[l] * w[inv_class[l]] * inv_sizes[l] for l in range(k)) % p
        if norm == 0:
            raise InvariantError("central character has zero norm mod p")
        dim_sq = n * pow(norm, -1, p) % p
        dim = next((d for d in range(1, isqrt(n) + 1) if d * d % p == dim_sq), None)
        if dim is None:
            raise InvariantError("irrep dimension did not lift to an integer")
        rows.append([dim * x * s % p for x, s in zip(w, inv_sizes)])
    return rows


def _eigenparts(mat: list[dict[int, int]], v: list[int], p: int) -> list[list[int]]:
    """The parts of v in the eigenspaces of one class matrix, over F_p.

    The Krylov vectors v, Av, A^2 v, ... are reduced against the earlier
    ones until one depends on them; that dependence is the minimal
    polynomial f of v.  A class matrix is diagonalizable with its
    eigenvalues in F_p, so f has distinct roots lam in F_p, and the part of
    v in the lam-eigenspace is (f / (t - lam))(A) v.
    """
    krylov = [v]
    echelon: list[tuple[int, list[int], list[int]]] = []
    while True:
        r, f = krylov[-1], [0] * (len(krylov) - 1) + [1]
        for pivot, b, fb in echelon:
            x = r[pivot]
            if x:
                r = [(u - x * y) % p for u, y in zip(r, b)]
                f = [(u - x * y) % p for u, y in zip(f, fb)] + f[len(fb):]
        pivot = next((i for i, u in enumerate(r) if u), None)
        if pivot is None:
            break
        s = pow(r[pivot], -1, p)
        echelon.append((pivot, [u * s % p for u in r], [u * s % p for u in f]))
        krylov.append([sum(a * krylov[-1][l] for l, a in entry.items()) % p for entry in mat])
    degree = len(f) - 1
    if degree == 1:
        return [v]
    roots = [lam for lam in range(p) if _poly_at(f, lam, p) == 0]
    if len(roots) != degree:
        raise InvariantError("class matrix has no basis of eigenvectors mod p")
    columns = list(zip(*krylov[:degree]))
    parts = []
    for lam in roots:
        q, acc = [0] * degree, 0
        for j in range(degree, 0, -1):      # q = f / (t - lam)
            acc = (f[j] + lam * acc) % p
            q[j - 1] = acc
        parts.append([sum(map(mul, q, col)) % p for col in columns])
    return parts


def _poly_at(f: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _lift(powers: list[int], dim: int, dft: list[list[int]], p: int) -> tuple[int, ...]:
    """Eigenvalue exponents at g from the values mod p at g^0 .. g^(o-1)."""
    spectrum: list[int] = []
    for j, row in enumerate(dft):
        m = sum(map(mul, powers, row)) % p
        if m > dim:
            raise InvariantError(f"eigenvalue multiplicity {m} mod {p} exceeds the dimension {dim}")
        spectrum += [j] * m
    if len(spectrum) != dim:
        raise InvariantError("eigenvalue multiplicities do not add up to the dimension")
    return tuple(spectrum)


def _power_spectrum(spectrum: Sequence[int], t: int, o: int) -> tuple[int, ...]:
    """Eigenvalue exponents at g^t from those at g, g of order o."""
    return tuple(sorted(j * t % o for j in spectrum))


def _rational_classes(group: FiniteGroup) -> tuple[list[int], list[tuple[int, int]], list[int]]:
    """Conjugacy classes grouped under g -> g^t, t prime to the order of g.

    Returns (reps, images, cyclic): reps[r] is the first class of rational
    class r; images[c] = (r, t) says class c holds the t-th power of the
    representative of class reps[r]; cyclic[r] is the number of cyclic
    subgroups that rational class r generates.
    """
    if "rational_classes" not in group._cache:
        classes = group.conjugacy_classes()
        reps: list[int] = []
        images: list = [None] * len(classes)
        cyclic: list[int] = []
        for c, cl in enumerate(classes):
            if images[c] is not None:
                continue
            o, x, size = group.element_order(cl.rep), cl.rep, 0
            for t in range(1, o + 1):       # x = rep^t
                if gcd(t, o) == 1:
                    d = group.class_index_of(x)
                    if images[d] is None:
                        images[d] = (len(reps), t)
                        size += classes[d].size
                x = group.mul(x, cl.rep)
            cyclic.append(size // _ramanujan_sums(o)[0])
            reps.append(c)
        group._cache["rational_classes"] = (reps, images, cyclic)
    return group._cache["rational_classes"]


@lru_cache(maxsize=None)
def _ramanujan_sums(o: int) -> tuple[int, ...]:
    """c_o(j) = sum of zeta_o^(t j) over t prime to o, for j in range(o).

    c_o(j) is the trace of zeta_o^j from Q(zeta_o) to Q, and c_o(0) = phi(o).
    It equals the sum of d mu(o/d) over the divisors d of gcd(j, o).
    Indexing by a negative difference wraps, as it should, mod o.
    """
    def mobius(m: int) -> int:
        sign, q = 1, 2
        while q * q <= m:
            if m % q == 0:
                m //= q
                if m % q == 0:
                    return 0
                sign = -sign
            q += 1
        return -sign if m > 1 else sign

    sums = []
    for j in range(o):
        g = gcd(j, o)
        sums.append(sum(d * mobius(o // d) for d in range(1, g + 1) if g % d == 0))
    return tuple(sums)


def _integer_sum(count: Mapping[int, int], o: int) -> Optional[int]:
    """x = sum of m zeta_o^j over count {j: m}, if x is an integer, else None.

    The trace of x from Q(zeta_o) to Q is T = sum_j m_j c_o(j), and the
    trace of |x|^2 is Q = sum_j,k m_j m_k c_o(j - k), c_o being the
    Ramanujan sums.  The trace of |x - T/phi(o)|^2 is Q - T^2/phi(o), a sum
    of squares of the conjugates' moduli, so x is the integer T/phi(o)
    exactly when Q phi(o) = T^2.
    """
    ram = _ramanujan_sums(o)
    tr = sum(m * ram[j] for j, m in count.items())
    sq = sum(m * m2 * ram[j - j2] for j, m in count.items() for j2, m2 in count.items())
    if tr % ram[0] or sq * ram[0] != tr * tr:
        return None
    return tr // ram[0]


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


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % q for q in range(2, isqrt(m) + 1))


def _primitive_root_of_unity(e: int, p: int) -> int:
    """An element of multiplicative order exactly e in F_p, for e dividing p - 1."""
    primes = [q for q in range(2, e + 1) if e % q == 0 and _is_prime(q)]
    for x in range(2, p):
        z = pow(x, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in primes):
            return z
    raise InvariantError(f"F_{p} has no element of order {e}")


# ---------------------------------------------------------------------------
# double cosets


class DoubleCoset(FrozenRecord):
    """One K1\\G/K2 double coset with its canonical representative.

    `stabilizer` is K1 intersect rep*K2*rep^-1.
    """
    _fields = __slots__ = ("rep", "members", "stabilizer")

    def __init__(self, rep: int, members: tuple[int, ...], stabilizer: Subgroup):
        super().__init__(rep, members, stabilizer)

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
# automorphisms


def is_automorphism(group: FiniteGroup, phi: Sequence[int]) -> bool:
    p = list(phi)
    if sorted(p) != list(range(group.order)) or p[0] != 0:
        return False
    rows = group.rows
    for a in range(group.order):
        row, image = rows[a], rows[p[a]]
        for b in range(group.order):
            if p[row[b]] != image[p[b]]:
                return False
    return True


def inner_automorphism(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.conj(g, x) for x in range(group.order))


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


def enumerate_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, sorted lexicographically."""
    if group.order > MAX_SUBGROUP_ENUM_ORDER:
        raise ValueError(f"automorphism enumeration is capped at order {MAX_SUBGROUP_ENUM_ORDER}")
    gens = _generating_sequence(group)
    if not gens:
        return [(0,)]
    # express every element as a fixed word in the generators; reach order
    # maps each prefix before it is extended
    word = list(_breadth_first(
        [0], lambda x: ((group.mul(x, g), gi) for gi, g in enumerate(gens))))[1:]
    orders = [group.element_order(g) for g in gens]
    candidates = [[x for x in range(group.order) if group.element_order(x) == o] for o in orders]
    autos = []
    for images in itertools.product(*candidates):
        phi = [0] * group.order
        for y, prev, gi in word:
            phi[y] = group.mul(phi[prev], images[gi])
        if len(set(phi)) == group.order and is_automorphism(group, phi):
            autos.append(tuple(phi))
    autos.sort()
    if not autos:
        raise InvariantError("automorphism search returned empty (identity must exist)")
    return autos
