"""Exact finite-group machinery on explicit multiplication tables.

A group is a validated Cayley table over 0-based element indices with the
identity pinned at index 0.  Everything downstream (conjugacy classes,
subgroups, character tables, double cosets) works with plain integer
indices so results are deterministic and cheap to compare.

Supported presets: cyclic:n, dihedral:n, symmetric:n (n <= 4),
quaternion8, and product:<spec>,<spec>.  Explicit tables up to order 48
can be supplied as {"order": n, "table": row-major list, "names": [...]}.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

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
    "permutation_character",
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
    """Finite group given by an explicit, validated multiplication table."""

    def __init__(self, table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None,
                 label: str = "group", validate: bool = True):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise ValueError(f"multiplication table must be square, got shape {tbl.shape}")
        n = tbl.shape[0]
        if n == 0:
            raise ValueError("empty multiplication table")
        if n > MAX_TABLE_ORDER:
            raise ValueError(f"group order {n} exceeds supported maximum {MAX_TABLE_ORDER}")
        self.order: int = n
        self.table: np.ndarray = tbl
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
        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.flatnonzero(tbl[a] == 0)
            if hits.size != 1:
                raise ValueError(f"element {a} has no unique inverse")
            inv[a] = hits[0]
        self.inv: np.ndarray = inv
        self._cache: dict = {}

    def _validate(self) -> None:
        n, tbl = self.order, self.table
        if tbl.min() < 0 or tbl.max() >= n:
            raise ValueError("table entries must be element indices")
        if not (np.array_equal(tbl[0], np.arange(n)) and np.array_equal(tbl[:, 0], np.arange(n))):
            raise ValueError("index 0 must act as the identity on both sides")
        for a in range(n):
            if len(set(tbl[a])) != n or len(set(tbl[:, a])) != n:
                raise ValueError(f"row or column {a} is not a permutation (not a Latin square)")
        # full associativity sweep; n <= 48 keeps this at ~110k triples
        left = tbl[tbl]                  # left[a,b,c] = (a*b)*c
        right = np.take(tbl, tbl, axis=1)  # right[a,b,c] = a*(b*c)
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            raise ValueError(f"table is not associative at triple {tuple(int(x) for x in bad)}")

    # -- basic arithmetic ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return int(self.table[self.table[g, x], self.inv[g]])

    def product(self, elements: Iterable[int]) -> int:
        acc = 0
        for x in elements:
            acc = int(self.table[acc, x])
        return acc

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse(a), -k)
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, a])
        return acc

    def element_order(self, a: int) -> int:
        k, acc = 1, a
        while acc != 0:
            acc = int(self.table[acc, a])
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
            self._cache["abelian"] = bool(np.array_equal(self.table, self.table.T))
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
            cent = self.subgroup(g for g in range(n) if self.table[g, a] == self.table[a, g])
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


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int
    members: tuple[int, ...]
    centralizer: "Subgroup"

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
            if int(group.inv[a]) not in es:
                raise ValueError(f"subset not closed under inverse at element {a}")
            for b in elems:
                if int(group.table[a, b]) not in es:
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
    return bool(np.array_equal(group.table, (np.arange(n)[:, None] + np.arange(n)) % n))


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
    """Irreducible characters of a finite group as a complex matrix.

    Rows are irreps in canonical order (dimension, then descending
    lexicographic character vector); columns follow conjugacy-class order.
    """

    def __init__(self, group: FiniteGroup, chars: np.ndarray):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.chars = chars
        self.dims = [int(round(chars[i, 0].real)) for i in range(chars.shape[0])]

    @property
    def n_irreps(self) -> int:
        return self.chars.shape[0]

    def value(self, irrep: int, element: int) -> complex:
        return complex(self.chars[irrep, self.group.class_index_of(element)])

    def multiplicities(self, class_function: Sequence[complex]) -> list[int]:
        """Inner-product multiplicities of a character given by class values."""
        vals = np.asarray(class_function, dtype=complex)
        sizes = np.array([c.size for c in self.classes], dtype=float)
        n = self.group.order
        out = []
        for i in range(self.n_irreps):
            m = float(np.real(np.sum(sizes * vals * np.conj(self.chars[i])) / n))
            mi = int(round(m))
            if abs(m - mi) > 1e-6 or mi < 0:
                raise InvariantError(f"non-integer character multiplicity {m}")
            out.append(mi)
        return out

    def row_of(self, class_function: Sequence[complex]) -> int:
        """Index of the unique row equal to a character given by class values."""
        hits = np.flatnonzero(np.isclose(self.chars, class_function, atol=1e-6).all(axis=1))
        if len(hits) != 1:
            raise InvariantError("character did not match a unique irrep row")
        return int(hits[0])


def character_table(target) -> CharacterTable:
    """Character table via simultaneous diagonalization of class-sum matrices.

    Accepts a FiniteGroup or a Subgroup (computed on its abstract copy).
    Deterministic: fixed seeds, canonical row order, rows rounded only for
    ordering, never for the stored values.
    """
    if isinstance(target, Subgroup):
        group, _ = target.as_group()
    else:
        group = target
    if "char_table" in group._cache:
        return group._cache["char_table"]
    classes = group.conjugacy_classes()
    k = len(classes)
    n = group.order
    class_of = [group.class_index_of(a) for a in range(n)]
    # structure constants a_{ijl}: K_i K_j = sum_l a_{ijl} K_l; the vector
    # (|C_l| chi(g_l) / d)_l is a joint right eigenvector of the matrices
    # (A_i)[j, l] = a_{ijl}
    mats = np.zeros((k, k, k), dtype=float)
    for l, cl in enumerate(classes):
        z = cl.rep
        for i, ci in enumerate(classes):
            for x in ci.members:
                j = class_of[int(group.table[group.inv[x], z])]
                mats[i, j, l] += 1.0
    eigvecs = None
    for seed in range(24):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=k)
        m = np.tensordot(coeffs, mats, axes=(0, 0))
        vals, vecs = np.linalg.eig(m)
        sep = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(sep, np.inf)
        if k == 1 or sep.min() > 1e-6:
            eigvecs = vecs
            break
    if eigvecs is None:
        raise InvariantError("class-sum diagonalization failed to separate eigenvalues")
    rows = []
    sizes = np.array([c.size for c in classes], dtype=float)
    for idx in range(k):
        v = eigvecs[:, idx]
        m0 = int(np.argmax(np.abs(v)))
        lam = np.array([(mats[i] @ v)[m0] / v[m0] for i in range(k)])
        denom = float(np.sum(np.abs(lam) ** 2 / sizes).real)
        d = (n / denom) ** 0.5
        di = int(round(d))
        if di < 1 or abs(d - di) > 1e-6:
            raise InvariantError(f"irrep dimension {d} did not round to a positive integer")
        chi = di * lam / sizes
        rows.append((di, chi))
    # canonical order: dimension asc, then character vector descending lex
    def row_key(item):
        di, chi = item
        vec = tuple((-round(z.real, 6), -round(z.imag, 6)) for z in chi)
        return (di, vec)
    rows.sort(key=row_key)
    chars = np.array([chi for _, chi in rows])
    table = CharacterTable(group, chars)
    _check_orthogonality(table, sizes, n)
    if sum(d * d for d in table.dims) != n:
        raise InvariantError("irrep dimensions do not satisfy the order sum rule")
    group._cache["char_table"] = table
    return table


def _check_orthogonality(table: CharacterTable, sizes: np.ndarray, n: int) -> None:
    chars = table.chars
    gram = (chars * sizes) @ np.conj(chars.T) / n
    if not np.allclose(gram, np.eye(chars.shape[0]), atol=1e-9):
        raise InvariantError("character rows are not orthonormal within 1e-9")
    col = np.conj(chars.T) @ chars
    expected = np.diag(n / sizes)
    if not np.allclose(col, expected, atol=1e-9 * n):
        raise InvariantError("character columns fail the second orthogonality relation")


# ---------------------------------------------------------------------------
# double cosets


@dataclass(frozen=True)
class DoubleCoset:
    """One K1\\G/K2 double coset with its canonical representative."""
    rep: int
    members: tuple[int, ...]
    stabilizer: Subgroup  # K1 intersect rep*K2*rep^-1

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
    tbl = group.table
    for a in range(group.order):
        for b in range(group.order):
            if p[tbl[a, b]] != tbl[p[a], p[b]]:
                return False
    return True


def inner_automorphism(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.conj(g, x) for x in range(group.order))


def _generating_sequence(group: FiniteGroup) -> list[int]:
    gens: list[int] = []
    have = {0}
    while len(have) < group.order:
        nxt = min(x for x in range(group.order) if x not in have)
        gens.append(nxt)
        have = set(group.generated_subgroup(gens).elements)
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


# ---------------------------------------------------------------------------
# permutation characters


def permutation_character(group: FiniteGroup, action: Sequence[Sequence[int]]) -> list[int]:
    """Fixed-point counts per conjugacy class for a permutation action.

    `action[g]` lists the image of every point under group element g.
    """
    n_points = len(action[0]) if len(action) else 0
    for g, perm in enumerate(action):
        if sorted(perm) != list(range(n_points)):
            raise ValueError(f"action of element {g} is not a permutation")
    out = []
    for cl in group.conjugacy_classes():
        perm = action[cl.rep]
        out.append(sum(1 for i, img in enumerate(perm) if img == i))
    return out
