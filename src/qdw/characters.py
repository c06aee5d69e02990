"""Exact character tables of finite groups.

Each character value is kept as the eigenvalue exponents of its irrep at
the class representative, found over a prime field by Dixon's method and
lifted to integers, so multiplicities and orthogonality are checked in
integers; the complex values are derived from them, for reports and for
the canonical row order.

The sector table (`qdw.sectors`) and the census import this module, and
the `group-info` command's handler lives here; `logical` and
`charge-project` import it where they read a table, so a lattice audit
and the `logical` command never load it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Mapping, Optional, Sequence

from qdw.groups import (ConjugacyClass, FiniteGroup, InvariantError, Subgroup, _root_of_unity,
                        build_group)
from qdw.records import Ratio

__all__ = ["CharacterTable", "character_table"]


class CharacterTable:
    """Irreducible characters of a finite group, exact.

    Rows are irreps in canonical order (dimension, then descending
    lexicographic character vector); columns follow conjugacy-class order.
    `spectra[i][c]` is the sorted tuple of exponents j for which the
    eigenvalues of irrep i at the representative of class c are the
    zeta^j, zeta = exp(2 pi i / orders[c]); the character value there is
    their sum.  `values` holds those sums as complex numbers.
    """

    def __init__(self, group: FiniteGroup, spectra: list[list[tuple[int, ...]]]):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.orders = [group.element_order(c.rep) for c in self.classes]
        self.spectra = spectra
        self.dims = [len(row[0]) for row in spectra]
        self.values = [_complex_row(row, self.orders) for row in spectra]

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
                raise InvariantError(f"character multiplicity {Ratio(num, n)} "
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
# the `group-info` command


def _cmd_group_info(cfg) -> tuple:
    from qdw.subgroups import MAX_SUBGROUP_ENUM_ORDER, enumerate_subgroups

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
