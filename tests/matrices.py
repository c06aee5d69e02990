"""Float matrices of exact data, for the tests that keep numpy as an oracle.

No command builds these: every check, the audit, every ground-state
route and the logical layer run on Python integers, and no `qdw` module
imports numpy but `FiniteGroup.table`.  Configurations are indexed as in
`config_digits` (register 0 slowest).
"""

from fractions import Fraction

import numpy as np

from qdw.characters import character_table
from qdw.geometry import MATERIALIZE_DIM_BUDGET
from qdw.groups import InvariantError
from qdw.lattice import DiagonalTable, Operator
from qdw.sectors import anyon_table

TOL = 1e-9


def register_weights(n, k):
    """The weight n^(k-1-i) of register i in the row-major index of k n-valued
    registers (register 0 slowest)."""
    return [n ** (k - 1 - i) for i in range(k)]


def config_digits(n, k):
    """Every configuration of k n-valued registers (row-major, register 0 slowest).

    Returns (digits, weights): digits[c] lists the register values of
    configuration c, weights is `register_weights(n, k)`, and c == digits[c] @ weights.
    """
    weights = np.array(register_weights(n, k), dtype=np.int64)
    digits = (np.arange(n ** k, dtype=np.int64)[:, None] // weights[None, :]) % n
    return digits, weights


def chars(table):
    """A character table's `values` as a complex array."""
    return np.array(table.values, dtype=complex)


def point_operator(op, n):
    """`op` itself, or a `DiagonalTable` as the reference form of a diagonal
    term: the sum of one point-map monomial per stored configuration, with
    the configuration's value as its coefficient."""
    if not isinstance(op, DiagonalTable):
        return op
    out = Operator(n)
    for config, num in op.values.items():
        out += Operator.monomial(n, Fraction(num, op.den), {
            e: tuple(x if y == x else -1 for y in range(n)) for e, x in zip(op.edges, config)})
    return out


def coefficients(op):
    """Each monomial key of `op` with its coefficient, as a Fraction."""
    return {key: Fraction(num, op.den) for key, num in op.terms.items()}


def monomial_entries(op, edges):
    """(rows, cols, coeff) of each monomial of `op` over configurations of `edges`,
    with coeff a Fraction.

    A monomial is an injective partial map, so its rows never repeat and
    `out[rows] += coeff * x[cols]` applies it exactly.  Budget and edge
    cover are checked before the first one.
    """
    k = len(edges)
    dim = op.n ** k
    if dim > MATERIALIZE_DIM_BUDGET:
        raise ValueError(f"materialization dimension {dim} over budget")
    pos = {e: i for i, e in enumerate(edges)}
    if not set(op.support) <= set(pos):
        raise ValueError("edge list does not cover the operator support")
    digits, weights = config_digits(op.n, k)

    def entries(key):
        rows = np.arange(dim, dtype=np.int64)
        defined = np.ones(dim, dtype=bool)
        for e, m in key:
            col = digits[:, pos[e]]
            tgt = np.array(m, dtype=np.int64)[col]
            defined &= tgt >= 0
            rows += (tgt - col) * weights[pos[e]]
        return rows[defined], np.flatnonzero(defined)

    return ((*entries(key), coeff) for key, coeff in coefficients(op).items())


def to_matrix(op, edges):
    """Dense matrix of `op` over configurations of `edges`."""
    entries = monomial_entries(op, edges)   # checks the budget before the allocation
    mat = np.zeros((op.n ** len(edges),) * 2)
    for rows, cols, coeff in entries:
        mat[rows, cols] += float(coeff)
    return mat


def apply(op, edges, states):
    """`to_matrix(op, edges) @ states`, one monomial's entries at a time, so
    no matrix of `op` is formed."""
    out = np.zeros_like(states)
    for rows, cols, coeff in monomial_entries(op, edges):
        out[rows] += float(coeff) * states[cols]
    return out


def config_indices(configs, n):
    """The row-major index (as in `config_digits`) of each configuration, a
    tuple of register values, such as the support of a dense block."""
    return [sum(x * w for x, w in zip(c, register_weights(n, len(c)))) for c in configs]


def block_matrix(block):
    """The float S x S block P_S = M_k ... M_1 diag(diagonal) / den of the
    exact block that `qdw.gsd._dense_projector` returns."""
    support, diagonal, columns, den = block
    proj = np.diag(np.array(diagonal, dtype=float))
    for cols in columns:
        mat = np.zeros_like(proj)
        for i, col in enumerate(cols):
            for j, v in col:
                mat[j, i] = v
        proj = mat @ proj
    return proj / den


def s_matrix(group):
    """The modular S matrix of D(G) over `anyon_table(group)`, cached per group.

    S[(A,a),(B,b)] = 1/|G| sum over commuting g in A, h in B of
    conj chi_a(x_g^-1 h x_g) conj chi_b(x_h^-1 g x_h), where x_g r_A x_g^-1 = g
    for the class representative r_A (Coste, Gannon and Ruelle, "Finite
    group modular data", 2000).  The value does not depend on the choice
    of x_g, because chi_a is a class function of the centralizer of r_A.
    Raises InvariantError unless S is unitary and symmetric with
    S[0, 0] = 1/|G|.
    """
    if "s_matrix" not in group._cache:
        group._cache["s_matrix"] = _build_s_matrix(anyon_table(group))
    return group._cache["s_matrix"]


def _build_s_matrix(table):
    group = table.group
    n = group.order
    class_of = [group.class_index_of(g) for g in range(n)]
    transporter, columns = table.transporter, table.local_class
    # character columns of every commuting pair, grouped by class pair
    pairs = {}
    for g in range(n):
        for h in range(n):
            if group.mul(g, h) != group.mul(h, g):
                continue
            a, b = class_of[g], class_of[h]
            cols_a, cols_b = pairs.setdefault((a, b), ([], []))
            cols_a.append(columns[a][group.conj(group.inv[transporter[g]], h)])
            cols_b.append(columns[b][group.conj(group.inv[transporter[h]], g)])
    start = [table.index_of(ci, 0) for ci in range(len(table.classes))]
    m = len(table)
    s = np.zeros((m, m), dtype=complex)
    for (a, b), (cols_a, cols_b) in pairs.items():
        x = chars(table.centralizer_tables[a])[:, None, cols_a]
        y = chars(table.centralizer_tables[b])[None, :, cols_b]
        # conj(x y), each real product rounded on its own as in Python's
        # complex product, so an abelian S is the closed form to the bit
        block = np.empty((x.shape[0], y.shape[1], len(cols_a)), dtype=complex)
        block.real = x.real * y.real - x.imag * y.imag
        block.imag = -(x.real * y.imag + x.imag * y.real)
        s[start[a]:start[a] + x.shape[0], start[b]:start[b] + y.shape[1]] = \
            block.sum(axis=2) / n
    if not np.allclose(s @ np.conj(s.T), np.eye(m), rtol=0, atol=TOL):
        raise InvariantError("sector S matrix is not unitary")
    if not np.allclose(s, s.T, rtol=0, atol=TOL):
        raise InvariantError("sector S matrix is not symmetric")
    if abs(s[0, 0] - 1 / n) > TOL:
        raise InvariantError(f"sector S matrix has S00 = {s[0, 0]}, expected 1/{n}")
    return s


def fusion(table):
    """fusion[a, b] = index of a x b, over the sectors of `abelian_anyon_data`."""
    group = table.group
    ct = character_table(group)
    # irrep_product[qa, qb] is the row equal to the product of rows qa and qb:
    # every irrep is linear, so exponents add at each class
    k = ct.n_irreps
    row_index = {tuple(row): q for q, row in enumerate(ct.spectra)}
    irrep_product = np.array([[row_index[tuple(
        ((sa[0] + sb[0]) % o,) for sa, sb, o in zip(ct.spectra[qa], ct.spectra[qb], ct.orders))]
        for qb in range(k)] for qa in range(k)], dtype=np.int64)
    index = np.array([[table.index_of(g, q) for q in range(k)]
                      for g in range(group.order)], dtype=np.int64)
    flux = np.array([g for g, _ in table.charges], dtype=np.int64)
    charge = np.array([q for _, q in table.charges], dtype=np.int64)
    return index[group.table[flux[:, None], flux[None, :]],
                 irrep_product[charge[:, None], charge[None, :]]]


def constraint_rows(lat, group, subgroups):
    """The Z_n-linear description of admissibility and of valid phase
    strings, built from the lattice and the boundary subgroups alone.

    Returns (shift_rows, phase_rows), each a list of (text, row), row a
    list of ints mod n and text what a refusal names.  A configuration or
    shift x is admissible when row.x = 0 mod n for every shift row: one
    per face (+1 along an edge, -1 against), then one per rim edge with
    |K| there.  A phase vector p is valid when row.p = 0 mod n for every
    phase row: step * incidence per vertex (+1 at a head, -1 at a tail),
    where step Z_n is the vertex's K and step is 1 off the rims, then one
    per dangling edge with K's step there.  Rows follow cell order.
    """
    n, ne = group.order, lat.n_edges

    def step(name):
        sub = subgroups[name]
        k = n // sub.order
        assert tuple(sub.elements) == tuple(range(0, n, k)), "K must be a stride of Z_n"
        return k

    def unit(e, value):
        return [value % n if j == e else 0 for j in range(ne)]

    shift_rows, phase_rows = [], []
    for pi, cyc in enumerate(lat.plaquettes):
        row = [0] * ne
        for e, along in cyc:
            row[e] = (row[e] + (1 if along else -1)) % n
        shift_rows.append((f"changes the holonomy of {lat.plaquette_names[pi]}", row))
    roles = sorted(lat.edge_region.items())
    for e, (name, role) in roles:
        if role == "rim":
            shift_rows.append((f"leaves the pinned subgroup on {lat.edge_names[e]}",
                               unit(e, subgroups[name].order)))
    for v in range(lat.n_vertices):
        k = step(lat.vertex_region[v]) if v in lat.vertex_region else 1
        row = [0] * ne
        for e, at_head in lat.star[v]:
            row[e] = (row[e] + (k if at_head else -k)) % n
        phase_rows.append((f"creates unabsorbed charge at {lat.vertex_names[v]}", row))
    for e, (name, role) in roles:
        if role == "dangling":
            phase_rows.append((f"is not translation invariant on {lat.edge_names[e]}",
                               unit(e, step(name))))
    return shift_rows, phase_rows


def first_failing_row(rows, x, n):
    """The text of the first row with row.x != 0 mod n, or None."""
    return next((text for text, row in rows
                 if sum(a * b for a, b in zip(row, x)) % n), None)


def orbit_state_matrix(ags, subgroups):
    """Columns are the normalized gauge-orbit superpositions of an
    `AbelianGroundSpace` built with `subgroups`, in sector order;
    admissibility is decided here, on the digit array and the
    `constraint_rows`, apart from `AbelianGroundSpace.orbits`."""
    n, ne = ags.n, ags.lattice.n_edges
    dim = n ** ne
    if dim > MATERIALIZE_DIM_BUDGET:
        raise ValueError("lattice too large to materialize orbit states")
    digits, _ = config_digits(n, ne)
    shift_rows, _ = constraint_rows(ags.lattice, ags.group, subgroups)
    face_rim = np.array([row for _, row in shift_rows], dtype=np.int64).reshape(-1, ne)
    members = [[] for _ in range(ags.dimension)]
    for c in np.flatnonzero(~(digits @ face_rim.T % n).any(axis=1)).tolist():
        members[ags.sector(digits[c].tolist())].append(c)
    if not all(members):
        raise InvariantError("orbit census does not match the sector count")
    out = np.zeros((dim, ags.dimension))
    for j, idx in enumerate(members):
        out[idx, j] = 1.0 / np.sqrt(len(idx))
    return out


def apply_string(op, states):
    """A `StringOperator` applied to the rows of states (configurations, as in
    `config_digits`)."""
    n, ne = op.n, len(op.shift)
    dim = n ** ne
    if dim > MATERIALIZE_DIM_BUDGET:
        raise ValueError("string operator too large to materialize")
    digits, weights = config_digits(n, ne)
    rows = ((digits + np.array(op.shift, dtype=np.int64)[None, :]) % n) @ weights
    expo = (op.offset + digits @ np.array(op.phase, dtype=np.int64)) % n
    out = np.empty(states.shape, dtype=complex)
    out[rows] = (np.exp(2j * np.pi * expo / n) * states.T).T
    return out
