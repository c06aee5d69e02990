"""Float matrices of exact operators, for the tests that keep numpy as an oracle.

No command builds these: the audit and every ground-state route run on
Python integers.  Configurations are indexed as in `config_digits`
(register 0 slowest).
"""

from fractions import Fraction

import numpy as np

from qdw.geometry import MATERIALIZE_DIM_BUDGET, config_digits


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
