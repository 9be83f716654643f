"""A bound on an LP relaxation from the LP's symmetry quotient.

The models here are symmetric: nodes are interchangeable, and so are the
grid's reflections where nothing breaks them.  Such an LP has an optimum
that is constant on each class of an equitable partition of its rows and
columns, and the quotient LP over those classes has the same optimal
value.  Colour refinement finds the coarsest such partition without
knowing the formulation (Grohe, Kersting, Mladenov & Selman, "Dimension
reduction via colour refinement", ESA 2014): columns start coloured by
(cost, bounds, kind) and rows by (sense, rhs), and each round splits a
class by the multiset of (neighbour colour, coefficient) of its members.
A multiset is compared by the wrapping sum of a 64-bit hash of its
elements.

The quotient LP is an LpData over the classes: column J is column class
J, with the class's box and cost |J| c_j, and row i is row class i, whose
coefficient on J is the sum over J of one member row.  Its row duals z,
lifted to the full rows as y_r = z_i / |P_i| for the class i of row r,
are dual feasible for the full LP when the partition is equitable.  The
bound itself is evaluated on the full model from y by simplex.dual_bound
(Neumaier & Shcherbina, "Safe bounds in linear and mixed-integer linear
programming", Math. Prog. 99, 2004; warm node solves use it too): y^T b
plus the minimum of (c - A^T y)_j x_j over each column's box, after duals
of the wrong sign are clipped to 0.  That holds for any y, so a wrong
partition (a hash collision, say) can only weaken the bound; an infeasible
or unbounded quotient, or a nonzero reduced cost on an infinite bound,
gives none.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .milp import MilpInstance
from .simplex import LpData, SimplexNumericalError, _mix, dual_bound, solve_lp


def _classes(*keys: np.ndarray) -> np.ndarray:
    """Each position by the index of its tuple of `keys` among the distinct
    tuples in lexicographic order (keys[0] most significant)."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        ordered = key[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    out = np.empty(order.size, dtype=np.int64)
    out[order] = np.cumsum(new) - 1
    return out


def _split(colour: np.ndarray, keys: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """`colour` refined by the multiset of `keys` over each member's terms
    (member t owns keys[indptr[t]:indptr[t + 1]])."""
    sig = np.zeros(len(colour), dtype=np.uint64)
    own = np.diff(indptr) > 0
    if own.any():
        sig[own] = np.add.reduceat(_mix(keys.astype(np.uint64)), indptr[:-1][own])
    return _classes(colour, sig)


def refine(data: LpData) -> Tuple[np.ndarray, np.ndarray]:
    """The coarsest equitable partition of `data`'s rows and columns that
    colour refinement reaches: (row colour, column colour), each colour an
    index from 0."""
    A = data.A_csr
    owner = np.repeat(np.arange(data.m), np.diff(A.indptr))  # each term's row
    coef = _classes(A.data)
    by_col = np.argsort(A.indices, kind="stable")  # the terms column by column
    col_indptr = np.zeros(data.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(A.indices, minlength=data.n), out=col_indptr[1:])
    n_coef = int(coef.max(initial=0)) + 1

    rows = _classes(data.sense_codes, data.b)
    cols = _classes(data.c_min, data.lower, data.upper, data.is_binary)
    while True:
        counts = rows.max(initial=-1), cols.max(initial=-1)
        rows = _split(rows, cols[A.indices] * n_coef + coef, A.indptr)
        cols = _split(cols, rows[owner[by_col]] * n_coef + coef[by_col], col_indptr)
        if (rows.max(initial=-1), cols.max(initial=-1)) == counts:
            return rows, cols


def partition_bound(data: LpData, rows: np.ndarray, cols: np.ndarray) -> Optional[float]:
    """The bound (see dual_bound) from the quotient LP of the partition
    (rows, cols), colours indexed from 0; None when the quotient has no
    optimum or its lifted duals prove none."""
    _, rep_rows = np.unique(rows, return_index=True)  # the first member of each class
    _, rep_cols = np.unique(cols, return_index=True)
    S = sp.csr_matrix((np.ones(data.n), (np.arange(data.n), cols)), shape=(data.n, rep_cols.size))
    Q = (data.A_csr[rep_rows] @ S).tocsr()  # row i is row class i, column J column class J
    Q.eliminate_zeros()
    Q.sort_indices()
    cost = np.bincount(cols) * data.c_min[rep_cols]
    q_data = LpData.from_arrays(Q, data.sense_codes[rep_rows], data.b[rep_rows], data.lower[rep_cols],
                                data.upper[rep_cols], cost, np.zeros(rep_cols.size, dtype=bool), 1.0)
    try:
        res = solve_lp(q_data)
    except SimplexNumericalError:
        return None
    if res.status != "optimal":
        return None
    z = np.zeros(rep_rows.size)
    z[np.diff(Q.indptr) > 0] = res.duals  # LpData drops the empty rows
    return dual_bound(data, z[rows] / np.bincount(rows)[rows])


def lp_bound(instance: MilpInstance) -> Optional[float]:
    """The quotient bound on `instance`'s LP relaxation (see partition_bound),
    computed once per instance and kept with its other derived views."""
    views = instance._views
    if "lp_bound" not in views:
        data = LpData(instance)
        views["lp_bound"] = (
            None if data.trivially_infeasible or not data.m else partition_bound(data, *refine(data))
        )
    return views["lp_bound"]
