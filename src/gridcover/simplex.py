"""Bounded-variable revised simplex over sparse instances.

Solves the LP relaxation of a MilpInstance (integrality dropped), with
optional per-solve bound tightenings supplied by branch-and-bound.

A cold solve is the two-phase primal simplex with variables allowed
nonbasic at either bound: Phase 1 via auxiliary artificials from a
slack/crash basis, Phase 2 on costs slightly tilted toward a fixed generic
weighting, a pass on the exact costs, and the Bland anti-cycling rule
engaged after a run of 2*(rows+cols) degenerate pivots.  Pricing is Devex.
Phase 1 and the finish apply one feasibility test, LpData.feasible on the
full model's point: phase 1 calls an LP feasible only when its point
passes it (less the dropped rows, which hold at every optimum, not at
every point), and phase 2 holds the artificials at their phase-1 values,
so the residual that the test let pass is the one the finish re-verifies.

A warm solve starts from the optimal basis of an LP that differs only in
its bounds (a branch-and-bound parent; see NodeBounds).  That basis stays
dual feasible, so a bounded dual simplex over slightly perturbed costs
restores primal feasibility, and the primal simplex on the tilted and then
the exact costs cleans up.  The dual prices by dual Devex (Harris, "Pivot
selection methods of the Devex LP code", Math. Prog. 5, 1973; Koberstein,
"The dual simplex method, techniques for a fast and stable
implementation", PhD thesis, Paderborn 2005, ch. 3): the leaving row
maximizes its infeasibility squared over a reference weight that each
pivot's entering column updates, with no extra solve; its ratio test is
Harris's.  The perturbation sits a hundredfold below the phase-2 tilt, so
the dual ends on a vertex that is already optimal for the tilted costs and
the clean-up is a pivot or none; one as large as the tilt would leave the
dual on the perturbed costs' optimum, for the clean-up to walk back from.
A warm "infeasible" needs a ray that passes the full-row check
(proves_infeasible over the node's boxes, on the dual's row lifted to the
full rows), and a warm "optimal" passes the same substitution check as a
cold one.  A basis that is not dual feasible, a stall past the dual's
pivot cap or a numerical failure falls back to the cold solve.

A warm solve whose NodeBounds carries a prune test (`prunes`, from
branch-and-bound) stops as soon as a safe bound shows that its node is
pruned (the objective cutoff of Koberstein's ch. 3): status "cutoff",
with that bound as its objective and no point, basis or factor hand-off,
so it skips the rest of the dual and the whole finish.  Each dual pivot
tries a cheap trigger, the current basis's objective under the dual's
shifted costs (the dual's own bound, but on perturbed costs); when that
prunes, the duals of the exact costs, lifted to the full rows, give the
bound of dual_bound (Neumaier & Shcherbina 2004) over the node's boxes,
which holds for any duals, and only that bound cuts the node off.

An optimal solve ends on a refactorization, so its eta file is empty, and
it leaves that SuperLU factor in one slot on its LpData (last_factor),
keyed by the identity of the WarmBasis it returns and of the _Reduced it
pivoted on.  A warm solve from that very basis starts from the factor in
place of a fresh splu of the same matrix, so its pivots are the same to
the bit.  Branch-and-bound solves a node's first child right after the
node (it plunges), so that child finds its parent's factor; no factor is
held on open nodes.

Both end in one finish (_Solver._optimize): the primal simplex on the
tilted costs, then on the exact ones, then _settle, which moves to the
point among alternative optima that maximizes a fixed generic weighting of
the structural columns.  So a branch-and-bound node gets the same answer,
up to rounding noise, whichever basis its solve started from.  Only the
exact-cost phase may end a solve "unbounded": it starts from a primal
feasible basis, so it finds an improving ray exactly when the LP has one.
The tilted phase and _settle run for the basis they leave; a ray of the
tilt alone (a zero-cost column with an infinite bound) is not a verdict.
An LP with no rows left after presolve takes the same path: its basis is
0x0, and every step is a bound flip.  The primal and the dual loops
change the basis through one _Solver._pivot and read a tableau row
through one _Solver._tableau_row.

An optimal LpResult carries the row duals B^-T c_B of its optimal basis,
mapped back to the full model's rows (_Reduced.full_duals): a dropped row's
dual is 0, and a substitution row's takes the multiples of it that the
presolve subtracted from the other rows.  They are the duals of the
internal minimization of c_min.

Basis factorizations use scipy's sparse LU; the pivots since the last
refactorization (at most REFACTOR_EVERY, counted across phases) form an eta
file kept in compact product form, I - P T Q^T, so that a solve with the
basis is the LU solve and two dense products (see _Basis).

Every solve, cold or warm, root or node, pivots on a presolved
model (_Reduced), built on an LpData's first solve and kept on it; the
presolve gathers and sums over the index arrays of the CSR matrix, in the
order scipy's sparse products would sum, so its arrays are theirs.  A
continuous column defined by an equality row and present in at most one
other row (such as the static model's coverage variables, c = sum of x
over a footprint window) is substituted out of that other row: the
defining row stays, and its slack, which equals the column times its
coefficient there, takes over the column's box, its cost and its face
weight, so the optimal face and the point _settle picks on it are the
full model's.  A substituted column's bound that the other columns'
boxes imply is left off the slack.  Bound tightenings
stay keyed by the full model's ids (one on a substituted column narrows
its row's slack).  Postsolve rebuilds each substituted column from its
row, and the substitution check on the optimum runs on the full,
unreduced rows; LpData's public arrays always describe the full model.

Before the substitution the presolve drops the rows that every optimum
satisfies without them (_dominated_rows): lower limits on a continuous
column whose cost favours increasing it, lying in no equality row, that
none of the column's upper limits can fall below over the declared boxes
(the coverage model's c_cell >= c_{l,k,cell} rows).  Narrower boxes on the
other columns keep them implied, so every branch-and-bound node drops
them too.  A solve whose bounds lower such a column's upper bound below
what its dropped rows need pivots on the model that keeps every row, which
the LpData builds the first time a solve needs it; a warm basis of the
other model fails the shape check and the solve goes cold.  An unbounded
reduced LP needs no re-solve with every row: raising each owner column to
its dropped rows' lower limit extends any of its points to a full-model
point no worse, so the full LP is unbounded too.  A dropped row's slack
carries no face weight, so the point _settle picks is the full model's.

One matrix per layer: LpData.A_csr is MilpInstance.matrix() (empty rows
sliced off); _Reduced keeps its rows (A_csr) and one CSC store of every
column a solve pivots on, [A | I | I] (kept columns, slacks, artificials).
The presolved model is also the workspace of the solves on it: it builds
F = [A | I | diag(art_sign)] and F^T for the first solve with a vector of
artificial signs and keeps them for the next (the warm solves of a search
all inherit their root's signs); the basis matrix is F[:, basis] and a row
of the tableau is F^T v.  It also keeps the phase-2 costs, the warm dual's
perturbation and the column boxes of the declared bounds, which a solve
copies and narrows at its tightened columns alone.  So a solve pays for
its pivots and its own bounds, and a model's set-up is paid once.

All tolerance constants live here: FEAS_TOL (constraint residual and Phase
1 acceptance), RC_TOL (reduced-cost optimality), BOUND_TOL (variable bound
verification), PIVOT_TOL (minimum pivot magnitude), DUAL_TOL (reduced-cost
sign error a warm basis may carry), SUBST_TOL (smallest relative coefficient
through which the presolve substitutes a column), TIE_EPS (the phase-2 tilt,
TIE_EPS times face weights in [0.5, 1.5)) and DUAL_PERTURB (the warm dual's
cost perturbation, DUAL_PERTURB (1 + |c_j|) (1 + jitter_j) per column).  The
scales nest: RC_TOL lies below the smallest tilt (5e-8), and on the paper's
models, whose costs are at most 1 in size, the largest perturbation step
(4e-9) lies an order of magnitude below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .milp import EQ, GE, LE, SENSES, MilpInstance, max_residual

FEAS_TOL = 1e-7
RC_TOL = 1e-9
BOUND_TOL = 1e-9
PIVOT_TOL = 1e-8
REFACTOR_EVERY = 64
DEGEN_STEP = 1e-10
DUAL_TOL = 1e-7  # reduced-cost sign error a warm basis may carry
TIE_EPS = 1e-7  # tilt of the phase-2 costs toward the point _settle picks
# scale of the warm dual's cost perturbation: a hundredth of the tilt, so
# the dual ends on a vertex that is optimal for the tilted costs and the
# primal clean-up has (almost) nothing to undo
DUAL_PERTURB = TIE_EPS / 100
SUBST_TOL = 1e-2  # smallest |a_rj| / max |a_r.| through which column j is substituted

BASIC, AT_LO, AT_UP, FREE = 0, 1, 2, 3


@lru_cache(maxsize=8)
def _jitter(ncols: int) -> np.ndarray:
    """Deterministic per-column values in [0, 1) (golden-ratio sequence),
    computed once per size; read-only."""
    out = np.modf(np.arange(ncols) * 0.6180339887498949)[0]
    out.flags.writeable = False
    return out


def _mix(keys: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of each key (uint64, wrapping)."""
    z = keys * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _face_weights(n: int) -> np.ndarray:
    """Weights in [0.5, 1.5) of the objective that picks one point among
    alternative optima (see _Solver._settle).  They come from the splitmix64
    hash of the column index: in an additive sequence such as _jitter's,
    w[a] + w[b] == w[c] + w[d] whenever a + b == c + d, and the symmetric
    models here would then tie."""
    z = _mix(np.arange(1, n + 1, dtype=np.uint64))
    return 0.5 + (z >> np.uint64(11)).astype(float) / 2.0**53


class SimplexNumericalError(RuntimeError):
    """Numerical breakdown detected via residual re-verification."""


@dataclass(frozen=True)
class WarmBasis:
    """An optimal basis: the basic column of each row, every column's
    status and the artificial column signs it was reached with."""

    basis: np.ndarray
    status: np.ndarray
    art_sign: np.ndarray


class NodeBounds(dict):
    """Bound tightenings (variable id -> (lower, upper)) that carry the
    optimal basis of the LP they tighten; solve_lp starts from it.
    `prunes`, when given, tests a bound on the objective (in the instance's
    sense): True when that bound prunes the node, and the warm solve then
    stops at the first safe bound that passes it (status "cutoff")."""

    __slots__ = ("basis", "prunes")

    def __init__(self, bounds, basis: Optional[WarmBasis],
                 prunes: Optional[Callable[[float], bool]] = None):
        super().__init__(bounds)
        self.basis = basis
        self.prunes = prunes


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "cutoff"
    values: Optional[np.ndarray] = None  # the point, one value per variable id
    # the optimum; on "cutoff", the safe bound (dual_bound) that pruned the node
    objective: Optional[float] = None
    iterations: int = 0  # simplex pivots + bound flips, all phases and attempts
    basis: Optional[WarmBasis] = None  # set on "optimal"
    # set on "optimal": one dual per LpData row, of the internal minimization
    # of c_min (so <= 0 on a <= row and >= 0 on a >= row)
    duals: Optional[np.ndarray] = None


class LpData:
    """The arrays of an LP in the form the simplex reads: rows
    A_csr x (sense_codes) b over column boxes [lower, upper], minimizing
    c_min (the internal sense; obj_sign gives back the instance's own).
    Bounds, kinds and coefficients are the caller's (read-only) arrays;
    empty constraint rows are dropped, and flagged when they cannot hold.

    An instance has one: LpData(instance) builds it on first use and keeps
    it among the instance's derived views (which any change to the
    instance drops), so its presolve, its integrality verdict and its
    factor slot are built once, whichever layer asks first.
    LpData.from_arrays builds one that no instance keeps."""

    def __new__(cls, instance: MilpInstance):
        views = instance._views
        if "lp_data" not in views:
            sign = 1.0 if instance.objective_sense == "minimize" else -1.0
            views["lp_data"] = cls.from_arrays(instance.matrix(), instance.sense_codes, instance.rhs,
                                               instance.lower, instance.upper, sign * instance.objective(),
                                               instance.is_binary, sign)
        return views["lp_data"]

    @classmethod
    def from_arrays(cls, A_csr: sp.csr_matrix, sense_codes: np.ndarray, rhs: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray, c_min: np.ndarray, is_binary: np.ndarray, obj_sign: float) -> "LpData":
        """The LpData of the rows A_csr x (sense_codes) rhs over the boxes
        [lower, upper], minimizing c_min."""
        self = object.__new__(cls)
        self.n = A_csr.shape[1]
        self.lower = lower
        self.upper = upper
        self.is_binary = is_binary
        self.obj_sign = obj_sign
        self.c_min = c_min

        empty = np.diff(A_csr.indptr) == 0  # empty rows carry no variables; drop
        self.trivially_infeasible = (
            max_residual(np.zeros(np.count_nonzero(empty)), sense_codes[empty], rhs[empty]) > FEAS_TOL
        )
        self.sense_codes = codes = sense_codes[~empty]
        self.m = len(codes)
        self.b = rhs[~empty]
        self.A_csr = A_csr[~empty] if empty.any() else A_csr

        # slack bounds by sense: <= gives [0, inf), = gives [0, 0], >= gives (-inf, 0]
        self.slack_lo = np.where(codes == GE, -math.inf, 0.0)
        self.slack_up = np.where(codes == LE, math.inf, 0.0)
        self._reduced: Optional[_Reduced] = None
        self._all_rows: Optional[_Reduced] = None
        # (basis, model, lu): the last optimal solve's WarmBasis, the
        # _Reduced it pivoted on and the SuperLU factor of that basis, for
        # a warm solve from that very basis to start from (see solve_warm)
        self.last_factor: Optional[Tuple[WarmBasis, _Reduced, object]] = None
        return self

    @cached_property
    def senses(self) -> List[str]:
        """Each row's sense as text (SENSES), derived on first use."""
        return [SENSES[c] for c in self.sense_codes.tolist()]

    @cached_property
    def objective_integral(self) -> bool:
        """Whether the objective is an integer at every optimum, so that a
        bound on it may be floored: its coefficients are integers and its
        columns implied integers (Achterberg, "Constraint Integer
        Programming", TU Berlin 2007), which are (1) binaries; (2) the one
        column outside (1) of an equality row that is an integer multiple of
        its coefficient (c = sum of x); (3) owners (see _term_classes) with
        integral upper bounds whose every capping row is such a multiple
        with no other column outside (1)-(2): by the dual argument of
        _dominated_rows they sit at their least cap (c_cell).  Branch-and-bound
        tightens only binaries, so this holds at every node."""
        rows, owner, _, caps = _term_classes(self)
        cols, a, m, integral = self.A_csr.indices, self.A_csr.data, self.m, self.is_binary.copy()

        def pinned() -> np.ndarray:  # rows of one column outside `integral`, in multiples of it
            out = ~integral[cols]
            piv = np.zeros(m)
            piv[rows[out]] = a[out]
            with np.errstate(divide="ignore", invalid="ignore"):
                bad = np.bincount(rows, weights=~_whole(a / piv[rows]), minlength=m)
                return (np.bincount(rows[out], minlength=m) == 1) & (bad == 0) & _whole(self.b / piv)

        integral[cols[(pinned() & (self.sense_codes == EQ))[rows]]] = True
        rule3 = owner & _whole(self.upper)
        rule3[cols[caps & ~pinned()[rows]]] = False
        return bool(np.all(_whole(self.c_min)) and np.all((integral | rule3)[self.c_min != 0]))

    def round_bound(self, bound: float) -> float:
        """`bound`, a bound on the objective in the instance's own sense,
        moved to the objective's next integer when objective_integral:
        floored when maximizing and raised when minimizing, past a 1e-6
        margin for rounding noise; infinities are unchanged."""
        if not (self.objective_integral and math.isfinite(bound)):
            return bound
        return math.floor(bound + 1e-6) if self.obj_sign < 0 else math.ceil(bound - 1e-6)

    def feasible(self, x: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                 skip: Optional[np.ndarray] = None) -> bool:
        """Whether `x` is within the bounds (a NaN is not) and satisfies
        every row but the rows `skip` (none by default)."""
        if not np.all((x >= lower - BOUND_TOL) & (x <= upper + BOUND_TOL)):
            return False
        lhs = self.A_csr @ x
        if skip is not None:
            lhs[skip] = self.b[skip]  # a skipped row counts as met
        return max_residual(lhs, self.sense_codes, self.b) <= FEAS_TOL

    def reduced(self, drop_rows: bool = True) -> "_Reduced":
        """The presolved model a solve works on, built on first use; with
        `drop_rows` False, the one that keeps the dominated rows."""
        if self._reduced is None:
            self._reduced = _Reduced(self, drop_rows=True)
        if drop_rows or not self._reduced.dropped.size:
            return self._reduced
        if self._all_rows is None:
            self._all_rows = _Reduced(self, drop_rows=False)
        return self._all_rows


def dual_bound(
    data: LpData,
    y: np.ndarray,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
) -> Optional[float]:
    """The bound that the row multipliers `y` (in the sign convention of
    LpResult.duals) prove on the LP over the column boxes [lower, upper]
    (the declared ones by default), in the instance's own sense: an upper
    bound on a maximum, a lower bound on a minimum (Neumaier & Shcherbina,
    "Safe bounds in linear and mixed-integer linear programming", Math.
    Prog. 99, 2004): y^T b plus the minimum of (c - A^T y)_j x_j over each
    column's box, after duals of the wrong sign are clipped to 0.  It holds
    for any `y`.  None when a column with a nonzero reduced cost is
    unbounded on the side that cost favours."""
    lower = data.lower if lower is None else lower
    upper = data.upper if upper is None else upper
    yb, _, d, end = _dual_terms(data, y, data.c_min, lower, upper)
    if not np.isfinite(end).all():
        return None
    return data.obj_sign * (yb + float(d @ end))


def _dual_terms(data: LpData, y: np.ndarray, c, lower: np.ndarray, upper: np.ndarray):
    """dual_bound's arithmetic for the costs `c`, duals of the wrong sign
    clipped to 0: (y^T b, the columns nz where c - A^T y is nonzero, those
    reduced costs, and the bound of each that minimizes its term)."""
    codes = data.sense_codes
    y = np.where(codes == LE, np.minimum(y, 0.0), np.where(codes == GE, np.maximum(y, 0.0), y))
    d = c - data.A_csr.T @ y
    nz = np.flatnonzero(d)
    return float(y @ data.b), nz, d[nz], np.where(d[nz] > 0, lower[nz], upper[nz])


def proves_infeasible(data: LpData, y: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> bool:
    """Farkas check: whether the row multipliers `y` prove that no point of
    the column boxes [lower, upper] satisfies the rows: dual_bound's
    arithmetic at zero cost, for y or -y, bounds 0 from below by more than
    a margin far above rounding.  Any multipliers make a valid check, so
    rounding noise in `y` is dropped first."""
    big = float(np.abs(y).max())
    y = np.where(np.abs(y) > 1e-12 * big, y, 0.0)
    for sign in (1.0, -1.0):
        yb, nz, d, end = _dual_terms(data, sign * y, 0.0, lower, upper)
        lo, up = lower[nz], upper[nz]
        finite = np.isfinite(lo) & np.isfinite(up)
        scale = float(np.abs(d[finite] * up[finite]).sum() + np.abs(d[finite] * lo[finite]).sum())
        margin = FEAS_TOL * big * (1 + data.m) + 1e-9 * (scale + abs(yb))
        if np.isfinite(end).all() and yb + float(d @ end) > margin:
            return True
    return False


def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The terms of rows `rows` of a compressed matrix, row after row: (the
    indptr of those rows, each term's position in the matrix's arrays)."""
    starts = indptr[rows].astype(np.int64)
    counts = indptr[rows + 1] - starts
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr, np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], counts)


def _indptr(rows: np.ndarray, m: int) -> np.ndarray:
    """The indptr of a compressed matrix of m rows (of m columns, by
    columns) whose terms lie in the rows (columns) `rows`."""
    ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=ptr[1:])
    return ptr


def _row_sums(v: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each row's sum of its terms v[indptr[i]:indptr[i + 1]], added as
    scipy's CSR sum(axis=1) adds them: np.add.reduceat over the nonempty rows."""
    out = np.zeros(len(indptr) - 1)
    nz = np.flatnonzero(np.diff(indptr))
    if nz.size:
        out[nz] = np.add.reduceat(v, indptr[nz])
    return out


def _merged(keys: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct `keys` in increasing order, each with the sum of its
    values in the order given, zero sums dropped.  A key holds at most two
    values here, and a - b is a + (-b) to the bit, so this is the sum or
    difference of two sparse matrices as scipy computes it."""
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    if not starts.size:
        return keys, vals
    sums = np.add.reduceat(vals, starts)
    nz = sums != 0
    return keys[starts][nz], sums[nz]


def _normalized(A_csr: sp.csr_matrix, b: np.ndarray, rows: np.ndarray, cols: np.ndarray, a: np.ndarray):
    """Row rows[t] solved for column cols[t] (coefficient a[t]):
    x_j = beta_t + G_t . x over the row's other columns, read as a lower
    or upper limit on x_j by the row's sense.  Returns (beta, G), G as the
    arrays (indptr, indices, data) of a CSR matrix."""
    ptr, pos = _gather_rows(A_csr.indptr, rows)
    t = np.repeat(np.arange(len(rows)), np.diff(ptr))
    j, g = A_csr.indices[pos], (-1.0 / a)[t] * A_csr.data[pos]
    keep = (j != cols[t]) & (g != 0)
    return b[rows] / a, (_indptr(t[keep], len(rows)), j[keep], g[keep])


def _box_max(G, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The maximum of each row of G . x over the column boxes (inf where a
    box is open on the side that bounds it), G as the arrays (indptr,
    indices, data) of a CSR matrix; with G's data negated, minus the minimum."""
    indptr, j, g = G
    return _row_sums(np.where(g > 0, g * upper[j], g * lower[j]), indptr)


def _whole(v: np.ndarray) -> np.ndarray:
    """Whether each value is a finite integer."""
    return np.isfinite(v) & (v == np.round(v))


def _term_classes(data: LpData) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, owner, grows, caps): each term's row, each column's being an
    owner (continuous, its cost favouring increase, in no equality row) and
    whether each term's row is a lower (grows) or upper (caps) limit on it."""
    rows = np.repeat(np.arange(data.m), np.diff(data.A_csr.indptr))
    cols, a = data.A_csr.indices, data.A_csr.data
    code = data.sense_codes[rows]
    in_eq = np.zeros(data.n, dtype=bool)
    in_eq[cols[code == EQ]] = True
    owner = (~data.is_binary) & (data.c_min < 0) & ~in_eq
    grows = np.where(a > 0, code == GE, (a < 0) & (code == LE))
    caps = np.where(a > 0, code == LE, (a < 0) & (code == GE))
    return rows, owner, grows, caps


def _dominated_rows(data: LpData) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows that every optimum satisfies without them, by the
    dual-argument row reduction of Achterberg, Bixby, Gu, Rothberg &
    Weninger, "Presolve reductions in mixed integer programming", INFORMS
    J. Comput. 32, 2020.  A row goes when it is a lower limit L(x) on a
    continuous column j (a >= row with a_rj > 0, or a <= row with a_rj < 0)
    whose cost strictly favours increasing it, j lies in no equality row,
    and every upper limit U(x) of j (its bound, and each row bounding it
    from above) has U - L >= 0 over the declared column boxes.  An optimum
    that broke the row could then raise x_j to L(x): every upper limit
    allows it, and the objective improves.  The test reads every row, so it
    holds for the dropped rows together: the optimal face, and the point
    _settle picks on it, are the full model's.  Narrower boxes on the other
    columns only raise those minima; a lower upper bound on j itself can
    break the argument, so each dropped row keeps its owner j and `need`,
    the largest L over the boxes (see _Reduced.admits).

    Returns (rows, owners, needs), rows in increasing order."""
    A = data.A_csr
    nrows, owner, grows, caps = _term_classes(data)
    cols, a = A.indices, A.data
    cand = np.flatnonzero(grows & owner[cols])
    if not cand.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    beta, G = _normalized(A, data.b, nrows[cand], cols[cand], a[cand])
    need = beta + _box_max(G, data.lower, data.upper)
    ok = need <= data.upper[cols[cand]]
    ups = np.flatnonzero(caps & owner[cols])
    if ups.size:
        # every (candidate, upper limit) pair on one column: U - L >= 0
        ups = ups[np.argsort(cols[ups], kind="stable")]
        first = np.searchsorted(cols[ups], cols[cand], "left")
        count = np.searchsorted(cols[ups], cols[cand], "right") - first
        pc = np.repeat(np.arange(cand.size), count)
        pu = ups[np.arange(pc.size) + np.repeat(first - np.cumsum(count) + count, count)]
        beta_u, G_u = _normalized(A, data.b, nrows[pu], cols[pu], a[pu])
        # D = G_u - G[pc], merged row by row in column order
        ptr, pos = _gather_rows(G[0], pc)
        pair = np.concatenate([np.repeat(np.arange(pc.size), np.diff(G_u[0])),
                               np.repeat(np.arange(pc.size), np.diff(ptr))])
        j = np.concatenate([G_u[1], G[1][pos]])
        keys, d = _merged(pair * data.n + j, np.concatenate([G_u[2], -G[2][pos]]))
        low = beta_u - beta[pc] - _box_max((_indptr(keys // data.n, pc.size), keys % data.n, -d),
                                           data.lower, data.upper)
        ok[pc[~(low >= 0)]] = False
    # a row goes with its first passing column as the owner
    rows, first = np.unique(nrows[cand[ok]], return_index=True)
    return rows, cols[cand[ok]][first], need[ok][first]


def _substitutions(A_csr: sp.csr_matrix, codes: np.ndarray, is_binary: np.ndarray):
    """The (columns, rows) that the presolve substitutes: equality rows in
    order, each giving up the continuous column of its largest coefficient
    (ties to the lowest id) when the row holds no column substituted
    already and that column lies in no row chosen already.  So a chosen
    row holds exactly one substituted column, and a column goes out
    through one row.  A column qualifies only when it lies in at most one
    row besides its own, so a substitution adds at most one copy of its
    row's terms to the model."""
    n = A_csr.shape[1]
    indptr, indices, coefs = A_csr.indptr.tolist(), A_csr.indices.tolist(), A_csr.data.tolist()
    eligible = ((~is_binary) & (np.bincount(A_csr.indices, minlength=n) <= 2)).tolist()
    gone = [False] * n  # substituted
    seen = [False] * n  # in a chosen row
    cols: List[int] = []
    rows: List[int] = []
    for r in np.flatnonzero(codes == EQ).tolist():
        ids = indices[indptr[r] : indptr[r + 1]]
        if any(gone[j] for j in ids):
            continue
        vals = coefs[indptr[r] : indptr[r + 1]]
        big = max(abs(a) for a in vals)
        best = None
        for j, a in zip(ids, vals):
            if eligible[j] and not seen[j] and abs(a) >= SUBST_TOL * big:
                if best is None or (-abs(a), j) < best:
                    best = (-abs(a), j)
        if best is None:
            continue
        gone[best[1]] = True
        for j in ids:
            seen[j] = True
        cols.append(best[1])
        rows.append(r)
    return np.array(cols, dtype=np.int64), np.array(rows, dtype=np.int64)


def _with_units(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int, m: int) -> sp.csc_matrix:
    """[A | I | I] by columns, from the terms (rows, cols, vals) of the m x n
    matrix A listed row after row: A's columns, then a unit column per row
    twice over."""
    order = np.argsort(cols, kind="stable")
    unit = np.arange(m)
    indptr = np.concatenate([_indptr(cols, n), len(vals) + np.arange(1, 2 * m + 1)])
    return sp.csc_matrix((np.concatenate([vals[order], np.ones(2 * m)]),
                          np.concatenate([rows[order], unit, unit]), indptr), shape=(m, n + 2 * m))


class _Reduced:
    """An LpData's model with dominated rows dropped (see _dominated_rows)
    and then columns substituted out (the column substitution of Andersen &
    Andersen, "Presolving in linear programming", Math. Prog. 71, 1995).
    Column j, substituted through equality row r, is replaced in every
    other row i by (b_r - sum_{k != j} a_rk x_k)/a_rj.  Row r stays, and
    its slack s_r = a_rj x_j takes over j's box (scaled by a_rj), its cost
    and its face weight (scaled by 1/a_rj).  The feasible sets correspond
    one to one and the objectives agree, so the optimal face and the point
    _settle picks on it are those of the full model.  With no row dropped
    and no column substituted this is the model itself.  The presolve
    gathers and sums over the index arrays of the CSR matrix; every sum
    adds its terms in the order scipy's sparse sums and products add them,
    so each array is the one those would build, to the bit.

    `A_csr`, `b`, `n` and `m` mean what they mean on LpData, over the
    `kept` columns and the rows not `dropped`; `columns` is the CSC matrix
    [A | I | I] of every column a solve pivots on: the kept columns, the
    slacks and the artificials (whose signs each solve sets; see store).
    `slack_lo` and `slack_up` bound the rows' slacks; `cost` and `face`
    span the kept columns and then the slacks; `cols`, `rows` (indexed
    among the rows left), `piv` (= a_rj) and `row_terms` (rows `rows` over
    the kept columns) rebuild the substituted columns.

    The model is also the workspace of every solve on it.  The arrays that
    each solve would otherwise build again are built here once: the
    exact and tilted phase-2 costs, the tie weights of _settle and the
    warm dual's cost perturbation (`c`, `tilted`, `tie`, `perturbation`),
    the column boxes over the declared bounds (`box_lo`, `box_up`, which a
    solve copies and narrows at its tightened columns; see narrow) and the
    column store F with its transpose, kept for the artificial signs of
    the last solve that asked (see store).  All of them are read-only."""

    def __init__(self, data: LpData, drop_rows: bool):
        n = data.n
        if drop_rows:
            self.dropped, self.owners, self.needs = _dominated_rows(data)
        else:
            self.dropped = self.owners = np.zeros(0, dtype=np.int64)
            self.needs = np.zeros(0)
        A_csr, b = data.A_csr, data.b
        self.slack_lo, self.slack_up, codes = data.slack_lo, data.slack_up, data.sense_codes
        if self.dropped.size:
            live = np.ones(data.m, dtype=bool)
            live[self.dropped] = False
            ptr, pos = _gather_rows(A_csr.indptr, np.flatnonzero(live))
            A_csr = sp.csr_matrix((A_csr.data[pos], A_csr.indices[pos], ptr), shape=(len(ptr) - 1, n))
            b, codes = b[live], codes[live]
            self.slack_lo, self.slack_up = self.slack_lo[live], self.slack_up[live]
        self.m = m = len(b)
        self.cols, self.rows = cols, rows = _substitutions(A_csr, codes, data.is_binary)
        keep = np.ones(n, dtype=bool)
        keep[cols] = False
        self.kept = kept = np.flatnonzero(keep)
        self.n = k = len(kept)
        w = _face_weights(n)
        self.cost = np.concatenate([data.c_min[kept], np.zeros(m)])
        self.face = np.concatenate([w[kept], np.zeros(m)])
        # the terms of A row after row: row, column, coefficient
        terms = np.repeat(np.arange(m), np.diff(A_csr.indptr)), A_csr.indices, A_csr.data
        if cols.size:
            self._substitute(data, b, terms, keep, w)
        else:
            self.A_csr, self.b = A_csr, b
            self.columns = _with_units(*terms, n, m)
        self._workspace(data)

    def _substitute(self, data: LpData, b: np.ndarray, terms, keep: np.ndarray, w: np.ndarray) -> None:
        """Take the columns `cols` out through the rows `rows` of the model
        whose right-hand sides are `b` and whose terms are `terms` (row,
        column, coefficient, row after row); `keep` marks the kept columns
        and `w` holds the face weights."""
        ri, cj, v = terms
        cols, rows, kept, k, m = self.cols, self.rows, self.kept, self.n, self.m
        t_of_row = np.full(m, -1)
        t_of_row[rows] = np.arange(cols.size)
        t_of_col = np.full(data.n, -1)
        t_of_col[cols] = np.arange(cols.size)
        new_col = np.cumsum(keep) - 1  # a kept column's index among the kept
        # `rows` increase with t, so the terms of the substitution rows come in t order
        sub_col = np.full(m, -1)
        sub_col[rows] = cols
        self.piv = piv = v[cj == sub_col[ri]]
        self.cost[k + rows] = data.c_min[cols] / piv
        self.face[k + rows] = w[cols] / piv
        on = (t_of_row[ri] >= 0) & keep[cj] & (v != 0)
        terms_ptr = _indptr(t_of_row[ri[on]], cols.size)
        self.row_terms = R = sp.csr_matrix((v[on], new_col[cj[on]], terms_ptr), shape=(cols.size, k))
        # M[i, t] = a_{i, cols[t]} / piv[t] off row rows[t]: the multiple of
        # row rows[t] that takes column cols[t] out of row i
        e = np.flatnonzero(t_of_col[cj] >= 0)
        e = e[ri[e] != rows[t_of_col[cj[e]]]]
        e = e[np.lexsort((t_of_col[cj[e]], ri[e]))]
        M_row, M_t = ri[e], t_of_col[cj[e]]
        M_val = v[e] / piv[M_t]
        self.M = sp.csr_matrix((M_val, M_t, _indptr(M_row, m)), shape=(m, cols.size))
        # A over the kept columns less M times the substitution rows: each
        # term of row i of M R summed in M's order, as scipy's sparse
        # product sums it, then merged with A's own terms
        ptr, pos = _gather_rows(terms_ptr, M_t)
        reps = np.diff(ptr)
        prod_keys, prod = np.unique(np.repeat(M_row, reps) * k + R.indices[pos], return_inverse=True)
        prod_vals = np.bincount(prod, weights=np.repeat(M_val, reps) * R.data[pos])
        nz = prod_vals != 0
        own = np.flatnonzero(keep[cj])
        keys, vals = _merged(np.concatenate([ri[own] * k + new_col[cj[own]], prod_keys[nz]]),
                             np.concatenate([v[own], -prod_vals[nz]]))
        rows_new, cols_new = np.divmod(keys, max(k, 1))
        self.A_csr = sp.csr_matrix((vals, cols_new, _indptr(rows_new, m)), shape=(m, k))
        self.columns = _with_units(rows_new, cols_new, vals, k, m)
        self.b = b - np.bincount(M_row, weights=M_val * b[rows][M_t], minlength=m)
        # the range of s_r that the kept columns' declared boxes imply: a
        # slack bound outside it can never bind (see _slack_boxes)
        lo, up = data.lower[kept], data.upper[kept]
        self.implied_lo = b[rows] - _box_max((terms_ptr, R.indices, R.data), lo, up)
        self.implied_up = b[rows] + _box_max((terms_ptr, R.indices, -R.data), lo, up)

    def _workspace(self, data: LpData) -> None:
        """Build the arrays every solve on this model reads (see the class
        docstring)."""
        k, m = self.n, self.m
        self.place = np.empty(data.n, dtype=np.int64)  # kept index, or -1 - t for cols[t]
        self.place[self.kept] = np.arange(k)
        self.place[self.cols] = -1 - np.arange(self.cols.size)
        self.c = np.zeros(k + 2 * m)
        self.c[: k + m] = self.cost
        self.tilted = self.c.copy()
        self.tilted[: k + m] -= TIE_EPS * self.face
        self.tie = np.zeros(k + 2 * m)
        self.tie[: k + m] = -self.face
        self.perturbation = DUAL_PERTURB * (1.0 + np.abs(self.tilted)) * (1.0 + _jitter(k + 2 * m))
        self.box_lo = np.concatenate([np.empty(k), self.slack_lo, np.zeros(m)])
        self.box_up = np.concatenate([np.empty(k), self.slack_up, np.full(m, math.inf)])
        self.narrow(self.box_lo, self.box_up, np.arange(data.n), data.lower, data.upper)
        for a in (self.c, self.tilted, self.tie, self.perturbation, self.box_lo, self.box_up):
            a.flags.writeable = False
        self._store: Optional[Tuple[np.ndarray, sp.csc_matrix, sp.csr_matrix]] = None

    def admits(self, upper: np.ndarray) -> bool:
        """Whether the rows dropped stay implied under the column upper
        bounds `upper` (tightened or not): no owner's bound may fall below
        what its dropped rows need."""
        return bool(np.all(upper[self.owners] >= self.needs))

    def _slack_boxes(self, t: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        """The boxes of the slacks of substitution rows rows[t], from the
        full model's column bounds: cols[t]'s box scaled by piv[t], each end
        left off where the other columns' declared boxes imply it (tighter
        boxes only narrow that range, so the feasible set is the same, and
        the slack never leaves the basis on a degenerate step there)."""
        a, b = self.piv[t] * lower[self.cols[t]], self.piv[t] * upper[self.cols[t]]
        s_lo, s_up = np.minimum(a, b), np.maximum(a, b)
        return (np.where(s_lo <= self.implied_lo[t], -math.inf, s_lo),
                np.where(s_up >= self.implied_up[t], math.inf, s_up))

    def narrow(self, lo: np.ndarray, up: np.ndarray, ids: np.ndarray, lower: np.ndarray,
               upper: np.ndarray) -> None:
        """Set the boxes `lo`, `up` of the full model's columns `ids` from
        their bounds `lower`, `upper`: a kept column's own bounds, or its
        row's slack box (_slack_boxes).  box_lo and box_up are set so over
        every id, and a solve's copies of them at its tightened columns."""
        p = self.place[ids]
        own = p >= 0
        lo[p[own]], up[p[own]] = lower[ids[own]], upper[ids[own]]
        if not own.all():
            t = -1 - p[~own]
            at = self.n + self.rows[t]
            lo[at], up[at] = self._slack_boxes(t, lower, upper)

    def store(self, art_sign: np.ndarray) -> Tuple[sp.csc_matrix, sp.csr_matrix]:
        """(F, F^T): the column store F = [A | I | diag(art_sign)] by
        columns, and by rows.  Built for the first solve with these
        artificial signs and kept until a solve asks for others; the warm
        solves of a search all start from bases that inherit their root's."""
        if self._store is None or not np.array_equal(self._store[0], art_sign):
            F = self.columns.copy()
            F.data[F.nnz - self.m :] = art_sign
            self._store = (art_sign.copy(), F, F.T)
        return self._store[1], self._store[2]

    def full_duals(self, y: np.ndarray, m: int) -> np.ndarray:
        """The duals of the full model's `m` rows from those `y` of this
        model's rows: each row here is its full row less M times the
        substitution rows, so a substitution row takes its own dual less
        M^T y, and a dropped row, which no optimum needs, takes 0."""
        if self.cols.size:
            y = y.copy()
            y[self.rows] -= self.M.T @ y
        if not self.dropped.size:
            return y
        full = np.zeros(m)
        full[np.setdiff1d(np.arange(m), self.dropped, assume_unique=True)] = y
        return full

    def postsolve(self, x_kept: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
        """The full point: kept columns as given, each substituted column
        rebuilt from its row and clipped to its bounds."""
        x = np.empty(len(lower))
        x[self.kept] = x_kept
        if self.cols.size:
            j = self.cols
            x[j] = np.clip((self.b[self.rows] - self.row_terms @ x_kept) / self.piv, lower[j], upper[j])
        return x


class _Basis:
    """LU factorization of the basis columns of F plus the eta file of the
    pivots since, kept in the compact product form of Schreiber & Van Loan,
    "A storage-efficient WY representation for products of Householder
    transformations", SIAM J. Sci. Stat. Comput. 10, 1989, applied to eta
    matrices.  Pivot i on row r_i with entering column w_i = B_{i-1}^{-1} a
    has E_i^{-1} = I - p_i e_{r_i}^T, p_i = (w_i - e_{r_i}) / w_i[r_i], and

        E_k^{-1} ... E_1^{-1} = I - P T Q^T,

    where P = [p_1 .. p_k] (stored by rows, `Pt`), Q = [e_{r_1} .. e_{r_k}]
    (`rows`) and T is unit lower triangular.  So ftran and btran are two
    dense products each, with no loop over the etas.  The file holds at most
    REFACTOR_EVERY etas; the callers refactorize when it is `full`."""

    def __init__(self, F: sp.csc_matrix):
        self.F = F
        self.lu = None
        m = F.shape[0]
        self.Pt = np.empty((REFACTOR_EVERY, m))
        self.T = np.zeros((REFACTOR_EVERY, REFACTOR_EVERY))
        self.rows = np.empty(REFACTOR_EVERY, dtype=np.intp)
        self.k = 0

    @property
    def full(self) -> bool:
        return self.k == REFACTOR_EVERY

    def refactor(self, basis: np.ndarray) -> None:
        try:
            self.lu = spla.splu(self.F[:, basis])
        except RuntimeError as exc:  # singular basis
            raise SimplexNumericalError(f"singular basis: {exc}") from exc
        self.k = 0

    def ftran(self, rhs: np.ndarray) -> np.ndarray:
        """B^{-1} rhs = (I - P T Q^T) B_0^{-1} rhs."""
        z = self.lu.solve(rhs)
        k = self.k
        if k:
            z -= (self.T[:k, :k] @ z[self.rows[:k]]) @ self.Pt[:k]
        return z

    def btran(self, rhs: np.ndarray) -> np.ndarray:
        """B^{-T} rhs = B_0^{-T} (I - Q T^T P^T) rhs; a row pivoted on twice
        takes both of its terms."""
        k = self.k
        if not k:
            return self.lu.solve(rhs, trans="T")
        u = (self.Pt[:k] @ rhs) @ self.T[:k, :k]
        v = rhs - np.bincount(self.rows[:k], weights=u, minlength=len(rhs))
        return self.lu.solve(v, trans="T")

    def push_eta(self, r: int, w: np.ndarray) -> None:
        """Append the eta of a pivot on row r with entering column w."""
        k = self.k
        p = self.Pt[k]
        np.divide(w, w[r], out=p)
        p[r] -= 1.0 / w[r]
        # T_{k+1} = [[T_k, 0], [-p_r^T T_k, 1]] with p_r = P[r, :k]
        self.T[k, :k] = -(self.Pt[:k, r] @ self.T[:k, :k])
        self.T[k, k] = 1.0
        self.rows[k] = r
        self.k = k + 1


class _Solver:
    """One solve over an LpData with optional extra bound tightenings
    (keyed by the LpData's variable ids).  It pivots on the reduced model
    (`lp`) and checks and reports on the full one (`data`).  `_pivot` is the
    one basis change of the primal (run_phase) and the dual (_dual_phase)
    loops; `_optimize` is the finish that `solve` and `solve_warm` share."""

    def __init__(self, data: LpData, extra_bounds: Optional[Dict[int, Tuple[float, float]]]):
        self.data = data
        x_lo, x_up = data.lower, data.upper
        if extra_bounds:
            x_lo, x_up = x_lo.copy(), x_up.copy()
            for vid, (xl, xu) in extra_bounds.items():
                x_lo[vid] = max(x_lo[vid], xl)
                x_up[vid] = min(x_up[vid], xu)
        self.x_lo, self.x_up = x_lo, x_up  # the full model's column bounds
        # a warm solve's prune test (see NodeBounds) and the safe bound that passed it
        self.prunes = getattr(extra_bounds, "prunes", None)
        self.cutoff_bound: Optional[float] = None
        lp = data.reduced()
        if not lp.admits(x_up):
            lp = data.reduced(drop_rows=False)
        self.lp = lp
        n, m = lp.n, lp.m
        self.n, self.m = n, m
        self.ncols = n + 2 * m  # kept structurals | slacks | artificials
        # the declared boxes, narrowed at the tightened columns alone
        self.lo, self.up = lp.box_lo.copy(), lp.box_up.copy()
        if extra_bounds:
            lp.narrow(self.lo, self.up, np.fromiter(extra_bounds, np.int64, len(extra_bounds)), x_lo, x_up)
        self._limits = np.empty(m)  # the ratio test's per-row steps
        self._unit = np.zeros(m)  # e_r of a tableau row
        self.iterations = 0

    def _set_art_sign(self, art_sign: np.ndarray) -> None:
        """Fix the artificial signs: F = [A | I | diag(art_sign)], from the
        model's store."""
        self.art_sign = art_sign
        self.F, self._rows = self.lp.store(art_sign)
        self.fact = _Basis(self.F)

    def col_dense(self, j: int) -> np.ndarray:
        F = self.F
        v = np.zeros(self.m)
        sl = slice(F.indptr[j], F.indptr[j + 1])
        v[F.indices[sl]] = F.data[sl]
        return v

    # -- setup --------------------------------------------------------------

    def _trivial(self) -> Optional[LpResult]:
        """The outcome when it needs no pivot (crossed bounds, an empty row
        that cannot hold), else None."""
        if np.any(self.x_lo > self.x_up + BOUND_TOL) or self.data.trivially_infeasible:
            return LpResult(status="infeasible")
        return None

    def _place_nonbasic(self, status: np.ndarray) -> None:
        """Every column at a bound: the upper one where `status` says so and
        it is finite, else the lower one when finite, else the upper one;
        columns with neither bound are free at zero."""
        lo, up = self.lo, self.up
        fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
        at_up = ((status == AT_UP) | ~fin_lo) & fin_up
        self.status = np.where(at_up, AT_UP, np.where(fin_lo, AT_LO, FREE)).astype(np.int8)
        self.val = np.where(at_up, up, np.where(fin_lo, lo, 0.0))

    def start(self) -> Optional[LpResult]:
        """Initial point: structurals nonbasic at a bound; each row's slack
        is basic when it can absorb the residual by itself, otherwise an
        artificial takes its place.  Returns an LpResult to short-circuit
        on trivial outcomes, else None."""
        short = self._trivial()
        if short is not None:
            return short
        n, m = self.n, self.m
        self._place_nonbasic(np.full(self.ncols, AT_LO, dtype=np.int8))

        r = self.lp.b - self.lp.A_csr @ self.val[:n]  # the value each slack must take
        left = r - self.val[n : n + m]  # what an artificial takes with the slack at its bound
        self._set_art_sign(np.where(left >= 0, 1.0, -1.0))
        slack_ok = (r >= self.lo[n : n + m] - 1e-12) & (r <= self.up[n : n + m] + 1e-12)
        self.basis = np.where(slack_ok, np.arange(n, n + m), np.arange(n + m, n + 2 * m))
        xb = np.where(slack_ok, r, np.abs(left))
        # a crash column takes its row from the fixed slack, which stays
        # nonbasic at its value; seated at its own value, it leaves every
        # residual unchanged, so the start stays feasible
        rows, cols = self._crash_columns(left)
        self.basis[rows] = cols
        xb[rows] = self.val[cols]
        self.status[self.basis] = BASIC
        self.val[self.basis] = self.xb = xb
        # artificials not seated in the basis stay pinned at zero
        self.up[n + m :][self.status[n + m :] != BASIC] = 0.0
        self.fact.refactor(self.basis)
        return None

    def _crash_columns(self, left: np.ndarray):
        """Structural columns to seat in rows whose slack is fixed (equality
        rows) and whose residual `left` is already zero: per such row, the
        movable column of the largest |a| >= 0.01 (ties to the lowest id)
        among those whose only fixed-row entry lies in that row, so the
        seated set is permutable to triangular.  Cuts the starting count of
        degenerate fixed-slack basics dramatically.  Returns (rows, columns)."""
        n, A = self.n, self.lp.A_csr
        rows = np.repeat(np.arange(self.m), np.diff(A.indptr))
        cols, a = A.indices, np.abs(A.data)
        fixed = self.lo[n + rows] == self.up[n + rows]
        ok = fixed & (np.bincount(cols[fixed], minlength=n) == 1)[cols]
        ok &= (np.abs(left[rows]) <= 1e-12) & (a >= 0.01) & (self.lo[cols] < self.up[cols])
        e = np.flatnonzero(ok)
        e = e[np.lexsort((cols[e], -a[e], rows[e]))]
        e = e[np.diff(rows[e], prepend=-1) != 0]  # each row's first
        return rows[e], cols[e]

    # -- core loop ------------------------------------------------------------

    def _ratio_test(self, q: int, d_q: float):
        """Step data for entering column q: (direction, w, t, t_own, t_rows,
        limits): the direction q moves in, its ftran'd column, the step
        length t = min(t_own, t_rows), the step to q's own other bound, the
        largest step the basic rows allow, and that step per row."""
        lo, up, stat = self.lo, self.up, self.status
        direction = 1.0 if (stat[q] == AT_LO or (stat[q] == FREE and d_q < 0)) else -1.0
        w = self.fact.ftran(self.col_dense(q))
        delta = direction * w
        lo_b, up_b = self.lo_b, self.up_b
        t_own = up[q] - lo[q] if np.isfinite(up[q]) and np.isfinite(lo[q]) else math.inf
        limits = self._limits
        limits.fill(math.inf)
        dec = (delta > PIVOT_TOL) & np.isfinite(lo_b)  # basic heads to its lower bound
        inc = (delta < -PIVOT_TOL) & np.isfinite(up_b)  # basic heads to its upper bound
        limits[dec] = (self.xb[dec] - lo_b[dec]) / delta[dec]
        limits[inc] = (self.xb[inc] - up_b[inc]) / delta[inc]
        np.maximum(limits, 0.0, out=limits)  # degeneracy can push slightly negative
        t_rows = float(limits.min()) if self.m else math.inf
        return direction, w, min(t_own, t_rows), t_own, t_rows, limits

    def _reduced_costs(self, c_all: np.ndarray) -> np.ndarray:
        return c_all - self._rows @ self.fact.btran(c_all[self.basis])

    def _tableau_row(self, r: int) -> Tuple[np.ndarray, np.ndarray]:
        """Row r of the basis inverse, rho, and of the full tableau
        B^{-1}[A | I | sign], alpha = rho^T F."""
        e = self._unit
        e[r] = 1.0
        rho = self.fact.btran(e)  # a new array: the LU solve copies its right-hand side
        e[r] = 0.0
        return rho, self._rows @ rho

    def _pivot(self, r: int, q: int, w: np.ndarray, theta: float, to_lower: bool) -> None:
        """The basis change of both loops: column q (w = B^{-1} F_q) moves by
        theta and takes row r, whose column leaves to its lower bound when
        `to_lower`, else to its upper one; the basic bounds lo_b, up_b follow."""
        leaving = self.basis[r]
        self.xb -= theta * w
        self.val[q] += theta
        self.xb[r] = self.val[q]
        self.status[leaving] = AT_LO if to_lower else AT_UP
        self.val[leaving] = self.lo[leaving] if to_lower else self.up[leaving]
        movable = self.lo[leaving] < self.up[leaving]
        self.side[leaving] = (1.0 if to_lower else -1.0) if movable else 0.0
        self.basis[r] = q
        self.lo_b[r], self.up_b[r] = self.lo[q], self.up[q]
        self.status[q] = BASIC
        self.side[q] = 0.0
        self.fact.push_eta(r, w)

    def _sides(self) -> np.ndarray:
        """The side vector that both loops keep up to date (in _pivot and at
        each bound flip): +1 for a movable column at its lower bound, -1 at
        its upper one, 0 for basic, fixed and free columns.  A column at a
        bound may move in the direction v when side * v < 0; the free
        nonbasic columns, in either direction, are checked apart.  Also
        gathers the basic columns' bounds, lo_b and up_b, which _pivot
        keeps up to date too."""
        self.lo_b, self.up_b = self.lo[self.basis], self.up[self.basis]
        movable = self.lo < self.up
        side = np.zeros(self.ncols)
        side[movable & (self.status == AT_LO)] = 1.0
        side[movable & (self.status == AT_UP)] = -1.0
        return side

    def run_phase(self, c_all: np.ndarray) -> str:
        """Minimize c_all over the current basis state. Returns "optimal"
        (no improving direction; the reduced costs it ends on are kept as
        `rc`) or "unbounded".  A column at a bound is eligible when side * d
        < -RC_TOL (see _sides), a free one when |d| > RC_TOL.

        Pricing is Devex (reference-weighted reduced costs), which keeps
        iteration counts near-linear in the row count on the heavily
        degenerate covering LPs this package produces; the Bland rule still
        takes over after a long run of degenerate steps to guarantee
        termination.
        """
        n, m = self.n, self.m
        bland = False
        degen_run = 0
        bland_trigger = 2 * (m + self.ncols)
        max_iters = 50000 + 20 * (m + self.ncols)
        gamma = np.ones(self.ncols)  # Devex reference weights
        d = None  # reduced costs, updated incrementally between refactors
        lo, up, stat = self.lo, self.up, self.status
        side = self.side = self._sides()  # fixed variables never enter
        free = np.flatnonzero(stat == FREE)

        for _ in range(max_iters):
            if self.fact.full:
                self._refresh()
                d = None

            d_fresh = d is None
            if d is None:
                d = self._reduced_costs(c_all)

            elig = side * d < -RC_TOL
            if free.size:
                elig[free] = (stat[free] == FREE) & (np.abs(d[free]) > RC_TOL)
            idx = elig.nonzero()[0]
            if not idx.size:
                if d_fresh:
                    self.rc = d
                    return "optimal"
                d = None  # confirm optimality against freshly computed costs
                continue

            if bland:
                q = int(idx[0])
            else:
                d_e = d[idx]
                q = int(idx[(d_e * d_e / gamma[idx]).argmax()])
            direction, w, t, t_own, t_rows, limits = self._ratio_test(q, d[q])

            if not np.isfinite(t):
                return "unbounded"

            self.iterations += 1
            if t <= DEGEN_STEP:
                degen_run += 1
                if degen_run >= bland_trigger:
                    bland = True
            else:
                degen_run = 0
                bland = False

            theta = direction * t
            if t_own <= t_rows:
                # bound-to-bound flip, basis unchanged
                self.xb -= theta * w
                self.val[q] = up[q] if direction > 0 else lo[q]
                stat[q] = AT_UP if direction > 0 else AT_LO
                side[q] = -direction
                continue
            cand = (limits <= t + 1e-9 * (1.0 + t)).nonzero()[0]
            # prefer evicting a bound-fixed basic (it can never re-enter, so
            # even a zero-length pivot makes permanent progress), then the
            # largest pivot magnitude for stability, then the lowest row
            fixed = cand[self.lo_b[cand] >= self.up_b[cand]]
            if fixed.size:
                cand = fixed
            r = int(cand[np.abs(w[cand]).argmax()])

            # the pivot row drives both the Devex weights and an incremental
            # reduced-cost update (exact recompute happens at every
            # refactorization)
            alpha = self._tableau_row(r)[1]
            aq = alpha[q]
            if abs(aq) > PIVOT_TOL:
                d_q = d[q]
                d -= (d_q / aq) * alpha
                d[q] = 0.0
                ratio = alpha / aq
                np.maximum(gamma, ratio * ratio * gamma[q], out=gamma)
                gamma[self.basis[r]] = max(gamma[q] / (aq * aq), 1.0)
                if gamma.max() > 1e8:
                    gamma[:] = 1.0
            else:
                d = None  # pivot too small for a safe update
            self._pivot(r, q, w, theta, direction * w[r] > 0)

        raise SimplexNumericalError("simplex iteration limit exceeded")

    def _refresh(self, refactor: bool = True) -> None:
        """Refactorize (unless `refactor` is False: the factor at hand is
        already the current basis's) and recompute basic values from
        scratch."""
        n, m = self.n, self.m
        if refactor:
            self.fact.refactor(self.basis)
        nb_val = self.val.copy()
        nb_val[self.basis] = 0.0
        rhs = self.lp.b - self.lp.A_csr @ nb_val[:n] - nb_val[n : n + m]
        rhs -= self.art_sign * nb_val[n + m :]
        self.xb = self.fact.ftran(rhs)
        self.val[self.basis] = self.xb

    # -- warm dual ------------------------------------------------------------

    def _dual_feasible_costs(self, c: np.ndarray, d: np.ndarray, perturb: bool):
        """Costs near `c` under which the current basis is dual feasible:
        each movable nonbasic column's reduced cost is moved to the side its
        bound needs and, with `perturb`, a small deterministic amount past
        zero (which spreads the ties of dual-degenerate vertices).  Returns
        (costs, reduced costs), or None when a reduced cost has the wrong
        sign by more than DUAL_TOL or a free nonbasic column has a nonzero
        one: the basis is then no warm start for these costs.  The
        perturbation is the model's (_Reduced.perturbation), which is made
        for the tilted costs that the dual starts from."""
        stat = self.status
        movable = self.lo < self.up
        at_lo = (stat == AT_LO) & movable
        at_up = (stat == AT_UP) & movable
        free = stat == FREE
        if (
            np.any(d[at_lo] < -DUAL_TOL)
            or np.any(d[at_up] > DUAL_TOL)
            or np.any(np.abs(d[free]) > DUAL_TOL)
        ):
            return None
        pert = self.lp.perturbation if perturb else np.zeros(self.ncols)
        target = d.copy()
        target[at_lo] = np.maximum(d[at_lo], 0.0) + pert[at_lo]
        target[at_up] = np.minimum(d[at_up], 0.0) - pert[at_up]
        target[free] = 0.0
        return c + (target - d), target

    def _dual_phase(self, c: np.ndarray) -> Optional[str]:
        """Bounded dual simplex from a dual-feasible basis for costs `c`.
        Returns "feasible" once every basic value is within its bounds,
        "infeasible" when proves_infeasible confirms a row's certificate,
        "cutoff" when the prune test passes a safe bound (see _cuts_off),
        or None on a stall, a numerical failure or an unconfirmed one.

        Pricing is dual Devex: row r leaves when it maximizes infeas_r^2 /
        beta_r over the rows outside their bounds.  The reference weights
        beta start at 1 and follow each pivot on row r with entering
        column w: beta_i = max(beta_i, (w_i / w_r)^2 beta_r), and beta_r =
        max(beta_r / w_r^2, 1) for the entering column's row; past 1e8
        they all restart at 1, as the primal's weights do.  The largest
        infeasibility alone ignores how the current basis scales a row,
        and takes over a third more pivots on the paper's node LPs."""
        lo, up, stat = self.lo, self.up, self.status
        side = self.side = self._sides()
        free = np.flatnonzero(stat == FREE)
        max_iters = 2 * self.m + 100
        d = None
        beta = np.ones(self.m)  # dual Devex reference weights, one per basic row
        for it in range(max_iters + 1):
            if self.fact.full:
                self._refresh()
                d = None
            if d is None:
                shifted = self._dual_feasible_costs(c, self._reduced_costs(c), perturb=it == 0)
                if shifted is None:
                    return None
                c, d = shifted
            if self.prunes is not None and self._cuts_off(c):
                return "cutoff"

            below = self.lo_b - self.xb
            above = self.xb - self.up_b
            infeas = np.maximum(below, above)
            short = infeas > BOUND_TOL
            if not short.any():
                return "feasible"
            r = int(np.where(short, infeas * infeas / beta, -1.0).argmax())
            if it == max_iters:
                return None  # stalled: the cold solve takes over

            # the leaving variable goes to the bound it violates; its reduced
            # cost becomes s*t, and d_j + s*t*alpha_j must keep each nonbasic
            # reduced cost on its bound's side
            leave_to_lower = below[r] > 0
            s = 1.0 if leave_to_lower else -1.0
            rho, alpha = self._tableau_row(r)
            mask = side * (s * alpha) < -PIVOT_TOL
            if free.size:
                mask[free] = (stat[free] == FREE) & (np.abs(alpha[free]) > PIVOT_TOL)
            cand = mask.nonzero()[0]
            if cand.size == 0:  # row r rules every point out; check it on the full rows
                y = self.lp.full_duals(rho, self.data.m)
                return "infeasible" if proves_infeasible(self.data, y, self.x_lo, self.x_up) else None
            abs_a = np.abs(alpha[cand])
            room = np.maximum(side[cand] * d[cand], 0.0)  # 0 for a free column
            ratios = room / abs_a
            # Harris: among the steps within the relaxed bound, the largest pivot
            relaxed = float(((room + RC_TOL) / abs_a).min())
            ok = (ratios <= relaxed).nonzero()[0]
            k = int(ok[abs_a[ok].argmax()])  # ties to the lowest column
            q, t = int(cand[k]), float(ratios[k])

            w = self.fact.ftran(self.col_dense(q))
            if abs(w[r]) < PIVOT_TOL or abs(w[r] - alpha[q]) > 1e-7 * (1.0 + abs(alpha[q])):
                return None  # row and column disagree: numerical trouble
            bound = lo[self.basis[r]] if leave_to_lower else up[self.basis[r]]
            self._pivot(r, q, w, (self.xb[r] - bound) / w[r], leave_to_lower)
            ratio = w / w[r]
            beta_r = beta[r]
            np.maximum(beta, ratio * ratio * beta_r, out=beta)
            beta[r] = max(beta_r / (w[r] * w[r]), 1.0)
            if beta.max() > 1e8:
                beta[:] = 1.0
            d += (s * t) * alpha
            d[q] = 0.0
            self.iterations += 1
        return None

    def _cuts_off(self, c: np.ndarray) -> bool:
        """Whether a safe bound prunes the node (and is kept as cutoff_bound).
        The trigger is the objective of the current basic point under `c`,
        the costs under which the basis is dual feasible: the dual's own
        bound, but on those shifted costs.  Only when it prunes does the
        confirmation run: the duals B^-T c_B of the exact costs, lifted to
        the full rows, give dual_bound over the node's boxes, which holds
        whatever the basis."""
        basis = self.basis
        z = float(c @ self.val) + float(c[basis] @ (self.xb - self.val[basis]))
        if not self.prunes(self.data.obj_sign * z):
            return False
        bound = dual_bound(self.data, self._duals(), self.x_lo, self.x_up)
        if bound is None or not self.prunes(bound):
            return False
        self.cutoff_bound = bound
        return True

    def _duals(self) -> np.ndarray:
        """The row duals B^-T c_B of the current basis under the exact costs,
        one per row of the full model (see _Reduced.full_duals)."""
        y = self.fact.btran(self.lp.c[self.basis])
        return self.lp.full_duals(y, self.data.m)

    def solve_warm(self, warm: WarmBasis) -> Optional[LpResult]:
        """Solve from `warm`, an optimal basis of an LP with the same rows and
        costs; None when it is no usable start or the dual does not finish
        (the caller then solves cold)."""
        short = self._trivial()
        if short is not None:
            return short
        n, m = self.n, self.m
        if warm.basis.shape != (m,) or warm.status.shape != (self.ncols,):
            return None
        self._set_art_sign(warm.art_sign)
        self.lo[n + m :] = 0.0  # artificials only ever rest at zero
        self.up[n + m :] = 0.0
        self.basis = warm.basis.copy()
        self._place_nonbasic(warm.status)
        self.status[self.basis] = BASIC
        # the solve that returned `warm` left the factor of this very basis
        # matrix on the LpData: the same LU that splu would compute here
        handed = self.data.last_factor
        if handed is not None and handed[0] is warm and handed[1] is self.lp:
            self.fact.lu = handed[2]
            self._refresh(refactor=False)
        else:
            self._refresh()

        outcome = self._dual_phase(self.lp.tilted)
        if outcome == "infeasible":
            return LpResult(status="infeasible", iterations=self.iterations)
        if outcome == "cutoff":  # no point, no basis, and the factor slot left as it is
            return LpResult(status="cutoff", objective=self.cutoff_bound, iterations=self.iterations)
        # the cold solve's finish, from a basis that is already close; a child
        # of a bounded LP is bounded, so "unbounded" is numerical trouble
        return self._optimize() if outcome == "feasible" else None

    def _settle(self, d: np.ndarray) -> None:
        """From an optimal basis for costs c, with reduced costs `d` (those
        that the phase on c ended on), move to the optimum that
        maximizes _face_weights . x.  Nonbasic columns with a nonzero reduced
        cost are held at their bounds (complementary slackness: so is every
        optimal point), which leaves exactly the optimal face free; that
        point of it is unique, so a node's answer does not depend on the
        basis its solve started from (a warm start would otherwise stay
        near the parent's point, and the search would take other
        branches).  An "unbounded" here (the face is unbounded along the
        weights) is not a verdict: the basis it leaves is still optimal for
        c, and the LP's status is the exact phase's."""
        saved_lo, saved_up = self.lo.copy(), self.up.copy()
        held = (self.status != BASIC) & (np.abs(d) > RC_TOL)
        self.lo[held] = self.up[held] = self.val[held]
        self.run_phase(self.lp.tie)  # "unbounded" leaves an optimal basis in place
        self.lo, self.up = saved_lo, saved_up

    # -- drive ------------------------------------------------------------

    def solve(self) -> LpResult:
        short = self.start()
        if short is not None:
            return short
        n, m = self.n, self.m

        # deterministic per-column cost jitter (phase 1) and tilt (phase 2)
        # break the pricing ties that symmetric covering structures produce
        # in droves; a phase with exact costs then settles the true optimum
        # from the (near-optimal) basis, and _settle picks one point of the
        # optimal face
        c1 = np.zeros(self.ncols)
        c1[n + m :] = 1.0 + 1e-3 * _jitter(self.ncols)[n + m :]
        if self.run_phase(c1) == "unbounded":
            raise SimplexNumericalError("phase 1 reported unbounded")
        self._refresh()
        # phase 1's verdict is the finish's re-verification (_finish): the
        # full model's point within the boxes and each full row within
        # FEAS_TOL, less the dropped rows, which hold at every optimum but
        # not at every point (_dominated_rows)
        if not self.data.feasible(self._point(), self.x_lo, self.x_up, skip=self.lp.dropped):
            return LpResult(status="infeasible", iterations=self.iterations)

        # pin artificials for phase 2 at their phase-1 values: zero, or a
        # residual that the test above let pass, which phase 2 then keeps
        self.lo[n + m :] = self.val[n + m :]
        self.up[n + m :] = self.val[n + m :]
        return self._optimize() or LpResult(status="unbounded", iterations=self.iterations)

    def _optimize(self) -> Optional[LpResult]:
        """The finish of both solves, from a primal feasible basis: the
        primal simplex on the tilted costs, then on the exact ones (usually a
        few pivots), then _settle; None when the LP is unbounded.  Only the
        exact phase gives that verdict: it starts from a primal feasible
        basis, so it finds an improving ray exactly when one exists.  The
        tilted phase runs for its basis alone, as _settle does; its
        "unbounded" may be a ray that only the tilt improves (a zero-cost
        column with an infinite bound), and leaves a feasible basis."""
        self.run_phase(self.lp.tilted)
        if self.run_phase(self.lp.c) != "optimal":
            return None
        self._settle(self.rc)
        self._refresh()
        return self._finish()

    def _point(self) -> np.ndarray:
        """The full model's point (postsolve) of the current basic solution."""
        n = self.n
        x_kept = np.clip(self.val[:n], self.lo[:n], self.up[:n])
        return self.lp.postsolve(x_kept, self.x_lo, self.x_up)

    def _finish(self) -> LpResult:
        data, lo, up = self.data, self.x_lo, self.x_up
        x = self._point()
        if not data.feasible(x, lo, up):  # independent substitution check, on the full rows
            raise SimplexNumericalError("optimal point failed residual re-verification")
        obj = float(data.c_min @ x) * data.obj_sign
        basis = WarmBasis(self.basis, self.status, self.art_sign)
        # the finish ends on a refactorization, so the eta file is empty and
        # the LU is the factor of this basis alone: hand it on
        data.last_factor = (basis, self.lp, self.fact.lu)
        return LpResult(
            status="optimal",
            values=x,
            objective=obj,
            iterations=self.iterations,
            basis=basis,
            duals=self._duals(),
        )


def solve_lp(
    instance_or_data,
    extra_bounds: Optional[Dict[int, Tuple[float, float]]] = None,
) -> LpResult:
    """Solve the LP relaxation (integrality dropped) of an instance.

    `extra_bounds` maps variable ids to (lower, upper) tightenings; they
    may only tighten the declared bounds, which is how branch-and-bound
    fixes binaries.  When it is a NodeBounds with a basis, the solve starts
    from that basis (see the module docstring) and falls back to the cold
    solve when it cannot; the pivots of both count in `iterations`.  A
    NodeBounds with a prune test may also end the warm solve early, with
    status "cutoff" and a safe bound that passes the test as `objective`;
    the cold solve never stops early.  Only the phase on the exact costs
    decides "unbounded" (a ray of the phase-2 tilt alone is not a verdict;
    see _Solver._optimize), and an LP with no rows left after presolve runs
    the same general path.  Accepts a MilpInstance or its LpData.
    """
    data = instance_or_data if isinstance(instance_or_data, LpData) else LpData(instance_or_data)
    warm = getattr(extra_bounds, "basis", None)
    spent = 0
    if warm is not None:
        solver = _Solver(data, extra_bounds)
        try:
            res = solver.solve_warm(warm)
        except SimplexNumericalError:
            res = None
        if res is not None:
            return res
        spent = solver.iterations
    res = _Solver(data, extra_bounds).solve()
    res.iterations += spent
    return res
