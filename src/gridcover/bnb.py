"""Branch-and-bound MILP solver over LP relaxations.

Pure branch-and-bound (no cutting planes): fractional binaries are fixed
to 0/1 via per-node bound tightenings, with most-fractional branching.
The open nodes sit in one heap for both search orders, keyed by the
negated bound in best-bound order and by 0 in depth-first order, with a
tie key that prefers the newest node: so best-bound search plunges (the
first child of the node just branched is solved next) and depth-first
search pops the nodes as a stack would.  The first child is the side
the branching binary leans toward, and the down side at an exact 0.5.
Binaries that are equally fractional in exact arithmetic (several at 0.5
in the symmetric cover models) differ in the LP point by rounding noise,
and np.argmax takes the largest computed fraction, so such a tie falls to
that noise, not to a fixed order.  Bounds are rounded to the objective's
next integer (simplex.LpData.round_bound) when the model shows an
integral objective (simplex.LpData.objective_integral; the paper's models
count whole cells and movements).  A seeded search may
close before any LP, on the first of three bounds, each computed only
when the ones before it leave a gap: the bound of the variable boxes alone
(the dual bound at y = 0), the bound on the root LP that the LP's symmetry
quotient proves (quotient.lp_bound), and a bound on every integer point
that the caller hands with the instance (hand_bound).  When the seed
attains one, the search ends "optimal" at 0 nodes, as a root LP no better
than the seed would have ended it.  The harness's packing seeds close
placement solves this way, its movement seeds close movement solves
(mov10 among them), and a coverage seed closes on the single-path
bound that the harness hands in (harness.path_bound; table8's L=1/N_s=3
row); this module knows nothing of paths.  Otherwise the root relaxation is
solved cold by the bounded-variable simplex.  Every other node's bound map
is a NodeBounds that carries its parent's optimal basis (one object,
shared by the two siblings), from which the simplex re-optimizes with the
dual simplex; a child solved right after its parent also starts from the
parent's LU factor (see simplex.LpData.last_factor).  The node's answer is
the point a cold solve gives, up to rounding noise.  One prune test,
_Search.prunes (the bound rounded, against the incumbent), closes every
node: a finished LP's objective, and, carried on each child's NodeBounds,
the safe bound at which that child's warm dual stops early (status
"cutoff", treated as "infeasible": the node is pruned and its subtree never
built), so a pruned node spends no pivots on the optimum it is not read for.
Every incumbent is re-verified by substitution with its binaries snapped
exactly to {0, 1} before being accepted (a node point within INT_TOL of
integral that snapping breaks is branched on), and the reported objective is
recomputed from the incumbent values rather than trusted from the
relaxation.  Points (LP answers, the warm start, the incumbent) are float
vectors indexed by variable id, as everywhere in the package.

Node exploration is single-threaded, so two runs on identical inputs give
identical node counts and incumbents.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .milp import INT_TOL, MilpInstance
from .quotient import lp_bound
from .simplex import LpData, NodeBounds, dual_bound, solve_lp


@dataclass
class SolveParams:
    """Solver controls. Defaults follow the reference experiment setup:
    18000 s limit, zero relative gap.  Bound rounding is the model's call."""

    time_limit: float = 18000.0
    mip_gap: float = 0.0
    node_selection: str = "best-bound"  # "best-bound" | "depth-first"
    node_limit: Optional[int] = None  # deterministic alternative to wall-clock capping

    def __post_init__(self) -> None:
        # written so that NaN fails: a NaN limit would never trip
        if not self.time_limit > 0:
            raise ValueError("time_limit must be positive")
        if not self.mip_gap >= 0:
            raise ValueError("mip_gap must be >= 0")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be >= 0")
        if self.node_selection not in ("best-bound", "depth-first"):
            raise ValueError(f"unknown node_selection {self.node_selection!r}")


@dataclass
class MilpResult:
    status: str  # "optimal" | "feasible" | "no-incumbent" | "infeasible" | "unbounded"
    incumbent: Optional[np.ndarray]  # the point, one value per variable id
    objective: Optional[float]
    best_bound: Optional[float]
    gap: Optional[float]
    nodes_explored: int


def _relative_gap(objective: Optional[float], bound: Optional[float]) -> Optional[float]:
    if objective is None or bound is None or not math.isfinite(bound):
        return None
    return abs(objective - bound) / max(1.0, abs(objective))


class _Search:
    def __init__(self, instance: MilpInstance, params: SolveParams):
        self.instance = instance
        self.params = params
        self.data = LpData(instance)
        self.binaries = np.flatnonzero(self.data.is_binary)
        self.sign = -self.data.obj_sign  # score = sign * objective = -(c_min . x), maximized
        self.incumbent: Optional[np.ndarray] = None
        self.inc_score = -math.inf
        self.nodes_explored = 0

    # -- incumbent handling -------------------------------------------------

    def try_incumbent(self, point: np.ndarray) -> Optional[bool]:
        """Snap binaries exactly to {0,1} and re-verify by substitution:
        None when the snapped point breaks a bound or a row, else whether
        it improves on the incumbent (and is kept)."""
        x = point.copy()
        x[self.binaries] = np.round(x[self.binaries])
        if not self.data.feasible(x, self.data.lower, self.data.upper):
            return None
        score = -float(self.data.c_min @ x)
        if score > self.inc_score + 1e-12:
            self.inc_score = score
            self.incumbent = x
            return True
        return False

    # -- bounds before the root ---------------------------------------------

    def prunes(self, bound: Optional[float]) -> bool:
        """Whether `bound`, a bound on a node's objective (in the instance's
        sense; None: no bound), prunes that node: the incumbent reaches it
        once it is rounded."""
        return bound is not None and self.sign * self.data.round_bound(bound) <= self.inc_score + 1e-9

    # -- search -------------------------------------------------------------

    def run(self, warm_start: Optional[np.ndarray]) -> MilpResult:
        params = self.params
        t0 = time.monotonic()

        if warm_start is not None:
            warm_start = np.asarray(warm_start, dtype=float)
            if warm_start.shape != (self.data.n,):
                raise ValueError(
                    f"warm start has shape {warm_start.shape}, expected ({self.data.n},)"
                )
            if not self.try_incumbent(warm_start):
                raise ValueError("warm start point is not feasible for this instance")

        # a seeded search that attains a bound proven before any LP is done:
        # the bound from the variable boxes alone (the dual bound at y = 0;
        # e.g. full-coverage plans), then the symmetry quotient's bound on
        # the root LP, then the bound handed with the instance (hand_bound),
        # each computed only when the ones before it fail
        if self.incumbent is not None and (
            self.prunes(dual_bound(self.data, np.zeros(self.data.m)))
            or self.prunes(lp_bound(self.instance))
            or self.prunes(_handed_bound(self.instance))
        ):
            return self._finish(False, False, [])

        # (order key, tie key, score bound, bound-tightening map); below the
        # root the map is a NodeBounds holding the parent's basis.  The order
        # key is the negated bound in best-bound order and 0 in depth-first
        # order.  The tie key counts down, so depth-first pops the newest
        # node (a stack), and among nodes of equal bound best-bound pops the
        # newest first (plunging): the preferred child of the node just
        # branched, whose solve then starts from the factor that its
        # parent's solve left (see simplex.solve_warm)
        heap: List[Tuple[float, int, float, Dict[int, Tuple[float, float]]]] = [(-math.inf, 0, math.inf, {})]
        seq = 0
        hit_limit = False
        saw_unbounded = False

        while heap:
            if (params.node_limit is not None and self.nodes_explored >= params.node_limit) or (
                time.monotonic() - t0 > params.time_limit
            ):
                hit_limit = True
                break

            _, _, bound_score, bounds = heapq.heappop(heap)
            if bound_score <= self.inc_score + 1e-9:
                continue

            res = solve_lp(self.data, bounds)
            self.nodes_explored += 1
            if res.status in ("infeasible", "cutoff"):
                continue
            if res.status == "unbounded":
                saw_unbounded = True
                break
            if self.prunes(res.objective):
                continue
            node_score = self.sign * self.data.round_bound(res.objective)

            xb = res.values[self.binaries]
            frac = np.minimum(np.abs(xb), np.abs(1.0 - xb))
            if not xb.size or float(frac.max()) <= INT_TOL:
                # a point that snapping breaks (a binary off by more than
                # the rows' tolerance) is branched on, as a fractional one is
                if self.try_incumbent(res.values) is not None or not frac.any():
                    continue

            branch_pos = int(np.argmax(frac))
            branch_var = int(self.binaries[branch_pos])
            # a child's warm solve stops once a safe bound passes prunes, a
            # bound method that reads the incumbent at the time of that solve
            down = NodeBounds(bounds, res.basis, self.prunes)
            down[branch_var] = (0.0, 0.0)
            up = NodeBounds(bounds, res.basis, self.prunes)
            up[branch_var] = (1.0, 1.0)
            # explore the side the fractional value leans toward first, and
            # the down side at an exact 0.5 (where the computed value's side
            # is rounding noise)
            first, second = (up, down) if xb[branch_pos] > 0.5 + 1e-9 else (down, up)
            key = -node_score if params.node_selection == "best-bound" else 0.0
            heapq.heappush(heap, (key, seq - 1, node_score, second))
            heapq.heappush(heap, (key, seq - 2, node_score, first))
            seq -= 2

            if self.incumbent is not None and params.mip_gap > 0:
                gap_now = _relative_gap(self.sign * self.inc_score, self.sign * self._open_bound(heap))
                if gap_now is not None and gap_now <= params.mip_gap + 1e-12:
                    break

        return self._finish(hit_limit, saw_unbounded, heap)

    def _open_bound(self, open_nodes) -> float:
        return max([self.inc_score] + [bound_score for _, _, bound_score, _ in open_nodes])

    def _finish(self, hit_limit: bool, saw_unbounded: bool, open_nodes) -> MilpResult:
        bound_score = self._open_bound(open_nodes)
        # without an incumbent and with nothing left open, bound_score is -inf
        bound = self.sign * bound_score if math.isfinite(bound_score) else None
        incumbent, objective, gap = self.incumbent, None, None
        if saw_unbounded:
            status, incumbent, bound = "unbounded", None, None
        elif incumbent is None:
            status = "no-incumbent" if open_nodes or hit_limit else "infeasible"
        else:
            objective = self.sign * self.inc_score
            gap = _relative_gap(objective, bound)
            closed = not open_nodes or (gap is not None and gap <= self.params.mip_gap + 1e-12)
            status = "optimal" if closed and not (hit_limit and open_nodes) else "feasible"
        return MilpResult(status, incumbent, objective, bound, gap, self.nodes_explored)


def hand_bound(instance: MilpInstance, bound: Callable[[], Optional[float]]) -> None:
    """Give the seeded searches of `instance` one more bound to close on
    before any LP: `bound()` is a proven bound on the objective of every
    integer point (None: no bound), called at most once, and only when a
    seed attains neither the box nor the quotient bound.  It is kept with
    the instance's other derived views, so a change to the model drops
    it."""
    instance._views["handed_bound"] = bound


def _handed_bound(instance: MilpInstance) -> Optional[float]:
    """The value of the bound handed with `instance` (None: none)."""
    views = instance._views
    bound = views.get("handed_bound")
    if callable(bound):
        views["handed_bound"] = bound = bound()
    return bound


def solve_milp(
    instance: MilpInstance,
    params: Optional[SolveParams] = None,
    warm_start: Optional[np.ndarray] = None,
) -> MilpResult:
    """Solve a MilpInstance to proven optimality or until a limit is hit.

    On status "optimal" the objective equals the true optimum (node tree
    exhausted or gap target met), and `incumbent` is the optimal point, a
    float vector of length n_variables.  `warm_start` seeds the incumbent
    with a feasible point of that length (verified here; a seed of another
    shape or an infeasible one raises ValueError); correctness is
    unaffected, pruning just tightens (see hand_bound for a bound the
    search may close on).  Numerical failures from the LP engine propagate
    as SimplexNumericalError.
    """
    return _Search(instance, params or SolveParams()).run(warm_start)
