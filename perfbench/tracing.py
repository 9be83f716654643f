"""Per-layer spans and counters, taken from outside the program.

`Trace.installed()` rebinds the names through which gridcover's modules
(and the benchmark's own workload module) reach each layer, so every call
into a layer runs inside a span.  A span's self time is its duration minus
the time of the spans nested in it.  With `timed=False` only the
`solve_milp` results are kept, for the output checks; nothing is timed.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

# name -> span; the name is rebound wherever a namespace imports it
SPANS = {
    "build_milp_static": "formulations.build",
    "build_milp_cov": "formulations.build",
    "build_milp_mov": "formulations.build",
    "decode_static": "formulations.decode",
    "decode_plan": "formulations.decode",
    "LpData": "simplex.lpdata",
    "write_lp_text": "milp.lp_text",
    "instance_stats": "milp.stats",
    "pack_static_positions": "harness.warm_start",
    "best_seed_plan": "harness.warm_start",
    "evaluate_plan": "grid.evaluate",
}

LAYERS = ("grid", "formulations", "milp", "simplex", "bnb", "harness")


def is_dive(params) -> bool:
    """The harness hunts for an incumbent with a depth-first solve when its
    greedy seed fails; every other solve_milp call is a final search."""
    return params is not None and params.node_selection == "depth-first"


class Trace:
    def __init__(self, namespaces, timed: bool):
        self.namespaces = namespaces
        self.timed = timed
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.solves: List[Tuple[object, object]] = []  # (SolveParams, MilpResult)
        self.root_lps: List[Tuple[object, object]] = []  # (LpData, LpResult)
        self._children: List[float] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        self._children.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            took = time.perf_counter() - t0
            self.self_s[name] += took - self._children.pop()
            self.calls[name] += 1
            if self._children:
                self._children[-1] += took

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            self.counts[fn.__name__] += 1
            return self._span(name, fn, args, kwargs)

        return traced

    def _wrap_solve_lp(self, fn):
        def solve_lp(data, extra_bounds=None):
            if not extra_bounds:
                kind = "root_lp"
            elif len(extra_bounds) == int(data.is_binary.sum()) and all(
                lo == up for lo, up in extra_bounds.values()
            ):
                kind = "repair_lp"
            else:
                kind = "node_lp"
            res = self._span("simplex." + kind, fn, (data, extra_bounds), {})
            self.counts[kind + "_pivots"] += res.iterations
            if kind == "node_lp" and res.status == "infeasible":
                self.counts["node_lp_infeasible"] += 1
            if kind == "root_lp":
                self.root_lps.append((data, res))
            return res

        return solve_lp

    def _wrap_solve_milp(self, fn):
        def solve_milp(instance, params=None, warm_start=None):
            if self.timed:
                res = self._span("bnb", fn, (instance, params, warm_start), {})
            else:
                res = fn(instance, params, warm_start)
            self.solves.append((params, res))
            return res

        return solve_milp

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        saved = []
        for ns in self.namespaces:
            for name in ("solve_milp", "solve_lp", *SPANS):
                if not hasattr(ns, name) or (name != "solve_milp" and not self.timed):
                    continue
                orig = getattr(ns, name)
                saved.append((ns, name, orig))
                if name == "solve_milp":
                    setattr(ns, name, self._wrap_solve_milp(orig))
                elif name == "solve_lp":
                    setattr(ns, name, self._wrap_solve_lp(orig))
                else:
                    setattr(ns, name, self._wrap(SPANS[name], orig))
        try:
            yield self
        finally:
            for ns, name, orig in reversed(saved):
                setattr(ns, name, orig)

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, took in self.self_s.items():
            out[span.split(".")[0]] += took
        return out

    def counters(self) -> Dict[str, float]:
        """Work counts; these repeat exactly on every pass of a workload."""
        dives = [res for params, res in self.solves if is_dive(params)]
        searches = [res for params, res in self.solves if not is_dive(params)]
        attempts = self.counts["best_seed_plan"]  # one per mobile solve
        return {
            "formulations.build_calls": self.calls["formulations.build"],
            "simplex.root_lp_calls": self.calls["simplex.root_lp"],
            "simplex.root_lp_pivots": self.counts["root_lp_pivots"],
            "simplex.node_lp_calls": self.calls["simplex.node_lp"],
            "simplex.node_lp_pivots": self.counts["node_lp_pivots"],
            "simplex.node_lp_infeasible": self.counts["node_lp_infeasible"],
            "simplex.repair_lp_calls": self.calls["simplex.repair_lp"],
            "bnb.search_nodes": sum(r.nodes_explored for r in searches),
            "bnb.dive_calls": len(dives),
            "bnb.dive_nodes": sum(r.nodes_explored for r in dives),
            "harness.warm_start_calls": self.calls["harness.warm_start"],
            # depth-first dives per mobile solve: greedy seeds that failed
            "harness.warm_fallback_frac": len(dives) / attempts if attempts else 0.0,
        }

    def timings(self) -> Dict[str, float]:
        s = self.self_s

        def per_pivot(kind):
            pivots = self.counts[kind + "_pivots"]
            return 1e6 * s["simplex." + kind] / pivots if pivots else 0.0

        return {
            "formulations.build_s": s["formulations.build"],
            "formulations.decode_s": s["formulations.decode"],
            "simplex.lpdata_s": s["simplex.lpdata"],
            "milp.lp_text_s": s["milp.lp_text"],
            "milp.stats_s": s["milp.stats"],
            "simplex.root_lp_s": s["simplex.root_lp"],
            "simplex.root_lp_us_per_pivot": per_pivot("root_lp"),
            "simplex.node_lp_s": s["simplex.node_lp"],
            "simplex.node_lp_us_per_pivot": per_pivot("node_lp"),
            "simplex.repair_lp_s": s["simplex.repair_lp"],
            "bnb.self_s": s["bnb"],
            "harness.warm_start_s": s["harness.warm_start"],
            "grid.evaluate_s": s["grid.evaluate"],
        }


def highs_check(root_lps, tol: float = 1e-6):
    """Solve each captured root LP with HiGHS; return (seconds, mismatches)."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    took = 0.0
    mismatches = []
    for data, res in root_lps:
        senses = np.array(data.senses)
        le, ge, eq = senses == "<=", senses == ">=", senses == "="
        A = data.A_csr
        A_ub = sp.vstack([A[le], -A[ge]]).tocsr() if (le | ge).any() else None
        b_ub = np.concatenate([data.b[le], -data.b[ge]]) if A_ub is not None else None
        t0 = time.perf_counter()
        ref = linprog(
            data.c_min,
            A_ub=A_ub, b_ub=b_ub,
            A_eq=A[eq] if eq.any() else None, b_eq=data.b[eq] if eq.any() else None,
            bounds=np.column_stack([data.lower, data.upper]),
            method="highs",
        )
        took += time.perf_counter() - t0
        if ref.status == 2:
            if res.status != "infeasible":
                mismatches.append(f"root LP {res.status}, HiGHS infeasible")
        elif ref.status != 0:
            mismatches.append(f"HiGHS status {ref.status}: {ref.message}")
        elif res.status != "optimal":
            mismatches.append(f"root LP {res.status}, HiGHS optimal")
        else:
            want = float(ref.fun) * data.obj_sign
            if abs(res.objective - want) > tol:
                mismatches.append(f"root LP objective {res.objective!r}, HiGHS {want!r}")
    return took, mismatches
