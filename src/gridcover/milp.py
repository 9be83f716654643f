"""Generic mixed-integer linear program container and LP-format text export.

The model is held in numpy arrays, the one representation that builders,
the solver and the exporters all read:

  - per variable: lower and upper bound, and a binary flag (the kind);
  - per constraint row: term count, sense code (an index into SENSES) and
    right-hand side;
  - per term: variable id and coefficient, row after row in emission
    order (COO with the row index implied by the term counts);
  - the objective as the (id, coefficient) pairs it was set with.

Variables and constraints are addressed by dense integer ids issued by the
owning instance (ids from one instance are meaningless in another).
Variable bounds are metadata, not constraint rows, so constraint counts
match the usual "number of constraints" bookkeeping that excludes range
bounds.  Constraint order is insertion order and is part of the
deterministic export contract.  The LP text export formats each distinct
number once and writes each section as one gathered token stream.

A model is built in blocks, one way only: `add_variables` adds variables
that share a kind and a bound pair, `add_constraints` adds rows that share a
sense, and `set_objective_arrays` sets the objective, each from arrays.
Names are not stored one per variable: every variable belongs to a block
named `prefix + tag` for every prefix (outer) and tag (inner), so a name
is computed from an id and an id recovered from a name by arithmetic.
The arrays are the model; there is no per-variable or per-row record.

A point (a value for every variable: a solver's answer, a warm start, an
encoded deployment or plan) is a float vector of length n_variables,
indexed by variable id.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

VarId = int
ConstraintId = int

SENSES = ("<=", "=", ">=")  # a row's sense code indexes this tuple
LE, EQ, GE = 0, 1, 2
INT_TOL = 1e-6  # a binary within this of 0 or 1 counts as integral
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")
_TAG_RE = re.compile(r"^[A-Za-z0-9_.\-]*$")


@dataclass(frozen=True)
class InstanceStats:
    n_binary: int
    n_continuous: int
    n_constraints: int


class _Columns:
    """Equal-length read-only arrays grown by appending blocks; the blocks
    are joined on first read."""

    def __init__(self, *dtypes):
        self._dtypes = dtypes
        self._parts: List[List[np.ndarray]] = [[] for _ in dtypes]
        self.size = 0

    def append(self, *columns) -> None:
        for parts, col, dtype in zip(self._parts, columns, self._dtypes):
            part = np.array(col, dtype=dtype)
            part.flags.writeable = False
            parts.append(part)
        self.size += len(self._parts[0][-1])

    def __getitem__(self, k: int) -> np.ndarray:
        parts = self._parts[k]
        if len(parts) != 1:
            joined = np.concatenate(parts) if parts else np.empty(0, self._dtypes[k])
            joined.flags.writeable = False
            parts[:] = [joined]
        return parts[0]


class _ProductNames:
    """Names `prefix + tag` of a block of consecutive ids, prefix-major.

    Every prefix ends with "_" and every tag holds the same number of "_",
    so a name splits back into its (prefix, tag) pair at its last
    underscores.
    """

    def __init__(self, prefixes: Sequence[str], tags: Sequence[str]):
        self.prefixes, self.tags = list(prefixes), list(tags)
        if not self.prefixes or not self.tags:
            raise ValueError("a name block needs at least one prefix and one tag")
        for p in self.prefixes:
            if not (p.endswith("_") and _NAME_RE.match(p)):
                raise ValueError(f"invalid variable name prefix {p!r}")
        self.cuts = self.tags[0].count("_") + 1
        # the pattern is a character class, so the joined tags match iff each does
        if not _TAG_RE.match("".join(self.tags)) or any(
            t.count("_") + 1 != self.cuts for t in self.tags
        ):
            raise ValueError(f"invalid variable name tags {self.tags[:3]!r}...")
        self.prefix_index = {p: k for k, p in enumerate(self.prefixes)}
        self.tag_index = {t: k for k, t in enumerate(self.tags)}
        if len(self.prefix_index) != len(self.prefixes) or len(self.tag_index) != len(self.tags):
            raise ValueError("duplicate variable name in block")

    def __len__(self) -> int:
        return len(self.prefixes) * len(self.tags)

    def names(self) -> List[str]:
        return [p + t for p in self.prefixes for t in self.tags]

    def find(self, name: str) -> Optional[int]:
        head = name.rsplit("_", self.cuts)[0]
        if len(head) == len(name):
            return None
        p = self.prefix_index.get(head + "_")
        t = self.tag_index.get(name[len(head) + 1 :])
        if p is None or t is None:
            return None
        return p * len(self.tags) + t

    def meets(self, other: "_ProductNames") -> bool:
        """Whether the two blocks share a name."""
        if self.cuts == other.cuts:  # both split a name the same way
            return not (
                self.prefix_index.keys().isdisjoint(other.prefix_index)
                or self.tag_index.keys().isdisjoint(other.tag_index)
            )
        small, large = sorted((self, other), key=len)
        return any(large.find(name) is not None for name in small.names())


def _row_starts(lengths: np.ndarray) -> np.ndarray:
    """Offsets of each row's first term, plus the total at the end."""
    starts = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=starts[1:])
    return starts


def _check_kind_and_bounds(label: str, kind: str, lower: float, upper: float) -> None:
    if kind not in ("continuous", "binary"):
        raise ValueError(f"unknown variable kind {kind!r}")
    if not lower <= upper:
        raise ValueError(f"inverted bounds for {label}: [{lower}, {upper}]")
    if lower == math.inf or upper == -math.inf:
        raise ValueError(f"{label} fixed at an infinity: [{lower}, {upper}]")
    if kind == "binary" and not (0 <= lower and upper <= 1):
        raise ValueError(f"binary {label} must have bounds within [0, 1]")


def _check_terms(ids: np.ndarray, coefs: np.ndarray, keys: np.ndarray, n: int, where: str) -> None:
    """Every id names one of `n` variables, no key (an id, or an id tagged
    with its row) occurs twice, and every coefficient is finite."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError(f"unknown variable id {ids[(ids < 0) | (ids >= n)][0]}")
    ordered = np.sort(keys)
    repeated = ordered[1:] == ordered[:-1]
    if repeated.any():
        raise ValueError(f"duplicate variable id {ordered[1:][repeated][0] % max(n, 1)} in {where}")
    if not np.isfinite(coefs).all():
        k = np.flatnonzero(~np.isfinite(coefs))[0]
        raise ValueError(f"non-finite coefficient {coefs[k]} for variable id {ids[k]} in {where}")


class MilpInstance:
    """A mutable-during-construction, then effectively frozen, MILP."""

    def __init__(self):
        self.objective_sense: str = "maximize"
        self._vars = _Columns(float, float, bool)  # lower, upper, binary
        self._rows = _Columns(np.int64, np.int8, float)  # term count, sense code, rhs
        self._terms = _Columns(np.int64, float)  # variable id, coefficient
        self._blocks: List[Tuple[int, _ProductNames]] = []  # (first id, names)
        self.objective_ids = np.empty(0, dtype=np.int64)  # read-only, as set
        self.objective_coefs = np.empty(0, dtype=float)
        self._views: Dict[str, object] = {}

    # -- construction -----------------------------------------------------

    def _find_name(self, name: str) -> Optional[VarId]:
        for first, block in self._blocks:
            k = block.find(name)
            if k is not None:
                return first + k
        return None

    def add_variables(
        self, prefixes: Sequence[str], tags: Sequence[str], kind: str, lower: float, upper: float
    ) -> VarId:
        """A block of variables sharing one kind and bound pair, named
        `prefix + tag` for every prefix (outer) and tag (inner); returns the
        id of the first.  Every prefix must end with "_" and every tag hold
        the same number of "_"."""
        names = _ProductNames(prefixes, tags)
        _check_kind_and_bounds(f"block {prefixes[0]}*", kind, lower, upper)
        if any(block.meets(names) for _, block in self._blocks):
            raise ValueError("duplicate variable name in block")
        vid, count = self._vars.size, len(names)
        self._vars.append(
            np.full(count, float(lower)), np.full(count, float(upper)), np.full(count, kind == "binary")
        )
        self._blocks.append((vid, names))
        self._views.clear()
        return vid

    def add_constraints(self, lengths, ids, coefs, sense: str, rhs) -> ConstraintId:
        """A block of rows: row r holds the next `lengths[r]` (id, coefficient)
        pairs of `ids`/`coefs`.  All rows share `sense` (one of SENSES);
        `rhs` is a scalar or one entry per row.  Returns the id of the first
        row."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        coefs = np.asarray(coefs, dtype=float)
        m = len(lengths)
        if np.any(lengths < 0) or lengths.sum() != len(ids) or len(ids) != len(coefs):
            raise ValueError("row lengths do not match the terms")
        if sense not in SENSES:
            raise ValueError(f"unknown constraint sense {sense!r}")
        n = self._vars.size
        keys = np.repeat(np.arange(m, dtype=np.int64) * max(n, 1), lengths)
        keys += ids
        _check_terms(ids, coefs, keys, n, "constraint terms")
        rhs = np.broadcast_to(np.asarray(rhs, float), m)
        if not np.isfinite(rhs).all():
            k = int(np.flatnonzero(~np.isfinite(rhs))[0])
            raise ValueError(f"non-finite right-hand side {rhs[k]} in row {self._rows.size + k}")
        cid = self._rows.size
        self._rows.append(lengths, np.full(m, SENSES.index(sense)), rhs)
        self._terms.append(ids, coefs)
        self._views.clear()
        return cid

    def set_objective_arrays(self, ids, coefs, sense: str) -> None:
        """The objective as parallel arrays of distinct ids and coefficients."""
        if sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown objective sense {sense!r}")
        ids = np.array(ids, dtype=np.int64)
        coefs = np.array(coefs, dtype=float)
        _check_terms(ids, coefs, ids, self._vars.size, "objective")
        ids.flags.writeable = coefs.flags.writeable = False
        self.objective_ids, self.objective_coefs = ids, coefs
        self.objective_sense = sense
        self._views.clear()

    # -- arrays -------------------------------------------------------------

    @property
    def n_variables(self) -> int:
        return self._vars.size

    @property
    def n_constraints(self) -> int:
        return self._rows.size

    # the model's arrays, read-only
    lower = property(lambda self: self._vars[0])
    upper = property(lambda self: self._vars[1])
    is_binary = property(lambda self: self._vars[2])
    row_lengths = property(lambda self: self._rows[0])
    sense_codes = property(lambda self: self._rows[1])
    rhs = property(lambda self: self._rows[2])
    term_ids = property(lambda self: self._terms[0])
    term_coefs = property(lambda self: self._terms[1])

    def objective(self) -> np.ndarray:
        """Dense objective coefficient vector."""
        c = np.zeros(self.n_variables)
        c[self.objective_ids] = self.objective_coefs
        return c

    def matrix(self) -> sp.csr_matrix:
        """The constraint matrix, one row per constraint (empty rows kept)."""
        if "matrix" not in self._views:
            m, n, ids = self.n_constraints, self.n_variables, self.term_ids
            # the terms come row by row, so the row starts are the CSR's
            # indptr; a stable sort on (row, id) orders each row's columns
            row_key = np.repeat(np.arange(m, dtype=np.int64) * n, self.row_lengths)
            order = np.argsort(row_key + ids, kind="stable")
            self._views["matrix"] = sp.csr_matrix(
                (self.term_coefs[order], ids[order], _row_starts(self.row_lengths)), shape=(m, n)
            )
        return self._views["matrix"]

    # -- queries ----------------------------------------------------------

    def variable_names(self) -> List[str]:
        if "names" not in self._views:
            self._views["names"] = [n for _, block in self._blocks for n in block.names()]
        return self._views["names"]


def max_residual(lhs: np.ndarray, codes: np.ndarray, rhs: np.ndarray) -> float:
    """Largest amount by which rows `lhs (sense) rhs` fail (0 if all hold;
    inf if a residual is NaN)."""
    resid = lhs - rhs
    worst = np.where(codes == LE, resid, np.where(codes == GE, -resid, np.abs(resid)))
    top = float(worst.max(initial=0.0))
    return math.inf if math.isnan(top) else max(0.0, top)


def instance_stats(instance: MilpInstance) -> InstanceStats:
    """Exact variable/constraint counts, read off the model's arrays; bound
    boxes are not constraints."""
    n_binary = int(np.count_nonzero(instance.is_binary))
    return InstanceStats(
        n_binary=n_binary,
        n_continuous=len(instance.is_binary) - n_binary,
        n_constraints=len(instance.rhs),
    )


def _num(value: float) -> str:
    """Shortest decimal that round-trips; integral values print bare."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# 0..999 as written alone, then as written after a thousands part
_UNITS = np.array([*map(str, range(1000)), *(f"{v:03d}" for v in range(1000))], dtype=object)


def _distinct(values: np.ndarray) -> Tuple[list, np.ndarray]:
    """The sorted distinct values, and each value's index among them."""
    distinct = np.unique(values)
    return distinct.tolist(), np.searchsorted(distinct, values)


def _rows_text(names: np.ndarray, lengths, ids, coefs, lead: np.ndarray, tail) -> str:
    """Rows `lead[r] a1 x1 + a2 x2 - a3 x3 tail[r]` as one string (a row with
    no nonzero term gets "0", written into `lead`): a head and a name token
    per term are placed by position between the rows' lead and tail tokens."""
    nonzero = coefs != 0.0
    rows = np.repeat(np.arange(len(lengths)), lengths)[nonzero]
    counts = np.bincount(rows, minlength=len(lengths))
    lead[counts == 0, -1] += "0"
    width = lead.shape[1] + 1  # a row's tokens besides its terms
    starts = width * np.arange(len(lengths)) + 2 * _row_starts(counts)[:-1]
    tokens = np.empty(width * len(lengths) + 2 * len(rows), dtype=object)
    tokens[starts[:, None] + np.arange(width - 1)] = lead
    tokens[starts + (width - 1) + 2 * counts] = tail
    values, which = _distinct(coefs[nonzero])
    heads = []  # per distinct value: its head as a later term, then as a row's first
    for v in values:
        heads += [f" - {_num(-v)} " if v < 0 else f" + {_num(v)} ", f"{_num(v)} "]
    first = np.diff(rows, prepend=-1) != 0
    at = width * rows + (width - 1) + 2 * np.arange(len(rows))
    tokens[at] = np.array(heads, dtype=object)[2 * which + first]
    tokens[at + 1] = names[ids[nonzero]]
    return "".join(tokens.tolist())


def write_lp_text(instance: MilpInstance) -> str:
    """Serialize to LP text format, byte-deterministic for a given instance.

    Sections: Maximize/Minimize, Subject To (insertion order, one line per
    constraint `cK: a1 x1 + a2 x2 <= b`), Bounds (one explicit line per
    variable; infinities spelled -inf/+inf), Binary, End.  No Python code
    runs per term, row or variable: each distinct coefficient, right-hand
    side and bound is formatted once, and a section is one array of string
    tokens, gathered into place by position and joined once.
    """
    names = np.array(instance.variable_names(), dtype=object)
    order = np.argsort(instance.objective_ids, kind="stable")
    obj = _rows_text(names, [len(order)], instance.objective_ids[order],
                     instance.objective_coefs[order], np.array([[" obj: "]], dtype=object), "\n")
    # row k is named by two tokens from tables, " c" + str(k // 1000) and
    # k % 1000: a str() per row would cost as much as placing its terms
    thousands, units = np.divmod(np.arange(1, instance.n_constraints + 1), 1000)
    lead = np.empty((len(units), 3), dtype=object)
    prefixes = [" c", *(f" c{t}" for t in range(1, thousands.max(initial=0) + 1))]
    lead[:, 0] = np.array(prefixes, dtype=object)[thousands]
    lead[:, 1], lead[:, 2] = _UNITS[units + 1000 * (thousands > 0)], ": "
    rhs, rhs_at = _distinct(instance.rhs)
    tails = [[f" {sense} {t}\n" for sense in SENSES] for t in map(_num, rhs)]
    tails = np.array(tails, dtype=object).reshape(-1, len(SENSES))
    rows = _rows_text(names, instance.row_lengths, instance.term_ids, instance.term_coefs,
                      lead, tails[rhs_at, instance.sense_codes])

    values, at = _distinct(np.concatenate([instance.lower, instance.upper]))
    lo, up = at[: len(names)], at[len(names) :]
    text = [_num(v) if math.isfinite(v) else f"{v:+}" for v in values]
    below, equal, above = (np.array([pattern.format(t) for t in text], dtype=object)
                           for pattern in (" {} <= ", " = {}\n", " <= {}\n"))
    free = np.isneginf(instance.lower) & np.isposinf(instance.upper)
    bounds = np.empty((len(names), 3), dtype=object)
    bounds[:, 0] = np.where(free | (lo == up), " ", below[lo])
    bounds[:, 1] = names
    bounds[:, 2] = np.where(free, " free\n", np.where(lo == up, equal[lo], above[up]))

    binaries = names[instance.is_binary].tolist()
    binary = "".join(["Binary\n ", "\n ".join(binaries), "\n"]) if binaries else ""
    return "".join([instance.objective_sense.capitalize(), "\n", obj, "Subject To\n", rows,
                    "Bounds\n", "".join(bounds.ravel().tolist()), binary, "End\n"])


def parse_solution_values(text: str, instance: MilpInstance) -> np.ndarray:
    """Parse `name value` lines into a point (unlisted variables are 0).  A
    name given twice, or a value that is not a finite number, is an error."""
    values = np.full(instance.n_variables, np.nan)  # nan: not given yet
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected 'name value', got {raw!r}")
        name, sval = parts
        vid = instance._find_name(name)
        if vid is None:
            raise ValueError(f"line {ln}: unknown variable name {name!r}")
        if not np.isnan(values[vid]):
            raise ValueError(f"line {ln}: variable {name!r} given twice")
        try:
            values[vid] = float(sval)
        except ValueError as exc:
            raise ValueError(f"line {ln}: unparseable value {sval!r}") from exc
        if not math.isfinite(values[vid]):
            raise ValueError(f"line {ln}: non-finite value {sval!r}")
    return np.nan_to_num(values, nan=0.0)
