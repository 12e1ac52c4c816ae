"""Linear programming through HiGHS and binary branch-and-bound at desk scale.

Every LP is solved by HiGHS's dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) on a :class:`LiveLp`: one HiGHS instance that holds the model
and is changed in place between solves.  Appending columns or changing
column bounds keeps the last basis, so the next solve restarts from it
instead of from scratch.  Presolve is off, so cold and warm solves run the
same dual simplex on the same model.  HiGHS model statuses other than
optimal, infeasible and unbounded raise :class:`SolverError` with HiGHS's
message, and an optimal answer whose duality gap (recomputed from the row
and column duals) exceeds ``GAP_TOL`` raises too, so no caller sees a
half-filled solution.

Solutions expose primal values, one dual per row, and the duality gap.
Sign convention for duals of a minimization: a row held at its lower bound
(a ``>=`` row) has a nonnegative dual at optimality, one held at its upper
bound (a ``<=`` row) a nonpositive one.

``solve_binary_mip`` runs our own best-bound branch-and-bound on one live
model with every variable binary, so runs are deterministic:

- **Branching.**  It branches on the most fractional of the first
  ``branch_first`` variables while one of them is fractional, and on the
  most fractional variable otherwise, ties to the lowest index.  A covering
  master passes its pool size: only the rules are decisions, and each
  slack is integral once the rules are.
- **Order.**  Open nodes come off a heap by bound; among equal (rounded)
  bounds the one pushed last comes first, so the search dives to an
  incumbent instead of widening level by level.
- **Bounds as a diff.**  The fixings on the model are tracked, and a node
  sends only those that differ from the node solved before it, new ones
  and released ones in one bound change.  The model gets its own bounds
  back on every exit, the node limit and an error included.
- **Bases.**  A node restarts the dual simplex from its parent's basis,
  which a bound change leaves dual feasible.  When the parent is the node
  solved just before it, the model still holds that basis and its
  factorization, so none is set; otherwise the parent's saved basis is.
- **Checks.**  Every node solve checks the duality gap like any other
  :meth:`LiveLp.solve`.

It stays ours rather than HiGHS's own MILP solver (as scipy exposes it)
for time and memory: on the sixteen budget-15 masters of ``soft-100``
seeds 1 and 2 (about 130 variables each, rebuilt cold, 2-core VM), HiGHS's
MILP took 6.9 s in all against 0.44 s for ours, and each of its solves
peaked 1.8-16.4 MB above its start against at most 0.7 MB for ours.
Open nodes hold their fixings and their parent's basis, which siblings
share, so memory grows with the open list that ``node_limit`` bounds.

The HiGHS binding ``scipy.optimize._highspy._core`` and the assignment
solver ``scipy.optimize._lsap`` (which ``metrics`` uses) are scipy's
compiled modules, and ``_scipy_extension`` loads each straight from its
file.  ``import scipy.optimize`` would run the package's ``__init__``,
which pulls in ``scipy.linalg`` and the ``linprog`` family: about 0.6 s of
the 0.7 s that ``import corules`` took on the 2-core VM, for two modules
that need none of it.  The loaded modules are kept out of ``sys.modules``,
so a later ``import scipy.optimize`` runs as usual; once it has run, they
are taken from there.  Where scipy moved the files, the loader falls back
to the ordinary import.  Both module paths are private to scipy; this
module is the only one that names them, and ``tests/test_solver.py``
checks that every HiGHS method used here is still there.
"""

from __future__ import annotations

import heapq
import importlib
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy


def _scipy_extension(name: str):
    """scipy's compiled module ``name``, loaded from its file without
    importing the packages above it; the ordinary import if no file is
    found."""
    if name in sys.modules:  # scipy.optimize is imported already
        return sys.modules[name]
    path = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(path + suffix):
            spec = importlib.util.spec_from_file_location(name, path + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # a single-phase module enters itself in sys.modules; taken out,
            # it leaves a later import of scipy.optimize to bind it as usual
            sys.modules.pop(name, None)
            return module
    return importlib.import_module(name)


highs = _scipy_extension("scipy.optimize._highspy._core")
linear_sum_assignment = _scipy_extension("scipy.optimize._lsap").linear_sum_assignment

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"  # branch and bound ran out of nodes

INT_TOL = 1e-6
GAP_TOL = 1e-6

# HiGHS model statuses we report; any other one is a failure
_HIGHS_STATUS = {
    highs.HighsModelStatus.kOptimal: OPTIMAL,
    highs.HighsModelStatus.kInfeasible: INFEASIBLE,
    highs.HighsModelStatus.kUnbounded: UNBOUNDED,
}

_OPTIONS = {
    "output_flag": False,
    "presolve": "off",
    "solver": "simplex",
    "simplex_strategy": 1,  # dual simplex
}


class SolverError(RuntimeError):
    """Numerical breakdown the solver could not recover from."""


@dataclass
class LpSolution:
    status: str
    x: np.ndarray | None
    duals: np.ndarray | None
    objective: float | None
    iterations: int
    duality_gap: float | None = None


@dataclass
class MipSolution:
    status: str
    x: np.ndarray | None
    objective: float | None
    nodes: int
    relaxation_objective: float | None = None


def _check(status, what: str):
    if status == highs.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected {what}")


def _active_bound(dual: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The bound a dual prices: the lower one when positive, else the upper."""
    bound = np.where(dual > 0.0, lower, upper)
    return np.where(np.isfinite(bound), bound, 0.0)


class CompressedColumns(NamedTuple):
    """A block of ``k`` columns in compressed sparse column form: column
    ``c`` holds ``data[indptr[c]:indptr[c + 1]]`` in the rows
    ``indices[indptr[c]:indptr[c + 1]]``."""

    indptr: np.ndarray  # k + 1 offsets
    indices: np.ndarray
    data: np.ndarray

    @classmethod
    def from_dense(cls, block) -> CompressedColumns:
        """The nonzeros of a dense ``(n_rows, k)`` block."""
        by_column = np.asarray(block).T
        k, n_rows = by_column.shape
        at = np.flatnonzero(by_column)
        indptr = np.searchsorted(at, np.arange(k + 1) * n_rows)
        return cls(indptr, at % n_rows, by_column.ravel()[at])


class LiveLp:
    """min c.x  s.t. row_lower <= A.x <= row_upper, lower <= x <= upper,
    held by one HiGHS instance and changed in place between solves.

    ``columns`` are blocks of ``k`` coefficient columns: a dense
    ``(n_rows, k)`` array, or :class:`CompressedColumns`, which a block
    too large to hold densely, such as the identity of a master's slack
    columns, can be handed over as.
    Variables are numbered in the order their columns arrive, except that
    the constructor's columns come after every column :meth:`add_columns`
    appends later.  HiGHS stores those first, so a model can start with a
    fixed block (the slack columns of a master) and grow without
    renumbering it.
    """

    def __init__(self, row_lower, row_upper, cost, lower, upper, columns):
        self._highs = highs._Highs()
        for name, value in _OPTIONS.items():
            _check(self._highs.setOptionValue(name, value), f"option {name}")
        self.row_lower = np.asarray(row_lower, dtype=float)
        self.row_upper = np.asarray(row_upper, dtype=float)
        rows = highs.HighsLp()
        rows.num_row_ = rows.a_matrix_.num_row_ = self.row_lower.size
        rows.row_lower_ = self.row_lower
        rows.row_upper_ = self.row_upper
        _check(self._highs.passModel(rows), "the rows")
        self._cost = self._lower = self._upper = np.empty(0)
        self.add_columns(cost, lower, upper, columns)
        self._n_last = self.n_vars

    @property
    def n_vars(self) -> int:
        return self._cost.size

    def _to_variables(self, values: np.ndarray) -> np.ndarray:
        return np.concatenate((values[self._n_last:], values[:self._n_last]))

    def _to_columns(self, index) -> np.ndarray:
        return (np.asarray(index, dtype=np.int32) + self._n_last) % self.n_vars

    @property
    def objective(self) -> np.ndarray:
        return self._to_variables(self._cost)

    @property
    def lower(self) -> np.ndarray:
        return self._to_variables(self._lower)

    @property
    def upper(self) -> np.ndarray:
        return self._to_variables(self._upper)

    def add_columns(self, cost, lower, upper, columns):
        if not isinstance(columns, CompressedColumns):
            columns = CompressedColumns.from_dense(columns)
        indptr, indices, data = columns
        cost = np.asarray(cost, dtype=float)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        if np.any(lower > upper):
            raise ValueError("some lower bound exceeds its upper bound")
        if len(indptr) != cost.size + 1:
            raise ValueError(f"{len(indptr) - 1} columns for {cost.size} costs")
        _check(self._highs.addCols(
            cost.size, cost, lower, upper, len(indices),
            np.asarray(indptr[:-1], dtype=np.int32),
            np.asarray(indices, dtype=np.int32),
            np.asarray(data, dtype=float),
        ), "the new columns")
        self._cost = np.concatenate([self._cost, cost])
        self._lower = np.concatenate([self._lower, lower])
        self._upper = np.concatenate([self._upper, upper])

    def set_bounds(self, index, lower, upper):
        """Change the bounds of the variables ``index``; the basis stays."""
        cols = self._to_columns(index)
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        _check(self._highs.changeColsBounds(cols.size, cols, lower, upper),
               "the bounds")
        self._lower[cols] = lower
        self._upper[cols] = upper

    def basis(self):
        return self._highs.getBasis()

    def set_basis(self, basis):
        _check(self._highs.setBasis(basis), "the basis")

    def solve(self) -> LpSolution:
        """Solve the LP in place by the dual simplex, warm from its last basis.

        On ``optimal`` the duality gap is checked against ``GAP_TOL``; primal
        values, duals and objective are set only then.
        """
        self._highs.run()
        model_status = self._highs.getModelStatus()
        status = _HIGHS_STATUS.get(model_status)
        if status is None:
            raise SolverError(
                f"HiGHS status {model_status.name}: "
                f"{self._highs.modelStatusToString(model_status)}"
            )
        _, iterations = self._highs.getInfoValue("simplex_iteration_count")
        if status != OPTIMAL:
            return LpSolution(status, None, None, None, iterations)

        sol = self._highs.getSolution()
        x = np.array(sol.col_value)
        col_dual = np.array(sol.col_dual)
        duals = np.array(sol.row_dual)
        objective = float(self._cost @ x)
        dual_objective = float(
            _active_bound(duals, self.row_lower, self.row_upper) @ duals
            + _active_bound(col_dual, self._lower, self._upper) @ col_dual
        )
        gap = abs(objective - dual_objective)
        if gap > max(GAP_TOL, GAP_TOL * abs(objective)):
            raise SolverError(f"strong duality violated: gap {gap:.3e}")
        return LpSolution(
            OPTIMAL, self._to_variables(x), duals, objective, iterations, gap
        )


# bench/harness.py traces the master LP solves by wrapping ``colgen.solve_lp``
# by name, so this alias stays until the benchmark reads its per-layer
# figures from TrainReport instead
solve_lp = LiveLp.solve


def solve_binary_mip(
    lp: LiveLp, node_limit: int = 100_000, branch_first: int = 0
) -> MipSolution:
    """Best-bound branch-and-bound forcing every variable to {0, 1}.

    Branches on the most fractional of the first ``branch_first`` variables
    while one of them is fractional, and on the most fractional variable
    otherwise; ties go to the lowest index.  Open nodes of equal bound are
    taken last pushed first, so the search dives to an incumbent.  Every
    node is one dual simplex solve on the same live model, with the
    duality-gap check of :meth:`LiveLp.solve`: the root starts from the
    model's current basis; any other node changes, in one bound change, the
    fixings that differ from the node solved before it, and starts from its
    parent's basis: the one the model still holds when the parent was
    solved just before it, else the one saved with the parent.  The model
    gets its own bounds back on return, also from an error.  When every
    cost is an integer, every solution's objective is an integer too, so a
    node's LP bound is rounded up before it is compared with the incumbent.
    Exhausting the node budget reports ``iteration-limit`` together with the
    best incumbent found so far.
    """
    own_lower, own_upper = lp.lower, lp.upper
    lower = np.maximum(own_lower, 0.0)
    upper = np.minimum(own_upper, 1.0)
    clipped = np.flatnonzero((lower != own_lower) | (upper != own_upper))

    objective = lp.objective
    integral = np.array_equal(objective, np.round(objective))

    def node_bound(value: float) -> float:
        return float(np.ceil(value - INT_TOL)) if integral else value

    held: dict[int, float] = {}  # the fixings on the model now

    def solve_node(patch: dict, basis) -> LpSolution:
        fix = [j for j, value in patch.items() if held.get(j) != value]
        release = [j for j in held if j not in patch]
        lp.set_bounds(
            np.array(fix + release, dtype=np.int32),
            [patch[j] for j in fix] + [lower[j] for j in release],
            [patch[j] for j in fix] + [upper[j] for j in release],
        )
        held.clear()
        held.update(patch)
        if basis is not None:
            lp.set_basis(basis)
        return lp.solve()

    lp.set_bounds(clipped, lower[clipped], upper[clipped])
    try:
        root = lp.solve()
        if root.status != OPTIMAL:
            return MipSolution(root.status, None, None, 0)
        relaxation = root.objective

        # an entry is (bound, minus a push counter, fixings, solution if
        # known, parent's node number, parent's basis); a fixing maps a
        # variable to the value it is held at
        counter = 0
        heap: list[tuple] = [(node_bound(root.objective), counter, {}, root, 0, None)]
        best_x: np.ndarray | None = None
        best_obj = np.inf
        nodes = 0
        hot = 1  # the node whose solve left its basis on the model: the root
        status = OPTIMAL
        while heap:
            bound, _, patch, sol, parent, basis = heapq.heappop(heap)
            if best_x is not None and bound >= best_obj - 1e-9:
                break  # best-bound order: every open node is at least this bad
            if nodes >= node_limit:
                status = ITERATION_LIMIT
                break
            nodes += 1
            if sol is None:
                sol = solve_node(patch, None if parent == hot else basis)
                hot = nodes
            if sol.status == INFEASIBLE:
                continue
            if sol.status != OPTIMAL:
                status = ITERATION_LIMIT
                break
            if best_x is not None and node_bound(sol.objective) >= best_obj - 1e-9:
                continue
            frac = np.abs(sol.x - np.round(sol.x))
            head = frac[:branch_first]
            var = int(np.argmax(head if head.max(initial=0.0) > INT_TOL else frac))
            if frac[var] <= INT_TOL:
                xi = np.round(sol.x)
                obj = float(objective @ xi)
                if obj < best_obj - 1e-12:
                    best_obj = obj
                    best_x = xi
                continue
            basis = lp.basis()
            for value in (0.0, 1.0):
                counter -= 1
                child = dict(patch)
                child[var] = value
                heapq.heappush(
                    heap,
                    (node_bound(sol.objective), counter, child, None, nodes, basis),
                )
    finally:
        restore = np.union1d(np.fromiter(held, dtype=np.int32, count=len(held)), clipped)
        lp.set_bounds(restore, own_lower[restore], own_upper[restore])

    if best_x is None:
        return MipSolution(
            INFEASIBLE if status == OPTIMAL else status, None, None, nodes,
            relaxation,
        )
    return MipSolution(status, best_x, best_obj, nodes, relaxation)
