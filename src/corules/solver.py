"""Linear programming through HiGHS and binary branch-and-bound at desk scale.

Every LP is one call of HiGHS's dual simplex (``scipy.optimize.linprog``
with ``method="highs-ds"``; Huangfu & Hall, Math. Prog. Comp. 2018).  A
``>=`` row is handed to HiGHS as the negated ``<=`` row, and its dual is
negated back.  HiGHS statuses other than optimal, iteration limit,
infeasible and unbounded raise :class:`SolverError` with HiGHS's message,
and an optimal answer whose duality gap (recomputed from the row and bound
duals) exceeds ``eps`` raises too, so no caller sees a half-filled
solution.

Solutions expose primal values, one dual per row, and the duality gap.
Sign convention for duals of a minimization: a ``>=`` row has a
nonnegative dual at optimality, a ``<=`` row a nonpositive one.

``solve_binary_mip`` wraps ``solve_lp`` in our own best-bound
branch-and-bound over a designated set of binary variables, branching on
the most fractional one (ties to the lowest index) so runs are
deterministic.  It stays ours rather than HiGHS's own MILP solver (as
scipy exposes it) for memory: on the ~130-variable masters of the
``soft-100`` benchmark each HiGHS MILP solve peaked 7-11 MB above its
start and lifted the run's peak RSS from about 86 MB to about 103 MB,
while plain LP solves add under 1 MB.

Anything satisfying the ``solve_lp`` / ``solve_binary_mip`` signatures can
stand in for this module; nothing else in the package relies on internals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration-limit"

GE = ">="
LE = "<="
EQ = "="

INT_TOL = 1e-6
GAP_TOL = 1e-6

# scipy's linprog status codes; any other code is a failure
_HIGHS_STATUS = {0: OPTIMAL, 1: ITERATION_LIMIT, 2: INFEASIBLE, 3: UNBOUNDED}


class SolverError(RuntimeError):
    """Numerical breakdown the solver could not recover from."""


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  s.t. rows_i . x (>=|<=|=) rhs_i, lower <= x <= upper."""

    objective: np.ndarray
    rows: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        n = c.size
        m = len(self.senses)
        rows = np.asarray(self.rows, dtype=float).reshape(m, n)
        rhs = np.asarray(self.rhs, dtype=float)
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if rhs.size != m:
            raise ValueError("rhs length does not match row count")
        if lo.size != n or up.size != n:
            raise ValueError("bound arrays do not match variable count")
        for s in self.senses:
            if s not in (GE, LE, EQ):
                raise ValueError(f"unknown sense {s!r}")
        if np.any(lo > up):
            raise ValueError("some lower bound exceeds its upper bound")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return len(self.senses)


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


def lp_to_text(lp: LinearProgram, name: str = "problem") -> str:
    """Render in CPLEX LP text format, for cross-checks with other solvers."""
    out = [f"\\ {name}", "Minimize", " obj:"]
    terms = [
        f" {c:+.12g} x{j}" for j, c in enumerate(lp.objective) if c != 0.0
    ] or [" 0 x0"]
    out[-1] += "".join(terms)
    out.append("Subject To")
    for i in range(lp.n_rows):
        row = "".join(
            f" {a:+.12g} x{j}" for j, a in enumerate(lp.rows[i]) if a != 0.0
        ) or " 0 x0"
        out.append(f" c{i}:{row} {lp.senses[i]} {lp.rhs[i]:.12g}")
    out.append("Bounds")
    for j in range(lp.n_vars):
        lo, up = lp.lower[j], lp.upper[j]
        lo_s = f"{lo:.12g}" if np.isfinite(lo) else "-inf"
        up_s = f"{up:.12g}" if np.isfinite(up) else "+inf"
        out.append(f" {lo_s} <= x{j} <= {up_s}")
    out.append("End")
    return "\n".join(out) + "\n"


def solve_lp(
    lp: LinearProgram,
    eps: float = GAP_TOL,
    max_iterations: int | None = None,
) -> LpSolution:
    """Solve the LP; on ``optimal`` the duality gap is checked against eps.

    Iteration exhaustion is reported as status ``iteration-limit``, never
    silently; duals and objective are set only on ``optimal``.
    """
    senses = np.array(lp.senses)
    eq = senses == EQ
    ub = ~eq
    # a >= row goes to HiGHS as the negated <= row
    sign = np.where(senses == GE, -1.0, 1.0)
    res = linprog(
        lp.objective,
        A_ub=sign[ub, None] * lp.rows[ub],
        b_ub=sign[ub] * lp.rhs[ub],
        A_eq=lp.rows[eq],
        b_eq=lp.rhs[eq],
        bounds=np.column_stack([lp.lower, lp.upper]),
        method="highs-ds",
        options={} if max_iterations is None else {"maxiter": max_iterations},
    )
    status = _HIGHS_STATUS.get(res.status)
    if status is None:
        raise SolverError(f"HiGHS status {res.status}: {res.message}")
    if status != OPTIMAL:
        return LpSolution(status, res.x, None, None, res.nit)

    duals = np.empty(lp.n_rows)
    duals[ub] = sign[ub] * res.ineqlin.marginals
    duals[eq] = res.eqlin.marginals
    objective = float(lp.objective @ res.x)
    finite_lo = np.where(np.isfinite(lp.lower), lp.lower, 0.0)
    finite_up = np.where(np.isfinite(lp.upper), lp.upper, 0.0)
    dual_objective = float(
        lp.rhs @ duals
        + finite_lo @ res.lower.marginals
        + finite_up @ res.upper.marginals
    )
    gap = abs(objective - dual_objective)
    if gap > max(eps, eps * abs(objective)):
        raise SolverError(f"strong duality violated: gap {gap:.3e}")
    return LpSolution(OPTIMAL, res.x, duals, objective, res.nit, gap)


def solve_binary_mip(
    lp: LinearProgram,
    binary_vars: Sequence[int],
    eps: float = GAP_TOL,
    node_limit: int = 100_000,
) -> MipSolution:
    """Best-bound branch-and-bound forcing the given variables to {0, 1}.

    Branches on the most fractional binary (ties to the lowest index).
    Each node is one :func:`solve_lp` call, the root's included.  When
    every variable is binary and every cost an integer, every solution's
    objective is an integer too, so a node's LP bound is rounded up before
    it is compared with the incumbent.  Exhausting the node budget reports
    ``iteration-limit`` together with the best incumbent found so far.
    """
    binaries = sorted(set(int(j) for j in binary_vars))
    for j in binaries:
        if not 0 <= j < lp.n_vars:
            raise ValueError(f"binary variable {j} out of range")
    lower = lp.lower.copy()
    upper = lp.upper.copy()
    lower[binaries] = np.maximum(lower[binaries], 0.0)
    upper[binaries] = np.minimum(upper[binaries], 1.0)

    integral = len(binaries) == lp.n_vars and np.array_equal(
        lp.objective, np.round(lp.objective)
    )

    def node_bound(value: float) -> float:
        return float(np.ceil(value - INT_TOL)) if integral else value

    def solve_node(patch: dict) -> LpSolution:
        lo = lower.copy()
        up = upper.copy()
        for j, (l, u) in patch.items():
            lo[j], up[j] = l, u
        return solve_lp(replace(lp, lower=lo, upper=up), eps=eps)

    root = solve_node({})
    if root.status != OPTIMAL:
        return MipSolution(root.status, None, None, 0)
    relaxation = root.objective

    # an entry is (bound, tie-break counter, bound patch, solution if known)
    counter = 0
    heap: list[tuple[float, int, dict, LpSolution | None]] = [
        (node_bound(root.objective), counter, {}, root)
    ]
    best_x: np.ndarray | None = None
    best_obj = np.inf
    nodes = 0
    status = OPTIMAL
    while heap:
        bound, _, patch, sol = heapq.heappop(heap)
        if best_x is not None and bound >= best_obj - 1e-9:
            break  # best-bound order: every open node is at least this bad
        if nodes >= node_limit:
            status = ITERATION_LIMIT
            break
        nodes += 1
        if sol is None:
            sol = solve_node(patch)
        if sol.status == INFEASIBLE:
            continue
        if sol.status != OPTIMAL:
            status = ITERATION_LIMIT
            break
        if best_x is not None and node_bound(sol.objective) >= best_obj - 1e-9:
            continue
        xb = sol.x[binaries]
        frac = np.abs(xb - np.round(xb))
        pick = int(np.argmax(frac))
        if frac[pick] <= INT_TOL:
            xi = sol.x.copy()
            xi[binaries] = np.round(xb)
            obj = float(lp.objective @ xi)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_x = xi
            continue
        var = binaries[pick]
        for lo_u in ((0.0, 0.0), (1.0, 1.0)):
            counter += 1
            child = dict(patch)
            child[var] = lo_u
            heapq.heappush(heap, (node_bound(sol.objective), counter, child, None))

    if best_x is None:
        return MipSolution(
            INFEASIBLE if status == OPTIMAL else status, None, None, nodes,
            relaxation,
        )
    return MipSolution(status, best_x, best_obj, nodes, relaxation)
