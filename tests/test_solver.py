import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from corules import solver
from corules.solver import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    CompressedColumns,
    LiveLp,
    SolverError,
    solve_binary_mip,
    solve_lp,
)

from oracles import lp_vertex_minimum


class DenseLp(NamedTuple):
    """min c.x  s.t. rows_i . x (>=|<=|=) rhs_i, lower <= x <= upper: the
    arguments of ``lp_vertex_minimum``, and the model :meth:`live` builds."""

    objective: np.ndarray
    rows: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def live(self, cls=LiveLp) -> LiveLp:
        senses = np.array(self.senses)
        return cls(
            np.where(senses == "<=", -np.inf, self.rhs),
            np.where(senses == ">=", np.inf, self.rhs),
            self.objective, self.lower, self.upper, self.rows,
        )


def make_lp(*args) -> LiveLp:
    return DenseLp(*args).live()


def random_boxed_lp(rng):
    n = rng.integers(2, 5)
    m = rng.integers(2, 6)
    c = rng.integers(-4, 5, size=n)
    rows = rng.integers(-4, 5, size=(m, n))
    senses = [">=" if rng.random() < 0.5 else "<=" for _ in range(m)]
    rhs = rng.integers(-6, 7, size=m)
    lo = np.where(rng.random(n) < 0.5, 0.0, -2.0)
    up = lo + rng.integers(1, 6, size=n)
    return DenseLp(c, rows, senses, rhs, lo, up)


def check_against_oracle(lp):
    sol = solve_lp(lp.live())
    status, best = lp_vertex_minimum(*lp)
    assert sol.status == status, f"status {sol.status} vs oracle {status}"
    if status == OPTIMAL:
        assert abs(sol.objective - best) <= 1e-6, (sol.objective, best)
        assert sol.duality_gap <= 1e-6
        # primal feasibility
        assert np.all(sol.x >= lp.lower - 1e-7)
        assert np.all(sol.x <= lp.upper + 1e-7)
        vals = lp.rows @ sol.x
        for i, s in enumerate(lp.senses):
            if s == ">=":
                assert vals[i] >= lp.rhs[i] - 1e-6
            else:
                assert vals[i] <= lp.rhs[i] + 1e-6
    return sol


class TestSolveLp:
    def test_min_x_at_least_one(self):
        lp = make_lp([1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)
        assert sol.duals[0] == pytest.approx(1.0)

    def test_infeasible_box(self):
        lp = make_lp([0.0], [[1.0]], ["<="], [-1.0], [0.0], [np.inf])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = make_lp([-1.0], [[1.0]], [">="], [0.0], [0.0], [np.inf])
        assert solve_lp(lp).status == UNBOUNDED

    def test_duals_have_sign_convention(self):
        # min x + y  s.t. x + y >= 2, x <= 5
        lp = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0], [1.0, 0.0]],
            [">=", "<="],
            [2.0, 5.0],
            [0.0, 0.0],
            [np.inf, np.inf],
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.duals[0] >= -1e-9
        assert sol.duals[1] <= 1e-9

    def test_bounded_variable_optimum_at_upper(self):
        lp = make_lp([-2.0], [[1.0]], ["<="], [10.0], [0.0], [3.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.x[0] == pytest.approx(3.0)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(20240811)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0}
        for _ in range(150):
            sol = check_against_oracle(random_boxed_lp(rng))
            statuses[sol.status] += 1
        # the generator must exercise both outcomes
        assert statuses[OPTIMAL] > 20
        assert statuses[INFEASIBLE] > 5

    def test_complementary_slackness(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            lp = random_boxed_lp(rng)
            sol = solve_lp(lp.live())
            if sol.status != OPTIMAL:
                continue
            rc = lp.objective - sol.duals @ lp.rows
            interior = (sol.x > lp.lower + 1e-6) & (sol.x < lp.upper - 1e-6)
            assert np.all(np.abs(rc[interior]) <= 1e-6)
            at_lower = np.abs(sol.x - lp.lower) <= 1e-7
            strict_lower = at_lower & ~(np.abs(sol.x - lp.upper) <= 1e-7)
            assert np.all(rc[strict_lower] >= -1e-6)

    def test_degenerate_cover_rows_terminate(self):
        # many identical covering rows: heavy degeneracy, must not cycle
        rng = np.random.default_rng(3)
        n = 6
        rows = []
        for _ in range(30):
            mask = rng.random(n) < 0.4
            if not mask.any():
                mask[0] = True
            rows.append(mask.astype(float))
        lp = make_lp(
            np.ones(n),
            np.array(rows),
            [">="] * 30,
            np.ones(30),
            np.zeros(n),
            np.ones(n),
        )
        sol = solve_lp(lp)
        # every row holds a variable with bound one, so the box is feasible
        assert sol.status == OPTIMAL

    def test_numerical_trouble_raises_with_highs_message(self):
        # a HiGHS model status we do not map (here the dual simplex stopping
        # at an objective bound) must not come back as a half-filled solution
        rng = np.random.default_rng(0)
        rows = (rng.random((40, 30)) < 0.3).astype(float)
        live = make_lp(
            np.ones(30), rows, [">="] * 40, np.ones(40), np.zeros(30), np.ones(30)
        )
        live._highs.setOptionValue("objective_bound", 0.5)
        status = solver.highs.HighsModelStatus.kObjectiveBound
        message = live._highs.modelStatusToString(status)
        with pytest.raises(SolverError, match=message):
            solve_lp(live)

    def test_equality_rows(self):
        # min x + y s.t. x + y = 3, 0 <= x,y <= 2
        lp = make_lp(
            [1.0, 1.0], [[1.0, 1.0]], ["="], [3.0], [0.0, 0.0], [2.0, 2.0]
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_bad_bounds_rejected(self):
        # HiGHS itself accepts lower > upper without an error
        with pytest.raises(ValueError, match="lower bound exceeds"):
            make_lp([1.0], [[1.0]], [">="], [0.0], [2.0], [1.0])
        live = make_lp([1.0], [[1.0]], [">="], [0.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="lower bound exceeds"):
            live.add_columns([1.0, 1.0], [0.0, 1.0], [1.0, 0.0], np.ones((1, 2)))
        assert live.n_vars == 1

    def test_dense_block_with_an_all_zero_column(self):
        # the middle variable is in no row: HiGHS holds an empty column for
        # it, and it sits at the bound its cost prefers
        lp = DenseLp(
            np.array([1.0, -1.0, 1.0]),
            np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0]]),
            (">=", ">="), np.array([1.0, 2.0]), np.zeros(3), np.array([4.0, 3.0, 4.0]),
        )
        live = lp.live()
        held = live._highs.getLp().a_matrix_
        assert list(held.start_) == [0, 1, 1, 3]
        assert list(held.index_) == [0, 0, 1]
        assert list(held.value_) == [1.0, 2.0, 1.0]
        sol = check_against_oracle(lp)
        assert sol.x.tolist() == [0.0, 3.0, 2.0]
        # the same block handed over as compressed columns solves alike
        compressed = CompressedColumns(
            np.array([0, 1, 1, 3]), np.array([0, 0, 1]), np.array([1.0, 2.0, 1.0])
        )
        same = lp._replace(rows=compressed).live()
        assert solve_lp(same).x.tolist() == sol.x.tolist()

    def test_block_width_must_match_the_costs(self):
        live = make_lp([1.0], [[1.0]], [">="], [0.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="2 columns for 3 costs"):
            live.add_columns(np.ones(3), np.zeros(3), np.ones(3), np.ones((1, 2)))
        assert live.n_vars == 1


class TestSolveBinaryMip:
    def test_integral_relaxation_short_circuits(self):
        # min -x s.t. x <= 1: relaxation is already integral
        lp = make_lp([-1.0], [[1.0]], ["<="], [1.0], [0.0], [1.0])
        sol = solve_binary_mip(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-1.0)
        assert sol.objective >= sol.relaxation_objective - 1e-9
        assert sol.nodes == 1

    def test_knapsack_matches_brute_force(self):
        values = np.array([6.0, 10.0, 12.0, 7.0])
        weights = np.array([1.0, 2.0, 3.0, 2.0])
        budget = 5.0
        lp = make_lp(
            -values,
            weights.reshape(1, 4),
            ["<="],
            [budget],
            np.zeros(4),
            np.ones(4),
        )
        sol = solve_binary_mip(lp)
        assert sol.status == OPTIMAL
        best = min(
            -values @ np.array(bits)
            for bits in np.ndindex(2, 2, 2, 2)
            if weights @ np.array(bits) <= budget
        )
        assert sol.objective == pytest.approx(best)
        assert sol.objective >= sol.relaxation_objective - 1e-9

    def test_infeasible_binary_system(self):
        # x1 + x2 >= 3 with binaries can reach at most 2
        lp = make_lp(
            [1.0, 1.0],
            [[1.0, 1.0]],
            [">="],
            [3.0],
            np.zeros(2),
            np.ones(2),
        )
        sol = solve_binary_mip(lp)
        assert sol.status == INFEASIBLE

    def test_random_mips_match_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            c = rng.integers(-5, 6, size=n).astype(float)
            rows = rng.integers(-3, 4, size=(m, n)).astype(float)
            senses = [">=" if rng.random() < 0.5 else "<=" for _ in range(m)]
            rhs = rng.integers(-4, 5, size=m).astype(float)
            lp = make_lp(c, rows, senses, rhs, np.zeros(n), np.ones(n))
            sol = solve_binary_mip(lp)
            best = None
            for bits in np.ndindex(*(2,) * n):
                xv = np.array(bits, dtype=float)
                vals = rows @ xv
                ok = all(
                    (vals[i] >= rhs[i] - 1e-9)
                    if senses[i] == ">="
                    else (vals[i] <= rhs[i] + 1e-9)
                    for i in range(m)
                )
                if ok:
                    v = float(c @ xv)
                    best = v if best is None or v < best else best
            if best is None:
                assert sol.status == INFEASIBLE
            else:
                assert sol.status == OPTIMAL
                assert sol.objective == pytest.approx(best, abs=1e-7)

    def test_integral_costs_round_bounds_up(self):
        # max sum x s.t. 2 sum x <= 11: the LP bound 5.5 sits above every
        # integer point, so only rounding bounds up to 5 ends the search
        # early; the same problem with fractional costs exhausts the budget
        n = 11

        def knapsack(cost):
            return make_lp(
                np.full(n, cost), np.full((1, n), 2.0), ["<="], [float(n)],
                np.zeros(n), np.ones(n),
            )

        sol = solve_binary_mip(knapsack(-1.0), node_limit=100)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-5.0)
        assert sol.relaxation_objective == pytest.approx(-5.5)
        sol = solve_binary_mip(knapsack(-1.5), node_limit=100)
        assert sol.status == ITERATION_LIMIT
        assert sol.objective == pytest.approx(-7.5)

    @pytest.mark.parametrize("n", [9, 11, 13, 15])
    def test_equal_bounds_dive_to_an_incumbent(self, n):
        # max sum x s.t. 2 sum x <= n: every node's rounded bound is the
        # optimum, so only the tie rule orders the search; taking equal
        # bounds first in, first out doubled the nodes with n (32 to 256)
        lp = make_lp(
            np.full(n, -1.0), np.full((1, n), 2.0), ["<="], [float(n)],
            np.zeros(n), np.ones(n),
        )
        sol = solve_binary_mip(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-(n - 1) / 2)
        assert sol.nodes <= 2 * n

    def test_node_budget_reports_limit(self):
        rng = np.random.default_rng(5)
        n = 10
        c = -rng.integers(1, 10, size=n).astype(float)
        rows = rng.integers(1, 5, size=(1, n)).astype(float)
        lp = make_lp(c, rows, ["<="], [rows.sum() / 2], np.zeros(n), np.ones(n))
        sol = solve_binary_mip(lp, node_limit=2)
        assert sol.status in (ITERATION_LIMIT, OPTIMAL)


def random_set_cover(rng, n):
    """min c.x over binary x covering 4n random three-element rows, with
    integral costs: fractional enough to need a few branchings."""
    rows = np.zeros((4 * n, n))
    for row in rows:
        row[rng.choice(n, size=3, replace=False)] = 1.0
    c = rng.integers(1, 10, size=n).astype(float)
    return DenseLp(c, rows, [">="] * 4 * n, np.ones(4 * n), np.zeros(n), np.ones(n))


def test_random_set_covers_match_enumeration():
    # big enough that branch and bound restarts many nodes from a parent basis
    rng = np.random.default_rng(606)
    nodes = []
    for _ in range(15):
        lp = random_set_cover(rng, int(rng.integers(10, 13)))
        sol = solve_binary_mip(lp.live())
        bits = np.array(list(np.ndindex(*(2,) * lp.objective.size)), dtype=float)
        feasible = np.all(bits @ lp.rows.T >= 1.0, axis=1)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx((bits[feasible] @ lp.objective).min())
        assert np.all(lp.rows @ sol.x >= 1.0 - 1e-9)
        nodes.append(sol.nodes)
    # every instance branches, so child nodes start from a parent's basis
    assert min(nodes) > 1 and sum(nodes) >= 60, nodes


def rows_held(live):
    """The rows HiGHS holds and the row bounds the model mirrors."""
    return live._highs.getNumRow(), live.row_lower.tolist(), live.row_upper.tolist()


def test_mip_gives_the_live_model_its_bounds_back():
    rng = np.random.default_rng(8)
    lp = random_set_cover(rng, 12)
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lower[3] = 1.0  # held in, as hard mode holds a person's rule
    upper[5] = 2.0  # clipped to 1 while branching; with positive costs the
    # covering LP never sets a variable above 1, so the root stays the same
    # with branch_first 12, the count row sums every variable
    for branch_first in (0, 12):
        live = lp._replace(lower=lower, upper=upper).live(BasisRecordingLp)
        rows = rows_held(live)
        mip = solve_binary_mip(live, branch_first=branch_first)
        assert mip.status == OPTIMAL and mip.nodes > 1
        assert mip.x[3] == 1.0
        # the count row is on the model while it branches, and only then
        assert max(node["rows"] for node in live.solves) == rows[0] + (branch_first > 0)
        assert rows_held(live) == rows
        assert np.array_equal(live.lower, lower)
        assert np.array_equal(live.upper, upper)
        root = solve_lp(live)
        assert root.objective == pytest.approx(mip.relaxation_objective, abs=1e-9)


@pytest.mark.parametrize("exit_by", ["node limit", "solver error"])
def test_mip_gives_the_live_model_its_bounds_back_on_early_exits(exit_by, monkeypatch):
    # the instance above with a seed that branches well past four nodes:
    # four nodes in, fixings of earlier nodes, and the count row when it
    # branches on the count, are on the model
    rng = np.random.default_rng(10)
    lp = random_set_cover(rng, 12)
    lower, upper = lp.lower.copy(), lp.upper.copy()
    lower[3] = 1.0
    upper[5] = 2.0
    lp = lp._replace(lower=lower, upper=upper)
    for branch_first in (0, 12):
        live = lp.live(BasisRecordingLp)
        rows = rows_held(live)
        if exit_by == "node limit":
            mip = solve_binary_mip(live, node_limit=4, branch_first=branch_first)
            assert mip.status == ITERATION_LIMIT and mip.nodes == 4
        else:
            solve = BasisRecordingLp.solve
            calls = []

            def failing_solve(self):
                calls.append(None)
                if len(calls) == 5:  # the root's, then four nodes'
                    raise SolverError("injected")
                return solve(self)

            monkeypatch.setattr(BasisRecordingLp, "solve", failing_solve)
            with pytest.raises(SolverError, match="injected"):
                solve_binary_mip(live, branch_first=branch_first)
            monkeypatch.undo()
        assert max(node["rows"] for node in live.solves) == rows[0] + (branch_first > 0)
        assert rows_held(live) == rows
        assert np.array_equal(live.lower, lower)
        assert np.array_equal(live.upper, upper)
        # what HiGHS holds, in variable order, not only the mirror LiveLp keeps
        held = live._highs.getLp()
        assert np.array_equal(live._to_variables(np.array(held.col_lower_)), lower)
        assert np.array_equal(live._to_variables(np.array(held.col_upper_)), upper)
        assert np.array_equal(held.row_lower_, live.row_lower)
        assert np.array_equal(held.row_upper_, live.row_upper)
        want = solve_lp(lp.live()).objective
        assert solve_lp(live).objective == pytest.approx(want, abs=1e-9)


def test_row_operations_keep_the_mirror_and_the_basis():
    # min x + y  s.t. x + y >= 1, 0 <= x, y <= 1; then a row x - y = 0.5
    live = make_lp([1.0, 1.0], [[1.0, 1.0]], [">="], [1.0], [0.0, 0.0], [1.0, 1.0])
    assert solve_lp(live).objective == pytest.approx(1.0)
    row = live.add_row(-np.inf, np.inf, [0, 1], [1.0, -1.0])
    assert row == 1 and live._highs.getNumRow() == 2
    # a free row leaves the optimum, and its basis, as they were
    free = solve_lp(live)
    assert free.objective == pytest.approx(1.0) and free.iterations == 0
    assert free.duals.size == 2 and free.duals[1] == pytest.approx(0.0)
    live.set_row_bounds(row, 0.5, 0.5)
    held = live._highs.getLp()
    assert list(held.row_lower_) == live.row_lower.tolist() == [1.0, 0.5]
    assert list(held.row_upper_) == live.row_upper.tolist() == [np.inf, 0.5]
    fixed = solve_lp(live)
    assert fixed.x.tolist() == pytest.approx([0.75, 0.25])
    live.delete_row(row)
    assert live._highs.getNumRow() == 1
    assert live.row_lower.tolist() == [1.0] and live.row_upper.tolist() == [np.inf]
    assert solve_lp(live).objective == pytest.approx(1.0)


# every _Highs method solver calls; scipy does not document this binding
HIGHS_METHODS = (
    "passModel", "addCols", "changeColsBounds", "addRow", "changeRowBounds",
    "deleteRows", "getBasis", "setBasis", "getSolution", "getInfoValue", "run",
    "getModelStatus", "modelStatusToString", "setOptionValue",
)


def test_highs_binding_has_every_method_solver_uses():
    missing = [name for name in HIGHS_METHODS if not hasattr(solver.highs._Highs, name)]
    assert not missing, (
        f"scipy's private HiGHS binding no longer has {', '.join(missing)}; "
        "corules.solver needs a scipy release that does"
    )


def test_solver_is_the_only_private_scipy_importer():
    src = Path(solver.__file__).resolve().parent.parent
    importers = sorted(
        str(path.relative_to(src)) for path in src.rglob("*.py")
        if "scipy.optimize._" in path.read_text()
    )
    assert importers == ["corules/solver.py"]


def test_extension_loader_falls_back_to_the_ordinary_import(monkeypatch):
    # with no file to find, the loader must hand back what import gives
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    core_name, lsap_name = "scipy.optimize._highspy._core", "scipy.optimize._lsap"
    for name in (core_name, lsap_name):  # else the loader returns these
        monkeypatch.delitem(sys.modules, name, raising=False)
    core = solver._scipy_extension(core_name)
    assert core is sys.modules[core_name]
    assert all(hasattr(core._Highs, name) for name in HIGHS_METHODS)
    lsap = solver._scipy_extension(lsap_name)
    assert lsap is sys.modules[lsap_name]
    sims = np.array([[0.2, 0.9, 0.1], [0.8, 0.7, 0.0], [0.3, 0.4, 0.6]])
    want = solver.linear_sum_assignment(sims, maximize=True)
    got = lsap.linear_sum_assignment(sims, maximize=True)
    assert [a.tolist() for a in got] == [a.tolist() for a in want] == [[0, 1, 2], [1, 0, 2]]


# whichever of corules and scipy.optimize is imported first, both must work
# side by side, and scipy.optimize must hold its modules as usual
IMPORT_CORULES = "from corules import metrics, solver\n"
IMPORT_SCIPY = "import scipy.optimize\n"
COEXIST = """
import sys
from operator import attrgetter

import numpy as np
from corules.ruledsl import parse_rules

for name in ("_highspy._core", "_lsap"):
    held = sys.modules["scipy.optimize." + name]
    assert held is attrgetter(name)(scipy.optimize), name

cost = np.array([-1.0, -2.0])
rows = np.array([[1.0, 1.0], [1.0, 3.0]])
theirs = scipy.optimize.linprog(
    cost, A_ub=rows, b_ub=[4.0, 6.0], bounds=[(0, 3)] * 2, method="highs"
)
ours = solver.solve_lp(solver.LiveLp(
    [-np.inf] * 2, [4.0, 6.0], cost, [0.0] * 2, [3.0] * 2, rows
))
assert theirs.status == 0 and ours.status == solver.OPTIMAL
assert np.isclose(theirs.fun, -5.0) and np.isclose(ours.objective, -5.0)
assert np.allclose(theirs.x, ours.x)

a = parse_rules("(a == 1 AND b == 1) OR (c == 1) OR (d == 1 AND e == 1)")
b = parse_rules("(c == 1 AND d == 1) OR (a == 1)")
sims = metrics.similarity_matrix(a, b)
r, c = scipy.optimize.linear_sum_assignment(sims, maximize=True)
mr, mc = metrics.linear_sum_assignment(sims, maximize=True)
assert r.tolist() == mr.tolist() and c.tolist() == mc.tolist()
assert np.isclose(metrics.ruleset_similarity(a, b), sims[r, c].sum() / 3)
print("ok")
"""


@pytest.mark.parametrize("corules_first", [True, False])
def test_corules_and_scipy_optimize_coexist(corules_first):
    src = Path(solver.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    )}
    imports = [IMPORT_CORULES, IMPORT_SCIPY][::1 if corules_first else -1]
    done = subprocess.run(
        [sys.executable, "-c", "".join(imports) + COEXIST],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


FREE = (-np.inf, np.inf)


class BasisRecordingLp(LiveLp):
    """A live model that records, per solve, the variables held fixed, the
    rows HiGHS holds, the bounds of the count row (free while it is not on
    the model), the basis the solve starts from and the basis later handed
    out for it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.n_rows = self.row_lower.size
        self.solves = []

    def basis(self):
        basis = super().basis()
        if self.solves:
            self.solves[-1]["handed"] = _statuses(basis)
        return basis

    def solve(self):
        fixed = frozenset(
            (j, lo) for j, (lo, up) in enumerate(zip(self.lower, self.upper)) if lo == up
        )
        count = FREE
        if self.row_lower.size > self.n_rows:
            count = float(self.row_lower[-1]), float(self.row_upper[-1])
        rows = self._highs.getNumRow()
        start = _statuses(super().basis())
        sol = super().solve()
        self.solves.append(
            {"fixed": fixed, "rows": rows, "count": count, "start": start, "handed": None}
        )
        return sol


def _statuses(basis):
    return tuple(int(s) for s in basis.col_status), tuple(int(s) for s in basis.row_status)


def _parents(handed, fixed, count):
    """The solved nodes that a node keyed by ``fixed`` and ``count`` may
    have branched from: those with the same count interval and the same
    fixings but one, and the tightest of those with the same fixings and a
    count interval that holds this one and shares one end with it."""
    parents = [handed[fixed - {f}, count] for f in fixed if (fixed - {f}, count) in handed]
    lo, hi = count
    wider = [
        (h, -l, key) for key in handed
        for l, h in [key[1]]
        if key[0] == fixed and key[1] != count and l <= lo and hi <= h and (l == lo or h == hi)
    ]
    return parents + ([handed[min(wider)[2]]] if wider else [])


def test_every_node_starts_from_its_parents_basis():
    # with branch_first set, the count row sums the first variables, and a
    # node is keyed by its fixings and its count interval: set cover seed
    # 10 branches on the count in 36 of its 41 solves, and master seed 325
    # has a ceiling child under a count cap, which must keep the cap
    instances = [
        (random_set_cover(np.random.default_rng(606), 12).live(BasisRecordingLp), 0),
        (random_set_cover(np.random.default_rng(10), 12).live(BasisRecordingLp), 12),
        random_master(np.random.default_rng(325), BasisRecordingLp)[:2],
    ]
    for live, branch_first in instances:
        mip = solve_binary_mip(live, branch_first=branch_first)
        assert mip.status == OPTIMAL and mip.nodes > 1
        handed = {}  # a solved node's key -> its solve number, its children's basis
        not_after_parent = 0
        for k, node in enumerate(live.solves):
            key = node["fixed"], node["count"]
            if k:  # every solve after the root's is a node's
                parents = _parents(handed, *key)
                assert len(parents) == 1, key
                parent, basis = parents[0]
                assert node["start"] == basis, key
                not_after_parent += parent != k - 1
            assert key not in handed
            handed[key] = k, node["handed"]
        # without the parent's basis, these nodes would start from another node's
        assert not_after_parent > 0, branch_first
        # the count is branched on exactly when there is one
        assert any(count != FREE for _, count in handed) == (branch_first > 0)


def random_master(rng, cls=LiveLp):
    """A small covering master shaped as ``colgen.build_master`` builds one.

    Row i asks positive i to be covered by a rule or paid for by its slack
    ``xi_i`` at unit cost; the last row bounds the rules' total degree.  The
    rules come first, the xi block (the constructor's columns) last.  Costs
    are false-positive counts, less a soft-mode credit for a few rules.
    Returns the model and the enumeration optimum over the rules alone.
    """
    n_pool, n_pos = int(rng.integers(8, 13)), int(rng.integers(10, 20))
    cover = rng.random((n_pos, n_pool)) < 0.3
    degree = rng.integers(1, 4, size=n_pool)
    cost = rng.integers(0, 5, size=n_pool) - 6.0 * (rng.random(n_pool) < 0.2)
    budget = float(rng.integers(2, 7))
    live = cls(
        np.append(np.ones(n_pos), -np.inf), np.append(np.full(n_pos, np.inf), budget),
        np.ones(n_pos), np.zeros(n_pos), np.ones(n_pos), np.eye(n_pos + 1, n_pos),
    )
    live.add_columns(cost, np.zeros(n_pool), np.ones(n_pool), np.vstack([cover, degree]))
    w = np.array(list(np.ndindex(*(2,) * n_pool)), dtype=float)
    uncovered = (w @ cover.T == 0).sum(axis=1)
    best = (w @ cost + uncovered)[w @ degree <= budget].min()
    return live, n_pool, best


def test_rule_first_branching_matches_enumeration_over_the_rules():
    branched = counted = slack_fixings = 0
    for seed in range(30):
        live, n_pool, best = random_master(np.random.default_rng(seed), BasisRecordingLp)
        mip = solve_binary_mip(live, branch_first=n_pool)
        assert mip.status == OPTIMAL
        assert mip.objective == pytest.approx(best)
        assert all(j < n_pool for node in live.solves for j, _ in node["fixed"])
        branched += mip.nodes > 1
        # the number of rules is branched on first: some node solves under
        # an integral cap or floor on it
        counts = {node["count"] for node in live.solves} - {FREE}
        assert all(float(b).is_integer() for count in counts for b in count if np.isfinite(b))
        counted += bool(counts)
        # the same master, branching on every variable alike
        live, _, _ = random_master(np.random.default_rng(seed), BasisRecordingLp)
        mip = solve_binary_mip(live)
        assert mip.objective == pytest.approx(best)
        assert all(node["count"] == FREE for node in live.solves)
        slack_fixings += any(j >= n_pool for node in live.solves for j, _ in node["fixed"])
    # enough instances branch, some on the count, and the default rule does
    # fix some slacks
    assert branched >= 10 and counted >= 10 and slack_fixings > 0, (
        branched, counted, slack_fixings
    )
