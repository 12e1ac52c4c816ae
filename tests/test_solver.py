import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from corules import solver
from corules.solver import (
    INFEASIBLE,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    SolverError,
    lp_to_text,
    solve_binary_mip,
    solve_lp,
)

from oracles import lp_vertex_minimum


def make_lp(c, rows, senses, rhs, lo, up):
    return LinearProgram(
        np.array(c, dtype=float),
        np.array(rows, dtype=float).reshape(len(senses), len(c)),
        tuple(senses),
        np.array(rhs, dtype=float),
        np.array(lo, dtype=float),
        np.array(up, dtype=float),
    )


def random_boxed_lp(rng):
    n = rng.integers(2, 5)
    m = rng.integers(2, 6)
    c = rng.integers(-4, 5, size=n)
    rows = rng.integers(-4, 5, size=(m, n))
    senses = [">=" if rng.random() < 0.5 else "<=" for _ in range(m)]
    rhs = rng.integers(-6, 7, size=m)
    lo = np.where(rng.random(n) < 0.5, 0.0, -2.0)
    up = lo + rng.integers(1, 6, size=n)
    return make_lp(c, rows, senses, rhs, lo, up)


def check_against_oracle(lp, eps=1e-6):
    sol = solve_lp(lp, eps=eps)
    status, best = lp_vertex_minimum(
        lp.objective, lp.rows, lp.senses, lp.rhs, lp.lower, lp.upper
    )
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
            sol = solve_lp(lp)
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

    def test_iteration_limit_reported(self):
        rng = np.random.default_rng(0)
        lp = random_boxed_lp(rng)
        sol = solve_lp(lp, max_iterations=1)
        assert sol.status in (ITERATION_LIMIT, OPTIMAL, INFEASIBLE)

    def test_numerical_trouble_raises_with_highs_message(self, monkeypatch):
        # HiGHS status 4 (numerical difficulties) must not come back as a
        # half-filled solution
        message = "Numerical difficulties encountered."

        def troubled(*args, **kwargs):
            return OptimizeResult(status=4, message=message, x=None, nit=3)

        monkeypatch.setattr(solver, "linprog", troubled)
        lp = make_lp([1.0], [[1.0]], [">="], [1.0], [0.0], [np.inf])
        with pytest.raises(SolverError, match=message):
            solve_lp(lp)

    def test_equality_rows(self):
        # min x + y s.t. x + y = 3, 0 <= x,y <= 2
        lp = make_lp(
            [1.0, 1.0], [[1.0, 1.0]], ["="], [3.0], [0.0, 0.0], [2.0, 2.0]
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            make_lp([1.0], [[1.0]], [">="], [0.0], [2.0], [1.0])


class TestSolveBinaryMip:
    def test_integral_relaxation_short_circuits(self):
        # min -x s.t. x <= 1: relaxation is already integral
        lp = make_lp([-1.0], [[1.0]], ["<="], [1.0], [0.0], [1.0])
        sol = solve_binary_mip(lp, [0])
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
        sol = solve_binary_mip(lp, [0, 1, 2, 3])
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
        sol = solve_binary_mip(lp, [0, 1])
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
            sol = solve_binary_mip(lp, list(range(n)))
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

        sol = solve_binary_mip(knapsack(-1.0), range(n), node_limit=100)
        assert sol.status == OPTIMAL
        assert sol.objective == pytest.approx(-5.0)
        assert sol.relaxation_objective == pytest.approx(-5.5)
        sol = solve_binary_mip(knapsack(-1.5), range(n), node_limit=100)
        assert sol.status == ITERATION_LIMIT
        assert sol.objective == pytest.approx(-7.5)

    def test_node_budget_reports_limit(self):
        rng = np.random.default_rng(5)
        n = 10
        c = -rng.integers(1, 10, size=n).astype(float)
        rows = rng.integers(1, 5, size=(1, n)).astype(float)
        lp = make_lp(c, rows, ["<="], [rows.sum() / 2], np.zeros(n), np.ones(n))
        sol = solve_binary_mip(lp, list(range(n)), node_limit=2)
        assert sol.status in (ITERATION_LIMIT, OPTIMAL)


def test_lp_text_dump_mentions_rows_and_bounds():
    lp = make_lp(
        [1.0, 2.0], [[1.0, 1.0]], [">="], [1.0], [0.0, 0.0], [1.0, np.inf]
    )
    text = lp_to_text(lp, "demo")
    assert "Minimize" in text and "Subject To" in text
    assert "c0:" in text and "x1" in text
    assert "+inf" in text
