import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from corules import colgen, solver
from corules.colgen import (
    COLUMNS_PER_ROUND,
    MODE_HARD,
    MODE_MACHINE,
    MODE_SOFT,
    MODE_TEMPLATES,
    MODES,
    BudgetInfeasibleError,
    ColumnPool,
    HumanInput,
    NoPositivesError,
    TOLERANCE,
    Params,
    TrainingError,
    TrainReport,
    build_master,
    price,
    train,
)
from corules.dataset import BinaryDataset, Literal, binarize, generate_tictactoe
from corules.metrics import accuracy, hamming_loss, ruleset_similarity
from corules.dataset import CATEGORICAL, NUMERIC, RawTable
from corules.ruledsl import RuleError, RuleSet, bind, parse_rules, print_rules
from corules.solver import LiveLp, solve_binary_mip, solve_lp

from oracles import (
    beam_search,
    brute_force_best_rule_set,
    brute_force_reduced_costs,
    conjunction_cover,
    overlap_template_distance,
)
from test_ruledsl import EIGHT_RULES


@pytest.fixture(scope="module")
def ttt_dataset():
    return binarize(generate_tictactoe())


@pytest.fixture(scope="module")
def eight_rules():
    return parse_rules(EIGHT_RULES)


def random_dataset(rng, n_cols=None, n_rows=None):
    n_cols = n_cols or int(rng.integers(4, 9))
    n_rows = n_rows or int(rng.integers(8, 31))
    matrix = rng.random((n_rows, n_cols)) < 0.5
    labels = rng.random(n_rows) < 0.5
    if not labels.any():
        labels[0] = True
    cols = tuple(Literal(f"f{j}", "==", "a") for j in range(n_cols))
    return BinaryDataset(cols, matrix, labels)


def seeded_pool(dataset, params=Params(), human_sets=(), templates=RuleSet(())):
    pool = ColumnPool(dataset, params, templates)
    for cols in human_sets:
        pool.add(cols, is_human=True)
    for j in range(dataset.n_columns):
        pool.add((j,))
    return pool


def solve_pool(pool):
    """Build and solve the pool's master: the LP solution, the pool columns'
    w and the duals (mu, lam) that ``price`` reads, clamped nonnegative."""
    sol = solve_lp(build_master(pool))
    n_pos = pool.dataset.P.size
    mu, lam = np.maximum(sol.duals[:n_pos], 0.0), max(0.0, -sol.duals[n_pos])
    return sol, sol.x[: len(pool)], (mu, lam)


@pytest.mark.parametrize(
    "name, value",
    [
        ("human_weight", math.nan),
        ("human_weight", math.inf),
        ("human_weight", -1.0),
        ("template_weight", math.nan),
        ("template_weight", math.inf),
        ("template_weight", -0.5),
        ("mip_node_limit", 0),
        ("max_cg_rounds", -1),
        ("max_cg_rounds", -2),
        ("max_degree", 2.0),
        ("max_cg_rounds", 1.5),
        ("mip_node_limit", 2.5),
        ("complexity_budget", math.nan),
        ("complexity_budget", 24.5),
    ],
)
def test_params_reject_values_that_hang_or_mislead_train(name, value):
    with pytest.raises(ValueError, match=name):
        Params(**{name: value})


def test_params_accept_numpy_integers():
    given = Params(max_degree=np.int64(3), max_cg_rounds=np.int32(5), mip_node_limit=np.uint16(9))
    assert given == Params(max_degree=3, max_cg_rounds=5, mip_node_limit=9)


class TestBuildMaster:
    def test_eight_true_rules_full_data_lp_zero(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = ColumnPool(ds, Params(mode=MODE_MACHINE))
        for cols in bound.column_sets:
            pool.add(cols, is_human=True)
        sol, w, _ = solve_pool(pool)
        assert sol.status == "optimal"
        assert sol.objective + pool.offset == pytest.approx(0.0, abs=1e-9)
        assert np.all(w > 1 - 1e-9)
        xi = sol.x[len(pool) :]
        assert np.all(xi < 1e-9)

    def test_singleton_only_pool_costs_all_positives_when_empty(self):
        # a pool whose columns are useless forces every xi to one
        matrix = np.zeros((6, 2), dtype=bool)
        labels = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
        cols = (Literal("a", "==", "x"), Literal("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, labels)
        pool = seeded_pool(ds, Params(mode=MODE_MACHINE))
        sol, _, _ = solve_pool(pool)
        assert sol.objective + pool.offset == pytest.approx(4.0)

    def test_soft_mode_objective_coefficients_and_offset(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = seeded_pool(ds, Params(mode=MODE_SOFT, human_weight=0.05), bound.column_sets)
        lp = build_master(pool)
        cu_n = 0.05 * ds.n
        assert pool.offset == pytest.approx(cu_n * 8)
        for k, col in enumerate(pool.columns):
            expected = col.fp_count - (cu_n if col.is_human else 0.0)
            assert lp.objective[k] == pytest.approx(expected)
        # xi coefficients are one
        assert np.all(lp.objective[len(pool) :] == 1.0)

    def test_unselected_human_rule_costs_cu_n(self):
        # one human rule that covers nothing positive: selecting it is a
        # pure loss, dropping it costs the violation penalty
        matrix = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        labels = np.array([1, 1, 0], dtype=bool)
        cols = (Literal("a", "==", "x"), Literal("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, labels)
        params = Params(mode=MODE_SOFT, human_weight=0.5, complexity_budget=1,
                        max_degree=1)
        pool = seeded_pool(ds, params, human_sets=[frozenset({1})])
        assert pool.offset == 1.5  # 0.5 * 3
        # budget 1 admits one column: either the human one (fp=1, covers no
        # positive -> loss 2 + 1) or the machine singleton 0 (loss 0) plus
        # the dropped-rule penalty 0.5 * 3
        rs, report = train(ds, HumanInput(rules=parse_rules("b == x")), params)
        assert report.unselected_human_count == 1
        assert report.hamming == hamming_loss(rs, ds) == 0
        assert report.objective == pytest.approx(1.5)

    def test_hard_mode_budget_infeasible(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = seeded_pool(ds, Params(mode=MODE_HARD, complexity_budget=23), bound.column_sets)
        with pytest.raises(BudgetInfeasibleError, match="exceed"):
            build_master(pool)

    def test_later_build_grows_the_master_it_is_given(self, ttt_dataset):
        pool = seeded_pool(ttt_dataset, Params(mode=MODE_SOFT, human_weight=0.05))
        assert pool.master is None
        master = build_master(pool)
        assert pool.master is master
        assert pool.offset == 0.0
        pool.add((0, 1), is_human=True)
        assert build_master(pool) is master
        assert master.n_vars == len(pool) + ttt_dataset.P.size
        assert pool.offset == pytest.approx(0.05 * ttt_dataset.n)
        added = pool.columns[-1]
        assert master.objective[len(pool) - 1] == added.fp_count - pool.credit

    def test_bounds_set_on_the_pools_master_hold(self, ttt_dataset):
        # the pool's master is the handle a dive or a refit fixes rules on:
        # its bounds survive growth and bind the binary solve, which hands
        # them back afterwards
        pool = seeded_pool(TestComplementarySlackness.draw(ttt_dataset, 6),
                           Params(max_degree=2, complexity_budget=10))
        lp = build_master(pool)
        x = solve_binary_mip(lp, branch_first=len(pool)).x
        off, on = int(np.flatnonzero(x[: len(pool)] > 0.5)[0]), int(np.argmin(x[: len(pool)]))
        lp.set_bounds([off, on], [0.0, 1.0], [0.0, 1.0])
        _, _, duals = solve_pool(pool)
        n = len(pool)
        for cand in price(duals, pool, limit=COLUMNS_PER_ROUND):
            pool.add(cand.cols)
        assert len(pool) > n
        assert build_master(pool) is lp is pool.master
        assert (lp.lower[off], lp.upper[off], lp.lower[on], lp.upper[on]) == (0, 0, 1, 1)
        mip = solve_binary_mip(lp, branch_first=len(pool))
        assert mip.status == solver.OPTIMAL
        assert (mip.x[off], mip.x[on]) == (0.0, 1.0)
        assert (lp.lower[off], lp.upper[off], lp.lower[on], lp.upper[on]) == (0, 0, 1, 1)

    @pytest.mark.parametrize("mode", [MODE_SOFT, MODE_HARD])
    def test_a_column_keeps_the_treatment_it_was_added_with(self, ttt_dataset, mode):
        # re-adding a pool column as a human rule changes nothing: a master
        # that already holds it keeps its cost, bound and offset consistent
        pool = seeded_pool(ttt_dataset, Params(mode=mode))
        build_master(pool)
        col = pool.columns[0]
        assert not pool.add(col.cols, is_human=True)
        assert len(pool) == ttt_dataset.n_columns and pool.columns[0] is col
        assert not col.is_human and not col.forced
        assert col.cost == reference_cost(pool, col)[0] == col.fp_count
        assert build_master(pool).lower[0] == 0.0
        assert pool.offset == 0.0

    def test_no_positives_rejected(self):
        matrix = np.ones((3, 1), dtype=bool)
        ds = BinaryDataset(
            (Literal("a", "==", "x"),), matrix, np.zeros(3, dtype=bool)
        )
        with pytest.raises(NoPositivesError):
            ColumnPool(ds)


def reference_cost(pool, col):
    """A pool column's master cost and whether it is forced, worked out from
    the model in the ``colgen`` docstring and the pool's params; the one
    reference the tests hold ``col.cost`` and ``col.forced`` to."""
    params = pool.params
    cost = float(col.fp_count)
    if params.mode == MODE_SOFT and col.is_human:
        cost -= params.human_weight * pool.dataset.n
    if params.mode == MODE_TEMPLATES:
        cost += params.template_weight * pool.distance(col.cols)
    return cost, params.mode == MODE_HARD and col.is_human


def _check_interior_reduced_costs(pool, rounds=4):
    """Solve the master for a few column-generation rounds; every variable
    strictly inside (0, 1) must have a zero reduced cost under the duals.
    Returns how many such variables were checked."""
    checked = 0
    tol = TOLERANCE
    for _ in range(rounds):
        sol, w, (mu, lam) = solve_pool(pool)
        assert sol.status == "optimal"
        for k, col in enumerate(pool.columns):
            if not tol < w[k] < 1 - tol:
                continue
            cost, _ = reference_cost(pool, col)
            rc = cost - mu @ col.pos_cover + lam * col.complexity
            assert abs(rc) <= tol, (k, rc)
            checked += 1
        xi = sol.x[len(pool) :]
        inside = (xi > tol) & (xi < 1 - tol)
        assert np.all(np.abs(1.0 - mu[inside]) <= tol)
        checked += int(inside.sum())
        cands = price((mu, lam), pool, limit=COLUMNS_PER_ROUND)
        for cand in cands:
            pool.add(cand.cols)
    return checked


class TestComplementarySlackness:
    """Complementary slackness of the master: the covering-row duals ``mu``
    and the budget dual ``lam`` must price every fractional variable at
    zero, counting the soft credit and the template term."""

    @staticmethod
    def draw(ttt_dataset, seed, size=60):
        rng = np.random.default_rng(seed)
        return ttt_dataset.subset(rng.choice(ttt_dataset.n, size=size, replace=False))

    def test_machine_mode(self, ttt_dataset):
        ds = self.draw(ttt_dataset, 1)
        params = Params(mode=MODE_MACHINE, max_degree=3, complexity_budget=10)
        assert _check_interior_reduced_costs(seeded_pool(ds, params)) > 0

    def test_soft_mode_with_eight_rules(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, self.draw(ttt_dataset, 2))
        params = Params(mode=MODE_SOFT, max_degree=3, complexity_budget=15)
        pool = seeded_pool(ds, params, human_sets=bound.column_sets)
        assert _check_interior_reduced_costs(pool) > 0

    def test_hard_mode(self, ttt_dataset):
        rule = parse_rules("cell_r1_c1 == x AND cell_r0_c0 == x")
        bound, ds = bind(rule, self.draw(ttt_dataset, 3))
        params = Params(mode=MODE_HARD, max_degree=3, complexity_budget=10)
        pool = seeded_pool(ds, params, human_sets=bound.column_sets)
        assert _check_interior_reduced_costs(pool) > 0

    def test_templates_mode(self, ttt_dataset):
        ds = self.draw(ttt_dataset, 4)
        templates = parse_rules(
            "cell_r0_c0 == x AND cell_r0_c1 == x\n"
            "OR cell_r1_c0 == x AND cell_r1_c1 == x"
        )
        params = Params(mode=MODE_TEMPLATES, template_weight=0.5, max_degree=3,
                        complexity_budget=10)
        pool = seeded_pool(ds, params, templates=templates)
        assert _check_interior_reduced_costs(pool) > 0


def dense_master(pool):
    """The restricted master written out densely, straight from the model
    in the ``colgen`` docstring: one w per pool column, then one xi per
    positive sample."""
    n_pool, n_pos = len(pool), pool.dataset.P.size
    cost = np.ones(n_pool + n_pos)
    lower = np.zeros(n_pool + n_pos)
    rows = np.zeros((n_pos + 1, n_pool + n_pos))
    for k, col in enumerate(pool.columns):
        cost[k], lower[k] = reference_cost(pool, col)
        rows[:n_pos, k] = col.pos_cover
        rows[n_pos, k] = col.complexity
    rows[np.arange(n_pos), n_pool + np.arange(n_pos)] = 1.0
    return LiveLp(
        np.append(np.ones(n_pos), -np.inf),
        np.append(np.full(n_pos, np.inf), pool.params.complexity_budget),
        cost, lower, np.ones(n_pool + n_pos), rows,
    )


@pytest.mark.parametrize("mode", MODES)
def test_live_master_matches_cold_dense_solve(ttt_dataset, eight_rules, mode):
    # every round appends columns to one live model and re-solves it warm;
    # each value must equal a cold solve of the whole master built afresh,
    # and every column's cost and forced flag the reference's
    ds = TestComplementarySlackness.draw(ttt_dataset, 5)
    params = Params(mode=mode, max_degree=3, complexity_budget=12)
    human_sets, templates = (), RuleSet(())
    if mode == MODE_SOFT:
        bound, ds = bind(eight_rules, ds)
        human_sets = bound.column_sets
    if mode == MODE_HARD:
        bound, ds = bind(parse_rules("cell_r1_c1 == x AND cell_r0_c0 == x"), ds)
        human_sets = bound.column_sets
    if mode == MODE_TEMPLATES:
        templates = parse_rules("cell_r0_c0 == x AND cell_r0_c1 == x")
    pool = seeded_pool(ds, params, human_sets, templates)
    for _ in range(6):
        live, _, duals = solve_pool(pool)
        cold = solve_lp(dense_master(pool))
        assert live.status == cold.status == "optimal"
        assert live.objective == pytest.approx(cold.objective, abs=1e-9)
        cands = price(duals, pool, limit=COLUMNS_PER_ROUND)
        if not cands:
            break
        for cand in cands:
            pool.add(cand.cols)
    assert len(pool) > ds.n_columns + len(human_sets)  # some round added columns
    for col in pool.columns:
        assert (col.cost, col.forced) == reference_cost(pool, col), col.cols
    assert any(col.forced for col in pool.columns) == (mode == MODE_HARD)


class TestPrice:
    def test_zero_duals_yield_nothing(self, ttt_dataset):
        mu = np.zeros(ttt_dataset.P.size)
        out = price((mu, 0.0), ColumnPool(ttt_dataset))
        assert out == []

    def test_no_columns_yield_nothing(self):
        ds = BinaryDataset((), np.zeros((3, 0), dtype=bool), np.array([1, 0, 1], bool))
        assert price((np.ones(2), 0.0), ColumnPool(ds)) == []

    def test_single_positive_negative_reduced_cost(self):
        # one positive sample with mu=2; a degree-1 literal covering it and
        # no negatives prices at -2
        matrix = np.array([[1], [0]], dtype=bool)
        labels = np.array([1, 0], dtype=bool)
        ds = BinaryDataset((Literal("a", "==", "x"),), matrix, labels)
        out = price((np.array([2.0]), 0.0), ColumnPool(ds, Params(max_degree=1)))
        assert len(out) == 1
        assert out[0].reduced_cost == pytest.approx(-2.0)
        assert out[0].cols == frozenset({0})

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        params = Params(max_degree=3)
        for _ in range(120):
            ds = random_dataset(rng, n_cols=int(rng.integers(3, 7)))
            mu_full = np.zeros(ds.n)
            mu_full[ds.P] = rng.random(ds.P.size) * 3
            lam = float(rng.random() * 2)
            oracle = brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            )
            got = price((mu_full[ds.P], lam), ColumnPool(ds, params))
            want = sorted(
                (rc, tuple(sorted(cols))) for cols, rc in oracle.items()
                if rc < -TOLERANCE
            )
            assert len(got) == len(want)
            for cand, (rc, cols) in zip(got, want):
                assert cand.reduced_cost == pytest.approx(rc, abs=1e-9)
            # the minimum agrees exactly
            if want:
                assert got[0].reduced_cost == pytest.approx(want[0][0], abs=1e-9)

    def test_templates_mode_matches_brute_force(self):
        # three one-hot categorical features, as tic-tac-toe binarizes: most
        # literal pairs on one feature contradict each other; a tenth column
        # repeats the key of a template literal's column with other bits,
        # and the oracle counts that key once
        rng = np.random.default_rng(4242)
        dup_rng = np.random.default_rng(4243)
        values = ("x", "o", "b")
        one_hot = tuple(
            Literal(f"f{f}", "==", v) for f in range(3) for v in values
        )
        templates = parse_rules("f0 == x AND f1 == o\nOR f2 == b")
        template_keys = [
            [(lit.feature, lit.op, str(lit.value)) for lit in t.literals]
            for t in templates.conjunctions
        ]
        params = Params(mode=MODE_TEMPLATES, template_weight=1.5, max_degree=3)
        for _ in range(25):
            n_rows = int(rng.integers(8, 25))
            raw = rng.integers(0, len(values), size=(n_rows, 3))
            matrix = np.column_stack(
                [raw[:, f] == k for f in range(3) for k in range(len(values))]
            )
            labels = rng.random(n_rows) < 0.5
            labels[0] = True
            dup = int(dup_rng.choice([0, 4, 8]))  # f0 == x, f1 == o, f2 == b
            dup_bits = dup_rng.random(n_rows) < 0.5
            if np.array_equal(dup_bits, matrix[:, dup]):
                dup_bits[0] = not dup_bits[0]
            cols = one_hot + (one_hot[dup],)
            col_keys = [(c.feature, c.op, str(c.value)) for c in cols]
            ds = BinaryDataset(cols, np.column_stack([matrix, dup_bits]), labels)
            mu_full = np.zeros(ds.n)
            mu_full[ds.P] = rng.random(ds.P.size) * 3
            lam = float(rng.random())
            oracle = brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            )
            want = {}
            for key, rc in oracle.items():
                rc += params.template_weight * overlap_template_distance(
                    [col_keys[j] for j in key], template_keys
                )
                if rc < -TOLERANCE:
                    want[key] = rc
            got = price((mu_full[ds.P], lam), ColumnPool(ds, params, templates))
            assert {c.cols for c in got} == set(want)
            for cand in got:
                assert cand.reduced_cost == pytest.approx(want[cand.cols], abs=1e-9)

    def test_degree_four_limit_matches_brute_force(self):
        rng = np.random.default_rng(808)
        params = Params(max_degree=4)
        for _ in range(12):
            ds = random_dataset(rng, n_cols=8, n_rows=int(rng.integers(15, 40)))
            mu_full = np.zeros(ds.n)
            mu_full[ds.P] = rng.random(ds.P.size) * 3
            lam = float(rng.random() * 0.5)
            oracle = brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            )
            want = sorted(rc for rc in oracle.values() if rc < -TOLERANCE)
            full = price((mu_full[ds.P], lam), ColumnPool(ds, params))
            got = price((mu_full[ds.P], lam), ColumnPool(ds, params), limit=7)
            assert len(full) == len(want)
            assert [c.cols for c in got] == [c.cols for c in full[:7]]
            assert len(got) == min(7, len(want))
            for cand, rc in zip(got, want):
                assert cand.reduced_cost == pytest.approx(rc, abs=1e-9)
                assert cand.reduced_cost == pytest.approx(oracle[cand.cols], abs=1e-9)

    @pytest.mark.parametrize("block", [1, 3])
    def test_split_blocks_match_brute_force(self, monkeypatch, block):
        monkeypatch.setattr(colgen, "_PRICE_BLOCK", block)
        self.test_matches_brute_force_on_random_instances()
        self.test_templates_mode_matches_brute_force()
        self.test_degree_four_limit_matches_brute_force()

    def test_codes_beyond_int64_match_brute_force(self):
        # 16 columns at degree 16 code literal sets as 16-digit base-17
        # numbers, past the int64 range
        rng = np.random.default_rng(99)
        ds = random_dataset(rng, n_cols=16, n_rows=10)
        ds = BinaryDataset(ds.columns, rng.random((10, 16)) < 0.8, ds.labels)
        params = Params(max_degree=16)
        mu_full = np.zeros(ds.n)
        mu_full[ds.P] = rng.random(ds.P.size) + 1.0
        oracle = brute_force_reduced_costs(
            ds.matrix, ds.labels, mu_full, 0.01, params.max_degree
        )
        want = {cols: rc for cols, rc in oracle.items() if rc < -TOLERANCE}
        assert max(len(cols) for cols in want) >= 12
        got = price((mu_full[ds.P], 0.01), ColumnPool(ds, params))
        assert {c.cols for c in got} == set(want)
        for cand in got:
            assert cand.reduced_cost == pytest.approx(want[cand.cols], abs=1e-9)

    @staticmethod
    def assert_matches_brute_force(ds, mu, lam, params, limit=5):
        """Unlimited pricing returns exactly the oracle's improving
        conjunctions, and ``limit`` pricing the head of that list."""
        mu_full = np.zeros(ds.n)
        mu_full[ds.P] = mu
        oracle = brute_force_reduced_costs(
            ds.matrix, ds.labels, mu_full, lam, params.max_degree
        )
        want = {cols: rc for cols, rc in oracle.items() if rc < -TOLERANCE}
        full = price((mu, lam), ColumnPool(ds, params))
        assert {c.cols for c in full} == set(want)
        for cand in full:
            assert cand.reduced_cost == pytest.approx(want[cand.cols], abs=1e-9)
        got = price((mu, lam), ColumnPool(ds, params), limit=limit)
        assert [c.cols for c in got] == [c.cols for c in full[:limit]]
        return full

    def test_rows_without_dual_weight_match_brute_force(self):
        # at an LP vertex most covering rows have mu == 0, and pricing reads
        # only the others
        rng = np.random.default_rng(515)
        params = Params(max_degree=3)
        found = 0
        for _ in range(60):
            ds = random_dataset(rng)
            mu = rng.random(ds.P.size) * 3
            mu[rng.random(ds.P.size) < 0.8] = 0.0
            lam = float(rng.random() * 0.5)
            found += bool(self.assert_matches_brute_force(ds, mu, lam, params))
        assert found >= 20

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_all_zero_duals_match_brute_force(self, lam):
        rng = np.random.default_rng(516)
        for _ in range(10):
            ds = random_dataset(rng)
            mu = np.zeros(ds.P.size)
            full = self.assert_matches_brute_force(ds, mu, lam, Params(max_degree=3))
            assert full == [] and full.nodes == 1

    def test_wide_blocks_match_brute_force(self):
        # with 20 to 30 columns the root's children have hundreds of
        # children between them: one degree-2 block of more than 64 nodes
        # that end at different columns, so its one column window holds
        # children that are not fresh, which pricing must discard
        rng = np.random.default_rng(3030)
        params = Params(max_degree=3)
        for _ in range(4):
            n_cols = int(rng.integers(20, 31))
            ds = random_dataset(rng, n_cols=n_cols, n_rows=int(rng.integers(20, 41)))
            mu = rng.random(ds.P.size) * 3
            full = self.assert_matches_brute_force(ds, mu, 0.1, params, limit=20)
            # at most n_cols - 1 of the nodes after the root have degree 1
            assert full.nodes - 1 - n_cols > 64

    def test_excluded_pool_members_not_returned(self):
        matrix = np.array([[1], [0]], dtype=bool)
        labels = np.array([1, 0], dtype=bool)
        ds = BinaryDataset((Literal("a", "==", "x"),), matrix, labels)
        pool = ColumnPool(ds, Params(max_degree=1))
        pool.add((0,))
        out = price((np.array([2.0]), 0.0), pool)
        assert out == []

    def test_limit_keeps_most_negative(self, ttt_dataset):
        mu = np.ones(ttt_dataset.P.size)
        full = price((mu, 0.0), ColumnPool(ttt_dataset, Params(max_degree=2)))
        capped = price((mu, 0.0), ColumnPool(ttt_dataset, Params(max_degree=2)), limit=5)
        assert len(capped) == 5
        assert [c.cols for c in capped] == [c.cols for c in full[:5]]

    @staticmethod
    def tie_heavy_instances(rng, mode):
        """Pricing inputs whose exact reduced-cost ties straddle a cut.

        Duplicate columns give several conjunctions one cover, and integral
        mu with lambda a multiple of 1/2 keeps their reduced costs exact, so
        only the column-tuple rule can order them.  Random fractional duals
        ride along.
        """
        values = ("x", "o", "b")
        for trial in range(16):
            n_rows = int(rng.integers(10, 30))
            raw = rng.integers(0, len(values), size=(n_rows, 3))
            raw = np.column_stack([raw, raw[:, 0]])  # f3 repeats f0
            if mode == MODE_TEMPLATES:
                cols = tuple(
                    Literal(f"f{f}", "==", v) for f in range(4) for v in values
                )
                matrix = np.column_stack(
                    [raw[:, f] == k for f in range(4) for k in range(len(values))]
                )
            else:
                base = rng.random((n_rows, 4)) < 0.5
                matrix = np.column_stack([base, base[:, :2]])
                cols = tuple(Literal(f"f{j}", "==", "a") for j in range(6))
            labels = rng.random(n_rows) < 0.5
            labels[0] = True
            ds = BinaryDataset(cols, matrix, labels)
            if trial % 4 == 3:
                mu = rng.random(ds.P.size) * 3
                lam = float(rng.random())
            else:
                mu = rng.integers(0, 3, size=ds.P.size).astype(float)
                lam = float(rng.integers(0, 3)) / 2
            yield ds, mu, lam

    @pytest.mark.parametrize("block", [1, 3, colgen._PRICE_BLOCK])
    @pytest.mark.parametrize("mode", [MODE_MACHINE, MODE_TEMPLATES])
    @pytest.mark.parametrize("with_exclude", [False, True])
    def test_limit_is_the_head_of_the_full_list(
        self, monkeypatch, block, mode, with_exclude
    ):
        monkeypatch.setattr(colgen, "_PRICE_BLOCK", block)
        rng = np.random.default_rng(1906)
        params = Params(mode=mode, max_degree=3, template_weight=1.0)
        templates = (
            parse_rules("f0 == x AND f1 == o\nOR f2 == b")
            if mode == MODE_TEMPLATES else RuleSet(())
        )
        straddled = 0
        for ds, mu, lam in self.tie_heavy_instances(rng, mode):
            exclude = ColumnPool(ds, params, templates)
            if with_exclude:
                head = price((mu, lam), ColumnPool(ds, params, templates))
                for cols in [c.cols for c in head[::3]] + [(j,) for j in range(ds.n_columns)]:
                    exclude.add(cols)
            full = price((mu, lam), exclude)
            assert not {c.cols for c in exclude.columns} & {c.cols for c in full}
            for k in (1, 3, 7):
                got = price((mu, lam), exclude, limit=k)
                assert [c.cols for c in got] == [c.cols for c in full[:k]]
                for cand, want in zip(got, full):
                    assert cand.reduced_cost == pytest.approx(want.reduced_cost, abs=1e-9)
                if len(full) > k and full[k - 1].reduced_cost == full[k].reduced_cost:
                    straddled += 1
        assert straddled >= 3  # the column-tuple rule decided some cuts

    def test_limit_below_one_is_rejected(self, ttt_dataset):
        mu = np.ones(ttt_dataset.P.size)
        with pytest.raises(ValueError, match="limit"):
            price((mu, 0.0), ColumnPool(ttt_dataset, Params(max_degree=1)), limit=0)

    def test_bound_expands_fewer_nodes(self, ttt_dataset):
        mu = np.ones(ttt_dataset.P.size)
        params = Params(max_degree=3)
        full = price((mu, 0.5), ColumnPool(ttt_dataset, params))
        capped = price((mu, 0.5), ColumnPool(ttt_dataset, params), limit=20)
        assert [c.cols for c in capped] == [c.cols for c in full[:20]]
        assert full.pruned == 0
        assert capped.pruned > 0
        assert 1 <= capped.nodes < full.nodes

    def test_a_cap_of_the_node_count_is_exact(self):
        # no level holds more nodes than the whole unlimited search
        rng = np.random.default_rng(6161)
        params = Params(max_degree=3)
        for _ in range(30):
            ds = random_dataset(rng)
            mu = rng.random(ds.P.size) * 3
            lam = float(rng.random() * 0.5)
            width = price((mu, lam), ColumnPool(ds, params)).nodes
            for limit in (None, 5):
                want = price((mu, lam), ColumnPool(ds, params), limit=limit)
                got = price((mu, lam), ColumnPool(ds, params), limit=limit, width=width)
                assert got.exact and got.nodes == 0 and got.capped_nodes >= 1
                assert [c.cols for c in got] == [c.cols for c in want]
                for cand, ref in zip(got, want):
                    assert cand.reduced_cost == pytest.approx(ref.reduced_cost, abs=1e-9)

    def test_capped_candidates_match_brute_force(self):
        rng = np.random.default_rng(7070)
        params = Params(max_degree=3)
        seen = {"exact": 0, "inexact": 0, "fallback": 0}
        for _ in range(40):
            ds = random_dataset(rng, n_cols=int(rng.integers(4, 10)))
            mu_full = np.zeros(ds.n)
            mu_full[ds.P] = rng.random(ds.P.size) * 3
            lam = float(rng.random() * 0.5)
            oracle = brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            )
            exclude = {cols for cols in oracle if rng.random() < 0.2}
            pool = ColumnPool(ds, params)
            for cols in exclude:
                pool.add(cols)
            want = sorted(
                rc for cols, rc in oracle.items() if rc < -TOLERANCE and cols not in exclude
            )
            for width in (1, 2, 4, 16):
                for limit in (None, 3):
                    got = price((mu_full[ds.P], lam), pool, limit=limit, width=width)
                    for cand in got:
                        assert cand.cols not in exclude
                        assert cand.reduced_cost < -TOLERANCE
                        assert cand.reduced_cost == pytest.approx(oracle[cand.cols], abs=1e-9)
                    if not got.exact:
                        assert got  # only a capped search that found hits is inexact
                        seen["inexact"] += 1
                        continue
                    seen["exact"] += 1
                    seen["fallback"] += got.nodes > 0
                    assert [c.reduced_cost for c in got] == pytest.approx(want[:limit], abs=1e-9)
                    full = price((mu_full[ds.P], lam), pool, limit=limit)
                    assert [c.cols for c in got] == [c.cols for c in full]
        assert min(seen.values()) >= 5, seen

    def test_capped_search_is_the_level_by_level_beam(self, monkeypatch):
        # quarter-integral duals make most reduced costs exact, so ties at a
        # level's cut are decided by column tuple; every fourth instance has
        # fractional duals
        rng = np.random.default_rng(9191)
        params = Params(max_degree=3)
        seen = {"exact": 0, "inexact": 0, "fallback": 0, "split exact": 0}
        for trial in range(30):
            ds = random_dataset(rng, n_cols=int(rng.integers(4, 10)))
            mu_full = np.zeros(ds.n)
            if trial % 4 == 3:
                mu_full[ds.P] = rng.random(ds.P.size) * 3
                lam = float(rng.random() * 0.5)
            else:
                mu_full[ds.P] = rng.integers(0, 12, size=ds.P.size) / 4
                lam = float(rng.integers(0, 3)) / 4
            duals = (mu_full[ds.P], lam)
            # as in training, the pool holds every singleton, so the beam
            # must find its hits deeper and may miss them all
            pool = seeded_pool(ds, params)
            for cols in brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            ):
                if rng.random() < 0.2:
                    pool.add(cols)
            excluded = {col.cols for col in pool.columns}
            full = price(duals, pool)
            for width in (1, 2, 4, 16):
                hits, nodes, dropped = beam_search(
                    ds.matrix, ds.labels, mu_full, lam, params.max_degree, width,
                    TOLERANCE, excluded,
                )
                got = price(duals, pool, width=width)
                assert got.capped_nodes == nodes
                fallback = dropped and not hits
                assert got.exact == (not dropped or fallback)
                assert (got.nodes > 0) == fallback
                if got.exact:
                    seen["fallback" if fallback else "exact"] += 1
                    assert [c.cols for c in got] == [c.cols for c in full]
                    continue
                seen["inexact"] += 1
                want = sorted((rc, tuple(sorted(cols))) for cols, rc in hits.items())
                assert [tuple(sorted(c.cols)) for c in got] == [cols for _, cols in want]
                for cand in got:
                    assert cand.reduced_cost == pytest.approx(hits[cand.cols], abs=1e-9)
            # split into blocks, a cut search is a depth-first one, but one
            # that dropped nothing is still the exhaustive search
            for block in (1, 3):
                monkeypatch.setattr(colgen, "_PRICE_BLOCK", block)
                for width in (1, 2, 4, 16):
                    got = price(duals, pool, width=width)
                    if got.exact:
                        seen["split exact"] += 1
                        assert [c.cols for c in got] == [c.cols for c in full]
                monkeypatch.undo()
        assert min(seen.values()) >= 5, seen

    def test_fallback_finds_the_branch_the_cap_dropped(self):
        # a and b may both be descended; the cap keeps a, whose reduced cost
        # is lower, but only b AND c improves
        matrix = np.array([
            # a  b  c
            [1, 1, 1],  # positive
            [1, 0, 0],  # positive
            [1, 1, 0],
            [1, 1, 0],
            [0, 1, 0],
            [1, 0, 1],
        ], dtype=bool)
        labels = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
        ds = BinaryDataset(
            tuple(Literal(f, "==", "x") for f in "abc"), matrix, labels
        )
        mu, lam = np.ones(2), 0.25
        params = Params(max_degree=2)
        oracle = brute_force_reduced_costs(
            ds.matrix, ds.labels, np.array([1.0, 1, 0, 0, 0, 0]), lam, params.max_degree
        )
        assert {cols for cols, rc in oracle.items() if rc < -TOLERANCE} == {
            frozenset({1, 2})
        }
        got = price((mu, lam), ColumnPool(ds, params), width=1)
        assert got.exact
        assert got.capped_nodes == 2  # the root and a
        assert got.nodes > 0  # the exhaustive search ran
        assert [c.cols for c in got] == [frozenset({1, 2})]
        assert got[0].reduced_cost == pytest.approx(oracle[frozenset({1, 2})], abs=1e-9)
        wide = price((mu, lam), ColumnPool(ds, params), width=2)
        assert wide.exact and wide.nodes == 0
        assert [c.cols for c in wide] == [frozenset({1, 2})]

    def test_width_below_one_is_rejected(self, ttt_dataset):
        mu = np.ones(ttt_dataset.P.size)
        with pytest.raises(ValueError, match="width"):
            price((mu, 0.0), ColumnPool(ttt_dataset, Params(max_degree=1)), width=0)


class TestTrain:
    def test_full_data_machine_only_perfect(self, ttt_dataset):
        rs, report = train(ttt_dataset, None, Params(mode=MODE_MACHINE))
        assert report.train_accuracy == 1.0
        assert accuracy(rs, ttt_dataset) == 1.0
        assert rs.total_complexity <= 24
        assert report.hamming == 0

    def test_full_data_budget_twelve_branches_little(self, ttt_dataset):
        # the final master of the full table at budget 12 took 313 nodes
        # when branch and bound branched on single rules from the root; with
        # the number of rules branched on first it takes 55, to the same
        # optimum over the pool
        _, report = train(ttt_dataset, None, Params(mode=MODE_MACHINE, complexity_budget=12))
        assert report.mip_status == solver.OPTIMAL
        assert report.mip_nodes <= 150, report.mip_nodes
        assert report.mip_objective == 152

    def test_lp_objectives_non_increasing(self, ttt_dataset):
        rng = np.random.default_rng(11)
        idx = rng.choice(ttt_dataset.n, size=150, replace=False)
        _, report = train(ttt_dataset.subset(idx), None, Params())
        objs = [row["lp_objective"] for row in report.rounds]
        assert all(a >= b - 1e-7 for a, b in zip(objs, objs[1:]))

    @pytest.mark.parametrize("mode", [MODE_MACHINE, MODE_TEMPLATES, MODE_HARD])
    def test_pricing_finds_nothing_at_termination(self, ttt_dataset, monkeypatch, mode):
        calls = []

        def recording_price(duals, pool, **kwargs):
            calls.append((duals, pool))
            return price(duals, pool, **kwargs)

        monkeypatch.setattr(colgen, "price", recording_price)
        rng = np.random.default_rng(5)
        idx = rng.choice(ttt_dataset.n, size=100, replace=False)
        ds = ttt_dataset.subset(idx)
        params = Params(mode=mode, max_degree=3)
        # the final pool carries the templates or the forced rules
        human = {
            MODE_MACHINE: None,
            MODE_TEMPLATES: HumanInput(templates=parse_rules(
                "cell_r0_c0 == x AND cell_r0_c1 == x\nOR cell_r1_c1 == x"
            )),
            MODE_HARD: HumanInput(rules=parse_rules("cell_r1_c1 == x AND cell_r0_c0 == x")),
        }[mode]
        rs, report = train(ds, human, params)
        assert "round limit" not in " ".join(report.warnings)
        for row in report.rounds:
            assert row["price_seconds"] >= 0.0
            assert row["lp_seconds"] >= 0.0
            assert row["lp_iterations"] >= 0
            assert row["price_capped_nodes"] >= 1
            assert row["price_exact_nodes"] >= 0
            assert row["price_pruned"] >= 0
        assert report.rounds[-1]["columns_added"] == 0
        assert report.stop_reason == colgen.STOP_NO_IMPROVING_COLUMN
        assert report.rounds[-1]["price_exact"]
        # exhaustive pricing under the final duals finds nothing either
        assert len(calls) == len(report.rounds)
        duals, pool = calls[-1]
        assert price(duals, pool) == []
        # the final master starts where column generation ended
        last_lp = report.rounds[-1]["lp_objective"]
        assert report.mip_relaxation == pytest.approx(last_lp, abs=1e-9)
        assert report.mip_relaxation <= report.mip_objective + 1e-9
        assert 0.0 < report.mip_seconds < report.train_seconds

    def test_every_seventh_board_reaches_the_lp_bound(self, ttt_dataset):
        ds = ttt_dataset.subset(np.arange(0, ttt_dataset.n, 7))
        _, report = train(ds, None, Params(mode=MODE_MACHINE))
        assert report.mip_relaxation == pytest.approx(0.0, abs=1e-9)
        assert report.mip_objective == pytest.approx(report.mip_relaxation, abs=1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="nothing prices columns against the integer gap once column "
        "generation stops, so the pool the final master chooses from depends "
        "on which optimal dual vertex HiGHS returns; here it ends a unit "
        "above an LP bound of 0 that the eight true rules meet",
    )
    def test_a_sixty_board_draw_reaches_the_lp_bound(self, ttt_dataset):
        idx = np.random.default_rng(26).choice(ttt_dataset.n, size=60, replace=False)
        _, report = train(ttt_dataset.subset(idx), None, Params(mode=MODE_MACHINE))
        assert report.mip_relaxation == pytest.approx(0.0, abs=1e-9)
        assert report.mip_objective == pytest.approx(report.mip_relaxation, abs=1e-9)

    def test_report_to_dict_is_json(self, ttt_dataset):
        ds = ttt_dataset.subset(np.arange(0, ttt_dataset.n, 20))
        _, report = train(ds, None, Params(max_degree=2))
        out = report.to_dict()
        back = json.loads(json.dumps(out))
        assert back["mip_relaxation"] == report.mip_relaxation
        assert back["mip_seconds"] == report.mip_seconds > 0.0
        assert list(out) == [f.name for f in dataclasses.fields(TrainReport)]
        assert list(out["params"]) == [f.name for f in dataclasses.fields(Params)]

    def test_budget_always_respected(self, ttt_dataset):
        rng = np.random.default_rng(3)
        for budget in (3, 7, 12):
            idx = rng.choice(ttt_dataset.n, size=80, replace=False)
            rs, _ = train(
                ttt_dataset.subset(idx), None,
                Params(complexity_budget=budget, max_degree=3),
            )
            assert rs.total_complexity <= budget

    def test_soft_human_all_rules_small_data(self, ttt_dataset, eight_rules):
        rng = np.random.default_rng(17)
        idx = rng.choice(ttt_dataset.n, size=40, replace=False)
        ds = ttt_dataset.subset(idx)
        params = Params(mode=MODE_SOFT, human_weight=0.05)
        rs, report = train(ds, HumanInput(rules=eight_rules), params)
        assert ruleset_similarity(rs, eight_rules) == 1.0
        assert accuracy(rs, ttt_dataset) == 1.0
        assert report.unselected_human_count == 0
        assert all(report.human_selected.values())

    def test_soft_objective_accounting(self):
        matrix = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        labels = np.array([1, 1, 0], dtype=bool)
        cols = (Literal("a", "==", "x"), Literal("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, labels)
        human = HumanInput(rules=None)
        params = Params(mode=MODE_SOFT, human_weight=0.5, complexity_budget=1,
                        max_degree=1)
        rs, report = train(ds, human, params)
        assert report.objective == report.hamming  # no human rules given
        # with a human rule that hurts, the penalty shows up exactly
        rules = parse_rules("b == x")
        rs2, rep2 = train(ds, HumanInput(rules=rules), params)
        n_unsel = rep2.unselected_human_count
        assert rep2.objective == pytest.approx(
            rep2.hamming + 0.5 * ds.n * n_unsel
        )
        assert rep2.objective == rep2.hamming + params.human_weight * ds.n * n_unsel

    def test_hard_mode_forces_rule(self, ttt_dataset):
        rule = parse_rules("cell_r1_c1 == o")  # a deliberately bad rule
        params = Params(mode=MODE_HARD, complexity_budget=24)
        rng = np.random.default_rng(23)
        idx = rng.choice(ttt_dataset.n, size=60, replace=False)
        rs, report = train(
            ttt_dataset.subset(idx), HumanInput(rules=rule), params
        )
        rendered = {c.render() for c in rs.conjunctions}
        assert rule.conjunctions[0].render() in rendered

    def test_hard_mode_budget_error_propagates(self, ttt_dataset, eight_rules):
        params = Params(mode=MODE_HARD, complexity_budget=10)
        with pytest.raises(BudgetInfeasibleError):
            train(ttt_dataset, HumanInput(rules=eight_rules), params)

    def test_templates_mode_attracts(self, ttt_dataset):
        rng = np.random.default_rng(31)
        idx = rng.choice(ttt_dataset.n, size=60, replace=False)
        ds = ttt_dataset.subset(idx)
        templates = parse_rules(
            "cell_r0_c0 == x AND cell_r0_c1 == x\n"
            "OR cell_r1_c0 == x AND cell_r1_c1 == x"
        )
        params = Params(mode=MODE_TEMPLATES, template_weight=2.0, max_degree=3)
        rs, report = train(ds, HumanInput(templates=templates), params)
        assert rs.total_complexity <= params.complexity_budget

    def test_templates_mode_requires_templates(self, ttt_dataset):
        with pytest.raises(Exception, match="template"):
            train(ttt_dataset, None, Params(mode=MODE_TEMPLATES))

    @pytest.mark.parametrize("mode", [MODE_MACHINE, MODE_TEMPLATES])
    def test_rules_outside_soft_and_hard_mode_raise(self, ttt_dataset, eight_rules, mode):
        human = HumanInput(rules=eight_rules, templates=parse_rules("cell_r1_c1 == x"))
        with pytest.raises(TrainingError, match=f"{mode} mode ignores human rules"):
            train(ttt_dataset, human, Params(mode=mode))

    @pytest.mark.parametrize("mode", [MODE_MACHINE, MODE_SOFT, MODE_HARD])
    def test_templates_outside_templates_mode_raise(self, ttt_dataset, mode):
        human = HumanInput(templates=parse_rules("cell_r1_c1 == x"))
        with pytest.raises(TrainingError, match=f"{mode} mode ignores templates"):
            train(ttt_dataset, human, Params(mode=mode))

    def test_zero_rounds_is_no_column_generation(self, ttt_dataset):
        ds = ttt_dataset.subset(range(0, ttt_dataset.n, 20))
        _, report = train(ds, None, Params(max_cg_rounds=0))
        assert report.rounds == []
        assert report.stop_reason == colgen.STOP_ROUND_LIMIT

    def test_no_positive_fold_errors(self):
        matrix = np.ones((4, 2), dtype=bool)
        cols = (Literal("a", "==", "x"), Literal("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, np.zeros(4, dtype=bool))
        with pytest.raises(NoPositivesError):
            train(ds, None, Params())

    def test_round_limit_warns(self, ttt_dataset):
        rng = np.random.default_rng(41)
        idx = rng.choice(ttt_dataset.n, size=120, replace=False)
        params = Params(max_cg_rounds=1)
        _, report = train(ttt_dataset.subset(idx), None, params)
        assert any("round limit" in w for w in report.warnings)
        assert report.stop_reason == colgen.STOP_ROUND_LIMIT

    def test_lp_status_stops_the_loop(self, ttt_dataset, monkeypatch):
        solve = colgen.solve_lp
        calls = []

        def failing_second_round(lp):
            calls.append(lp)
            sol = solve(lp)
            if len(calls) == 2:
                sol = dataclasses.replace(sol, status=solver.INFEASIBLE)
            return sol

        monkeypatch.setattr(colgen, "solve_lp", failing_second_round)
        ds = ttt_dataset.subset(np.arange(0, ttt_dataset.n, 20))
        rs, report = train(ds, None, Params(max_degree=2))
        assert report.stop_reason == "lp-status:" + solver.INFEASIBLE
        assert len(report.rounds) == 1
        assert any(solver.INFEASIBLE in w for w in report.warnings)
        assert report.objective == hamming_loss(rs, ds)

    def test_each_round_logs_one_debug_line(self, ttt_dataset, caplog):
        ds = ttt_dataset.subset(np.arange(0, ttt_dataset.n, 20))
        with caplog.at_level(logging.DEBUG, logger="corules"):
            _, report = train(ds, None, Params(max_degree=2))
        lines = [r for r in caplog.records if r.name == "corules"]
        assert len(lines) == len(report.rounds) > 1
        for record, row in zip(lines, report.rounds):
            assert record.levelno == logging.DEBUG
            text = record.getMessage()
            assert f"round {row['round']}:" in text
            assert f"{row['lp_iterations']} iterations" in text
            assert f"price_exact {row['price_exact']}" in text
            assert f"price_capped_nodes {row['price_capped_nodes']}" in text
            assert f"price_exact_nodes {row['price_exact_nodes']}" in text
            assert f"price_pruned {row['price_pruned']}" in text
            assert f"{row['columns_added']} columns added" in text
            assert f"lp {row['lp_objective']:.9g}" in text
            assert f"best reduced cost {row['min_reduced_cost']:.9g}" in text

    def test_tiny_instances_match_brute_force(self):
        rng = np.random.default_rng(777)
        params_base = dict(mode=MODE_MACHINE, max_degree=3)
        for trial in range(30):
            ds = random_dataset(rng)
            budget = int(rng.integers(2, 7))
            params = Params(complexity_budget=budget, **params_base)
            rs, report = train(ds, None, params)
            oracle = brute_force_best_rule_set(
                ds.matrix, ds.labels, budget, params.max_degree
            )
            assert report.objective == oracle, f"trial {trial}"

    def test_deterministic_given_same_input(self, ttt_dataset):
        rng = np.random.default_rng(13)
        idx = rng.choice(ttt_dataset.n, size=70, replace=False)
        ds = ttt_dataset.subset(idx)
        rs1, _ = train(ds, None, Params())
        rs2, _ = train(ds, None, Params())
        assert [c.render() for c in rs1.conjunctions] == [
            c.render() for c in rs2.conjunctions
        ]


WRONG_RULE = "cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == o"


class TestChallenge:
    """The paper's challenge on the full table: the eight true rules are
    given with the first replaced by a wrong one, which covers 60 boards,
    37 of them negative.  Soft mode may drop it, hard mode must keep it."""

    @pytest.fixture(scope="class")
    def challenge(self):
        first = "(cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x)"
        assert first in EIGHT_RULES
        return HumanInput(rules=parse_rules(EIGHT_RULES.replace(first, f"({WRONG_RULE})")))

    def test_the_wrong_rule_covers_sixty_boards(self, ttt_dataset):
        bound, ds = bind(parse_rules(WRONG_RULE), ttt_dataset)
        covered = conjunction_cover(ds.matrix, bound.column_sets[0])
        assert covered.sum() == 60 and (covered & ~ds.labels).sum() == 37

    def test_soft_mode_drops_the_wrong_rule(self, ttt_dataset, challenge):
        _, report = train(ttt_dataset, challenge, Params(mode=MODE_SOFT, complexity_budget=24))
        dropped = [rule for rule, kept in report.human_selected.items() if not kept]
        assert dropped == [parse_rules(WRONG_RULE).conjunctions[0].render()]
        assert len(report.human_selected) == 8
        assert report.objective == pytest.approx(0.05 * 958)  # hamming 0 and one rule dropped
        assert report.train_accuracy == 1.0

    def test_hard_mode_keeps_the_wrong_rule(self, ttt_dataset, challenge):
        _, report = train(ttt_dataset, challenge, Params(mode=MODE_HARD, complexity_budget=24))
        assert len(report.human_selected) == 8 and all(report.human_selected.values())
        assert report.objective == report.hamming == 110
        assert report.train_accuracy == pytest.approx(848 / 958)

    def test_templates_mode_pays_the_template_penalty(self, ttt_dataset):
        templates = parse_rules("cell_r1_c1 == x OR cell_r0_c0 == x AND cell_r2_c2 == x")
        _, report = train(
            ttt_dataset, HumanInput(templates=templates),
            Params(mode=MODE_TEMPLATES, complexity_budget=12),
        )
        assert report.objective == report.hamming == 127
        assert report.template_penalty == pytest.approx(2.0)
        assert report.mip_objective == pytest.approx(129)


class TestPredict:
    def test_main_diagonal_board(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        # find a board whose main diagonal is all x
        diag_cols = [0, 4, 8]
        rows = ds.raw.rows  # rebuilt from the codes on every access
        for i in range(ds.n):
            if all(rows[i][j] == "x" for j in diag_cols):
                assert bound.predict(ds.matrix[i : i + 1])[0]
                break
        else:
            pytest.fail("no diagonal board found")

    def test_empty_rule_set_predicts_false(self, ttt_dataset):
        bound, ds = bind(parse_rules("FALSE"), ttt_dataset)
        assert not bound.predict(ds.matrix[:1])[0]
        assert not bound.predict(ds.matrix).any()

    def test_full_evaluation_matches_generator_labels(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        preds = bound.predict(ds.matrix)
        assert np.array_equal(preds, ds.labels)

    def test_column_mismatch_raises(self, ttt_dataset, eight_rules):
        for rules in (eight_rules, parse_rules("FALSE")):
            bound, ds = bind(rules, ttt_dataset)
            with pytest.raises(RuleError, match="column"):
                bound.predict(ds.matrix[:1, :10])


def test_templates_pool_distances_match_oracle(ttt_dataset, monkeypatch):
    pools = []

    class RecordedPool(ColumnPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(colgen, "ColumnPool", RecordedPool)
    rng = np.random.default_rng(17)
    ds = ttt_dataset.subset(rng.choice(ttt_dataset.n, size=60, replace=False))
    # a second "cell_r0_c0 == x" column with other bits
    j = ds.columns.index(Literal("cell_r0_c0", "==", "x"))
    bits = rng.random((ds.n, 1)) < 0.5
    ds = BinaryDataset(
        ds.columns + (ds.columns[j],), np.hstack([ds.matrix, bits]), ds.labels, ds.raw
    )
    dup = ds.n_columns - 1
    templates = parse_rules(
        "cell_r0_c0 == x AND cell_r0_c1 == x\nOR cell_r1_c1 == x"
    )
    params = Params(mode=MODE_TEMPLATES, template_weight=1.5, max_degree=3)
    train(ds, HumanInput(templates=templates), params)
    (pool,) = pools
    pool.add((j, dup))  # one key twice: it counts once
    col_keys = [(c.feature, c.op, str(c.value)) for c in pool.dataset.columns]
    template_keys = [
        [(lit.feature, lit.op, str(lit.value)) for lit in t.literals]
        for t in templates.conjunctions
    ]
    assert {frozenset({dup}), frozenset({j, dup})} <= {col.cols for col in pool.columns}
    for col in pool.columns:
        want = overlap_template_distance([col_keys[k] for k in col.cols], template_keys)
        assert pool.distance(col.cols) == want, col.cols
        assert col.cost == col.fp_count + 1.5 * want, col.cols


def age_income_dataset():
    """Twelve rows of two numeric features, binned at three quantiles."""
    cells = [(22, 1.5e4), (25, 8.1e4), (31, 2.2e4), (36, 4.4e4), (41, 3.1e4), (45, 5.2e4),
             (48, 1.9e4), (53, 6.6e4), (57, 2.8e4), (62, 7.5e4), (66, 3.9e4), (70, 1.2e4)]
    rows = [[a, i, (a > 40 and i > 3e4) or i > 7e4] for a, i in cells]
    return binarize(RawTable(["age", "income", "y"], [NUMERIC, NUMERIC, CATEGORICAL], rows, "y"),
                    bins=3)


@pytest.mark.parametrize("numeric", [False, True], ids=["tictactoe", "numeric"])
def test_trained_rules_bind_back_through_their_text(ttt_dataset, numeric):
    if numeric:
        ds = age_income_dataset()
    else:
        ds = ttt_dataset.subset(np.random.default_rng(4).choice(ttt_dataset.n, 120, replace=False))
    rule_set, _ = train(ds, None, Params(max_degree=3))
    assert len(rule_set) > 0
    want = tuple(
        frozenset(ds.columns.index(lit) for lit in conj.literals)
        for conj in rule_set.conjunctions
    )
    bound, again = bind(parse_rules(print_rules(rule_set)), ds)
    assert bound.column_sets == want
    assert again is ds  # no column synthesized


def test_templates_mode_on_a_numeric_table(monkeypatch):
    pools = []

    class RecordedPool(ColumnPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(colgen, "ColumnPool", RecordedPool)
    ds = age_income_dataset()
    assert Literal("age", ">", 38.5) in ds.columns
    assert Literal("income", ">", 48000.0) in ds.columns
    # binning made no 3e4 threshold; the last clause repeats the first
    templates = parse_rules(
        "(age > 38.5 AND income > 3e4) OR income > 48000 OR (income > 3e4 AND age > 38.5)"
    )
    params = Params(mode=MODE_TEMPLATES, max_degree=2)
    _, report = train(ds, HumanInput(templates=templates), params)
    assert report.stop_reason == colgen.STOP_NO_IMPROVING_COLUMN
    (pool,) = pools
    synthesized = Literal("income", ">", 3e4)
    assert pool.dataset.columns == ds.columns + (synthesized,)
    seeded = frozenset({ds.columns.index(Literal("age", ">", 38.5)), ds.n_columns})
    (col,) = [col for col in pool.columns if col.cols == seeded]
    assert pool.distance(col.cols) == 0.0 and col.cost == col.fp_count
    assert not col.is_human


def test_pool_add_rejects_a_column_index_out_of_range(ttt_dataset):
    pool = seeded_pool(ttt_dataset)
    m = ttt_dataset.n_columns
    for cols in [(-1,), (0, m)]:
        with pytest.raises(ValueError, match="outside"):
            pool.add(cols)
    assert len(pool.codes) == len(pool) == m
    assert not pool.add((m - 1,))  # still a member, once


def test_pool_audit_and_dedup(ttt_dataset):
    pool = seeded_pool(ttt_dataset)
    assert len(pool) == ttt_dataset.n_columns
    assert not pool.add((0,))  # duplicate
    assert pool.add((0, 20, 40)) and pool.add((3, 30))
    for col in pool.columns:
        cov = conjunction_cover(ttt_dataset.matrix, col.cols)
        assert np.array_equal(col.pos_cover, cov[ttt_dataset.P]), col.cols
        assert col.fp_count == np.count_nonzero(cov[ttt_dataset.Z]), col.cols
