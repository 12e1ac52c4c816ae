import dataclasses
import json

import numpy as np
import pytest

from corules import colgen
from corules.colgen import (
    MODE_HARD,
    MODE_MACHINE,
    MODE_SOFT,
    MODE_TEMPLATES,
    BudgetInfeasibleError,
    ColumnPool,
    HumanInput,
    NoPositivesError,
    Params,
    TrainReport,
    build_master,
    price,
    solve_master,
    train,
)
from corules.dataset import BinaryDataset, ColumnMeta, binarize, generate_tictactoe
from corules.metrics import accuracy, hamming_loss, ruleset_similarity
from corules.ruledsl import RuleError, bind, parse_rules, parse_templates

from oracles import (
    brute_force_best_rule_set,
    brute_force_reduced_costs,
    overlap_template_distance,
)
from test_ruledsl import EIGHT_RULES


@pytest.fixture(scope="module")
def ttt_dataset():
    return binarize(generate_tictactoe())


@pytest.fixture(scope="module")
def eight_rules():
    return parse_rules(EIGHT_RULES, positive_label="x_wins")


def random_dataset(rng, n_cols=None, n_rows=None):
    n_cols = n_cols or int(rng.integers(4, 9))
    n_rows = n_rows or int(rng.integers(8, 31))
    matrix = rng.random((n_rows, n_cols)) < 0.5
    labels = rng.random(n_rows) < 0.5
    if not labels.any():
        labels[0] = True
    cols = tuple(ColumnMeta(f"f{j}", "==", "a") for j in range(n_cols))
    return BinaryDataset(cols, matrix, labels)


def seeded_pool(dataset, human_sets=(), templates=()):
    pool = ColumnPool(dataset, templates=templates)
    for cols in human_sets:
        pool.add(cols, "human", is_human=True)
    for j in range(dataset.n_columns):
        pool.add((j,), "machine")
    return pool


class TestBuildMaster:
    def test_eight_true_rules_full_data_lp_zero(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = ColumnPool(ds)
        for cols in bound.column_sets:
            pool.add(cols, "human", is_human=True)
        model = build_master(pool, ds, Params(mode=MODE_MACHINE))
        sol = solve_master(model)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.all(sol.w > 1 - 1e-9)
        assert np.all(sol.xi < 1e-9)

    def test_singleton_only_pool_costs_all_positives_when_empty(self):
        # a pool whose columns are useless forces every xi to one
        matrix = np.zeros((6, 2), dtype=bool)
        labels = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
        cols = (ColumnMeta("a", "==", "x"), ColumnMeta("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, labels)
        pool = seeded_pool(ds)
        model = build_master(pool, ds, Params(mode=MODE_MACHINE))
        sol = solve_master(model)
        assert sol.objective == pytest.approx(4.0)

    def test_soft_mode_objective_coefficients_and_offset(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = seeded_pool(ds, human_sets=bound.column_sets)
        params = Params(mode=MODE_SOFT, human_weight=0.05)
        model = build_master(pool, ds, params)
        cu_n = 0.05 * ds.n
        assert model.offset == pytest.approx(cu_n * 8)
        for k, col in enumerate(pool.columns):
            expected = col.fp_count - (cu_n if col.is_human else 0.0)
            assert model.lp.objective[k] == pytest.approx(expected)
        # xi coefficients are one
        assert np.all(model.lp.objective[len(pool) :] == 1.0)

    def test_unselected_human_rule_costs_cu_n(self):
        # one human rule that covers nothing positive: selecting it is a
        # pure loss, dropping it costs the violation penalty
        matrix = np.array([[1, 0], [1, 0], [0, 1]], dtype=bool)
        labels = np.array([1, 1, 0], dtype=bool)
        cols = (ColumnMeta("a", "==", "x"), ColumnMeta("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, labels)
        params = Params(mode=MODE_SOFT, human_weight=0.5, complexity_budget=1,
                        max_degree=1)
        pool = seeded_pool(ds, human_sets=[frozenset({1})])
        model = build_master(pool, ds, params)
        mip_obj_offset = model.offset
        # budget 1 admits one column: either the human one (fp=1, covers no
        # positive -> loss 2 + 1) or the machine singleton 0 (loss 0) plus
        # the dropped-rule penalty 0.5 * 3
        rs, report = train(ds, HumanInput(rules=None), params)
        assert report.objective == pytest.approx(hamming_loss(rs, ds))

    def test_hard_mode_budget_infeasible(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        pool = seeded_pool(ds, human_sets=bound.column_sets)
        params = Params(mode=MODE_HARD, complexity_budget=23)
        with pytest.raises(BudgetInfeasibleError, match="exceed"):
            build_master(pool, ds, params)

    def test_no_positives_rejected(self):
        matrix = np.ones((3, 1), dtype=bool)
        ds = BinaryDataset(
            (ColumnMeta("a", "==", "x"),), matrix, np.zeros(3, dtype=bool)
        )
        with pytest.raises(NoPositivesError):
            build_master(seeded_pool(ds), ds, Params())


class TestPrice:
    def test_zero_duals_yield_nothing(self, ttt_dataset):
        mu = np.zeros(ttt_dataset.P.size)
        out = price((mu, 0.0), ttt_dataset, Params())
        assert out == []

    def test_no_columns_yield_nothing(self):
        ds = BinaryDataset((), np.zeros((3, 0), dtype=bool), np.array([1, 0, 1], bool))
        assert price((np.ones(2), 0.0), ds, Params()) == []

    def test_single_positive_negative_reduced_cost(self):
        # one positive sample with mu=2; a degree-1 literal covering it and
        # no negatives prices at -2
        matrix = np.array([[1], [0]], dtype=bool)
        labels = np.array([1, 0], dtype=bool)
        ds = BinaryDataset((ColumnMeta("a", "==", "x"),), matrix, labels)
        out = price((np.array([2.0]), 0.0), ds, Params(max_degree=1))
        assert len(out) == 1
        assert out[0].reduced_cost == pytest.approx(-2.0)
        assert out[0].cols == frozenset({0})

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(2024)
        params = Params(max_degree=3, tolerance=1e-6)
        for _ in range(120):
            ds = random_dataset(rng, n_cols=int(rng.integers(3, 7)))
            mu_full = np.zeros(ds.n)
            mu_full[ds.P] = rng.random(ds.P.size) * 3
            lam = float(rng.random() * 2)
            oracle = brute_force_reduced_costs(
                ds.matrix, ds.labels, mu_full, lam, params.max_degree
            )
            got = price((mu_full[ds.P], lam), ds, params)
            want = sorted(
                (rc, tuple(sorted(cols))) for cols, rc in oracle.items()
                if rc < -params.tolerance
            )
            assert len(got) == len(want)
            for cand, (rc, cols) in zip(got, want):
                assert cand.reduced_cost == pytest.approx(rc, abs=1e-9)
            # the minimum agrees exactly
            if want:
                assert got[0].reduced_cost == pytest.approx(want[0][0], abs=1e-9)

    def test_templates_mode_matches_brute_force(self):
        # three one-hot categorical features, as tic-tac-toe binarizes: most
        # literal pairs on one feature contradict each other
        rng = np.random.default_rng(4242)
        values = ("x", "o", "b")
        cols = tuple(
            ColumnMeta(f"f{f}", "==", v) for f in range(3) for v in values
        )
        col_keys = [(c.feature, c.op, str(c.value)) for c in cols]
        templates = parse_templates("f0 == x AND f1 == o\nOR f2 == b")
        template_keys = [
            [(lit.feature, lit.op, str(lit.value)) for lit in t.literals]
            for t in templates
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
            ds = BinaryDataset(cols, matrix, labels)
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
                if rc < -params.tolerance:
                    want[key] = rc
            got = price((mu_full[ds.P], lam), ds, params, templates=templates)
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
            want = sorted(rc for rc in oracle.values() if rc < -params.tolerance)
            got = price((mu_full[ds.P], lam), ds, params, limit=7)
            assert got.found == len(want)
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
        want = {cols: rc for cols, rc in oracle.items() if rc < -params.tolerance}
        assert max(len(cols) for cols in want) >= 12
        got = price((mu_full[ds.P], 0.01), ds, params)
        assert {c.cols for c in got} == set(want)
        for cand in got:
            assert cand.reduced_cost == pytest.approx(want[cand.cols], abs=1e-9)

    def test_excluded_pool_members_not_returned(self):
        matrix = np.array([[1], [0]], dtype=bool)
        labels = np.array([1, 0], dtype=bool)
        ds = BinaryDataset((ColumnMeta("a", "==", "x"),), matrix, labels)
        out = price(
            (np.array([2.0]), 0.0), ds, Params(max_degree=1),
            exclude={frozenset({0})},
        )
        assert out == []

    def test_limit_keeps_most_negative(self, ttt_dataset):
        mu = np.ones(ttt_dataset.P.size)
        full = price((mu, 0.0), ttt_dataset, Params(max_degree=2))
        capped = price((mu, 0.0), ttt_dataset, Params(max_degree=2), limit=5)
        assert len(capped) == 5
        assert [c.cols for c in capped] == [c.cols for c in full[:5]]


class TestTrain:
    def test_full_data_machine_only_perfect(self, ttt_dataset):
        rs, report = train(ttt_dataset, None, Params(mode=MODE_MACHINE))
        assert report.train_accuracy == 1.0
        assert accuracy(rs, ttt_dataset) == 1.0
        assert rs.total_complexity <= 24
        assert report.hamming == 0

    def test_lp_objectives_non_increasing(self, ttt_dataset):
        rng = np.random.default_rng(11)
        idx = rng.choice(ttt_dataset.n, size=150, replace=False)
        _, report = train(ttt_dataset.subset(idx), None, Params())
        objs = report.lp_objectives
        assert all(a >= b - 1e-7 for a, b in zip(objs, objs[1:]))

    def test_pricing_finds_nothing_at_termination(self, ttt_dataset):
        rng = np.random.default_rng(5)
        idx = rng.choice(ttt_dataset.n, size=100, replace=False)
        ds = ttt_dataset.subset(idx)
        params = Params(max_degree=3)
        rs, report = train(ds, None, params)
        assert "round limit" not in " ".join(report.warnings)
        for row in report.rounds:
            assert row["price_seconds"] >= 0.0
            assert row["price_candidates"] >= row["columns_added"]
        assert report.rounds[-1]["price_candidates"] == 0

    def test_report_to_dict_is_json(self, ttt_dataset):
        ds = ttt_dataset.subset(np.arange(0, ttt_dataset.n, 20))
        _, report = train(ds, None, Params(max_degree=2))
        out = report.to_dict()
        json.dumps(out)
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
        cols = (ColumnMeta("a", "==", "x"), ColumnMeta("b", "==", "x"))
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
        templates = parse_templates(
            "cell_r0_c0 == x AND cell_r0_c1 == x\n"
            "OR cell_r1_c0 == x AND cell_r1_c1 == x"
        )
        params = Params(mode=MODE_TEMPLATES, template_weight=2.0, max_degree=3)
        rs, report = train(ds, HumanInput(templates=tuple(templates)), params)
        assert report.pricing_exact_within_degree
        assert rs.total_complexity <= params.complexity_budget

    def test_templates_mode_requires_templates(self, ttt_dataset):
        with pytest.raises(Exception, match="template"):
            train(ttt_dataset, None, Params(mode=MODE_TEMPLATES))

    def test_no_positive_fold_errors(self):
        matrix = np.ones((4, 2), dtype=bool)
        cols = (ColumnMeta("a", "==", "x"), ColumnMeta("b", "==", "x"))
        ds = BinaryDataset(cols, matrix, np.zeros(4, dtype=bool))
        with pytest.raises(NoPositivesError):
            train(ds, None, Params())

    def test_round_limit_warns(self, ttt_dataset):
        rng = np.random.default_rng(41)
        idx = rng.choice(ttt_dataset.n, size=120, replace=False)
        params = Params(max_cg_rounds=1, columns_per_round=2)
        _, report = train(ttt_dataset.subset(idx), None, params)
        assert any("round limit" in w for w in report.warnings)

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


class TestPredict:
    def test_main_diagonal_board(self, ttt_dataset, eight_rules):
        bound, ds = bind(eight_rules, ttt_dataset)
        # find a board whose main diagonal is all x
        diag_cols = [0, 4, 8]
        for i in range(ds.n):
            if all(ds.raw.rows[i][j] == "x" for j in diag_cols):
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
        bound, ds = bind(eight_rules, ttt_dataset)
        with pytest.raises(RuleError, match="column"):
            bound.predict(ds.matrix[:1, :10])


def test_pool_audit_and_dedup(ttt_dataset):
    pool = seeded_pool(ttt_dataset)
    assert len(pool) == ttt_dataset.n_columns
    assert not pool.add((0,), "machine")  # duplicate
    assert pool.audit_coverage()
