import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corules.dataset import (
    NUMERIC,
    CATEGORICAL,
    RawTable,
    binarize,
    generate_tictactoe,
    load_csv,
    save_csv,
)
from corules.ruledsl import (
    BindingWarning,
    Conjunction,
    ContradictionError,
    Literal,
    RuleSyntaxError,
    RuleError,
    RuleSet,
    UnknownFeatureError,
    bind,
    make_ruleset,
    parse_rules,
    print_rules,
)

from oracles import cell_condition

TOP_ROW = "cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x"

EIGHT_RULES = " OR ".join(
    [
        "(cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x)",
        "(cell_r1_c0 == x AND cell_r1_c1 == x AND cell_r1_c2 == x)",
        "(cell_r2_c0 == x AND cell_r2_c1 == x AND cell_r2_c2 == x)",
        "(cell_r0_c0 == x AND cell_r1_c0 == x AND cell_r2_c0 == x)",
        "(cell_r0_c1 == x AND cell_r1_c1 == x AND cell_r2_c1 == x)",
        "(cell_r0_c2 == x AND cell_r1_c2 == x AND cell_r2_c2 == x)",
        "(cell_r0_c0 == x AND cell_r1_c1 == x AND cell_r2_c2 == x)",
        "(cell_r0_c2 == x AND cell_r1_c1 == x AND cell_r2_c0 == x)",
    ]
)


class TestParse:
    def test_top_row_rule(self):
        rs = parse_rules(TOP_ROW)
        assert len(rs) == 1
        conj = rs.conjunctions[0]
        assert conj.complexity == 3
        assert {l.feature for l in conj.literals} == {
            "cell_r0_c0",
            "cell_r0_c1",
            "cell_r0_c2",
        }

    def test_duplicate_clause_collapses(self):
        rs = parse_rules("a > 5 OR a > 5")
        assert len(rs) == 1

    def test_contradiction_rejected(self):
        with pytest.raises(ContradictionError):
            parse_rules("a == x AND a != x")
        with pytest.raises(ContradictionError):
            parse_rules("a == x AND a == y")
        with pytest.raises(ContradictionError):
            parse_rules("a <= 1 AND a > 2")

    def test_syntax_error_carries_position(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules("a == x AND\nb ==")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line, column",
        [
            ('a == "x\ny" AND\nb ==', 3, 5),
            ("a == x AND\n\nb ==", 3, 5),
            ('"a\nb" == x AND b == ', 2, 18),
        ],
    )
    def test_syntax_error_counts_newlines_in_quoted_strings(self, text, line, column):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        assert (err.value.line, err.value.column) == (line, column)

    @given(
        st.lists(st.text(), min_size=2).map("\n".join),
        st.lists(st.text(), min_size=1).map("\n".join),
    )
    def test_syntax_error_position_after_quoted_newlines(self, feature, value):
        # the error is at the end of the text: its line and column count
        # every newline, those inside the quoted name and value included
        text = Literal(feature, "==", value).render() + " AND b =="
        with pytest.raises(RuleSyntaxError) as err:
            parse_rules(text)
        assert err.value.line == text.count("\n") + 1
        assert err.value.column == len(text) - text.rfind("\n")

    def test_unknown_operator(self):
        with pytest.raises(RuleSyntaxError, match="operator"):
            parse_rules("a equals x")

    def test_normalization(self):
        rs = parse_rules("a < 3 AND b >= 2 AND NOT c <= 1 AND NOT d == x")
        lits = {(l.feature, l.op, l.value) for l in rs.conjunctions[0].literals}
        assert lits == {
            ("a", "<=", 3.0),
            ("b", ">", 2.0),
            ("c", ">", 1.0),
            ("d", "!=", "x"),
        }

    def test_double_negation_collapses(self):
        rs = parse_rules("NOT NOT a == x")
        (lit,) = rs.conjunctions[0].literals
        assert lit.op == "=="

    def test_not_flips_the_operator(self):
        (twice,) = parse_rules("NOT NOT a <= 3").conjunctions[0].literals
        assert twice == Literal("a", "<=", 3.0)
        (once,) = parse_rules("NOT a <= 3").conjunctions[0].literals
        assert once == Literal("a", ">", 3.0)

    def test_keywords_case_insensitive_features_not(self):
        rs = parse_rules("a == x and B == y or c == z")
        assert len(rs) == 2
        feats = {l.feature for c in rs.conjunctions for l in c.literals}
        assert feats == {"a", "B", "c"}

    def test_comments_and_blank_lines(self):
        rs = parse_rules("# header\n\na == x # trailing\n OR b == y\n")
        assert len(rs) == 2

    def test_numeric_threshold_required(self):
        with pytest.raises(RuleSyntaxError, match="numeric"):
            parse_rules("a <= x")

    def test_quoted_value(self):
        rs = parse_rules('a == "hello world"')
        (lit,) = rs.conjunctions[0].literals
        assert lit.value == "hello world"

    def test_false_is_empty_ruleset(self):
        assert len(parse_rules("FALSE")) == 0
        assert len(parse_rules("")) == 0
        assert len(parse_rules("# nothing\n")) == 0


class TestTemplates:
    # partial templates are written and parsed as rules
    def test_two_literal_template(self):
        ts = parse_rules("UseDrug1 == true AND UseDrug2 == true")
        assert len(ts) == 1
        assert len(ts.conjunctions[0].literals) == 2

    def test_empty_text(self):
        assert parse_rules("") == RuleSet(())

    def test_single_literal_template(self):
        ts = parse_rules("a > 5")
        assert ts.conjunctions[0].literals == {Literal("a", ">", 5.0)}


class TestPrintRoundTrip:
    def test_eight_rules_round_trip(self):
        rs = parse_rules(EIGHT_RULES)
        again = parse_rules(print_rules(rs))
        assert {c.literals for c in rs.conjunctions} == {
            c.literals for c in again.conjunctions
        }

    def test_empty_prints_false(self):
        assert print_rules(RuleSet(())) == "FALSE"
        assert len(parse_rules("FALSE")) == 0

    def test_single_literal_no_parens(self):
        text = print_rules(parse_rules("a > 5.0"))
        assert "(" not in text
        assert parse_rules(text).conjunctions[0].complexity == 1

    @pytest.mark.parametrize(
        "feature", ["age group", "2nd", "NOT", "not", "FALSE", "false", "And", "or", 'a"b\\']
    )
    def test_feature_names_that_need_quotes_round_trip(self, feature):
        rs = RuleSet((Conjunction(frozenset({Literal(feature, "==", "x")})),))
        text = print_rules(rs)
        assert parse_rules(text) == rs
        assert text.startswith('"')

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.text(min_size=1),
                    st.one_of(
                        st.tuples(st.sampled_from(["==", "!="]), st.text()),
                        st.tuples(
                            st.sampled_from(["<=", ">"]),
                            st.floats(allow_nan=False, allow_infinity=False),
                        ),
                    ),
                ),
                min_size=1,
                max_size=3,
                unique_by=lambda lit: lit[0],  # no contradiction within a rule
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_any_feature_name_round_trips(self, specs):
        rs = make_ruleset(
            Conjunction(frozenset(Literal(f, op, v) for f, (op, v) in spec)) for spec in specs
        )
        assert parse_rules(print_rules(rs)) == rs

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                    st.sampled_from(["==", "!=", "<=", ">"]),
                    st.one_of(
                        st.floats(
                            min_value=-50, max_value=50, allow_nan=False, width=32
                        ),
                        st.sampled_from(["red", "green", "blue"]),
                    ),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=0,
            max_size=4,
        )
    )
    @settings(max_examples=150)
    def test_round_trip_property(self, clause_specs):
        conjs = []
        for spec in clause_specs:
            lits = set()
            for feat, op, val in spec:
                if op in ("<=", ">") and isinstance(val, str):
                    val = 1.0
                if op in ("==", "!=") and isinstance(val, float):
                    val = "red"
                lits.add(Literal(feat, op, val))
            try:
                conjs.append(Conjunction(frozenset(lits)))
            except RuleError:
                continue
        rs = make_ruleset(conjs)
        again = parse_rules(print_rules(rs))
        assert {c.literals for c in rs.conjunctions} == {
            c.literals for c in again.conjunctions
        }


@pytest.fixture(scope="module")
def ttt_dataset():
    return binarize(generate_tictactoe())


class TestBind:
    def test_top_row_binds_without_synthesis(self, ttt_dataset):
        bound, ds = bind(parse_rules(TOP_ROW), ttt_dataset)
        assert ds.n_columns == ttt_dataset.n_columns
        (cols,) = bound.column_sets
        assert len(cols) == 3

    def test_numeric_threshold_synthesizes(self):
        t = RawTable(
            ["income", "y"],
            [NUMERIC, CATEGORICAL],
            [[1e4, "no"], [2e4, "no"], [4e4, "yes"], [8e4, "yes"]],
            "y",
        )
        ds = binarize(t, bins=2)
        rs = parse_rules("income > 3.5e4")
        bound, ds2 = bind(rs, ds)
        assert ds2.n_columns == ds.n_columns + 1
        # the new column is the rule's literal itself
        assert ds2.columns[-1] is next(iter(rs.conjunctions[0].literals))
        assert ds2.columns[-1].value == 3.5e4
        # bits honor the threshold exactly
        assert np.array_equal(ds2.matrix[:, -1], np.array([False, False, True, True]))

    def test_binding_is_stable(self):
        t = RawTable(
            ["income", "y"],
            [NUMERIC, CATEGORICAL],
            [[1e4, "no"], [2e4, "no"], [4e4, "yes"], [8e4, "yes"]],
            "y",
        )
        ds = binarize(t, bins=2)
        rs = parse_rules("income > 3.5e4")
        _, ds2 = bind(rs, ds)
        _, ds3 = bind(rs, ds2)
        assert ds3.n_columns == ds2.n_columns

    def test_unknown_feature(self, ttt_dataset):
        with pytest.raises(UnknownFeatureError, match="not_a_column"):
            bind(parse_rules("not_a_column == x"), ttt_dataset)

    def test_unseen_category_warns_constant_false(self, ttt_dataset):
        with pytest.warns(BindingWarning):
            bound, ds = bind(parse_rules("cell_r0_c0 == q"), ttt_dataset)
        j = next(iter(bound.column_sets[0]))
        assert not ds.matrix[:, j].any()

    def test_several_literals_synthesize_in_one_block(self):
        rows = [
            [20.0, 1e4, "red", "no"],
            [35.0, 3e4, "blue", "yes"],
            [50.0, 2e4, "red", "no"],
            [70.0, 5e4, "green", "yes"],
        ]
        kinds = [NUMERIC, NUMERIC, CATEGORICAL, CATEGORICAL]
        t = RawTable(["age", "income", "color", "y"], kinds, rows, "y")
        ds = binarize(t, bins=2)
        rs = parse_rules(
            "(age > 30.5 AND color == purple) OR (age <= 61.0 AND income > 4e4)"
            " OR (color == purple AND income > 4e4 AND color != red)"
        )
        with pytest.warns(BindingWarning, match="purple") as record:
            bound, ds2 = bind(rs, ds)
        assert len(record) == 1
        new = [
            Literal("age", ">", 30.5),
            Literal("color", "==", "purple"),
            Literal("age", "<=", 61.0),
            Literal("income", ">", 4e4),
        ]
        assert ds2.columns == ds.columns + tuple(new)
        k = ds.n_columns
        red = ds.columns.index(Literal("color", "!=", "red"))
        assert bound.column_sets == (
            frozenset({k, k + 1}), frozenset({k + 2, k + 3}), frozenset({k + 1, k + 3, red})
        )
        assert np.array_equal(ds2.matrix[:, :k], ds.matrix)
        for i, row in enumerate(rows):
            for j, meta in enumerate(new, start=k):
                cell = row[t.names.index(meta.feature)]
                assert ds2.matrix[i, j] == cell_condition(meta, cell), (i, meta)
        assert ds2.verify_against_raw()

        again, ds3 = bind(rs, ds2)
        assert ds3.columns == ds2.columns
        assert np.array_equal(ds3.matrix, ds2.matrix)
        assert again.column_sets == bound.column_sets

    @staticmethod
    def grades(tmp_path, from_csv):
        rows = [[1, "no"], [2, "yes"], [3, "yes"], [1, "no"]]
        t = RawTable(["grade", "y"], [CATEGORICAL, CATEGORICAL], rows, "y")
        if from_csv:  # the cells come back as text
            save_csv(t, tmp_path / "grades.csv")
            t = load_csv(tmp_path / "grades.csv", t.schema)
        return binarize(t)

    @pytest.mark.parametrize("from_csv", [False, True])
    def test_number_after_equality_binds_the_binned_column(self, tmp_path, from_csv):
        ds = self.grades(tmp_path, from_csv)
        rs = parse_rules("grade == 1 OR NOT grade == 1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound, ds2 = bind(rs, ds)
        assert ds2.n_columns == ds.n_columns
        assert bound.column_sets == (
            frozenset({ds.columns.index(Literal("grade", "==", "1"))}),
            frozenset({ds.columns.index(Literal("grade", "!=", "1"))}),
        )
        assert np.array_equal(ds.matrix[:, min(bound.column_sets[0])],
                              [True, False, False, True])

    def test_number_after_equality_round_trips(self):
        rs = parse_rules("grade == 1 OR NOT grade == 2.50 OR score <= 1")
        again = parse_rules(print_rules(rs))
        # the text after == stays text, the threshold is a float
        lits = [{(l.feature, l.op, l.value) for l in c.literals} for c in again.conjunctions]
        assert lits == [
            {("grade", "==", "1")}, {("grade", "!=", "2.50")}, {("score", "<=", 1.0)},
        ]
        assert [c.literals for c in again.conjunctions] == [
            c.literals for c in rs.conjunctions
        ]

    def test_predict_shapes_and_mismatch(self, ttt_dataset):
        bound, ds = bind(parse_rules(TOP_ROW), ttt_dataset)
        preds = bound.predict(ds.matrix)
        assert preds.shape == (ds.n,)
        with pytest.raises(RuleError, match="column"):
            bound.predict(ds.matrix[:, :10])


def numeric_dataset():
    """Numeric features binned at three quantiles, with categories that need quoting."""
    rng = np.random.default_rng(3)
    kinds = ["a", "light blue", 'say "hi"', "-3", "1.0", "x\\y"]
    rows = [
        [float(rng.normal(0, 1e-6)), float(rng.normal(-40, 25)), kinds[i % len(kinds)],
         "yes" if i % 3 else "no"]
        for i in range(60)
    ]
    table = RawTable(["tiny", "temp", "kind", "y"], [NUMERIC, NUMERIC, CATEGORICAL, CATEGORICAL],
                     rows, "y")
    return binarize(table, bins=3)


@pytest.mark.parametrize("make", [lambda: binarize(generate_tictactoe()), numeric_dataset],
                         ids=["tictactoe", "numeric"])
def test_every_column_round_trips_through_rule_text(make):
    ds = make()
    for j, col in enumerate(ds.columns):
        rs = parse_rules(col.render())
        (lit,) = rs.conjunctions[0].literals
        assert lit == col
        assert lit.render() == col.render()
        bound, again = bind(rs, ds)
        assert bound.column_sets == (frozenset({j}),)
        assert again is ds


def test_conjunction_rejects_empty():
    with pytest.raises(RuleError):
        Conjunction(frozenset())


def test_conjunction_checks_consistency():
    for lits in (
        {Literal("a", "==", "x"), Literal("a", "!=", "x")},
        {Literal("a", "==", "x"), Literal("a", "==", "y")},
        {Literal("a", "<=", 1.0), Literal("a", ">", 2.0)},
    ):
        with pytest.raises(ContradictionError):
            Conjunction(frozenset(lits))
