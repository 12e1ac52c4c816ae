import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corules.dataset import (
    NUMERIC,
    CATEGORICAL,
    ColumnMeta,
    RawTable,
    binarize,
    generate_tictactoe,
)
from corules.ruledsl import (
    BindingWarning,
    Conjunction,
    ContradictionError,
    Literal,
    RuleSyntaxError,
    RuleError,
    RuleSet,
    Template,
    UnknownFeatureError,
    bind,
    make_ruleset,
    parse_rules,
    parse_templates,
    print_rules,
)

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

    def test_unknown_operator(self):
        with pytest.raises(RuleSyntaxError, match="operator"):
            parse_rules("a equals x")

    def test_normalization(self):
        rs = parse_rules("a < 3 AND b >= 2 AND NOT c <= 1 AND NOT d == x")
        lits = {l.key() for l in rs.conjunctions[0].literals}
        assert lits == {
            ("a", "<=", "3.0"),
            ("b", ">", "2.0"),
            ("c", ">", "1.0"),
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
        assert once.key() == ColumnMeta("a", ">", 3.0).key()

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
    def test_two_literal_template(self):
        ts = parse_templates("UseDrug1 == true AND UseDrug2 == true")
        assert len(ts) == 1
        assert len(ts[0].literals) == 2

    def test_empty_text(self):
        assert parse_templates("") == []

    def test_single_literal_template(self):
        ts = parse_templates("a > 5")
        assert len(ts[0].literals) == 1


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
        bound, ds2 = bind(parse_rules("income > 3.5e4"), ds)
        assert ds2.n_columns == ds.n_columns + 1
        meta = ds2.columns[-1]
        assert meta.origin == "synthesized-from-human-literal"
        assert meta.value == 3.5e4
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

    def test_predict_shapes_and_mismatch(self, ttt_dataset):
        bound, ds = bind(parse_rules(TOP_ROW), ttt_dataset)
        preds = bound.predict(ds.matrix)
        assert preds.shape == (ds.n,)
        with pytest.raises(RuleError, match="column"):
            bound.predict(ds.matrix[:, :10])


def test_conjunction_rejects_empty():
    with pytest.raises(RuleError):
        Conjunction(frozenset())


def test_template_checks_consistency():
    with pytest.raises(ContradictionError):
        Template(frozenset({Literal("a", "==", "x"), Literal("a", "!=", "x")}))
