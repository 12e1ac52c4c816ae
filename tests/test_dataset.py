import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corules.dataset import (
    CATEGORICAL,
    NUMERIC,
    ColumnMeta,
    DataError,
    RawTable,
    TableSchema,
    apply_columns,
    binarize,
    generate_tictactoe,
    label_bools,
    load_csv,
    parse_label_value,
    quantile_thresholds,
    save_csv,
)

from oracles import _wins, cell_condition, tictactoe_final_boards


@pytest.fixture(scope="module")
def ttt():
    return generate_tictactoe()


class TestTicTacToe:
    def test_row_count_matches_filter_oracle(self, ttt):
        oracle = {tuple(b) for b in tictactoe_final_boards()}
        got = {tuple(row[:9]) for row in ttt.rows}
        assert got == oracle
        assert ttt.n_rows == 958

    def test_positive_fraction(self, ttt):
        pos = sum(1 for row in ttt.rows if row[9] == "true")
        assert pos == 626
        assert abs(pos / ttt.n_rows - 0.653) < 0.001

    def test_top_row_of_x_is_positive(self, ttt):
        for row in ttt.rows:
            if row[0] == row[1] == row[2] == "x":
                assert row[9] == "true"

    def test_no_board_has_two_winners_and_all_final(self, ttt):
        for row in ttt.rows:
            board = tuple(row[:9])
            xw, ow = _wins(board, "x"), _wins(board, "o")
            assert not (xw and ow)
            assert xw or ow or "b" not in board

    def test_boards_are_unique(self, ttt):
        boards = [tuple(row[:9]) for row in ttt.rows]
        assert len(boards) == len(set(boards))


class TestBinarize:
    def test_tictactoe_column_count(self, ttt):
        ds = binarize(ttt)
        assert ds.n_columns == 9 * 3 * 2
        assert ds.n == 958
        assert len(ds.P) == 626

    def test_without_negations(self, ttt):
        ds = binarize(ttt, include_negations=False)
        assert ds.n_columns == 9 * 3

    def test_full_matrix_audit(self, ttt):
        ds = binarize(ttt.subset(range(50)))
        assert ds.verify_against_raw()

    def test_constant_numeric_feature_rejected(self):
        t = RawTable(
            ["a", "y"], [NUMERIC, CATEGORICAL], [[1.0, "yes"], [1.0, "no"]], "y"
        )
        with pytest.raises(DataError, match="no usable features"):
            binarize(t)

    def test_two_bins_split_at_median(self):
        t = RawTable(
            ["a", "y"],
            [NUMERIC, CATEGORICAL],
            [[1.0, "no"], [2.0, "no"], [3.0, "yes"], [4.0, "yes"]],
            "y",
        )
        ds = binarize(t, bins=2)
        assert ds.n_columns == 2
        le, gt = ds.columns
        assert le.op == "<=" and gt.op == ">" and le.value == gt.value == 2.5
        assert np.array_equal(ds.matrix[:, 0], ~ds.matrix[:, 1])

    def test_non_numeric_cell_errors(self):
        t = RawTable(
            ["a", "y"], [NUMERIC, CATEGORICAL], [[1.0, "no"], ["oops", "yes"]], "y"
        )
        with pytest.raises(DataError, match="non-numeric"):
            binarize(t)

    def test_nonbinary_label_errors(self):
        t = RawTable(
            ["a", "y"], [CATEGORICAL, CATEGORICAL], [["p", "maybe"], ["q", "no"]], "y"
        )
        with pytest.raises(DataError, match="binary"):
            binarize(t)

    def test_empty_table_errors(self):
        t = RawTable(["a", "y"], [CATEGORICAL, CATEGORICAL], [], "y")
        with pytest.raises(DataError, match="empty"):
            binarize(t)


class TestQuantileThresholds:
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=40),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=200)
    def test_thresholds_increase_and_separate_observed_values(self, xs, bins):
        vals = np.array(xs, dtype=float)
        ths = quantile_thresholds(vals, bins)
        assert len(ths) <= bins - 1
        assert all(a < b for a, b in zip(ths, ths[1:]))
        distinct = np.unique(vals)
        for t in ths:
            assert t not in distinct
            assert distinct.min() < t < distinct.max()
            # strictly between two adjacent observed values
            below = distinct[distinct < t]
            above = distinct[distinct > t]
            assert below.size and above.size

    def test_constant_column_yields_nothing(self):
        assert quantile_thresholds(np.array([3.0, 3.0, 3.0]), 5) == []


class TestCsvRoundTrip:
    def test_tictactoe_round_trip(self, tmp_path, ttt):
        path = tmp_path / "ttt.csv"
        save_csv(ttt, path)
        back = load_csv(path, ttt.schema)
        assert back == ttt

    def test_numeric_round_trip(self, tmp_path):
        t = RawTable(
            ["a", "y"],
            [NUMERIC, CATEGORICAL],
            [[1.25, "no"], [2.5e-3, "yes"]],
            "y",
        )
        path = tmp_path / "t.csv"
        save_csv(t, path)
        assert load_csv(path, t.schema) == t

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,no\n3,yes\n")
        schema = TableSchema(("a", "b", "y"), (NUMERIC, NUMERIC, CATEGORICAL), "y")
        with pytest.raises(DataError, match=r"row 1"):
            load_csv(path, schema)

    def test_header_mismatch_lists_both(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,z\n1,no\n")
        schema = TableSchema(("a", "y"), (NUMERIC, CATEGORICAL), "y")
        with pytest.raises(DataError) as err:
            load_csv(path, schema)
        assert "'z'" in str(err.value) and "'y'" in str(err.value)


# Categorical cells of four Python types; several share a hash or a text
# with another (1, 1.0, True; "1", 1; -0.0, 0.0).
CATEGORY_CELLS = st.one_of(
    st.sampled_from(["a", "b", "1", "1.0", "True"]),
    st.integers(-1, 2),
    st.sampled_from([1.0, 0.0, -0.0, 2.5, float("nan")]),
    st.booleans(),
)
NUMERIC_CELLS = st.one_of(
    st.integers(-3, 3), st.floats(-5, 5), st.sampled_from(["2.5", " -1 ", "1e0"])
)
LABEL_CELLS = st.sampled_from(["yes", "no", "TRUE", "f", True, False, 1, 0, "1", "0"])


@st.composite
def mixed_tables(draw):
    kinds = draw(st.lists(st.sampled_from([CATEGORICAL, NUMERIC]), min_size=1, max_size=4))
    rows = draw(
        st.lists(
            st.tuples(
                *(NUMERIC_CELLS if k == NUMERIC else CATEGORY_CELLS for k in kinds),
                LABEL_CELLS,
            ).map(list),
            min_size=1,
            max_size=12,
        )
    )
    names = [f"f{k}" for k in range(len(kinds))] + ["y"]
    return RawTable(names, kinds + [CATEGORICAL], rows, "y")


class TestApplyColumns:
    def test_rebinarize_against_existing_columns(self, ttt):
        ds = binarize(ttt)
        other = apply_columns(ttt.subset(range(100)), ds.columns)
        assert np.array_equal(other.matrix, ds.matrix[:100])

    def test_unknown_feature_errors(self, ttt):
        cols = (ColumnMeta("not_a_column", "==", "x"),)
        with pytest.raises(DataError, match="not_a_column"):
            apply_columns(ttt, cols)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bits_match_cell_oracle(self, data):
        t = data.draw(mixed_tables())
        try:
            binned = binarize(t, bins=3)
        except DataError as err:  # every feature is constant
            assert "no usable features" in str(err)
            binned = None
        extra = []
        for name, kind in zip(t.names[:-1], t.kinds):
            extra += [ColumnMeta(name, op, data.draw(CATEGORY_CELLS)) for op in ("==", "!=")]
            if kind == NUMERIC:
                cut = data.draw(st.floats(-6, 6))
                extra += [ColumnMeta(name, "<=", cut), ColumnMeta(name, ">", cut)]
        cols = (binned.columns if binned is not None else ()) + tuple(extra)

        applied = apply_columns(t, cols)
        for i, row in enumerate(t.rows):
            for j, meta in enumerate(cols):
                cell = row[t.names.index(meta.feature)]
                assert applied.matrix[i, j] == cell_condition(meta, cell), (meta, cell)
        assert np.array_equal(applied.labels, [parse_label_value(r[-1]) for r in t.rows])
        if binned is not None:
            assert np.array_equal(binned.matrix, applied.matrix[:, : binned.n_columns])
            assert binned.verify_against_raw()

    def test_labels_one_and_one_point_zero_stay_apart(self):
        t = RawTable(["a", "y"], [CATEGORICAL, CATEGORICAL], [["p", 1], ["q", 1.0]], "y")
        with pytest.raises(DataError, match=r"label value 1\.0 "):
            apply_columns(t, (ColumnMeta("a", "==", "p"),))
        cells = [True, 1, "1", False, 0, "no"]
        t = RawTable(["y", "a"], [CATEGORICAL] * 2, [[c, "p"] for c in cells], "y")
        assert label_bools(t).tolist() == [True] * 3 + [False] * 3

    def test_non_numeric_cell_names_feature_and_row(self):
        t = RawTable(
            ["a", "y"], [NUMERIC, CATEGORICAL], [[1.0, "no"], ["oops", "yes"]], "y"
        )
        with pytest.raises(DataError, match=r"feature 'a' .*'oops' at row 1"):
            apply_columns(t, (ColumnMeta("a", "<=", 1.5),))

    def test_threshold_on_text_category_errors(self, ttt):
        with pytest.raises(DataError, match=r"feature 'cell_r0_c0' .*non-numeric"):
            apply_columns(ttt, (ColumnMeta("cell_r0_c0", "<=", 0.5),))


def test_subset_keeps_raw_in_sync(ttt):
    ds = binarize(ttt)
    sub = ds.subset([5, 10, 15])
    assert sub.n == 3
    assert sub.raw.rows[0] == ttt.rows[5]
    assert sub.verify_against_raw()
