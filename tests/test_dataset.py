import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corules.dataset import (
    CATEGORICAL,
    NUMERIC,
    PACK_BY_COLUMN_ROWS,
    TTT_FEATURES,
    BinaryDataset,
    DataError,
    Literal,
    RawTable,
    TableSchema,
    apply_columns,
    _as_float,
    _convert_levels,
    binarize,
    column_block,
    cover,
    feature_values,
    gather_bits,
    generate_tictactoe,
    label_bools,
    load_csv,
    pack_bits,
    parse_label_value,
    quantile_thresholds,
    save_csv,
    unpack_bits,
)

from oracles import _wins, cell_condition, conjunction_cover, tictactoe_final_boards


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

    def test_tictactoe_column_order(self, ttt):
        ds = binarize(ttt)
        assert ds.columns == tuple(
            Literal(f, op, v)
            for f in TTT_FEATURES for op in ("==", "!=") for v in ("b", "o", "x")
        )

    def test_without_negations(self, ttt):
        # an equality-only vocabulary: apply binarize's == columns
        ds = binarize(ttt)
        keep = [j for j, meta in enumerate(ds.columns) if meta.op == "=="]
        eq = apply_columns(ttt, [ds.columns[j] for j in keep])
        assert eq.n_columns == 9 * 3
        assert np.array_equal(eq.matrix, ds.matrix[:, keep])

    def test_full_matrix_audit(self, ttt):
        ds = binarize(ttt.subset(range(50)))
        assert ds.verify_against_raw()

    def test_audit_catches_one_flipped_bit(self, ttt):
        ds = binarize(ttt.subset(range(50)))
        matrix = ds.matrix.copy()
        matrix[17, 5] = not matrix[17, 5]
        assert not BinaryDataset(ds.columns, matrix, ds.labels, ds.raw).verify_against_raw()

    def test_matrix_is_column_major(self, ttt):
        assert binarize(ttt).matrix.flags.f_contiguous

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
        sub = ttt.subset([5, 3, 5, 900, 0])  # shares ttt's levels
        save_csv(sub, path)
        assert load_csv(path, sub.schema) == sub

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
        cols = (Literal("not_a_column", "==", "x"),)
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
            extra += [Literal(name, op, data.draw(CATEGORY_CELLS)) for op in ("==", "!=")]
            if kind == NUMERIC:
                cut = data.draw(st.floats(-6, 6))
                extra += [Literal(name, "<=", cut), Literal(name, ">", cut)]
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
            apply_columns(t, (Literal("a", "==", "p"),))
        cells = [True, 1, "1", False, 0, "no"]
        t = RawTable(["y", "a"], [CATEGORICAL] * 2, [[c, "p"] for c in cells], "y")
        assert label_bools(t).tolist() == [True] * 3 + [False] * 3

    def test_non_numeric_cell_names_feature_and_row(self):
        t = RawTable(
            ["a", "y"], [NUMERIC, CATEGORICAL], [[1.0, "no"], ["oops", "yes"]], "y"
        )
        with pytest.raises(DataError, match=r"feature 'a' .*'oops' at row 1"):
            apply_columns(t, (Literal("a", "<=", 1.5),))

    def test_threshold_on_text_category_errors(self, ttt):
        with pytest.raises(DataError, match=r"feature 'cell_r0_c0' .*non-numeric"):
            apply_columns(ttt, (Literal("cell_r0_c0", "<=", 0.5),))


def test_subset_keeps_raw_in_sync(ttt):
    ds = binarize(ttt)
    sub = ds.subset([5, 10, 15])
    assert sub.n == 3
    assert sub.raw.rows[0] == ttt.rows[5]
    assert sub.verify_against_raw()


def test_apply_columns_on_a_large_sample_matches_cell_oracle(ttt):
    idx = np.random.default_rng(20_000).integers(0, ttt.n_rows, 20_000)
    cols = binarize(ttt).columns
    applied = apply_columns(ttt.subset(idx), cols)
    rows = ttt.rows
    sample = [rows[i] for i in idx.tolist()]
    where = [ttt.names.index(meta.feature) for meta in cols]
    expected = [
        [cell_condition(meta, row[k]) for meta, k in zip(cols, where)] for row in sample
    ]
    assert np.array_equal(applied.matrix, expected)
    assert np.array_equal(applied.labels, [parse_label_value(row[-1]) for row in sample])


def _outcome(read, table):
    """What ``read`` gives on ``table``: its arrays, or its error's text."""
    try:
        out = read(table)
    except DataError as err:
        return str(err)
    if isinstance(out, np.ndarray):
        return out.tolist()
    return out.columns, out.matrix.tolist(), out.labels.tolist()


class TestEncodedTable:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_subset_reads_like_a_table_of_its_rows(self, data):
        t = data.draw(mixed_tables())
        idx = data.draw(st.lists(st.integers(0, t.n_rows - 1), max_size=2 * t.n_rows))
        sub = t.subset(idx)
        rebuilt = RawTable(t.names, t.kinds, sub.rows, t.label)
        assert sub.n_rows == len(idx)
        assert sub == rebuilt
        assert sub.rows == [t.rows[i] for i in idx]
        cols = []
        for name in t.names[:-1]:  # thresholds on text cells raise
            cols += [
                Literal(name, "==", data.draw(CATEGORY_CELLS)),
                Literal(name, "<=", data.draw(st.floats(-6, 6))),
            ]
        for read in (
            lambda r: apply_columns(r, cols),
            lambda r: binarize(r, bins=3),
            label_bools,
        ):
            assert _outcome(read, sub) == _outcome(read, rebuilt)

    def test_errors_name_rows_of_the_subset(self):
        t = RawTable(
            ["a", "y"],
            [NUMERIC, CATEGORICAL],
            [[1.0, "no"], [2.0, "maybe"], ["oops", "yes"], [float("inf"), "yes"]],
            "y",
        )
        cols = (Literal("a", "<=", 1.5),)
        with pytest.raises(DataError, match=r"'oops' at row 1$"):
            binarize(t.subset([0, 2, 3]))
        with pytest.raises(DataError, match=r"non-finite cell at row 0$"):
            apply_columns(t.subset([3, 2, 0]), cols)
        with pytest.raises(DataError, match=r"label value 'maybe' "):
            label_bools(t.subset([2, 1, 3]))
        clean = t.subset([0, 0])
        assert apply_columns(clean, cols).matrix.tolist() == [[True], [True]]
        assert label_bools(clean).tolist() == [False, False]

    def test_levels_key_on_type_and_text(self):
        cells = [1, 1.0, True, "1", 0.0, -0.0, 1, "1"]
        t = RawTable(["a", "y"], [CATEGORICAL] * 2, [[c, "no"] for c in cells], "y")
        assert t.levels[0] == (1, 1.0, True, "1", 0.0, -0.0)
        assert t.codes[0].tolist() == [0, 1, 2, 3, 4, 5, 0, 3]
        assert [type(c) for c in t.column("a")] == [type(c) for c in cells]
        assert t.subset(np.array([7, 2])).column("a") == ["1", True]


@st.composite
def level_bit_patterns(draw):
    """Level bits with one level set, one clear, none, all or several set."""
    pattern = draw(st.sampled_from(["one set", "one clear", "none", "all", "several"]))
    n_levels = draw(st.integers(4 if pattern == "several" else 1, 300))
    bits = np.zeros(n_levels, dtype=bool)
    if pattern == "one set":
        bits[draw(st.integers(0, n_levels - 1))] = True
    elif pattern == "one clear":
        bits[:] = True
        bits[draw(st.integers(0, n_levels - 1))] = False
    elif pattern == "all":
        bits[:] = True
    elif pattern == "several":  # at least two levels set and two clear
        at = st.integers(0, n_levels - 1)
        bits[draw(st.lists(at, min_size=2, max_size=n_levels - 2, unique=True))] = True
    return bits


class TestNarrowCodes:
    @given(level_bit_patterns(), st.sampled_from([np.uint8, np.uint16]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_gather_bits_equals_indexing(self, bits, dtype, data):
        top = min(bits.size, np.iinfo(dtype).max + 1) - 1
        codes = np.array(data.draw(st.lists(st.integers(0, top), max_size=40)), dtype=dtype)
        want = bits[codes]
        assert gather_bits(bits, codes).tolist() == want.tolist()
        out = np.ones(codes.size, dtype=bool)
        gather_bits(bits, codes, out=out)
        assert out.tolist() == want.tolist()

    def test_codes_take_the_narrowest_dtype(self):
        def table(n_levels):
            rows = [[float(i), "yes" if i % 2 else "no"] for i in range(n_levels)]
            return RawTable(["a", "y"], [NUMERIC, CATEGORICAL], rows, "y")

        assert table(256).codes.dtype == np.uint8
        assert table(257).codes.dtype == np.uint16
        assert RawTable(["a", "y"], [CATEGORICAL] * 2, [], "y").codes.dtype == np.uint8

    def test_subset_keeps_the_narrow_dtype(self, ttt):
        assert ttt.codes.dtype == np.uint8
        sub = ttt.subset([3, 1, 4, 1, 5])
        assert sub.codes.dtype == np.uint8
        assert sub.rows == [ttt.rows[i] for i in (3, 1, 4, 1, 5)]

    def test_wide_numeric_column_matches_cell_oracle(self):
        # 400 rows, 300 distinct numbers: every column's codes widen to uint16
        labels = ["yes", "no", "TRUE", "f", True, 0]
        rows = [
            [float(i % 300) / 4, "abc"[i % 3], labels[i % len(labels)]]
            for i in range(400)
        ]
        t = RawTable(["a", "c", "y"], [NUMERIC, CATEGORICAL, CATEGORICAL], rows, "y")
        assert t.codes.dtype == np.uint16
        binned = binarize(t, bins=7)
        cols = binned.columns + (
            Literal("a", "<=", 0.0),      # true on one level
            Literal("a", ">", 0.0),       # false on one level
            Literal("a", "<=", 74.75),    # true on every level
            Literal("a", ">", 74.75),     # true on none
            Literal("c", "==", "b"),
            Literal("c", "!=", "b"),
        )
        applied = apply_columns(t, cols)
        for i, row in enumerate(rows):
            for j, meta in enumerate(cols):
                cell = row[t.names.index(meta.feature)]
                assert applied.matrix[i, j] == cell_condition(meta, cell), (i, meta)
        want_labels = [parse_label_value(row[-1]) for row in rows]
        assert label_bools(t).tolist() == want_labels
        assert applied.labels.tolist() == want_labels
        assert np.array_equal(binned.matrix, applied.matrix[:, : binned.n_columns])
        assert binned.verify_against_raw()

        rows[290][0] = "oops"
        bad = RawTable(["a", "c", "y"], [NUMERIC, CATEGORICAL, CATEGORICAL], rows, "y")
        with pytest.raises(DataError, match=r"'oops' at row 290$"):
            binarize(bad)
        with pytest.raises(DataError, match=r"'oops' at row 290$"):
            apply_columns(bad, (Literal("a", "<=", 1.5),))


def _per_level_values(raw, feature):
    """The reference: ``feature_values`` through one ``_as_float`` per level."""
    levels, codes = raw.encoded(feature)
    return _convert_levels(
        levels, codes, lambda cell, row: _as_float(cell, feature, row), float
    )


def _values_or_error(read):
    try:
        return read().tolist()
    except DataError as err:
        return str(err)


@pytest.mark.parametrize("cells, bad", [
    ([3, 2.5, " 1.5 ", "1_000", -0.0, 3, True], []),  # int, float and text cells
    ([1.0, float("inf"), 2.0], [1]),
    ([2, "nan", -float("inf")], [1, 2]),
    ([1.0, None, "oops", 4], [1, 2]),
], ids=["int-float-text", "inf", "nan", "non-numeric"])
def test_numeric_levels_match_the_per_level_path(cells, bad):
    t = RawTable(["a", "y"], [NUMERIC, CATEGORICAL], [[c, "no"] for c in cells], "y")
    fast = _values_or_error(lambda: feature_values(t, "a", True))
    assert fast == _values_or_error(lambda: _per_level_values(t, "a"))
    assert isinstance(fast, str) == bool(bad)
    # a subset keeps every level, bad ones too; no row of this one holds a
    # bad cell, so it converts without raising
    good = [i for i in range(len(cells)) if i not in bad]
    sub = t.subset(good)
    values = feature_values(sub, "a", True)
    assert values.tolist() == _per_level_values(sub, "a").tolist()
    assert values[sub.codes[0]].tolist() == [float(cells[i]) for i in good]


class TestPackedBits:
    @given(st.data())
    @settings(deadline=None)
    def test_one_cover_kernel_for_bools_and_words(self, data):
        n = data.draw(st.integers(1, 200))
        m = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        matrix = np.asarray(rng.random((n, m)) < 0.7, order=data.draw(st.sampled_from("CF")))
        cols = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4))
        words = pack_bits(matrix, range(m))
        assert words.shape == (m, -(-n // 64)) and words.dtype == np.uint64
        for j in range(m):
            assert np.array_equal(unpack_bits(words[j], n), matrix[:, j])
        want = conjunction_cover(matrix, cols)
        assert np.array_equal(cover(matrix, cols), want)
        assert np.array_equal(unpack_bits(cover(words.T, cols), n), want)

    @pytest.mark.parametrize("n", [PACK_BY_COLUMN_ROWS, PACK_BY_COLUMN_ROWS + 1, 40_000])
    def test_tall_matrices_pack_alike_on_either_side_of_the_threshold(self, n):
        # above PACK_BY_COLUMN_ROWS each column is packed where it lies
        matrix = np.asfortranarray(np.random.default_rng(n).random((n, 3)) < 0.5)
        words = pack_bits(matrix, [2, 0])
        assert words.shape == (2, -(-n // 64))
        assert np.array_equal(unpack_bits(words[0], n), matrix[:, 2])
        assert np.array_equal(unpack_bits(words[1], n), matrix[:, 0])
        octets = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        assert not octets[:, n:].any()


def _thresholds_on_unique(values, bins):
    """The reference: :func:`quantile_thresholds` on ``np.unique``."""
    distinct = np.unique(values)
    if distinct.size < 2:
        return []
    thresholds = []
    for j in range(1, bins):
        v = np.quantile(values, j / bins, method="lower")
        above = distinct[distinct > v]
        if above.size:
            thresholds.append(float((distinct[distinct <= v][-1] + above[0]) / 2.0))
    return sorted(set(thresholds))


class TestDistinctValues:
    """Distinct values are found without ``np.unique``, and agree with it."""

    @pytest.mark.parametrize("n_levels, dtype", [(200, np.uint8), (700, np.uint16)])
    @given(picked=st.lists(st.integers(0, 10**6), min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_present_levels_match_unique(self, n_levels, dtype, picked):
        rows = [[f"v{k % (n_levels - 1)}" if k else 1, ["no", "yes"][k % 2]]
                for k in range(n_levels)]
        rows[-1][0] = "1"  # one text, two levels
        sub = RawTable(["a", "y"], [CATEGORICAL] * 2, rows, "y").subset(
            [k % n_levels for k in picked]
        )
        assert sub.codes.dtype == dtype
        levels, codes = sub.encoded("a")
        want = sorted({str(levels[k]) for k in np.unique(codes).tolist()})
        try:
            columns = binarize(sub).columns
        except DataError as err:  # a single distinct text is constant
            assert "no usable features" in str(err)
            columns = ()
        got = [lit.value for lit in columns if lit.op == "=="]
        assert got == (want if len(want) > 1 else [])

    @given(
        st.lists(
            st.one_of(st.sampled_from([-0.0, 0.0, 1.5, -2.0]), st.floats(-1e6, 1e6)),
            min_size=1, max_size=60,
        ),
        st.integers(2, 12),
    )
    @example([4.25], 5)
    @example([-0.0, 0.0, -0.0, 3.0, 0.0], 4)
    @example([0.0, -0.0, -1.0, 1.0, 0.0, 2.0], 3)
    @settings(max_examples=200, deadline=None)
    def test_thresholds_match_unique(self, xs, bins):
        values = np.array(xs)
        assert quantile_thresholds(values, bins) == _thresholds_on_unique(values, bins)


def test_high_cardinality_categorical_matches_cell_oracle():
    # 2,000 levels, two of them (1 and "1") with one text; 500 rows leave
    # most levels unheld, and "absent" is held by no level at all
    cells = [1, "1"] + [f"v{k}" for k in range(1998)]
    rows = [[cell, ["no", "yes"][k % 2]] for k, cell in enumerate(cells)]
    table = RawTable(["a", "y"], [CATEGORICAL] * 2, rows, "y")
    picked = np.concatenate([[0, 1], np.random.default_rng(3).integers(2, 2000, 498)])
    sub = table.subset(picked)
    texts = ["1"] + cells[2:] + ["absent"]
    cols = [Literal("a", op, text) for text in texts for op in ("==", "!=")]
    cols.append(Literal("a", "==", 1))

    tracemalloc.start()
    try:
        block = column_block(sub, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * block.nbytes, (peak, block.nbytes)

    held = [cells[i] for i in picked.tolist()]
    expected = [[cell_condition(lit, cell) for lit in cols] for cell in held]
    assert np.array_equal(block, expected)
    assert block[:2, 0].all() and block[:2, -1].all()  # 1 and "1" meet == "1"
    assert not block[:, -3].any() and block[:, -2].all()  # == and != "absent"
