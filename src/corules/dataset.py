"""Tabular ingestion, binarization, and the tic-tac-toe endgame generator.

Raw tables hold categorical and numeric feature columns plus a binary label
column.  Binarization turns every feature into a block of 0/1 columns:
categoricals are one-hot encoded (optionally with negated one-hots), numerics
are split at quantile thresholds into ``<= t`` / ``> t`` pairs.  Each binary
column remembers the condition it tests (:class:`ColumnMeta`), so any bit can
be re-derived from the originating raw cell and new data can be binarized
against a trained model's columns.  Bits are computed feature by feature:
:func:`feature_values` converts one feature's cells once and
:func:`column_bits` evaluates a condition on that array, for every caller.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

CATEGORICAL = "categorical"
NUMERIC = "numeric"
KINDS = (CATEGORICAL, NUMERIC)

# Operators a binary column can test.  Strict/non-strict variants collapse
# onto this set; see ruledsl for the normalization rules.
OP_EQ = "=="
OP_NE = "!="
OP_LE = "<="
OP_GT = ">"

ORIGIN_BINNED = "derived-from-binning"
ORIGIN_SYNTHESIZED = "synthesized-from-human-literal"

_TRUTHY = {"true", "t", "1", "yes", "y", "pos", "positive"}
_FALSY = {"false", "f", "0", "no", "n", "neg", "negative"}


class DataError(ValueError):
    """Malformed table, schema, or cell."""


@dataclass(frozen=True)
class TableSchema:
    """Column names/kinds and the label column of a raw table."""

    names: tuple[str, ...]
    kinds: tuple[str, ...]
    label: str

    def __post_init__(self):
        if len(self.names) != len(self.kinds):
            raise DataError("schema names and kinds differ in length")
        if self.label not in self.names:
            raise DataError(f"label column {self.label!r} not in schema")
        for kind in self.kinds:
            if kind not in KINDS:
                raise DataError(f"unknown column kind {kind!r}")
        if len(set(self.names)) != len(self.names):
            raise DataError("duplicate column names in schema")
        if len(self.names) < 2:
            raise DataError("at least one feature column is required")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if n != self.label)

    def kind_of(self, name: str) -> str:
        return self.kinds[self.names.index(name)]


@dataclass
class RawTable:
    """A small in-memory table: header, per-column kinds, rows, label column."""

    names: list[str]
    kinds: list[str]
    rows: list[list]
    label: str

    def __post_init__(self):
        self.schema  # validates names/kinds/label
        for r, row in enumerate(self.rows):
            if len(row) != len(self.names):
                raise DataError(
                    f"row {r} has {len(row)} cells, expected {len(self.names)}"
                )

    @property
    def schema(self) -> TableSchema:
        return TableSchema(tuple(self.names), tuple(self.kinds), self.label)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        j = self.names.index(name)
        return [row[j] for row in self.rows]

    def subset(self, indices: Sequence[int]) -> "RawTable":
        return RawTable(
            list(self.names),
            list(self.kinds),
            [list(self.rows[i]) for i in indices],
            self.label,
        )


def parse_label_value(value) -> bool:
    """Map a raw label cell to a bool; raises DataError on unknown tokens."""
    if isinstance(value, bool):
        return value
    token = str(value).strip().lower()
    if token in _TRUTHY:
        return True
    if token in _FALSY:
        return False
    raise DataError(f"label value {value!r} is not recognizably binary")


def label_bools(table: RawTable) -> np.ndarray:
    """Parse each distinct label cell once (``1``, ``1.0``, ``True`` kept apart)."""
    parsed: dict = {}
    bits = []
    for value in table.column(table.label):
        key = value if isinstance(value, bool) else str(value)
        if key not in parsed:
            parsed[key] = parse_label_value(value)
        bits.append(parsed[key])
    return np.array(bits, dtype=bool)


def _as_float(value, feature: str, row: int) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise DataError(
            f"numeric feature {feature!r} has non-numeric cell {value!r} at row {row}"
        ) from None
    if not np.isfinite(out):
        raise DataError(f"numeric feature {feature!r} has non-finite cell at row {row}")
    return out


@dataclass(frozen=True)
class ColumnMeta:
    """The condition one binary column tests on one raw feature.

    ``op`` is one of ``==``/``!=`` (categorical value) or ``<=``/``>``
    (numeric threshold).  ``origin`` records whether the column came from
    binning or was synthesized to honor a human-provided threshold exactly.
    """

    feature: str
    op: str
    value: object
    origin: str = ORIGIN_BINNED

    def key(self) -> tuple:
        value = self.value
        if isinstance(value, float):
            # 12 significant digits: thresholds within rel. 1e-9 share a key
            value = float(f"{value:.12g}")
        return (self.feature, self.op, str(value))

    def describe(self) -> str:
        return f"{self.feature} {self.op} {self.value}"


def feature_values(raw: RawTable, feature: str, numeric: bool) -> np.ndarray:
    """One feature's cells as an array: floats if ``numeric``, else ``str`` values."""
    cells = raw.column(feature)
    if numeric:
        return np.array(
            [_as_float(c, feature, r) for r, c in enumerate(cells)], dtype=float
        )
    return np.array([str(c) for c in cells], dtype=str)


def column_bits(meta: ColumnMeta, values: np.ndarray) -> np.ndarray:
    """Evaluate one column condition on its feature's :func:`feature_values`."""
    if meta.op == OP_EQ:
        return values == str(meta.value)
    if meta.op == OP_NE:
        return values != str(meta.value)
    if meta.op == OP_LE:
        return values <= meta.value
    if meta.op == OP_GT:
        return values > meta.value
    raise DataError(f"unknown column operator {meta.op!r}")


@dataclass(frozen=True)
class BinaryDataset:
    """Binarized samples: column conditions, bit matrix, labels, P/Z split."""

    columns: tuple[ColumnMeta, ...]
    matrix: np.ndarray  # bool, shape (n, len(columns))
    labels: np.ndarray  # bool, shape (n,)
    raw: RawTable | None = None

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.columns):
            raise DataError("matrix width does not match column metadata")
        if self.matrix.shape[0] != self.labels.shape[0]:
            raise DataError("matrix and labels disagree on sample count")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def P(self) -> np.ndarray:
        """Indices of positive samples."""
        return np.flatnonzero(self.labels)

    @property
    def Z(self) -> np.ndarray:
        """Indices of negative samples."""
        return np.flatnonzero(~self.labels)

    def subset(self, indices: Sequence[int]) -> "BinaryDataset":
        idx = np.asarray(indices, dtype=int)
        raw = self.raw.subset(idx.tolist()) if self.raw is not None else None
        return BinaryDataset(self.columns, self.matrix[idx], self.labels[idx], raw)

    def with_column(self, meta: ColumnMeta, bits: np.ndarray) -> "BinaryDataset":
        if bits.shape != (self.n,):
            raise DataError("new column has wrong length")
        return BinaryDataset(
            self.columns + (meta,),
            np.hstack([self.matrix, bits.reshape(-1, 1)]),
            self.labels,
            self.raw,
        )

    def column_bits(self, meta: ColumnMeta) -> np.ndarray:
        """Evaluate a column condition on the raw cells (synthesis path)."""
        if self.raw is None:
            raise DataError("dataset has no raw table to synthesize columns from")
        numeric = meta.op in (OP_LE, OP_GT)
        return column_bits(meta, feature_values(self.raw, meta.feature, numeric))

    def verify_against_raw(self) -> bool:
        """Full-matrix audit: every bit equals its condition on the raw cell."""
        if self.raw is None:
            raise DataError("no raw table attached")
        for j, meta in enumerate(self.columns):
            if not np.array_equal(self.column_bits(meta), self.matrix[:, j]):
                return False
        return True


def quantile_thresholds(values: np.ndarray, bins: int) -> list[float]:
    """Thresholds at midpoints between adjacent distinct values at quantile cuts.

    Yields at most ``bins - 1`` strictly increasing thresholds, each lying
    strictly between two observed values.  Constant columns yield none.
    """
    if bins < 2:
        raise DataError("bins must be >= 2")
    distinct = np.unique(values)
    if distinct.size < 2:
        return []
    thresholds = []
    for j in range(1, bins):
        v = np.quantile(values, j / bins, method="lower")
        above = distinct[distinct > v]
        if above.size == 0:
            continue
        below = distinct[distinct <= v][-1]
        thresholds.append(float((below + above[0]) / 2.0))
    return sorted(set(thresholds))


def binarize(
    raw: RawTable, bins: int = 10, include_negations: bool = True
) -> BinaryDataset:
    """Binarize a raw table into a :class:`BinaryDataset`.

    Categorical features with v distinct values expand into v equality
    columns (plus v negated ones when ``include_negations``).  Numeric
    features expand into ``<= t`` / ``> t`` pairs at quantile thresholds.
    Constant features contribute nothing; a table with no usable feature
    raises.
    """
    if raw.n_rows == 0:
        raise DataError("empty table")
    if bins < 2:
        raise DataError("bins must be >= 2")
    labels = label_bools(raw)

    metas: list[ColumnMeta] = []
    bit_cols: list[np.ndarray] = []
    for name, kind in zip(raw.names, raw.kinds):
        if name == raw.label:
            continue
        values = feature_values(raw, name, kind == NUMERIC)
        if kind == NUMERIC:
            cuts = quantile_thresholds(values, bins)
            block = [ColumnMeta(name, op, t) for t in cuts for op in (OP_LE, OP_GT)]
        else:
            distinct = sorted(set(values.tolist()))
            if len(distinct) < 2:
                continue
            ops = (OP_EQ, OP_NE) if include_negations else (OP_EQ,)
            block = [ColumnMeta(name, op, v) for op in ops for v in distinct]
        metas += block
        bit_cols += [column_bits(meta, values) for meta in block]

    if not metas:
        raise DataError("no usable features")
    return BinaryDataset(tuple(metas), np.column_stack(bit_cols), labels, raw)


def apply_columns(raw: RawTable, columns: Sequence[ColumnMeta]) -> BinaryDataset:
    """Binarize new raw data against an existing column vocabulary.

    Feature by feature: each feature's cells are converted once with
    :func:`feature_values`, and every column on that feature is evaluated on
    the converted array into a column-major bool matrix.
    """
    if raw.n_rows == 0:
        raise DataError("empty table")
    labels = label_bools(raw)
    features = set(raw.schema.feature_names)
    values: dict[tuple[str, bool], np.ndarray] = {}
    matrix = np.empty((raw.n_rows, len(columns)), dtype=bool, order="F")
    for j, meta in enumerate(columns):
        if meta.feature not in features:
            raise DataError(f"data has no feature {meta.feature!r}")
        key = (meta.feature, meta.op in (OP_LE, OP_GT))
        if key not in values:
            values[key] = feature_values(raw, *key)
        matrix[:, j] = column_bits(meta, values[key])
    return BinaryDataset(tuple(columns), matrix, labels, raw)


# --- tic-tac-toe endgame -------------------------------------------------

TTT_FEATURES = tuple(f"cell_r{r}_c{c}" for r in range(3) for c in range(3))
TTT_LABEL = "x_wins"

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # diagonals
)


def _line_winner(board: tuple) -> str | None:
    for a, b, c in _LINES:
        if board[a] != "b" and board[a] == board[b] == board[c]:
            return board[a]
    return None


def generate_tictactoe() -> RawTable:
    """All distinct completed tic-tac-toe boards, labeled by whether x wins.

    x moves first; play stops at the first win or when the board is full.
    Boards reachable through several move orders appear once.
    """
    finals: set[tuple] = set()
    seen: set[tuple] = set()

    def play(board: tuple, player: str):
        if board in seen:
            return
        seen.add(board)
        if _line_winner(board) is not None or "b" not in board:
            finals.add(board)
            return
        nxt = "o" if player == "x" else "x"
        for i, cell in enumerate(board):
            if cell == "b":
                play(board[:i] + (player,) + board[i + 1 :], nxt)

    play(("b",) * 9, "x")

    rows = []
    for board in sorted(finals):
        wins = any(all(board[i] == "x" for i in line) for line in _LINES)
        rows.append(list(board) + ["true" if wins else "false"])
    names = list(TTT_FEATURES) + [TTT_LABEL]
    kinds = [CATEGORICAL] * 9 + [CATEGORICAL]
    return RawTable(names, kinds, rows, TTT_LABEL)


# --- CSV round trip -------------------------------------------------------


def save_csv(table: RawTable, path: str | Path):
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        for row in table.rows:
            writer.writerow([repr(c) if isinstance(c, float) else str(c) for c in row])


def load_csv(path: str | Path, schema: TableSchema) -> RawTable:
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        if tuple(header) != schema.names:
            raise DataError(
                f"{path}: header {tuple(header)!r} does not match schema {schema.names!r}"
            )
        rows = []
        for r, row in enumerate(reader):
            if len(row) != len(schema.names):
                missing = schema.names[min(len(row), len(schema.names) - 1)]
                raise DataError(
                    f"{path}: row {r} has {len(row)} cells, expected "
                    f"{len(schema.names)} (near column {missing!r})"
                )
            cells: list = []
            for name, kind, cell in zip(schema.names, schema.kinds, row):
                if kind == NUMERIC and name != schema.label:
                    cells.append(_as_float(cell, name, r))
                else:
                    cells.append(cell)
            rows.append(cells)
    return RawTable(list(schema.names), list(schema.kinds), rows, schema.label)
