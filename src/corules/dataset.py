"""Tabular ingestion, binarization, and the tic-tac-toe endgame generator.

Raw tables hold categorical and numeric feature columns plus a binary label
column.  A :class:`RawTable` stores them column by column, dictionary
encoded: each column keeps its distinct cells once, as ``levels``, and one
integer code per row.  Two cells share a level when they have the same type
and the same text, so ``1``, ``1.0`` and ``True`` stay three levels, and so
do ``0.0`` and ``-0.0``.  Every conversion of a cell (its text, its value as
a number, its value as a label) depends only on that key, so it is made
once per level and gathered to the rows by code.

Binarization turns every feature into a block of 0/1 columns: categoricals
are one-hot encoded as ``==`` and ``!=`` columns, numerics are split at
quantile thresholds into ``<= t`` / ``> t`` pairs.  Each binary column
is the condition it tests, a :class:`Literal`, the same type a rule is made
of, so any bit can be re-derived from the originating raw cell and any
column printed as rule text.  One function, :func:`column_block`,
computes bits from raw cells for binning, scoring, synthesized columns and
the audit alike, a feature at a time.  It groups the columns by feature
and kind (numeric threshold or categorical text) and converts that
feature's levels once with :func:`feature_values`.  A threshold is
compared with every level and :func:`gather_bits` spreads the level bits
to the rows.  A categorical ``==`` or ``!=`` column finds its level in one
text-to-level dict per feature and compares the codes with it; a text no
level holds gives a constant column, and one that several levels hold
(``1`` and ``"1"``) goes through :func:`gather_bits`.  Nothing sized
columns by levels is built.  :func:`cover` is the one kernel that
intersects bit columns into a conjunction's cover, on bool columns or on
columns packed 64 rows to a word by :func:`pack_bits`.

Distinct values are found by counting codes or deduplicating a sorted
array, not with numpy's ``unique``, which in numpy 2.4 imports
``numpy.ma``; binarizing and scoring load nothing beyond numpy.
"""

from __future__ import annotations

import copy
import csv
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

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


class RawTable:
    """An in-memory table: header, per-column kinds, label column and cells.

    Cells are stored column by column and dictionary encoded.
    ``levels[j]`` holds column j's distinct cells, each once, keyed by
    ``(type(cell), str(cell))``; ``codes[j, i]`` is the position of row i's
    cell in ``levels[j]``.  ``codes`` has the narrowest unsigned dtype that
    holds every column's codes: ``uint8`` while no column has more than 256
    levels, ``uint16`` up to 65,536, and so on.  :meth:`subset` gathers
    codes, keeping their dtype, and keeps the levels, so a subset's levels
    can include cells none of its rows holds; everything that reads a table
    (conversions, binarization, errors naming a row) depends only on the
    cells its rows hold.  ``rows`` and
    :meth:`column` rebuild the cells from the codes, with each level's first
    cell standing for every cell of that level.
    """

    def __init__(self, names: Sequence[str], kinds: Sequence[str],
                 rows: Sequence[Sequence], label: str):
        self.names = list(names)
        self.kinds = list(kinds)
        self.label = label
        self.schema  # validates names/kinds/label
        for r, row in enumerate(rows):
            if len(row) != len(self.names):
                raise DataError(
                    f"row {r} has {len(row)} cells, expected {len(self.names)}"
                )
        encoded = [_encode(cells) for cells in list(zip(*rows)) or [()] * len(self.names)]
        self.levels: tuple[tuple, ...] = tuple(levels for levels, _ in encoded)
        widest = max(len(levels) for levels in self.levels)
        self.codes: np.ndarray = np.array(
            [codes for _, codes in encoded], dtype=np.min_scalar_type(max(widest - 1, 0))
        )

    @property
    def schema(self) -> TableSchema:
        return TableSchema(tuple(self.names), tuple(self.kinds), self.label)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[1]

    def encoded(self, name: str) -> tuple[tuple, np.ndarray]:
        """One column's levels and its code per row."""
        j = self.names.index(name)
        return self.levels[j], self.codes[j]

    def column(self, name: str) -> list:
        levels, codes = self.encoded(name)
        return [levels[c] for c in codes.tolist()]

    @property
    def rows(self) -> list[list]:
        return [list(row) for row in zip(*(self.column(n) for n in self.names))]

    def subset(self, indices: Sequence[int] | np.ndarray) -> "RawTable":
        out = copy.copy(self)
        out.names, out.kinds = list(self.names), list(self.kinds)
        # row-major like the constructor's, so each column's codes stay contiguous
        out.codes = np.take(self.codes, np.asarray(indices, dtype=np.intp), axis=1)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RawTable):
            return NotImplemented
        return (self.names, self.kinds, self.label, self.rows) == (
            other.names, other.kinds, other.label, other.rows
        )

    def __repr__(self) -> str:
        return (
            f"RawTable(names={self.names!r}, kinds={self.kinds!r}, "
            f"n_rows={self.n_rows}, label={self.label!r})"
        )


def _encode(cells: Sequence) -> tuple[tuple, list[int]]:
    """The distinct cells in order of first appearance, and a code per cell."""
    index: dict[tuple[type, str], int] = {}
    levels = []
    codes = []
    for cell in cells:
        key = (type(cell), str(cell))
        code = index.get(key)
        if code is None:
            code = index[key] = len(levels)
            levels.append(cell)
        codes.append(code)
    return tuple(levels), codes


def _convert_levels(levels: tuple, codes: np.ndarray,
                    convert: Callable[[object, int], object], dtype) -> np.ndarray:
    """``convert(cell, row)`` applied to every level, with ``row`` -1.

    A level whose conversion raises :class:`DataError` gets a zero; if a
    row holds such a level, the conversion is repeated for the first such
    row, so the error names that row and its cell.  Levels no row holds
    never raise.
    """
    out = np.zeros(len(levels), dtype=dtype)
    bad = np.zeros(len(levels), dtype=bool)
    for k, cell in enumerate(levels):
        try:
            out[k] = convert(cell, -1)
        except DataError:
            bad[k] = True
    if bad.any():
        hit = gather_bits(bad, codes)
        if hit.any():
            row = int(np.argmax(hit))
            convert(levels[codes[row]], row)
    return out


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
    """The label column as bools, each label level parsed once."""
    levels, codes = table.encoded(table.label)
    parsed = _convert_levels(levels, codes, lambda cell, row: parse_label_value(cell), bool)
    return gather_bits(parsed, codes)


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


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_KEYWORDS = ("AND", "OR", "NOT", "FALSE")  # the rule grammar's, in any case


def _quote(text: str, reserved: tuple[str, ...] = ()) -> str:
    """``text`` bare if it is an identifier not in ``reserved`` (in any
    case), else as a quoted string of the rule grammar."""
    if _IDENT_RE.match(text) and text.upper() not in reserved:
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_value(value) -> str:
    return repr(value) if isinstance(value, float) else _quote(str(value))


@dataclass(frozen=True, eq=False)
class Literal:
    """One condition on one raw feature: a binary column, or a rule's literal.

    ``op`` is one of ``==``/``!=`` (categorical value, compared as text) or
    ``<=``/``>`` (numeric threshold).  Literals are equal, and hash alike,
    when feature, operator and value text agree (a threshold's text at 12
    significant digits, made once with the literal), so a literal is the
    condition wherever conditions are compared: binding a rule to columns,
    template distance, rule similarity.  :meth:`render` quotes a feature
    name that is no plain identifier or is a keyword, so the text parses back.
    """

    feature: str
    op: str
    value: object
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        value = self.value
        if isinstance(value, float):
            # rounded to 12 significant digits, so 0.1 + 0.2 and 0.3 share a
            # key while 1.0 and 1.000000001 do not
            value = float(f"{value:.12g}")
        object.__setattr__(self, "_key", (self.feature, self.op, str(value)))

    def __eq__(self, other):
        return isinstance(other, Literal) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def sort_key(self) -> tuple:
        return (self.feature, self.op, str(self.value))

    def render(self) -> str:
        return f"{_quote(self.feature, _KEYWORDS)} {self.op} {_render_value(self.value)}"


def feature_values(raw: RawTable, feature: str, numeric: bool) -> np.ndarray:
    """One feature's levels as an array: floats if ``numeric``, else their text.

    Index the result with the feature's codes for per-row values.  A
    non-numeric or non-finite cell raises, naming the first row that holds
    one; levels no row holds never do.
    """
    levels, codes = raw.encoded(feature)
    if numeric:
        try:
            values = np.fromiter(map(float, levels), float, len(levels))
        except (TypeError, ValueError):
            pass  # the per-level path below names the first row holding the cell
        else:
            if np.isfinite(values).all():
                return values
        return _convert_levels(
            levels, codes, lambda cell, row: _as_float(cell, feature, row), float
        )
    return np.array([str(c) for c in levels], dtype=str)


def gather_bits(
    level_bits: np.ndarray, codes: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``level_bits[codes]``: one bit per level, spread to the rows by code.

    A condition true on exactly one level is the rows whose code equals
    that level, and one false on exactly one level the rows whose code
    differs; both compare the narrow codes instead of gathering.  Any other
    pattern is gathered.  The level is compared as a Python ``int``, so the
    comparison stays in the codes' dtype.
    """
    true = np.flatnonzero(level_bits)
    if true.size == 1:
        return np.equal(codes, int(true[0]), out=out)
    false = np.flatnonzero(~level_bits)
    if false.size == 1:
        return np.not_equal(codes, int(false[0]), out=out)
    return np.take(level_bits, codes, out=out)


def cover(matrix: np.ndarray, cols: Sequence) -> np.ndarray:
    """Rows of a bit matrix whose columns ``cols`` (one or more) are all set.

    The cover of the conjunction of those columns: their bitwise AND, so
    ``matrix`` may hold a bool per row or 64 rows per word (see
    :func:`pack_bits`).  Reads one column of ``matrix`` per literal, so a
    column-major matrix reads contiguous memory.
    """
    out = matrix[:, cols[0]].copy()
    for j in cols[1:]:
        out &= matrix[:, j]
    return out


# A matrix with more rows than this packs column by column, reading each
# column where it lies; a smaller one packs in one call on a copy of the
# columns, which costs less than a call per column.
PACK_BY_COLUMN_ROWS = 1 << 15


def pack_bits(matrix: np.ndarray, cols: Sequence[int]) -> np.ndarray:
    """Columns ``cols`` of a bool matrix as 64-row words: a row of words each.

    ``uint64`` of shape ``(len(cols), ceil(rows / 64))``.  Byte ``b`` of a
    column's words holds rows ``8b`` to ``8b + 7``, lowest bit first, so on
    a little-endian machine row ``i`` is bit ``i % 64`` of word ``i // 64``.
    The bits past the last row are zero.
    """
    n = matrix.shape[0]
    out = np.zeros((len(cols), -(-n // 64)), dtype=np.uint64)
    octets = out.view(np.uint8)
    filled = -(-n // 8)
    if n > PACK_BY_COLUMN_ROWS:
        for k, j in enumerate(cols):
            octets[k, :filled] = np.packbits(matrix[:, j], bitorder="little")
    else:
        octets[:, :filled] = np.packbits(
            matrix.T.take(cols, axis=0), axis=1, bitorder="little"
        )
    return out


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` rows of one column of :func:`pack_bits` words, a bool each."""
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little").view(bool)


@dataclass(frozen=True)
class BinaryDataset:
    """Binarized samples: column conditions, bit matrix, labels, P/Z split."""

    columns: tuple[Literal, ...]
    matrix: np.ndarray  # bool, shape (n, len(columns))
    labels: np.ndarray  # bool, shape (n,)
    raw: RawTable | None = None

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.columns):
            raise DataError("matrix width does not match the column count")
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
        idx = np.asarray(indices, dtype=np.intp)
        raw = self.raw.subset(idx) if self.raw is not None else None
        return BinaryDataset(self.columns, self.matrix[idx], self.labels[idx], raw)

    def verify_against_raw(self) -> bool:
        """Full-matrix audit: every bit equals its condition on the raw cell."""
        if self.raw is None:
            raise DataError("no raw table attached")
        return np.array_equal(column_block(self.raw, self.columns), self.matrix)


def quantile_thresholds(values: np.ndarray, bins: int) -> list[float]:
    """Thresholds at midpoints between adjacent distinct values at quantile cuts.

    Yields at most ``bins - 1`` strictly increasing thresholds, each lying
    strictly between two observed values.  Constant columns yield none.
    """
    if bins < 2:
        raise DataError("bins must be >= 2")
    ordered = np.sort(values)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    if distinct.size < 2:
        return []
    cuts = np.quantile(values, np.arange(1, bins) / bins, method="lower")
    # a cut is an observed value: distinct[above - 1] is the cut, distinct[above]
    # the next value up, if there is one
    above = np.searchsorted(distinct, cuts, side="right")
    above = above[above < distinct.size]
    return sorted(set(((distinct[above - 1] + distinct[above]) / 2.0).tolist()))


def binarize(raw: RawTable, bins: int = 10) -> BinaryDataset:
    """Binarize a raw table into a :class:`BinaryDataset`.

    Categorical features with v distinct values expand into v equality
    columns, then v ``!=`` columns.  Numeric features expand into ``<= t``
    / ``> t`` pairs at quantile thresholds.  Constant features contribute
    nothing; a table with no usable feature raises.  The bits come from
    :func:`column_block`, reusing the levels converted here.
    """
    if raw.n_rows == 0:
        raise DataError("empty table")
    if bins < 2:
        raise DataError("bins must be >= 2")

    columns: list[Literal] = []
    values: dict[tuple[str, bool], np.ndarray] = {}
    for name, kind in zip(raw.names, raw.kinds):
        if name == raw.label:
            continue
        numeric = kind == NUMERIC
        levels = values[name, numeric] = feature_values(raw, name, numeric)
        codes = raw.encoded(name)[1]
        if numeric:
            cuts = quantile_thresholds(levels[codes], bins)
            columns += [Literal(name, op, t) for t in cuts for op in (OP_LE, OP_GT)]
        else:
            present = np.bincount(codes, minlength=len(levels)) > 0
            distinct = sorted(set(levels[present].tolist()))
            ops = (OP_EQ, OP_NE) if len(distinct) > 1 else ()
            columns += [Literal(name, op, v) for op in ops for v in distinct]

    if not columns:
        raise DataError("no usable features")
    matrix = column_block(raw, columns, values)
    return BinaryDataset(tuple(columns), matrix, label_bools(raw), raw)


def column_block(
    raw: RawTable,
    columns: Sequence[Literal],
    values: dict[tuple[str, bool], np.ndarray] | None = None,
) -> np.ndarray:
    """Evaluate column conditions on the raw cells: a column-major bool block.

    Columns are taken a feature and kind at a time.  The feature's levels
    are converted once with :func:`feature_values`, or taken from
    ``values``, levels the caller already converted, keyed by ``(feature,
    numeric)``.  A ``<=`` or ``>`` column compares every level with its
    threshold and :func:`gather_bits` spreads the level bits to the rows.
    An ``==`` or ``!=`` column looks its text up among the level texts:
    held by one level, the column is one comparison of the codes with that
    level; held by none, it is constant; held by several, their bits are
    gathered.
    """
    groups: dict[tuple[str, bool], list[int]] = {}
    for j, lit in enumerate(columns):
        groups.setdefault((lit.feature, lit.op in (OP_LE, OP_GT)), []).append(j)
    values = values or {}
    block = np.empty((raw.n_rows, len(columns)), dtype=bool, order="F")
    for (feature, numeric), group in groups.items():
        if feature == raw.label or feature not in raw.names:
            raise DataError(f"data has no feature {feature!r}")
        levels = values.get((feature, numeric))
        if levels is None:
            levels = feature_values(raw, feature, numeric)
        codes = raw.encoded(feature)[1]
        if numeric:
            for j in group:
                lit = columns[j]
                bits = levels <= lit.value if lit.op == OP_LE else levels > lit.value
                gather_bits(bits, codes, out=block[:, j])
            continue
        level_of: dict[str, int] = {}  # a text's level; -1 if several hold it
        for k, text in enumerate(levels.tolist()):
            level_of[text] = -1 if text in level_of else k
        for j in group:
            lit = columns[j]
            if lit.op not in (OP_EQ, OP_NE):
                raise DataError(f"unknown column operator {lit.op!r}")
            text = str(lit.value)
            k = level_of.get(text)
            if k is None:
                block[:, j] = lit.op == OP_NE
            elif k >= 0:
                compare = np.equal if lit.op == OP_EQ else np.not_equal
                compare(codes, k, out=block[:, j])
            else:
                bits = levels == text
                gather_bits(bits if lit.op == OP_EQ else ~bits, codes, out=block[:, j])
    return block


def apply_columns(raw: RawTable, columns: Sequence[Literal]) -> BinaryDataset:
    """Binarize new raw data against an existing column vocabulary."""
    if raw.n_rows == 0:
        raise DataError("empty table")
    labels = label_bools(raw)
    return BinaryDataset(tuple(columns), column_block(raw, columns), labels, raw)


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
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep every board seen alive
    # until the cyclic garbage collector next runs
    stack = [(("b",) * 9, "x")]
    while stack:
        board, player = stack.pop()
        if board in seen:
            continue
        seen.add(board)
        if _line_winner(board) is not None or "b" not in board:
            finals.add(board)
            continue
        nxt = "o" if player == "x" else "x"
        for i, cell in enumerate(board):
            if cell == "b":
                stack.append((board[:i] + (player,) + board[i + 1 :], nxt))

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
