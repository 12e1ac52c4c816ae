"""Parsing, printing, and dataset binding for DNF rules.

Rules are written as OR-of-ANDs over feature conditions::

    cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x
    OR (age > 52.0 AND income <= 3.5e4)

Grammar (keywords case-insensitive, feature names case-sensitive,
``#`` starts a line comment)::

    ruleset  := clause { "OR" clause }
    clause   := [ "(" ] literal { "AND" literal } [ ")" ]
    literal  := [ "NOT" ] feature op value
    feature  := ident | quoted-string
    op       := "<=" | "<" | ">=" | ">" | "==" | "!="
    value    := number | ident | quoted-string

:func:`print_rules` quotes a feature name that is no plain identifier or
is a keyword; in a quoted string a backslash escapes ``"`` and ``\\``.

Literals normalize onto four condition kinds: ``==`` / ``!=`` for
categorical values and ``<=`` / ``>`` for numeric thresholds.  ``NOT``
flips within each pair, so double negation collapses.  ``<`` is absorbed
into ``<=`` and ``>=`` into ``>``; the strict/non-strict distinction only
matters when a cell equals a threshold exactly, which binning thresholds
(midpoints between observed values) never do.  A number after ``==`` or
``!=`` keeps the text written, since categorical cells are compared as
text; a threshold after ``<=``, ``<``, ``>=`` or ``>`` is a float.

A partial template is written and parsed as a rule: a conjunction that
stands for every conjunction containing it.

Binding resolves each literal to a column of a :class:`BinaryDataset`.
Literals with no exact counterpart, such as thresholds binning never made,
get columns synthesized from the raw cells, so human-provided cut points
are honored exactly rather than snapped to the nearest bin.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    OP_EQ,
    OP_GT,
    OP_LE,
    OP_NE,
    BinaryDataset,
    Literal,
    column_block,
    cover,
    pack_bits,
    unpack_bits,
)


class RuleError(ValueError):
    """Base class for rule parsing and binding problems."""


class RuleSyntaxError(RuleError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ContradictionError(RuleError):
    """Two literals on one feature can never hold together."""


class UnknownFeatureError(RuleError):
    """A literal names a feature absent from the data schema."""


class BindingWarning(UserWarning):
    """Non-fatal binding oddity, e.g. a never-observed category."""


_NEGATE = {OP_EQ: OP_NE, OP_NE: OP_EQ, OP_LE: OP_GT, OP_GT: OP_LE}
_OP_ALIASES = {"<": OP_LE, ">=": OP_GT, "==": OP_EQ, "!=": OP_NE, "<=": OP_LE, ">": OP_GT}


@dataclass(frozen=True)
class Conjunction:
    """An AND of literals; complexity is the literal count (its degree)."""

    literals: frozenset[Literal]

    def __post_init__(self):
        if not self.literals:
            raise RuleError("a conjunction needs at least one literal")
        by_feature: dict[str, list[Literal]] = {}
        for lit in self.literals:
            by_feature.setdefault(lit.feature, []).append(lit)
        for feature, lits in by_feature.items():
            eqs = {str(l.value) for l in lits if l.op == OP_EQ}
            nes = {str(l.value) for l in lits if l.op == OP_NE}
            if len(eqs) > 1:
                raise ContradictionError(
                    f"{feature}: cannot equal {sorted(eqs)} simultaneously"
                )
            if eqs & nes:
                raise ContradictionError(
                    f"{feature}: == and != on value {sorted(eqs & nes)[0]!r}"
                )
            les = [l.value for l in lits if l.op == OP_LE]
            gts = [l.value for l in lits if l.op == OP_GT]
            if les and gts and max(gts) >= min(les):
                raise ContradictionError(
                    f"{feature}: empty interval > {max(gts)} and <= {min(les)}"
                )

    @property
    def complexity(self) -> int:
        return len(self.literals)

    def sorted_literals(self) -> list[Literal]:
        return sorted(self.literals, key=Literal.sort_key)

    def render(self) -> str:
        parts = [lit.render() for lit in self.sorted_literals()]
        body = " AND ".join(parts)
        return f"({body})" if len(parts) > 1 else body


@dataclass(frozen=True)
class RuleSet:
    """An OR of conjunctions (a DNF model)."""

    conjunctions: tuple[Conjunction, ...]

    @property
    def total_complexity(self) -> int:
        return sum(c.complexity for c in self.conjunctions)

    def __len__(self):
        return len(self.conjunctions)


def make_ruleset(conjunctions: Iterable[Conjunction]) -> RuleSet:
    """Build a RuleSet, dropping duplicate conjunctions (first wins)."""
    seen: set[frozenset[Literal]] = set()
    kept = []
    for conj in conjunctions:
        if conj.literals not in seen:
            seen.add(conj.literals)
            kept.append(conj)
    return RuleSet(tuple(kept))


# --- lexer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<op><=|>=|==|!=|<|>)
  | (?P<number>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(?![A-Za-z_]))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<lparen>\()
  | (?P<rparen>\))
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
            # a quoted string may hold newlines of its own
            if "\n" in m.group():
                line += m.group().count("\n")
                line_start = m.start() + m.group().rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        raise RuleSyntaxError(message, tok.line, tok.column)

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text.upper() == word

    def string(self) -> str:
        """The text of the quoted string token next, unescaped."""
        return self.next().text[1:-1].replace('\\"', '"').replace("\\\\", "\\")

    def parse_clauses(self) -> list[frozenset[Literal]]:
        if self.peek().kind == "eof":
            return []
        if self.at_keyword("FALSE"):
            self.next()
            if self.peek().kind != "eof":
                self.error("FALSE stands alone for the empty rule set")
            return []
        clauses = [self.clause()]
        while self.at_keyword("OR"):
            self.next()
            clauses.append(self.clause())
        if self.peek().kind != "eof":
            self.error(f"expected OR or end of input, found {self.peek().text!r}")
        return clauses

    def clause(self) -> frozenset[Literal]:
        parenthesized = False
        if self.peek().kind == "lparen":
            self.next()
            parenthesized = True
        literals = [self.literal()]
        while self.at_keyword("AND"):
            self.next()
            literals.append(self.literal())
        if parenthesized:
            if self.peek().kind != "rparen":
                self.error("expected ')'")
            self.next()
        return frozenset(literals)

    def literal(self) -> Literal:
        flip = False
        while self.at_keyword("NOT"):
            self.next()
            flip = not flip
        tok = self.peek()
        if tok.kind == "ident":
            feature = self.next().text
        elif tok.kind == "string":
            feature = self.string()
        else:
            self.error(f"expected feature name, found {tok.text!r}")
        tok = self.peek()
        if tok.kind != "op":
            if tok.kind == "ident":
                self.error(f"unknown operator {tok.text!r}")
            self.error(f"expected comparison operator, found {tok.text!r}")
        op_text = self.next().text
        op = _OP_ALIASES[op_text]
        tok = self.peek()
        if tok.kind == "number":
            text = self.next().text
            value: object = float(text) if op in (OP_LE, OP_GT) else text
        elif tok.kind == "ident":
            value = self.next().text
        elif tok.kind == "string":
            value = self.string()
        else:
            self.error(f"expected value, found {tok.text!r}")
        if op in (OP_LE, OP_GT) and not isinstance(value, float):
            self.error(f"operator {op_text!r} needs a numeric threshold")
        return Literal(feature, _NEGATE[op] if flip else op, value)


def parse_rules(text: str) -> RuleSet:
    """Parse DNF rule text, or partial templates, into a RuleSet."""
    return make_ruleset(Conjunction(lits) for lits in _Parser(text).parse_clauses())


def print_rules(rule_set: RuleSet) -> str:
    """Render a RuleSet so that parsing the output reproduces it."""
    if not rule_set.conjunctions:
        return "FALSE"
    return " OR ".join(c.render() for c in rule_set.conjunctions)


# --- binding to a BinaryDataset -------------------------------------------


@dataclass(frozen=True)
class BoundRuleSet:
    """A RuleSet resolved to column indices of one dataset vocabulary.

    At construction it notes the columns the conjunctions read and, per
    literal position, each conjunction's column among them.  A conjunction
    repeats its first column past its degree.  Every conjunction reads at
    least one column; the rule set may hold none.
    """

    column_sets: tuple[frozenset[int], ...]
    n_columns: int
    _used: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(self.column_sets):
            raise RuleError("a bound conjunction needs at least one column")
        used = sorted(set().union(*self.column_sets))
        at = {j: k for k, j in enumerate(used)}
        degree = max([len(cols) for cols in self.column_sets] + [1])
        positions = np.empty((degree, len(self.column_sets)), dtype=np.intp)
        for k, cols in enumerate(self.column_sets):
            ks = [at[j] for j in sorted(cols)]
            positions[:, k] = ks + ks[:1] * (degree - len(ks))
        object.__setattr__(self, "_used", np.array(used, dtype=np.intp))
        object.__setattr__(self, "_positions", positions)

    def covers(self, matrix: np.ndarray) -> np.ndarray:
        """Who satisfies what, packed: a row of 64-row words per conjunction.

        ``uint64`` of shape ``(conjunctions, ceil(rows / 64))``, laid out as
        :func:`~corules.dataset.pack_bits` lays out a column: row ``i`` is
        bit ``i % 64`` of word ``i // 64`` (on a little-endian machine), and
        the bits past the last row are zero.  Each column the rule set reads
        is packed once; the packed columns are gathered by literal position,
        and :func:`~corules.dataset.cover` ANDs the positions, every
        conjunction at once.  Count with ``np.bitwise_count``; unpack with
        :func:`~corules.dataset.unpack_bits`.
        """
        if matrix.shape[1] < self.n_columns:
            raise RuleError(
                f"sample has {matrix.shape[1]} columns, rule set is bound to "
                f"{self.n_columns}"
            )
        words = pack_bits(matrix, self._used)
        degree, conjunctions = self._positions.shape
        literals = words.take(self._positions, axis=0)
        covered = cover(literals.reshape(degree, -1).T, range(degree))
        return covered.reshape(conjunctions, words.shape[1])

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        """Whether any conjunction covers each row: a bool per row."""
        covered = np.bitwise_or.reduce(self.covers(matrix), axis=0)
        return unpack_bits(covered, matrix.shape[0])


def bind(
    rule_set: RuleSet, dataset: BinaryDataset
) -> tuple[BoundRuleSet, BinaryDataset]:
    """Resolve every literal to a column index, synthesizing columns at need.

    Every literal is resolved, in rule order, before any column is built.
    Those that match no column get new columns, numbered in order of first
    appearance and computed by one :func:`~corules.dataset.column_block`
    call.  Returns the bound rule set together with the (possibly extended)
    dataset.  Binding is stable: a literal that already matches a column,
    including one synthesized by an earlier bind, never adds another.
    """
    index = {lit: j for j, lit in enumerate(dataset.columns)}
    new: list[Literal] = []
    raw = dataset.raw
    feature_kinds = None if raw is None else {
        name: kind for name, kind in zip(raw.names, raw.kinds) if name != raw.label
    }

    def resolve(lit: Literal) -> int:
        if lit in index:
            return index[lit]
        if feature_kinds is None:
            raise UnknownFeatureError(
                f"no column matches {lit.render()!r} and no raw table to synthesize from"
            )
        if lit.feature not in feature_kinds:
            raise UnknownFeatureError(f"unknown feature {lit.feature!r}")
        kind = feature_kinds[lit.feature]
        if lit.op in (OP_LE, OP_GT) and kind != NUMERIC:
            raise RuleError(
                f"threshold literal {lit.render()!r} on categorical feature"
            )
        if lit.op in (OP_EQ, OP_NE) and kind != CATEGORICAL:
            raise RuleError(f"equality literal {lit.render()!r} on numeric feature")
        new.append(lit)
        index[lit] = j = dataset.n_columns + len(new) - 1
        return j

    column_sets = tuple(
        frozenset(resolve(lit) for lit in conj.sorted_literals())
        for conj in rule_set.conjunctions
    )
    if new:
        block = column_block(raw, new)
        for lit, bits in zip(new, block.T):
            if lit.op == OP_EQ and not bits.any():
                warnings.warn(
                    f"category {lit.value!r} never observed for {lit.feature!r}; "
                    "column is constant false", BindingWarning, stacklevel=2,
                )
        matrix = np.hstack([dataset.matrix, block])
        dataset = BinaryDataset(dataset.columns + tuple(new), matrix, dataset.labels, raw)
    return BoundRuleSet(column_sets, dataset.n_columns), dataset
