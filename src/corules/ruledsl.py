"""Parsing, printing, and dataset binding for DNF rules.

Rules are written as OR-of-ANDs over feature conditions::

    cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x
    OR (age > 52.0 AND income <= 3.5e4)

Grammar (keywords case-insensitive, feature names case-sensitive,
``#`` starts a line comment)::

    ruleset  := clause { "OR" clause }
    clause   := [ "(" ] literal { "AND" literal } [ ")" ]
    literal  := [ "NOT" ] ident op value
    op       := "<=" | "<" | ">=" | ">" | "==" | "!="
    value    := number | ident | quoted-string

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
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .dataset import (
    CATEGORICAL,
    NUMERIC,
    OP_EQ,
    OP_GT,
    OP_LE,
    OP_NE,
    ORIGIN_SYNTHESIZED,
    BinaryDataset,
    ColumnMeta,
    column_block,
    condition_key,
    cover,
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


@dataclass(frozen=True, eq=False)
class Literal:
    """One condition on one feature, in one of the four kinds above."""

    feature: str
    op: str  # "==", "!=", "<=", ">"
    value: object

    def key(self) -> tuple:
        return condition_key(self.feature, self.op, self.value)

    def __eq__(self, other):
        return isinstance(other, Literal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def sort_key(self) -> tuple:
        return (self.feature, self.op, str(self.value))

    def render(self) -> str:
        return f"{self.feature} {self.op} {_render_value(self.value)}"


_NEGATE = {OP_EQ: OP_NE, OP_NE: OP_EQ, OP_LE: OP_GT, OP_GT: OP_LE}
_OP_ALIASES = {"<": OP_LE, ">=": OP_GT, "==": OP_EQ, "!=": OP_NE, "<=": OP_LE, ">": OP_GT}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _render_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if _IDENT_RE.match(text):
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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

    def keys(self) -> frozenset[tuple]:
        """The condition keys of the literals."""
        return frozenset(lit.key() for lit in self.literals)

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
        if tok.kind != "ident":
            self.error(f"expected feature name, found {tok.text!r}")
        feature = self.next().text
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
            raw = self.next().text[1:-1]
            value = raw.replace('\\"', '"').replace("\\\\", "\\")
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
    """A RuleSet resolved to column indices of one dataset vocabulary."""

    column_sets: tuple[frozenset[int], ...]
    n_columns: int

    def covers(self, matrix: np.ndarray) -> np.ndarray:
        """Bool matrix (n_samples, n_conjunctions): who satisfies what.

        Column-major, so a reduction over the conjunctions (``axis=1``)
        reads each conjunction's cover contiguously.
        """
        if matrix.shape[1] < self.n_columns:
            raise RuleError(
                f"sample has {matrix.shape[1]} columns, rule set is bound to "
                f"{self.n_columns}"
            )
        out = np.empty((matrix.shape[0], len(self.column_sets)), dtype=bool, order="F")
        for k, cols in enumerate(self.column_sets):
            cover(matrix, cols, out=out[:, k])
        return out

    def predict(self, matrix: np.ndarray) -> np.ndarray:
        return self.covers(matrix).any(axis=1)


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
    by_key = {meta.key(): j for j, meta in enumerate(dataset.columns)}
    new: list[ColumnMeta] = []
    raw = dataset.raw
    feature_kinds = None if raw is None else {
        name: kind for name, kind in zip(raw.names, raw.kinds) if name != raw.label
    }

    def resolve(lit: Literal) -> int:
        if lit.key() in by_key:
            return by_key[lit.key()]
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
        new.append(ColumnMeta(lit.feature, lit.op, lit.value, ORIGIN_SYNTHESIZED))
        by_key[lit.key()] = j = dataset.n_columns + len(new) - 1
        return j

    column_sets = tuple(
        frozenset(resolve(lit) for lit in conj.sorted_literals())
        for conj in rule_set.conjunctions
    )
    if new:
        block = column_block(raw, new)
        for meta, bits in zip(new, block.T):
            if meta.op == OP_EQ and not bits.any():
                warnings.warn(
                    f"category {meta.value!r} never observed for {meta.feature!r}; "
                    "column is constant false", BindingWarning, stacklevel=2,
                )
        matrix = np.hstack([dataset.matrix, block])
        dataset = BinaryDataset(dataset.columns + tuple(new), matrix, dataset.labels, raw)
    return BoundRuleSet(column_sets, dataset.n_columns), dataset
