"""Model evaluation: accuracy, Hamming loss, and rule-set similarity.

Hamming loss counts, per sample, how many conjunctions would have to be
added or removed to classify it correctly: an uncovered positive costs one,
and a covered negative costs one per selected conjunction covering it.

Rule-set similarity pairs up conjunctions across two rule sets by solving
an assignment problem over pairwise Jaccard scores, then divides the best
total by the larger set size, giving 1.0 for semantically identical sets
and 0.0 for sets sharing no literal.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .dataset import BinaryDataset
from .ruledsl import BoundRuleSet, Conjunction, RuleError, RuleSet, Template, bind


@dataclass(frozen=True)
class EvalReport:
    fold: int
    accuracy: float
    hamming_loss: int
    complexity: int
    similarity: float | None = None

    def rows(self) -> list[tuple]:
        out = [
            (self.fold, "accuracy", self.accuracy),
            (self.fold, "hamming_loss", self.hamming_loss),
            (self.fold, "complexity", self.complexity),
        ]
        if self.similarity is not None:
            out.append((self.fold, "similarity", self.similarity))
        return out


def write_reports_csv(reports: Sequence[EvalReport], path: str | Path):
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "metric", "value"])
        for rep in reports:
            writer.writerows(rep.rows())


def _ensure_bound(
    rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset
) -> tuple[BoundRuleSet, BinaryDataset]:
    if isinstance(rule_set, BoundRuleSet):
        if rule_set.n_columns > dataset.n_columns:
            raise RuleError(
                "rule set is bound to a wider column vocabulary than the data"
            )
        return rule_set, dataset
    return bind(rule_set, dataset)


def coverage_counts(
    rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset
) -> np.ndarray:
    """Per sample, how many conjunctions cover it."""
    bound, ds = _ensure_bound(rule_set, dataset)
    return bound.covers(ds.matrix).sum(axis=1)


def hamming_loss(rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset) -> int:
    """Uncovered positives plus per-conjunction hits on negatives."""
    counts = coverage_counts(rule_set, dataset)
    labels = dataset.labels
    false_negatives = int(np.count_nonzero(labels & (counts == 0)))
    false_positive_units = int(counts[~labels].sum())
    return false_negatives + false_positive_units


def accuracy(rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset) -> float:
    if dataset.n == 0:
        raise ValueError("empty dataset")
    preds = coverage_counts(rule_set, dataset) > 0
    return float(np.mean(preds == dataset.labels))


def conjunction_similarity(a: Conjunction, b: Conjunction) -> float:
    """Jaccard overlap of the two literal sets (1.0 iff identical)."""
    ka = {lit.key() for lit in a.literals}
    kb = {lit.key() for lit in b.literals}
    union = ka | kb
    return len(ka & kb) / len(union)


def similarity_matrix(a: RuleSet, b: RuleSet) -> np.ndarray:
    out = np.zeros((len(a), len(b)))
    for i, ca in enumerate(a.conjunctions):
        for j, cb in enumerate(b.conjunctions):
            out[i, j] = conjunction_similarity(ca, cb)
    return out


def ruleset_similarity(a: RuleSet, b: RuleSet) -> float:
    """Least-cost one-to-one mapping between the two sets, scaled to [0, 1].

    Symmetric; 1.0 iff the sets are identical conjunction-for-conjunction,
    0.0 when no literal is shared (or exactly one side is empty).
    """
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    sims = similarity_matrix(a, b)
    rows, cols = linear_sum_assignment(sims, maximize=True)
    return float(sims[rows, cols].sum() / max(len(a), len(b)))


def key_distance(
    keys: AbstractSet[tuple], template_keys: Sequence[AbstractSet[tuple]]
) -> float:
    """How far a set of condition keys is from the nearest template's keys.

    Against one template the distance is one minus the share of its keys
    that ``keys`` holds: zero iff ``keys`` contains every key of some
    template, one when it shares no key with any of them.  Keys, not
    columns, are compared, so two columns with one key count once.
    """
    if not template_keys:
        raise ValueError("template set is empty")
    return min(1.0 - len(keys & tk) / len(tk) for tk in template_keys)


def template_distance(k: Conjunction, templates: Sequence[Template]) -> float:
    """:func:`key_distance` of a conjunction's literals to the templates."""
    return key_distance(
        {lit.key() for lit in k.literals}, [t.keys() for t in templates]
    )
