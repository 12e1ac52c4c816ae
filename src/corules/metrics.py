"""Model evaluation: accuracy, Hamming loss, and rule-set similarity.

Hamming loss counts, per sample, how many conjunctions would have to be
added or removed to classify it correctly: an uncovered positive costs one,
and a covered negative costs one per selected conjunction covering it.
Both it and accuracy are counted on packed words: the rule set's
:meth:`~corules.ruledsl.BoundRuleSet.covers` (64 rows a word) and the
labels packed alike, with ``np.bitwise_count``, so nothing is unpacked.
:func:`hamming_and_accuracy` gives both figures from one cover.

Rule-set similarity pairs up conjunctions across two rule sets by solving
an assignment problem over pairwise Jaccard scores, then divides the best
total by the larger set size, giving 1.0 for semantically identical sets
and 0.0 for sets sharing no literal.  The assignment is scipy's
``linear_sum_assignment``, which ``solver`` loads from its compiled module
on the first similarity computed, so that ``scipy.optimize`` is never
imported and accuracy and Hamming loss load no part of scipy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Sequence

import numpy as np

from .dataset import BinaryDataset, Literal, pack_bits
from .ruledsl import BoundRuleSet, RuleSet, bind
from .solver import linear_sum_assignment


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
        return rule_set, dataset
    return bind(rule_set, dataset)


def hamming_and_accuracy(
    rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset
) -> tuple[int, float]:
    """Hamming loss and accuracy, counted on one :meth:`BoundRuleSet.covers`."""
    if dataset.n == 0:
        raise ValueError("empty dataset")
    bound, ds = _ensure_bound(rule_set, dataset)
    covers = bound.covers(ds.matrix)
    labels = pack_bits(dataset.labels[:, None], [0])[0]
    covered = np.bitwise_or.reduce(covers, axis=0)
    # one row of words per count: each conjunction's hits on negatives (~labels
    # sets the bits past the last row, which no cover has), the wrong rows,
    # and the misses, which are positives no conjunction covers
    counted = np.empty((len(covers) + 2, covers.shape[1]), dtype=np.uint64)
    np.bitwise_and(covers, ~labels, out=counted[:-2])
    np.bitwise_xor(covered, labels, out=counted[-2])
    np.bitwise_and(labels, ~covered, out=counted[-1])
    *false_alarms, errors, misses = np.bitwise_count(counted).sum(axis=1).tolist()
    return sum(false_alarms) + misses, (dataset.n - errors) / dataset.n


def hamming_loss(rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset) -> int:
    """Uncovered positives plus per-conjunction hits on negatives."""
    return hamming_and_accuracy(rule_set, dataset)[0]


def accuracy(rule_set: RuleSet | BoundRuleSet, dataset: BinaryDataset) -> float:
    return hamming_and_accuracy(rule_set, dataset)[1]


def similarity_matrix(a: RuleSet, b: RuleSet) -> np.ndarray:
    """The Jaccard overlap of the literal sets of every pair of conjunctions,
    1.0 iff the two are identical."""
    out = np.zeros((len(a), len(b)))
    for i, ca in enumerate(a.conjunctions):
        for j, cb in enumerate(b.conjunctions):
            out[i, j] = len(ca.literals & cb.literals) / len(ca.literals | cb.literals)
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


def template_distance(
    literals: AbstractSet[Literal], templates: Sequence[AbstractSet[Literal]]
) -> float:
    """How far a set of literals is from the nearest template's literals.

    Against one template the distance is one minus the share of its
    literals that ``literals`` holds: zero iff ``literals`` contains every
    literal of some template, one when it shares none with any of them.
    Literals compare as conditions, so two columns that test one condition
    count once.
    """
    if not templates:
        raise ValueError("template set is empty")
    return min(1.0 - len(literals & t) / len(t) for t in templates)
