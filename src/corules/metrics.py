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

from .dataset import BinaryDataset, pack_bits
from .ruledsl import BoundRuleSet, Conjunction, RuleSet, bind
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


def _jaccard(ka: AbstractSet[tuple], kb: AbstractSet[tuple]) -> float:
    return len(ka & kb) / len(ka | kb)


def conjunction_similarity(a: Conjunction, b: Conjunction) -> float:
    """Jaccard overlap of the two literal sets (1.0 iff identical)."""
    return _jaccard(a.keys(), b.keys())


def similarity_matrix(a: RuleSet, b: RuleSet) -> np.ndarray:
    """:func:`conjunction_similarity` of every pair, each side's keys built once."""
    keys_a = [c.keys() for c in a.conjunctions]
    keys_b = [c.keys() for c in b.conjunctions]
    out = np.zeros((len(a), len(b)))
    for i, ka in enumerate(keys_a):
        for j, kb in enumerate(keys_b):
            out[i, j] = _jaccard(ka, kb)
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
