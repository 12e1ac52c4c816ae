from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corules import dataset
from corules.dataset import BinaryDataset, binarize, generate_tictactoe, unpack_bits
from corules.metrics import (
    EvalReport,
    accuracy,
    hamming_and_accuracy,
    hamming_loss,
    ruleset_similarity,
    similarity_matrix,
    template_distance,
    write_reports_csv,
)
from corules.ruledsl import (
    BoundRuleSet,
    Conjunction,
    Literal,
    RuleError,
    RuleSet,
    make_ruleset,
    parse_rules,
)

from oracles import brute_force_matching_score, conjunction_cover
from test_ruledsl import EIGHT_RULES


@pytest.fixture(scope="module")
def ttt_dataset():
    return binarize(generate_tictactoe())


@pytest.fixture(scope="module")
def eight_rules():
    return parse_rules(EIGHT_RULES)


def tiny_dataset(matrix, labels):
    matrix = np.array(matrix, dtype=bool)
    cols = tuple(
        Literal(f"f{j}", "==", "a") for j in range(matrix.shape[1])
    )
    return BinaryDataset(cols, matrix, np.array(labels, dtype=bool))


def conj(*names):
    return Conjunction(frozenset(Literal(n, "==", "a") for n in names))


class TestHammingLoss:
    def test_empty_rule_set_counts_positives(self):
        ds = tiny_dataset(np.ones((7, 2)), [1, 1, 1, 1, 1, 0, 0])
        assert hamming_loss(RuleSet(()), ds) == 5

    def test_eight_rules_on_full_data(self, ttt_dataset, eight_rules):
        assert hamming_loss(eight_rules, ttt_dataset) == 0

    def test_negative_covered_twice_contributes_two(self):
        # one negative sample satisfied by two selected conjunctions
        ds = tiny_dataset([[1, 1]], [0])
        rs = make_ruleset(
            [
                Conjunction(frozenset({Literal("f0", "==", "a")})),
                Conjunction(frozenset({Literal("f1", "==", "a")})),
            ]
        )
        assert hamming_loss(rs, ds) == 2


def oracle_scores(matrix, labels, column_sets):
    """Hamming loss and accuracy recomputed cover by cover."""
    covers = [conjunction_cover(matrix, cols) for cols in column_sets]
    hamming = 0
    correct = 0
    for i, label in enumerate(labels):
        hits = sum(bool(c[i]) for c in covers)
        hamming += (hits == 0) if label else hits
        correct += (hits > 0) == label
    return hamming, correct / len(labels)


class TestScoresAgainstCoverOracle:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_matrices(self, data):
        n = data.draw(st.integers(1, 40))
        m = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        ds = tiny_dataset(rng.random((n, m)) < 0.6, rng.random(n) < 0.5)
        cols = st.frozensets(st.integers(0, m - 1), min_size=1, max_size=3)
        column_sets = tuple(data.draw(st.lists(cols, max_size=6)))
        bound = BoundRuleSet(column_sets, m)
        want_hamming, want_accuracy = oracle_scores(ds.matrix, ds.labels, column_sets)
        assert hamming_loss(bound, ds) == want_hamming
        assert accuracy(bound, ds) == want_accuracy

    def test_empty_rule_set(self):
        rng = np.random.default_rng(3)
        ds = tiny_dataset(rng.random((50, 4)) < 0.5, rng.random(50) < 0.3)
        bound = BoundRuleSet((), 4)
        want_hamming, want_accuracy = oracle_scores(ds.matrix, ds.labels, ())
        assert hamming_loss(bound, ds) == want_hamming == int(ds.labels.sum())
        assert accuracy(bound, ds) == want_accuracy

    def test_many_conjunctions_on_one_negative_row(self):
        # 300 conjunctions cover the negative row 0 and nothing else; a uint8
        # count would wrap to 44
        rng = np.random.default_rng(4)
        matrix = np.zeros((20, 8), dtype=bool)
        matrix[0] = True
        ds = tiny_dataset(matrix, np.zeros(20, dtype=bool))
        column_sets = tuple(
            frozenset(rng.choice(8, rng.integers(1, 4), replace=False).tolist())
            for _ in range(300)
        )
        bound = BoundRuleSet(column_sets, 8)
        assert oracle_scores(ds.matrix, ds.labels, column_sets) == (300, 19 / 20)
        assert hamming_loss(bound, ds) == 300
        assert accuracy(bound, ds) == 19 / 20

    def test_data_narrower_than_the_binding_is_rejected(self):
        ds = tiny_dataset(np.ones((5, 3), dtype=bool), np.ones(5, dtype=bool))
        bound = BoundRuleSet((frozenset({0}), frozenset({3})), 4)
        for score in (hamming_loss, accuracy):
            with pytest.raises(RuleError, match="3 columns"):
                score(bound, ds)


# row counts on either side of a byte and of a 64-row word
EDGE_ROWS = (1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200)


class TestPackedScoring:
    """Packed covers and the scores counted on them, against the bool oracle."""

    @given(st.data())
    @settings(deadline=None)
    def test_against_the_cover_oracle(self, data):
        n = data.draw(st.sampled_from(EDGE_ROWS) | st.integers(1, 200))
        m = data.draw(st.integers(1, 8))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        order = data.draw(st.sampled_from("CF"))
        ds = tiny_dataset(np.asarray(rng.random((n, m)) < 0.6, order=order), rng.random(n) < 0.5)
        matrix = ds.matrix
        assert matrix.flags[f"{order}_CONTIGUOUS"]
        column_sets = tuple(data.draw(
            st.lists(st.frozensets(st.integers(0, m - 1), min_size=1, max_size=3), max_size=6)
        ))
        bound = BoundRuleSet(column_sets, m)
        # a matrix of fewer rows than the threshold packs column by column too
        threshold = data.draw(st.sampled_from([dataset.PACK_BY_COLUMN_ROWS, 0]))
        with mock.patch.object(dataset, "PACK_BY_COLUMN_ROWS", threshold):
            covers = bound.covers(matrix)
            predicted = bound.predict(matrix)
            scores = hamming_and_accuracy(bound, ds)
            assert (hamming_loss(bound, ds), accuracy(bound, ds)) == scores

        want = [conjunction_cover(matrix, cols) for cols in column_sets]
        assert covers.dtype == np.uint64
        assert covers.shape == (len(column_sets), -(-n // 64))
        bits = np.unpackbits(covers.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, n:].any(), "a bit past the last row is set"
        for words, cover in zip(covers, want):
            assert np.array_equal(unpack_bits(words, n), cover)
        assert np.array_equal(predicted, np.any(want, axis=0) if want else np.zeros(n, bool))
        assert scores == oracle_scores(matrix, ds.labels, column_sets)

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_an_empty_column_set_covers_every_row(self, n):
        """An empty column set is rejected; a column true on every row covers every row.

        Binding no longer maps an empty column set to the all-ones cover: it
        raises.  The all-ones cover comes from a real column instead, and its
        packed words hold exactly ``n`` set bits, none past the last row.
        """
        with pytest.raises(RuleError, match="at least one column"):
            BoundRuleSet((frozenset({1}), frozenset()), 2)
        matrix = np.zeros((n, 2), dtype=bool)
        matrix[:, 0] = True
        bound = BoundRuleSet((frozenset({0}), frozenset({1})), 2)
        covers = bound.covers(matrix)
        assert np.array_equal(unpack_bits(covers[0], n), np.ones(n, bool))
        assert not unpack_bits(covers[1], n).any()
        assert int(np.bitwise_count(covers).sum()) == n
        assert bound.predict(matrix).all()

    @pytest.mark.parametrize("n", EDGE_ROWS)
    def test_the_empty_rule_set_covers_nothing(self, n):
        bound = BoundRuleSet((), 3)
        assert bound.covers(np.ones((n, 3), dtype=bool)).shape == (0, -(-n // 64))
        assert not bound.predict(np.ones((n, 3), dtype=bool)).any()


class TestAccuracy:
    def test_perfect_rules_any_subset(self, ttt_dataset, eight_rules):
        rng = np.random.default_rng(1)
        idx = rng.choice(ttt_dataset.n, size=200, replace=False)
        assert accuracy(eight_rules, ttt_dataset.subset(idx)) == 1.0

    def test_eight_rules_match_generator_labels(self, ttt_dataset, eight_rules):
        # the generator's own labels are the oracle for the 8 win rules
        assert hamming_loss(eight_rules, ttt_dataset) == 0
        assert accuracy(eight_rules, ttt_dataset) == 1.0

    def test_empty_rule_set_scores_negative_fraction(self, ttt_dataset):
        frac_neg = 1.0 - ttt_dataset.labels.mean()
        assert accuracy(RuleSet(()), ttt_dataset) == pytest.approx(frac_neg)

    def test_empty_dataset_errors(self):
        ds = tiny_dataset(np.ones((0, 1)), [])
        for score in (accuracy, hamming_loss, hamming_and_accuracy):
            with pytest.raises(ValueError, match="empty"):
                score(RuleSet(()), ds)


def conjunction_similarity(a: Conjunction, b: Conjunction) -> float:
    (row,) = similarity_matrix(RuleSet((a,)), RuleSet((b,)))
    return float(row[0])


class TestConjunctionSimilarity:
    def test_identical(self):
        assert conjunction_similarity(conj("x1", "x2"), conj("x1", "x2")) == 1.0

    def test_disjoint(self):
        assert conjunction_similarity(conj("x1"), conj("x2")) == 0.0

    def test_one_of_three(self):
        assert conjunction_similarity(conj("x1", "x2"), conj("x1", "x3")) == (
            pytest.approx(1 / 3)
        )

    def test_threshold_tolerance(self):
        a = Conjunction(frozenset({Literal("age", ">", 52.0)}))
        b = Conjunction(frozenset({Literal("age", ">", 52.0 * (1 + 1e-13))}))
        assert conjunction_similarity(a, b) == 1.0


class TestRulesetSimilarity:
    def test_identical_eight_rules(self, eight_rules):
        assert ruleset_similarity(eight_rules, eight_rules) == 1.0

    def test_empty_vs_nonempty(self, eight_rules):
        assert ruleset_similarity(RuleSet(()), eight_rules) == 0.0
        assert ruleset_similarity(RuleSet(()), RuleSet(())) == 1.0

    def test_one_vs_two_half(self):
        a = make_ruleset([conj("x1", "x2")])
        b = make_ruleset([conj("x1", "x2"), conj("x9")])
        assert ruleset_similarity(a, b) == pytest.approx(0.5)

    def test_no_shared_literals_scores_zero(self):
        a = make_ruleset([conj("x1"), conj("x2", "x3")])
        b = make_ruleset([conj("y1"), conj("y2", "y3")])
        assert ruleset_similarity(a, b) == 0.0

    @given(st.data())
    @settings(max_examples=80)
    def test_symmetry_range_and_assignment_oracle(self, data):
        feats = ["a", "b", "c", "d", "e"]
        def some_ruleset():
            n = data.draw(st.integers(min_value=0, max_value=4))
            conjs = []
            for _ in range(n):
                k = data.draw(st.integers(min_value=1, max_value=3))
                names = data.draw(
                    st.lists(
                        st.sampled_from(feats), min_size=k, max_size=k, unique=True
                    )
                )
                conjs.append(conj(*names))
            return make_ruleset(conjs)

        a, b = some_ruleset(), some_ruleset()
        s_ab = ruleset_similarity(a, b)
        s_ba = ruleset_similarity(b, a)
        assert s_ab == pytest.approx(s_ba)
        assert 0.0 <= s_ab <= 1.0
        if len(a) and len(b):
            oracle = brute_force_matching_score(similarity_matrix(a, b))
            assert s_ab == pytest.approx(oracle / max(len(a), len(b)))

    def test_perfect_score_requires_equal_sizes(self, eight_rules):
        shorter = make_ruleset(eight_rules.conjunctions[:4])
        assert ruleset_similarity(shorter, eight_rules) == pytest.approx(0.5)


class TestTemplateDistance:
    def test_containment_is_zero(self):
        t = Conjunction(frozenset({Literal("a", "==", "x")}))
        assert template_distance(literals_of(["a", "b"]), [t.literals]) == 0.0

    def test_disjoint_is_one(self):
        t = Conjunction(frozenset({Literal("q", "==", "x")}))
        assert template_distance(literals_of(["a", "b"]), [t.literals]) == 1.0

    def test_half_shared(self):
        t = Conjunction(
            frozenset({Literal("a", "==", "x"), Literal("z", "==", "x")})
        )
        assert template_distance(literals_of(["a", "b"]), [t.literals]) == 0.5

    def test_empty_template_set_errors(self):
        with pytest.raises(ValueError):
            template_distance(literals_of(["a"]), [])

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6, unique=True))
    @settings(max_examples=60)
    def test_monotone_as_literals_added(self, names):
        t = Conjunction(
            frozenset({Literal("a", "==", "x"), Literal("c", "==", "x")})
        )
        prev = 1.0
        for k in range(1, len(names) + 1):
            d = template_distance(literals_of(names[:k]), [t.literals])
            assert d <= prev + 1e-12
            prev = d


def literals_of(names):
    return {Literal(n, "==", "x") for n in names}


def test_eval_report_csv(tmp_path):
    reports = [
        EvalReport(0, 0.9, 3, 12, 0.75),
        EvalReport(1, 1.0, 0, 24, None),
    ]
    path = tmp_path / "report.csv"
    write_reports_csv(reports, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fold,metric,value"
    assert "0,similarity,0.75" in lines
    assert sum(1 for l in lines if l.startswith("1,")) == 3
