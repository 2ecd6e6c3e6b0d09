"""Evaluation metrics against hand values, degenerate anchors, and
brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softds as s


def one_hot_rows(labels, n_classes):
    rows = np.zeros((len(labels), n_classes))
    rows[np.arange(len(labels)), labels] = 1.0
    return rows


class TestAccuracy:
    def test_half_right(self):
        rows = one_hot_rows([0, 1], 2)
        assert s.accuracy(rows, np.array([0, 0])) == 0.5

    def test_perfect(self):
        truth = np.array([2, 0, 1])
        assert s.accuracy(one_hot_rows(truth, 3), truth) == 1.0

    def test_uniform_rows_tie_to_class_zero(self):
        rows = np.full((5, 4), 0.25)
        assert s.accuracy(rows, np.zeros(5, dtype=int)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            s.accuracy(np.full((2, 2), 0.5), np.array([0]))

    @pytest.mark.parametrize("metric", [s.accuracy, s.ece, s.brier, s.nll])
    def test_all_metrics_reject_length_mismatch(self, metric):
        with pytest.raises(ValueError):
            metric(np.full((3, 2), 0.5), np.array([0, 1]))


class TestEce:
    def test_perfect_one_hot(self):
        truth = np.array([0, 1, 2])
        assert s.ece(one_hot_rows(truth, 3), truth) == 0.0

    def test_single_bin_hand_value(self):
        rows = np.array([[0.8, 0.2], [0.8, 0.2]])
        truth = np.array([0, 1])  # one right, one wrong, confidence 0.8
        assert s.ece(rows, truth) == pytest.approx(0.3, abs=1e-12)

    def test_one_bin_reduces_to_confidence_gap(self):
        rng = np.random.default_rng(50)
        rows = rng.dirichlet(np.ones(4), size=1000)
        truth = rng.integers(0, 4, size=1000)
        acc = s.accuracy(rows, truth)
        conf = rows.max(axis=1).mean()
        assert s.ece(rows, truth, n_bins=1) == pytest.approx(
            abs(acc - conf), abs=1e-12)

    def test_uniform_thousand_classes(self):
        rows = np.full((40, 1000), 1.0 / 1000)
        truth = np.zeros(40, dtype=int)  # argmax ties to 0 -> all correct
        # single occupied bin with confidence 0.001
        assert s.ece(rows, truth) == pytest.approx(abs(1.0 - 0.001), abs=1e-9)

    def test_right_closed_edges(self):
        # confidence exactly at a bin boundary belongs to the lower bin
        rows = np.array([[0.5, 0.5]])
        conf, _, count = s.reliability_bins(rows, np.array([0]), n_bins=2)
        assert count[0] == 1 and count[1] == 0
        assert conf[0] == 0.5

    def test_range_and_empty_bins(self):
        rng = np.random.default_rng(51)
        rows = rng.dirichlet(np.ones(3), size=50)
        truth = rng.integers(0, 3, size=50)
        val = s.ece(rows, truth, n_bins=300)
        assert 0.0 <= val <= 1.0


class TestBrier:
    def test_perfect(self):
        truth = np.array([0, 1])
        assert s.brier(one_hot_rows(truth, 2), truth) == 0.0

    def test_uniform_thousand_classes(self):
        rows = np.full((10, 1000), 1.0 / 1000)
        truth = np.arange(10)
        assert s.brier(rows, truth) == pytest.approx(0.999, abs=1e-12)

    def test_uniform_binary(self):
        rows = np.full((4, 2), 0.5)
        truth = np.array([0, 1, 0, 1])
        assert s.brier(rows, truth) == pytest.approx(0.5, abs=1e-15)

    def test_worst_case_bounded_by_two(self):
        rows = one_hot_rows([1, 1], 2)
        truth = np.array([0, 0])
        assert s.brier(rows, truth) == pytest.approx(2.0, abs=1e-15)


class TestNll:
    def test_perfect(self):
        truth = np.array([1, 0])
        assert s.nll(one_hot_rows(truth, 2), truth) == 0.0

    def test_uniform_thousand_classes(self):
        rows = np.full((10, 1000), 1.0 / 1000)
        truth = np.arange(10)
        assert s.nll(rows, truth) == pytest.approx(math.log(1000.0), abs=1e-9)

    def test_uniform_binary(self):
        rows = np.full((2, 2), 0.5)
        truth = np.array([0, 1])
        assert s.nll(rows, truth) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_floors_zero_probability(self):
        rows = one_hot_rows([0], 2)
        val = s.nll(rows, np.array([1]))
        assert val == pytest.approx(-math.log(1e-12), rel=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert s.auroc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_constant_scores(self):
        assert s.auroc([0.5, 0.5], [0.5, 0.5, 0.5]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            n_in = int(rng.integers(1, 30))
            n_out = int(rng.integers(1, 30))
            # quantized scores force plenty of ties
            a = np.round(rng.random(n_in), 1)
            b = np.round(rng.random(n_out), 1)
            greater = (b[:, None] > a[None, :]).sum()
            equal = (b[:, None] == a[None, :]).sum()
            oracle = (greater + 0.5 * equal) / (n_in * n_out)
            assert s.auroc(a, b) == oracle

    def test_midrank_antisymmetry(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            a = np.round(rng.random(int(rng.integers(1, 20))), 2)
            b = np.round(rng.random(int(rng.integers(1, 20))), 2)
            assert s.auroc(a, b) + s.auroc(b, a) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            s.auroc([], [0.5])


class TestOodScore:
    def test_one_hot_is_certain(self):
        row = np.array([0.0, 1.0, 0.0])
        assert s.ood_score(row, "max_prob") == 0.0
        assert s.ood_score(row, "entropy") == 0.0

    def test_uniform_four_classes(self):
        row = np.full(4, 0.25)
        assert s.ood_score(row, "max_prob") == pytest.approx(0.75, abs=1e-15)
        assert s.ood_score(row, "entropy") == pytest.approx(math.log(4.0),
                                                            abs=1e-12)

    def test_binary_entropy(self):
        assert s.ood_score(np.array([0.5, 0.5]), "entropy") == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            s.ood_score(np.array([1.0, 0.0]), "nope")


class TestTrueConfusion:
    def test_perfect_predictor(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        rows = one_hot_rows(truth, 3)
        mats = s.true_confusion(rows, truth)
        np.testing.assert_allclose(mats[0], np.eye(3), atol=1e-15)

    def test_constant_predictor(self):
        truth = np.array([0, 1, 2])
        rows = one_hot_rows([0, 0, 0], 3)
        mats = s.true_confusion(rows, truth)
        np.testing.assert_allclose(mats[0][:, 0], 1.0, atol=1e-15)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(54)
        preds = s.PredictionSet.from_probs(
            rng.dirichlet(np.ones(3), size=(60, 2)))
        truth = rng.integers(0, 3, size=60)
        mats = s.true_confusion(preds, truth)
        hard = s.harden(preds)
        for m in range(2):
            counts = np.zeros((3, 3))
            for i in range(60):
                counts[truth[i], hard[i, m]] += 1
            expected = counts / counts.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(mats[m], expected, atol=1e-15)

    def test_missing_class_becomes_uniform_with_warning(self):
        truth = np.array([0, 0, 1])
        rows = one_hot_rows([0, 0, 1], 3)  # class 2 never true
        with pytest.warns(UserWarning, match="never observed"):
            mats = s.true_confusion(rows, truth)
        np.testing.assert_allclose(mats[0][2], 1.0 / 3, atol=1e-15)


class TestInvariances:
    def test_class_permutation(self):
        # tie-free rows so argmax commutes with the permutation
        rng = np.random.default_rng(55)
        rows = rng.dirichlet(np.ones(4), size=200)
        truth = rng.integers(0, 4, size=200)
        perm = rng.permutation(4)
        inv = np.argsort(perm)
        prows = rows[:, perm]
        ptruth = inv[truth]
        assert s.accuracy(rows, truth) == s.accuracy(prows, ptruth)
        assert s.brier(rows, truth) == pytest.approx(
            s.brier(prows, ptruth), abs=1e-15)
        assert s.nll(rows, truth) == pytest.approx(
            s.nll(prows, ptruth), abs=1e-12)
        assert s.ece(rows, truth) == pytest.approx(
            s.ece(prows, ptruth), abs=1e-12)

    @given(st.integers(2, 6), st.integers(1, 40), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_metric_ranges(self, j, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(j), size=n)
        truth = rng.integers(0, j, size=n)
        report = s.evaluate_posterior(rows, truth)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.ece <= 1.0
        assert 0.0 <= report.brier <= 2.0
        assert report.nll >= 0.0
        assert report.n_items == n


class TestMetricReport:
    def test_serializes(self):
        report = s.MetricReport(0.9, 0.05, 0.3, 0.4, 100)
        assert report.to_dict() == {
            "accuracy": 0.9, "ece": 0.05, "brier": 0.3, "nll": 0.4,
            "n_items": 100,
        }

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            s.MetricReport(1.5, 0.0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            s.MetricReport(0.5, 0.0, 2.5, 0.0, 1)
