"""Majority voting, ensemble averaging, and classic hard-label EM."""

import numpy as np
import pytest

import softds as s
from softds.baselines import _ds_m_step, _label_frequencies
from util import (REFERENCE_SHAPES, accurate_hard_labels, label_preds, random_instance,
                  reference_ds_m_step)


class TestMajorityVote:
    def test_mode(self):
        preds = label_preds([[1, 1, 2]], 3)
        np.testing.assert_array_equal(s.majority_vote(preds).rows,
                                      [[0.0, 1.0, 0.0]])

    def test_tie_breaks_low(self):
        preds = label_preds([[0, 1]], 2)
        np.testing.assert_array_equal(s.majority_vote(preds).rows, [[1.0, 0.0]])

    def test_unanimous(self):
        row = s.majority_vote(label_preds([[3, 3, 3]], 4)).rows[0]
        assert row[3] == 1.0 and row.sum() == 1.0

    def test_matches_naive_tally(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, k, j = rng.integers(1, 8), rng.integers(1, 6), rng.integers(2, 5)
            labels = rng.integers(0, j, size=(n, k))
            got = s.majority_vote(label_preds(labels, j)).rows
            for i in range(n):
                tally = np.bincount(labels[i], minlength=j)
                assert got[i].argmax() == tally.argmax()
                assert got[i, tally.argmax()] == 1.0

    def test_hardens_soft_predictions(self):
        # member argmaxes 1, 1, 0: the vote goes to 1, though the mean
        # probability favours 0
        probs = np.array([[[0.45, 0.55], [0.45, 0.55], [0.99, 0.01]]])
        preds = s.PredictionSet.from_probs(probs, ["x"])
        post = s.majority_vote(preds)
        np.testing.assert_array_equal(post.rows, [[0.0, 1.0]])
        assert post.item_ids == ["x"]

    def test_member_permutation_bitwise(self):
        rng = np.random.default_rng(14)
        probs = rng.dirichlet(np.ones(3), size=(40, 4))
        perm = rng.permutation(4)
        assert np.array_equal(
            s.majority_vote(s.PredictionSet.from_probs(probs)).rows,
            s.majority_vote(s.PredictionSet.from_probs(probs[:, perm, :])).rows)


class TestEnsembleAverage:
    def test_two_members(self):
        preds = s.PredictionSet.from_probs(
            np.array([[[0.6, 0.4], [0.2, 0.8]]]))
        np.testing.assert_allclose(s.ensemble_average(preds).rows,
                                   [[0.4, 0.6]], atol=1e-15)

    def test_idempotent_on_identical_members(self):
        rng = np.random.default_rng(9)
        row = rng.dirichlet(np.ones(5))
        preds = s.PredictionSet.from_probs(np.tile(row, (4, 3, 1)))
        np.testing.assert_allclose(s.ensemble_average(preds).rows,
                                   preds.probs[:, 0, :], rtol=1e-14, atol=0)

    def test_matches_direct_mean(self):
        rng = np.random.default_rng(10)
        preds = s.PredictionSet.from_probs(rng.dirichlet(np.ones(4), size=(20, 3)))
        direct = preds.probs.mean(axis=1)
        np.testing.assert_allclose(s.ensemble_average(preds).rows, direct,
                                   rtol=1e-15, atol=1e-16)

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(1, 7))
            preds = s.PredictionSet.from_probs(
                rng.dirichlet(np.ones(3), size=(5, k)))
            sums = s.ensemble_average(preds).rows.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12

    def test_member_permutation_bitwise(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(4), size=(15, 5))
        preds = s.PredictionSet.from_probs(probs)
        perm = rng.permutation(5)
        permuted = s.PredictionSet.from_probs(probs[:, perm, :])
        assert np.array_equal(s.ensemble_average(preds).rows,
                              s.ensemble_average(permuted).rows)


class TestDsEm:
    def test_unanimous_members_hand_computed(self):
        # two members agree on labels [0, 1, 0]; 1 iteration: counts
        # [[2, 0], [0, 1]] for both members, each smoothed by 0.01
        confusion, prior, post = s.ds_em(label_preds([[0, 0], [1, 1], [0, 0]], 2), 1)
        np.testing.assert_allclose(prior.nu, [2 / 3, 1 / 3], atol=1e-15)
        rows = np.array([[2.01 / 2.02, 0.01 / 2.02], [0.01 / 1.02, 1.01 / 1.02]])
        for m in range(2):
            np.testing.assert_allclose(confusion[m], rows, rtol=1e-15)
        # each item's weights: the prior times both members' likelihoods
        weights = prior.nu * rows[:, [0, 1, 0]].T ** 2
        np.testing.assert_allclose(post.rows, weights / weights.sum(axis=1, keepdims=True),
                                   rtol=1e-14)

    def test_single_member_posterior_is_one_hot(self):
        # up to the smoothing: an off-label class's likelihood is 0.01
        # over its count plus 0.03, so the two take under 0.02 of the mass
        labels = np.array([[2], [0], [1], [2]])
        _, _, post = s.ds_em(label_preds(labels, 3), 1)
        assert np.array_equal(post.rows.argmax(axis=1), labels[:, 0])
        assert np.all(1.0 - post.rows[np.arange(4), labels[:, 0]] < 0.02)

    def test_recovers_known_accuracy(self):
        # 5 members that match a binary truth 90% of the time
        rng = np.random.default_rng(3)
        preds, _ = accurate_hard_labels(rng, 50, 5, accuracy=0.9)
        confusion, _, _ = s.ds_em(preds, 20)
        diags = np.stack([np.diag(confusion[m]) for m in range(5)])
        assert np.max(np.abs(diags - 0.9)) < 0.1

    def test_no_nan_on_degenerate_input(self):
        # every member gives the same label to every item
        confusion, prior, post = s.ds_em(label_preds(np.zeros((6, 3), dtype=int), 4), 10)
        assert np.all(np.isfinite(confusion))
        assert np.all(np.isfinite(post.rows))
        assert np.all(np.isfinite(prior.nu))

    def test_posteriors_valid_at_every_iteration(self):
        rng = np.random.default_rng(13)
        preds, _ = accurate_hard_labels(rng, 30, 3, accuracy=0.8, n_classes=3)
        for iters in range(1, 6):
            _, _, post = s.ds_em(preds, iters)
            assert np.all(post.rows >= 0.0)
            assert np.max(np.abs(post.rows.sum(axis=1) - 1.0)) <= 1e-9

    def test_keeps_item_ids(self):
        preds = label_preds([[0, 1], [1, 1]], 2, ["b", "a"])
        assert s.ds_em(preds, 2)[2].item_ids == ["b", "a"]

    def test_member_permutation_bitwise(self):
        # the posterior is unchanged bit for bit; the confusion matrices
        # follow their members
        rng = np.random.default_rng(15)
        probs = rng.dirichlet(np.full(4, 0.7), size=(60, 5))
        perm = rng.permutation(5)
        conf, prior, post = s.ds_em(s.PredictionSet.from_probs(probs), 3)
        conf_p, prior_p, post_p = s.ds_em(
            s.PredictionSet.from_probs(probs[:, perm, :]), 3)
        assert np.array_equal(post.rows, post_p.rows)
        assert np.array_equal(prior.nu, prior_p.nu)
        assert np.array_equal(conf[perm], conf_p)

    def test_rejects_bad_arguments(self):
        preds = label_preds([[0]], 2)
        with pytest.raises(ValueError):
            s.ds_em(preds, 0)


@pytest.mark.parametrize("shape", REFERENCE_SHAPES + [(1, 3, 5)],
                         ids=lambda sh: "x".join(map(str, sh)))
@pytest.mark.parametrize("smoothing", [0.01])
class TestDsMStepMatchesReference:
    """The M-step's counts, each posterior row added into the row of its
    label in item order, equal the one-hot einsum bit for bit, at the
    M-step's smoothing 0.01."""

    def test_equals_one_hot_einsum(self, shape, smoothing):
        preds, post, _, _ = random_instance(np.random.default_rng(sum(shape)), *shape)
        hard = s.harden(preds)
        # the fit's start: a class no member votes for has a zero-count row
        freq = _label_frequencies(hard, shape[2])
        for rows in (post, freq):
            conf, prior = _ds_m_step(hard, rows)
            want_conf, want_prior = reference_ds_m_step(hard, rows, smoothing)
            assert np.array_equal(conf, want_conf)
            assert np.array_equal(prior, want_prior)
