"""Generative sampler and exact-posterior oracle."""

import multiprocessing

import numpy as np
import pytest

import softds as s
from softds import synth
from util import diagonal_spec, reference_sample


def make_spec(pi, nu, seed, n_items):
    pi = np.asarray(pi, dtype=np.float64)
    return s.GenerativeSpec(
        n_items=n_items,
        n_members=pi.shape[0],
        n_classes=pi.shape[1],
        nu_true=s.ClassPrior(np.asarray(nu, dtype=np.float64)),
        pi_true=s.ConfusionTensor(pi),
        seed=seed,
    )


def _underflow_spec(seed, n_items):
    # Gamma(1e-3) draws are exactly 0 about half the time, so about a
    # quarter of the (J=2) vectors take the uniform branch
    return make_spec(np.full((2, 2, 2), 1e-3), [0.5, 0.5], seed, n_items)


def _runs_row(n_runs, n_classes):
    """A confusion row of ``n_runs`` runs of equal consecutive shapes."""
    lengths = np.diff(np.linspace(0, n_classes, n_runs + 1).astype(int))
    return np.repeat(0.5 + np.arange(n_runs) % 3, lengths)


def _runs_spec(n_runs, seed):
    # every row of both members has n_runs runs, shifted so that they differ
    rows = np.stack([_runs_row(n_runs, 10) + 0.1 * c for c in range(10)])
    return make_spec(np.stack([rows, rows[:, ::-1]]), np.full(10, 0.1), seed, 40)


# Rows mixing shapes below 1, exactly 1 (an exponential draw) and above 1
_MIXED_ROWS = np.array([
    [0.3, 1.0, 2.5, 1.0, 0.3, 0.3],
    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    [0.7, 0.7, 0.7, 4.0, 4.0, 4.0],
    [5.0, 0.2, 1.0, 1.0, 0.2, 5.0],
    [1.0, 0.5, 1.0, 0.5, 1.0, 0.5],
    [0.9, 1.0, 1.1, 1.0, 0.9, 1.0],
])

# Specs drawn both by the sampler and by the per-item reference
SITE_SPECS = {
    "seed_0": diagonal_spec(3.0, 0.4, seed=0, n_items=40, n_classes=4),
    "seed_2_words": diagonal_spec(3.0, 0.4, seed=2**40 + 3, n_items=40, n_classes=4),
    "seed_3_words": diagonal_spec(3.0, 0.4, seed=2**64 + 5, n_items=20, n_classes=3),
    "k1_j2": make_spec(np.array([[[2.0, 0.5], [0.5, 2.0]]]), [0.3, 0.7], 72, 50),
    "one_hot_prior": make_spec(np.full((2, 3, 3), 1.0), [0.0, 1.0, 0.0], 73, 30),
    "underflow": _underflow_spec(74, 200),
    # 1024-item blocks, the last one partial
    "partial_block": diagonal_spec(1.5, 0.4, seed=75, n_items=2 * 4096 + 3,
                                   n_members=1, n_classes=2),
    "distinct_shapes": make_spec(np.random.default_rng(78).uniform(0.2, 3.0, (2, 8, 8)),
                                 np.full(8, 0.125), 78, 40),
    "mixed_shapes": make_spec(np.stack([_MIXED_ROWS, _MIXED_ROWS[:, ::-1]]),
                              np.full(6, 1.0 / 6), 79, 60),
    "j100_diagonal": diagonal_spec(3.0, 0.4, seed=80, n_items=12, n_members=2,
                                   n_classes=100),
    "runs_at_limit": _runs_spec(6, 81),
    "runs_past_limit": _runs_spec(7, 82),
}


class TestSample:
    @pytest.mark.parametrize("spec", SITE_SPECS.values(), ids=SITE_SPECS.keys())
    def test_equals_per_site_generators_bitwise(self, spec):
        preds, truth = s.sample(spec)
        ref_preds, ref_truth = reference_sample(spec)
        assert np.array_equal(preds.probs, ref_preds.probs)
        assert np.array_equal(truth.labels, ref_truth.labels)
        assert preds.item_ids == ref_preds.item_ids

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("name", SITE_SPECS)
    def test_workers_bitwise(self, monkeypatch, name, workers):
        # blocks of 7 items, so that even the 20-item specs use every worker
        if name != "partial_block":
            monkeypatch.setattr(synth, "_BLOCK_ITEMS", 7)
        spec = SITE_SPECS[name]
        preds, truth = s.sample(spec, workers=workers)
        ref_preds, ref_truth = reference_sample(spec)
        assert np.array_equal(preds.probs, ref_preds.probs)
        assert np.array_equal(truth.labels, ref_truth.labels)
        assert preds.item_ids == ref_preds.item_ids
        assert multiprocessing.active_children() == []

    def test_underflowing_vectors_are_uniform(self):
        preds, _ = s.sample(_underflow_spec(74, 200))
        uniform = np.all(preds.probs == 0.5, axis=2)
        assert 0 < uniform.sum() < uniform.size

    def test_deterministic_bitwise(self):
        spec = diagonal_spec(3.0, 0.4, seed=60, n_items=50, n_classes=3)
        p1, t1 = s.sample(spec)
        p2, t2 = s.sample(spec)
        assert np.array_equal(p1.probs, p2.probs)
        assert np.array_equal(t1.labels, t2.labels)

    def test_one_hot_prior_fixes_labels(self):
        spec = make_spec(np.full((2, 3, 3), 1.0), [0.0, 1.0, 0.0], 61, 40)
        _, truth = s.sample(spec)
        assert np.all(truth.labels == 1)

    def test_unit_parameters_give_uniform_mean(self):
        # Dir(1, ..., 1) is uniform on the simplex: each coordinate has
        # mean 1/J and variance (J-1)/(J^2 (J+1))
        j, n = 4, 100_000
        spec = make_spec(np.ones((1, j, j)), np.full(j, 1.0 / j), 62, n)
        preds, _ = s.sample(spec)
        coord_mean = preds.probs[:, 0, :].mean(axis=0)
        sigma = np.sqrt((j - 1) / (j * j * (j + 1)) / n)
        assert np.max(np.abs(coord_mean - 1.0 / j)) <= 3 * sigma

    def test_concentrated_row_matches_dirichlet_mean(self):
        # true class 0 with parameter row (50, 1, ..., 1)
        j, n = 5, 100_000
        pi = np.ones((1, j, j))
        pi[0, 0, 0] = 50.0
        spec = make_spec(pi, [1.0, 0.0, 0.0, 0.0, 0.0], 63, n)
        preds, truth = s.sample(spec)
        assert np.all(truth.labels == 0)
        mean0 = preds.probs[:, 0, 0].mean()
        expected = 50.0 / (50.0 + j - 1)
        var = expected * (1.0 - expected) / (50.0 + j - 1 + 1.0)
        assert abs(mean0 - expected) <= 3 * np.sqrt(var / n)

    def test_rows_on_simplex(self):
        spec = diagonal_spec(2.0, 0.3, seed=64, n_items=200, n_classes=4)
        preds, _ = s.sample(spec)
        assert np.max(np.abs(preds.probs.sum(axis=2) - 1.0)) <= 1e-12

    def test_label_frequencies_match_prior(self):
        nu = np.array([0.5, 0.3, 0.2])
        spec = make_spec(np.ones((1, 3, 3)), nu, 65, 100_000)
        _, truth = s.sample(spec)
        freq = np.bincount(truth.labels, minlength=3) / truth.n_items
        sigma = np.sqrt(nu * (1 - nu) / truth.n_items)
        assert np.all(np.abs(freq - nu) <= 3 * sigma)

    def test_adding_members_preserves_earlier_draws(self):
        base = diagonal_spec(3.0, 0.4, seed=66, n_items=30, n_members=2,
                             n_classes=3)
        wider = diagonal_spec(3.0, 0.4, seed=66, n_items=30, n_members=4,
                              n_classes=3)
        p2, t2 = s.sample(base)
        p4, t4 = s.sample(wider)
        assert np.array_equal(t2.labels, t4.labels)
        assert np.array_equal(p2.probs, p4.probs[:, :2, :])

    def test_adding_items_preserves_earlier_draws(self):
        # 2100 items make three blocks; the first 1000 items lie in the
        # first, which the 1000-item spec fills only in part
        base = diagonal_spec(3.0, 0.4, seed=85, n_items=1000, n_members=2, n_classes=3)
        longer = diagonal_spec(3.0, 0.4, seed=85, n_items=2100, n_members=2, n_classes=3)
        p1, t1 = s.sample(base, workers=1)
        p2, t2 = s.sample(longer, workers=2)
        assert np.array_equal(t1.labels, t2.labels[:1000])
        assert np.array_equal(p1.probs, p2.probs[:1000])

    def test_draws_summing_past_the_float_range_raise(self):
        # Gamma(1e308) draws are about 1e308, so two of them sum past the
        # float range, while two Gamma(1e307) draws still sum within it
        pi = np.ones((2, 2, 2))
        pi[1] = 1e308
        with pytest.raises(s.NumericError) as got:
            s.sample(make_spec(pi, [0.5, 0.5], 77, 5))
        assert str(got.value) == "item 0 member 1: Gamma draws sum past the float range"
        pi[1] = 1e307
        preds, _ = s.sample(make_spec(pi, [0.5, 0.5], 77, 5))
        assert np.max(np.abs(preds.probs.sum(axis=2) - 1.0)) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(s.FormatError):
            diagonal_spec(3.0, 0.4, seed=0, n_items=0)
        with pytest.raises(s.FormatError, match="seed"):
            diagonal_spec(3.0, 0.4, seed=-1, n_items=5)

    @pytest.mark.parametrize("field, value", [
        ("n_items", 2.5), ("n_items", True), ("n_members", 1.0), ("seed", 3.0),
    ])
    def test_counts_and_seed_must_be_integers(self, field, value):
        spec = diagonal_spec(3.0, 0.4, seed=0, n_items=5, n_members=1, n_classes=2)
        fields = {name: getattr(spec, name) for name in
                  ("n_items", "n_members", "n_classes", "nu_true", "pi_true", "seed")}
        with pytest.raises(s.FormatError, match="must be integers"):
            s.GenerativeSpec(**{**fields, field: value})
        # numpy integers are integers
        assert s.GenerativeSpec(**{**fields, field: np.int64(1)}).n_items >= 1


class TestBayesPosterior:
    def test_symmetric_center_is_uninformative(self):
        pi = np.array([[[2.0, 1.0], [1.0, 2.0]]])
        spec = make_spec(pi, [0.5, 0.5], 67, 1)
        preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
        post = s.bayes_posterior(spec, preds)
        np.testing.assert_allclose(post.rows, [[0.5, 0.5]], atol=1e-12)

    def test_matches_e_step_under_true_parameters(self):
        spec = diagonal_spec(3.0, 0.4, seed=68, n_items=150, n_classes=4)
        preds, _ = s.sample(spec)
        oracle = s.bayes_posterior(spec, preds).rows
        estep = s.e_step_raw(preds, s.SdsModel(spec.pi_true, spec.nu_true)).rows
        np.testing.assert_allclose(oracle, estep, atol=1e-10)

    def test_beats_every_individual_member(self):
        spec = diagonal_spec(1.5, 0.4, seed=69, n_items=10_000, n_classes=4)
        preds, truth = s.sample(spec)
        bayes_acc = s.accuracy(s.bayes_posterior(spec, preds), truth)
        for k in range(spec.n_members):
            member_acc = np.mean(
                np.argmax(preds.probs[:, k, :], axis=1) == truth.labels)
            assert bayes_acc >= member_acc

    def test_shape_mismatch_rejected(self):
        spec = diagonal_spec(3.0, 0.4, seed=70, n_items=5, n_classes=3)
        preds = s.PredictionSet.from_probs(np.full((5, 3, 4), 0.25))
        with pytest.raises(ValueError):
            s.bayes_posterior(spec, preds)


class TestSpecSerialization:
    def test_json_round_trip(self, tmp_path):
        spec = diagonal_spec(3.0, 0.4, seed=71, n_items=25, n_classes=3)
        path = tmp_path / "spec.json"
        spec.to_json(path)
        again = s.GenerativeSpec.from_json(path)
        assert again.n_items == spec.n_items
        assert again.seed == spec.seed
        assert np.array_equal(again.pi_true.pi, spec.pi_true.pi)
        assert np.array_equal(again.nu_true.nu, spec.nu_true.nu)
        # and the samples agree bitwise
        p1, _ = s.sample(spec)
        p2, _ = s.sample(again)
        assert np.array_equal(p1.probs, p2.probs)
