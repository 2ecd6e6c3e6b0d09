"""Containers, validation, and file-format round-trips."""

import json

import numpy as np
import pytest

import softds as s
from softds.data import FormatError, floor_and_renormalize


def write_member_csv(path, ids, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("item_id," + ",".join(f"p_{j}" for j in range(len(rows[0]))) + "\n")
        for item_id, row in zip(ids, rows):
            fh.write(item_id + "," + ",".join(repr(float(v)) for v in row) + "\n")


def write_manifest(path, n_classes, members, labels=None):
    obj = {"n_classes": n_classes, "members": members}
    if labels:
        obj["labels"] = labels
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


@pytest.fixture
def small_dataset(tmp_path):
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(4), size=(10, 3))
    ids = [f"item-{i}" for i in range(10)]
    for k in range(3):
        write_member_csv(tmp_path / f"m{k}.csv", ids, probs[:, k, :])
    manifest = tmp_path / "manifest.json"
    write_manifest(manifest, 4, ["m0.csv", "m1.csv", "m2.csv"])
    return manifest, probs, ids


class TestPredictionSet:
    def test_from_probs_shapes(self):
        preds = s.PredictionSet.from_probs(np.full((2, 2, 2), 0.5))
        assert (preds.n_items, preds.n_members, preds.n_classes) == (2, 2, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(FormatError):
            s.PredictionSet.from_probs(np.full((2, 2), 0.5))

    def test_rejects_negative(self):
        probs = np.full((1, 1, 2), 0.5)
        probs[0, 0, 0] = -0.1
        probs[0, 0, 1] = 1.1
        with pytest.raises(FormatError, match="negative"):
            s.PredictionSet.from_probs(probs)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(FormatError, match="sum"):
            s.PredictionSet.from_probs(np.full((1, 1, 2), 0.3))
        # non-finite rows fail the row-sum check, or, for a NaN, which
        # every comparison lets through, the constructor's check
        for row, what in (([np.inf, 0.0], "sum"), ([np.nan, 1.0], "finite")):
            with pytest.raises(FormatError, match=what):
                s.PredictionSet.from_probs(np.array([[row]]))

    def test_flooring(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.0, 0.6, 0.4]]]))
        assert preds.probs[0, 0, 0] == pytest.approx(1e-12, rel=1e-6)
        assert preds.probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_arrays_are_read_only(self):
        preds = s.PredictionSet.from_probs(np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            preds.probs[0, 0, 0] = 0.9


class TestFloorAndRenormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(1)
        raw = rng.dirichlet(np.ones(5), size=(20, 3))
        once = floor_and_renormalize(raw)
        twice = floor_and_renormalize(once)
        assert np.array_equal(once, twice)

    def test_clean_rows_untouched(self):
        row = np.array([[0.25, 0.25, 0.5]])
        assert np.array_equal(floor_and_renormalize(row), row)


class TestHarden:
    def test_argmax(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.1, 0.7, 0.2]]]))
        assert s.harden(preds).labels[0, 0] == 1

    def test_tie_breaks_low(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
        assert s.harden(preds).labels[0, 0] == 0

    def test_one_hot(self):
        row = np.zeros(5)
        row[3] = 1.0
        preds = s.PredictionSet.from_probs(row[None, None, :])
        assert s.harden(preds).labels[0, 0] == 3

    def test_invariant_under_rescaling(self):
        # the winning class is unchanged when a row is scaled by any
        # positive constant (powers of two keep the comparison exact)
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=(30, 2))
        hardened = s.harden(s.PredictionSet.from_probs(probs)).labels
        for scale in (0.25, 2.0, 1024.0):
            assert np.array_equal(np.argmax(probs * scale, axis=2), hardened)
        row_scale = rng.uniform(0.5, 2.0, size=(30, 2, 1))
        assert np.array_equal(np.argmax(probs * row_scale, axis=2), hardened)


class TestLoadPredictions:
    def test_loads_shapes(self, small_dataset):
        manifest, probs, ids = small_dataset
        preds = s.load_predictions(manifest)
        assert (preds.n_items, preds.n_members, preds.n_classes) == (10, 3, 4)
        assert preds.item_ids == ids

    def test_row_sum_error_names_file_and_line(self, tmp_path):
        # a NaN passes the sign and row-sum comparisons, so it needs its
        # own check to be reported at its line
        for bad_row, what in (([0.4, 0.5], "sum to"), ([float("nan"), 1.0], "non-finite")):
            write_member_csv(tmp_path / "m0.csv", ["a", "b"], [[0.5, 0.5], bad_row])
            write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
            with pytest.raises(FormatError, match=rf"m0\.csv, line 3: .*{what}"):
                s.load_predictions(tmp_path / "m.json")

    def test_zero_entry_is_floored(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a"], [[0.0, 1.0]])
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        preds = s.load_predictions(tmp_path / "m.json")
        assert preds.probs[0, 0, 0] == pytest.approx(1e-12, rel=1e-6)

    def test_negative_probability(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a"], [[-0.1, 1.1]])
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        with pytest.raises(FormatError, match="negative"):
            s.load_predictions(tmp_path / "m.json")

    def test_mismatched_item_ids(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a", "b"], [[0.5, 0.5]] * 2)
        write_member_csv(tmp_path / "m1.csv", ["a", "c"], [[0.5, 0.5]] * 2)
        write_manifest(tmp_path / "m.json", 2, ["m0.csv", "m1.csv"])
        with pytest.raises(FormatError, match="item ids disagree"):
            s.load_predictions(tmp_path / "m.json")

    def test_permuted_member_file_is_realigned(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a", "b"],
                         [[0.9, 0.1], [0.2, 0.8]])
        write_member_csv(tmp_path / "m1.csv", ["b", "a"],
                         [[0.3, 0.7], [0.6, 0.4]])
        write_manifest(tmp_path / "m.json", 2, ["m0.csv", "m1.csv"])
        preds = s.load_predictions(tmp_path / "m.json")
        assert preds.item_ids == ["a", "b"]
        np.testing.assert_allclose(preds.probs[0, 1], [0.6, 0.4])
        np.testing.assert_allclose(preds.probs[1, 1], [0.3, 0.7])

    def test_missing_column(self, tmp_path):
        with open(tmp_path / "m0.csv", "w", encoding="utf-8") as fh:
            fh.write("item_id,p_0,p_1\n")
            fh.write("a,0.5\n")
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        with pytest.raises(FormatError, match="missing column"):
            s.load_predictions(tmp_path / "m.json")

    def test_missing_member_file(self, tmp_path):
        write_manifest(tmp_path / "m.json", 2, ["nope.csv"])
        with pytest.raises(OSError):
            s.load_predictions(tmp_path / "m.json")

    def test_wrong_class_count(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a"], [[0.5, 0.5]])
        write_manifest(tmp_path / "m.json", 3, ["m0.csv"])
        with pytest.raises(FormatError, match="probability columns"):
            s.load_predictions(tmp_path / "m.json")


class TestRoundTrips:
    def test_predictions(self, tmp_path):
        rng = np.random.default_rng(3)
        preds = s.PredictionSet.from_probs(
            rng.dirichlet(np.ones(3), size=(12, 2)),
            [f"x{i}" for i in range(12)])
        manifest = s.save_predictions(preds, tmp_path / "out")
        again = s.load_predictions(manifest)
        assert np.array_equal(preds.probs, again.probs)
        assert preds.item_ids == again.item_ids

    def test_posterior(self, tmp_path):
        rng = np.random.default_rng(4)
        post = s.PosteriorMatrix(rng.dirichlet(np.ones(4), size=9))
        path = tmp_path / "post.csv"
        s.save_posterior(post, path)
        again = s.load_posterior(path)
        assert np.array_equal(post.rows, again.rows)
        assert post.item_ids == again.item_ids

    def test_posterior_bad_row_width(self, tmp_path):
        with open(tmp_path / "p.csv", "w", encoding="utf-8") as fh:
            fh.write("item_id,p_0,p_1\n")
            fh.write("a,0.5,0.25,0.25\n")
        with pytest.raises(FormatError):
            s.load_posterior(tmp_path / "p.csv")

    def test_posterior_empty_file(self, tmp_path):
        (tmp_path / "p.csv").write_text("")
        with pytest.raises(FormatError, match="empty"):
            s.load_posterior(tmp_path / "p.csv")

    def test_confusion_tensor(self, tmp_path):
        rng = np.random.default_rng(5)
        tensor = s.ConfusionTensor(rng.uniform(0.5, 4.0, size=(3, 4, 4)))
        path = tmp_path / "pi.json"
        s.save_confusion_tensor(tensor, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        again = np.array([member["pi"] for member in obj["members"]])
        assert np.array_equal(tensor.pi, again)

    def test_ground_truth(self, tmp_path):
        truth = s.GroundTruth(np.array([0, 2, 1]), ["a", "b", "c"])
        path = tmp_path / "t.csv"
        s.save_ground_truth(truth, path)
        again = s.load_ground_truth(path)
        assert np.array_equal(truth.labels, again.labels)
        assert truth.item_ids == again.item_ids

    def test_item_ids_are_opaque_strings(self, tmp_path):
        # ids with commas, quotes, and spaces survive the CSV round-trip
        ids = ['img,0001', 'say "cheese"', ' padded ', "plain"]
        rng = np.random.default_rng(6)
        post = s.PosteriorMatrix(rng.dirichlet(np.ones(3), size=4), ids)
        path = tmp_path / "p.csv"
        s.save_posterior(post, path)
        again = s.load_posterior(path)
        assert again.item_ids == ids
        assert np.array_equal(post.rows, again.rows)


class TestContainers:
    def test_posterior_row_sum_checked(self):
        with pytest.raises(FormatError):
            s.PosteriorMatrix(np.array([[0.6, 0.6]]))

    def test_class_prior_checked(self):
        with pytest.raises(FormatError):
            s.ClassPrior(np.array([0.5, 0.6]))

    def test_confusion_floor_checked(self):
        with pytest.raises(FormatError):
            s.ConfusionTensor(np.zeros((1, 2, 2)))

    def test_nan_confusion_floor_rejected(self):
        with pytest.raises(FormatError, match="pi_floor"):
            s.ConfusionTensor(np.ones((1, 2, 2)), float("nan"))

    def test_hard_labels_range(self):
        with pytest.raises(FormatError):
            s.HardLabelSet(np.array([[0, 3]]), 3)
        ok = s.HardLabelSet(np.array([[0, 2]]), 3)
        assert ok.n_items == 1 and ok.n_members == 2


class TestSdsConfig:
    def test_defaults_match_documented_values(self):
        cfg = s.SdsConfig()
        assert cfg.alpha_schedule == [(0, 1e-3)]
        assert cfg.em_iterations == 100
        assert cfg.inner_steps == 5
        assert cfg.learning_rate == 1e-4
        assert cfg.weight_decay == 1e-4
        assert cfg.pi_floor == 1e-6

    def test_json_round_trip_with_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"em_iterations": 7}))
        cfg = s.SdsConfig.from_json(path)
        assert cfg.em_iterations == 7
        assert cfg.learning_rate == 1e-4  # default preserved

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rte": 0.1}))
        with pytest.raises(FormatError, match="unknown config"):
            s.SdsConfig.from_json(path)

    def test_schedule_must_cover_zero(self):
        with pytest.raises(FormatError):
            s.SdsConfig(alpha_schedule=[(5, 0.5)]).validate()

    def test_alpha_range(self):
        with pytest.raises(FormatError):
            s.SdsConfig(alpha_schedule=[(0, 0.0)]).validate()
        with pytest.raises(FormatError):
            s.SdsConfig(alpha_schedule=[(0, 1.5)]).validate()

    def test_schedule_order(self):
        with pytest.raises(FormatError):
            s.SdsConfig(alpha_schedule=[(0, 0.5), (0, 0.2)]).validate()
