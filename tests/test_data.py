"""Containers, validation, and file-format round-trips."""

import csv
import dataclasses
import errno
import json
import multiprocessing
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import softds as s
from softds import data, synth
from softds.data import (FormatError, _floor_and_renormalize_in_place, _fork_map,
                         _line_bound, _load_probs, _parse_prob_file, _write_prob_file)
from util import diagonal_spec, reference_parse_prob_file, reference_write_prob_file, run_python


def floored(probs):
    """A floored, renormalized copy of ``probs``."""
    p = np.array(probs, dtype=np.float64)
    _floor_and_renormalize_in_place(p)
    return p


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

    def test_row_sum_tolerance(self):
        # the rule of load_predictions and the online stream: rows within
        # ROW_SUM_TOL (1e-3) of summing to 1 are renormalized
        assert s.data.ROW_SUM_TOL == 1e-3
        probs = np.full((2, 3, 2), 0.5)
        probs[1, 2] = [0.5, 0.5 + 5e-4]
        preds = s.PredictionSet.from_probs(probs)
        assert preds.probs[1, 2].sum() == pytest.approx(1.0, abs=1e-12)
        probs[1, 2] = [0.5, 0.5 + 2e-3]
        with pytest.raises(FormatError, match="member 2 item 1: .*sum to"):
            s.PredictionSet.from_probs(probs)
        probs[1, 2] = [np.nan, 1.0]
        with pytest.raises(FormatError, match="member 2 item 1: .*non-finite"):
            s.PredictionSet.from_probs(probs)

    def test_flooring(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.0, 0.6, 0.4]]]))
        assert preds.probs[0, 0, 0] == pytest.approx(1e-12, rel=1e-6)
        assert preds.probs[0, 0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_arrays_are_read_only(self):
        preds = s.PredictionSet.from_probs(np.full((1, 1, 2), 0.5))
        with pytest.raises(ValueError):
            preds.probs[0, 0, 0] = 0.9

    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.sampled_from([(3, 2, 4), (1, 1, 2), (2, 3, 10), (0, 2, 2), (2, 0, 2),
                                  (2, 2, 1), (4, 2), (1, 2, 2, 2)]),
           defect=st.sampled_from(["none", "zero", "off_sum", "nan", "inf", "negative"]))
    @settings(max_examples=80, deadline=None)
    def test_constructor_equals_from_probs(self, seed, shape, defect):
        # one rule for every array: the same bits, or the same error
        rng = np.random.default_rng(seed)
        x = np.zeros(shape)
        if x.size:
            x = rng.dirichlet(np.ones(shape[-1]), size=shape[:-1])
            row = x.reshape(-1, shape[-1])[rng.integers(x.size // shape[-1])]
            if defect == "zero":
                row[0] += row[-1]
                row[-1] = 0.0
            elif defect == "off_sum":
                row *= 1.0 + rng.uniform(-2e-3, 2e-3)
            elif defect != "none":
                row[-1] = {"nan": np.nan, "inf": np.inf, "negative": -1e-9}[defect]
        outcomes = []
        for build in (s.PredictionSet, s.PredictionSet.from_probs):
            try:
                outcomes.append(build(x.copy()).probs.tobytes())
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_constructor_floors_and_keeps_floored_arrays(self):
        # an un-floored array is floored as from_probs floors it; flooring
        # is a bitwise fixed point, so a floored array passes unchanged
        preds = s.PredictionSet(np.array([[[0.0, 0.6, 0.4]], [[0.2, 0.3, 0.5]]]))
        assert preds.probs[0, 0, 0] == pytest.approx(1e-12, rel=1e-6)
        assert preds.probs.tobytes() == floored(preds.probs).tobytes()
        assert s.PredictionSet(preds.probs).probs.tobytes() == preds.probs.tobytes()

    def test_item_id_count_checked(self):
        with pytest.raises(FormatError, match="item_ids length does not match item count"):
            s.PredictionSet(np.full((2, 1, 2), 0.5), ["a"])

    def test_caller_array_is_copied(self):
        # the set freezes a copy; the caller's array stays its own
        for build in (s.PredictionSet, s.PredictionSet.from_probs):
            arr = np.full((3, 2, 2), 0.5)
            preds = build(arr)
            assert arr.flags.writeable
            assert not np.shares_memory(arr, preds.probs)
            arr[0, 0] = [0.25, 0.75]
            assert np.all(preds.probs == 0.5)


class TestFloorAndRenormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(1)
        raw = rng.dirichlet(np.ones(5), size=(20, 3))
        once = floored(raw)
        twice = floored(once)
        assert np.array_equal(once, twice)

    def test_clean_rows_untouched(self):
        row = np.array([[0.25, 0.25, 0.5]])
        assert np.array_equal(floored(row), row)


class TestHarden:
    def test_argmax(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.1, 0.7, 0.2]]]))
        assert s.harden(preds)[0, 0] == 1

    def test_tie_breaks_low(self):
        preds = s.PredictionSet.from_probs(np.array([[[0.5, 0.5]]]))
        assert s.harden(preds)[0, 0] == 0

    def test_one_hot(self):
        row = np.zeros(5)
        row[3] = 1.0
        preds = s.PredictionSet.from_probs(row[None, None, :])
        assert s.harden(preds)[0, 0] == 3

    def test_invariant_under_rescaling(self):
        # the winning class is unchanged when a row is scaled by any
        # positive constant (powers of two keep the comparison exact)
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=(30, 2))
        hardened = s.harden(s.PredictionSet.from_probs(probs))
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

    def test_row_sum_tolerance(self, tmp_path):
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        write_member_csv(tmp_path / "m0.csv", ["a", "b"], [[0.5, 0.5], [0.5, 0.5005]])
        assert s.load_predictions(tmp_path / "m.json").probs[1, 0].sum() == \
            pytest.approx(1.0, abs=1e-12)
        write_member_csv(tmp_path / "m0.csv", ["a", "b"], [[0.5, 0.5], [0.5, 0.502]])
        with pytest.raises(FormatError, match=r"m0\.csv, line 3: .*sum to"):
            s.load_predictions(tmp_path / "m.json")

    def test_n_classes_must_be_an_integer(self, tmp_path):
        write_member_csv(tmp_path / "m0.csv", ["a"], [[0.5, 0.5]])
        for n_classes in (True, 2.0):
            write_manifest(tmp_path / "m.json", n_classes, ["m0.csv"])
            with pytest.raises(FormatError, match="n_classes must be an integer"):
                s.load_predictions(tmp_path / "m.json")

    def test_member_paths_must_be_strings(self, tmp_path):
        for members in ([1], [None]):
            write_manifest(tmp_path / "m.json", 2, members)
            with pytest.raises(FormatError, match=r"m\.json: members must be file paths"):
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


def assert_parses_like_reference(path, expect_classes=None):
    """``_parse_prob_file`` and the csv reference give the same ids, the
    same value bits, or the same error message."""
    try:
        expected = reference_parse_prob_file(path, expect_classes)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _parse_prob_file(path, expect_classes)
        assert str(got.value) == str(exc)
        return
    ids, values = _parse_prob_file(path, expect_classes)
    assert ids == expected[0]
    assert values.shape == expected[1].shape
    assert np.array_equal(values.view(np.uint64), expected[1].view(np.uint64))


def assert_writes_like_reference(tmp_path, ids, rows):
    """``_write_prob_file`` and the csv reference write the same bytes, and
    the file parses like the reference."""
    _write_prob_file(tmp_path / "new.csv", ids, rows)
    reference_write_prob_file(tmp_path / "ref.csv", ids, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_parses_like_reference(tmp_path / "new.csv", rows.shape[1])


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestProbFileMatchesReference:
    """The member / posterior CSV reader and writer against the ``csv``
    row loops they replaced (``tests/util.py``)."""

    def test_extreme_and_ulp_values(self, tmp_path):
        values = [5e-324, 2.2250738585072014e-308, s.data.PROB_FLOOR,
                  0.30000000000000004, 0.12345678901234568, 1.0, 0.0]
        for x in (0.1, 1.0 / 3.0):
            values += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
        rows = np.array(values)[:, None].repeat(2, axis=1)
        rows[:, 1] = 1.0 - rows[:, 0]
        assert_writes_like_reference(tmp_path, [str(i) for i in range(len(rows))], rows)

    @pytest.mark.parametrize("text", [
        "1E-3", ".5", "+0.5", " 0.5 ", "0.1234567890123456789012345", "1e-400",
        "-0.0", "5e-324", "2.4703282292062327e-324"])
    def test_hand_written_numbers(self, tmp_path, text):
        path = write_text(tmp_path / "p.csv", f"item_id,p_0,p_1\na,{text},0.5\n")
        assert_parses_like_reference(path)

    def test_ids(self, tmp_path):
        ids = ["#x", " padded ", "img,0001", 'say "cheese"', "multi\nline",
               "cr\rlf\r\n", "", '""', "é€", "tab\there", "a'b", "plain"]
        rows = np.full((len(ids), 2), 0.5)
        assert_writes_like_reference(tmp_path, ids, rows)

    def test_non_string_ids_through_save_posterior(self, tmp_path):
        ids = [7, 2.5, None, True, np.float64(0.1), np.int64(3), "x,y"]
        post = s.PosteriorMatrix(np.full((len(ids), 2), 0.5), ids)
        s.save_posterior(post, tmp_path / "new.csv")
        reference_write_prob_file(tmp_path / "ref.csv", ids, post.rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_line_endings(self, tmp_path, newline):
        lines = ["item_id,p_0,p_1", "a,0.25,0.75", '"b\nc",0.5,0.5', "d,1,0"]
        path = write_text(tmp_path / "p.csv", newline.join(lines) + newline)
        assert_parses_like_reference(path)
        # no line break after the last row
        path = write_text(tmp_path / "p.csv", newline.join(lines))
        assert_parses_like_reference(path)

    # 40 x 1000 spans two write blocks
    @pytest.mark.parametrize("n_rows, n_classes", [(1, 2), (5, 1000), (4097, 3),
                                                   (40, 1000)])
    def test_shapes(self, tmp_path, n_rows, n_classes):
        rng = np.random.default_rng(n_classes)
        rows = rng.dirichlet(np.ones(n_classes), size=n_rows)
        assert_writes_like_reference(tmp_path, [f"i{i}" for i in range(n_rows)], rows)

    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.text(), min_size=1, max_size=5),
           values=st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=2,
                           max_size=2))
    def test_any_id_and_value(self, tmp_path_factory, ids, values):
        rows = np.array([values] * len(ids))
        assert_writes_like_reference(tmp_path_factory.mktemp("csv"), ids, rows)

    @pytest.mark.parametrize("body", [
        "a,0.5\n",                      # missing column
        "a,0.5,0.5,0.5\n",              # extra column
        "a,0.5,0.5\nb,0.5,x\n",         # non-numeric
        "a,0.5,0.5\nb,,0.5\n",          # empty field
        '"b,c",0.5\n',                 # quoted comma leaves a column short
        "",                              # no data rows
    ], ids=["missing", "extra", "non_numeric", "empty_field", "quoted_comma",
            "no_rows"])
    def test_errors(self, tmp_path, body):
        assert_parses_like_reference(write_text(tmp_path / "p.csv", "item_id,p_0,p_1\n" + body))

    @pytest.mark.parametrize("text", ["", "item_id,p_0\n", "id,p_0,p_1\n",
                                      "item_id,p_0,p_2\n"])
    def test_header_errors(self, tmp_path, text):
        assert_parses_like_reference(write_text(tmp_path / "p.csv", text))

    def test_class_count_error(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.5,0.5\n")
        assert_parses_like_reference(path, expect_classes=3)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_fails_the_row_check(self, tmp_path, bad):
        path = write_text(tmp_path / "m0.csv",
                          f"item_id,p_0,p_1\na,0.5,0.5\nb,{bad},0.5\n")
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        _, values = reference_parse_prob_file(path)
        with pytest.raises(FormatError) as expected:
            s.data._check_raw_rows(values, lambda i: f"{path}, line {i + 2}")
        with pytest.raises(FormatError) as got:
            s.load_predictions(tmp_path / "m.json")
        assert str(got.value) == str(expected.value)


class TestTableReaderEdges:
    """Where the ``np.loadtxt`` table reader departs from ``csv.reader``
    with ``float()``/``int()`` (README, "File formats")."""

    def test_blank_lines_are_skipped(self, tmp_path):
        # the csv loop rejected a blank line as a row of 0 columns; line
        # numbers count non-blank records, as the row check does
        path = write_text(tmp_path / "m0.csv",
                          "item_id,p_0,p_1\r\n\r\na,0.5,0.5\r\n\r\nb,0.4,0.5\r\n\r\n")
        write_manifest(tmp_path / "m.json", 2, ["m0.csv"])
        with pytest.raises(FormatError, match="line 2: expected 3 columns, found 0"):
            reference_parse_prob_file(path)
        ids, values = _parse_prob_file(path)
        assert ids == ["a", "b"]
        assert values.tolist() == [[0.5, 0.5], [0.4, 0.5]]
        with pytest.raises(FormatError, match=r"m0\.csv, line 3: .*sum to"):
            s.load_predictions(tmp_path / "m.json")
        write_text(path, "item_id,p_0,p_1\n\na,0.5,0.5\n\nb,x,0.5\n")
        with pytest.raises(FormatError, match=r"m0\.csv, line 3: non-numeric"):
            _parse_prob_file(path)

    def test_whitespace_line_is_a_short_row(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.5,0.5\n \n")
        assert_parses_like_reference(path)

    @pytest.mark.parametrize("text", ["0_5", "\u0660.5"])
    def test_float_only_forms_are_rejected(self, tmp_path, text):
        # float() accepts digit-group underscores and non-ASCII digits
        path = write_text(tmp_path / "p.csv", f"item_id,p_0,p_1\na,0.5,0.5\nb,{text},1\n")
        reference_parse_prob_file(path)
        with pytest.raises(FormatError, match=r"p\.csv, line 3: non-numeric probability"):
            _parse_prob_file(path)

    def test_separator_controls_pad_a_number(self, tmp_path):
        # float() rejects U+001C-U+001F next to a number; the C reader
        # strips them as it strips spaces
        path = write_text(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.5\x1c,\x1f0.5\n")
        with pytest.raises(FormatError, match="line 2: non-numeric probability"):
            reference_parse_prob_file(path)
        assert _parse_prob_file(path)[1].tolist() == [[0.5, 0.5]]

    @pytest.mark.parametrize("text", ["1_0", "1.0", " 1", "99999999999999999999"])
    def test_ground_truth_labels(self, tmp_path, text):
        path = write_text(tmp_path / "t.csv", f"item_id,label\na,0\nb,{text}\n")
        if text == " 1":
            assert s.load_ground_truth(path).labels.tolist() == [0, 1]
            return
        with pytest.raises(FormatError, match=r"t\.csv, line 3: non-integer label"):
            s.load_ground_truth(path)

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"), ("item_id,label\n", "no data rows"),
        ("item_id,lab\na,0\n", "header must be item_id,label"),
        ("item_id,label\na,0,1\n", "line 2: expected 2 columns, found 3")])
    def test_ground_truth_errors(self, tmp_path, text, message):
        with pytest.raises(FormatError, match=message):
            s.load_ground_truth(write_text(tmp_path / "t.csv", text))

    def test_trace_rows(self, tmp_path):
        path = write_text(tmp_path / "trace.csv",
                          "iteration,q,alpha,millis\r\n0,-3.5,0.001,1.5\r\n\r\n"
                          "1,-3.25,0.001,2\r\n")
        trace = s.FitTrace.load_csv(path)
        assert trace.iteration.tolist() == [0, 1]
        assert trace.millis.tolist() == [1.5, 2.0]
        write_text(path, "iteration,q,alpha,millis\n0,-3.5,0.001\n")
        with pytest.raises(FormatError, match="trace.csv, line 2: expected 4 columns"):
            s.FitTrace.load_csv(path)
        write_text(path, "iteration,q,alpha,millis\n0.5,-3.5,0.001,1\n")
        with pytest.raises(FormatError, match="trace.csv, line 2: non-numeric value"):
            s.FitTrace.load_csv(path)


def _load_member(path):
    write_manifest(path.parent / "m.json", 2, [path.name])
    return s.load_predictions(path.parent / "m.json")


# kind: (header, a valid row, the valid row with a number field replaced
# by {}, loader)
TABLE_KINDS = {
    "member": ("item_id,p_0,p_1", "a,0.5,0.5", "b,{},0.5", _load_member),
    "posterior": ("item_id,p_0,p_1", "a,0.5,0.5", "b,{},0.5", s.load_posterior),
    "truth": ("item_id,label", "a,0", "b,{}", s.load_ground_truth),
    "trace": ("iteration,q,alpha,millis", "0,-3.5,0.001,1.5", "1,{},0.001,2",
              s.FitTrace.load_csv),
}


class TestOverlongField:
    """A field over ``csv``'s 131072-character limit is a
    :class:`FormatError` at its line, as the ``online`` stream rejects
    it, whether or not ``np.loadtxt`` reads the table."""

    LONG = "x" * 200_000
    MESSAGE = "field larger than field limit (131072)"

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_in_header(self, tmp_path, kind):
        header, row, _, load = TABLE_KINDS[kind]
        path = write_text(tmp_path / "t.csv", f"{header},{self.LONG}\n{row}\n")
        with pytest.raises(FormatError) as got:
            load(path)
        assert str(got.value) == f"{path}, line 1: {self.MESSAGE}"

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_in_number_column(self, tmp_path, kind):
        # the blank record is not numbered, so the long field is on line 3
        header, row, bad, load = TABLE_KINDS[kind]
        path = write_text(tmp_path / "t.csv",
                          f"{header}\n{row}\n\n{bad.format(self.LONG)}\n")
        with pytest.raises(FormatError) as got:
            load(path)
        assert str(got.value) == f"{path}, line 3: {self.MESSAGE}"

    @pytest.mark.parametrize("kind", ["member", "posterior", "truth"])
    def test_in_item_id(self, tmp_path, kind):
        # np.loadtxt, which has no field limit, reads this table
        header, row, _, load = TABLE_KINDS[kind]
        path = write_text(tmp_path / "t.csv",
                          f"{header}\n{row}\n\n{self.LONG}{row[1:]}\n")
        with pytest.raises(FormatError) as got:
            load(path)
        assert str(got.value) == f"{path}, line 3: {self.MESSAGE}"

    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_valid_long_number(self, tmp_path, kind):
        # np.loadtxt reads this number, 0.5 or 0, as csv.reader does not
        header, row, bad, load = TABLE_KINDS[kind]
        number = ("0" if kind == "truth" else "0.5") + "0" * 200_000
        path = write_text(tmp_path / "t.csv", f"{header}\n{row}\n\n{bad.format(number)}\n")
        with pytest.raises(FormatError) as got:
            load(path)
        assert str(got.value) == f"{path}, line 3: {self.MESSAGE}"

    @pytest.mark.parametrize("kind", ["member", "posterior"])
    def test_long_lines_of_short_fields_load(self, tmp_path, kind):
        # the header and each row are over the limit, every field under it
        _, _, _, load = TABLE_KINDS[kind]
        j = 25_000
        line = ",".join(["4e-05"] * j)
        assert len(line) > csv.field_size_limit()
        path = write_text(tmp_path / "t.csv", ",".join(["item_id"] + [f"p_{c}" for c in range(j)])
                          + f"\na,{line}\nb,{line}\n")
        if kind == "member":
            write_manifest(tmp_path / "m.json", j, [path.name])
            loaded = s.load_predictions(tmp_path / "m.json").probs[:, 0]
        else:
            loaded = load(path).rows
        assert loaded.shape == (2, j) and np.all(loaded == 4e-05)

    @pytest.mark.parametrize("kind", ["member", "posterior", "truth"])
    def test_item_id_at_limit_loads(self, tmp_path, kind):
        header, row, _, load = TABLE_KINDS[kind]
        item_id = "x" * csv.field_size_limit()
        path = write_text(tmp_path / "t.csv", f"{header}\n{item_id}{row[1:]}\n")
        assert load(path).item_ids == [item_id]


class TestWorkers:
    """``_fork_map`` is ``map`` on forked worker processes; the writers
    that use it write the same bytes for any worker count."""

    def test_in_order_on_forked_workers(self):
        got = list(_fork_map(lambda i: (i * i, os.getpid()), range(7), 2))
        assert [value for value, _ in got] == [i * i for i in range(7)]
        pids = {pid for _, pid in got}
        assert os.getpid() not in pids and 1 <= len(pids) <= 2
        assert multiprocessing.active_children() == []

    def test_builtin_map_with_one_worker_or_other_threads(self):
        def pid(_):
            return os.getpid()

        assert list(_fork_map(pid, range(3), 1)) == [os.getpid()] * 3
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert list(_fork_map(pid, range(3), 2)) == [os.getpid()] * 3
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()

    def test_worker_exception_raised_in_caller(self):
        def func(i):
            if i == 2:
                raise OSError(errno.EISDIR, "Is a directory", "f2")
            return i

        with pytest.raises(IsADirectoryError) as got:
            list(_fork_map(func, range(4), 2))
        assert str(got.value) == "[Errno 21] Is a directory: 'f2'"
        assert multiprocessing.active_children() == []

    def test_dead_worker_fails_promptly(self):
        # in a child interpreter (see run_python)
        code = (
            "import multiprocessing, os\n"
            "from concurrent.futures.process import BrokenProcessPool\n"
            "from softds.data import _fork_map\n"
            "try:\n"
            "    list(_fork_map(lambda i: os._exit(1) if i == 1 else i, range(4), 2))\n"
            "except BrokenProcessPool:\n"
            "    print('broken', multiprocessing.active_children())\n")
        done = run_python(code)
        assert (done.returncode, done.stdout) == (0, "broken []\n"), done.stderr

    def test_save_predictions_same_bytes(self, tmp_path, monkeypatch):
        # simulate formats each block's rows of every file on its worker;
        # its files hold the bytes of save_ground_truth, save_predictions
        # and save_posterior for any worker count
        monkeypatch.setattr(synth, "_BLOCK_ITEMS", 7)
        spec = diagonal_spec(3.0, 0.4, seed=5, n_items=50, n_classes=4)
        preds, truth = s.sample(spec)
        want = tmp_path / "want"
        s.save_predictions(preds, want, labels_filename="truth.csv")
        s.save_ground_truth(truth, want / "truth.csv")
        s.save_posterior(s.bayes_posterior(spec, preds), want / "bayes_posterior.csv")
        want = {p.name: p.read_bytes() for p in want.iterdir()}
        assert sorted(want) == ["bayes_posterior.csv", "manifest.json", "member_0.csv",
                                "member_1.csv", "member_2.csv", "truth.csv"]
        for workers in (1, 2, 3):
            for bayes in (False, True):
                out = tmp_path / f"{workers}_{bayes}"
                synth._save_sample(spec, out, workers, bayes=bayes)
                assert multiprocessing.active_children() == []
                assert {p.name: p.read_bytes() for p in out.iterdir()} == {
                    name: text for name, text in want.items()
                    if bayes or name != "bayes_posterior.csv"}

    @pytest.mark.parametrize("case", ["realigned", "one_member", "quoted_line_break",
                                      "blank_lines", "no_trailing_newline"])
    def test_load_same_bits_at_any_worker_count(self, tmp_path, case):
        # each member file is parsed in its own task, into its slice of a
        # buffer sized by file 0's line breaks
        rng = np.random.default_rng(77)
        n_items, n_members = 9, 1 if case == "one_member" else 3
        probs = rng.dirichlet(np.ones(4), size=(n_items, n_members))
        ids = [f"item-{i}" for i in range(n_items)]
        if case == "quoted_line_break":
            ids[4] = 'two\r\nlines, "quoted"'
        names = []
        for k in range(n_members):
            order = rng.permutation(n_items) if case == "realigned" and k else range(n_items)
            order = list(order)
            path = tmp_path / f"m{k}.csv"
            _write_prob_file(path, [ids[i] for i in order], probs[order, k])
            text = path.read_bytes()
            if case == "blank_lines":
                text = text.replace(b"\r\n", b"\r\n\r\n")
            elif case == "no_trailing_newline" and k == 0:
                text = text[:-2]
            path.write_bytes(text)
            names.append(path.name)
        write_manifest(tmp_path / "m.json", 4, names)
        want = floored(probs)
        for workers in (1, 2, 3):
            got, got_ids = _load_probs(tmp_path / "m.json", workers)
            assert multiprocessing.active_children() == []
            assert got_ids == ids
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, lines", [
        (b"", 0), (b"a", 0), (b"a\n", 1), (b"a\r\nb\r\n", 2), (b"a\rb\rc", 2),
        (b"a\r\n\r\rb\n\n", 5)])
    def test_line_bound_counts_every_line_break_once(self, tmp_path, text, lines):
        path = tmp_path / "f.csv"
        path.write_bytes(text)
        assert _line_bound(path) == lines + 1
        # a \r\n split between the first two chunks read
        path.write_bytes(b"x" * ((1 << 20) - 1) + b"\r\n" + text)
        assert _line_bound(path) == lines + 2

    def test_closed_generator_leaves_no_worker(self):
        results = _fork_map(lambda i: i * i, range(20), 2)
        assert next(results) == 0
        results.close()
        assert multiprocessing.active_children() == []


class BadRepr:
    """A cell that cannot be formatted."""

    def __repr__(self):
        raise ValueError("unformattable cell")


class TestOneWriter:
    """Every file is created by ``_created``: a failure while it is
    written removes it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_later_block_leaves_no_file(self, tmp_path, monkeypatch, workers):
        # three rows a block; the bad cell is in the third block, after
        # two blocks are written
        monkeypatch.setattr(data, "_BLOCK_CELLS", 6)
        values = np.array([[0.5, 0.5]] * 8 + [[0.5, BadRepr()]], dtype=object)
        with pytest.raises(ValueError, match="unformattable cell"):
            data._write_table(tmp_path / "t.csv", ["item_id", "p_0", "p_1"], range(9),
                              values, workers)
        assert list(tmp_path.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_unserialisable_json_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            data._save_json({"members": [1, object()]}, tmp_path / "x.json")
        assert list(tmp_path.iterdir()) == []

    def test_path_that_cannot_be_opened_is_left_alone(self, tmp_path):
        # a symbolic link to itself cannot be opened, but would be removed
        # by os.remove; a file whose open is denied cannot be made for a
        # process that may run as root
        path = tmp_path / "t.csv"
        path.symlink_to(path.name)
        with pytest.raises(OSError) as got:
            data._write_table(path, ["item_id", "label"], ["a"], np.array([[1]]))
        assert got.value.errno == errno.ELOOP
        assert path.is_symlink()


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

    def test_confusion_entries_need_only_be_positive(self):
        # any finite entry > 0 is a Dirichlet parameter; the fit's clamp
        # (1e-6) is not a property of the model
        pi = np.ones((1, 2, 2))
        pi[0, 0, 1] = 1e-9
        assert s.ConfusionTensor(pi).pi[0, 0, 1] == 1e-9
        for bad in (-1e-9, np.nan, np.inf):
            pi[0, 0, 1] = bad
            with pytest.raises(FormatError, match="finite and > 0"):
                s.ConfusionTensor(pi)


class TestSdsConfig:
    def test_defaults_match_documented_values(self):
        cfg = s.SdsConfig()
        assert cfg.alpha == 1e-3
        assert cfg.em_iterations == 100
        assert cfg.learning_rate == 1e-4
        assert cfg.q_rel_tolerance == 0.0
        # the AdamW recipe README's "Initialization" gives, as constants
        assert (s.sds._INNER_STEPS, s.sds._WEIGHT_DECAY) == (5, 1e-4)

    def test_readme_configuration_table_lists_every_field(self):
        # one row per field, in field order, each default written as the
        # JSON a config file would hold
        cfg = s.SdsConfig()
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n#", 1)[0]
        rows = [line.split("|")[1:3] for line in section.splitlines()
                if line.startswith("| `")]
        assert [name.strip().strip("`") for name, _ in rows] == \
            [f.name for f in dataclasses.fields(s.SdsConfig)]
        for (_, default), f in zip(rows, dataclasses.fields(s.SdsConfig)):
            expected = json.loads(json.dumps(getattr(cfg, f.name)))
            assert json.loads(default.strip().strip("`")) == expected, f.name

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

    def test_alpha_range(self):
        # refused when built, as every other container is
        for bad in (0, 1.5, float("nan"), "0.5", True):
            with pytest.raises(FormatError, match="alpha"):
                s.SdsConfig(alpha=bad)
        assert s.SdsConfig(alpha=1.0).alpha == 1.0

    def test_four_checked_fields_and_frozen(self):
        assert [f.name for f in dataclasses.fields(s.SdsConfig)] == \
            ["alpha", "em_iterations", "learning_rate", "q_rel_tolerance"]
        assert not hasattr(s.SdsConfig, "validate")
        cfg = s.SdsConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.alpha = 0.5
        with pytest.raises(FormatError, match="em_iterations must be >= 1"):
            dataclasses.replace(cfg, em_iterations=0)
