"""Every rejected input gets its own message: a container built in memory
raises :class:`FormatError`, and a bad file is a validation error (exit 1)
whose message names the file."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import softds as s
from softds.cli import main
from softds.data import FormatError


@pytest.fixture
def cli(capsys):
    """``run(*argv)``: the exit code and stderr of ``softds argv``."""
    def run(*argv):
        code = main([str(a) for a in argv])
        return code, capsys.readouterr().err
    return run


def write(path, obj):
    """``obj`` written to ``path``, as JSON unless it is a str."""
    path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
    return path


@pytest.fixture
def manifest(tmp_path):
    """A valid two-item, two-member, J=2 dataset."""
    preds = s.PredictionSet(np.array([[[0.7, 0.3], [0.6, 0.4]], [[0.2, 0.8], [0.5, 0.5]]]),
                            ["a", "b"])
    return s.save_predictions(preds, tmp_path / "data")


class TestContainers:
    @pytest.mark.parametrize("build, message", [
        (lambda: s.ConfusionTensor(np.ones((2, 2))), "confusion tensor must be K x J x J"),
        (lambda: s.ConfusionTensor(np.ones((1, 2, 3))), "confusion tensor must be K x J x J"),
        (lambda: s.ClassPrior(np.array([1.0])),
         "class prior must be a 1-D vector of length >= 2"),
        (lambda: s.ClassPrior(np.array([1.5, -0.5])),
         "class prior entries must be finite and >= 0"),
        (lambda: s.PosteriorMatrix(np.full(2, 0.5)), "posterior must be N x J with J >= 2"),
        (lambda: s.PosteriorMatrix(np.ones((2, 1))), "posterior must be N x J with J >= 2"),
        (lambda: s.PosteriorMatrix(np.array([[1.5, -0.5]])),
         "posterior entries must be finite and >= 0"),
        (lambda: s.PosteriorMatrix(np.full((2, 2), 0.5), ["a"]),
         "item_ids length does not match row count"),
        (lambda: s.GroundTruth(np.array([], dtype=np.int64)),
         "ground truth must be a non-empty 1-D label vector"),
        (lambda: s.GroundTruth(np.array([0, -1])), "negative class label"),
        (lambda: s.GroundTruth(np.array([0, 2]), n_classes=2), "label outside [0, n_classes)"),
        (lambda: s.GroundTruth(np.array([0, 1]), ["a"]),
         "item_ids length does not match label count"),
        (lambda: s.FitTrace([0, 1], [1.0], [1.0], [1.0]), "trace columns must have equal length"),
    ], ids=["pi_2d", "pi_not_square", "nu_short", "nu_negative", "posterior_1d",
            "posterior_j1", "posterior_negative", "posterior_ids", "truth_empty",
            "truth_negative", "truth_too_large", "truth_ids", "trace_columns"])
    def test_rejects(self, build, message):
        with pytest.raises(FormatError) as got:
            build()
        assert str(got.value) == message

    @pytest.mark.parametrize("posterior, truth, bad, message", [
        ("a,1.5,-0.5\n", "a,0\n", "posterior", "posterior entries must be finite and >= 0"),
        ("a,0.5,0.5\n", "a,-1\n", "truth", "negative class label"),
    ])
    def test_bad_files_exit_1(self, tmp_path, cli, posterior, truth, bad, message):
        paths = {"posterior": write(tmp_path / "p.csv", "item_id,p_0,p_1\n" + posterior),
                 "truth": write(tmp_path / "t.csv", "item_id,label\n" + truth)}
        assert cli("evaluate", "--posterior", paths["posterior"],
                   "--truth", paths["truth"]) == (1, f"error: {paths[bad]}: {message}\n")


class TestConfig:
    """A config error names the config file, as in a model or spec."""

    @pytest.mark.parametrize("config, message", [
        ({"em_iterations": "3"}, "config field em_iterations must be an integer, got '3'"),
        ({"seed": 1}, "unknown config fields: ['seed']"),
        ({"reset_optimizer_each_m_step": False},
         "unknown config fields: ['reset_optimizer_each_m_step']"),
        # one alpha damps every iteration: a schedule, in any form, is an
        # unknown field
        ({"alpha_schedule": [[0]]}, "unknown config fields: ['alpha_schedule']"),
        ({"alpha_schedule": [[0, 0.5, 1]]}, "unknown config fields: ['alpha_schedule']"),
        ({"alpha_schedule": []}, "unknown config fields: ['alpha_schedule']"),
        ({"alpha_schedule": [[0, 1.0]]}, "unknown config fields: ['alpha_schedule']"),
        ({"alpha": 0}, "alpha must lie in (0, 1]"),
        ({"alpha": [[0, 0.5]]}, "config field alpha must be a finite number, got [[0, 0.5]]"),
        ({"learning_rate": 0}, "learning_rate must be > 0"),
        # the fit's start, its confusion floor and AdamW's steps per
        # M-step and weight decay are constants, not fields
        ({"inner_steps": 5}, "unknown config fields: ['inner_steps']"),
        ({"weight_decay": -1e-4}, "unknown config fields: ['weight_decay']"),
        ({"pi_floor": 0.0}, "unknown config fields: ['pi_floor']"),
        ({"ds_init_concentration": 0}, "unknown config fields: ['ds_init_concentration']"),
        ({"ds_init_smoothing": -0.5}, "unknown config fields: ['ds_init_smoothing']"),
        ({"q_rel_tolerance": -1e-3}, "q_rel_tolerance must be >= 0"),
        ("{", None),
        ([1], "config must be a JSON object"),
    ], ids=["em_iterations_string", "seed_unknown", "reset_flag_unknown",
            "schedule_entry_short", "schedule_entry_long", "schedule_empty",
            "schedule_one_entry", "alpha_zero", "alpha_list",
            "learning_rate_zero", "inner_steps_unknown", "weight_decay_unknown",
            "pi_floor_zero",
            "concentration_zero", "smoothing_negative", "tolerance_negative",
            "invalid_json", "not_an_object"])
    def test_exits_1_naming_the_file(self, tmp_path, cli, manifest, config, message):
        cfg = write(tmp_path / "cfg.json", config)
        code, err = cli("aggregate", "--manifest", manifest, "--config", cfg,
                        "--out", tmp_path / "post.csv")
        assert code == 1
        if message is None:
            assert err.startswith(f"error: {cfg}: invalid JSON (")
        else:
            assert err == f"error: {cfg}: {message}\n"


class TestManifest:
    @pytest.mark.parametrize("text, message", [
        ("{", None),
        ("[1]", "manifest must be a JSON object"),
        ('{"n_classes": 2, "members": []}', "members must be a non-empty list"),
    ], ids=["invalid_json", "not_an_object", "no_members"])
    def test_exits_1_naming_the_file(self, tmp_path, cli, text, message):
        path = write(tmp_path / "m.json", text)
        code, err = cli("aggregate", "--method", "ea", "--manifest", path,
                        "--out", tmp_path / "post.csv")
        assert code == 1
        if message is None:
            assert err.startswith(f"error: {path}: invalid JSON (")
        else:
            assert err == f"error: {path}: {message}\n"

    def test_member_with_other_ids_exits_1(self, tmp_path, cli):
        write(tmp_path / "m0.csv", "item_id,p_0,p_1\na,0.5,0.5\nb,0.5,0.5\n")
        other = write(tmp_path / "m1.csv", "item_id,p_0,p_1\na,0.5,0.5\nc,0.5,0.5\n")
        path = write(tmp_path / "m.json", {"n_classes": 2, "members": ["m0.csv", "m1.csv"]})
        assert cli("aggregate", "--method", "ea", "--manifest", path,
                   "--out", tmp_path / "post.csv") == (
            1, f"error: {other}: item ids disagree with m0.csv\n")


PI = [[1.0, 2.0], [2.0, 1.0]]


class TestModelFile:
    @pytest.mark.parametrize("model, message", [
        ({"nu": [0.5, 0.5], "members": 5}, "members must be a non-empty list"),
        ({"nu": [0.5, 0.5], "members": [{}]}, "member 0 must be an object with a pi key"),
        ({"nu": [0.5, 0.5], "members": [{"pi": [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]}]},
         "member 0 pi must be a square matrix"),
        ({"nu": [0.5, 0.5], "members": [{"pi": PI}, {"pi": np.ones((3, 3)).tolist()}]},
         "member matrices have inconsistent shapes"),
        ({"members": [{"pi": PI}]}, "model must be an object with nu and members"),
        ({"nu": [0.25, 0.25, 0.5], "members": [{"pi": PI}]},
         "confusion tensor and class prior disagree on J"),
    ], ids=["members_not_a_list", "no_pi", "pi_not_square", "mixed_shapes", "no_nu",
            "j_mismatch"])
    def test_exits_1_naming_the_file(self, tmp_path, cli, model, message):
        path = write(tmp_path / "model.json", model)
        stream = write(tmp_path / "in.csv", "item_id,m0_p0,m0_p1\n")
        assert cli("online", "--model", path, "--input", stream) == (
            1, f"error: {path}: {message}\n")


class TestNotUtf8:
    """A byte that is not UTF-8 in an input is a validation error naming
    the file, and the line of a CSV record; it never reaches an output."""

    @staticmethod
    def spoil(path, old, new):
        path = Path(path)
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        return path

    @pytest.mark.parametrize("old, new, line", [
        (b"b,", b"b\xff,", 3),
        (b"0.3", b"0.3\xff", 2),
        (b"p_1", b"p_\xff1", 1),
    ], ids=["item_id", "probability", "header"])
    def test_member_csv(self, tmp_path, cli, manifest, old, new, line):
        member = self.spoil(Path(manifest).parent / "member_0.csv", old, new)
        out = tmp_path / "post.csv"
        assert cli("aggregate", "--method", "ea", "--manifest", manifest, "--out", out) == (
            1, f"error: {member}, line {line}: not UTF-8 text\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["posterior", "truth"])
    def test_posterior_and_truth_csv(self, tmp_path, cli, bad):
        paths = {"posterior": write(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.5,0.5\n"),
                 "truth": write(tmp_path / "t.csv", "item_id,label\na,0\n")}
        self.spoil(paths[bad], b"a,", b"\xffa,")
        assert cli("evaluate", "--posterior", paths["posterior"], "--truth", paths["truth"]) == (
            1, f"error: {paths[bad]}, line 2: not UTF-8 text\n")
        load = {"posterior": s.load_posterior, "truth": s.load_ground_truth}[bad]
        with pytest.raises(FormatError, match="line 2: not UTF-8 text"):
            load(paths[bad])

    @pytest.mark.parametrize("kind", ["config", "manifest"])
    def test_json(self, tmp_path, cli, manifest, kind):
        cfg = write(tmp_path / "cfg.json", {"em_iterations": 2})
        bad = self.spoil(cfg if kind == "config" else manifest, b"}", b"\xff}")
        code, err = cli("aggregate", "--manifest", manifest, "--config", cfg,
                        "--out", tmp_path / "post.csv")
        assert code == 1
        assert err.startswith(f"error: {bad}: invalid JSON ('utf-8' codec can't decode "
                              "byte 0xff in position ")

    @pytest.mark.parametrize("source", ["input", "stdin"])
    def test_online_row_skipped(self, tmp_path, cli, monkeypatch, source):
        model = tmp_path / "model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor([PI]), s.ClassPrior([0.25, 0.75])), model)
        rows = ["item_id,m0_p0,m0_p1\n", "a,0.7,0.3\n", "b,0.6,0.4\n", "c,0.2,0.8\n"]
        clean, out = write(tmp_path / "clean.csv", "".join(rows)), tmp_path / "out.csv"
        assert cli("online", "--model", model, "--input", clean, "--out", out)[0] == 0
        want = out.read_bytes().splitlines(keepends=True)
        stream = self.spoil(write(tmp_path / "in.csv", "".join(rows)), b"b,", b"b\xff,")
        with open(stream, "rb") as stdin:
            if source == "stdin":
                monkeypatch.setattr(sys, "stdin", stdin)
            code, err = cli("online", "--model", model, "--out", out,
                            *(["--input", stream] if source == "input" else []))
        assert code == 1
        assert err.startswith("line 3: skipped (not UTF-8 text)\n")
        assert out.read_bytes().splitlines(keepends=True) == [want[0], want[1], want[3]]


class TestTraceFile:
    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "trace.csv", "iteration,q,alpha\n0,-1.5,0.001\n")
        with pytest.raises(FormatError) as got:
            s.FitTrace.load_csv(path)
        assert str(got.value) == f"{path}: header must be iteration,q,alpha,millis"

    @pytest.mark.parametrize("rows", ["0,-1.5,0.001,1\n0,-1.25,0.001,2\n",
                                      "1,-1.5,0.001,1\n0,-1.25,0.001,2\n"],
                             ids=["repeated", "decreasing"])
    def test_iterations_not_increasing_name_the_file(self, tmp_path, rows):
        path = write(tmp_path / "trace.csv", "iteration,q,alpha,millis\n" + rows)
        with pytest.raises(FormatError) as got:
            s.FitTrace.load_csv(path)
        assert str(got.value) == f"{path}: trace iterations must be strictly increasing"


SPEC = {"n_items": 4, "n_members": 1, "n_classes": 2, "nu_true": [0.5, 0.5],
        "pi_true": [PI], "seed": 0}


class TestSpecFile:
    @pytest.mark.parametrize("change, message", [
        ({"nu_true": [0.25, 0.25, 0.5]}, "nu_true length does not match n_classes"),
        ({"pi_true": [np.ones((3, 3)).tolist()]}, "pi_true shape does not match (K, J, J)"),
        ({"seed": None}, "generative spec needs keys ['n_classes', 'n_items', 'n_members', "
                         "'nu_true', 'pi_true', 'seed']"),
    ], ids=["nu_length", "pi_shape", "missing_key"])
    def test_exits_1_naming_the_file(self, tmp_path, cli, change, message):
        spec = {key: value for key, value in {**SPEC, **change}.items() if value is not None}
        path = write(tmp_path / "spec.json", spec)
        assert cli("simulate", "--spec", path, "--out-dir", tmp_path / "out") == (
            1, f"error: {path}: {message}\n")


class TestCommandLine:
    def test_zero_threads(self, tmp_path, cli, manifest):
        assert cli("aggregate", "--manifest", manifest, "--out", tmp_path / "post.csv",
                   "--threads", 0) == (1, "error: thread count must be >= 1\n")

    @pytest.mark.parametrize("flag, message", [
        ("--posterior", "--posterior and --truth must be given together"),
        ("--ood-in", "--ood-in and --ood-out must be given together"),
    ])
    def test_unpaired_flag(self, tmp_path, cli, flag, message):
        post = write(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.5,0.5\n")
        assert cli("evaluate", flag, post) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        ("", "nothing to evaluate: pass --posterior/--truth and/or --ood-in/--ood-out"),
        ("--ood-in p.csv --ood-out p.csv --ece-bins-out bins.csv --confusion-out c.json",
         "--ece-bins-out needs --posterior and --truth"),
        ("--ood-in p.csv --ood-out p.csv --confusion-out c.json",
         "--confusion-out needs --posterior and --truth"),
        ("--posterior p.csv --truth t.csv --manifest m.json",
         "--manifest needs --confusion-out"),
    ], ids=["nothing", "ece_bins_out", "confusion_out", "manifest"])
    def test_output_without_its_input(self, tmp_path, cli, monkeypatch, argv, message):
        # refused before any input is read: none of the files exists
        monkeypatch.chdir(tmp_path)
        assert cli("evaluate", *argv.split()) == (1, f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_confusion_of_members_with_other_ids(self, tmp_path, cli, manifest):
        post = write(tmp_path / "p.csv", "item_id,p_0,p_1\nx,0.9,0.1\ny,0.3,0.7\n")
        truth = write(tmp_path / "t.csv", "item_id,label\nx,0\ny,1\n")
        out = tmp_path / "conf.json"
        assert cli("evaluate", "--posterior", post, "--truth", truth, "--manifest", manifest,
                   "--confusion-out", out, "--out", tmp_path / "report.json") == (
            1, f"error: item ids of {manifest} and {truth} do not match\n")
        assert not out.exists()

    def test_confusion_of_the_posterior_without_a_manifest(self, tmp_path, cli):
        post = write(tmp_path / "p.csv", "item_id,p_0,p_1\na,0.9,0.1\nb,0.8,0.2\nc,0.3,0.7\n")
        truth = write(tmp_path / "t.csv", "item_id,label\na,0\nb,1\nc,1\n")
        out = tmp_path / "conf.json"
        code, _ = cli("evaluate", "--posterior", post, "--truth", truth,
                      "--confusion-out", out, "--out", tmp_path / "report.json")
        assert code == 0
        assert json.loads(out.read_text()) == {"members": [{"pi": [[1.0, 0.0], [0.5, 0.5]]}]}


class TestMetrics:
    POST = np.array([[0.9, 0.1], [0.4, 0.6]])

    @pytest.mark.parametrize("compute, message", [
        (lambda post: s.metrics.reliability_bins(post, [0, 1], n_bins=0),
         "n_bins must be >= 1"),
        (lambda post: s.accuracy(post, [0, 2]), "truth label outside [0, J)"),
        (lambda post: s.true_confusion(post, [0, 2]), "truth label outside [0, J)"),
        (lambda post: s.true_confusion(post, [0]), "2 items vs 1 truth labels"),
    ], ids=["no_bins", "label_outside", "confusion_label_outside", "confusion_length"])
    def test_rejects(self, compute, message):
        with pytest.raises(ValueError) as got:
            compute(self.POST)
        assert str(got.value) == message
