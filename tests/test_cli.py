"""Command-line surface: subcommands, exit codes, and file contracts."""

import json
import multiprocessing
import os
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest

import softds as s
from softds import cli, data, synth
from softds.cli import main
from util import diagonal_spec, run_python


@pytest.fixture
def sim_dir(tmp_path):
    """A simulated dataset written through the CLI."""
    spec = diagonal_spec(4.0, 0.3, seed=80, n_items=60, n_classes=3)
    spec_path = tmp_path / "spec.json"
    spec.to_json(spec_path)
    out_dir = tmp_path / "data"
    assert main(["simulate", "--spec", str(spec_path),
                 "--out-dir", str(out_dir)]) == 0
    return spec, out_dir


class TestSimulate:
    def test_outputs_load_back(self, sim_dir):
        _, out_dir = sim_dir
        preds = s.load_predictions(out_dir / "manifest.json")
        truth = s.load_ground_truth(out_dir / "truth.csv")
        assert preds.n_items == truth.n_items == 60
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["labels"] == "truth.csv"

    def test_byte_identical_reruns(self, tmp_path):
        spec = diagonal_spec(4.0, 0.3, seed=81, n_items=25, n_classes=3)
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert main(["simulate", "--spec", str(spec_path),
                         "--out-dir", str(d), "--bayes"]) == 0
        for name in ["manifest.json", "truth.csv", "member_0.csv",
                     "bayes_posterior.csv"]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("name, bayes, code", [
        ("manifest.json", False, 1),
        ("truth.csv", False, 1),
        ("member_0.csv", False, 1),
        ("member_1.csv", False, 1),
        ("bayes_posterior.csv", True, 1),
        ("spec.json", True, 0),
        ("member_2.csv", False, 0),
        ("bayes_posterior.csv", False, 0),
    ], ids=["manifest", "truth", "member_0", "member_1", "bayes", "spec", "member_2",
            "bayes_not_written"])
    def test_spec_among_the_outputs_exits_1(self, tmp_path, capsys, name, bayes, code):
        # K = 2: simulate writes member_0.csv and member_1.csv; a refusal
        # writes nothing, and no run overwrites the spec
        spec_path = tmp_path / name
        diagonal_spec(4.0, 0.3, seed=81, n_items=10, n_members=2, n_classes=3).to_json(spec_path)
        spec = spec_path.read_bytes()
        capsys.readouterr()
        assert main(["simulate", "--spec", str(spec_path), "--out-dir", str(tmp_path)]
                    + ["--bayes"] * bayes) == code
        if code:
            assert capsys.readouterr().err == f"error: --out-dir {spec_path} is the input file\n"
            assert list(tmp_path.iterdir()) == [spec_path]
        assert spec_path.read_bytes() == spec

    def test_rejects_empty_dataset(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        obj = {"n_items": 0, "n_members": 1, "n_classes": 2,
               "nu_true": [0.5, 0.5], "pi_true": [[[1.0, 1.0], [1.0, 1.0]]],
               "seed": 0}
        spec_path.write_text(json.dumps(obj))
        assert main(["simulate", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("field, value", [
        ("n_items", 7.9), ("n_members", True), ("seed", "5"),
        # the parameter arrays take JSON numbers only
        pytest.param("nu_true", ["0.5", 0.5], id="nu_numeric_string"),
        pytest.param("nu_true", [True, 0.0], id="nu_bool"),
        pytest.param("pi_true", [[[2.0, "1.0"], [1.0, 2.0]]], id="pi_numeric_string"),
        pytest.param("pi_true", [[[2.0, True], [1.0, 2.0]]], id="pi_bool"),
    ])
    def test_non_integer_count_exits_1(self, tmp_path, field, value):
        obj = {"n_items": 10, "n_members": 1, "n_classes": 2,
               "nu_true": [0.5, 0.5], "pi_true": [[[2.0, 1.0], [1.0, 2.0]]],
               "seed": 0, field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        assert main(["simulate", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 1

    def test_negative_seed_exits_1_naming_the_file(self, tmp_path, capsys):
        obj = {"n_items": 10, "n_members": 1, "n_classes": 2,
               "nu_true": [0.5, 0.5], "pi_true": [[[2.0, 1.0], [1.0, 2.0]]],
               "seed": -1}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(obj))
        assert main(["simulate", "--spec", str(spec_path),
                     "--out-dir", str(tmp_path / "x")]) == 1
        assert "spec.json: seed must be" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_draws_past_the_float_range_exit_3(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_items": 3, "n_members": 1, "n_classes": 2, "nu_true": [0.5, 0.5],
            "pi_true": [[[1e308, 1e308], [1e308, 1e308]]], "seed": 0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--spec", str(spec_path),
                         "--out-dir", str(tmp_path / "x")]) == 3
        assert caught == []
        assert capsys.readouterr().err == (
            "numeric error: item 0 member 0: Gamma draws sum past the float range\n")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_draw_leaves_no_data_files(self, tmp_path, monkeypatch, capsys, threads):
        # one item a block; at seed 2 items 0 and 1 are of class 0 and item
        # 2 of class 1, whose Gamma draws sum past the float range, so two
        # blocks are written before the failure
        monkeypatch.setattr(synth, "_BLOCK_ITEMS", 1)
        monkeypatch.setenv("SOFTDS_THREADS", threads)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "n_items": 20, "n_members": 2, "n_classes": 2, "nu_true": [0.5, 0.5],
            "pi_true": [[[2.0, 2.0], [1e308, 1e308]]] * 2, "seed": 2}))
        out = tmp_path / "x"
        assert main(["simulate", "--spec", str(spec_path), "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric error: item 2 member 0: Gamma draws sum past the float range\n")
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_failed_oracle_leaves_no_file(self, tmp_path, monkeypatch, capsys, threads):
        # one item a block; the oracle fails on item 2, after two blocks
        # of every file are written
        monkeypatch.setattr(synth, "_BLOCK_ITEMS", 1)
        monkeypatch.setenv("SOFTDS_THREADS", threads)
        oracle = synth.bayes_posterior

        def failing(spec, preds):
            if preds.item_ids == ["2"]:
                raise s.NumericError("oracle failed")
            return oracle(spec, preds)

        monkeypatch.setattr(synth, "bayes_posterior", failing)
        spec_path = tmp_path / "spec.json"
        diagonal_spec(3.0, 0.4, seed=83, n_items=6, n_classes=3).to_json(spec_path)
        out = tmp_path / "x"
        assert main(["simulate", "--spec", str(spec_path), "--out-dir", str(out),
                     "--bayes"]) == 3
        assert capsys.readouterr().err == "numeric error: oracle failed\n"
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []

    def test_seed_flag_is_a_usage_error(self, tmp_path):
        # the spec file carries the seed; there is no override
        spec_path = tmp_path / "spec.json"
        diagonal_spec(4.0, 0.3, seed=0, n_items=5, n_classes=3).to_json(spec_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--spec", str(spec_path),
                  "--out-dir", str(tmp_path / "x"), "--seed", "3"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_same_files_at_any_worker_count(self, tmp_path, monkeypatch):
        # 2100 items make three sampler blocks; each block's task formats
        # its oracle rows, which match the oracle over the whole set
        spec = diagonal_spec(3.0, 0.4, seed=82, n_items=2100, n_classes=3)
        spec_path = tmp_path / "spec.json"
        spec.to_json(spec_path)
        oracle = tmp_path / "oracle.csv"
        s.save_posterior(s.bayes_posterior(spec, s.sample(spec)[0]), oracle)
        for bayes in ([], ["--bayes"]):
            trees = []
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("SOFTDS_THREADS", threads)
                out = tmp_path / f"{threads}{len(bayes)}"
                assert main(["simulate", "--spec", str(spec_path),
                             "--out-dir", str(out), *bayes]) == 0
                assert multiprocessing.active_children() == []
                trees.append({p.name: p.read_bytes() for p in out.iterdir()})
            assert len(trees[0]) == 5 + len(bayes)
            assert trees[0] == trees[1] == trees[2]
        assert trees[0]["bayes_posterior.csv"] == oracle.read_bytes()

    def test_out_dir_below_a_file_exits_2_before_drawing(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "spec.json"
        diagonal_spec(3.0, 0.4, seed=84, n_items=30, n_classes=3).to_json(spec_path)
        blocker = tmp_path / "file"
        blocker.write_text("")

        def no_draw(*_):
            raise AssertionError("drawn before the output files were created")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = blocker / "out"
        assert main(["simulate", "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"i/o error: [Errno 20] Not a directory: '{out}'\n"

    def test_io_error_on_a_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        spec_path = tmp_path / "spec.json"
        diagonal_spec(3.0, 0.4, seed=83, n_items=30, n_classes=3).to_json(spec_path)
        for threads in ("1", "2"):
            monkeypatch.setenv("SOFTDS_THREADS", threads)
            bad = tmp_path / threads / "member_1.csv"
            bad.mkdir(parents=True)
            assert main(["simulate", "--spec", str(spec_path),
                         "--out-dir", str(bad.parent)]) == 2
            assert multiprocessing.active_children() == []
            assert capsys.readouterr().err == f"i/o error: [Errno 21] Is a directory: '{bad}'\n"


LONG_FIELD = "x" * 200_000
FIELD_LIMIT = "field larger than field limit (131072)"


def write_members(out_dir, ids_of, rows_of):
    """Member files ``member_<k>.csv`` of ``ids_of[k]`` and ``rows_of[k]``
    and a manifest listing them; returns the manifest path."""
    out_dir.mkdir()
    for k, (ids, rows) in enumerate(zip(ids_of, rows_of)):
        data._write_prob_file(out_dir / f"member_{k}.csv", ids, np.asarray(rows, dtype=float))
    return data._save_manifest(str(out_dir), 2, len(ids_of), None)


class TestAggregateWorkers:
    """``aggregate`` parses the member files and formats the posterior on
    forked workers: the same bytes and the same failures for any count,
    and no worker left behind."""

    @pytest.mark.parametrize("method", ["sds", "ea", "mv", "ds"])
    def test_same_files_at_one_and_two_workers(self, sim_dir, tmp_path, monkeypatch, method):
        # ten rows a block, so that the posterior spans six blocks
        monkeypatch.setattr(data, "_BLOCK_CELLS", 30)
        _, out_dir = sim_dir
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            out.mkdir()
            assert main(["aggregate", "--method", method, "--threads", threads,
                         "--manifest", str(out_dir / "manifest.json"),
                         "--out", str(out / "post.csv")]) == 0
            assert multiprocessing.active_children() == []
            tree = {p.name: p.read_bytes() for p in out.iterdir()}
            if method == "sds":
                # every column of the trace but its timings
                tree["post.trace.csv"] = [line.rsplit(b",", 1)[0] for line in
                                          tree["post.trace.csv"].splitlines()]
            trees.append(tree)
        assert len(trees[0]) == (3 if method == "sds" else 1)
        assert trees[0] == trees[1]

    @pytest.mark.parametrize("case", ["missing", "bad_row", "disagree", "duplicates",
                                      "first_in_manifest_order"])
    def test_same_failure_at_one_and_two_workers(self, tmp_path, capsys, case):
        rows = [[0.5, 0.5], [0.25, 0.75], [0.9, 0.1]]
        ids_of = [["a", "b", "c"]] * 3
        if case in ("bad_row", "first_in_manifest_order"):
            rows_of = [rows, rows, [rows[0], [0.5, 0.2], rows[2]]]
        else:
            rows_of = [rows] * 3
        if case in ("disagree", "first_in_manifest_order"):
            ids_of = [ids_of[0], ["a", "b", "d"], ids_of[2]]
        elif case == "duplicates":
            ids_of = [["a", "a", "b"], ["b", "a", "a"], ["a", "a", "b"]]
        manifest = write_members(tmp_path / "in", ids_of, rows_of)
        member = [tmp_path / "in" / f"member_{k}.csv" for k in range(3)]
        if case == "missing":
            member[2].unlink()
        want = {
            "missing": (2, f"i/o error: [Errno 2] No such file or directory: '{member[2]}'"),
            "bad_row": (1, f"error: {member[2]}, line 3: probabilities sum to 0.700000 "
                           f"(tolerance 0.001)"),
            "disagree": (1, f"error: {member[1]}: item ids disagree with member_0.csv"),
            "duplicates": (1, f"error: {member[1]}: duplicate item ids cannot be re-aligned"),
            # member 2's bad row may be parsed first, but member 1 is
            # reported, as a serial load reports it
            "first_in_manifest_order": (
                1, f"error: {member[1]}: item ids disagree with member_0.csv"),
        }[case]
        for threads in ("1", "2"):
            code = main(["aggregate", "--method", "ea", "--threads", threads,
                         "--manifest", str(manifest), "--out", str(tmp_path / "post.csv")])
            assert multiprocessing.active_children() == []
            assert (code, capsys.readouterr().err) == (want[0], want[1] + "\n")
            assert not (tmp_path / "post.csv").exists()

    @pytest.mark.parametrize("stage, function", [("load", "_parse_prob_file"),
                                                 ("write", "_csv_line")])
    def test_dead_worker_exits_2(self, sim_dir, tmp_path, stage, function):
        # in a child interpreter (see run_python); the function dies in a
        # worker process only
        _, out_dir = sim_dir
        code = (
            "import multiprocessing, os, sys\n"
            "from softds import cli, data\n"
            "parent, real = os.getpid(), data.FUNCTION\n"
            "def dying(*args, **kwargs):\n"
            "    if os.getpid() != parent:\n"
            "        os._exit(1)\n"
            "    return real(*args, **kwargs)\n"
            "data.FUNCTION, data._BLOCK_CELLS = dying, 30\n"
            "code = cli.main(['aggregate', '--method', 'ea', '--threads', '2',\n"
            "                 '--manifest', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, multiprocessing.active_children())\n").replace("FUNCTION", function)
        done = run_python(code, out_dir / "manifest.json", tmp_path / "post.csv")
        assert (done.returncode, done.stdout) == (0, "2 []\n"), done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == (1 if stage == "load" else 2)
        assert lines[-1] == ("worker error: A process in the process pool was terminated "
                             "abruptly while the future was running or pending.")
        # the posterior's header was written before its worker died
        assert not (tmp_path / "post.csv").exists()


class TestOverlongFieldExits1:
    """A table whose field is over ``csv``'s limit is a validation error
    naming the file and the line, not a traceback."""

    @pytest.mark.parametrize("bad, line", [("posterior", 3), ("truth", 1)])
    def test_evaluate(self, tmp_path, capsys, bad, line):
        post = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        post.write_text("item_id,p_0,p_1\na,0.5,0.5\n"
                        + (f"b,{LONG_FIELD},0.5\n" if bad == "posterior" else ""))
        truth.write_text("item_id,label" + (f",{LONG_FIELD}" if bad == "truth" else "")
                         + "\na,0\n")
        assert main(["evaluate", "--posterior", str(post), "--truth", str(truth)]) == 1
        err = capsys.readouterr().err
        path = post if bad == "posterior" else truth
        assert f"error: {path}, line {line}: {FIELD_LIMIT}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [1, 3])
    def test_aggregate_ea(self, tmp_path, capsys, line):
        member = tmp_path / "m0.csv"
        if line == 1:
            member.write_text(f"item_id,p_0,p_1,{LONG_FIELD}\na,0.5,0.5\n")
        else:
            member.write_text(f"item_id,p_0,p_1\na,0.5,0.5\n\nb,0.5,{LONG_FIELD}\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"n_classes": 2, "members": ["m0.csv"]}))
        assert main(["aggregate", "--method", "ea", "--manifest", str(manifest),
                     "--out", str(tmp_path / "post.csv")]) == 1
        err = capsys.readouterr().err
        assert f"error: {member}, line {line}: {FIELD_LIMIT}" in err
        assert "Traceback" not in err

    def test_evaluate_item_id(self, tmp_path, capsys):
        # np.loadtxt reads this posterior; csv.reader rejects its second id
        post = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        post.write_text(f"item_id,p_0,p_1\na,0.5,0.5\n{LONG_FIELD},0.5,0.5\n")
        truth.write_text("item_id,label\na,0\n")
        assert main(["evaluate", "--posterior", str(post), "--truth", str(truth)]) == 1
        err = capsys.readouterr().err
        assert f"error: {post}, line 3: {FIELD_LIMIT}" in err
        assert "Traceback" not in err


class TestAggregate:
    def test_ensemble_average(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        out = tmp_path / "post_ea.csv"
        assert main(["aggregate", "--method", "ea",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(out)]) == 0
        post = s.load_posterior(out)
        preds = s.load_predictions(out_dir / "manifest.json")
        assert np.array_equal(post.rows, s.ensemble_average(preds).rows)

    def test_majority_vote_and_ds(self, sim_dir, tmp_path):
        # ids that differ from the default 0..N-1, so a lost id shows
        _, out_dir = sim_dir
        sim = s.load_predictions(out_dir / "manifest.json")
        preds = s.PredictionSet(sim.probs, [f"img-{i:03d}" for i in range(59, -1, -1)])
        manifest = s.save_predictions(preds, tmp_path / "named")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 7}))
        outs = tmp_path / "outs"
        outs.mkdir()
        for method in ("mv", "ds"):
            out = outs / f"post_{method}.csv"
            assert main(["aggregate", "--method", method, "--manifest", str(manifest),
                         "--config", str(cfg), "--out", str(out)]) == 0
            assert s.load_posterior(out).item_ids == preds.item_ids
        assert np.array_equal(s.load_posterior(outs / "post_mv.csv").rows,
                              s.majority_vote(preds).rows)
        # ds_em with its default smoothing, for the config's em_iterations
        want = tmp_path / "want_ds.csv"
        s.save_posterior(s.ds_em(preds, 7)[2], want)
        assert (outs / "post_ds.csv").read_bytes() == want.read_bytes()
        # the baselines write the posterior alone
        assert sorted(p.name for p in outs.iterdir()) == ["post_ds.csv", "post_mv.csv"]

    @staticmethod
    def assert_usage_error(sim_dir, tmp_path, capsys, method, option):
        """``aggregate --method method option PATH`` is an argparse usage
        error (exit 2) that writes nothing."""
        _, out_dir = sim_dir
        outs = tmp_path / "outs"
        outs.mkdir()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", "--method", method,
                  "--manifest", str(out_dir / "manifest.json"),
                  option, str(outs / "extra"), "--out", str(outs / "post.csv")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} " in capsys.readouterr().err
        assert list(outs.iterdir()) == []

    @pytest.mark.parametrize("option", ["--model-out", "--trace-out"])
    @pytest.mark.parametrize("method", ["ea", "mv", "ds"])
    def test_sds_outputs_rejected_for_baselines(self, sim_dir, tmp_path, capsys,
                                                method, option):
        self.assert_usage_error(sim_dir, tmp_path, capsys, method, option)

    @pytest.mark.parametrize("option", ["--model-out", "--trace-out"])
    def test_output_path_options_are_usage_errors(self, sim_dir, tmp_path, capsys,
                                                  option):
        # sds writes its model and trace beside --out, with no override
        self.assert_usage_error(sim_dir, tmp_path, capsys, "sds", option)

    def test_sds_emits_model_and_trace(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        out = tmp_path / "post.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 5}))
        assert main(["aggregate", "--method", "sds",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert s.load_posterior(out).n_items == 60
        model = s.load_model(tmp_path / "post.model.json")
        assert model.n_classes == 3
        trace = s.FitTrace.load_csv(tmp_path / "post.trace.csv")
        assert len(trace) == 5

    @pytest.mark.parametrize("method", ["sds", "ea"])
    def test_stage_times_on_stderr(self, sim_dir, tmp_path, capsys, method):
        _, out_dir = sim_dir
        out = tmp_path / "post.csv"
        capsys.readouterr()
        assert main(["aggregate", "--method", method, "--threads", "1",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert re.search(r"^loaded 60 items x 3 members x 3 classes in \d+\.\d{3} s$",
                         err, re.M)
        assert re.search(rf"^posterior -> {re.escape(str(out))} "
                         r"\(fit \d+\.\d{3} s, write \d+\.\d{3} s\)$", err, re.M)
        assert (re.search(r"^model -> .*final q=", err, re.M) is not None) == \
            (method == "sds")

    def test_missing_member_file_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"n_classes": 2,
                                        "members": ["absent.csv"]}))
        code = main(["aggregate", "--method", "ea", "--manifest",
                     str(manifest), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("method,config,code", [
        ("sds", {"em_iterations": 0}, 1),
        ("sds", {"learning_rate": float("nan")}, 1),
        # pi overflows in the first AdamW step: a numeric failure
        ("sds", {"learning_rate": 1e308, "em_iterations": 3}, 3),
        # the fit is deterministic and has no seed
        ("sds", {"seed": 0}, 1),
        # the probability floor is a constant, not a field
        ("sds", {"prob_floor": 1e-5}, 1),
        ("sds", {"em_iterations": 5.5}, 1),
        ("sds", {"learning_rate": "0.1"}, 1),
        ("sds", {"em_iterations": True}, 1),
        # one alpha damps every iteration: a schedule, in any form, is an
        # unknown field
        ("sds", {"alpha_schedule": [[0.7, 0.5]]}, 1),
        ("sds", {"alpha_schedule": [[0, "0.5"]]}, 1),
        ("sds", {"alpha_schedule": [[0, 0.5], [3, True]]}, 1),
        ("sds", {"alpha": "0.5"}, 1),
        ("sds", {"alpha": True}, 1),
        # the start's scale and smoothing and the confusion floor are
        # constants, not config fields
        ("sds", {"pi_floor": 1e308}, 1),
        ("sds", {"ds_init_smoothing": 1e308}, 1),
        ("sds", {"ds_init_concentration": 1e308}, 1),
        # the AdamW constants are not config fields
        ("sds", {"inner_steps": 1}, 1),
        ("sds", {"weight_decay": float("inf"), "em_iterations": 3}, 1),
        ("sds", {"adam_beta1": 1.0}, 1),
        ("sds", {"adam_beta2": -5.0}, 1),
        ("sds", {"adam_epsilon": -1.0}, 1),
        # ds takes ds_em's default smoothing, not one from the config
        ("ds", {"ds_init_smoothing": 1e308}, 1),
    ], ids=["em_iterations_zero", "learning_rate_nan",
            "learning_rate_overflow", "seed_unknown", "prob_floor_unknown",
            "em_iterations_float", "learning_rate_string", "em_iterations_bool",
            "schedule_start_float", "schedule_alpha_string", "schedule_alpha_bool",
            "alpha_string", "alpha_bool",
            "pi_floor_overflow", "ds_init_smoothing_overflow",
            "ds_init_concentration_overflow", "inner_steps_unknown",
            "weight_decay_inf", "adam_beta1_unknown",
            "adam_beta2_unknown", "adam_epsilon_unknown",
            "ds_method_smoothing_overflow"])
    def test_bad_config_exit_code(self, sim_dir, tmp_path, method, config, code):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # recorded here, a RuntimeWarning would print to stderr outside pytest
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["aggregate", "--method", method,
                         "--manifest", str(out_dir / "manifest.json"),
                         "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")]) == code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sds_files_equal_public_fit(self, tmp_path, threads):
        # the CLI fits the loaded array in place, a chunk at a time; the
        # public fit copies it
        probs = np.random.default_rng(97).dirichlet(np.ones(2), size=(12000, 3))
        assert len(s.sds._chunks(*probs.shape)) >= 2
        manifest = s.save_predictions(s.PredictionSet.from_probs(probs), tmp_path / "data")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 6}))
        out = tmp_path / "post.csv"
        assert main(["aggregate", "--method", "sds", "--manifest", str(manifest),
                     "--config", str(cfg), "--threads", threads,
                     "--out", str(out)]) == 0
        model, post, trace = s.fit(s.load_predictions(manifest),
                                   s.SdsConfig.from_json(cfg), threads=int(threads))
        s.save_posterior(post, tmp_path / "want.csv")
        s.save_model(model, tmp_path / "want.model.json")
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert (tmp_path / "post.model.json").read_bytes() == \
            (tmp_path / "want.model.json").read_bytes()
        got_q = s.FitTrace.load_csv(tmp_path / "post.trace.csv").q
        assert got_q.tobytes() == trace.q.tobytes()

    def test_thread_counts_agree(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 4}))
        outs = []
        for threads in ("1", "8"):
            out = tmp_path / f"post_t{threads}.csv"
            assert main(["aggregate", "--method", "sds",
                         "--manifest", str(out_dir / "manifest.json"),
                         "--config", str(cfg), "--threads", threads,
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_default_threads_are_the_cpus_this_process_may_run_on(self):
        if len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2:
            pytest.skip("needs a process that may run on two CPUs")
        # in a child interpreter (see run_python), which limits itself to
        # one CPU
        done = run_python(
            "import os\n"
            "from softds.cli import _resolve_threads\n"
            "os.environ.pop('SOFTDS_THREADS', None)\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(_resolve_threads(None), os.cpu_count() > 1)\n")
        assert (done.returncode, done.stdout) == (0, "1 True\n"), done.stderr

    def test_out_naming_a_directory_exits_2_and_keeps_it(self, sim_dir, tmp_path, capsys):
        _, out_dir = sim_dir
        out = tmp_path / "post.csv"
        out.mkdir()
        (out / "kept").write_text("x")
        assert main(["aggregate", "--method", "ea", "--manifest",
                     str(out_dir / "manifest.json"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"i/o error: [Errno 21] Is a directory: '{out}'")
        assert (out / "kept").read_text() == "x"

    def test_out_in_a_missing_directory_exits_2_before_the_load(self, sim_dir, tmp_path,
                                                                 capsys):
        _, out_dir = sim_dir
        missing = tmp_path / "missing"
        assert main(["aggregate", "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(missing / "post.csv")]) == 2
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: '{missing}'\n")
        assert not missing.exists()

    def test_env_var_thread_fallback(self, sim_dir, tmp_path, monkeypatch):
        _, out_dir = sim_dir
        monkeypatch.setenv("SOFTDS_THREADS", "2")
        assert main(["aggregate", "--method", "ea",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(tmp_path / "o.csv")]) == 0
        monkeypatch.setenv("SOFTDS_THREADS", "zero")
        assert main(["aggregate", "--method", "ea",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(tmp_path / "o2.csv")]) == 1


class TestEvaluate:
    def test_perfect_posterior(self, tmp_path, capsys):
        truth = s.GroundTruth(np.array([0, 1, 2]), ["a", "b", "c"])
        rows = np.zeros((3, 3))
        rows[np.arange(3), truth.labels] = 1.0
        post = s.PosteriorMatrix(rows, ["a", "b", "c"])
        s.save_posterior(post, tmp_path / "p.csv")
        s.save_ground_truth(truth, tmp_path / "t.csv")
        assert main(["evaluate", "--posterior", str(tmp_path / "p.csv"),
                     "--truth", str(tmp_path / "t.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy"] == 1.0
        assert report["ece"] == 0.0
        assert report["brier"] == 0.0
        assert report["nll"] == 0.0
        assert report["n_items"] == 3

    def test_uniform_thousand_class_anchor(self, tmp_path, capsys):
        n = 5
        rows = np.full((n, 1000), 1.0 / 1000)
        ids = [str(i) for i in range(n)]
        s.save_posterior(s.PosteriorMatrix(rows, ids), tmp_path / "p.csv")
        s.save_ground_truth(s.GroundTruth(np.arange(n), ids), tmp_path / "t.csv")
        assert main(["evaluate", "--posterior", str(tmp_path / "p.csv"),
                     "--truth", str(tmp_path / "t.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["brier"] == pytest.approx(0.999, abs=1e-12)
        assert report["nll"] == pytest.approx(np.log(1000.0), abs=1e-9)

    def test_id_mismatch_exits_1(self, tmp_path):
        rows = np.array([[1.0, 0.0]])
        s.save_posterior(s.PosteriorMatrix(rows, ["a"]), tmp_path / "p.csv")
        s.save_ground_truth(s.GroundTruth(np.array([0]), ["b"]),
                            tmp_path / "t.csv")
        assert main(["evaluate", "--posterior", str(tmp_path / "p.csv"),
                     "--truth", str(tmp_path / "t.csv")]) == 1

    def test_ood_pair(self, tmp_path, capsys):
        sharp = np.zeros((4, 3))
        sharp[:, 0] = 0.9
        sharp[:, 1:] = 0.05
        flat = np.full((4, 3), 1.0 / 3)
        s.save_posterior(s.PosteriorMatrix(sharp), tmp_path / "in.csv")
        s.save_posterior(s.PosteriorMatrix(flat), tmp_path / "out.csv")
        assert main(["evaluate", "--ood-in", str(tmp_path / "in.csv"),
                     "--ood-out", str(tmp_path / "out.csv"),
                     "--ood-score", "entropy"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["auroc"] == 1.0

    def test_ece_bins_and_confusion_outputs(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        post_path = tmp_path / "p.csv"
        assert main(["aggregate", "--method", "ea",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(post_path)]) == 0
        bins_path = tmp_path / "bins.csv"
        conf_path = tmp_path / "conf.json"
        assert main(["evaluate", "--posterior", str(post_path),
                     "--truth", str(out_dir / "truth.csv"),
                     "--bins", "20", "--ece-bins-out", str(bins_path),
                     "--confusion-out", str(conf_path),
                     "--manifest", str(out_dir / "manifest.json"),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert len(bins_path.read_text().strip().splitlines()) == 21
        conf = json.loads(conf_path.read_text())
        assert len(conf["members"]) == 3  # one confusion matrix per member
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report) >= {"accuracy", "ece", "brier", "nll", "n_items"}

    def test_nothing_to_do_exits_1(self):
        assert main(["evaluate"]) == 1

    @pytest.mark.parametrize("row, expected", [
        ("0.0,1.0000000005", {"accuracy": 0.0, "ece": 1.0, "brier": 2.0}),
        ("1.0000000005,0.0", {"accuracy": 1.0, "ece": 0.0, "brier": 0.0, "nll": 0.0}),
    ], ids=["wrong", "right"])
    def test_entry_past_one_within_row_tolerance(self, tmp_path, capsys, row, expected):
        # a row may sum to 1 within 1e-9, so an entry may exceed 1 by as
        # much; the metrics read it as 1 and stay in their ranges
        (tmp_path / "p.csv").write_text(f"item_id,p_0,p_1\na,{row}\n")
        (tmp_path / "t.csv").write_text("item_id,label\na,0\n")
        assert main(["evaluate", "--posterior", str(tmp_path / "p.csv"),
                     "--truth", str(tmp_path / "t.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {name: report[name] for name in expected} == expected


class TestOnline:
    @pytest.fixture
    def fitted(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 5}))
        post_path = tmp_path / "post.csv"
        assert main(["aggregate", "--method", "sds",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(post_path)]) == 0
        return out_dir, tmp_path / "post.model.json"

    @staticmethod
    def make_stream(preds, path, item_range):
        k, j = preds.n_members, preds.n_classes
        header = ["item_id"] + [f"m{m}_p{c}" for m in range(k) for c in range(j)]
        lines = [",".join(header)]
        for i in item_range:
            vals = [repr(float(v)) for v in preds.probs[i].ravel()]
            lines.append(",".join([preds.item_ids[i]] + vals))
        path.write_text("\n".join(lines) + "\n")

    def test_stream_matches_batch(self, fitted, tmp_path):
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        model = s.load_model(model_path)
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(10))
        stream_out = tmp_path / "stream_post.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 0
        got = s.load_posterior(stream_out)
        batch = s.e_step_raw(preds, model)
        assert np.array_equal(got.rows, batch.rows[:10])

    def test_empty_stream_ok(self, fitted, tmp_path, capsys):
        _, model_path = fitted
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["online", "--model", str(model_path),
                     "--input", str(empty),
                     "--out", str(tmp_path / "o.csv")]) == 0
        assert (tmp_path / "o.csv").read_text() == ""
        assert "online: 0 rows written, 0 skipped" in capsys.readouterr().err

    def test_header_only_stream_writes_the_header(self, fitted, tmp_path, capsys):
        # the output header is written as soon as line 1 is read
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(0))
        out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(out)]) == 0
        j = preds.n_classes
        assert out.read_bytes() == (",".join(["item_id"] + [f"p_{c}" for c in range(j)])
                                    + "\r\n").encode()
        assert "online: 0 rows written, 0 skipped" in capsys.readouterr().err

    def test_malformed_row_skipped(self, fitted, tmp_path, capsys):
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(3))
        with open(stream_in, "a", encoding="utf-8") as fh:
            fh.write("bad,0.5,0.5\n")  # wrong column count
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 1
        err = capsys.readouterr().err
        assert "line 5: skipped" in err
        assert re.search(r"^online: 3 rows written, 1 skipped in \d+\.\d{3} s "
                         r"\(\d+ rows/s\)$", err, re.M)
        assert s.load_posterior(stream_out).n_items == 3

    def test_blank_lines_skipped(self, fitted, tmp_path, capsys):
        # as in a member CSV, blank records are neither rows nor numbered
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        batch = s.e_step_raw(preds, s.load_model(model_path)).rows
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(3))
        lines = stream_in.read_text().splitlines()
        stream_in.write_text("\n\n".join(lines) + "\n\n\n")
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 0
        assert "online: 3 rows written, 0 skipped" in capsys.readouterr().err
        assert np.array_equal(s.load_posterior(stream_out).rows, batch[:3])

        stream_in.write_text("\n\n".join(lines[:2] + ["bad,0.5,0.5"] + lines[2:]) + "\n")
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 1
        err = capsys.readouterr().err
        assert "line 3: skipped (expected" in err
        assert "online: 3 rows written, 1 skipped" in err

        stream_in.write_text("\n" + "\n".join(lines) + "\n")  # a blank header
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 1
        assert "line 1: bad header" in capsys.readouterr().err

    def test_numbers_parse_as_in_member_files(self, fitted, tmp_path, capsys):
        # digit-group underscores and non-ASCII digits are not numbers in a
        # member CSV, so not on the stream either; valid rows are written
        # as save_posterior writes their batch rows
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(2))
        header, row0, row1 = stream_in.read_text(encoding="utf-8").splitlines()
        member = ",0.25,0.25,0.5"
        stream_in.write_text("\n".join([
            header, row0, "a,0.2_5,0.25,0.5" + member * 2,
            row1, "b,\u0660.25,0.25,0.5" + member * 2]) + "\n", encoding="utf-8")
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 1
        err = capsys.readouterr().err
        assert "line 3: skipped" in err and "line 5: skipped" in err
        assert "online: 2 rows written, 2 skipped" in err
        batch = s.e_step_raw(preds, s.load_model(model_path))
        s.save_posterior(s.PosteriorMatrix(batch.rows[:2], batch.item_ids[:2]),
                         tmp_path / "batch.csv")
        assert stream_out.read_bytes() == (tmp_path / "batch.csv").read_bytes()

    def test_unwritable_output_exits_2(self, fitted, tmp_path, capsys):
        # the input file is closed although the output cannot be opened
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(1))
        assert main(["online", "--model", str(model_path), "--input", str(stream_in),
                     "--out", str(tmp_path / "absent" / "o.csv")]) == 2
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("same", ["path", "link", "stdin"])
    def test_output_naming_the_input_exits_1(self, fitted, tmp_path, capsys, monkeypatch,
                                             same):
        # checked before the output is opened, which would truncate the input
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(3))
        before = stream_in.read_bytes()
        out, source = stream_in, ["--input", str(stream_in)]
        if same == "link":
            out = tmp_path / "link.csv"
            out.symlink_to(stream_in)
        with open(stream_in, newline="", encoding="utf-8") as stdin:
            if same == "stdin":
                # as in softds online --out stream.csv < stream.csv
                monkeypatch.setattr(sys, "stdin", stdin)
                source = []
            assert main(["online", "--model", str(model_path), *source,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out {out} is the input file\n"
        assert stream_in.read_bytes() == before

    def test_overlong_field_row_skipped(self, fitted, tmp_path, capsys):
        # past csv's 131072-character field limit, then a valid row
        out_dir, model_path = fitted
        preds = s.load_predictions(out_dir / "manifest.json")
        stream_in = tmp_path / "stream.csv"
        self.make_stream(preds, stream_in, range(1))
        text = stream_in.read_text().splitlines()
        long_row = "x" * 200_000 + text[1][text[1].index(","):]
        stream_in.write_text("\n".join([text[0], long_row, text[1]]) + "\n")
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 1
        err = capsys.readouterr().err
        assert "line 2: skipped (field larger than field limit" in err
        assert "online: 1 rows written, 1 skipped" in err
        got = s.load_posterior(stream_out)
        assert got.item_ids == [preds.item_ids[0]]
        batch = s.e_step_raw(preds, s.load_model(model_path)).rows
        assert np.array_equal(got.rows, batch[:1])

    def test_records_numbered_as_in_tables(self, tmp_path, capsys):
        # one text read as a posterior table and as a K=1, J=2 stream,
        # whose rows both have 3 columns: a blank record (not numbered), a
        # quoted id over two physical lines, then a short row on line 4
        # and an over-long field on line 5
        model_path = tmp_path / "m.model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.array([[[4.0, 1.0], [1.0, 4.0]]])),
                                s.ClassPrior(np.array([0.5, 0.5]))), model_path)
        short, long = "d,0.5", f"e,{LONG_FIELD},0.5"

        def text(header, row4, row5):
            return "\r\n".join([header, "", "a,0.5,0.5", '"b\r\nc",0.25,0.75', row4,
                                row5, "f,1,0"]) + "\r\n"

        table = tmp_path / "p.csv"
        messages = {}
        for line, rows in ((4, (short, "e,0.5,0.5")), (5, ("d,0.5,0.5", long))):
            table.write_text(text("item_id,p_0,p_1", *rows), newline="")
            with pytest.raises(s.FormatError) as got:
                s.load_posterior(table)
            prefix = f"{table}, line {line}: "
            assert str(got.value).startswith(prefix)
            messages[line] = str(got.value)[len(prefix):]
        assert messages == {4: "expected 3 columns, found 2 (missing column?)",
                            5: FIELD_LIMIT}
        table.write_text(text("item_id,p_0,p_1", "d,0.5,0.5", "e,0.5,0.5"), newline="")
        assert s.load_posterior(table).item_ids == ["a", "b\r\nc", "d", "e", "f"]

        stream = tmp_path / "stream.csv"
        stream.write_text(text("item_id,m0_p0,m0_p1", short, long), newline="")
        out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path), "--input", str(stream),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        for line, message in messages.items():
            assert f"line {line}: skipped ({message})" in err
        assert "online: 3 rows written, 2 skipped" in err
        assert s.load_posterior(out).item_ids == ["a", "b\r\nc", "f"]

    def test_non_numeric_field_as_in_tables(self, tmp_path, capsys):
        # one text read as a posterior table and as a K=1, J=2 stream
        model_path = tmp_path / "m.model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.array([[[4.0, 1.0], [1.0, 4.0]]])),
                                s.ClassPrior(np.array([0.5, 0.5]))), model_path)
        body = "a,0.5,0.5\nb,abc,0.5\nc,0.25,0.75\n"
        table = tmp_path / "p.csv"
        table.write_text("item_id,p_0,p_1\n" + body)
        with pytest.raises(s.FormatError) as got:
            s.load_posterior(table)
        assert str(got.value) == f"{table}, line 3: non-numeric probability"

        stream = tmp_path / "stream.csv"
        stream.write_text("item_id,m0_p0,m0_p1\n" + body)
        out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path), "--input", str(stream),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 3: skipped (non-numeric probability)\n" in err
        assert s.load_posterior(out).item_ids == ["a", "c"]

    def test_huge_log_weights_exit_3(self, tmp_path):
        # ln J is lost when added to log weights of ~1e287, so the row
        # cannot be normalized: a numeric failure, and no row is written
        model_path = tmp_path / "huge.model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.full((1, 2, 2), 1e300)),
                                s.ClassPrior(np.array([0.5, 0.5]))), model_path)
        stream_in = tmp_path / "stream.csv"
        stream_in.write_text("item_id,m0_p0,m0_p1\na,0.5,0.5\n")
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 3
        assert stream_out.read_text() == "item_id,p_0,p_1\n"

    def test_overflowing_normalizer_exits_3(self, tmp_path, capsys):
        # ln Gamma(1e306) overflows, though the rows of pi sum inside the
        # float range
        model_path = tmp_path / "huge.model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.full((1, 2, 2), 1e306)),
                                s.ClassPrior(np.array([0.5, 0.5]))), model_path)
        stream_in = tmp_path / "stream.csv"
        stream_in.write_text("item_id,m0_p0,m0_p1\na,0.5,0.5\n")
        capsys.readouterr()
        assert main(["online", "--model", str(model_path), "--input", str(stream_in),
                     "--out", str(tmp_path / "o.csv")]) == 3
        assert capsys.readouterr().err == ("numeric error: log-Gamma normalizer of the "
                                           "confusion tensor is not finite\n")


class TestExplain:
    def test_decomposition_matches_posterior(self, sim_dir, tmp_path, capsys):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 5}))
        post_path = tmp_path / "post.csv"
        assert main(["aggregate", "--method", "sds",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(post_path)]) == 0
        assert main(["explain", "--model", str(tmp_path / "post.model.json"),
                     "--manifest", str(out_dir / "manifest.json"),
                     "--item", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        total = (np.array(payload["log_prior"])
                 + np.array(payload["member_evidence"]).sum(axis=0)
                 + np.array(payload["member_normalizer"]).sum(axis=0))
        np.testing.assert_allclose(total, payload["log_weights"], atol=1e-10)
        post = s.load_posterior(post_path)
        idx = post.item_ids.index("4")
        assert np.argmax(payload["posterior"]) == np.argmax(post.rows[idx])

    def test_unknown_item_exits_1(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 2}))
        assert main(["aggregate", "--method", "sds",
                     "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "post.csv")]) == 0
        assert main(["explain", "--model", str(tmp_path / "post.model.json"),
                     "--manifest", str(out_dir / "manifest.json"),
                     "--item", "no-such-id"]) == 1


class TestOutputNamingAnInput:
    """An output path that names a file the command reads exits 1 before
    anything is read or written."""

    @pytest.fixture
    def files(self, sim_dir, tmp_path):
        _, out_dir = sim_dir
        # named so that aggregate --out cfg.csv would write its model here
        cfg = tmp_path / "cfg.model.json"
        cfg.write_text(json.dumps({"em_iterations": 2}))
        post = tmp_path / "post.csv"
        assert main(["aggregate", "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(post)]) == 0
        (tmp_path / "link.csv").symlink_to(out_dir / "member_1.csv")
        return tmp_path, out_dir

    @pytest.mark.parametrize("argv, out", [
        ("aggregate --method ea --manifest {d}/manifest.json --out {d}/member_0.csv",
         "--out {d}/member_0.csv"),
        ("aggregate --method ea --manifest {d}/manifest.json --out {d}/manifest.json",
         "--out {d}/manifest.json"),
        ("aggregate --manifest {d}/manifest.json --config {t}/cfg.model.json "
         "--out {t}/cfg.csv", "model output {t}/cfg.model.json"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv --out {t}/post.csv",
         "--out {t}/post.csv"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv "
         "--ece-bins-out {d}/truth.csv", "--ece-bins-out {d}/truth.csv"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv "
         "--manifest {d}/manifest.json --confusion-out {t}/link.csv",
         "--confusion-out {t}/link.csv"),
        ("evaluate --ood-in {t}/post.csv --ood-out {d}/truth.csv --out {d}/truth.csv",
         "--out {d}/truth.csv"),
        ("explain --model {t}/post.model.json --manifest {d}/manifest.json --item 3 "
         "--out {t}/post.model.json", "--out {t}/post.model.json"),
    ], ids=["aggregate_member", "aggregate_manifest", "aggregate_sds_model_config",
            "evaluate_posterior", "evaluate_ece_bins_truth", "evaluate_confusion_link",
            "evaluate_ood_out", "explain_model"])
    def test_exits_1_and_writes_nothing(self, files, capsys, argv, out):
        tmp_path, out_dir = files
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        capsys.readouterr()
        fill = {"t": tmp_path, "d": out_dir}
        assert main(argv.format(**fill).split()) == 1
        assert capsys.readouterr().err == f"error: {out.format(**fill)} is the input file\n"
        after = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        assert after == before


class TestOutputPaths:
    """``-`` is stdout for the ``--out`` of a command that writes one text,
    and is refused where a command writes a file; two outputs of one
    command that are one file are refused.  A refusal exits 1 before
    anything is read or written."""

    @pytest.fixture
    def run_dir(self, sim_dir, tmp_path, monkeypatch):
        """The fill of the argv templates below; the working directory is
        the empty ``work``."""
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 2}))
        assert main(["aggregate", "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "post.csv")]) == 0
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        return {"t": tmp_path, "d": out_dir}

    @staticmethod
    def snapshot(root):
        return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}

    @pytest.mark.parametrize("argv", [
        "evaluate --posterior {t}/post.csv --truth {d}/truth.csv",
        "explain --model {t}/post.model.json --manifest {d}/manifest.json --item 3",
    ], ids=["evaluate", "explain"])
    def test_dash_out_is_stdout(self, run_dir, capsys, argv):
        args = argv.format(**run_dir).split()
        capsys.readouterr()
        assert main(args) == 0
        report = capsys.readouterr().out
        assert main([*args, "--out", "-"]) == 0
        assert capsys.readouterr().out == report
        assert list((run_dir["t"] / "work").iterdir()) == []

    @pytest.mark.parametrize("argv, label", [
        ("aggregate --method ea --manifest {d}/manifest.json --out -", "--out"),
        ("aggregate --manifest {d}/manifest.json --out -", "--out"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv --ece-bins-out -",
         "--ece-bins-out"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv "
         "--manifest {d}/manifest.json --confusion-out -", "--confusion-out"),
    ], ids=["aggregate_ea", "aggregate_sds", "evaluate_ece_bins", "evaluate_confusion"])
    def test_dash_for_a_file_exits_1(self, run_dir, capsys, argv, label):
        before = self.snapshot(run_dir["t"])
        capsys.readouterr()
        assert main(argv.format(**run_dir).split()) == 1
        assert capsys.readouterr().err == f"error: {label} must name a file, not - (stdout)\n"
        assert self.snapshot(run_dir["t"]) == before

    @pytest.mark.parametrize("outputs, named", [
        ("--out r.json --ece-bins-out r.json", "--out r.json and --ece-bins-out r.json"),
        ("--ece-bins-out r.json --out ./r.json",
         "--out ./r.json and --ece-bins-out r.json"),
        ("--ece-bins-out r.csv --confusion-out link.json",
         "--ece-bins-out r.csv and --confusion-out link.json"),
    ], ids=["same", "dot_slash", "link_to_a_new_file"])
    def test_two_outputs_one_file_exit_1(self, run_dir, capsys, outputs, named):
        (run_dir["t"] / "work" / "link.json").symlink_to("r.csv")
        before = self.snapshot(run_dir["t"])
        capsys.readouterr()
        argv = ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv "
                "--manifest {d}/manifest.json ").format(**run_dir) + outputs
        assert main(argv.split()) == 1
        assert capsys.readouterr().err == f"error: {named} name the same file\n"
        assert self.snapshot(run_dir["t"]) == before


    @pytest.mark.parametrize("argv, directory", [
        ("aggregate --manifest {d}/manifest.json --out dir", "dir"),
        ("aggregate --manifest {d}/manifest.json --out post.csv", "post.model.json"),
        ("aggregate --manifest {d}/manifest.json --out post.csv", "post.trace.csv"),
        ("aggregate --method ea --manifest {d}/manifest.json --out dir", "dir"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv --out dir", "dir"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv --ece-bins-out dir", "dir"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv "
         "--manifest {d}/manifest.json --confusion-out dir", "dir"),
        ("explain --model {t}/post.model.json --manifest {d}/manifest.json --item 3 "
         "--out dir", "dir"),
    ], ids=["aggregate_sds", "aggregate_sds_model", "aggregate_sds_trace", "aggregate_ea",
            "evaluate_out", "evaluate_ece_bins", "evaluate_confusion", "explain"])
    def test_directory_output_exits_2(self, run_dir, capsys, monkeypatch, argv, directory):
        # refused before any input is read
        def read(*args):
            raise AssertionError("an input was read")

        for loader in ("_load_probs", "load_posterior", "load_ground_truth",
                       "load_predictions", "load_model"):
            monkeypatch.setattr(cli, loader, read)
        (run_dir["t"] / "work" / directory).mkdir()
        before = self.snapshot(run_dir["t"]), sorted(run_dir["t"].rglob("*"))
        capsys.readouterr()
        assert main(argv.format(**run_dir).split()) == 2
        assert capsys.readouterr().err == \
            f"i/o error: [Errno 21] Is a directory: '{directory}'\n"
        assert (self.snapshot(run_dir["t"]), sorted(run_dir["t"].rglob("*"))) == before


class TestEdges:
    """Edge inputs end to end through the files the CLI reads and writes."""

    def test_collapsed_prior_through_online_and_explain(self, tmp_path, capsys):
        # nu = [1, 0]: the second class is floored inside the logarithm only
        model_path = tmp_path / "model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.array([[[3.0, 1.0], [1.0, 3.0]]])),
                                s.ClassPrior(np.array([1.0, 0.0]))), model_path)
        rows = [["a", 0.9, 0.1], ["b", 1e-13, 1.0], ["c", 0.0, 1.0]]
        stream_in = tmp_path / "stream.csv"
        stream_in.write_text("item_id,m0_p0,m0_p1\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows))
        stream_out = tmp_path / "o.csv"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 0
        post = s.load_posterior(stream_out)
        assert post.item_ids == ["a", "b", "c"]
        assert np.all(np.isfinite(post.rows))
        np.testing.assert_allclose(post.rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)

        (tmp_path / "m0.csv").write_text("item_id,p_0,p_1\n" + "".join(
            ",".join(map(str, row)) + "\n" for row in rows))
        (tmp_path / "manifest.json").write_text(
            json.dumps({"n_classes": 2, "members": ["m0.csv"]}))
        capsys.readouterr()
        assert main(["explain", "--model", str(model_path),
                     "--manifest", str(tmp_path / "manifest.json"),
                     "--item", "c"]) == 0
        posterior = np.array(json.loads(capsys.readouterr().out)["posterior"])
        assert np.all(np.isfinite(posterior))
        assert abs(posterior.sum() - 1.0) <= 1e-9
        assert np.array_equal(posterior, post.rows[2])

    # every pi entry 1e300: the log weights cannot be normalized; 1e308:
    # the rows of pi sum past the float range
    @pytest.mark.parametrize("entry", [1e300, 1e308], ids=["1e300", "1e308"])
    def test_huge_pi_model_exits_3(self, tmp_path, capsys, entry):
        model_path = tmp_path / "huge.model.json"
        s.save_model(s.SdsModel(s.ConfusionTensor(np.full((2, 3, 3), entry)),
                                s.ClassPrior(np.full(3, 1 / 3))), model_path)
        probs = np.random.default_rng(91).dirichlet(np.ones(3), size=(4, 2))
        preds = s.PredictionSet.from_probs(probs)
        manifest = s.save_predictions(preds, tmp_path / "data")
        stream_in = tmp_path / "stream.csv"
        stream_in.write_text("item_id,m0_p0,m0_p1,m0_p2,m1_p0,m1_p1,m1_p2\n0,"
                             + ",".join(map(repr, probs[0].ravel().tolist())) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["online", "--model", str(model_path),
                         "--input", str(stream_in),
                         "--out", str(tmp_path / "o.csv")]) == 3
            assert main(["explain", "--model", str(model_path),
                         "--manifest", str(manifest), "--item", "0"]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert len(re.findall(r"^numeric error: ", err, re.M)) == 2
        assert "Traceback" not in err

    def test_thousand_classes_aggregate_and_online(self, tmp_path):
        # K = 1, J = 1000: the model file alone holds J^2 entries
        probs = np.random.default_rng(92).dirichlet(np.ones(1000), size=(40, 1))
        manifest = s.save_predictions(s.PredictionSet.from_probs(probs),
                                      tmp_path / "data")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 1}))
        out = tmp_path / "post.csv"
        assert main(["aggregate", "--manifest", str(manifest), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = s.load_posterior(out).rows
        assert rows.shape == (40, 1000) and np.all(np.isfinite(rows))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)

        # with K = 1 a member file row is a stream row as it stands
        lines = (tmp_path / "data" / "member_0.csv").read_text().splitlines()
        stream_in = tmp_path / "stream.csv"
        stream_in.write_text("\n".join(
            ["item_id," + ",".join(f"m0_p{c}" for c in range(1000))] + lines[1:6]))
        stream_out = tmp_path / "stream_post.csv"
        model_path = tmp_path / "post.model.json"
        assert main(["online", "--model", str(model_path),
                     "--input", str(stream_in), "--out", str(stream_out)]) == 0
        batch = s.e_step_raw(s.load_predictions(manifest), s.load_model(model_path))
        got = s.load_posterior(stream_out)
        assert got.item_ids == batch.item_ids[:5]
        assert [list(map(repr, row)) for row in got.rows.tolist()] == \
            [list(map(repr, row)) for row in batch.rows[:5].tolist()]

    @pytest.mark.parametrize("config", [
        {},
        {"alpha": 1.0, "learning_rate": 0.5, "em_iterations": 20},
    ], ids=["default", "undamped_lr_0.5"])
    def test_class_no_member_predicts(self, tmp_path, config):
        # K = 1, J = 3, and class 2 gets probability 0 on every item
        rng = np.random.default_rng(90)
        probs = np.zeros((40, 3))
        probs[:, :2] = rng.dirichlet([2.0, 2.0], size=40)
        (tmp_path / "m0.csv").write_text("item_id,p_0,p_1,p_2\n" + "".join(
            f"{i}," + ",".join(repr(float(v)) for v in row) + "\n"
            for i, row in enumerate(probs)))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"n_classes": 3, "members": ["m0.csv"]}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "post.csv"
        assert main(["aggregate", "--manifest", str(manifest), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = s.load_posterior(out).rows
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        model = s.load_model(tmp_path / "post.model.json")
        assert (model.n_members, model.n_classes) == (1, 3)


class TestClosedStreams:
    """A command that would read stdin or write stdout while that stream
    is closed is refused before it reads any input (exit 2, one line);
    with stderr closed its diagnostics are dropped, not written to
    stdout.  Each case runs the CLI in a child whose fd is closed before
    Python starts."""

    CLI = "import sys; from softds.cli import main; sys.exit(main())"

    @pytest.fixture
    def run_dir(self, sim_dir, tmp_path, monkeypatch):
        _, out_dir = sim_dir
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"em_iterations": 2}))
        assert main(["aggregate", "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(cfg), "--out", str(tmp_path / "post.csv")]) == 0
        preds = s.load_predictions(out_dir / "manifest.json")
        TestOnline.make_stream(preds, tmp_path / "stream.csv", range(3))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        return {"t": tmp_path, "d": out_dir}

    def run(self, argv, run_dir, fd):
        return run_python(self.CLI, *argv.format(**run_dir).split(),
                          preexec_fn=lambda: os.close(fd))

    @pytest.mark.parametrize("argv, fd, stream", [
        ("online --model {t}/post.model.json", 0, "stdin"),
        ("online --model {t}/post.model.json --input - --out o.csv", 0, "stdin"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv", 1, "stdout"),
        ("evaluate --posterior {t}/post.csv --truth {d}/truth.csv --out - "
         "--ece-bins-out bins.csv", 1, "stdout"),
        ("explain --model {t}/post.model.json --manifest {d}/manifest.json --item 3",
         1, "stdout"),
        ("online --model {t}/post.model.json --input {t}/stream.csv", 1, "stdout"),
    ], ids=["online_stdin", "online_dash_input", "evaluate", "evaluate_dash_out",
            "explain", "online_stdout"])
    def test_closed_stream_exits_2_before_reading(self, run_dir, argv, fd, stream):
        # the model is renamed away, so a command that read its inputs
        # first would report the missing model instead
        (run_dir["t"] / "post.model.json").rename(run_dir["t"] / "kept.model.json")
        done = self.run(argv, run_dir, fd)
        assert done.returncode == 2
        assert done.stderr == f"i/o error: [Errno 9] Bad file descriptor: '{stream}'\n"
        assert done.stdout == ""
        assert list((run_dir["t"] / "work").iterdir()) == []

    def test_closed_stderr_keeps_stdout_payload(self, run_dir):
        argv = "online --model {t}/post.model.json --input {t}/stream.csv"
        shown = self.run(argv, run_dir, 2)
        logged = run_python(self.CLI, *argv.format(**run_dir).split())
        assert (shown.returncode, logged.returncode) == (0, 0)
        assert "online: 3 rows written" in logged.stderr
        assert shown.stdout == logged.stdout
        assert shown.stdout.splitlines()[0] == "item_id,p_0,p_1,p_2"
        assert len(shown.stdout.splitlines()) == 4

    @pytest.mark.parametrize("argv, code", [
        ("aggregate --manifest {d}/manifest.json --out post.csv", 0),
        ("aggregate --manifest {d}/manifest.json --out post.csv --threads 2", 0),
        ("aggregate --manifest {t}/missing.json --out post.csv", 2),
        ("evaluate --posterior {t}/post.csv --truth {t}/stream.csv --out r.json", 1),
    ], ids=["aggregate", "aggregate_workers", "missing_manifest", "bad_truth"])
    def test_closed_stderr_keeps_exit_codes(self, run_dir, argv, code):
        done = self.run(argv, run_dir, 2)
        assert (done.returncode, done.stdout) == (code, "")
        if code == 0:
            assert {p.name for p in (run_dir["t"] / "work").iterdir()} == {
                "post.csv", "post.model.json", "post.trace.csv"}


class TestDashIsAFile:
    """Outside ``online --input``, an input given as ``-`` is the file
    named ``-`` in the working directory, not stdin: the command reads it
    with stdin closed, and an output that names that file is refused."""

    # (the file copied to "-", argv with the input as {dash})
    CASES = {
        "aggregate_config": ("{t}/cfg.json",
                             "aggregate --manifest {d}/manifest.json --config {dash} "
                             "--out {out}"),
        "evaluate_truth": ("{d}/truth.csv",
                           "evaluate --posterior {t}/post.csv --truth {dash} --out {out}"),
        "explain_model": ("{t}/post.model.json",
                          "explain --model {dash} --manifest {d}/manifest.json --item 3 "
                          "--out {out}"),
    }

    @pytest.fixture(params=sorted(CASES))
    def case(self, request, sim_dir, tmp_path, monkeypatch):
        """``(fill, source, argv)``: the fill of the argv template
        ``argv``, and ``source``, the file that ``-`` in the working
        directory ``work`` is a copy of."""
        _, out_dir = sim_dir
        fill = {"t": tmp_path, "d": out_dir}
        (tmp_path / "cfg.json").write_text(json.dumps({"em_iterations": 2}))
        assert main(["aggregate", "--manifest", str(out_dir / "manifest.json"),
                     "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "post.csv")]) == 0
        source, argv = self.CASES[request.param]
        work = tmp_path / "work"
        work.mkdir()
        (work / "-").write_bytes(pathlib.Path(source.format(**fill)).read_bytes())
        monkeypatch.chdir(work)
        return fill, source.format(**fill), argv

    def test_reads_the_file_with_stdin_closed(self, case):
        fill, source, argv = case
        done = run_python(TestClosedStreams.CLI,
                          *argv.format(dash="-", out="dash.out", **fill).split(),
                          preexec_fn=lambda: os.close(0))
        assert (done.returncode, done.stdout) == (0, "")
        assert main(argv.format(dash=source, out="named.out", **fill).split()) == 0
        assert pathlib.Path("dash.out").read_bytes() == pathlib.Path("named.out").read_bytes()

    def test_out_naming_it_exits_1(self, case, capsys):
        fill, _, argv = case
        before = pathlib.Path("-").read_bytes()
        capsys.readouterr()
        assert main(argv.format(dash="-", out="./-", **fill).split()) == 1
        assert capsys.readouterr().err == "error: --out ./- is the input file\n"
        assert pathlib.Path("-").read_bytes() == before
        assert os.listdir() == ["-"]


@pytest.mark.parametrize("method, stage, message", [
    ("sds", "_fit", ""),
    ("sds", "save_model", "Unable to allocate 8.00 EiB for an array"),
    ("ea", "_write_prob_file", "Unable to allocate 8.00 EiB for an array"),
], ids=["fit", "save_model", "write_posterior"])
def test_memory_error_exits_2_with_one_line(sim_dir, tmp_path, monkeypatch, capsys,
                                            method, stage, message):
    # an allocation failure anywhere in the command, as numpy raises it
    def exhausted(*args):
        raise MemoryError(message)

    _, out_dir = sim_dir
    monkeypatch.setattr(cli, stage, exhausted)
    capsys.readouterr()
    assert main(["aggregate", "--method", method, "--manifest",
                 str(out_dir / "manifest.json"), "--out", str(tmp_path / "post.csv")]) == 2
    out, err = capsys.readouterr()
    loaded, *rest = err.splitlines()
    assert loaded.startswith("loaded 60 items")
    assert rest == [f"memory error: {message or 'out of memory'}"]
    assert out == ""
    assert not list(tmp_path.glob("post*"))
