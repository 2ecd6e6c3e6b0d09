"""Exact bytes of every file writer.

CSV files end lines with ``\\r\\n`` (the ``csv`` module's default), JSON
files are ``indent=2`` with one trailing newline, and floats are written
with ``repr``.  These texts are the file formats; a writer that changes
them is a format change.
"""

import contextlib
import io

import numpy as np
import pytest

import softds as s
from softds.cli import main

IDS = ["a", "b,c"]

MEMBER_CSV = 'item_id,p_0,p_1\r\na,0.25,0.75\r\n"b,c",0.5,0.5\r\n'

MANIFEST_JSON = """\
{
  "n_classes": 2,
  "members": [
    "member_0.csv"
  ],
  "labels": "truth.csv"
}
"""

POSTERIOR_CSV = 'item_id,p_0,p_1\r\na,0.75,0.25\r\n"b,c",0.25,0.75\r\n'

TRUTH_CSV = 'item_id,label\r\na,0\r\n"b,c",1\r\n'

CONFUSION_JSON = """\
{
  "members": [
    {
      "pi": [
        [
          1.5,
          0.5
        ],
        [
          0.25,
          2.0
        ]
      ]
    }
  ]
}
"""

MODEL_JSON = """\
{
  "nu": [
    0.25,
    0.75
  ],
  "members": [
    {
      "pi": [
        [
          1.0,
          1.0
        ],
        [
          1.0,
          1.0
        ]
      ]
    }
  ],
  "pi_floor": 0.125
}
"""

TRACE_CSV = "iteration,q,alpha,millis\r\n0,-3.5,0.001,1.5\r\n1,-3.25,0.001,2.0\r\n"

SPEC_JSON = """\
{
  "n_items": 1,
  "n_members": 1,
  "n_classes": 2,
  "nu_true": [
    0.5,
    0.5
  ],
  "pi_true": [
    [
      [
        2.0,
        1.0
      ],
      [
        1.0,
        2.0
      ]
    ]
  ],
  "seed": 7
}
"""

ECE_BINS_CSV = "bin,conf,acc,count\r\n0,0.0,0.0,0\r\n1,0.75,1.0,2\r\n"

EVALUATE_JSON = """\
{
  "accuracy": 1.0,
  "ece": 0.25,
  "brier": 0.125,
  "nll": 0.2876820724517809,
  "n_items": 2
}
"""

EXPLAIN_JSON = """\
{
  "item_id": "a",
  "log_prior": [
    -1.3862943611198906,
    -0.2876820724517809
  ],
  "member_evidence": [
    [
      0.0,
      0.0
    ]
  ],
  "member_normalizer": [
    [
      1.7763568394002505e-15,
      1.7763568394002505e-15
    ]
  ],
  "log_weights": [
    -1.3862943611198888,
    -0.2876820724517791
  ],
  "posterior": [
    0.24999999999999994,
    0.7499999999999999
  ]
}
"""


def _save_predictions(d):
    preds = s.PredictionSet.from_probs(np.array([[[0.25, 0.75]], [[0.5, 0.5]]]), IDS)
    return s.save_predictions(preds, d, labels_filename="truth.csv")


def _save_posterior(d):
    path = d / "post.csv"
    s.save_posterior(s.PosteriorMatrix(np.array([[0.75, 0.25], [0.25, 0.75]]), IDS),
                     path)
    return path


def _save_truth(d):
    path = d / "truth.csv"
    s.save_ground_truth(s.GroundTruth(np.array([0, 1]), IDS), path)
    return path


def _save_model(d):
    path = d / "model.json"
    model = s.SdsModel(s.ConfusionTensor(np.ones((1, 2, 2)), 0.125),
                       s.ClassPrior(np.array([0.25, 0.75])))
    s.save_model(model, path)
    return path


def _save_confusion(d):
    path = d / "pi.json"
    s.save_confusion_tensor(np.array([[[1.5, 0.5], [0.25, 2.0]]]), path)
    return path


def _save_trace(d):
    path = d / "trace.csv"
    s.FitTrace([0, 1], [-3.5, -3.25], [0.001, 0.001], [1.5, 2.0]).save_csv(path)
    return path


def _save_spec(d):
    path = d / "spec.json"
    spec = s.GenerativeSpec(1, 1, 2, s.ClassPrior(np.array([0.5, 0.5])),
                            s.ConfusionTensor(np.array([[[2.0, 1.0], [1.0, 2.0]]])), 7)
    spec.to_json(path)
    return path


def _evaluate(d, *extra):
    args = ["evaluate", "--posterior", str(_save_posterior(d)),
            "--truth", str(_save_truth(d)), "--bins", "2", *extra]
    assert main(args) == 0


def _explain(d, *extra):
    args = ["explain", "--model", str(_save_model(d)),
            "--manifest", str(_save_predictions(d)), "--item", "a", *extra]
    assert main(args) == 0


def _file(write, name, *extra):
    """A writer whose output is the file ``name``, passed as ``--out``
    or another path option when ``extra`` names one."""
    def run(d):
        if extra:
            write(d, *extra, str(d / name))
        else:
            write(d)
        return (d / name).read_bytes()
    return run


def _stdout(command):
    def run(d):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            command(d)
        return out.getvalue().encode()
    return run


WRITERS = {
    "member_csv": (_file(_save_predictions, "member_0.csv"), MEMBER_CSV),
    "manifest": (_file(_save_predictions, "manifest.json"), MANIFEST_JSON),
    "posterior": (_file(_save_posterior, "post.csv"), POSTERIOR_CSV),
    "truth": (_file(_save_truth, "truth.csv"), TRUTH_CSV),
    "confusion": (_file(_save_confusion, "pi.json"), CONFUSION_JSON),
    "model": (_file(_save_model, "model.json"), MODEL_JSON),
    "trace": (_file(_save_trace, "trace.csv"), TRACE_CSV),
    "spec": (_file(_save_spec, "spec.json"), SPEC_JSON),
    "ece_bins": (_file(_evaluate, "bins.csv", "--ece-bins-out"), ECE_BINS_CSV),
    "evaluate_out": (_file(_evaluate, "report.json", "--out"), EVALUATE_JSON),
    "evaluate_stdout": (_stdout(_evaluate), EVALUATE_JSON),
    "explain_out": (_file(_explain, "explain.json", "--out"), EXPLAIN_JSON),
    "explain_stdout": (_stdout(_explain), EXPLAIN_JSON),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_writer_bytes(name, tmp_path):
    write, expected = WRITERS[name]
    assert write(tmp_path) == expected.encode()
