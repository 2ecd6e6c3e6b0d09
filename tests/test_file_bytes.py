"""Exact bytes of every file writer.

CSV files end lines with ``\\r\\n`` (the ``csv`` module's default), JSON
files are ``json.dumps(obj)`` with one trailing newline, the ``evaluate``
and ``explain`` reports ``json.dumps(report, indent=2)`` with one, and
floats are written with ``repr``.  These texts are the file formats; a
writer that changes them is a format change.  JSON files written with
``indent=2`` before the format became compact still load, to the same
arrays.
"""

import contextlib
import io

import numpy as np
import pytest

import softds as s
from softds.cli import main

IDS = ["a", "b,c"]

MEMBER_CSV = 'item_id,p_0,p_1\r\na,0.25,0.75\r\n"b,c",0.5,0.5\r\n'

MANIFEST_JSON = '{"n_classes": 2, "members": ["member_0.csv"], "labels": "truth.csv"}\n'

INDENTED_MANIFEST_JSON = """\
{
  "n_classes": 2,
  "members": [
    "member_0.csv"
  ],
  "labels": "truth.csv"
}
"""

POSTERIOR_CSV = 'item_id,p_0,p_1\r\na,0.75,0.25\r\n"b,c",0.25,0.75\r\n'

# Three members that disagree, so that every Dawid-Skene count differs;
# the members of item "e" vote 0, 1 and 2, a three-way tie
VOTE_IDS = IDS + ["d", "e"]

VOTES = [
    [[0.7, 0.2, 0.1], [0.6, 0.3, 0.1], [0.2, 0.5, 0.3]],
    [[0.1, 0.8, 0.1], [0.3, 0.4, 0.3], [0.1, 0.6, 0.3]],
    [[0.2, 0.3, 0.5], [0.5, 0.1, 0.4], [0.1, 0.2, 0.7]],
    [[0.4, 0.4, 0.2], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
]

DS_POSTERIOR_CSV = ('item_id,p_0,p_1,p_2\r\n'
                    'a,0.8716599651384832,0.12269813530046611,0.005641899561050687\r\n'
                    '"b,c",0.0027042476619990423,0.9972394554398384,5.6296898162718743e-05\r\n'
                    'd,0.12116877352371674,0.0005547133154066055,0.8782765131608765\r\n'
                    'e,0.4095579894277159,0.29567356306535447,0.2947684475069298\r\n')

MV_POSTERIOR_CSV = ('item_id,p_0,p_1,p_2\r\n'
                    'a,1.0,0.0,0.0\r\n"b,c",0.0,1.0,0.0\r\nd,0.0,0.0,1.0\r\ne,1.0,0.0,0.0\r\n')

# the confusion tensor of the simulated spec and of the online model
SIM_PI = [[[4.0, 1.0], [1.0, 4.0]], [[2.0, 1.0], [0.5, 3.0]]]

ONLINE_STREAM_CSV = ('item_id,m0_p0,m0_p1,m1_p0,m1_p1\r\n'
                     'a,0.9,0.1,0.6,0.4\r\n"b,c",0.2,0.8,0.5,0.5\r\nd,0.5,0.5,0.3,0.7\r\n')

SDS_POSTERIOR_CSV = ('item_id,p_0,p_1,p_2\r\n'
                     'a,0.5009963769662434,0.33267012291925385,0.1663335001145026\r\n'
                     '"b,c",0.16633350141209616,0.6007995985876851,0.2328669000002187\r\n'
                     'd,0.2662506646910533,0.19960020010695742,0.5341491352019893\r\n'
                     'e,0.29943221658098923,0.4011674257777394,0.2994003576412712\r\n')

SDS_MODEL_JSON = ('{"nu": [0.3082531899125956, 0.38355933684790905, 0.30818747323949547], '
                  '"members": [{"pi": [[7.507312251099835, 0.17434945215735811, '
                  '2.6173371314195606], [4.087211745027111, 6.051848173881086, '
                  '0.15993890506094488], [3.432333001644656, 0.19808721559676817, '
                  '6.668578661353382]]}, {"pi": [[7.507312254027735, 2.6193370972990353, '
                  '0.17434944200785124], [2.124575389362925, 8.01648448017035, '
                  '0.15993892076118904], [6.668578655742397, 3.432332929921464, '
                  '0.1980872138390193]]}, {"pi": [[0.1743494413895109, 5.062324743683892, '
                  '5.062324658732212], [0.15993890859762194, 8.016484464169872, '
                  '2.1245754155459133], [0.198087193859615, 0.1980872117146645, '
                  '9.904824292560837]]}]}\n')

SDS_TRACE_CSV = ("iteration,q,alpha\r\n0,-48.957700897619816,0.001\r\n"
                 "1,-48.88645862613265,0.001\r\n")

EA_POSTERIOR_CSV = ('item_id,p_0,p_1,p_2\r\n'
                    'a,0.5,0.3333333333333333,0.16666666666666666\r\n'
                    '"b,c",0.16666666666666666,0.6,0.2333333333333333\r\n'
                    'd,0.26666666666666666,0.20000000000000004,0.5333333333333333\r\n'
                    'e,0.3,0.39999999999999997,0.3\r\n')

SIM_TRUTH_CSV = "item_id,label\r\n0,0\r\n1,1\r\n2,0\r\n"

SIM_MEMBER_CSV = ("item_id,p_0,p_1\r\n0,0.8612955647718253,0.1387044352281746\r\n"
                  "1,0.43520090497093483,0.5647990950290652\r\n"
                  "2,0.9323876574179762,0.06761234258202371\r\n")

SIM_MANIFEST_JSON = ('{"n_classes": 2, "members": ["member_0.csv", "member_1.csv"], '
                     '"labels": "truth.csv"}\n')

SIM_BAYES_CSV = ("item_id,p_0,p_1\r\n0,0.9974578855156787,0.0025421144843213164\r\n"
                 "1,0.007226945083221194,0.9927730549167788\r\n"
                 "2,0.9998299636230668,0.00017003637693318883\r\n")

ONLINE_CSV = ('item_id,p_0,p_1\r\na,0.9993363489306124,0.000663651069387515\r\n'
              '"b,c",0.015470390295576517,0.9845296097044235\r\n'
              'd,0.19254834697444598,0.807451653025554\r\n')

TRUTH_CSV = 'item_id,label\r\na,0\r\n"b,c",1\r\n'

CONFUSION_JSON = '{"members": [{"pi": [[1.5, 0.5], [0.25, 2.0]]}]}\n'

MODEL_JSON = '{"nu": [0.25, 0.75], "members": [{"pi": [[1.0, 1.0], [1.0, 1.0]]}]}\n'

INDENTED_MODEL_JSON = """\
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
  ]
}
"""

TRACE_CSV = "iteration,q,alpha,millis\r\n0,-3.5,0.001,1.5\r\n1,-3.25,0.001,2.0\r\n"

SPEC_JSON = ('{"n_items": 1, "n_members": 1, "n_classes": 2, "nu_true": [0.5, 0.5], '
             '"pi_true": [[[2.0, 1.0], [1.0, 2.0]]], "seed": 7}\n')

INDENTED_SPEC_JSON = """\
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
    model = s.SdsModel(s.ConfusionTensor(np.ones((1, 2, 2))),
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


def _aggregate(d, *extra):
    """``aggregate`` of ``VOTES`` over two EM iterations."""
    manifest = s.save_predictions(s.PredictionSet.from_probs(np.array(VOTES), VOTE_IDS), d)
    (d / "cfg.json").write_text('{"em_iterations": 2}')
    assert main(["aggregate", "--manifest", str(manifest), "--config", str(d / "cfg.json"),
                 *extra]) == 0


def _aggregate_sds(name, cut=lambda text: text):
    """``aggregate --method sds`` of ``VOTES`` into ``post.csv``: the file
    ``name`` it writes, passed through ``cut``."""
    def run(d):
        _aggregate(d, "--method", "sds", "--out", str(d / "post.csv"))
        return cut((d / name).read_bytes())
    return run


def _without_millis(trace):
    """The ``iteration,q,alpha`` columns of a trace; ``millis`` varies."""
    return b"".join(line.rsplit(b",", 1)[0] + b"\r\n" for line in trace.splitlines())


def _simulate(d, *extra):
    """``simulate`` of a spec of three items and two members into ``d``."""
    spec = s.GenerativeSpec(3, 2, 2, s.ClassPrior(np.array([0.5, 0.5])),
                            s.ConfusionTensor(np.array(SIM_PI)), 8)
    spec.to_json(d / "spec.json")
    assert main(["simulate", "--spec", str(d / "spec.json"), "--out-dir", str(d),
                 *extra]) == 0


def _online(d, *extra):
    """``online`` of a three-row stream under a two-member model."""
    s.save_model(s.SdsModel(s.ConfusionTensor(np.array(SIM_PI)),
                            s.ClassPrior(np.array([0.25, 0.75]))), d / "m.model.json")
    (d / "stream.csv").write_text(ONLINE_STREAM_CSV, newline="")
    assert main(["online", "--model", str(d / "m.model.json"),
                 "--input", str(d / "stream.csv"), *extra]) == 0


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
    "aggregate_ds": (_file(_aggregate, "post.csv", "--method", "ds", "--out"),
                     DS_POSTERIOR_CSV),
    "aggregate_mv": (_file(_aggregate, "post.csv", "--method", "mv", "--out"),
                     MV_POSTERIOR_CSV),
    "aggregate_sds": (_aggregate_sds("post.csv"), SDS_POSTERIOR_CSV),
    "aggregate_sds_model": (_aggregate_sds("post.model.json"), SDS_MODEL_JSON),
    "aggregate_sds_trace": (_aggregate_sds("post.trace.csv", _without_millis),
                            SDS_TRACE_CSV),
    "aggregate_ea": (_file(_aggregate, "post.csv", "--method", "ea", "--out"),
                     EA_POSTERIOR_CSV),
    "simulate_truth": (_file(_simulate, "truth.csv"), SIM_TRUTH_CSV),
    "simulate_member": (_file(_simulate, "member_0.csv"), SIM_MEMBER_CSV),
    "simulate_manifest": (_file(_simulate, "manifest.json"), SIM_MANIFEST_JSON),
    "simulate_bayes": (_file(lambda d: _simulate(d, "--bayes"), "bayes_posterior.csv"),
                       SIM_BAYES_CSV),
    "online": (_file(_online, "online.csv", "--out"), ONLINE_CSV),
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


def _model_arrays(path):
    model = s.load_model(path)
    return model.pi.pi, model.nu.nu


def _spec_arrays(path):
    spec = s.GenerativeSpec.from_json(path)
    return spec.pi_true.pi, spec.nu_true.nu


def _manifest_arrays(path):
    return (s.load_predictions(path).probs,)


# the JSON files as written before they became compact
INDENTED = {
    "model": (_save_model, "model.json", INDENTED_MODEL_JSON, _model_arrays),
    "spec": (_save_spec, "spec.json", INDENTED_SPEC_JSON, _spec_arrays),
    "manifest": (_save_predictions, "manifest.json", INDENTED_MANIFEST_JSON,
                 _manifest_arrays),
}


@pytest.mark.parametrize("name", list(INDENTED))
def test_indented_json_loads_to_the_same_arrays(name, tmp_path):
    save, file_name, indented, arrays = INDENTED[name]
    save(tmp_path)
    path = tmp_path / file_name
    expected = [(a.shape, a.tobytes()) for a in arrays(path)]
    path.write_bytes(indented.encode())
    assert [(a.shape, a.tobytes()) for a in arrays(path)] == expected
