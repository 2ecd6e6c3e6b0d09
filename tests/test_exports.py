"""Public names: every ``__all__`` entry of the package and its modules
resolves, so a star import cannot break on a stale entry, and the
package exports exactly the union of its library modules' lists."""

import importlib
import pkgutil

import pytest

import softds
from util import run_python

MODULES = ["softds"] + [f"softds.{info.name}"
                        for info in pkgutil.iter_modules(softds.__path__)]

LIBRARY_MODULES = ["baselines", "data", "mathutils", "metrics", "sds", "synth"]

# The names the package exported while it listed them itself; none may go
PINNED = [
    "ClassPrior", "ConfusionTensor", "Explanation", "FitTrace", "FormatError",
    "GenerativeSpec", "GroundTruth", "MetricReport", "NumericError",
    "PosteriorMatrix", "PredictionSet", "SdsConfig", "SdsModel", "accuracy",
    "auroc", "bayes_posterior", "brier", "digamma", "dirichlet_log_density",
    "ds_em", "e_step_raw", "ece", "ensemble_average", "evaluate_posterior",
    "explain", "fit", "harden", "load_ground_truth", "load_model",
    "load_posterior", "load_predictions", "log_gamma", "majority_vote", "nll",
    "online_infer", "ood_score", "reliability_bins", "sample",
    "save_confusion_tensor", "save_ground_truth", "save_model",
    "save_posterior", "save_predictions", "true_confusion",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_the_union_of_the_library_modules():
    union = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"softds.{name}")
        union.update(module.__all__)
        for attr in module.__all__:
            assert getattr(softds, attr) is getattr(module, attr)
    assert set(softds.__all__) == union
    assert len(softds.__all__) == len(union)


def test_package_keeps_every_pinned_name():
    assert len(PINNED) == 44
    assert set(PINNED) <= set(softds.__all__)
    assert set(softds.__all__) - set(PINNED) == {
        "ECE_BINS", "NU_LOG_FLOOR", "PROB_FLOOR", "ROW_SUM_TOL", "sorted_sum"}


def test_import_does_not_load_the_cli():
    done = run_python("import sys, softds\nprint('softds.cli' in sys.modules)\n")
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
