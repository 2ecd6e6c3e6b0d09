"""softds: confusion-aware aggregation of soft classifier predictions.

Fits a latent-class model in which each ensemble member's probability
vector follows a Dirichlet keyed by the item's true class, yielding one
calibrated posterior per item; ships hard/soft baselines, calibration
metrics, an online inference mode, and a synthetic generative oracle.
"""

from .baselines import ds_em, ensemble_average, majority_vote
from .data import (
    ClassPrior,
    ConfusionTensor,
    FormatError,
    GroundTruth,
    PosteriorMatrix,
    PredictionSet,
    SdsConfig,
    harden,
    load_ground_truth,
    load_posterior,
    load_predictions,
    save_confusion_tensor,
    save_ground_truth,
    save_posterior,
    save_predictions,
)
from .mathutils import (
    digamma,
    dirichlet_log_density,
    log_gamma,
)
from .metrics import (
    MetricReport,
    accuracy,
    auroc,
    brier,
    ece,
    evaluate_posterior,
    nll,
    ood_score,
    reliability_bins,
    true_confusion,
)
from .sds import (
    Explanation,
    FitTrace,
    NumericError,
    SdsModel,
    e_step_raw,
    explain,
    fit,
    load_model,
    online_infer,
    save_model,
)
from .synth import GenerativeSpec, bayes_posterior, sample

__version__ = "0.1.0"

__all__ = [
    "ClassPrior",
    "ConfusionTensor",
    "Explanation",
    "FitTrace",
    "FormatError",
    "GenerativeSpec",
    "GroundTruth",
    "MetricReport",
    "NumericError",
    "PosteriorMatrix",
    "PredictionSet",
    "SdsConfig",
    "SdsModel",
    "accuracy",
    "auroc",
    "bayes_posterior",
    "brier",
    "digamma",
    "dirichlet_log_density",
    "ds_em",
    "e_step_raw",
    "ece",
    "ensemble_average",
    "evaluate_posterior",
    "explain",
    "fit",
    "harden",
    "load_ground_truth",
    "load_model",
    "load_posterior",
    "load_predictions",
    "log_gamma",
    "majority_vote",
    "nll",
    "online_infer",
    "ood_score",
    "reliability_bins",
    "sample",
    "save_confusion_tensor",
    "save_ground_truth",
    "save_model",
    "save_posterior",
    "save_predictions",
    "true_confusion",
]
