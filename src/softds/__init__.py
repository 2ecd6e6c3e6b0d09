"""softds: confusion-aware aggregation of soft classifier predictions.

Fits a latent-class model in which each ensemble member's probability
vector follows a Dirichlet keyed by the item's true class, yielding one
calibrated posterior per item; ships hard/soft baselines, calibration
metrics, an online inference mode, and a synthetic generative oracle.

The package exports the public names that its library modules declare in
their ``__all__``; ``softds.cli`` is not imported here.
"""

from . import baselines, data, mathutils, metrics, sds, synth
from .baselines import *  # noqa: F401,F403
from .data import *  # noqa: F401,F403
from .mathutils import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .sds import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted({name for module in (baselines, data, mathutils, metrics, sds, synth)
                  for name in module.__all__})
