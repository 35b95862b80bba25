"""Sparse feature selection for frequency-response classification.

Binary logistic models with weights restricted to an integer lattice of
step size epsilon, grown and pruned one coordinate at a time under a
shrinking sparsity price. Tasks can be fit independently (one penalty per
weight vector) or jointly (a row-wise penalty that favors features shared
across tasks). Utilities cover Monte-Carlo expansion of averaged spectra
into sample populations, frequency windowing, cross-validated parameter
search, and cross-task transfer scoring.
"""

from . import datagen, dataio, experiment, metrics, model, solver
from .datagen import *  # noqa: F403
from .dataio import *  # noqa: F403
from .experiment import *  # noqa: F403
from .metrics import *  # noqa: F403
from .model import *  # noqa: F403
from .solver import *  # noqa: F403

__version__ = "0.1.0"

# each submodule's __all__ is the one list of its public names
__all__ = ["__version__"] + [
    name
    for module in (model, metrics, solver, datagen, experiment, dataio)
    for name in module.__all__
]
