"""Chance-corrected evaluation of contingency tables.

Builds K x K prediction-vs-truth count tables and derives debiased accuracy
measures, significance tests, evenness-scaled confidence intervals, and a
Monte Carlo harness that checks the intervals empirically.
"""

__version__ = "0.1.0"

from . import confidence, contingency, dichotomous, errors, montecarlo, multiclass, significance
from .confidence import *
from .contingency import *
from .dichotomous import *
from .errors import *
from .montecarlo import *
from .multiclass import *
from .significance import *

__all__ = [
    "__version__",
    *errors.__all__,
    *contingency.__all__,
    *dichotomous.__all__,
    *multiclass.__all__,
    *significance.__all__,
    *confidence.__all__,
    *montecarlo.__all__,
]
