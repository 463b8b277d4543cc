"""Binary quantification toolkit.

Optimal cut-point classifiers for a two-normal score model, quality
measures that reward calibrated prevalence prediction, count-based
prevalence estimators under prior shift, and exhaustive discrete oracles
for the underlying optimality claims.
"""

from . import binormal, discrete_oracle, empirical, metrics, quantifiers
from .binormal import *  # noqa: F403
from .discrete_oracle import *  # noqa: F403
from .empirical import *  # noqa: F403
from .metrics import *  # noqa: F403
from .quantifiers import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *binormal.__all__,
    *metrics.__all__,
    *quantifiers.__all__,
    *discrete_oracle.__all__,
    *empirical.__all__,
    "__version__",
]
