"""moelab: a desk-scale Mixture-of-Experts routing engine.

Six top-K routing strategies over a (batch, token, expert) score tensor,
an EMA threshold that decouples inference routing from the batch, the
balance and router-similarity regularizers, routing-quality metrics, and
a toy diffusion training harness that exercises the whole pipeline.
"""

from .routing import (
    STRATEGIES,
    ConfigError,
    NumericError,
    RouteResult,
    RoutingStrategy,
    ThresholdState,
    get_strategy,
    route,
)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "ConfigError",
    "NumericError",
    "RoutingStrategy",
    "RouteResult",
    "ThresholdState",
    "STRATEGIES",
    "get_strategy",
    "route",
    "__version__",
]
