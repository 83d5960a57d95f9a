"""Dynamic light spanners for bounded doubling metrics.

Maintains a low-stretch, low-weight graph over a point set under
insertions and deletions, with an exact update strategy and a faster
one driven by cached coarse distance estimates, plus brute-force
reference oracles and a benchmark harness.
"""

from .harness import RunResult, RunSummary, ScenarioConfig, build_structure, lightness_sweep, run
from .light_spanner import DynamicLightSpanner, UpdateReport
from .metric import DistanceMatrixSpace, MetricSpace, scale_of, validate_bounded
from .net_spanner import NetSpanner
from .net_tree import NetHierarchy

__version__ = "0.1.0"

__all__ = [
    "DistanceMatrixSpace",
    "DynamicLightSpanner",
    "MetricSpace",
    "NetHierarchy",
    "NetSpanner",
    "RunResult",
    "RunSummary",
    "ScenarioConfig",
    "UpdateReport",
    "build_structure",
    "lightness_sweep",
    "run",
    "scale_of",
    "validate_bounded",
]
