"""The paper's primary contribution: Federated Dynamic Averaging (FDA).

``repro.core`` contains the drift/variance algebra (Section 3), the variance
monitors whose local-state rows define the SketchFDA and LinearFDA variants
(Sections 3.1 and 3.2), the :class:`FDATrainer` implementing Algorithm 1, the
shared virtual-time :class:`Timeline` (the Section 3.3 coordinator that runs
on its events is :class:`repro.serving.ServedFDATrainer`), and the
Θ-selection utilities corresponding to Figure 12.
"""

from repro.core.variance import (
    drift_matrix,
    model_variance,
    variance_from_drifts,
)
from repro.core.monitor import (
    ExactMonitor,
    LinearMonitor,
    SketchMonitor,
    VarianceMonitor,
    make_monitor,
)
from repro.core.fda import FDATrainer, FdaStepResult
from repro.core.timeline import StragglerProfile, Timeline
from repro.core.theta import (
    ThetaGuideline,
    fit_theta_slope,
    theta_guideline,
)

__all__ = [
    "model_variance",
    "variance_from_drifts",
    "drift_matrix",
    "VarianceMonitor",
    "SketchMonitor",
    "LinearMonitor",
    "ExactMonitor",
    "make_monitor",
    "FDATrainer",
    "FdaStepResult",
    "StragglerProfile",
    "Timeline",
    "theta_guideline",
    "ThetaGuideline",
    "fit_theta_slope",
]
