"""Sliding-window radar-inertial odometry."""

from .estimator import (
    EstimatorDivergence,
    OdometryOutput,
    RioEstimator,
    StepDiagnostics,
    run_odometry,
)
from .factors import (
    PriorFactor,
    imu_residual,
    imu_sqrt_information,
    landmark_residuals,
)
from .landmarks import (
    LandmarkTracker,
    associate,
    polar_distance_matrix,
)
from .preintegration import (
    PreintegratedImu,
    imu_segment,
    predict_state,
    preintegrate,
)
from .ransac import (
    PooledDetections,
    RansacResult,
    compensate_lever_arm,
    estimate_velocity,
    pool_scans,
)
from .state import STATE_DIM, State
from .window import (
    DopplerBlock,
    LandmarkBlock,
    MarginalizationInfo,
    OptimizeReport,
    SlidingWindow,
    WindowEntry,
    marginalize_oldest,
    optimize_window,
)

__all__ = [
    "DopplerBlock",
    "EstimatorDivergence",
    "LandmarkBlock",
    "LandmarkTracker",
    "MarginalizationInfo",
    "OdometryOutput",
    "OptimizeReport",
    "PooledDetections",
    "PreintegratedImu",
    "PriorFactor",
    "RansacResult",
    "RioEstimator",
    "STATE_DIM",
    "SlidingWindow",
    "State",
    "StepDiagnostics",
    "WindowEntry",
    "associate",
    "compensate_lever_arm",
    "estimate_velocity",
    "imu_residual",
    "imu_segment",
    "imu_sqrt_information",
    "landmark_residuals",
    "marginalize_oldest",
    "optimize_window",
    "polar_distance_matrix",
    "pool_scans",
    "predict_state",
    "preintegrate",
    "run_odometry",
]
