"""Sliding-window radar-inertial odometry."""

from .estimator import (
    EstimatorDivergence,
    OdometryOutput,
    RioEstimator,
    StepDiagnostics,
    run_odometry,
)

__all__ = [
    "EstimatorDivergence",
    "OdometryOutput",
    "RioEstimator",
    "StepDiagnostics",
    "run_odometry",
]
