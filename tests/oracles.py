"""Scalar reference implementations that the vectorized code is tested against.

They compute one pair at a time, the plain way, and are used only by the
tests: ``polar_distance`` is the oracle of ``polar_distance_matrix``.
"""

from __future__ import annotations

import numpy as np

from radarloc.geometry import wrap_angle


class DegenerateBearingError(ValueError):
    """Raised when a bearing is requested for a point on the z axis."""


def bearing(p: np.ndarray) -> float:
    """Planar bearing atan2(y, x) of a point, in (-pi, pi]."""
    x, y = float(p[0]), float(p[1])
    if x == 0.0 and y == 0.0:
        raise DegenerateBearingError("bearing undefined for a point on the z axis")
    return float(np.arctan2(y, x))


def polar_distance(p_a: np.ndarray, p_b: np.ndarray, range_weight: float) -> float:
    """sqrt(L^2 * dbearing^2 + drange^2) between two IMU-frame points."""
    dphi = wrap_angle(bearing(p_a) - bearing(p_b))
    drange = np.linalg.norm(p_a) - np.linalg.norm(p_b)
    return float(np.hypot(range_weight * dphi, drange))
