"""Reference implementations that the estimator's code is tested against.

They compute the plain way, one pair or one detection at a time, and are
used only by the tests: ``polar_distance`` is the oracle of
``polar_distance_matrix``, ``doppler_residuals`` (one row per detection, in
each sensor's own frame) the oracle of the pooled and compressed
``doppler_block_residual``, ``landmark_residuals`` (one row per match) the
oracle of ``compress_landmarks`` and ``heading_block_residual``, and
``log_so3`` the inverse of ``exp_so3``.
"""

from __future__ import annotations

import numpy as np

from radarloc.geometry import _SMALL_ANGLE, quat_to_matrix, wrap_angle
from radarloc.rio.factors import yaw_and_jacobian
from radarloc.rio.state import BG, STATE_DIM, THETA, VEL, State


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


def doppler_residuals(
    state: State,
    rays: np.ndarray,
    doppler: np.ndarray,
    R_imu_radar: np.ndarray,
    t_imu_radar: np.ndarray,
    omega: np.ndarray,
    with_jacobian: bool = True,
):
    """Range-rate residuals for one sensor's inlier detections.

    ``rays`` are unit sensor-frame directions; the prediction projects the
    global velocity rotated into the radar frame plus the lever-arm
    velocity induced by the bias-corrected body rate onto each ray.
    """
    A = R_imu_radar.T  # radar <- imu
    t_ri = -(A @ t_imu_radar)
    R_io = quat_to_matrix(state.q).T
    lever_rows = np.cross(rays, t_ri) @ A  # rows: d(prediction)/d(omega - bg)
    vel_rows = rays @ (A @ R_io)
    residual = doppler - vel_rows @ state.v - lever_rows @ (omega - state.bg)
    if not with_jacobian:
        return residual, None
    J = np.zeros((len(rays), STATE_DIM))
    m = R_io @ state.v
    J[:, THETA] = -np.cross(rays @ A, np.broadcast_to(m, rays.shape))
    J[:, VEL] = -vel_rows
    J[:, BG] = lever_rows
    return residual, J


def landmark_residuals(
    state: State,
    bearings_meas: np.ndarray,
    offsets_global: np.ndarray,
    with_jacobian: bool = True,
):
    """Heading residuals for tracked landmarks.

    ``bearings_meas`` are detection bearings in the gravity-levelled frame:
    the IMU-frame detection rotated by ``tilt_matrix`` of the predicted
    orientation, so roll and pitch are removed before the bearing is taken.
    ``offsets_global[i]`` is the (constant) landmark position minus the
    dead-reckoned robot position. The residual
    ``wrap(bearing - atan2(offset_y, offset_x) + yaw(q))`` compares the
    measured bearing with the landmark bearing in the yaw-rotated frame and
    depends on the state through yaw alone: roll, pitch, velocity and the
    biases are unconstrained. Offsets with no planar extent are invalid and
    get a zero residual and Jacobian.
    """
    planar_sq = offsets_global[:, 0] ** 2 + offsets_global[:, 1] ** 2
    valid = planar_sq > 1e-12
    yaw, J_yaw = yaw_and_jacobian(state.q)
    predicted = np.arctan2(offsets_global[:, 1], offsets_global[:, 0])
    residual = np.where(valid, wrap_angle(bearings_meas - predicted + yaw), 0.0)
    if not with_jacobian:
        return residual, None, valid
    J = np.zeros((len(offsets_global), STATE_DIM))
    J[valid, THETA] = J_yaw
    return residual, J, valid


def log_so3(R: np.ndarray) -> np.ndarray:
    """Rotation vector of R; inverse of ``exp_so3`` on (-pi, pi]."""
    cos_angle = np.clip(0.5 * (np.trace(R) - 1.0), -1.0, 1.0)
    angle = np.arccos(cos_angle)
    if angle < _SMALL_ANGLE:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle > np.pi - 1e-7:
        # near pi the off-diagonal formula degenerates; recover axis from R + I
        A = 0.5 * (R + np.eye(3))
        axis = np.sqrt(np.clip(np.diag(A), 0.0, None))
        # fix signs from the largest component
        k = int(np.argmax(axis))
        if axis[k] > 0.0:
            axis = axis * np.sign(A[k] / axis[k])
            axis[k] = abs(axis[k])
        axis = axis / np.linalg.norm(axis)
        return angle * axis
    return (angle / (2.0 * np.sin(angle))) * np.array(
        [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]
    )
