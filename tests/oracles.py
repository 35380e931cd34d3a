"""Reference implementations that the estimator's code is tested against.

They compute the plain way, one pair or one detection at a time, and are
used only by the tests: ``polar_distance`` is the oracle of
``polar_distance_matrix``, the dense cost over which the tests solve the
assignment that ``associate`` must equal, ``doppler_residuals`` (one row
per detection, in each sensor's own frame) the oracle of the pooled and
compressed ``doppler_block_residual``, ``landmark_residuals`` (one row per
match) the oracle of ``compress_landmarks`` and ``heading_block_residual``.
The rotation references are ``exp_so3`` (Rodrigues' formula), the oracle of
``quat_exp`` and of the fine-step integrator the preintegration tests
compare with, ``log_so3`` its inverse, and ``quat_from_matrix`` (Shepperd's
method), the inverse of ``quat_to_matrix``. ``skew``, ``quat_mul``,
``quat_left_mat``, ``quat_right_mat`` and ``quat_to_matrix`` write out each
component, the oracles of the constant-table maps of the same names in
``radarloc.geometry``; the other oracles use them.
"""

from __future__ import annotations

import numpy as np

from radarloc.geometry import _SMALL_ANGLE, quat_canonical, quat_normalize, wrap_angle
from radarloc.rio.factors import yaw_and_jacobian
from radarloc.rio.state import BG, STATE_DIM, THETA, VEL, State


def _matrix(rows) -> np.ndarray:
    """Matrix, or stack of matrices, from rows of components unpacked from ``a.T``.

    ``a.T`` puts the component axis first and reverses the leading axes;
    ``.T`` undoes both and ``swapaxes`` restores the row layout.
    """
    return np.array(rows).T.swapaxes(-1, -2)


def skew(v: np.ndarray) -> np.ndarray:
    """The 3x3 matrix S with S @ w == cross(v, w); (n, 3) gives (n, 3, 3)."""
    x, y, z = np.asarray(v, dtype=float).T
    o = 0.0 * x
    return _matrix([[o, -z, y], [z, o, -x], [-y, x, o]])


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b, component by component."""
    aw, ax, ay, az = np.asarray(a).T
    bw, bx, by, bz = np.asarray(b).T
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    ).T


def quat_left_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix L with L(q) @ p == quat_mul(q, p)."""
    w, x, y, z = np.asarray(q).T
    return _matrix([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])


def quat_right_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix R with R(q) @ p == quat_mul(p, q)."""
    w, x, y, z = np.asarray(q).T
    return _matrix([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion, entry by entry."""
    w, x, y, z = np.asarray(q).T
    xx, yy, zz = x * x, y * y, z * z
    wx, wy, wz = w * x, w * y, w * z
    xy, xz, yz = x * y, x * z, y * z
    return _matrix(
        [
            [1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)],
            [2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)],
            [2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)],
        ]
    )


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


def polar_distance_matrix(
    detections: np.ndarray, landmarks: np.ndarray, range_weight: float
) -> np.ndarray:
    """Pairwise polar distances ``sqrt(L^2 dbearing^2 + drange^2)``, (n_det, n_lm).

    Pairs with a degenerate point (no planar bearing, or a non-finite
    coordinate) are infinite. The bearing term uses
    ``|wrap(dphi)| = min(|dphi|, 2 pi - |dphi|)``, exact for bearings in
    [-pi, pi].
    """

    def polar(points):
        planar = np.hypot(points[:, 0], points[:, 1])
        bad = ~(planar >= 1e-9) | ~np.isfinite(points).all(axis=1)
        return np.arctan2(points[:, 1], points[:, 0]), np.linalg.norm(points, axis=1), bad

    phi_d, r_d, bad_d = polar(detections)
    phi_l, r_l, bad_l = polar(landmarks)
    dphi = np.abs(phi_d[:, None] - phi_l[None, :])
    dphi = np.minimum(dphi, 2.0 * np.pi - dphi)
    cost = np.hypot(range_weight * dphi, r_d[:, None] - r_l[None, :])
    cost[bad_d, :] = np.inf
    cost[:, bad_l] = np.inf
    return cost


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


def exp_so3(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues' formula; stable for small angles."""
    angle = np.linalg.norm(rotvec)
    if angle < _SMALL_ANGLE:
        return np.eye(3) + skew(rotvec)
    axis = rotvec / angle
    K = skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Rotation matrix to canonical unit quaternion (Shepperd's method)."""
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_canonical(quat_normalize(q))
