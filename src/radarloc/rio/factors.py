"""Measurement residuals and their analytic Jacobians.

All Jacobians are with respect to the 12-dim error state
[dtheta, dv, dba, dbg] of :mod:`.state`, using the right-multiplied
orientation increment. Rotation-error Jacobians are computed exactly via
quaternion product matrices, so they match finite differences of the
implemented residuals at any linearization point, not only near zero
error.

The three factors the window evaluates (``doppler_block_residual``,
``heading_block_residual`` and ``imu_residual``) take one state or a
stacked ``State`` with its blocks stacked alike, and then return residuals
and Jacobians with the same leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    matvec,
    quat_conj,
    quat_left_mat,
    quat_mul,
    quat_normalize,
    quat_right_mat,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
    wrap_angle,
)
from .preintegration import PreintegratedImu
from .state import BA, BG, STATE_DIM, THETA, VEL, State

IMU_RESIDUAL_DIM = 12  # rows: [rotation, velocity, gyro bias, accel bias]
# least variance of an IMU residual row, so that its covariance has a Cholesky factor
COVARIANCE_FLOOR = 1e-12


def _imu_unit_entries() -> np.ndarray:
    """The +-I entries of the IMU residual's Jacobian in x_k1, constant at any states.

    The velocity, gyro-bias and accel-bias rows are each the estimate minus
    the prediction, so ``x_k1`` enters them with +I and ``x_k`` with -I.
    """
    unit = np.zeros((IMU_RESIDUAL_DIM, STATE_DIM))
    eye = np.eye(3)
    unit[3:6, VEL] = eye
    unit[6:9, BG] = eye
    unit[9:12, BA] = eye
    return unit


_IMU_UNIT = _imu_unit_entries()
_IMU_UNIT_NEG = -_IMU_UNIT
_BIAS_ROWS = np.arange(6, IMU_RESIDUAL_DIM)  # the diagonal bias blocks of the whitening


def imu_residual(x_k: State, x_k1: State, pre: PreintegratedImu):
    """12-dim consistency residual between two states and the IMU compound.

    Zero exactly when ``x_k1`` equals the propagation of ``x_k``. Rows are
    [orientation error, velocity error, gyro-bias change, accel-bias
    change], each expressed as estimate minus prediction. For n edges at
    once, pass the states and the edges stacked as ``Rows``; the residual
    is then (n, 12) and each Jacobian (n, 12, 12).

    The orientation error ``e_q = x_k1.q * q_pred^-1`` is read off the
    product matrix that also gives its Jacobian in ``x_k1``, and the
    bias-correction rotation ``phi`` of ``PreintegratedImu.corrected`` is
    where the gyro-bias columns take the right Jacobian.
    """
    dq, dv, phi = pre.corrected(x_k.ba, x_k.bg)
    R_k = quat_to_matrix(x_k.q)
    q_pred = quat_normalize(quat_mul(x_k.q, dq))
    v_pred = x_k.v + matvec(R_k, dv) + pre.gravity_dt

    # x_k1.q * p * q_pred^-1 as a matrix in p: its column 0 is e_q, and its
    # lower-right block is the Jacobian of 2 vec(e_q) in x_k1's increment
    M = quat_left_mat(x_k1.q) @ quat_right_mat(quat_conj(q_pred))
    e_q = M[..., :, 0]
    sign = np.where(e_q[..., :1, None] < 0.0, -1.0, 1.0)  # to take e_q as w >= 0
    res = np.concatenate(
        [2.0 * sign[..., 0] * e_q[..., 1:4], x_k1.v - v_pred, x_k1.bg - x_k.bg, x_k1.ba - x_k.ba],
        axis=-1,
    )

    shape = res.shape[:-1] + (IMU_RESIDUAL_DIM, STATE_DIM)
    J_k1 = np.empty(shape)
    J_k1[...] = _IMU_UNIT
    J_k = np.empty(shape)
    J_k[...] = _IMU_UNIT_NEG

    # rotation rows. Perturbing x_k by Exp(dtheta) turns e_q into
    # e_q * Exp(-R_k dtheta), up to the norm of x_k * dq, which is 1.
    rot_k1 = sign * M[..., 1:4, 1:4]
    J_k1[..., 0:3, THETA] = rot_k1
    J_k[..., 0:3, THETA] = (-sign * quat_left_mat(e_q)[..., 1:4, 1:4]) @ R_k
    # gyro-bias sensitivity of the compound rotation, including the
    # right-Jacobian of the already-applied first-order correction
    J_k[..., 0:3, BG] = -rot_k1 @ (right_jacobian_so3(phi) @ pre.j_rot_bg)

    # velocity rows; the bias columns BA, BG are adjacent
    J_k[..., 3:6, THETA] = R_k @ skew(dv)
    J_k[..., 3:6, BA.start : BG.stop] = -R_k @ pre.j_vel
    return res, J_k, J_k1


def imu_sqrt_information(pre: PreintegratedImu) -> np.ndarray:
    """Whitening matrix for the IMU residual (block diagonal 12x12).

    The [rotation, velocity] block is the inverse of the Cholesky factor of
    its 6x6 covariance; the bias blocks are diagonal, one over the root of
    the random-walk variance. n edges stacked as ``Rows`` give the
    (n, 12, 12) stack of their matrices.
    """
    dt = np.asarray(pre.dt)[..., None]
    floor = COVARIANCE_FLOOR
    W = np.zeros(dt.shape[:-1] + (IMU_RESIDUAL_DIM, IMU_RESIDUAL_DIM))
    W[..., 0:6, 0:6] = np.linalg.inv(np.linalg.cholesky(pre.cov_rot_vel + np.eye(6) * floor))
    walk = np.array([pre.params.gyro_bias_walk, pre.params.accel_bias_walk]).repeat(3)
    W[..., _BIAS_ROWS, _BIAS_ROWS] = 1.0 / np.sqrt(np.maximum(walk**2 * dt, floor))
    return W


def yaw_and_jacobian(q: np.ndarray):
    """Yaw of R(q) and its exact derivative w.r.t. the body increment dtheta.

    With ``R = Rz(yaw) Ry(pitch) Rx(roll)`` the yaw rate is
    ``(sin(roll) w_y + cos(roll) w_z) / cos(pitch)``, i.e. ``[0, R21, R22]``
    over ``R00^2 + R10^2 = cos(pitch)^2``.
    """
    R = quat_to_matrix(q)
    planar_sq = R[..., 0, 0] ** 2 + R[..., 1, 0] ** 2
    J = np.stack([np.zeros_like(planar_sq), R[..., 2, 1], R[..., 2, 2]], axis=-1)
    return np.arctan2(R[..., 1, 0], R[..., 0, 0]), J / planar_sq[..., None]


def compress_doppler(rays: np.ndarray, levers: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Triangular factor ``T`` (at most 7x7) of the QR of ``[rays, levers, rates]``.

    The rows are one step's pooled inliers of every sensor: the columns
    ``directions``, ``levers`` and ``rates`` of ``PooledDetections``. A
    static detection's pooled rate is ``ray . R^T v + bg . lever``, so its
    residual is ``[ray, lever, rate] @ [-R^T v; -bg; 1]`` and the block's
    squared residual equals ``|T @ [-R^T v; -bg; 1]|^2`` exactly. Unlike a
    Cholesky factor of the Gram matrix, QR needs no full rank.
    """
    return np.linalg.qr(np.column_stack([rays, levers, rates]), mode="r")


def doppler_block_residual(state: State, sqrt_rows: np.ndarray):
    """Compressed range-rate residual of one step's pooled detections.

    ``sqrt_rows`` is ``compress_doppler(rays, levers, rates)`` with the
    rates column ``PooledDetections.rates``, and the residual is
    ``T[:, 6] - T[:, :3] R^T v - T[:, 3:6] bg``. Its squared norm, Jacobian
    Gram matrix and gradient equal those of the per-detection rows of every
    sensor over the same detections (the oracle
    ``doppler_residuals`` of ``tests/oracles.py``, per sensor frame). For n
    blocks at once, pass the states of the blocks stacked and ``sqrt_rows``
    zero-padded to (n, 7, 7); the padding gives zero rows.
    """
    R_io = np.swapaxes(quat_to_matrix(state.q), -1, -2)
    m = matvec(R_io, state.v)  # IMU-frame velocity
    T_v, T_b = sqrt_rows[..., :3], sqrt_rows[..., 3:6]
    residual = sqrt_rows[..., 6] - matvec(T_v, m) - matvec(T_b, state.bg)
    J = np.zeros(residual.shape + (STATE_DIM,))
    J[..., THETA] = -T_v @ skew(m)
    J[..., VEL] = -T_v @ R_io
    J[..., BG] = -T_b
    return residual, J


def compress_landmarks(bearings_meas: np.ndarray, offsets_global: np.ndarray) -> np.ndarray:
    """Reduce a block of heading rows to the row ``[count, yaw_ref, mean, spread]``.

    Row i's residual at yaw is ``wrap(bearing_i - atan2(offset_i) + yaw)``
    (the oracle ``landmark_residuals`` of ``tests/oracles.py``), and every
    row has the same yaw Jacobian. ``count`` is the number of rows,
    ``yaw_ref`` the circular-mean yaw they imply, ``mean`` the mean of their
    residuals ``d_i`` at ``yaw_ref`` and ``spread`` the root of the summed
    squared deviations of ``d_i`` from it. The block's squared cost at any
    yaw is ``count (mean + wrap(yaw - yaw_ref))^2 + spread^2``, exact while
    no row crosses the +-pi wrap. Offsets with no planar extent have no
    bearing and are left out; with none left the row is zero.
    """
    planar_sq = offsets_global[:, 0] ** 2 + offsets_global[:, 1] ** 2
    valid = planar_sq > 1e-12
    if not np.any(valid):
        return np.zeros(4)
    bearings, offsets = bearings_meas[valid], offsets_global[valid]
    at_zero_yaw = bearings - np.arctan2(offsets[:, 1], offsets[:, 0])
    yaw_ref = -np.arctan2(np.sin(at_zero_yaw).sum(), np.cos(at_zero_yaw).sum())
    d = wrap_angle(at_zero_yaw + yaw_ref)
    mean = d.mean()
    return np.array([len(d), yaw_ref, mean, np.linalg.norm(d - mean)])


def heading_block_residual(state: State, rows: np.ndarray):
    """Two-row residual whose squared norm equals the block's heading cost.

    ``rows`` is the ``compress_landmarks`` row ``[count, yaw_ref, mean,
    spread]``. Row 0 of the residual is ``sqrt(count) (mean + wrap(yaw -
    yaw_ref))``; row 1 is the constant ``spread`` with a zero Jacobian. For
    n blocks at once, pass the states stacked and ``rows`` stacked to
    (n, 4); the residual is then (n, 2).
    """
    yaw, J_yaw = yaw_and_jacobian(state.q)
    count, yaw_ref, mean, spread = np.moveaxis(np.asarray(rows, dtype=float), -1, 0)
    scale = np.sqrt(count)
    residual = np.stack([scale * (mean + wrap_angle(yaw - yaw_ref)), spread], axis=-1)
    J = np.zeros(residual.shape + (STATE_DIM,))
    J[..., 0, THETA] = scale[..., None] * J_yaw
    return residual, J


@dataclass
class PriorFactor:
    """Gaussian prior on one state, anchored at a linearization point.

    Residual is ``sqrt_info @ delta + rhs`` with ``delta`` the error of the
    state relative to ``mean``, the inverse of ``mean.retract``: rotation
    ``quat_local_error(x.q, mean.q)``, then ``x.v - mean.v``,
    ``x.ba - mean.ba`` and ``x.bg - mean.bg``. ``rhs`` carries the
    information-vector offset produced by marginalization.
    """

    mean: State
    sqrt_info: np.ndarray
    rhs: np.ndarray
    regularized: bool = False

    @staticmethod
    def from_sigmas(mean: State, sigma_rot, sigma_vel, sigma_ba, sigma_bg) -> "PriorFactor":
        inv = np.concatenate(
            [
                np.full(3, 1.0 / sigma_rot),
                np.full(3, 1.0 / sigma_vel),
                np.full(3, 1.0 / sigma_ba),
                np.full(3, 1.0 / sigma_bg),
            ]
        )
        return PriorFactor(mean.copy(), np.diag(inv), np.zeros(STATE_DIM))

    @staticmethod
    def from_information(
        mean: State, H: np.ndarray, b: np.ndarray, epsilon: float
    ) -> "PriorFactor":
        """Build from an information matrix/vector, regularizing if needed.

        ``H`` is symmetrized here. When it is not positive definite, its
        eigenvalues are clipped at ``epsilon`` and the prior is flagged
        ``regularized``, so any finite ``H`` gives a finite prior.
        """
        H = 0.5 * (H + H.T)
        regularized = False
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            regularized = True
            w, V = np.linalg.eigh(H)
            L = V * np.sqrt(np.maximum(w, epsilon))  # L L^T is H clipped; not triangular
        sqrt_info = L.T
        rhs = np.linalg.solve(L, b)
        return PriorFactor(mean.copy(), sqrt_info, rhs, regularized)

    def residual(self, x: State):
        # quat_local_error(x.q, mean.q) is 2 vec(e_q), e_q flipped to w >= 0;
        # e_q also gives the Jacobian
        mean = self.mean
        e_q = quat_mul(quat_conj(mean.q), x.q)
        sign = -1.0 if e_q[0] < 0.0 else 1.0
        delta = np.concatenate(
            [2.0 * sign * e_q[1:4], x.v - mean.v, x.ba - mean.ba, x.bg - mean.bg]
        )
        res = self.sqrt_info @ delta + self.rhs
        # d delta / d dtheta is the identity but for its rotation block
        J = self.sqrt_info.copy()
        J[:, THETA] = self.sqrt_info[:, THETA] @ (sign * quat_left_mat(e_q)[1:4, 1:4])
        return res, J
