"""Odometry error against simulator ground truth, in the odometry's own frame.

``run_odometry`` starts at identity orientation and zero position, so its
outputs are expressed in the IMU frame of the first processed step, not in
the simulator's world frame. The ground-truth pose at the first output's
time is therefore taken as the origin, and every later ground-truth pose
and velocity is expressed relative to it before the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from radarloc.geometry import quat_conj, quat_mul, quat_to_matrix, quat_yaw, wrap_angle
from radarloc.sim import GroundTruth


@dataclass
class TrackErrors:
    """Per-output errors of one odometry track."""

    position_m: np.ndarray  # (n,) |p_est - p_true|
    yaw_rad: np.ndarray  # (n,) wrapped yaw(q_est) - yaw(q_true)
    body_velocity_mps: np.ndarray  # (n,) |R_est^T v_est - R_true^T v_true|
    path_length_m: float  # ground-truth distance travelled over the track

    @property
    def drift_pct(self) -> float:
        """Final position error as a percentage of the path length."""
        return 100.0 * float(self.position_m[-1]) / self.path_length_m

    @property
    def yaw_rmse_deg(self) -> float:
        return float(np.degrees(np.sqrt(np.mean(self.yaw_rad**2))))

    @property
    def final_yaw_deg(self) -> float:
        return float(np.degrees(abs(self.yaw_rad[-1])))

    @property
    def body_velocity_rmse_mps(self) -> float:
        return float(np.sqrt(np.mean(self.body_velocity_mps**2)))


def relative_truth(gt: GroundTruth, times):
    """Ground-truth (positions, quaternions, velocities) at ``times``.

    Everything is expressed in the IMU frame of the ground-truth pose at
    ``times[0]``, which is the frame ``run_odometry`` reports in.
    """
    idx = np.array([gt.index_at(t) for t in times])
    p0 = gt.position[idx[0]]
    q0 = gt.quat[idx[0]]
    R0 = quat_to_matrix(q0)
    q0_inv = quat_conj(q0)
    positions = (gt.position[idx] - p0) @ R0
    quats = np.array([quat_mul(q0_inv, gt.quat[i]) for i in idx])
    velocities = gt.velocity[idx] @ R0
    return positions, quats, velocities


def track_errors(times, quats, velocities, positions, gt: GroundTruth) -> TrackErrors:
    """Compare an odometry track with ground truth in the odometry frame."""
    times = np.asarray(times, dtype=float)
    p_true, q_true, v_true = relative_truth(gt, times)
    position = np.linalg.norm(np.asarray(positions) - p_true, axis=1)
    yaw = np.array(
        [wrap_angle(quat_yaw(q) - quat_yaw(qt)) for q, qt in zip(quats, q_true)], dtype=float
    )
    body = np.array(
        [
            quat_to_matrix(q).T @ v - quat_to_matrix(qt).T @ vt
            for q, v, qt, vt in zip(quats, velocities, q_true, v_true)
        ]
    )
    first, last = gt.index_at(times[0]), gt.index_at(times[-1])
    path = float(np.sum(np.linalg.norm(np.diff(gt.position[first : last + 1], axis=0), axis=1)))
    return TrackErrors(position, yaw, np.linalg.norm(body, axis=1), path)


def output_errors(outputs, gt: GroundTruth) -> TrackErrors:
    """``track_errors`` of a list of ``OdometryOutput``."""
    return track_errors(
        [o.t for o in outputs],
        [o.q for o in outputs],
        [o.v for o in outputs],
        [o.p for o in outputs],
        gt,
    )
