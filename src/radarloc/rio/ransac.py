"""Ego-velocity estimation and dynamic-detection rejection.

All detections from all sensors at one timestep are pooled into a single
linear problem: after lever-arm compensation, a static detection's range
rate equals the IMU-frame velocity projected on its (IMU-frame) ray.
Detections that do not fit the consensus velocity are flagged dynamic and
excluded downstream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RansacParams
from ..geometry import RigidTransform


@dataclass
class PooledDetections:
    """Per-timestep detections from all sensors, in solver-ready form."""

    directions: np.ndarray  # (n, 3) unit rays rotated into the IMU frame
    rates: np.ndarray  # (n,) lever-arm-compensated range rates
    sensor_ids: np.ndarray  # (n,)
    indices: np.ndarray  # (n,) index within the original scan
    positions: np.ndarray | None = None  # (n, 3) IMU-frame detection positions
    dropped: int = 0  # detections left out for a non-finite value or no positive range

    def __len__(self) -> int:
        return len(self.rates)


def compensate_lever_arm(
    points: np.ndarray,
    doppler: np.ndarray,
    extrinsic: RigidTransform,
    omega: np.ndarray,
    gyro_bias: np.ndarray,
):
    """Remove the lever-arm velocity from measured range rates.

    Returns IMU-frame detection positions, IMU-frame unit ray directions,
    and compensated range rates satisfying ``rr = v_imu . direction`` for
    static detections. With ``omega == gyro_bias`` the rates are unchanged.
    """
    R_ir = extrinsic.rotation
    norms = np.linalg.norm(points, axis=1)
    if np.any(norms <= 0.0):
        raise ValueError("detections must have positive range")
    rays_sensor = points / norms[:, None]
    rays_imu = rays_sensor @ R_ir.T
    positions_imu = points @ R_ir.T + extrinsic.t
    # sensor point velocity from body rotation: (omega - bias) x lever arm
    lever_vel = np.cross(omega - gyro_bias, extrinsic.t)
    compensated = doppler - rays_imu @ lever_vel
    return positions_imu, rays_imu, compensated


def pool_scans(
    scans,
    extrinsics: list[RigidTransform],
    omega: np.ndarray,
    gyro_bias: np.ndarray,
) -> PooledDetections:
    """All sensors' detections at one timestep, lever-arm compensated.

    A detection with a non-finite coordinate or range rate, or at zero range,
    has no ray; it is left out and counted in ``dropped``. ``indices`` keep
    each pooled detection's index in its own scan.
    """
    dirs, rates, sids, idxs, positions = [], [], [], [], []
    dropped = 0
    for scan in scans:
        if len(scan) == 0:
            continue
        ranges = np.linalg.norm(scan.points, axis=1)
        keep = np.flatnonzero(np.isfinite(ranges) & (ranges > 0.0) & np.isfinite(scan.doppler))
        dropped += len(scan) - len(keep)
        if len(keep) == 0:
            continue
        positions_imu, rays_imu, compensated = compensate_lever_arm(
            scan.points[keep], scan.doppler[keep], extrinsics[scan.sensor_id], omega, gyro_bias
        )
        dirs.append(rays_imu)
        rates.append(compensated)
        sids.append(np.full(len(keep), scan.sensor_id, dtype=int))
        idxs.append(keep)
        positions.append(positions_imu)
    if not dirs:
        return PooledDetections(
            np.zeros((0, 3)),
            np.zeros(0),
            np.zeros(0, int),
            np.zeros(0, int),
            np.zeros((0, 3)),
            dropped,
        )
    return PooledDetections(
        np.vstack(dirs),
        np.concatenate(rates),
        np.concatenate(sids),
        np.concatenate(idxs),
        np.vstack(positions),
        dropped,
    )


@dataclass
class RansacResult:
    velocity: np.ndarray | None  # IMU-frame velocity, None when degraded
    inlier_mask: np.ndarray
    degraded: bool
    reason: str = ""
    iterations_used: int = 0

    @property
    def ok(self) -> bool:
        return not self.degraded


def estimate_velocity(
    pooled: PooledDetections,
    params: RansacParams,
    seed: int | Sequence[int] = 0,
) -> RansacResult:
    """RANSAC over the pooled range-rate equations.

    Minimal model: exact solve of three ray/rate pairs; consensus by rate
    residual below the inlier threshold; the returned velocity refits all
    consensus inliers by least squares and the mask is recomputed once
    from that refit. Degenerate geometry (rays spanning fewer than three
    directions) and thin consensus both degrade the step.

    ``seed`` is an int or a sequence of ints, such as ``[run_seed, step]``
    for an independent stream per radar step; ``s`` and ``[s]`` draw the
    same stream.
    """
    n = len(pooled)
    empty = np.zeros(n, dtype=bool)
    if n < max(3, params.min_inliers):
        return RansacResult(None, empty, True, "too_few_detections")

    dirs = pooled.directions
    rates = pooled.rates
    seed_ints = [int(seed)] if np.isscalar(seed) else [int(s) for s in seed]
    rng = np.random.default_rng(np.random.SeedSequence([*seed_ints, 0x3303]))

    best_count = 0
    best_mask = empty
    iterations = 0
    for iterations in range(1, params.iterations + 1):
        pick = rng.choice(n, size=3, replace=False)
        A = dirs[pick]
        # near-coplanar ray triplets carry no 3D velocity information
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        v = np.linalg.solve(A, rates[pick])
        mask = np.abs(rates - dirs @ v) < params.inlier_threshold
        count = int(mask.sum())
        if count > best_count:
            best_count = count
            best_mask = mask
            if count == n:
                break

    if best_count < params.min_inliers:
        return RansacResult(None, empty, True, "insufficient_consensus", iterations)

    def refit(mask):
        A = dirs[mask]
        if np.linalg.matrix_rank(A, tol=1e-6) < 3:
            return None
        v, *_ = np.linalg.lstsq(A, rates[mask], rcond=None)
        return v

    v = refit(best_mask)
    if v is None:
        return RansacResult(None, empty, True, "degenerate_geometry", iterations)
    mask = np.abs(rates - dirs @ v) < params.inlier_threshold
    if int(mask.sum()) >= params.min_inliers:
        refined = refit(mask)
        if refined is not None:
            v = refined
            mask = np.abs(rates - dirs @ v) < params.inlier_threshold
    if int(mask.sum()) < params.min_inliers:
        return RansacResult(None, empty, True, "insufficient_consensus", iterations)
    return RansacResult(v, mask, False, "", iterations)
