"""Radar scan synthesis.

Range rate convention: a detection's Doppler equals the projection of the
sensor's full velocity (including the lever-arm contribution of body
rotation) onto the sensor-to-target ray, so driving toward a static target
yields a positive range rate. Moving targets additionally contribute the
projection of their own velocity. Logs from a sensor that reports the
negated closing speed must be converted to this convention before replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import quat_to_matrix
from .rig import SensorRig
from .scene import Scene
from .trajectory import GroundTruth

_SCAN_STREAM = 0x2202


@dataclass
class RadarScan:
    """One sensor's detections at one timestep (sensor-frame positions)."""

    t: float
    sensor_id: int
    points: np.ndarray  # (n, 3)
    doppler: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.doppler)


def _spherical(points: np.ndarray):
    rng = np.linalg.norm(points, axis=1)
    az = np.arctan2(points[:, 1], points[:, 0])
    el = np.arctan2(points[:, 2], np.hypot(points[:, 0], points[:, 1]))
    return rng, az, el


def _cartesian(rng, az, el) -> np.ndarray:
    cos_el = np.cos(el)
    return np.stack([rng * cos_el * np.cos(az), rng * cos_el * np.sin(az), rng * np.sin(el)], axis=1)


def _visible(rig: SensorRig, rng, az, el) -> np.ndarray:
    return (
        (rng > rig.min_range)
        & (rng <= rig.max_range)
        & (np.abs(az) <= rig.azimuth_fov)
        & (np.abs(el) <= rig.elevation_fov)
    )


def simulate_scan(
    gt: GroundTruth,
    index: int,
    scene: Scene,
    rig: SensorRig,
    sensor_id: int,
    seed: int = 0,
) -> RadarScan:
    """Simulate one scan at ground-truth sample ``index``.

    Deterministic per ``(seed, index, sensor_id)``, so scans for different
    timesteps or sensors can be generated concurrently.
    """
    t = float(gt.t[index])
    R_oi = quat_to_matrix(gt.quat[index])
    extr = rig.extrinsics[sensor_id]
    R_ir = extr.rotation
    R_or = R_oi @ R_ir
    sensor_pos = R_oi @ extr.t + gt.position[index]
    # full sensor velocity: body velocity plus rotation acting on the lever arm
    v_sensor = gt.velocity[index] + R_oi @ np.cross(gt.body_rate[index], extr.t)
    v_sensor_r = R_or.T @ v_sensor

    rng_stream = np.random.default_rng(np.random.SeedSequence([int(seed), _SCAN_STREAM, index, sensor_id]))

    point_blocks = []
    doppler_blocks = []

    def add_targets(positions: np.ndarray, velocities: np.ndarray, weights: np.ndarray) -> None:
        if len(positions) == 0:
            return
        local = (positions - sensor_pos) @ R_or
        r, az, el = _spherical(local)
        mask = _visible(rig, r, az, el)
        draws = rng_stream.uniform(size=len(positions))
        mask &= draws < weights
        if not np.any(mask):
            return
        local = local[mask]
        r, az, el = r[mask], az[mask], el[mask]
        rays = local / r[:, None]
        target_vel_r = velocities[mask] @ R_or
        doppler = rays @ v_sensor_r + np.einsum("ij,ij->i", rays, target_vel_r)
        r = r + rig.range_sigma * rng_stream.standard_normal(len(r))
        az = az + rig.azimuth_sigma * rng_stream.standard_normal(len(az))
        el = el + rig.elevation_sigma * rng_stream.standard_normal(len(el))
        doppler = doppler + rig.doppler_sigma * rng_stream.standard_normal(len(doppler))
        keep = _visible(rig, r, az, el)
        point_blocks.append(_cartesian(r[keep], az[keep], el[keep]))
        doppler_blocks.append(doppler[keep])

    add_targets(
        scene.static_points,
        np.zeros_like(scene.static_points),
        scene.static_weights,
    )
    if scene.dynamic_objects:
        dyn_pos = np.array([obj.position_at(t) for obj in scene.dynamic_objects])
        dyn_vel = np.array([obj.velocity for obj in scene.dynamic_objects])
        add_targets(dyn_pos, dyn_vel, np.ones(len(dyn_pos)))

    n_clutter = int(rng_stream.poisson(scene.clutter_density))
    if n_clutter > 0:
        r = rng_stream.uniform(rig.min_range, rig.max_range, n_clutter)
        az = rng_stream.uniform(-rig.azimuth_fov, rig.azimuth_fov, n_clutter)
        el = rng_stream.uniform(-rig.elevation_fov, rig.elevation_fov, n_clutter)
        point_blocks.append(_cartesian(r, az, el))
        doppler_blocks.append(rng_stream.uniform(-rig.doppler_max, rig.doppler_max, n_clutter))

    if point_blocks:
        points = np.vstack(point_blocks)
        doppler = np.concatenate(doppler_blocks)
    else:
        points = np.zeros((0, 3))
        doppler = np.zeros(0)
    return RadarScan(t=t, sensor_id=sensor_id, points=points, doppler=doppler)
