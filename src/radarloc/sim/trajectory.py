"""Analytic ground-truth trajectory generation.

All primitives produce planar (z-up) ground-vehicle motion with yaw-only
orientation: heading follows the velocity direction, so positions must be
twice differentiable and speed must stay bounded away from zero except for
the explicitly stationary primitive. Velocities and accelerations are
analytic derivatives, not finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline


class TrajectorySpecError(ValueError):
    """Raised for trajectory specs that are malformed or not smooth enough."""


@dataclass
class GroundTruth:
    """Ground-truth kinematics sampled at the IMU rate.

    ``quat`` holds q_OI (IMU to global); ``velocity``/``accel`` are global
    frame; ``body_rate`` is the IMU-frame angular rate.
    """

    t: np.ndarray
    position: np.ndarray
    quat: np.ndarray
    velocity: np.ndarray
    accel: np.ndarray
    body_rate: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def index_at(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.t - t)))
        if abs(self.t[i] - t) > 1e-6:
            raise ValueError(f"time {t} is not a ground-truth sample")
        return i


def _yaw_quats(yaw: np.ndarray) -> np.ndarray:
    half = 0.5 * np.asarray(yaw)
    q = np.zeros((len(half), 4))
    q[:, 0] = np.cos(half)
    q[:, 3] = np.sin(half)
    return q


def _assemble(t, pos, vel, acc, yaw, yaw_rate) -> GroundTruth:
    body_rate = np.zeros_like(pos)
    body_rate[:, 2] = yaw_rate
    return GroundTruth(t, pos, _yaw_quats(yaw), vel, acc, body_rate)


def _heading_from_velocity(vel: np.ndarray, acc: np.ndarray):
    speed_sq = vel[:, 0] ** 2 + vel[:, 1] ** 2
    if np.any(speed_sq < 1e-8):
        raise TrajectorySpecError("speed reaches zero; heading undefined")
    yaw = np.unwrap(np.arctan2(vel[:, 1], vel[:, 0]))
    yaw_rate = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed_sq
    return yaw, yaw_rate


def gen_trajectory(spec: dict, duration: float, imu_rate: float) -> GroundTruth:
    """Sample the trajectory described by ``spec`` at ``imu_rate``.

    Supported kinds: ``stationary``, ``line``, ``circle``, ``figure8``,
    ``waypoints``. Raises :class:`TrajectorySpecError` for malformed or
    non-smooth specs.
    """
    if duration <= 0.0:
        raise TrajectorySpecError("duration must be positive")
    if imu_rate <= 0.0:
        raise TrajectorySpecError("imu_rate must be positive")
    n = int(round(duration * imu_rate)) + 1
    t = np.arange(n) / imu_rate
    kind = spec.get("kind")

    if kind == "stationary":
        pos0 = np.asarray(spec.get("position", [0.0, 0.0, 0.0]), dtype=float)
        yaw0 = float(spec.get("yaw", 0.0))
        pos = np.tile(pos0, (n, 1))
        zeros = np.zeros((n, 3))
        return _assemble(t, pos, zeros.copy(), zeros.copy(), np.full(n, yaw0), np.zeros(n))

    if kind == "line":
        start = np.asarray(spec.get("start", [0.0, 0.0, 0.0]), dtype=float)
        yaw0 = float(spec.get("yaw", 0.0))
        speed = float(spec["speed"])
        if speed <= 0.0:
            raise TrajectorySpecError("line speed must be positive (use kind=stationary)")
        direction = np.array([np.cos(yaw0), np.sin(yaw0), 0.0])
        pos = start[None, :] + speed * t[:, None] * direction[None, :]
        vel = np.tile(speed * direction, (n, 1))
        return _assemble(t, pos, vel, np.zeros((n, 3)), np.full(n, yaw0), np.zeros(n))

    if kind == "circle":
        center = np.asarray(spec.get("center", [0.0, 0.0, 0.0]), dtype=float)
        radius = float(spec["radius"])
        speed = float(spec["speed"])
        if radius <= 0.0 or speed <= 0.0:
            raise TrajectorySpecError("circle radius and speed must be positive")
        ccw = bool(spec.get("ccw", True))
        s = 1.0 if ccw else -1.0
        theta0 = float(spec.get("start_angle", 0.0))
        omega = speed / radius
        theta = theta0 + s * omega * t
        pos = center[None, :] + radius * np.stack(
            [np.cos(theta), np.sin(theta), np.zeros(n)], axis=1
        )
        vel = speed * np.stack([-s * np.sin(theta), s * np.cos(theta), np.zeros(n)], axis=1)
        acc = -(speed * omega) * np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
        yaw = theta + s * np.pi / 2.0
        return _assemble(t, pos, vel, acc, yaw, np.full(n, s * omega))

    if kind == "figure8":
        center = np.asarray(spec.get("center", [0.0, 0.0, 0.0]), dtype=float)
        a = float(spec.get("scale_x", 20.0))
        b = float(spec.get("scale_y", 10.0))
        period = float(spec["period"])
        if a <= 0.0 or b <= 0.0 or period <= 0.0:
            raise TrajectorySpecError("figure8 scales and period must be positive")
        w = 2.0 * np.pi / period
        phi = w * t
        pos = center[None, :] + np.stack(
            [a * np.sin(phi), b * np.sin(phi) * np.cos(phi), np.zeros(n)], axis=1
        )
        vel = np.stack([a * w * np.cos(phi), b * w * np.cos(2.0 * phi), np.zeros(n)], axis=1)
        acc = np.stack(
            [-a * w * w * np.sin(phi), -2.0 * b * w * w * np.sin(2.0 * phi), np.zeros(n)], axis=1
        )
        yaw, yaw_rate = _heading_from_velocity(vel, acc)
        return _assemble(t, pos, vel, acc, yaw, yaw_rate)

    if kind == "waypoints":
        points = np.asarray(spec["points"], dtype=float)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 3:
            raise TrajectorySpecError("waypoints need at least 3 xyz points")
        if "times" in spec:
            times = np.asarray(spec["times"], dtype=float)
        else:
            speed = float(spec.get("speed", 1.0))
            if speed <= 0.0:
                raise TrajectorySpecError("waypoint speed must be positive")
            chord = np.linalg.norm(np.diff(points, axis=0), axis=1)
            if np.any(chord <= 0.0):
                raise TrajectorySpecError("consecutive waypoints coincide")
            times = np.concatenate([[0.0], np.cumsum(chord / speed)])
        if len(times) != len(points) or np.any(np.diff(times) <= 0.0):
            raise TrajectorySpecError("waypoint times must be strictly increasing")
        if times[-1] < duration:
            raise TrajectorySpecError("waypoint schedule shorter than requested duration")
        spline = CubicSpline(times, points, axis=0, bc_type="natural")
        pos = spline(t)
        vel = spline(t, 1)
        acc = spline(t, 2)
        yaw, yaw_rate = _heading_from_velocity(vel, acc)
        return _assemble(t, pos, vel, acc, yaw, yaw_rate)

    raise TrajectorySpecError(f"unknown trajectory kind: {kind!r}")

