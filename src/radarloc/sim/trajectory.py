"""Analytic ground-truth trajectory generation.

All primitives produce planar (z-up) ground-vehicle motion with yaw-only
orientation: heading follows the velocity direction, so positions must be
twice differentiable and speed must stay bounded away from zero except for
the explicitly stationary primitive. Velocities and accelerations are
analytic derivatives, not finite differences.

The waypoint kind's natural cubic spline is computed here rather than with
scipy's ``CubicSpline``: importing its interpolation package also loads
``scipy.optimize`` and ``scipy.fft``, about 12 MB of memory in every
process, for one call per simulation. The knot slopes solve scipy's
tridiagonal system with ``scipy.linalg.solve_banded``, and the coefficients
and their sums follow scipy's arithmetic step for step, so the trajectory is
bit for bit ``CubicSpline(times, points, axis=0, bc_type="natural")``, which
the tests keep as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from ..spec import FINITE, POSITIVE, check_spec, check_value


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


def _natural_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power coefficients ``(4, len(x) - 1, 3)`` of the natural cubic spline through ``y`` at
    the increasing knots ``x``, highest power first, each about its interval's start."""
    dx = np.diff(x)
    dxr = dx[:, None]
    slope = np.diff(y, axis=0) / dxr
    # the knot slopes s: dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = b[i],
    # and a zero second derivative at either end, in LAPACK band storage
    A = np.zeros((3, len(x)))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    A[1, 0], A[0, 1] = 2 * dx[0], dx[0]
    A[1, -1], A[-1, -2] = 2 * dx[-1], dx[-1]
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    b[0], b[-1] = 3 * (y[1] - y[0]), 3 * (y[-1] - y[-2])
    s = solve_banded((1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))


def _spline_derivatives(x: np.ndarray, c: np.ndarray, t: np.ndarray) -> list[np.ndarray]:
    """The spline ``(x, c)`` and its first two derivatives at ``t``.

    The last interval is closed on the right. The terms are summed from the
    constant one up, each as coefficient times power times prefactor.
    """
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, len(x) - 2)
    offset = (t - x[i])[:, None]
    c = c[:, i]
    derivatives = []
    for nu in range(3):
        value, power = 0.0, 1.0
        for k in range(nu, 4):
            value = value + c[3 - k] * power * math.perm(k, nu)
            if k < 3:
                power = power * offset
        derivatives.append(value)
    return derivatives


# the keys each trajectory kind takes besides "kind", with their ranges
_KIND_KEYS = {
    "stationary": {},
    "line": {"speed": POSITIVE, "yaw": FINITE},
    "circle": {"radius": POSITIVE, "speed": POSITIVE},
    "figure8": {"period": POSITIVE},
    "waypoints": {"points": None, "speed": POSITIVE},
}
# those of them without a default
_REQUIRED_KEYS = {
    "stationary": (),
    "line": ("speed",),
    "circle": ("radius", "speed"),
    "figure8": ("period",),
    "waypoints": ("points",),
}


def gen_trajectory(spec: dict, duration: float, imu_rate: float) -> GroundTruth:
    """Sample the trajectory described by ``spec`` at ``imu_rate``.

    Every kind starts at the origin. The kinds and their keys:

    * ``stationary``: no other key; it stays at yaw 0.
    * ``line``: ``speed`` (m/s > 0) along ``yaw`` (rad, default 0).
    * ``circle``: ``radius`` (m > 0) and ``speed`` (m/s > 0), counterclockwise
      about the origin from its +x point.
    * ``figure8``: ``period`` (s > 0) of a 40 m x 10 m figure eight.
    * ``waypoints``: ``points`` (at least 3 xyz), joined by a natural cubic
      spline and timed by their chord lengths over ``speed`` (m/s > 0, default 1).

    Every number is finite, ``duration`` (s) and ``imu_rate`` (Hz) above 0. A
    bad kind, an unknown or missing key or a bad number (each named), or a
    malformed or non-smooth spec raises :class:`TrajectorySpecError`.
    """
    check_value("duration", duration, POSITIVE, TrajectorySpecError)
    check_value("imu_rate", imu_rate, POSITIVE, TrajectorySpecError)
    kind = spec.get("kind")
    if kind not in _KIND_KEYS:
        raise TrajectorySpecError(f"unknown trajectory kind: {kind!r}")
    check_spec(
        spec,
        {"kind": None, **_KIND_KEYS[kind]},
        f"{kind} trajectory",
        TrajectorySpecError,
        _REQUIRED_KEYS[kind],
    )
    n = int(round(duration * imu_rate)) + 1
    t = np.arange(n) / imu_rate

    if kind == "stationary":
        zeros = np.zeros((n, 3))
        return _assemble(t, zeros, zeros.copy(), zeros.copy(), np.zeros(n), np.zeros(n))

    if kind == "line":
        yaw0 = float(spec.get("yaw", 0.0))
        speed = float(spec["speed"])
        direction = np.array([np.cos(yaw0), np.sin(yaw0), 0.0])
        pos = speed * t[:, None] * direction[None, :]
        vel = np.tile(speed * direction, (n, 1))
        return _assemble(t, pos, vel, np.zeros((n, 3)), np.full(n, yaw0), np.zeros(n))

    if kind == "circle":
        radius = float(spec["radius"])
        speed = float(spec["speed"])
        omega = speed / radius
        theta = omega * t
        pos = radius * np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
        vel = speed * np.stack([-np.sin(theta), np.cos(theta), np.zeros(n)], axis=1)
        acc = -(speed * omega) * np.stack([np.cos(theta), np.sin(theta), np.zeros(n)], axis=1)
        return _assemble(t, pos, vel, acc, theta + np.pi / 2.0, np.full(n, omega))

    if kind == "figure8":
        a, b = 20.0, 10.0
        period = float(spec["period"])
        w = 2.0 * np.pi / period
        phi = w * t
        pos = np.stack([a * np.sin(phi), b * np.sin(phi) * np.cos(phi), np.zeros(n)], axis=1)
        vel = np.stack([a * w * np.cos(phi), b * w * np.cos(2.0 * phi), np.zeros(n)], axis=1)
        acc = np.stack(
            [-a * w * w * np.sin(phi), -2.0 * b * w * w * np.sin(2.0 * phi), np.zeros(n)], axis=1
        )
        yaw, yaw_rate = _heading_from_velocity(vel, acc)
        return _assemble(t, pos, vel, acc, yaw, yaw_rate)

    points = np.asarray(spec["points"], dtype=float)
    if points.ndim != 2 or points.shape[1] != 3 or len(points) < 3 or not np.isfinite(points).all():
        raise TrajectorySpecError("waypoints need at least 3 finite xyz points")
    speed = float(spec.get("speed", 1.0))
    chord = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(chord <= 0.0):
        raise TrajectorySpecError("consecutive waypoints coincide")
    times = np.concatenate([[0.0], np.cumsum(chord / speed)])
    if times[-1] < duration:
        raise TrajectorySpecError("waypoint schedule shorter than requested duration")
    pos, vel, acc = _spline_derivatives(times, _natural_spline(times, points), t)
    yaw, yaw_rate = _heading_from_velocity(vel, acc)
    return _assemble(t, pos, vel, acc, yaw, yaw_rate)
