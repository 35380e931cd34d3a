"""IMU measurement synthesis from ground truth.

Specific force follows a z-up global frame with gravity (0, 0, -g): a
stationary, level IMU reads +g on its z axis. Noise densities are
continuous-time (per sqrt(Hz)); bias random walks and white noise are
discretized at the sample interval. Identical seeds give bit-identical
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..geometry import quat_to_matrix
from ..spec import NON_NEGATIVE, check_fields, check_spec, ranged
from .trajectory import GroundTruth

GRAVITY = 9.81


@dataclass
class ImuData:
    """Time-ordered IMU stream as packed arrays.

    The finite times increase strictly; a non-finite time may stand
    anywhere, for a consumer to skip.
    """

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t)
        if np.any(np.diff(t[np.isfinite(t)]) <= 0.0):
            raise ValueError("IMU timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


def stream_key(t: np.ndarray) -> np.ndarray:
    """The times ``t`` of IMU records in input order, each non-finite one replaced by the
    key of the record before it (-inf for the first).

    Sorted by this key, stably, a record with a non-finite time keeps its place
    right after the record before it. For the times of an ``ImuData`` the key
    never decreases.
    """
    t = np.asarray(t, dtype=float)
    before = np.maximum.accumulate(np.where(np.isfinite(t), np.arange(1, len(t) + 1), 0))
    return np.concatenate([[-np.inf], t])[before]


@dataclass
class ImuNoiseModel:
    """White-noise densities, bias random walks, and the initial gyro bias.

    The accelerometer bias starts at zero. The densities and walks are
    finite and >= 0, and ``gyro_bias_init`` is 3 finite numbers. ``from_dict``
    takes the field names as keys, each optional. A bad value or any other
    key raises a ``ValueError`` that names it.
    """

    accel_noise_density: float = ranged(0.02, *NON_NEGATIVE)  # m/s^2 per sqrt(Hz)
    gyro_noise_density: float = ranged(0.002, *NON_NEGATIVE)  # rad/s per sqrt(Hz)
    accel_bias_walk: float = ranged(2e-4, *NON_NEGATIVE)  # m/s^2 per sqrt(s)
    gyro_bias_walk: float = ranged(2e-5, *NON_NEGATIVE)  # rad/s per sqrt(s)
    gyro_bias_init: np.ndarray = field(default_factory=lambda: np.zeros(3))  # rad/s

    def __post_init__(self) -> None:
        check_fields(self)
        bias = np.asarray(self.gyro_bias_init)
        if bias.shape != (3,) or bias.dtype.kind not in "iuf" or not np.all(np.isfinite(bias)):
            raise ValueError(f"gyro_bias_init must be 3 finite numbers, got {self.gyro_bias_init!r}")
        self.gyro_bias_init = bias.astype(float)

    @staticmethod
    def from_dict(cfg: dict) -> "ImuNoiseModel":
        check_spec(cfg, [f.name for f in fields(ImuNoiseModel)], "IMU noise")
        return ImuNoiseModel(**cfg)


def simulate_imu(
    gt: GroundTruth,
    noise: ImuNoiseModel | None = None,
    seed: int = 0,
    gravity: float = GRAVITY,
) -> ImuData:
    """Generate the IMU stream for a trajectory.

    ``noise=None`` yields exact measurements; otherwise biases follow a
    random walk from their initial values (zero for the accelerometer) and
    white noise is added, all drawn from a stream derived deterministically
    from ``seed``.
    """
    n = len(gt)
    g_global = np.array([0.0, 0.0, -gravity])
    accel = np.empty((n, 3))
    for i in range(n):
        R_oi = quat_to_matrix(gt.quat[i])
        accel[i] = R_oi.T @ (gt.accel[i] - g_global)
    gyro = gt.body_rate.copy()

    if noise is not None:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x1101]))
        dt = float(np.mean(np.diff(gt.t)))
        sqrt_dt = np.sqrt(dt)

        def walk(sigma: float) -> np.ndarray:
            steps = sigma * sqrt_dt * rng.standard_normal((n - 1, 3))
            return np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])

        ba = walk(noise.accel_bias_walk)
        bg = noise.gyro_bias_init + walk(noise.gyro_bias_walk)
        accel = accel + ba + (noise.accel_noise_density / sqrt_dt) * rng.standard_normal((n, 3))
        gyro = gyro + bg + (noise.gyro_noise_density / sqrt_dt) * rng.standard_normal((n, 3))

    return ImuData(gt.t.copy(), accel, gyro)
