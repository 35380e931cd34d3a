"""Sensor rig description: radar extrinsics, rates, noise, field of view."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..geometry import RigidTransform, quat_from_axis_angle

_SIGMAS = ("range_sigma", "azimuth_sigma", "elevation_sigma", "doppler_sigma")


@dataclass
class SensorRig:
    """Multi-radar plus IMU rig.

    ``extrinsics[s]`` maps radar-frame points of sensor ``s`` into the IMU
    frame. Defaults reflect an automotive 77 GHz radar: 80 m range,
    +/-75 deg azimuth and +/-15 deg elevation FOV, 20 Hz updates, 0.03 m /
    0.2 deg / 0.25 deg / 0.04 m/s accuracies, +/-30 m/s Doppler window.
    """

    extrinsics: list[RigidTransform] = field(default_factory=list)
    imu_rate: float = 200.0
    radar_rate: float = 20.0
    max_range: float = 80.0
    azimuth_fov: float = np.deg2rad(75.0)
    elevation_fov: float = np.deg2rad(15.0)
    range_sigma: float = 0.03
    azimuth_sigma: float = np.deg2rad(0.2)
    elevation_sigma: float = np.deg2rad(0.25)
    doppler_sigma: float = 0.04
    doppler_max: float = 30.0
    min_range: float = 0.5

    def __post_init__(self) -> None:
        if self.imu_rate <= 0.0 or self.radar_rate <= 0.0:
            raise ValueError("rates must be positive")
        ratio = self.imu_rate / self.radar_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("radar_rate must divide imu_rate")
        for name in _SIGMAS:
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if not (0.0 < self.min_range < self.max_range):
            raise ValueError("need 0 < min_range < max_range")

    @property
    def num_sensors(self) -> int:
        return len(self.extrinsics)

    @property
    def imu_per_radar(self) -> int:
        return int(round(self.imu_rate / self.radar_rate))

    def noise_free(self) -> "SensorRig":
        """Copy of the rig with all measurement noise zeroed."""
        return replace(self, extrinsics=list(self.extrinsics), **dict.fromkeys(_SIGMAS, 0.0))


def sensor_extrinsic(position, yaw_rad: float) -> RigidTransform:
    """Extrinsic for a radar mounted at ``position`` looking along ``yaw_rad``."""
    return RigidTransform.from_parts(
        quat_from_axis_angle([0.0, 0.0, 1.0], yaw_rad), np.asarray(position, dtype=float)
    )


def default_rig(**overrides) -> SensorRig:
    """Three-radar surround rig: front-left, front-right, rear."""
    extrinsics = [
        sensor_extrinsic([0.35, 0.20, 0.0], np.deg2rad(50.0)),
        sensor_extrinsic([0.35, -0.20, 0.0], np.deg2rad(-50.0)),
        sensor_extrinsic([-0.35, 0.0, 0.0], np.pi),
    ]
    return SensorRig(extrinsics=extrinsics, **overrides)


def rig_from_dict(cfg: dict) -> SensorRig:
    """The default rig with the overrides of a scenario JSON ``rig`` block.

    The keys are the ``SensorRig`` fields but ``extrinsics``: ``imu_rate``,
    ``radar_rate``, ``max_range``, ``azimuth_fov``, ``elevation_fov``,
    ``range_sigma``, ``azimuth_sigma``, ``elevation_sigma``, ``doppler_sigma``,
    ``doppler_max`` and ``min_range``, in the units of those fields (angles in
    radians). Any other key raises a ``TypeError`` that names it.
    """
    return default_rig(**cfg)
