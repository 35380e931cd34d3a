"""Sensor rig description: radar extrinsics, rates, noise, field of view."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..geometry import RigidTransform, quat_from_axis_angle
from ..spec import NON_NEGATIVE, POSITIVE, check_fields, ranged

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
    imu_rate: float = ranged(200.0, *POSITIVE)
    radar_rate: float = ranged(20.0, *POSITIVE)
    max_range: float = ranged(80.0, *POSITIVE)
    azimuth_fov: float = ranged(np.deg2rad(75.0), 0.0, np.pi, inc_lo=False)
    elevation_fov: float = ranged(np.deg2rad(15.0), 0.0, np.pi / 2.0, inc_lo=False)
    range_sigma: float = ranged(0.03, *NON_NEGATIVE)
    azimuth_sigma: float = ranged(np.deg2rad(0.2), *NON_NEGATIVE)
    elevation_sigma: float = ranged(np.deg2rad(0.25), *NON_NEGATIVE)
    doppler_sigma: float = ranged(0.04, *NON_NEGATIVE)
    doppler_max: float = ranged(30.0, *POSITIVE)
    min_range: float = ranged(0.5, *POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)
        ratio = self.imu_rate / self.radar_rate
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("radar_rate must divide imu_rate")
        if not self.min_range < self.max_range:
            raise ValueError("need min_range < max_range")

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

    The keys are the ``SensorRig`` fields but ``extrinsics``, in their units
    (angles in radians). Each is a finite number: the rates, the ranges and
    ``doppler_max`` above 0, ``azimuth_fov`` in (0, pi], ``elevation_fov`` in
    (0, pi/2] and the sigmas at least 0; ``radar_rate`` divides ``imu_rate``
    and ``min_range < max_range``. A bad value raises a ``ValueError`` and
    any other key a ``TypeError``, each naming it.
    """
    return default_rig(**cfg)
