"""End-to-end mission simulation from a scenario description."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spec import POSITIVE, check_spec
from .imu import ImuData, ImuNoiseModel, simulate_imu
from .radar import RadarScan, simulate_scan
from .rig import SensorRig, rig_from_dict
from .scene import Scene, scene_from_dict
from .trajectory import GroundTruth, gen_trajectory


@dataclass
class Scenario:
    trajectory: dict
    duration: float
    scene: Scene
    rig: SensorRig
    imu_noise: ImuNoiseModel | None = None

    @staticmethod
    def from_dict(cfg: dict) -> "Scenario":
        """Parse a scenario JSON object.

        Its keys: ``trajectory`` (a ``gen_trajectory`` spec) and ``duration``
        (s > 0), both required; ``scene`` (see ``scene_from_dict``) and ``rig``
        (see ``rig_from_dict``), each empty by default; and ``imu_noise`` (see
        ``ImuNoiseModel``), without which the IMU is exact. Any other key, a
        missing required key or a ``duration`` that is not a finite number
        above 0 raises a ``ValueError`` that names it.
        """
        keys = {
            "trajectory": None,
            "duration": POSITIVE,
            "scene": None,
            "rig": None,
            "imu_noise": None,
        }
        check_spec(cfg, keys, "scenario", required=("trajectory", "duration"))
        noise_cfg = cfg.get("imu_noise")
        return Scenario(
            trajectory=cfg["trajectory"],
            duration=float(cfg["duration"]),
            scene=scene_from_dict(cfg.get("scene", {})),
            rig=rig_from_dict(cfg.get("rig", {})),
            imu_noise=ImuNoiseModel.from_dict(noise_cfg) if noise_cfg is not None else None,
        )


@dataclass
class SimData:
    gt: GroundTruth
    imu: ImuData
    scans: list[RadarScan] = field(default_factory=list)


def simulate_mission(scenario: Scenario, seed: int = 0) -> SimData:
    """Run the full simulator: trajectory, IMU stream, all radar scans."""
    rig = scenario.rig
    gt = gen_trajectory(scenario.trajectory, scenario.duration, rig.imu_rate)
    imu = simulate_imu(gt, scenario.imu_noise, seed=seed)
    scans: list[RadarScan] = []
    step = rig.imu_per_radar
    for index in range(0, len(gt), step):
        for sensor_id in range(rig.num_sensors):
            scans.append(simulate_scan(gt, index, scenario.scene, rig, sensor_id, seed=seed))
    return SimData(gt=gt, imu=imu, scans=scans)


# The street's four sides, counterclockwise from the south one: the axis a
# side runs along, the sign of its outward normal and its direction of travel.
_SIDES = ((0, -1, 1), (1, 1, 1), (0, 1, -1), (1, -1, -1))


def _on_side(axis: int, along, across) -> list:
    """xy of the point at ``along`` on the axis a side runs along, ``across`` on the other."""
    return [along, across] if axis == 0 else [across, along]


def _rounded_rectangle(half, corner):
    """Waypoints tracing a rounded rectangle about the origin, counterclockwise.

    Each side gives five points on its straight, then two on the arc of the
    corner that ends it.
    """
    pts = []
    for axis, normal, travel in _SIDES:
        free, fixed = half[axis], half[1 - axis]
        straight = np.linspace(-free + corner, free - corner, 5)[::travel]
        pts += [_on_side(axis, s, normal * fixed) for s in straight]
        for a in np.linspace(0.3, np.pi / 2 - 0.3, 2):
            along = travel * (free - corner + corner * np.sin(a))
            pts.append(_on_side(axis, along, normal * (fixed - corner + corner * np.cos(a))))
    return pts


def suburban_loop_scenario(
    laps: float = 2.0,
    clutter_density: float = 5.0,
    dynamic_objects: bool = True,
    noisy: bool = True,
) -> dict:
    """Built-in default scenario: a residential block traversed ``laps`` times.

    The street loop is an 80 m x 45 m rounded rectangle (about 239 m per
    lap along its waypoints), driven at 2.5 m/s and lined with house fronts,
    fences, and posts on both sides. ``clutter_density`` is the scene's
    spurious detections per scan; ``dynamic_objects`` adds 10 walkers and 6
    vehicles; ``noisy`` adds IMU noise with a 0.003 rad/s yaw-gyro bias.
    """
    speed = 2.5
    half = (40.0, 22.5)
    lap_pts = [(x, y, 0.0) for x, y in _rounded_rectangle(half, corner=6.0)]
    points = lap_pts * int(np.ceil(laps)) + lap_pts[:1]

    walls = []
    # house fronts outside the street, fences inside
    for off, spacing, weight in ((9.0, 0.6, 0.95), (-6.0, 0.8, 0.85)):
        for axis, normal, travel in _SIDES:
            free, fixed = half[axis] + off, half[1 - axis] + off
            start, end = (_on_side(axis, sign * travel * free, normal * fixed) for sign in (-1, 1))
            walls.append({"start": start, "end": end, "spacing": spacing, "weight": weight})
    posts = []
    rng = np.random.default_rng(424242)
    for k in range(28):
        axis, normal, _ = _SIDES[k % 4]
        along = rng.uniform(-0.9, 0.9) * half[axis]
        position = _on_side(axis, along, normal * (half[1 - axis] + 4.0))
        posts.append({"position": position, "weight": 0.9})

    dynamics = []
    if dynamic_objects:
        # walkers at 1 m/s and a few vehicles circulating near the street
        for k in range(10):
            axis, normal, travel = _SIDES[k % 4]
            position = _on_side(axis, -30.0 + 7.0 * k, normal * (half[1 - axis] - 2.0))
            velocity = _on_side(axis, travel * 1.0, 0.0)
            dynamics.append({"position": [*position, 0.8], "velocity": [*velocity, 0.0]})
        for k in range(6):
            velocity = [3.0 if k % 2 == 0 else -3.0, 0.0, 0.0]
            dynamics.append({"position": [-60.0 + 24.0 * k, -half[1] + 0.5, 0.6], "velocity": velocity})

    # the waypoint schedule follows the chords between the waypoints, so one
    # lap takes its chord length over the speed; rounded down to 10 ms, the
    # duration never passes the schedule's end
    lap_length = np.linalg.norm(np.diff(lap_pts + lap_pts[:1], axis=0), axis=1).sum()
    duration = np.floor(100.0 * laps * lap_length / speed) / 100.0
    scenario = {
        "trajectory": {"kind": "waypoints", "points": points, "speed": speed},
        "duration": float(duration),
        "scene": {
            "walls": walls,
            "posts": posts,
            "dynamic_objects": dynamics,
            "clutter_density": clutter_density,
        },
        "rig": {},
    }
    if noisy:
        scenario["imu_noise"] = {
            "accel_noise_density": 0.02,
            "gyro_noise_density": 0.002,
            "accel_bias_walk": 2e-4,
            "gyro_bias_walk": 2e-5,
            "gyro_bias_init": [0.0, 0.0, 0.003],
        }
    return scenario
