"""End-to-end mission simulation from a scenario description."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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


def _rounded_rectangle(cx, cy, half_x, half_y, corner, points_per_side=3):
    """Waypoints tracing a rounded rectangle, counterclockwise from +x side."""
    pts = []
    straight_x = np.linspace(-half_x + corner, half_x - corner, points_per_side)
    straight_y = np.linspace(-half_y + corner, half_y - corner, points_per_side)
    pts += [(cx + x, cy - half_y) for x in straight_x]
    pts += [
        (cx + half_x - corner + corner * np.sin(a), cy - half_y + corner - corner * np.cos(a))
        for a in np.linspace(0.3, np.pi / 2 - 0.3, 2)
    ]
    pts += [(cx + half_x, cy + y) for y in straight_y]
    pts += [
        (cx + half_x - corner + corner * np.cos(a), cy + half_y - corner + corner * np.sin(a))
        for a in np.linspace(0.3, np.pi / 2 - 0.3, 2)
    ]
    pts += [(cx + x, cy + half_y) for x in straight_x[::-1]]
    pts += [
        (cx - half_x + corner - corner * np.sin(a), cy + half_y - corner + corner * np.cos(a))
        for a in np.linspace(0.3, np.pi / 2 - 0.3, 2)
    ]
    pts += [(cx - half_x, cy + y) for y in straight_y[::-1]]
    pts += [
        (cx - half_x + corner - corner * np.cos(a), cy - half_y + corner - corner * np.sin(a))
        for a in np.linspace(0.3, np.pi / 2 - 0.3, 2)
    ]
    return pts


def suburban_loop_scenario(
    laps: float = 2.0,
    speed: float = 2.5,
    clutter_density: float = 5.0,
    dynamic_objects: bool = True,
    gyro_yaw_bias: float = 0.003,
    noisy: bool = True,
) -> dict:
    """Built-in default scenario: a residential block traversed ``laps`` times.

    The street loop is an 80 m x 45 m rounded rectangle (about 239 m per
    lap along its waypoints) lined with house fronts, fences, and posts on
    both sides.
    """
    half_x, half_y, corner = 40.0, 22.5, 6.0
    loop = _rounded_rectangle(0.0, 0.0, half_x, half_y, corner, points_per_side=5)
    lap_pts = [(x, y, 0.0) for x, y in loop]
    n_laps = int(np.ceil(laps))
    points = []
    for _ in range(n_laps):
        points += lap_pts
    points.append(lap_pts[0])

    walls = []
    # house fronts outside the street, fences inside
    for off, spacing, weight in ((9.0, 0.6, 0.95), (-6.0, 0.8, 0.85)):
        ox = half_x + off
        oy = half_y + off
        segs = [
            ((-ox, -oy), (ox, -oy)),
            ((ox, -oy), (ox, oy)),
            ((ox, oy), (-ox, oy)),
            ((-ox, oy), (-ox, -oy)),
        ]
        for start, end in segs:
            walls.append(
                {"start": list(start), "end": list(end), "spacing": spacing, "weight": weight}
            )
    posts = []
    rng = np.random.default_rng(424242)
    for k in range(28):
        side = k % 4
        along = rng.uniform(-0.9, 0.9)
        if side == 0:
            pos = [along * half_x, -half_y - 4.0]
        elif side == 1:
            pos = [half_x + 4.0, along * half_y]
        elif side == 2:
            pos = [along * half_x, half_y + 4.0]
        else:
            pos = [-half_x - 4.0, along * half_y]
        posts.append({"position": pos, "weight": 0.9})

    dynamics = []
    if dynamic_objects:
        # slow walkers and a few vehicles circulating near the street
        walker_speed = 1.0
        for k in range(10):
            side = k % 4
            offset = -30.0 + 7.0 * k
            if side == 0:
                dynamics.append({"position": [offset, -half_y + 2.0, 0.8], "velocity": [walker_speed, 0.0, 0.0]})
            elif side == 1:
                dynamics.append({"position": [half_x - 2.0, offset, 0.8], "velocity": [0.0, walker_speed, 0.0]})
            elif side == 2:
                dynamics.append({"position": [offset, half_y - 2.0, 0.8], "velocity": [-walker_speed, 0.0, 0.0]})
            else:
                dynamics.append({"position": [-half_x + 2.0, offset, 0.8], "velocity": [0.0, -walker_speed, 0.0]})
        for k in range(6):
            dynamics.append(
                {
                    "position": [-60.0 + 24.0 * k, -half_y + 0.5, 0.6],
                    "velocity": [3.0 if k % 2 == 0 else -3.0, 0.0, 0.0],
                }
            )

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
            "gyro_bias_init": [0.0, 0.0, gyro_yaw_bias],
        }
    return scenario
