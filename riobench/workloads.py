"""The benchmark's workloads and the set-up that turns a seed into a sensor log.

Each workload fixes a scenario, the simulator seed of its noise realization
and the estimator configuration. The benchmark seed only permutes the order
of the detections inside every radar scan. A radar gives no order
guarantee, and the order changes every RANSAC draw and the order in which
landmarks are created, so runs with different seeds do different work on
the same measurements. Accuracy figures therefore compare like with like
between commits.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from radarloc.config import RunConfig, config_from_dict
from radarloc.sim import (
    GroundTruth,
    RadarScan,
    Scenario,
    SensorLog,
    read_log,
    simulate_mission,
    suburban_loop_scenario,
    write_log,
)

SUBURBAN_SIM_SEED = 0
YARD_SIM_SEED = 3  # the circle drive of tests/test_rio_pipeline.py::TestWindowBounds
# Logs are short so that set-up stays cheap and a run holds several whole
# rounds; a run replays at least MIN_STEPS steps (see bench.py).
SUBURBAN_LOG_S = 2.5  # 51 radar steps of the opening straight
YARD_LOG_S = 4.0  # 81 radar steps, a third of the circle


def suburban_street_scenario() -> dict:
    """The opening straight of the built-in suburban loop."""
    scenario = suburban_loop_scenario()
    scenario["duration"] = SUBURBAN_LOG_S
    return scenario


def yard_circle_scenario() -> dict:
    """A 12 m circle at 2 m/s inside a 50 m walled box with four posts."""
    half = 25.0
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    walls = [
        {"start": list(a), "end": list(b), "spacing": 0.8, "weight": 0.95}
        for a, b in zip(corners, corners[1:] + corners[:1])
    ]
    posts = [{"position": [x, y]} for x, y in [(-10, -8), (12, 6), (-6, 11), (8, -12)]]
    return {
        "trajectory": {"kind": "circle", "radius": 12.0, "speed": 2.0},
        "duration": YARD_LOG_S,
        "scene": {
            "walls": walls,
            "posts": posts,
            "clutter_density": 1.0,
            "dynamic_objects": [],
        },
        "rig": {},
        "imu_noise": {},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: callable
    sim_seed: int
    config: dict  # overrides of the default RunConfig
    compare_without_heading: bool = False  # replay once more with the heading constraint off

    @property
    def heading_constraint(self) -> bool:
        return not self.config.get("ablation", {}).get("disable_heading_constraint", False)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suburban_street", suburban_street_scenario, SUBURBAN_SIM_SEED, {}, True),
        Workload("yard_circle", yard_circle_scenario, YARD_SIM_SEED, {}),
        Workload(
            "suburban_doppler_only",
            suburban_street_scenario,
            SUBURBAN_SIM_SEED,
            {"ablation": {"disable_heading_constraint": True}},
        ),
    )
}


def shuffle_detections(scans: list[RadarScan], seed: int) -> list[RadarScan]:
    """The same scans with the detections of each in a seeded random order."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xBE7C]))
    shuffled = []
    for scan in scans:
        order = rng.permutation(len(scan))
        shuffled.append(RadarScan(scan.t, scan.sensor_id, scan.points[order], scan.doppler[order]))
    return shuffled


@dataclass(frozen=True)
class SetupTimes:
    simulate_s: float
    write_log_s: float
    read_log_s: float
    setup_s: float  # simulate + write + read + configuration


@dataclass
class Inputs:
    """Everything one workload replays, with the cost of making it."""

    scenario: Scenario
    gt: GroundTruth
    log: SensorLog
    cfg: RunConfig
    log_bytes: int
    times: SetupTimes


def prepare(workload: Workload, seed: int, work_dir: Path) -> Inputs:
    """Simulate the drive, write it as a JSONL log and read it back.

    The log holds the IMU stream and the radar scans only; ground truth
    stays in memory for the checks, as it would not be in a recorded drive.
    """
    start = time.perf_counter()
    scenario = Scenario.from_dict(workload.scenario())
    data = simulate_mission(scenario, seed=workload.sim_seed)
    scans = shuffle_detections(data.scans, seed)
    simulated = time.perf_counter()
    path = work_dir / f"log-{os.getpid()}.jsonl"
    try:
        write_log(path, imu=data.imu, scans=scans)
        written = time.perf_counter()
        log = read_log(path)
        read = time.perf_counter()
        log_bytes = path.stat().st_size
    finally:
        path.unlink(missing_ok=True)
    cfg = config_from_dict(workload.config)
    end = time.perf_counter()
    return Inputs(
        scenario=scenario,
        gt=data.gt,
        log=log,
        cfg=cfg,
        log_bytes=log_bytes,
        times=SetupTimes(simulated - start, written - simulated, read - written, end - start),
    )
