"""Deterministic synthetic sensor data generation."""

from .imu import GRAVITY, ImuData, ImuNoiseModel, simulate_imu
from .io import LogFormatError, SensorLog, read_log, write_log
from .mission import Scenario, SimData, simulate_mission, suburban_loop_scenario
from .radar import RadarScan, simulate_scan
from .rig import SensorRig, default_rig, rig_from_dict, sensor_extrinsic
from .scene import DynamicObject, Scene, scene_from_dict, wall_points
from .trajectory import GroundTruth, TrajectorySpecError, gen_trajectory

__all__ = [
    "GRAVITY",
    "DynamicObject",
    "GroundTruth",
    "ImuData",
    "ImuNoiseModel",
    "LogFormatError",
    "RadarScan",
    "Scenario",
    "Scene",
    "SensorLog",
    "SensorRig",
    "SimData",
    "TrajectorySpecError",
    "default_rig",
    "gen_trajectory",
    "read_log",
    "rig_from_dict",
    "scene_from_dict",
    "sensor_extrinsic",
    "simulate_imu",
    "simulate_mission",
    "simulate_scan",
    "suburban_loop_scenario",
    "wall_points",
    "write_log",
]
