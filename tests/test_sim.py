import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import radarloc
from radarloc import sim
from radarloc.geometry import quat_to_matrix
from radarloc.sim.trajectory import TrajectorySpecError, _natural_spline, _spline_derivatives


def _single_sensor_rig(**overrides) -> sim.SensorRig:
    return sim.SensorRig(extrinsics=[sim.sensor_extrinsic([0.0, 0.0, 0.0], 0.0)], **overrides)


class TestTrajectory:
    def test_line_displacement(self):
        gt = sim.gen_trajectory({"kind": "line", "speed": 1.0, "yaw": 0.0}, 10.0, 200.0)
        np.testing.assert_allclose(gt.position[-1], [10.0, 0.0, 0.0], atol=1e-9)

    def test_circle_angular_rate(self):
        gt = sim.gen_trajectory({"kind": "circle", "radius": 10.0, "speed": 2.0}, 20.0, 200.0)
        np.testing.assert_allclose(gt.body_rate[:, 2], 0.2, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(gt.velocity, axis=1), 2.0, atol=1e-12)

    def test_figure8_closes_after_period(self):
        period = 60.0
        gt = sim.gen_trajectory({"kind": "figure8", "period": period}, period, 100.0)
        np.testing.assert_allclose(gt.position[-1], gt.position[0], atol=1e-6)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "circle", "radius": 10.0, "speed": 2.0},
            {"kind": "figure8", "period": 40.0},
            {
                "kind": "waypoints",
                "points": [[0, 0, 0], [10, 0, 0], [20, 5, 0], [30, 5, 0], [45, 0, 0], [60, 0, 0]],
                "speed": 2.0,
            },
        ],
    )
    def test_velocity_is_position_derivative(self, spec):
        gt = sim.gen_trajectory(spec, 20.0, 400.0)
        dt = gt.t[1] - gt.t[0]
        fd = (gt.position[2:] - gt.position[:-2]) / (2.0 * dt)
        np.testing.assert_allclose(gt.velocity[1:-1], fd, atol=1e-4)
        # analytic check: reintegrating the velocity reproduces the positions
        pos = gt.position[0] + np.cumsum(
            0.5 * (gt.velocity[1:] + gt.velocity[:-1]) * dt, axis=0
        )
        np.testing.assert_allclose(gt.position[1:], pos, atol=1e-6 * len(gt))

    def test_non_smooth_spec_rejected(self):
        with pytest.raises(TrajectorySpecError):
            sim.gen_trajectory(
                {"kind": "waypoints", "points": [[0, 0, 0], [0, 0, 0], [1, 0, 0]], "speed": 1.0},
                1.0,
                100.0,
            )
        with pytest.raises(TrajectorySpecError):
            sim.gen_trajectory({"kind": "line", "speed": 1.0}, -1.0, 100.0)
        with pytest.raises(TrajectorySpecError):
            sim.gen_trajectory({"kind": "warp"}, 1.0, 100.0)

    @pytest.mark.parametrize("laps", [1, 2])
    def test_default_scenario_runs_its_whole_duration(self, laps):
        scenario = sim.Scenario.from_dict(sim.suburban_loop_scenario(laps=laps))
        gt = sim.gen_trajectory(scenario.trajectory, scenario.duration, scenario.rig.imu_rate)
        assert gt.t[-1] == pytest.approx(scenario.duration, abs=1.0 / scenario.rig.imu_rate)
        # the loop closes: the drive ends within 10 ms of driving of its start
        speed = scenario.trajectory["speed"]
        assert np.linalg.norm(gt.position[-1] - gt.position[0]) < 0.01 * speed + 1e-9


def _random_waypoints():
    rng = np.random.default_rng(11)
    points = np.cumsum(rng.uniform(-8.0, 8.0, size=(12, 3)), axis=0)
    points[:, 2] = rng.uniform(-0.5, 0.5, size=12)
    return {"kind": "waypoints", "points": points.tolist(), "speed": 1.7}


@pytest.mark.parametrize(
    "spec",
    [sim.suburban_loop_scenario()["trajectory"], _random_waypoints()],
    ids=["suburban_loop", "random"],
)
def test_waypoints_are_scipys_natural_spline_bit_for_bit(spec):
    points = np.asarray(spec["points"], dtype=float)
    chord = np.linalg.norm(np.diff(points, axis=0), axis=1)
    times = np.concatenate([[0.0], np.cumsum(chord / spec["speed"])])
    spline = CubicSpline(times, points, axis=0, bc_type="natural")
    gt = sim.gen_trajectory(spec, times[-1] - 0.01, 200.0)
    assert gt.t[0] == 0.0
    for nu, got in enumerate((gt.position, gt.velocity, gt.accel)):
        assert got.tobytes() == spline(gt.t, nu).tobytes(), nu
    # at every knot, the last one included
    coefficients = _natural_spline(times, points)
    assert coefficients.tobytes() == spline.c.tobytes()
    for nu, got in enumerate(_spline_derivatives(times, coefficients, times)):
        assert got.tobytes() == spline(times, nu).tobytes(), nu


def test_importing_the_package_loads_no_interpolation_or_optimization():
    # scipy.interpolate loads scipy.optimize and scipy.fft: about 12 MB of memory
    code = (
        "import sys, radarloc, radarloc.rio, radarloc.sim, radarloc.config\n"
        "print([m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules])"
    )
    src = str(Path(radarloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_TRAJECTORIES = {
    "stationary": {"kind": "stationary"},
    "line": {"kind": "line", "speed": 1.0, "yaw": 0.0},
    "circle": {"kind": "circle", "radius": 10.0, "speed": 2.0},
    "figure8": {"kind": "figure8", "period": 40.0},
    "waypoints": {"kind": "waypoints", "points": [[0, 0, 0], [5, 1, 0], [10, 0, 0]], "speed": 1.0},
}
_SCENE_ITEMS = {
    "wall": ("walls", {"start": [-5, 5], "end": [5, 5], "spacing": 0.5, "weight": 0.9}),
    "post": ("posts", {"position": [2, 3], "weight": 0.9}),
    "dynamic object": ("dynamic_objects", {"position": [1, 0, 0], "velocity": [0, 1, 0]}),
}
_MINIMAL_SCENARIO = {"trajectory": {"kind": "stationary"}, "duration": 1.0}


def _parse_scenario(extra):
    return sim.Scenario.from_dict({**_MINIMAL_SCENARIO, **extra})


def _trajectory_parser(kind):
    return lambda extra: sim.gen_trajectory({**_TRAJECTORIES[kind], **extra}, 1.0, 100.0)


def _scene_item_parser(item):
    block, good = _SCENE_ITEMS[item]
    return lambda extra: _parse_scenario({"scene": {block: [good, {**good, **extra}]}})


def _block_parser(block):
    return lambda extra: _parse_scenario({block: extra})


# each parser, the error it raises for a key it does not take, and its bad
# keys: a misspelling, then the keys it took before they were removed
_PARSERS = {
    **{
        f"{kind} trajectory": (TrajectorySpecError, _trajectory_parser(kind), keys)
        for kind, keys in (
            ("stationary", ["kindd", "position", "yaw"]),
            ("line", ["sped", "start"]),
            ("circle", ["raduis", "center", "ccw", "start_angle"]),
            ("figure8", ["periode", "center", "scale_x", "scale_y"]),
            ("waypoints", ["point", "times"]),
        )
    },
    "scene": (ValueError, _block_parser("scene"), ["wals", "static_targets"]),
    **{
        item: (ValueError, _scene_item_parser(item), keys)
        for item, keys in (
            ("wall", ["spaceing", "z_levels"]),
            ("post", ["positon", "z_levels"]),
            ("dynamic object", ["velocty", "weight"]),
        )
    },
    "scenario": (ValueError, _parse_scenario, ["imu_nosie"]),
    "rig": (
        TypeError,
        _block_parser("rig"),
        ["max_rnage", "sensors", "azimuth_fov_deg", "elevation_fov_deg"]
        + ["azimuth_sigma_deg", "elevation_sigma_deg"],
    ),
    "imu_noise": (ValueError, _block_parser("imu_noise"), ["gyro_bias_inti", "accel_bias_init"]),
    "suburban_loop_scenario": (
        TypeError,
        lambda extra: sim.suburban_loop_scenario(**extra),
        ["lap", "speed", "gyro_yaw_bias"],
    ),
}


@pytest.mark.parametrize(
    "parser, key",
    [(parser, key) for parser, (_, _, keys) in _PARSERS.items() for key in keys],
)
def test_unknown_key_is_an_error_that_names_it(parser, key):
    error, parse, _ = _PARSERS[parser]
    parse({})  # the same input without the bad key parses
    with pytest.raises(error, match=re.escape(f"'{key}'")):
        parse({key: 1.0})


def _sample(spec):
    return sim.gen_trajectory(spec, 1.0, 100.0)


# each required key: what it is a key of, the parser and the error it raises,
# and an input with the key, which the parser then gets without it
_REQUIRED = [
    *(
        (f"{kind} trajectory", _sample, TrajectorySpecError, _TRAJECTORIES[kind], key)
        for kind, key in [("line", "speed"), ("circle", "radius"), ("circle", "speed")]
        + [("figure8", "period"), ("waypoints", "points")]
    ),
    *(
        ("scenario", sim.Scenario.from_dict, ValueError, _MINIMAL_SCENARIO, key)
        for key in ("trajectory", "duration")
    ),
]


@pytest.mark.parametrize(
    "what, parse, error, spec, key",
    [pytest.param(*case, id=f"{case[0]}-{case[-1]}") for case in _REQUIRED],
)
def test_missing_required_key_is_an_error_that_names_it(what, parse, error, spec, key):
    parse(spec)  # the input with the key parses
    with pytest.raises(error, match=re.escape(f"missing {what} key: '{key}'")):
        parse({k: v for k, v in spec.items() if k != key})


_NAN, _INF = float("nan"), float("inf")

# each parser that checks values: the error it raises, and how it parses a
# valid input with the keys of its argument added
_VALUE_PARSERS = {
    "imu_noise": (ValueError, _block_parser("imu_noise")),
    "rig": (ValueError, _block_parser("rig")),
    "scene": (ValueError, _block_parser("scene")),
    "wall": (ValueError, _scene_item_parser("wall")),
    "post": (ValueError, _scene_item_parser("post")),
    **{f"{kind} trajectory": (TrajectorySpecError, _trajectory_parser(kind)) for kind in _TRAJECTORIES},
    "scenario": (ValueError, _parse_scenario),
    "trajectory sampling": (
        TrajectorySpecError,
        lambda extra: sim.gen_trajectory(
            {"kind": "stationary"}, **{"duration": 1.0, "imu_rate": 100.0, **extra}
        ),
    ),
}
# for each ImuNoiseModel and SensorRig field, a finite value outside its range
_OUT_OF_RANGE = {
    "imu_noise": {
        "accel_noise_density": -1.0,
        "gyro_noise_density": -1.0,
        "accel_bias_walk": -1e-4,
        "gyro_bias_walk": -1e-5,
    },
    "rig": {
        "imu_rate": 0.0,
        "radar_rate": -20.0,
        "max_range": 0.0,
        "azimuth_fov": -1.0,
        "elevation_fov": 2.0,
        "range_sigma": -0.1,
        "azimuth_sigma": -0.1,
        "elevation_sigma": -0.1,
        "doppler_sigma": -0.1,
        "doppler_max": 0.0,
        "min_range": 0.0,
    },
}
_BAD_VALUES = [
    *(
        (parser, key, value)
        for parser, keys in _OUT_OF_RANGE.items()
        for key, out_of_range in keys.items()
        for value in (_NAN, out_of_range)
    ),
    *(("imu_noise", "gyro_bias_init", value) for value in (0.003, [0.0, 0.003], [0.0, 0.0, _NAN])),
    *(
        (f"{kind} trajectory", key, value)
        for kind, key in [("line", "speed"), ("line", "yaw"), ("circle", "radius")]
        + [("circle", "speed"), ("figure8", "period"), ("waypoints", "speed")]
        for value in (_NAN, _INF)
    ),
    *(("scenario", "duration", value) for value in ("5", True, _NAN, _INF, 0.0, -1.0)),
    ("trajectory sampling", "duration", _NAN),
    ("trajectory sampling", "imu_rate", _NAN),
    ("waypoints trajectory", "points", [[0, 0, 0], [5, 1, _NAN], [10, 0, 0]]),
    ("scene", "clutter_density", _NAN),
    ("wall", "weight", _NAN),
    ("wall", "spacing", 0.0),
    ("post", "weight", _NAN),
]


@pytest.mark.parametrize(
    "parser, key, value",
    [pytest.param(*case, id=f"{case[0]}-{case[1]}={case[2]}") for case in _BAD_VALUES],
)
def test_bad_value_is_an_error_that_names_its_key(parser, key, value):
    error, parse = _VALUE_PARSERS[parser]
    parse({})  # the same input without the bad value parses
    with pytest.raises(error, match=re.escape(key)):
        parse({key: value})


class TestImu:
    def test_stationary_specific_force(self):
        gt = sim.gen_trajectory({"kind": "stationary"}, 1.0, 200.0)
        imu = sim.simulate_imu(gt, noise=None)
        np.testing.assert_allclose(imu.accel, np.tile([0.0, 0.0, 9.81], (len(gt), 1)), atol=1e-12)
        np.testing.assert_allclose(imu.gyro, 0.0, atol=1e-12)

    def test_circle_lateral_specific_force(self):
        gt = sim.gen_trajectory({"kind": "circle", "radius": 10.0, "speed": 2.0}, 5.0, 200.0)
        imu = sim.simulate_imu(gt, noise=None)
        # centripetal acceleration v^2/r = 0.4 shows up laterally in the body frame
        lateral = imu.accel[:, :2]
        np.testing.assert_allclose(np.linalg.norm(lateral, axis=1), 0.4, atol=1e-9)
        np.testing.assert_allclose(imu.accel[:, 2], 9.81, atol=1e-9)

    def test_same_seed_bit_identical(self):
        gt = sim.gen_trajectory({"kind": "line", "speed": 1.0}, 2.0, 200.0)
        noise = sim.ImuNoiseModel()
        a = sim.simulate_imu(gt, noise, seed=7)
        b = sim.simulate_imu(gt, noise, seed=7)
        assert np.array_equal(a.accel, b.accel) and np.array_equal(a.gyro, b.gyro)
        c = sim.simulate_imu(gt, noise, seed=8)
        assert not np.array_equal(a.accel, c.accel)


    def test_finite_times_must_increase_across_a_nan(self):
        zeros = np.zeros((3, 3))
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.ImuData(np.array([0.0, np.nan, -1.0]), zeros, zeros)
        with pytest.raises(ValueError, match="strictly increasing"):
            sim.ImuData(np.array([0.0, np.nan, 0.0]), zeros, zeros)
        # a non-finite time may stand anywhere
        for t in ([0.0, np.nan, 1.0], [np.nan, 0.0, 1.0], [0.0, 1.0, np.inf]):
            assert len(sim.ImuData(np.array(t), zeros, zeros)) == 3


class TestRadar:
    def test_driving_toward_target_positive_doppler(self):
        gt = sim.gen_trajectory({"kind": "line", "speed": 1.0, "yaw": 0.0}, 1.0, 200.0)
        scene = sim.Scene(np.array([[30.0, 0.0, 0.0]]), np.array([1.0]))
        rig = _single_sensor_rig().noise_free()
        scan = sim.simulate_scan(gt, 0, scene, rig, 0)
        assert len(scan) == 1
        assert scan.doppler[0] == pytest.approx(1.0, abs=1e-12)

    def test_azimuth_fov_excludes_target(self):
        gt = sim.gen_trajectory({"kind": "stationary"}, 1.0, 200.0)
        r = 20.0
        az = np.deg2rad(80.0)
        scene = sim.Scene(np.array([[r * np.cos(az), r * np.sin(az), 0.0]]), np.array([1.0]))
        rig = _single_sensor_rig().noise_free()
        scan = sim.simulate_scan(gt, 0, scene, rig, 0)
        assert len(scan) == 0

    def test_approaching_dynamic_object_negative_doppler(self):
        gt = sim.gen_trajectory({"kind": "stationary"}, 1.0, 200.0)
        scene = sim.Scene(
            np.zeros((0, 3)),
            np.zeros(0),
            dynamic_objects=[sim.DynamicObject(np.array([20.0, 0.0, 0.0]), np.array([-2.0, 0.0, 0.0]))],
        )
        scan = sim.simulate_scan(gt, 0, scene, _single_sensor_rig().noise_free(), 0)
        assert len(scan) == 1
        assert scan.doppler[0] == pytest.approx(-2.0, abs=1e-12)

    def test_noise_free_static_doppler_identity(self):
        # moving and turning platform with a lever arm: doppler must equal the
        # projection of the full sensor velocity on the ray, exactly
        gt = sim.gen_trajectory({"kind": "circle", "radius": 12.0, "speed": 3.0}, 5.0, 200.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-40.0, 40.0, size=(60, 3))
        pts[:, 2] = rng.uniform(0.0, 2.0, size=60)
        scene = sim.Scene(pts, np.ones(60))
        rig = sim.default_rig().noise_free()
        for index in (0, 200, 400):
            R_oi = quat_to_matrix(gt.quat[index])
            for sid in range(rig.num_sensors):
                scan = sim.simulate_scan(gt, index, scene, rig, sid)
                extr = rig.extrinsics[sid]
                v_sensor = gt.velocity[index] + R_oi @ np.cross(gt.body_rate[index], extr.t)
                v_r = (R_oi @ extr.rotation).T @ v_sensor
                for i in range(len(scan)):
                    ray = scan.points[i] / np.linalg.norm(scan.points[i])
                    assert abs(scan.doppler[i] - ray @ v_r) < 1e-9

    def test_clutter_poisson_mean(self):
        gt = sim.gen_trajectory({"kind": "stationary"}, 1.0, 200.0)
        scene = sim.Scene(np.zeros((0, 3)), np.zeros(0), clutter_density=3.0)
        rig = _single_sensor_rig()
        counts = [
            len(sim.simulate_scan(gt, 0, scene, rig, 0, seed=s)) for s in range(10_000)
        ]
        mean = np.mean(counts)
        # Poisson(3): std of the sample mean is sqrt(3/n)
        assert abs(mean - 3.0) < 3.0 * np.sqrt(3.0 / len(counts))

    def test_scan_determinism(self):
        gt = sim.gen_trajectory({"kind": "line", "speed": 2.0}, 2.0, 200.0)
        scene = sim.Scene(
            np.array([[20.0, 5.0, 1.0], [15.0, -3.0, 0.5]]),
            np.array([0.9, 0.8]),
            clutter_density=2.0,
        )
        rig = _single_sensor_rig()
        a = sim.simulate_scan(gt, 100, scene, rig, 0, seed=11)
        b = sim.simulate_scan(gt, 100, scene, rig, 0, seed=11)
        assert np.array_equal(a.points, b.points) and np.array_equal(a.doppler, b.doppler)

    def test_detections_respect_fov_and_range(self):
        gt = sim.gen_trajectory({"kind": "line", "speed": 2.0}, 2.0, 200.0)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-100.0, 100.0, size=(300, 3))
        pts[:, 2] = rng.uniform(0.0, 3.0, size=300)
        scene = sim.Scene(pts, np.ones(300), clutter_density=4.0)
        rig = sim.default_rig()
        for sid in range(rig.num_sensors):
            scan = sim.simulate_scan(gt, 40, scene, rig, sid, seed=2)
            r = np.linalg.norm(scan.points, axis=1)
            az = np.arctan2(scan.points[:, 1], scan.points[:, 0])
            el = np.arctan2(scan.points[:, 2], np.hypot(scan.points[:, 0], scan.points[:, 1]))
            assert np.all(r > 0.0) and np.all(r <= rig.max_range)
            assert np.all(np.abs(az) <= rig.azimuth_fov)
            assert np.all(np.abs(el) <= rig.elevation_fov)


class TestRig:
    def test_noise_free_keeps_every_field_but_the_sigmas(self):
        rig = sim.default_rig(max_range=60.0, min_range=1.0, imu_rate=400.0, doppler_max=20.0)
        quiet = rig.noise_free()
        sigmas = {"range_sigma", "azimuth_sigma", "elevation_sigma", "doppler_sigma"}
        for f in dataclasses.fields(sim.SensorRig):
            if f.name in sigmas:
                assert getattr(rig, f.name) > 0.0 and getattr(quiet, f.name) == 0.0, f.name
            elif f.name != "extrinsics":
                assert getattr(quiet, f.name) == getattr(rig, f.name), f.name
        assert quiet.extrinsics == rig.extrinsics and quiet.extrinsics is not rig.extrinsics
        quiet.extrinsics.pop()
        assert rig.num_sensors == 3


class TestLogIo:
    def test_round_trip(self, tmp_path):
        scenario = sim.Scenario.from_dict(
            {
                "trajectory": {"kind": "circle", "radius": 15.0, "speed": 2.0},
                "duration": 3.0,
                "scene": {
                    "walls": [{"start": [-20, 20], "end": [20, 20]}],
                    "clutter_density": 1.0,
                },
                "rig": {},
                "imu_noise": {},
            }
        )
        data = sim.simulate_mission(scenario, seed=1)
        path = tmp_path / "log.jsonl"
        sim.write_log(path, imu=data.imu, scans=data.scans)
        log = sim.read_log(path)
        assert len(log.imu) == len(data.imu)
        np.testing.assert_allclose(log.imu.accel, data.imu.accel)
        assert len(log.scans) == len(data.scans)
        total_in = sum(len(s) for s in data.scans)
        total_out = sum(len(s) for s in log.scans)
        assert total_in == total_out

    def test_malformed_line_reports_line_number(self, tmp_path):
        good = '{"type":"imu","t":0.0,"a":[0,0,9.81],"w":[0,0,0]}'
        radar = '{"type":"radar","t":0.1,"sensor":0,"detections":[%s]}'
        bad_lines = [
            "not json",
            '{"type":"imu","t":0.1,"a":[0,9.81],"w":[0,0,0]}',
            '{"type":"imu","t":0.1,"a":[0,0,9.81],"w":[0,0,0,0]}',
            '{"type":"imu","t":0.1,"a":[0,0,9.81],"w":[0,[0],0]}',
            # a second IMU record at the same time
            '{"type":"imu","t":0.0,"a":[0,0,9.81],"w":[0,0,0]}',
            # six coordinates in all, which reshape into 2 points for 3 range rates
            radar % ",".join('{"p":[%d,1],"rr":0.1}' % i for i in range(3)),
            radar % '{"p":[1,2,3,4],"rr":0.1}',
            radar % '{"p":[[1,2,3]],"rr":0.1}',
            radar % '{"p":[1,2,3],"rr":[0.1,0.2]}',
            # a sensor id is a JSON integer
            *(
                '{"type":"radar","t":0.1,"sensor":%s,"detections":[]}' % sensor
                for sensor in ("1.7", "true", '"1"', "1.0")
            ),
        ]
        for i, bad in enumerate(bad_lines):
            path = tmp_path / f"bad{i}.jsonl"
            path.write_text(f"{good}\n{bad}\n")
            with pytest.raises(sim.LogFormatError) as err:
                sim.read_log(path)
            assert err.value.line_no == 2, bad

    @pytest.mark.parametrize(
        "bad",
        [
            '{"type":"imu","t":"0.1","a":[0,0,9.81],"w":[0,0,0]}',
            '{"type":"imu","t":true,"a":[0,0,9.81],"w":[0,0,0]}',
            '{"type":"imu","t":0.1,"a":["0",0,9.81],"w":[0,0,0]}',
            '{"type":"imu","t":0.1,"a":[0,0,9.81],"w":[0,null,0]}',
            '{"type":"radar","t":null,"sensor":0,"detections":[]}',
            '{"type":"radar","t":0.1,"sensor":0,"detections":[{"p":["1",2,3],"rr":0.5}]}',
            '{"type":"radar","t":0.1,"sensor":0,"detections":[{"p":[1,2,3],"rr":"0.5"}]}',
            '{"type":"radar","t":0.1,"sensor":0,"detections":[{"p":[1,2,3],"rr":null}]}',
        ],
    )
    def test_string_or_null_for_a_number_is_an_error(self, tmp_path, bad):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type":"imu","t":0.0,"a":[0,0,9.81],"w":[0,0,0]}\n%s\n' % bad)
        with pytest.raises(sim.LogFormatError) as err:
            sim.read_log(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("t", ["NaN", "Infinity", "-Infinity"])
    def test_radar_time_that_is_not_finite_is_an_error(self, tmp_path, t):
        imu = '{"type":"imu","t":0.0,"a":[0,0,9.81],"w":[0,0,0]}'
        scan = '{"type":"radar","t":%s,"sensor":0,"detections":[{"p":[1,2,3],"rr":0.5}]}' % t
        path = tmp_path / "log.jsonl"
        path.write_text(f"{imu}\n{scan}\n")
        with pytest.raises(sim.LogFormatError, match="finite") as err:
            sim.read_log(path)
        assert err.value.line_no == 2

    def test_imu_time_that_is_not_finite_reads(self, tmp_path):
        # the estimator skips such a sample and counts it
        rows = [
            '{"type":"imu","t":%s,"a":[0,0,9.81],"w":[0,0,0]}' % t
            for t in ("0.0", "NaN", "0.01", "Infinity")
        ]
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([*rows, ""]))
        t = sim.read_log(path).imu.t
        assert t[[0, 2]].tolist() == [0.0, 0.01] and np.isnan(t[1]) and np.isinf(t[3])

    @staticmethod
    def _nan_time_log(tmp_path):
        """A 2 s log, IMU at 200 Hz with a NaN time at index 100, three radars every 0.05 s."""
        rng = np.random.default_rng(2)
        t = np.arange(401) / 200.0
        t[100] = np.nan
        imu = sim.ImuData(t, rng.normal(size=(401, 3)), rng.normal(size=(401, 3)))
        scans = [
            sim.RadarScan(0.05 * k, sensor, rng.normal(size=(2, 3)), rng.normal(size=2))
            for k in range(1, 41)
            for sensor in range(3)
        ]
        path = tmp_path / "log.jsonl"
        sim.write_log(path, imu=imu, scans=scans)
        return imu, path

    def test_nan_imu_time_is_written_in_its_place(self, tmp_path):
        imu, path = self._nan_time_log(tmp_path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        times = np.array([rec["t"] for rec in records])
        assert np.all(np.diff(times[np.isfinite(times)]) >= 0.0)
        # the IMU records keep their order: the NaN one between IMU 99 and 101
        imu_t = [rec["t"] for rec in records if rec["type"] == "imu"]
        np.testing.assert_array_equal(imu_t, imu.t)

    def test_nan_imu_time_reads_in_its_place(self, tmp_path):
        imu, path = self._nan_time_log(tmp_path)
        log = sim.read_log(path)
        assert np.isnan(log.imu.t[100])
        for name in ("t", "accel", "gyro"):
            np.testing.assert_array_equal(getattr(log.imu, name), getattr(imu, name))

    def test_repeated_scan_of_a_sensor_is_an_error(self, tmp_path):
        imu = '{"type":"imu","t":0.0,"a":[0,0,9.81],"w":[0,0,0]}'
        scan = '{"type":"radar","t":0.1,"sensor":%d,"detections":[{"p":[1,2,3],"rr":0.5}]}'
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join([imu, scan % 0, scan % 1, ""]))
        groups = sim.read_log(path).scans_by_time()
        assert [[s.sensor_id for s in group] for _, group in groups] == [[0, 1]]
        path.write_text("\n".join([imu, scan % 0, scan % 0, ""]))
        with pytest.raises(sim.LogFormatError) as err:
            sim.read_log(path)
        assert err.value.line_no == 3

    def test_written_text(self, tmp_path):
        # the format, byte for byte: IMU before radar at the same time
        imu = sim.ImuData(np.array([0.05]), np.array([[0.0, -0.25, 9.81]]), np.array([[0.1, 0, 2]]))
        points = np.array([[1.5, -2.0, 0.125], [3.0, 4.0, 0.0]])
        scan = sim.RadarScan(0.05, 2, points, np.array([-0.5, 1.0]))
        path = tmp_path / "log.jsonl"
        sim.write_log(path, imu=imu, scans=[scan])
        assert path.read_text() == (
            '{"type": "imu", "t": 0.05, "a": [0.0, -0.25, 9.81], "w": [0.1, 0.0, 2.0]}\n'
            '{"type": "radar", "t": 0.05, "sensor": 2, "detections": '
            '[{"p": [1.5, -2.0, 0.125], "rr": -0.5}, {"p": [3.0, 4.0, 0.0], "rr": 1.0}]}\n'
        )

    def test_scan_grouping(self):
        scans = [
            sim.RadarScan(0.05, 1, np.zeros((0, 3)), np.zeros(0)),
            sim.RadarScan(0.0, 0, np.zeros((0, 3)), np.zeros(0)),
            sim.RadarScan(0.05, 0, np.zeros((0, 3)), np.zeros(0)),
        ]
        grouped = sim.SensorLog(scans=scans).scans_by_time()
        assert [t for t, _ in grouped] == [0.0, 0.05]
        assert [s.sensor_id for s in grouped[1][1]] == [0, 1]
