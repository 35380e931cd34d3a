import numpy as np
import pytest

from radarloc import sim
from radarloc.geometry import quat_to_matrix
from radarloc.sim.trajectory import TrajectorySpecError


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
