import numpy as np
import pytest

from radarloc import sim
from radarloc.config import RunConfig
from radarloc.geometry import quat_yaw
from radarloc.rio import RioEstimator, run_odometry
from radarloc.rio.window import CONVERGED, ITERATION_CAP, NO_DESCENT
from radarloc.sim import ImuData, RadarScan, Scenario, simulate_mission


def _box_scene(half=25.0, clutter=0.0, dynamic=()):
    walls = []
    corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
    for a, b in zip(corners, corners[1:] + corners[:1]):
        walls.append({"start": list(a), "end": list(b), "spacing": 0.8, "weight": 0.95})
    posts = [{"position": [x, y]} for x, y in [(-10, -8), (12, 6), (-6, 11), (8, -12)]]
    return {
        "walls": walls,
        "posts": posts,
        "clutter_density": clutter,
        "dynamic_objects": list(dynamic),
    }


def _mission(traj, duration, scene, noisy=True, seed=0, imu_noise=None):
    cfg = {
        "trajectory": traj,
        "duration": duration,
        "scene": scene,
        "rig": {},
    }
    if noisy:
        cfg["imu_noise"] = imu_noise if imu_noise is not None else {}
    scenario = Scenario.from_dict(cfg)
    if not noisy:
        scenario.rig = scenario.rig.noise_free()
    return scenario, simulate_mission(scenario, seed=seed)


def _log(data):
    return sim.SensorLog(imu=data.imu, scans=data.scans)


class TestStationary:
    def test_velocity_and_yaw_stay_put(self):
        scenario, data = _mission(
            {"kind": "stationary"}, 30.0, _box_scene(clutter=2.0), noisy=True, seed=5
        )
        cfg = RunConfig()
        outputs = run_odometry(_log(data), cfg, extrinsics=scenario.rig.extrinsics)
        assert len(outputs) >= 590
        speeds = np.array([np.linalg.norm(o.v) for o in outputs])
        assert np.percentile(speeds, 95) < 0.05
        final_yaw = abs(np.degrees(quat_yaw(outputs[-1].q)))
        assert final_yaw < 0.1
        positions = np.array([o.p for o in outputs])
        assert np.linalg.norm(positions[-1]) < 0.2


class TestStraightLine:
    def test_noise_free_translation_exact(self):
        scenario, data = _mission(
            {"kind": "line", "speed": 1.0, "yaw": 0.0},
            10.0,
            _box_scene(half=30.0),
            noisy=False,
        )
        cfg = RunConfig()
        outputs = run_odometry(_log(data), cfg, extrinsics=scenario.rig.extrinsics)
        gt_start = data.gt.position[0]
        for out in outputs:
            idx = data.gt.index_at(out.t)
            gt_rel = data.gt.position[idx] - gt_start
            assert np.linalg.norm(out.p - gt_rel) < 1e-3
        assert np.linalg.norm(outputs[-1].p - [10.0, 0.0, 0.0]) < 1e-3
        assert not any(o.degraded for o in outputs)


class TestDegradedStep:
    def test_all_dynamic_scan_flagged_and_imu_propagated(self):
        scenario, data = _mission(
            {"kind": "stationary"}, 2.0, _box_scene(), noisy=False
        )
        cfg = RunConfig()
        est = RioEstimator(cfg, scenario.rig.extrinsics)
        groups = sim.SensorLog(scans=data.scans).scans_by_time()
        fed = 0
        outs = []
        for t, scans in groups[:10]:
            while fed < len(data.imu) and data.imu.t[fed] <= t + 1e-12:
                est.add_imu(data.imu.t[fed], data.imu.accel[fed], data.imu.gyro[fed])
                fed += 1
            outs.append(est.process_scans(t, scans))
        assert not outs[-1].degraded
        v_before = outs[-1].v.copy()
        q_before = outs[-1].q.copy()

        # next timestep: every detection carries an inconsistent range rate
        t_next = groups[10][0]
        while fed < len(data.imu) and data.imu.t[fed] <= t_next + 1e-12:
            est.add_imu(data.imu.t[fed], data.imu.accel[fed], data.imu.gyro[fed])
            fed += 1
        rng = np.random.default_rng(0)
        pts = rng.uniform(5.0, 30.0, size=(25, 3))
        pts[:, 1:] = rng.uniform(-5.0, 5.0, size=(25, 2))
        bad = RadarScan(t_next, 0, pts, rng.uniform(-8.0, 8.0, size=25))
        out = est.process_scans(t_next, [bad])
        assert out.degraded
        assert est.last_diagnostics.ransac_reason in (
            "insufficient_consensus",
            "degenerate_geometry",
        )
        # IMU-only propagation: stationary, so the state barely moves
        assert np.linalg.norm(out.v - v_before) < 0.05
        assert np.linalg.norm(out.q - q_before) < 1e-3


def _fault_log(fault):
    """A noisy 1.5 s straight drive with one fault injected halfway through."""
    scenario, data = _mission(
        {"kind": "line", "speed": 1.0, "yaw": 0.0}, 1.5, _box_scene(clutter=1.0), seed=4
    )
    scans = [RadarScan(s.t, s.sensor_id, s.points.copy(), s.doppler.copy()) for s in data.scans]
    imu = ImuData(data.imu.t.copy(), data.imu.accel.copy(), data.imu.gyro.copy())
    k = len(scans) // 2
    assert len(scans[k]) > 3
    i = len(imu) // 2 + 3  # between radar times: the IMU still covers every scan group
    assert i % scenario.rig.imu_per_radar
    at_radar = i - i % scenario.rig.imu_per_radar  # the sample at a scan group's time
    if fault == "zero_range_point":
        scans[k].points[3] = 0.0
    elif fault == "nan_point_coordinate":
        scans[k].points[3, 1] = np.nan
    elif fault == "nan_doppler":
        scans[k].doppler[3] = np.nan
    elif fault == "empty_scan":
        scans[k] = RadarScan(scans[k].t, scans[k].sensor_id, np.zeros((0, 3)), np.zeros(0))
    elif fault == "nan_accel_sample":
        imu.accel[i, 0] = np.nan
    elif fault == "nan_accel_at_radar_time":
        imu.accel[at_radar, 0] = np.nan
    elif fault == "nan_imu_time":
        imu.t[i] = np.nan
    return scenario, sim.SensorLog(imu=imu, scans=scans)


class TestFaultInjection:
    # fault, detections dropped at pooling, IMU samples skipped
    FAULTS = [
        ("zero_range_point", 1, 0),
        ("nan_point_coordinate", 1, 0),
        ("nan_doppler", 1, 0),
        ("empty_scan", 0, 0),
        ("nan_accel_sample", 0, 1),
        ("nan_accel_at_radar_time", 0, 1),
        ("nan_imu_time", 0, 1),
    ]

    @pytest.mark.parametrize("fault, dropped, skipped_imu", FAULTS)
    def test_fault_is_counted_and_outputs_stay_finite(
        self, fault, dropped, skipped_imu, monkeypatch
    ):
        scenario, log = _fault_log(fault)
        diagnostics = []
        process_scans = RioEstimator.process_scans

        def recording(est, t, scans):
            out = process_scans(est, t, scans)
            diagnostics.append(est.last_diagnostics)
            return out

        monkeypatch.setattr(RioEstimator, "process_scans", recording)
        outputs = run_odometry(log, RunConfig(), extrinsics=scenario.rig.extrinsics)
        # the IMU covers every scan group, so each gives one output
        assert len(outputs) == len(log.scans_by_time()) == len(diagnostics)
        for out in outputs:
            assert np.all(np.isfinite(np.concatenate([out.q, out.v, out.p])))
        assert not any(out.degraded for out in outputs)
        assert sum(d.dropped_detections for d in diagnostics) == dropped
        assert sum(d.skipped_imu_samples for d in diagnostics) == skipped_imu


class TestWindowBounds:
    def test_window_size_and_factor_count_bounded(self):
        scenario, data = _mission(
            {"kind": "circle", "radius": 12.0, "speed": 2.0},
            6.0,
            _box_scene(half=25.0, clutter=1.0),
            noisy=True,
            seed=3,
        )
        cfg = RunConfig()
        est = RioEstimator(cfg, scenario.rig.extrinsics)
        groups = sim.SensorLog(scans=data.scans).scans_by_time()
        fed = 0
        counts = []
        full_counts = []
        reasons = []
        for t, scans in groups:
            while fed < len(data.imu) and data.imu.t[fed] <= t + 1e-12:
                est.add_imu(data.imu.t[fed], data.imu.accel[fed], data.imu.gyro[fed])
                fed += 1
            est.process_scans(t, scans)
            diag = est.last_diagnostics
            counts.append(diag.factor_count)
            reasons.append(diag.optimize_reason)
            assert diag.ransac_iterations >= 1
            assert diag.cost_drop >= 0.0
            assert len(est.window) <= cfg.window.size
            if len(est.window) == cfg.window.size:
                full_counts.append(est.last_diagnostics.factor_count)
        # every step names why its optimization stopped; none diverged
        assert set(reasons) <= {CONVERGED, NO_DESCENT, ITERATION_CAP}
        # factor count bounded by a constant independent of mission length
        assert max(counts) < 5000
        # a full window holds the prior, one range-rate factor per sensor and
        # one heading factor per state, and one IMU factor per edge
        size = cfg.window.size
        n_sensors = len(scenario.rig.extrinsics)
        assert full_counts
        assert max(full_counts) <= 1 + size * (n_sensors + 1) + (size - 1)

    def test_single_sensor_ablation_uses_front_only(self):
        scenario, data = _mission(
            {"kind": "stationary"}, 1.0, _box_scene(), noisy=True, seed=2
        )
        from radarloc.config import config_from_dict

        cfg = config_from_dict({"ablation": {"single_sensor": True}})
        est = RioEstimator(cfg, scenario.rig.extrinsics)
        groups = sim.SensorLog(scans=data.scans).scans_by_time()
        fed = 0
        for t, scans in groups[:5]:
            while fed < len(data.imu) and data.imu.t[fed] <= t + 1e-12:
                est.add_imu(data.imu.t[fed], data.imu.accel[fed], data.imu.gyro[fed])
                fed += 1
            est.process_scans(t, scans)
            for entry in est.window.entries:
                for block in entry.doppler:
                    assert block.sensor_id == 0
