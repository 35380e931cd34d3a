import numpy as np
import pytest

from radarloc import sim
from radarloc.config import RunConfig, config_from_dict
from radarloc.geometry import quat_to_matrix, quat_yaw, wrap_angle
from radarloc.rio import RioEstimator, run_odometry
from radarloc.rio.estimator import IMU_GAP_FACTOR
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


class TestCircle:
    def test_noise_free_translation_and_yaw_exact(self):
        scenario, data = _mission(
            {"kind": "circle", "radius": 12.0, "speed": 2.0},
            6.0,
            _box_scene(half=25.0),
            noisy=False,
        )
        cfg = RunConfig()
        outputs = run_odometry(_log(data), cfg, extrinsics=scenario.rig.extrinsics)
        # outputs are in the IMU frame of the first output; the circle starts
        # at 90 deg yaw, so ground truth is expressed in that frame too
        i0 = data.gt.index_at(outputs[0].t)
        R0 = quat_to_matrix(data.gt.quat[i0])
        yaw0 = quat_yaw(data.gt.quat[i0])
        for out in outputs:
            idx = data.gt.index_at(out.t)
            gt_rel = R0.T @ (data.gt.position[idx] - data.gt.position[i0])
            assert np.linalg.norm(out.p - gt_rel) < 1e-3
            yaw_err = wrap_angle(quat_yaw(out.q) - (quat_yaw(data.gt.quat[idx]) - yaw0))
            assert abs(np.degrees(yaw_err)) < 0.05
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

    def test_empty_first_step_starts_at_rest_at_identity(self, monkeypatch):
        scenario, log = _fault_log(None)
        t0 = log.scans_by_time()[0][0]
        log.scans = [
            RadarScan(s.t, s.sensor_id, np.zeros((0, 3)), np.zeros(0))
            if round(s.t, 9) == t0
            else s
            for s in log.scans
        ]
        window_sizes = []
        process_scans = RioEstimator.process_scans

        def recording(est, t, scans):
            out = process_scans(est, t, scans)
            window_sizes.append(len(est.window))
            return out

        monkeypatch.setattr(RioEstimator, "process_scans", recording)
        outputs, diagnostics = _run_recording(log, scenario, monkeypatch)
        first, diag = outputs[0], diagnostics[0]
        assert first.degraded
        assert diag.degraded_reason == diag.ransac_reason == "too_few_detections"
        assert np.array_equal(first.q, [1.0, 0.0, 0.0, 0.0])
        assert not np.any(first.v) and not np.any(first.p)
        # the window holds the first state and its prior only
        assert window_sizes[0] == 1 and diag.factor_count == 1
        # the prior alone is at its mean: the optimization stops at once
        assert diag.optimize_reason == CONVERGED and diag.optimize_iterations == 1
        assert diag.cost_drop == 0.0
        assert diag.imu_max_interval == 0.0
        assert diag.accel_bias_shift == diag.gyro_bias_shift == 0.0
        assert len(outputs) > 2
        for out in outputs[1:]:
            assert not out.degraded
            assert np.all(np.isfinite(np.concatenate([out.q, out.v, out.p])))


def _fault_log(fault):
    """A noisy 1.5 s straight drive with ``fault`` injected halfway through (``None``: none)."""
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
    elif fault == "imu_gap":
        keep = (imu.t <= imu.t[i]) | (imu.t > imu.t[i] + 0.3)
        imu = ImuData(imu.t[keep], imu.accel[keep], imu.gyro[keep])
    return scenario, sim.SensorLog(imu=imu, scans=scans)


def _run_recording(log, scenario, monkeypatch, cfg=None):
    """``run_odometry`` on ``log``, with each step's ``StepDiagnostics``."""
    diagnostics = []
    process_scans = RioEstimator.process_scans

    def recording(est, t, scans):
        out = process_scans(est, t, scans)
        diagnostics.append(est.last_diagnostics)
        return out

    monkeypatch.setattr(RioEstimator, "process_scans", recording)
    outputs = run_odometry(log, cfg or RunConfig(), extrinsics=scenario.rig.extrinsics)
    return outputs, diagnostics


class TestFaultInjection:
    # fault, detections dropped at pooling, IMU samples skipped; the imu_gap
    # fault removes the samples over 0.3 s
    FAULTS = [
        ("zero_range_point", 1, 0),
        ("nan_point_coordinate", 1, 0),
        ("nan_doppler", 1, 0),
        ("empty_scan", 0, 0),
        ("nan_accel_sample", 0, 1),
        ("nan_accel_at_radar_time", 0, 1),
        ("nan_imu_time", 0, 1),
        ("imu_gap", 0, 0),
    ]

    @pytest.mark.parametrize("fault, dropped, skipped_imu", FAULTS)
    def test_fault_is_counted_and_outputs_stay_finite(
        self, fault, dropped, skipped_imu, monkeypatch
    ):
        scenario, log = _fault_log(fault)
        outputs, diagnostics = _run_recording(log, scenario, monkeypatch)
        # the IMU covers every scan group, so each gives one output
        assert len(outputs) == len(log.scans_by_time()) == len(diagnostics)
        for out in outputs:
            assert np.all(np.isfinite(np.concatenate([out.q, out.v, out.p])))
        assert sum(d.dropped_detections for d in diagnostics) == dropped
        assert sum(d.skipped_imu_samples for d in diagnostics) == skipped_imu
        # only a gap degrades a step: each step whose IMU segment bridges one
        # and no other, and every degraded step names it
        reasons = [d.degraded_reason for d in diagnostics]
        assert [out.degraded for out in outputs] == [bool(r) for r in reasons]
        gap_bound = IMU_GAP_FACTOR * np.median(np.diff(log.imu.t))
        bridged = [d.imu_max_interval > gap_bound for d in diagnostics]
        assert reasons == ["imu_gap" if b else "" for b in bridged]
        assert any(bridged) == (fault == "imu_gap")
        if fault == "imu_gap":
            # exactly the steps whose interval overlaps the missing samples,
            # the one that ends the gap included
            j = int(np.argmax(np.diff(log.imu.t)))
            gap_start, gap_end = log.imu.t[j], log.imu.t[j + 1]
            times = [out.t for out in outputs]
            overlaps = [False] + [
                t0 < gap_end and t1 > gap_start for t0, t1 in zip(times, times[1:])
            ]
            assert bridged == overlaps
            assert sum(overlaps) == 7


class TestAdaptiveRansac:
    def test_draws_stay_few_on_a_clean_drive(self, monkeypatch):
        # at this drive's inlier ratio a handful of draws reaches 99.9%
        # confidence; drawing the full cap again would fail here
        scenario, log = _fault_log(None)
        _, diagnostics = _run_recording(log, scenario, monkeypatch)
        draws = [d.ransac_iterations for d in diagnostics]
        cap = RunConfig().ransac.iterations
        assert all(1 <= k <= cap for k in draws)
        assert np.mean(draws) <= 10


class TestRansacRates:
    def test_rates_are_bias_corrected_at_the_predicted_gyro_bias(self, monkeypatch):
        # RANSAC sees each pooled range rate with the lever-arm term of the
        # predicted gyro bias taken out: rates - levers @ bg, where bg is the
        # newest window state's (zero before the first step)
        import radarloc.rio.estimator as estimator

        scenario, data = _mission(
            {"kind": "line", "speed": 1.0, "yaw": 0.0},
            1.5,
            _box_scene(clutter=1.0),
            seed=4,
            imu_noise={"gyro_bias_init": [0.0, 0.0, 0.05]},
        )
        biases, pooled, rates = [], [], []
        process_scans, pool_scans = RioEstimator.process_scans, estimator.pool_scans
        estimate_velocity = estimator.estimate_velocity

        def recording_step(est, t, scans):
            biases.append(np.zeros(3) if est.window is None else est.window.states[-1].bg.copy())
            return process_scans(est, t, scans)

        def recording_pool(*args, **kwargs):
            pooled.append(pool_scans(*args, **kwargs))
            return pooled[-1]

        def recording_estimate(directions, step_rates, *args, **kwargs):
            rates.append(step_rates.copy())
            return estimate_velocity(directions, step_rates, *args, **kwargs)

        monkeypatch.setattr(RioEstimator, "process_scans", recording_step)
        monkeypatch.setattr(estimator, "pool_scans", recording_pool)
        monkeypatch.setattr(estimator, "estimate_velocity", recording_estimate)
        outputs = run_odometry(_log(data), RunConfig(), extrinsics=scenario.rig.extrinsics)
        assert len(outputs) == len(biases) == len(pooled) == len(rates) > 2
        for bg, rows, seen in zip(biases, pooled, rates):
            np.testing.assert_allclose(seen, rows.rates - rows.levers @ bg, rtol=0.0, atol=1e-12)
        # the bias term is far above the tolerance: the check is not vacuous
        assert max(np.abs(rows.levers @ bg).max() for bg, rows in zip(biases, pooled)) > 1e-3


class TestOnePreintegrationPerStep:
    def test_each_step_preintegrates_once(self, monkeypatch):
        # every bias change reaches an IMU edge through the first-order
        # update, so no edge is ever compounded a second time
        import radarloc.rio.estimator as estimator
        import radarloc.rio.preintegration as preintegration

        calls = []
        original = preintegration.preintegrate

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(estimator, "preintegrate", counting)
        monkeypatch.setattr(preintegration, "preintegrate", counting)
        scenario, log = _fault_log(None)
        outputs = run_odometry(log, RunConfig(), extrinsics=scenario.rig.extrinsics)
        assert len(outputs) > 2
        assert len(calls) == len(outputs) - 1


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
        shifts = []
        tracked = []
        pairs = []
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
            # the bias shifts the first-order update is tested to carry
            # (test_preintegration.py)
            assert diag.accel_bias_shift <= 0.1
            assert diag.gyro_bias_shift <= 0.05
            shifts.append((diag.accel_bias_shift, diag.gyro_bias_shift))
            # every inlier handed to the tracker is matched or made a landmark
            assert diag.created_landmarks + diag.matched_landmarks == diag.inliers
            assert diag.tracked_landmarks == len(est.tracker.landmarks)
            # every match is one of the candidate pairs
            assert diag.association_pairs >= diag.matched_landmarks
            # a step with candidate pairs calls the matcher, one without does not
            assert (diag.association_solves > 0) == (diag.association_pairs > 0)
            tracked.append(diag.tracked_landmarks)
            pairs.append(diag.association_pairs)
            assert len(est.window) <= cfg.window.size
            if len(est.window) == cfg.window.size:
                full_counts.append(est.last_diagnostics.factor_count)
        # every step names why its optimization stopped; none diverged
        assert set(reasons) <= {CONVERGED, NO_DESCENT, ITERATION_CAP}
        # the shifts and the tracker counts are recorded, not left at their defaults
        assert all(max(column) > 0.0 for column in zip(*shifts))
        assert min(tracked) > 0 and max(pairs) > 0
        # factor count bounded by a constant independent of mission length
        assert max(counts) < 5000
        # a full window holds the prior, one range-rate factor and one heading
        # factor per state, whatever the number of sensors, and one IMU factor
        # per edge
        size = cfg.window.size
        assert full_counts
        assert max(full_counts) <= 1 + 2 * size + (size - 1)

    def test_bias_shifts_are_the_largest_over_the_window_edges(self, monkeypatch):
        # oracle: a loop over the edges the window holds once each step's
        # optimization returns, before the oldest state is marginalized
        import radarloc.rio.estimator as estimator

        scenario, log = _fault_log(None)
        edges, expected = [], []
        preintegrate, optimize_window = estimator.preintegrate, estimator.optimize_window

        def recording_preintegrate(*args):
            edges.append(preintegrate(*args))
            return edges[-1]

        def recording_optimize(window, cfg):
            report = optimize_window(window, cfg)
            held = edges[len(edges) - (len(window) - 1) :]
            accel, gyro = 0.0, 0.0
            for i, edge in enumerate(held):
                accel = max(accel, float(np.linalg.norm(window.states.ba[i] - edge.ba0)))
                gyro = max(gyro, float(np.linalg.norm(window.states.bg[i] - edge.bg0)))
            expected.append((accel, gyro))
            return report

        monkeypatch.setattr(estimator, "preintegrate", recording_preintegrate)
        monkeypatch.setattr(estimator, "optimize_window", recording_optimize)
        _, diagnostics = _run_recording(log, scenario, monkeypatch)
        assert len(diagnostics) == len(expected) > RunConfig().window.size
        for d, (accel, gyro) in zip(diagnostics, expected):
            assert d.accel_bias_shift == pytest.approx(accel, rel=0.0, abs=1e-15)
            assert d.gyro_bias_shift == pytest.approx(gyro, rel=0.0, abs=1e-15)
        assert all(max(column) > 0.0 for column in zip(*expected))

    def test_tracker_counts_are_zero_with_heading_off(self, monkeypatch):
        scenario, log = _fault_log(None)
        cfg = config_from_dict({"ablation": {"disable_heading_constraint": True}})
        _, diagnostics = _run_recording(log, scenario, monkeypatch, cfg)
        assert all(d.inliers > 0 for d in diagnostics)
        for d in diagnostics:
            assert d.tracked_landmarks == d.matched_landmarks == d.created_landmarks == 0
            assert d.association_pairs == d.association_solves == 0

    def test_single_sensor_ablation_uses_front_only(self, monkeypatch):
        import radarloc.rio.estimator as estimator

        scenario, data = _mission(
            {"kind": "stationary"}, 1.0, _box_scene(), noisy=True, seed=2
        )
        cfg = config_from_dict({"ablation": {"single_sensor": True}})
        pooled_ids = []
        original = estimator.pool_scans

        def recording(scans, *args, **kwargs):
            pooled_ids.append([scan.sensor_id for scan in scans])
            return original(scans, *args, **kwargs)

        monkeypatch.setattr(estimator, "pool_scans", recording)
        est = RioEstimator(cfg, scenario.rig.extrinsics)
        groups = sim.SensorLog(scans=data.scans).scans_by_time()
        fed = 0
        for t, scans in groups[:5]:
            while fed < len(data.imu) and data.imu.t[fed] <= t + 1e-12:
                est.add_imu(data.imu.t[fed], data.imu.accel[fed], data.imu.gyro[fed])
                fed += 1
            est.process_scans(t, scans)
            assert est.window.doppler[-1].any()
        assert len(pooled_ids) == 5
        assert any(len(scans) > 1 for _, scans in groups[:5])  # the filter has work to do
        for ids in pooled_ids:
            assert len(ids) > 0
            np.testing.assert_array_equal(ids, 0)
