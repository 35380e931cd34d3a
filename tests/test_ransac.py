import numpy as np
import pytest

from radarloc.config import RansacParams
from radarloc.geometry import quat_to_matrix
from radarloc.rio.ransac import draws_needed, estimate_velocity, pool_scans, refit_velocity
from radarloc.sim import RadarScan, default_rig, sensor_extrinsic


def _random_dirs(rng, n):
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _pool_one(points, doppler, extr, omega):
    """``pool_scans`` of one scan from ``extr``, as sensor 0 of a one-sensor rig."""
    scan = RadarScan(0.0, 0, np.asarray(points, dtype=float), np.asarray(doppler, dtype=float))
    return pool_scans([scan], [extr], np.asarray(omega, dtype=float))


class TestLeverArmCompensation:
    """A pooled rate is the raw rate plus ``omega . lever``; the rate RANSAC
    fits at gyro bias ``bg`` is ``rates - levers @ bg``."""

    def test_no_rotation_no_change(self):
        extr = sensor_extrinsic([0.5, 0.0, 0.0], 0.3)
        pooled = _pool_one([[10.0, 2.0, 0.5]], [1.25], extr, np.zeros(3))
        assert pooled.rates[0] == pytest.approx(1.25, abs=1e-12)

    def test_omega_equals_bias_no_change(self):
        extr = sensor_extrinsic([0.5, -0.2, 0.1], -0.4)
        doppler = np.array([0.4, -0.7])
        omega = np.array([0.1, -0.2, 0.5])
        pooled = _pool_one([[5.0, 1.0, 0.0], [8.0, -2.0, 1.0]], doppler, extr, omega)
        assert np.all(np.abs(pooled.rates - doppler) > 0.01)  # the arm turns
        np.testing.assert_allclose(pooled.rates - pooled.levers @ omega, doppler, atol=1e-12)

    def test_colocated_sensor_no_change(self):
        extr = sensor_extrinsic([0.0, 0.0, 0.0], 0.9)
        pooled = _pool_one([[4.0, 4.0, 0.0]], [2.0], extr, [0.0, 0.0, 2.0])
        assert pooled.rates[0] == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(pooled.levers, 0.0)

    def test_rigid_body_oracle(self):
        # sensor 0.5 m ahead on x, yawing at 1 rad/s, target on the sensor's
        # +y axis: the lever-arm point velocity is omega x arm, magnitude 0.5
        extr = sensor_extrinsic([0.5, 0.0, 0.0], 0.0)
        omega = np.array([0.0, 0.0, 1.0])
        points = np.array([[0.0, 10.0, 0.0]])
        lever_velocity = np.cross(omega, extr.t)
        assert np.linalg.norm(lever_velocity) == pytest.approx(0.5)
        ray_imu = points[0] / np.linalg.norm(points[0])  # identity extrinsic rotation
        expected_correction = -(ray_imu @ lever_velocity)
        pooled = _pool_one(points, [0.0], extr, omega)
        assert pooled.rates[0] == pytest.approx(expected_correction, abs=1e-12)
        assert abs(pooled.rates[0]) == pytest.approx(0.5, abs=1e-12)

    def test_compensation_recovers_static_model(self):
        # full kinematics: simulated doppler of a static point seen from a
        # rotating, translating platform, with a biased gyro, reduces to
        # v_imu . ray once the bias term is taken out
        rng = np.random.default_rng(0)
        extr = sensor_extrinsic([0.4, 0.25, -0.1], 0.8)
        v_imu = np.array([1.2, -0.3, 0.1])
        omega_true = np.array([0.05, -0.1, 0.6])
        bias = np.array([0.004, -0.006, 0.009])
        targets = rng.uniform(-30, 30, size=(25, 3))
        local = (targets - extr.t) @ extr.rotation  # sensor-frame positions
        rays = local / np.linalg.norm(local, axis=1, keepdims=True)
        v_sensor_imu = v_imu + np.cross(omega_true, extr.t)
        doppler = rays @ (extr.rotation.T @ v_sensor_imu)
        pooled = _pool_one(local, doppler, extr, omega_true + bias)
        np.testing.assert_allclose(pooled.directions, rays @ extr.rotation.T, atol=1e-12)
        np.testing.assert_allclose(pooled.positions, targets, atol=1e-12)
        np.testing.assert_allclose(
            pooled.rates - pooled.levers @ bias, pooled.directions @ v_imu, atol=1e-12
        )


class TestRansac:
    def test_noise_free_exact(self):
        rng = np.random.default_rng(1)
        dirs = _random_dirs(rng, 50)
        v_true = np.array([1.0, 0.0, 0.0])
        result = estimate_velocity(dirs, dirs @ v_true, RansacParams(), seed=0)
        assert result.ok
        np.testing.assert_allclose(result.velocity, v_true, atol=1e-9)
        assert result.inlier_mask.all()

    def test_outliers_flagged_and_velocity_recovered(self):
        # oracle: least squares on the ground-truth static subset
        rng = np.random.default_rng(2)
        params = RansacParams()
        for trial in range(20):
            n = 100
            dirs = _random_dirs(rng, n)
            v_true = rng.uniform(-3, 3, size=3)
            rates = dirs @ v_true + 0.04 * rng.standard_normal(n)
            dynamic = rng.permutation(n)[: int(0.3 * n)]
            offsets = rng.uniform(1.0, 3.0, size=len(dynamic)) * rng.choice([-1, 1], len(dynamic))
            rates[dynamic] += offsets
            static = np.setdiff1d(np.arange(n), dynamic)
            v_oracle, *_ = np.linalg.lstsq(dirs[static], rates[static], rcond=None)
            result = estimate_velocity(dirs, rates, params, seed=trial)
            assert result.ok
            assert np.linalg.norm(result.velocity - v_oracle) < 0.05
            flagged = ~result.inlier_mask
            recall = flagged[dynamic].mean()
            assert recall >= 0.95

    def test_single_ray_direction_degenerate(self):
        dirs = np.tile([1.0, 0.0, 0.0], (40, 1))
        result = estimate_velocity(dirs, np.full(40, 0.7), RansacParams(), seed=0)
        assert result.degraded
        assert result.reason in ("insufficient_consensus", "degenerate_geometry")

    def test_too_few_detections(self):
        result = estimate_velocity(np.eye(3)[:2], np.array([0.1, 0.2]), RansacParams(), seed=0)
        assert result.degraded and result.reason == "too_few_detections"

    def test_consensus_below_min_inliers_degrades(self):
        rng = np.random.default_rng(3)
        dirs = _random_dirs(rng, 12)
        rates = rng.uniform(-5.0, 5.0, size=12)  # mutually inconsistent
        result = estimate_velocity(dirs, rates, RansacParams(min_inliers=10), seed=0)
        assert result.degraded

    def test_inliers_invariant_to_sensor_relabeling(self):
        # the same scans under other sensor ids, with the rig's extrinsics
        # listed in that order, pool into the same rows
        rng = np.random.default_rng(4)
        rig = default_rig()
        v_true = np.array([2.0, -1.0, 0.2])
        omega = np.array([0.02, -0.01, 0.3])
        scans = []
        for sensor, extr in enumerate(rig.extrinsics):
            rays = _random_dirs(rng, 20)
            doppler = rays @ (extr.rotation.T @ (v_true + np.cross(omega, extr.t)))
            doppler += 0.02 * rng.standard_normal(20)
            doppler[:4] += 2.0
            scans.append(RadarScan(0.0, sensor, 10.0 * rays, doppler))
        order = [2, 0, 1]  # sensor i of the relabeled rig is sensor order[i]
        relabeled = [RadarScan(0.0, order.index(s.sensor_id), s.points, s.doppler) for s in scans]
        pooled_a = pool_scans(scans, rig.extrinsics, omega)
        pooled_b = pool_scans(relabeled, [rig.extrinsics[k] for k in order], omega)
        for rows in ("directions", "rates", "levers", "positions"):
            np.testing.assert_array_equal(getattr(pooled_a, rows), getattr(pooled_b, rows))
        res_a = estimate_velocity(pooled_a.directions, pooled_a.rates, RansacParams(), seed=9)
        res_b = estimate_velocity(pooled_b.directions, pooled_b.rates, RansacParams(), seed=9)
        assert res_a.ok and not res_a.inlier_mask[[0, 20, 40]].any()
        assert np.array_equal(res_a.inlier_mask, res_b.inlier_mask)
        np.testing.assert_allclose(res_a.velocity, res_b.velocity, atol=1e-12)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        dirs = _random_dirs(rng, 80)
        rates = dirs @ np.array([1.0, 1.0, 0.0]) + 0.04 * rng.standard_normal(80)
        rates[:30] += 1.5
        a = estimate_velocity(dirs, rates, RansacParams(), seed=3)
        b = estimate_velocity(dirs, rates, RansacParams(), seed=3)
        assert np.array_equal(a.inlier_mask, b.inlier_mask)
        np.testing.assert_array_equal(a.velocity, b.velocity)

    def test_sequence_seed_deterministic_and_int_equivalent(self):
        # per-step seeds [run_seed, step] as the estimator passes them; two
        # competing motions and few iterations make the outcome depend on
        # the random stream
        rng = np.random.default_rng(6)
        dirs = _random_dirs(rng, 80)
        rates = dirs @ np.array([1.0, 1.0, 0.0]) + 0.04 * rng.standard_normal(80)
        rates[:35] = dirs[:35] @ np.array([-1.0, 0.5, 0.0])
        params = RansacParams(iterations=5)
        outcomes = []
        for seed in ([3, 0], [3, 0], 3, [3]):
            res = estimate_velocity(dirs, rates, params, seed=seed)
            assert res.ok
            outcomes.append((res.inlier_mask, res.velocity, res.iterations_used))
        for (mask_a, v_a, it_a), (mask_b, v_b, it_b) in (outcomes[:2], outcomes[2:]):
            assert np.array_equal(mask_a, mask_b)
            np.testing.assert_array_equal(v_a, v_b)
            assert it_a == it_b


def _fixed_draws_reference(rows, params, seed):
    """Mask and velocity of RANSAC with every one of ``params.iterations``
    draws made (early stop only on full consensus), from the same stream."""
    dirs, rates = rows
    n = len(rates)
    rng = np.random.default_rng(np.random.SeedSequence([*seed, 0x3303]))
    best_count, best_mask = 0, np.zeros(n, dtype=bool)
    for _ in range(params.iterations):
        pick = rng.choice(n, size=3, replace=False)
        if abs(np.linalg.det(dirs[pick])) < 1e-6:
            continue
        v = np.linalg.solve(dirs[pick], rates[pick])
        mask = np.abs(rates - dirs @ v) < params.inlier_threshold
        if mask.sum() > best_count:
            best_count, best_mask = int(mask.sum()), mask
            if best_count == n:
                break
    mask = best_mask
    for _ in range(2):
        v, *_ = np.linalg.lstsq(dirs[mask], rates[mask], rcond=None)
        mask = np.abs(rates - dirs @ v) < params.inlier_threshold
    return mask, v


MOVER_VELOCITY = np.array([-2.0, 1.5, 0.0])  # relative to the static scene


def _scene_with_movers(seed, n, mover_fraction, v_static):
    """Static detections at ``v_static`` with 0.01 m/s noise; the first
    ``mover_fraction`` of them move together at ``MOVER_VELOCITY``.

    Also returns the mask of movers whose range rate differs from a static
    one's by more than twice the inlier threshold. The rows are returned
    as ``(directions, rates)``.
    """
    rng = np.random.default_rng(seed)
    dirs = _random_dirs(rng, n)
    rates = dirs @ v_static + 0.01 * rng.standard_normal(n)
    movers = int(round(mover_fraction * n))
    rates[:movers] = dirs[:movers] @ (v_static + MOVER_VELOCITY)
    distinct = np.zeros(n, dtype=bool)
    distinct[:movers] = np.abs(dirs[:movers] @ MOVER_VELOCITY) > 2 * RansacParams().inlier_threshold
    return (dirs, rates), distinct


class TestRefit:
    @staticmethod
    def _ray_sets(rng):
        full = _random_dirs(rng, 30)
        coplanar = full.copy()
        coplanar[:, 2] = 0.0
        collinear = np.outer(rng.choice([-1.0, 1.0], 30), [0.6, 0.8, 0.0])
        # out of plane by far less than the rank tolerance
        nearly_coplanar = coplanar + [0.0, 0.0, 1e-9] * rng.standard_normal((30, 1))
        return {
            "full": full,
            "coplanar": coplanar,
            "collinear": collinear,
            "nearly_coplanar": nearly_coplanar,
        }

    def test_rank_test_agrees_with_matrix_rank(self):
        rng = np.random.default_rng(11)
        for name, dirs in self._ray_sets(rng).items():
            rates = dirs @ [1.0, -2.0, 0.5] + 0.01 * rng.standard_normal(len(dirs))
            mask = rng.random(len(dirs)) < 0.8
            v = refit_velocity(dirs, rates, mask)
            assert (v is None) == (np.linalg.matrix_rank(dirs[mask], tol=1e-6) < 3), name
            assert (v is None) == (name != "full"), name
            if v is not None:  # the least-squares solution over the mask itself
                lstsq = np.linalg.lstsq(dirs[mask], rates[mask], rcond=None)[0]
                np.testing.assert_array_equal(v, lstsq)

    def test_coplanar_inliers_give_degenerate_geometry(self):
        # rays scaled by 100 and out of their plane by 1e-10: every triplet
        # passes the draw's determinant test, but the consensus spans two
        # directions to the refit's tolerance
        rng = np.random.default_rng(12)
        dirs = _random_dirs(rng, 50)
        dirs[:, 2] = 1e-10 * rng.standard_normal(50)
        dirs *= 100.0
        assert np.linalg.matrix_rank(dirs, tol=1e-6) == 2
        result = estimate_velocity(dirs, dirs @ [1.0, 0.5, 0.0], RansacParams(), seed=0)
        assert result.degraded and result.reason == "degenerate_geometry"


class TestAdaptiveStop:
    V_STATIC = np.array([3.0, 0.2, -0.1])

    def test_few_outliers_stop_early_with_the_fixed_draw_result(self):
        params = RansacParams()
        for seed in range(5):
            rows, distinct = _scene_with_movers(seed, 200, 0.02, self.V_STATIC)
            result = estimate_velocity(*rows, params, seed=[seed, 7])
            assert result.ok
            assert 1 <= result.iterations_used <= 10
            mask, v = _fixed_draws_reference(rows, params, [seed, 7])
            np.testing.assert_array_equal(result.inlier_mask, mask)
            np.testing.assert_array_equal(result.velocity, v)
            assert not result.inlier_mask[distinct].any()

    def test_coherent_movers_need_more_draws_and_lose(self):
        params = RansacParams()
        clean, _ = _scene_with_movers(1, 200, 0.02, self.V_STATIC)
        crowded, distinct = _scene_with_movers(1, 200, 0.4, self.V_STATIC)
        few = estimate_velocity(*clean, params, seed=[1, 7]).iterations_used
        result = estimate_velocity(*crowded, params, seed=[1, 7])
        assert result.ok
        assert few < result.iterations_used <= params.iterations
        assert not result.inlier_mask[distinct].any()
        assert result.inlier_mask[80:].mean() > 0.95  # the static 60%
        np.testing.assert_allclose(result.velocity, self.V_STATIC, atol=0.01)

    def test_coplanar_rays_skip_every_draw_up_to_the_cap(self):
        rng = np.random.default_rng(8)
        dirs = _random_dirs(rng, 50)
        dirs[:, 2] = 0.0
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        params = RansacParams()
        result = estimate_velocity(dirs, dirs @ self.V_STATIC, params, seed=0)
        assert result.degraded and result.reason == "insufficient_consensus"
        assert result.iterations_used == params.iterations

    def test_cap_still_applies(self):
        crowded, _ = _scene_with_movers(1, 200, 0.4, self.V_STATIC)
        assert estimate_velocity(*crowded, RansacParams(), seed=[1, 7]).iterations_used > 5
        result = estimate_velocity(*crowded, RansacParams(iterations=5), seed=[1, 7])
        assert result.iterations_used == 5

    @pytest.mark.parametrize(
        "count, n, expected",
        [
            (0, 10, 100),  # no consensus: no finite number of draws suffices
            (1, 10**120, 100),  # the ratio cubed underflows to 0
            (1, 10**108, 100),  # the ratio cubed is subnormal: the quotient overflows
            (10, 10, 1),  # full consensus
            (99, 100, 2),
            (979, 1000, 3),
            (600, 1000, 29),
        ],
    )
    def test_draws_needed_is_finite_and_bounded(self, count, n, expected):
        assert draws_needed(count, n, 100) == expected
        assert 1 <= draws_needed(count, n, 5) <= 5


class TestPooling:
    def test_pool_scans_merges_sensors(self):
        # against a loop over the scans, each with its own sensor's extrinsic
        rig = default_rig()
        omega = np.array([0.02, -0.01, 0.4])
        scan0 = RadarScan(0.0, 0, np.array([[10.0, 0.0, 0.0]]), np.array([1.0]))
        scan2 = RadarScan(0.0, 2, np.array([[5.0, 1.0, 0.0], [7.0, -1.0, 0.2]]), np.array([0.5, 0.2]))
        pooled = pool_scans([scan0, scan2], rig.extrinsics, omega)
        assert len(pooled) == 3
        np.testing.assert_allclose(np.linalg.norm(pooled.directions, axis=1), 1.0, atol=1e-12)
        for rows, scan in ((slice(0, 1), scan0), (slice(1, 3), scan2)):
            extr = rig.extrinsics[scan.sensor_id]
            rays = scan.points / np.linalg.norm(scan.points, axis=1, keepdims=True) @ extr.rotation.T
            expected = {
                "directions": rays,
                "levers": np.cross(rays, extr.t),
                "positions": scan.points @ extr.rotation.T + extr.t,
                # the raw rate less the arm's rotation at omega along the ray
                "rates": scan.doppler - rays @ np.cross(omega, extr.t),
            }
            for name, value in expected.items():
                np.testing.assert_allclose(getattr(pooled, name)[rows], value, atol=1e-12)

    def test_pool_scans_drops_unusable_detections_and_keeps_levers(self):
        rig = default_rig()
        points = np.array(
            [[10.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4.0, np.nan, 0.0], [6.0, 2.0, 0.0], [8.0, 1.0, 1.0]]
        )
        doppler = np.array([1.0, 0.5, 0.5, np.inf, 0.3])
        scan0 = RadarScan(0.0, 0, points, doppler)
        scan1 = RadarScan(0.0, 1, np.zeros((0, 3)), np.zeros(0))
        scan2 = RadarScan(0.0, 2, points[[1, 0]], doppler[[1, 0]])
        pooled = pool_scans([scan0, scan1, scan2], rig.extrinsics, np.zeros(3))
        assert pooled.dropped == 4
        assert len(pooled) == 3  # points 0 and 4 of sensor 0, point 0 of sensor 2
        # each kept detection's lever is its IMU-frame ray crossed with its own sensor's arm
        arms = np.array([rig.extrinsics[s].t for s in (0, 0, 2)])
        np.testing.assert_array_equal(pooled.levers, np.cross(pooled.directions, arms))
        assert np.all(np.isfinite(pooled.directions)) and np.all(np.isfinite(pooled.rates))
        # the kept detections pool exactly as they would on their own
        alone = pool_scans(
            [RadarScan(0.0, 0, points[[0, 4]], doppler[[0, 4]])],
            rig.extrinsics,
            np.zeros(3),
        )
        assert alone.dropped == 0
        np.testing.assert_array_equal(pooled.rates[:2], alone.rates)
        np.testing.assert_array_equal(pooled.positions[:2], alone.positions)

    def test_pool_scans_drops_infinite_coordinates_quietly(self):
        # a RuntimeWarning fails the test (pyproject.toml)
        points = np.array([[np.inf, 0.0, 1.0], [-np.inf, np.inf, 0.0], [8.0, 1.0, 1.0]])
        scan = RadarScan(0.0, 1, points, np.array([0.5, 0.5, 0.3]))
        pooled = pool_scans([scan], default_rig().extrinsics, np.zeros(3))
        assert pooled.dropped == 2 and len(pooled) == 1
        assert np.all(np.isfinite(pooled.positions)) and np.all(np.isfinite(pooled.rates))

    def test_pool_scans_of_no_detections(self):
        rig = default_rig()
        for scans in ([], [RadarScan(0.0, 1, np.zeros((0, 3)), np.zeros(0))]):
            pooled = pool_scans(scans, rig.extrinsics, np.array([0.0, 0.0, 0.5]))
            assert len(pooled) == 0 and pooled.dropped == 0
            for rows in (pooled.directions, pooled.levers, pooled.positions):
                assert rows.shape == (0, 3)

    @pytest.mark.parametrize("sensor", [-1, 3])
    def test_pool_scans_refuses_sensor_without_extrinsic(self, sensor):
        rig = default_rig()
        assert len(rig.extrinsics) == 3
        good = RadarScan(0.0, 0, np.array([[10.0, 0.0, 0.0]]), np.array([1.0]))
        bad = RadarScan(0.0, sensor, np.array([[5.0, 1.0, 0.0]]), np.array([0.5]))
        with pytest.raises(ValueError, match=rf"sensor ids \[{sensor}\] have no extrinsic"):
            pool_scans([good, bad], rig.extrinsics, np.zeros(3))

    def test_pooled_static_consistency_from_sim(self):
        # end to end: simulated noise-free static scans from three sensors,
        # read by a biased gyro, pool into an exactly consistent system for
        # the IMU-frame velocity once the bias term is taken out
        from radarloc import sim
        from radarloc.geometry import quat_to_matrix as q2m

        gt = sim.gen_trajectory({"kind": "circle", "radius": 15.0, "speed": 2.0}, 2.0, 200.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-50, 50, size=(80, 3))
        pts[:, 2] = rng.uniform(0.0, 2.5, 80)
        scene = sim.Scene(pts, np.ones(80))
        rig = sim.default_rig().noise_free()
        index = 120
        scans = [sim.simulate_scan(gt, index, scene, rig, s) for s in range(3)]
        bias = np.array([0.01, -0.02, 0.03])
        omega = gt.body_rate[index] + bias
        pooled = pool_scans(scans, rig.extrinsics, omega)
        assert len(pooled) >= 10
        assert np.abs(pooled.levers @ bias).max() > 1e-3  # the bias matters
        v_imu_true = q2m(gt.quat[index]).T @ gt.velocity[index]
        rates = pooled.rates - pooled.levers @ bias
        np.testing.assert_allclose(rates, pooled.directions @ v_imu_true, atol=1e-9)
        # the raw rates are linear in the true body rate through the levers
        raw = np.concatenate([s.doppler for s in scans])
        np.testing.assert_allclose(
            raw, pooled.directions @ v_imu_true - pooled.levers @ (omega - bias), atol=1e-9
        )
        result = estimate_velocity(pooled.directions, rates, RansacParams(), seed=0)
        assert result.ok
        np.testing.assert_allclose(result.velocity, v_imu_true, atol=1e-8)
