import numpy as np
import pytest

from conftest import (
    jacobian_close,
    numeric_state_jacobian,
    random_imu_segment,
    random_state,
    stack,
)
from oracles import doppler_residuals, landmark_residuals
from radarloc.config import ImuParams, PriorParams
from radarloc.geometry import (
    quat_from_axis_angle,
    quat_local_error,
    quat_mul,
    quat_to_matrix,
    quat_yaw,
)
from radarloc.rio.factors import (
    PriorFactor,
    compress_doppler,
    compress_landmarks,
    doppler_block_residual,
    heading_block_residual,
    imu_residual,
    imu_sqrt_information,
)
from radarloc.rio.preintegration import predict_state, preintegrate
from radarloc.rio.state import BA, BG, STATE_DIM, VEL, State
from radarloc.sim.rig import sensor_extrinsic


def _random_rays(rng, n):
    rays = rng.normal(size=(n, 3))
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


class TestDopplerFactor:
    def test_stationary_zero_residual(self):
        x = State.initial()
        rays = _random_rays(np.random.default_rng(0), 10)
        res, _ = doppler_residuals(
            x, rays, np.zeros(10), np.eye(3), np.zeros(3), omega=np.zeros(3)
        )
        np.testing.assert_allclose(res, 0.0, atol=1e-15)

    def test_forward_motion_consistency(self):
        x = State.initial(v=np.array([1.0, 0.0, 0.0]))
        rays = np.array([[1.0, 0.0, 0.0]])
        res, _ = doppler_residuals(
            x, rays, np.array([1.0]), np.eye(3), np.zeros(3), omega=np.zeros(3)
        )
        assert res[0] == pytest.approx(0.0, abs=1e-12)
        res, _ = doppler_residuals(
            x, rays, np.array([0.9]), np.eye(3), np.zeros(3), omega=np.zeros(3)
        )
        assert res[0] == pytest.approx(-0.1, abs=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        extr = sensor_extrinsic([0.4, -0.2, 0.1], 0.7)
        R_ir, t_ir = extr.rotation, extr.t
        for _ in range(20):
            x = random_state(rng)
            rays = _random_rays(rng, 6)
            doppler = rng.normal(size=6)
            omega = rng.normal(scale=0.5, size=3)
            _, J = doppler_residuals(x, rays, doppler, R_ir, t_ir, omega)
            J_num = numeric_state_jacobian(
                lambda s: doppler_residuals(s, rays, doppler, R_ir, t_ir, omega, with_jacobian=False)[0],
                x,
            )
            assert jacobian_close(J, J_num)

    def test_block_residual_batch_matches_finite_differences(self):
        # several blocks in one call, each with its own state and lever arm;
        # 1 to 6 detections give fewer than 7 QR rows, zero-padded
        rng = np.random.default_rng(13)
        sizes = [1, 2, 3, 6, 7, 40]
        n = len(sizes)
        x = stack([random_state(rng) for _ in range(n)])
        rows = np.zeros((n, 7, 7))
        for k, m in enumerate(sizes):
            rays = _random_rays(rng, m)
            levers = np.cross(rays, rng.normal(scale=0.5, size=3))
            T = compress_doppler(rays, levers, rng.normal(size=m))
            rows[k, : len(T)] = T
        r, J = doppler_block_residual(x, rows)
        assert r.shape == (n, 7) and J.shape == (n, 7, STATE_DIM)
        J_num = numeric_state_jacobian(lambda s: doppler_block_residual(s, rows)[0], x)
        for k in range(n):
            r_k, J_k = doppler_block_residual(x[k], rows[k])
            np.testing.assert_allclose(r[k], r_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(J[k], J_k, rtol=1e-12, atol=1e-12)
            assert jacobian_close(J[k], J_num[k])
            np.testing.assert_array_equal(r[k, sizes[k] :], 0.0)  # padding rows


class TestImuFactor:
    def _make_pre(self, rng, params):
        samples = random_imu_segment(rng, duration=0.05)
        ba0 = rng.normal(scale=0.02, size=3)
        bg0 = rng.normal(scale=0.005, size=3)
        return preintegrate(samples, ba0, bg0, params)

    def test_zero_on_exact_propagation(self, imu_params):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pre = self._make_pre(rng, imu_params)
            x_k = random_state(rng)
            x_k1 = predict_state(x_k, pre)
            res, _, _ = imu_residual(x_k, x_k1, pre)
            np.testing.assert_allclose(res, 0.0, atol=1e-9)

    def test_velocity_perturbation_sign(self, imu_params):
        rng = np.random.default_rng(3)
        pre = self._make_pre(rng, imu_params)
        x_k = random_state(rng)
        x_k1 = predict_state(x_k, pre)
        x_k1.v = x_k1.v + np.array([0.1, 0.0, 0.0])
        res, _, _ = imu_residual(x_k, x_k1, pre)
        np.testing.assert_allclose(res[3:6], [0.1, 0.0, 0.0], atol=1e-12)

    def test_jacobians_match_finite_differences(self, imu_params):
        rng = np.random.default_rng(4)
        edges = []
        for _ in range(15):
            pre = self._make_pre(rng, imu_params)
            x_k = random_state(rng)
            x_k1 = random_state(rng, t=pre.dt)
            _, J_k, J_k1 = imu_residual(x_k, x_k1, pre)
            J_k_num = numeric_state_jacobian(
                lambda s: imu_residual(s, x_k1, pre)[0], x_k
            )
            J_k1_num = numeric_state_jacobian(
                lambda s: imu_residual(x_k, s, pre)[0], x_k1
            )
            assert jacobian_close(J_k, J_k_num)
            assert jacobian_close(J_k1, J_k1_num)
            edges.append((pre, x_k, x_k1))

        # the same edges as one batch, as the window evaluates them
        pre = stack([e[0] for e in edges])
        x_k = stack([e[1] for e in edges])
        x_k1 = stack([e[2] for e in edges])
        r, J_k, J_k1 = imu_residual(x_k, x_k1, pre)
        J_k_num = numeric_state_jacobian(
            lambda s: imu_residual(s, x_k1, pre)[0], x_k
        )
        J_k1_num = numeric_state_jacobian(
            lambda s: imu_residual(x_k, s, pre)[0], x_k1
        )
        for k, (pre_k, a, b) in enumerate(edges):
            r_k, Jk_k, Jk1_k = imu_residual(a, b, pre_k)
            np.testing.assert_allclose(r[k], r_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(J_k[k], Jk_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(J_k1[k], Jk1_k, rtol=1e-12, atol=1e-12)
            assert jacobian_close(J_k[k], J_k_num[k])
            assert jacobian_close(J_k1[k], J_k1_num[k])

    def test_sqrt_information_finite(self, imu_params):
        rng = np.random.default_rng(5)
        pre = self._make_pre(rng, imu_params)
        W = imu_sqrt_information(pre)
        assert W.shape == (12, 12)
        assert np.all(np.isfinite(W))
        # it whitens the residual's covariance: rows [rotation, velocity],
        # then the gyro-bias and accel-bias random walks over dt
        cov = np.zeros((12, 12))
        cov[:6, :6] = pre.cov_rot_vel + 1e-12 * np.eye(6)
        cov[6:9, 6:9] = imu_params.gyro_bias_walk**2 * pre.dt * np.eye(3)
        cov[9:, 9:] = imu_params.accel_bias_walk**2 * pre.dt * np.eye(3)
        np.testing.assert_allclose(W @ cov @ W.T, np.eye(12), rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(np.triu(W, 1), 0.0)

    def test_sqrt_information_of_a_stack_matches_each_edge(self, imu_params):
        # edges of different lengths, so the bias blocks differ too
        rng = np.random.default_rng(6)
        pres = [
            preintegrate(random_imu_segment(rng, duration=d), np.zeros(3), np.zeros(3), imu_params)
            for d in (0.02, 0.05, 0.05, 0.1, 0.3)
        ]
        W = imu_sqrt_information(stack(pres))
        assert W.shape == (len(pres), 12, 12)
        for W_k, pre in zip(W, pres):
            np.testing.assert_array_equal(W_k, imu_sqrt_information(pre))


class TestLandmarkFactor:
    def test_zero_for_exact_pose(self):
        # measured bearings follow the levelled convention: the IMU-frame
        # detection with roll and pitch removed, R(q) = Rz(yaw) @ tilt
        rng = np.random.default_rng(6)
        x = random_state(rng)
        R_oi = quat_to_matrix(x.q)
        R_yaw = quat_to_matrix(quat_from_axis_angle([0, 0, 1], quat_yaw(x.q)))
        tilt = R_yaw.T @ R_oi
        offsets = rng.uniform(-20.0, 20.0, size=(8, 3))
        in_imu = offsets @ R_oi  # R_io @ offset, row-wise
        levelled = in_imu @ tilt.T
        phis = np.arctan2(levelled[:, 1], levelled[:, 0])
        res, _, valid = landmark_residuals(x, phis, offsets)
        assert np.all(valid)
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_roll_and_pitch_leave_residual_unchanged(self):
        # a heading factor must not pull on roll or pitch: with
        # R = Rz(yaw) Ry(pitch) Rx(roll), changing roll or pitch alone
        # leaves every residual as it was
        def attitude(yaw, pitch, roll):
            return quat_mul(
                quat_from_axis_angle([0, 0, 1], yaw),
                quat_mul(
                    quat_from_axis_angle([0, 1, 0], pitch), quat_from_axis_angle([1, 0, 0], roll)
                ),
            )

        rng = np.random.default_rng(12)
        for _ in range(10):
            yaw, pitch, roll = rng.uniform(-np.pi, np.pi), *rng.uniform(-1.0, 1.0, size=2)
            x = random_state(rng)
            x.q = attitude(yaw, pitch, roll)
            offsets = rng.uniform(-30.0, 30.0, size=(6, 3))
            phis = rng.uniform(-np.pi, np.pi, size=6)
            res, _, _ = landmark_residuals(x, phis, offsets)
            for d_pitch, d_roll in ((0.3, 0.0), (0.0, 0.3)):
                tilted = x.copy()
                tilted.q = attitude(yaw, pitch + d_pitch, roll + d_roll)
                res_t, _, _ = landmark_residuals(tilted, phis, offsets)
                np.testing.assert_allclose(res_t, res, atol=1e-12)

    def test_yaw_perturbation_recovered(self):
        # landmark far ahead: a small yaw error shows up directly in the residual
        x_true = State.initial()
        offsets = np.array([[100.0, 0.0, 0.0]])
        phis = np.array([0.0])
        delta = 0.01
        x_est = State.initial(q=quat_from_axis_angle([0, 0, 1], delta))
        res, _, _ = landmark_residuals(x_est, phis, offsets)
        assert res[0] == pytest.approx(delta, rel=0.05)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_state(rng)
            offsets = rng.uniform(-30.0, 30.0, size=(5, 3))
            phis = rng.uniform(-np.pi, np.pi, size=5)
            _, J, valid = landmark_residuals(x, phis, offsets)
            assert np.all(valid)
            J_num = numeric_state_jacobian(
                lambda s: landmark_residuals(s, phis, offsets, with_jacobian=False)[0],
                x,
            )
            assert jacobian_close(J, J_num)

    def test_heading_block_batch_matches_finite_differences(self):
        # compressed heading blocks of several states in one call; the
        # reference yaws cover the whole circle, including near +-pi
        rng = np.random.default_rng(14)
        n = 6
        x = stack([random_state(rng) for _ in range(n)])
        summaries = []
        for yaw in (-np.pi + 1e-3, -1.0, 0.0, 2.0, np.pi - 1e-3, np.pi):
            offsets = rng.uniform(-30.0, 30.0, size=(7, 3))
            phis = np.arctan2(offsets[:, 1], offsets[:, 0]) - yaw + 0.01 * rng.normal(size=7)
            summaries.append(compress_landmarks(phis, offsets))
        summary = np.stack(summaries)
        r, J = heading_block_residual(x, summary)
        assert r.shape == (n, 2) and J.shape == (n, 2, STATE_DIM)
        J_num = numeric_state_jacobian(
            lambda s: heading_block_residual(s, summary)[0], x
        )
        for k in range(n):
            r_k, J_k = heading_block_residual(x[k], summaries[k])
            np.testing.assert_allclose(r[k], r_k, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(J[k], J_k, rtol=1e-12, atol=1e-12)
            assert jacobian_close(J[k], J_num[k])

    def test_only_orientation_is_constrained(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = random_state(rng)
            offsets = rng.uniform(-30.0, 30.0, size=(6, 3))
            phis = rng.uniform(-np.pi, np.pi, size=6)
            _, J, _ = landmark_residuals(x, phis, offsets)
            np.testing.assert_array_equal(J[:, VEL], 0.0)
            np.testing.assert_array_equal(J[:, BA], 0.0)
            np.testing.assert_array_equal(J[:, BG], 0.0)

    def test_degenerate_bearing_skipped(self):
        x = State.initial()
        offsets = np.array([[0.0, 0.0, 5.0], [10.0, 0.0, 0.0]])
        phis = np.array([0.0, 0.0])
        res, J, valid = landmark_residuals(x, phis, offsets)
        assert list(valid) == [False, True]
        assert res[0] == 0.0
        np.testing.assert_array_equal(J[0], 0.0)

    def test_residual_wrapped(self):
        x = State.initial()
        offsets = np.array([[-10.0, -1e-3, 0.0]])
        phis = np.array([np.pi - 1e-3])
        res, _, _ = landmark_residuals(x, phis, offsets)
        assert abs(res[0]) < 0.1


class TestPriorFactor:
    def test_zero_at_mean(self):
        rng = np.random.default_rng(9)
        mean = random_state(rng)
        p = PriorParams()
        prior = PriorFactor.from_sigmas(
            mean, p.sigma_rotation, p.sigma_velocity, p.sigma_accel_bias, p.sigma_gyro_bias
        )
        res, _ = prior.residual(mean)
        np.testing.assert_allclose(res, 0.0, atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        p = PriorParams()
        for _ in range(10):
            mean = random_state(rng)
            prior = PriorFactor.from_sigmas(
                mean, p.sigma_rotation, p.sigma_velocity, p.sigma_accel_bias, p.sigma_gyro_bias
            )
            x = mean.retract(0.1 * rng.normal(size=STATE_DIM))
            _, J = prior.residual(x)
            J_num = numeric_state_jacobian(
                lambda s: prior.residual(s)[0], x
            )
            assert jacobian_close(J, J_num)

    def test_residual_is_the_whitened_local_error(self):
        # the rotation part is quat_local_error, the inverse of retract, on
        # both sides of the antipodal flip
        rng = np.random.default_rng(12)
        for k in range(10):
            mean = random_state(rng)
            H = np.diag(rng.uniform(0.5, 2.0, size=STATE_DIM))
            prior = PriorFactor.from_information(mean, H, rng.normal(size=STATE_DIM), epsilon=1e-9)
            x = mean.retract(rng.normal(size=STATE_DIM))
            if k % 2:
                x.q = -x.q
            delta = np.concatenate(
                [quat_local_error(x.q, mean.q), x.v - mean.v, x.ba - mean.ba, x.bg - mean.bg]
            )
            res, _ = prior.residual(x)
            np.testing.assert_array_equal(res, prior.sqrt_info @ delta + prior.rhs)

    def test_from_information_round_trip(self):
        rng = np.random.default_rng(11)
        mean = random_state(rng)
        A = rng.normal(size=(STATE_DIM, STATE_DIM))
        H = A @ A.T + 0.5 * np.eye(STATE_DIM)
        b = rng.normal(size=STATE_DIM)
        prior = PriorFactor.from_information(mean, H, b, epsilon=1e-9)
        assert not prior.regularized
        np.testing.assert_allclose(prior.sqrt_info.T @ prior.sqrt_info, H, atol=1e-8)
        np.testing.assert_allclose(prior.sqrt_info.T @ prior.rhs, b, atol=1e-8)

    def test_from_information_regularizes_singular(self):
        mean = State.initial()
        # singular; and slightly indefinite, below -epsilon, as a Schur
        # complement that cancels against bias information of about 5e10
        indefinite = np.diag([5e10] * 3 + [1.0] * 8 + [-1.19e-7])
        for H, epsilon in ((np.zeros((STATE_DIM, STATE_DIM)), 1e-6), (indefinite, 1e-8)):
            prior = PriorFactor.from_information(mean, H, np.ones(STATE_DIM), epsilon=epsilon)
            assert prior.regularized
            assert np.all(np.isfinite(prior.sqrt_info)) and np.all(np.isfinite(prior.rhs))
            res, _ = prior.residual(mean.retract(0.5 * np.ones(STATE_DIM)))
            assert np.all(np.isfinite(res))
