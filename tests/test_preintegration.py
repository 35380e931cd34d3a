import numpy as np
import pytest

from conftest import random_imu_segment
from radarloc.config import ImuParams
from radarloc.geometry import exp_so3, log_so3, quat_to_matrix
from radarloc.rio.factors import imu_sqrt_information
from radarloc.rio.preintegration import imu_segment, predict_state, preintegrate
from radarloc.rio.state import State
from radarloc.sim.imu import ImuData

# two samples 0.1 s apart: accel x ramps 0 -> 0.1, gyro z 0 -> 0.2
TWO_SAMPLES = ImuData(
    np.array([0.0, 0.1]),
    np.array([[0.0, 0.0, 9.81], [0.1, 0.0, 9.81]]),
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.2]]),
)


class TestSegment:
    def test_endpoints_interpolated(self):
        t = np.arange(11) / 100.0
        imu = ImuData(t, np.tile([0.0, 0.0, 9.81], (11, 1)), np.outer(t, [0.0, 0.0, 1.0]))
        seg = imu_segment(imu, 0.013, 0.087)
        assert seg.t[0] == pytest.approx(0.013)
        assert seg.t[-1] == pytest.approx(0.087)
        np.testing.assert_allclose(seg.gyro[0], [0.0, 0.0, 0.013], atol=1e-12)
        assert np.all(np.diff(seg.t) > 0.0)
        # the samples inside the interval are copied as they are
        np.testing.assert_array_equal(seg.t[1:-1], t[2:9])
        np.testing.assert_array_equal(seg.accel[1:-1], imu.accel[2:9])
        np.testing.assert_array_equal(seg.gyro[1:-1], imu.gyro[2:9])

    @pytest.mark.parametrize(
        "t0, t1, end, expected, atol",
        [
            # an endpoint on a sample is that sample, bit for bit
            pytest.param(
                0.0, 0.1, 0, {"accel": [0.0, 0.0, 9.81], "gyro": [0.0, 0.0, 0.0]}, 0.0,
                id="t0_on_sample",
            ),
            pytest.param(0.05, 0.1, 0, {"accel": [0.05, 0.0, 9.81]}, 1e-15, id="midpoint_accel"),
            pytest.param(0.0, 0.075, -1, {"gyro": [0.0, 0.0, 0.15]}, 1e-15, id="three_quarter_gyro"),
        ],
    )
    def test_endpoint_value(self, t0, t1, end, expected, atol):
        seg = imu_segment(TWO_SAMPLES, t0, t1)
        assert seg.t[end] == (t0, t1)[end]
        for field, value in expected.items():
            np.testing.assert_allclose(getattr(seg, field)[end], value, rtol=0.0, atol=atol)

    def test_coverage_required(self):
        t = np.arange(5) / 100.0
        imu = ImuData(t, np.zeros((5, 3)), np.zeros((5, 3)))
        with pytest.raises(ValueError):
            imu_segment(imu, 0.0, 0.2)

    def test_out_of_interval_rejected(self):
        with pytest.raises(ValueError):
            imu_segment(TWO_SAMPLES, 0.0, 0.2)
        with pytest.raises(ValueError):
            imu_segment(TWO_SAMPLES, 0.1, 0.05)


class TestPreintegration:
    def test_stationary_prediction(self, imu_params):
        t = np.arange(0.0, 1.005, 0.005)
        samples = ImuData(t, np.tile([0.0, 0.0, 9.81], (len(t), 1)), np.zeros((len(t), 3)))
        pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        np.testing.assert_allclose(quat_to_matrix(pre.delta_q), np.eye(3), atol=1e-12)
        x0 = State.initial()
        x1 = predict_state(x0, pre)
        np.testing.assert_allclose(x1.v, np.zeros(3), atol=1e-9)
        np.testing.assert_allclose(x1.q, x0.q, atol=1e-12)

    def test_constant_yaw_rate_closed_form(self, imu_params):
        rate = 200.0
        t = np.arange(0.0, 1.0 + 0.5 / rate, 1.0 / rate)
        gyro = np.tile([0.0, 0.0, np.pi / 2.0], (len(t), 1))
        samples = ImuData(t, np.zeros((len(t), 3)), gyro)
        pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        expected = exp_so3(np.array([0.0, 0.0, np.pi / 2.0]))
        np.testing.assert_allclose(quat_to_matrix(pre.delta_q), expected, atol=1e-6)

    def test_matches_fine_direct_integration(self, imu_params):
        # oracle: direct midpoint integration of the same band-limited signal
        # sampled 10x faster
        rng = np.random.default_rng(12)
        for _ in range(5):
            freqs = rng.uniform(0.2, 2.0, size=(3, 3))
            phases = rng.uniform(0.0, 2.0 * np.pi, size=(3, 3))
            amp_w = rng.uniform(0.1, 0.8, size=3)
            amp_a = rng.uniform(0.2, 1.5, size=3)

            def gyro_at(tt):
                return amp_w * np.sin(2.0 * np.pi * freqs[0] * tt + phases[0])

            def accel_at(tt):
                return np.array([0.0, 0.0, 9.81]) + amp_a * np.sin(
                    2.0 * np.pi * freqs[1] * tt + phases[1]
                )

            t_coarse = np.arange(0.0, 1.0 + 1e-9, 1.0 / 200.0)
            samples = ImuData(
                t_coarse,
                np.array([accel_at(tt) for tt in t_coarse]),
                np.array([gyro_at(tt) for tt in t_coarse]),
            )
            pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)

            dt = 1.0 / 2000.0
            t_fine = np.arange(0.0, 1.0 + 1e-9, dt)
            R = np.eye(3)
            dv = np.zeros(3)
            for t0, t1 in zip(t_fine[:-1], t_fine[1:]):
                w_mid = 0.5 * (gyro_at(t0) + gyro_at(t1))
                a_mid = 0.5 * (accel_at(t0) + accel_at(t1))
                R_mid = R @ exp_so3(0.5 * w_mid * dt)
                dv = dv + R_mid @ a_mid * dt
                R = R @ exp_so3(w_mid * dt)

            rot_err = np.linalg.norm(log_so3(quat_to_matrix(pre.delta_q).T @ R))
            assert rot_err < 1e-4
            assert np.linalg.norm(pre.delta_v - dv) < 1e-3

    def test_first_order_bias_correction_matches_reintegration(self, imu_params):
        rng = np.random.default_rng(3)
        samples = random_imu_segment(rng, duration=0.05)
        ba0 = rng.normal(scale=0.02, size=3)
        bg0 = rng.normal(scale=0.005, size=3)
        pre = preintegrate(samples, ba0, bg0, imu_params)
        dba = rng.normal(scale=2e-4, size=3)
        dbg = rng.normal(scale=2e-4, size=3)
        dq_c, dv_c, _ = pre.corrected(ba0 + dba, bg0 + dbg)
        exact = preintegrate(samples, ba0 + dba, bg0 + dbg, imu_params)
        rot_err = np.linalg.norm(
            log_so3(quat_to_matrix(dq_c).T @ quat_to_matrix(exact.delta_q))
        )
        # first-order correction: truncation error is quadratic in the shift
        assert rot_err < 5e-6
        assert np.linalg.norm(dv_c - exact.delta_v) < 5e-6
        uncorrected = np.linalg.norm(pre.delta_v - exact.delta_v)
        assert np.linalg.norm(dv_c - exact.delta_v) < 0.1 * max(uncorrected, 1e-9)

    def test_first_order_error_small_at_largest_window_bias_shift(self, imu_params):
        # the workloads' edges see bias shifts up to about 0.1 m/s^2 and
        # 0.05 rad/s over a window's life; the first-order update must stay
        # well inside the edge's own noise there
        rng = np.random.default_rng(21)

        def direction():
            d = rng.normal(size=3)
            return d / np.linalg.norm(d)

        def whitened(W, dq, dv, exact):
            rot = log_so3(quat_to_matrix(dq).T @ quat_to_matrix(exact.delta_q))
            return np.linalg.norm(W @ np.concatenate([rot, dv - exact.delta_v]))

        for _ in range(20):
            samples = random_imu_segment(rng, duration=0.05)
            pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
            dba, dbg = 0.1 * direction(), 0.05 * direction()
            exact = preintegrate(samples, dba, dbg, imu_params)
            W = imu_sqrt_information(pre)[:6, :6]
            dq_c, dv_c, _ = pre.corrected(dba, dbg)
            assert whitened(W, dq_c, dv_c, exact) <= 0.05
            # the shift itself is many sigmas: the test is not vacuous
            assert whitened(W, pre.delta_q, pre.delta_v, exact) > 1.0

    def test_rejects_non_monotone_times(self, imu_params):
        with pytest.raises(ValueError):
            samples = ImuData(np.array([0.0, 0.01, 0.01]), np.zeros((3, 3)), np.zeros((3, 3)))
            preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)

    def test_covariance_psd_and_grows(self, imu_params):
        rng = np.random.default_rng(4)
        samples = random_imu_segment(rng, duration=0.05)
        pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        eigvals = np.linalg.eigvalsh(pre.cov_rot_vel)
        assert np.all(eigvals >= -1e-15)
        assert np.trace(pre.cov_rot_vel) > 0.0
