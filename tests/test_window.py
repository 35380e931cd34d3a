import copy
from collections import Counter

import numpy as np
import pytest

import radarloc.rio.estimator as estimator_module
import radarloc.rio.window as window_module
from conftest import random_imu_segment, random_state
from radarloc.config import RunConfig
from radarloc.geometry import quat_from_axis_angle, quat_to_matrix, quat_yaw, tilt_matrix
from radarloc.rio.factors import (
    PriorFactor,
    doppler_residuals,
    imu_residual,
    imu_sqrt_information,
    landmark_residuals,
)
from radarloc.rio.preintegration import predict_state, preintegrate
from radarloc.rio.state import BA, STATE_DIM, State
from radarloc.rio.window import (
    CONVERGED,
    DIVERGED,
    ITERATION_CAP,
    NO_DESCENT,
    DopplerBlock,
    LandmarkBlock,
    SlidingWindow,
    WindowEntry,
    _PackedWindow,
    marginalize_oldest,
    optimize_window,
)
from radarloc.sim import Scenario, SensorLog, default_rig, simulate_mission


@pytest.fixture
def cfg():
    return RunConfig()


@pytest.fixture
def extrinsics():
    return default_rig().extrinsics


def _loose_prior(state, scale=100.0):
    p = PriorFactor.from_sigmas(state, 0.5 * scale, 0.5 * scale, 0.1 * scale, 0.05 * scale)
    return p


def _doppler_entry(state, v_true, n, rng, sensor_id=0, extr=None):
    rays = rng.normal(size=(n, 3))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    R_ir = extr.rotation if extr is not None else np.eye(3)
    t_ir = extr.t if extr is not None else np.zeros(3)
    t_ri = -(R_ir.T @ t_ir)
    doppler = rays @ (R_ir.T @ v_true)  # identity orientation, zero body rate
    return WindowEntry(
        state=state,
        t_oi=np.zeros(3),
        doppler=[DopplerBlock(sensor_id=sensor_id, rays=rays, doppler=doppler, omega=np.zeros(3))],
    )


def _drive_window(monkeypatch):
    """The window the estimator optimizes at the last step of a short drive.

    A noisy 0.6 s straight line in a walled box: a full window of 11 states
    with a new predicted state, as the pipeline hands it over.
    """
    corners = [(-25.0, -25.0), (25.0, -25.0), (25.0, 25.0), (-25.0, 25.0)]
    walls = [
        {"start": list(a), "end": list(b), "spacing": 0.8, "weight": 0.95}
        for a, b in zip(corners, corners[1:] + corners[:1])
    ]
    scenario = Scenario.from_dict(
        {
            "trajectory": {"kind": "line", "speed": 1.0, "yaw": 0.0},
            "duration": 0.6,
            "scene": {"walls": walls, "clutter_density": 0.0},
            "rig": {},
            "imu_noise": {},
        }
    )
    data = simulate_mission(scenario, seed=0)
    captured = []

    def capture(window, extrinsics, cfg):
        captured.append(copy.deepcopy(window))
        return optimize_window(window, extrinsics, cfg)

    monkeypatch.setattr(estimator_module, "optimize_window", capture)
    log = SensorLog(imu=data.imu, scans=data.scans)
    estimator_module.run_odometry(log, RunConfig(), scenario.rig.extrinsics)
    return captured[-1], scenario.rig.extrinsics


class TestOptimize:
    def test_zero_residual_fixed_point(self, cfg, extrinsics):
        rng = np.random.default_rng(0)
        v_true = np.array([1.0, -0.5, 0.0])
        state = State.initial(v=v_true.copy())
        entry = _doppler_entry(state, v_true, 40, rng, extr=extrinsics[0])
        window = SlidingWindow(prior=_loose_prior(state), entries=[entry])
        report = optimize_window(window, extrinsics, cfg)
        assert report.iterations == 1
        assert report.converged and not report.diverged
        assert report.reason in (CONVERGED, NO_DESCENT)
        np.testing.assert_allclose(window.entries[0].state.v, v_true, atol=1e-9)

    def test_single_state_doppler_recovers_velocity(self, cfg, extrinsics):
        # oracle: the problem is linear in v, so the exact answer is the
        # least-squares solution, which equals the generating velocity;
        # start from a warm guess as the pipeline does
        rng = np.random.default_rng(1)
        v_true = np.array([1.4, 0.3, -0.1])
        state = State.initial(v=v_true + np.array([0.15, -0.1, 0.05]))
        # velocity prior loose; orientation and biases pinned, otherwise a
        # joint rotation of (q, v) leaves every range-rate residual unchanged
        prior = PriorFactor.from_sigmas(state, 1e-4, 100.0, 1e-5, 1e-5)
        entry = _doppler_entry(state, v_true, 50, rng, extr=extrinsics[0])
        window = SlidingWindow(prior=prior, entries=[entry])
        report = optimize_window(window, extrinsics, cfg)
        assert not report.diverged
        np.testing.assert_allclose(window.entries[0].state.v, v_true, atol=1e-6)

    def test_cost_monotone_on_noisy_window(self, cfg, extrinsics, imu_params):
        rng = np.random.default_rng(2)
        states = []
        entries = []
        x = State.initial(v=np.array([1.0, 0.0, 0.0]))
        for k in range(5):
            v_true = np.array([1.0, 0.1 * k, 0.0])
            state = State.initial(t=0.05 * k, v=v_true + 0.3 * rng.standard_normal(3))
            state.q = random_state(rng).q  # deliberately off
            entry = _doppler_entry(state, v_true, 30, rng, extr=extrinsics[0])
            entry.doppler[0].doppler += 0.04 * rng.standard_normal(30)
            entries.append(entry)
        for k in range(4):
            samples = random_imu_segment(rng, duration=0.05)
            entries[k].preint_to_next = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        window = SlidingWindow(prior=_loose_prior(entries[0].state, scale=10.0), entries=entries)
        report = optimize_window(window, extrinsics, cfg)
        assert not report.diverged
        diffs = np.diff(report.costs)
        assert np.all(diffs <= 1e-9)
        assert report.cost_final <= report.cost_initial

    def test_divergence_rolls_back(self, cfg, extrinsics):
        rng = np.random.default_rng(3)
        state = State.initial(v=np.array([np.nan, 0.0, 0.0]))
        entry = _doppler_entry(state, np.array([1.0, 0, 0]), 10, rng)
        window = SlidingWindow(prior=_loose_prior(state), entries=[entry])
        snapshot_v = window.entries[0].state.v.copy()
        report = optimize_window(window, extrinsics, cfg)
        assert report.diverged
        assert report.reason == DIVERGED
        np.testing.assert_array_equal(
            np.isnan(window.entries[0].state.v), np.isnan(snapshot_v)
        )

    def test_weak_accel_bias_direction_converges_in_three_iterations(self, cfg, monkeypatch):
        window, extrinsics = _drive_window(monkeypatch)
        packed = _PackedWindow(window, extrinsics, cfg)
        start = State.stack(window.states())
        # the horizontal accelerometer bias, confounded with tilt, is the
        # weakest direction of the diagonally scaled normal matrix
        H, _ = packed.linearize(start)
        scale = np.sqrt(np.diag(H))
        eigenvalues, vectors = np.linalg.eigh(H / np.outer(scale, scale))
        assert eigenvalues[0] < 1e-6
        weakest = vectors[:, 0].reshape(-1, STATE_DIM)[:, BA]
        assert np.sum(weakest[:, :2] ** 2) > 0.5

        # oracle: 64 undamped Gauss-Newton steps on the same factors
        optimum = start
        for _ in range(64):
            H, g = packed.linearize(optimum)
            optimum = optimum.retract(np.linalg.solve(H, -g).reshape(-1, STATE_DIM))

        cfg.window.max_iterations = 3
        report = optimize_window(window, extrinsics, cfg)
        result = State.stack(window.states())
        assert report.cost_final == pytest.approx(packed.cost(optimum), rel=1e-10)
        ba_start = np.abs(start.ba[:, :2] - optimum.ba[:, :2]).max()
        assert np.abs(result.ba[:, :2] - optimum.ba[:, :2]).max() < 0.02 * ba_start
        np.testing.assert_allclose(result.v, optimum.v, atol=1e-5)

    def test_iteration_cap_is_reported(self, cfg, extrinsics, imu_params):
        # one Gauss-Newton step cannot settle a window started far off
        cfg.window.max_iterations = 1
        window = _noisy_window(extrinsics, imu_params)
        report = optimize_window(window, extrinsics, cfg)
        assert report.reason == ITERATION_CAP
        assert report.iterations == 1
        assert not report.converged and not report.diverged
        assert report.cost_final < report.cost_initial


WINDOW_VARIANTS = (
    "full",
    "short_doppler_blocks",  # 1 to 3 detections: fewer than 4 QR rows
    "entry_without_doppler",  # a degraded step
    "entry_without_heading",
    "heading_near_pi",  # measured bearings on both sides of +-pi
    "single_state",  # bootstrap: no IMU edge
)


def _noisy_window(extrinsics, imu_params, variant="full"):
    rng = np.random.default_rng(7)
    n_states = 1 if variant == "single_state" else 4
    entries = []
    for k in range(n_states):
        state = random_state(rng, t=0.05 * k)
        R_io = quat_to_matrix(state.q).T
        omega = rng.normal(scale=0.3, size=3)
        blocks = []
        for sid, extr in enumerate(extrinsics):
            n_det = 1 + sid if variant == "short_doppler_blocks" else 40
            rays = rng.normal(size=(n_det, 3))
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            v_sensor = extr.rotation.T @ (R_io @ state.v + np.cross(omega - state.bg, extr.t))
            doppler = rays @ v_sensor + 0.04 * rng.standard_normal(n_det)
            blocks.append(DopplerBlock(sid, rays, doppler, omega))
        if variant == "heading_near_pi":
            # landmarks behind the robot in its levelled, yaw-rotated frame
            angle = np.pi + rng.uniform(-0.02, 0.02, size=25)
            dist = rng.uniform(5.0, 30.0, size=25)
            behind = np.column_stack(
                [dist * np.cos(angle), dist * np.sin(angle), rng.uniform(-2.0, 2.0, size=25)]
            )
            R_yaw = quat_to_matrix(quat_from_axis_angle([0.0, 0.0, 1.0], quat_yaw(state.q)))
            offsets = behind @ R_yaw.T
            levelled = behind
        else:
            offsets = rng.uniform(-30.0, 30.0, size=(25, 3))
            levelled = offsets @ R_io.T @ tilt_matrix(state.q).T
        bearings = np.arctan2(levelled[:, 1], levelled[:, 0]) + 0.01 * rng.standard_normal(25)
        entries.append(
            WindowEntry(
                state=state,
                t_oi=np.zeros(3),
                doppler=blocks,
                landmarks=LandmarkBlock(bearings, offsets),
            )
        )
    for k in range(n_states - 1):
        samples = random_imu_segment(rng, duration=0.05)
        entries[k].preint_to_next = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
    if variant == "entry_without_doppler":
        entries[1].doppler = []
    if variant == "entry_without_heading":
        entries[2].landmarks = None
    if variant == "heading_near_pi":
        bearings = np.concatenate([e.landmarks.bearings for e in entries])
        assert bearings.max() > np.pi - 0.05 and bearings.min() < -np.pi + 0.05
    return SlidingWindow(prior=_loose_prior(entries[0].state, scale=0.1), entries=entries)


def _per_row_oracle(window, extrinsics, cfg, owners=None):
    """One row per detection and per landmark match, as in the unreduced problem.

    With ``owners`` only the factors of the first ``owners`` entries, and the
    prior, are stacked.
    """
    states = window.states()
    n = len(states)
    rows, jacs = [], []

    def add(r, blocks):
        J = np.zeros((len(r), STATE_DIM * n))
        for i, J_i in blocks:
            J[:, STATE_DIM * i : STATE_DIM * (i + 1)] = J_i
        rows.append(r)
        jacs.append(J)

    r, J = window.prior.residual(states[0])
    add(r, [(0, J)])
    for i, entry in enumerate(window.entries[:owners]):
        for b in entry.doppler:
            extr = extrinsics[b.sensor_id]
            r, J = doppler_residuals(states[i], b.rays, b.doppler, extr.rotation, extr.t, b.omega)
            add(r / cfg.doppler.sigma, [(i, J / cfg.doppler.sigma)])
        lm = entry.landmarks
        if lm is not None:
            r, J, valid = landmark_residuals(states[i], lm.bearings, lm.offsets)
            sigma = cfg.landmark.bearing_sigma
            add(r[valid] / sigma, [(i, J[valid] / sigma)])
        if entry.preint_to_next is not None:
            W = imu_sqrt_information(entry.preint_to_next)
            r, J_k, J_k1 = imu_residual(states[i], states[i + 1], entry.preint_to_next)
            add(W @ r, [(i, W @ J_k), (i + 1, W @ J_k1)])
    return np.concatenate(rows), np.vstack(jacs)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestCompressedFactors:
    def test_cost_gradient_and_step_match_per_row_oracle(self, cfg, extrinsics, imu_params):
        def damped_step(H, g):
            lam = 1e-4
            return np.linalg.solve(H + lam * np.diag(np.clip(np.diag(H), 1e-12, None)), -g)

        for variant in WINDOW_VARIANTS:
            window = _noisy_window(extrinsics, imu_params, variant)
            r, J = _per_row_oracle(window, extrinsics, cfg)
            H_o, g_o = J.T @ J, J.T @ r
            if variant == "full":
                assert len(r) > 500  # the oracle really is per detection

            problem = _PackedWindow(window, extrinsics, cfg)
            states = State.stack(window.states())
            H, g = problem.linearize(states)

            assert problem.cost(states) == pytest.approx(float(r @ r), rel=1e-9), variant
            assert _rel(g, g_o) < 1e-9, variant
            assert _rel(damped_step(H, g), damped_step(H_o, g_o)) < 1e-9, variant

    def test_marginalization_is_schur_complement_of_per_row_oracle(
        self, cfg, extrinsics, imu_params
    ):
        window = _noisy_window(extrinsics, imu_params)
        r, J = _per_row_oracle(window, extrinsics, cfg, owners=1)
        J = J[:, : 2 * STATE_DIM]  # these factors touch the first two states only
        H, b = J.T @ J, J.T @ r
        old, new = slice(0, STATE_DIM), slice(STATE_DIM, 2 * STATE_DIM)
        H01 = H[old, new]
        H_oracle = H[new, new] - H01.T @ np.linalg.solve(H[old, old], H01)
        b_oracle = b[new] - H01.T @ np.linalg.solve(H[old, old], b[old])
        x1 = window.entries[1].state

        info = marginalize_oldest(window, extrinsics, cfg)
        prior = window.prior
        assert not info.regularized
        assert _rel(prior.sqrt_info.T @ prior.sqrt_info, H_oracle) < 1e-9
        assert _rel(prior.sqrt_info.T @ prior.rhs, b_oracle) < 1e-9
        np.testing.assert_array_equal(prior.mean.q, x1.q)


class TestFactorCallsPerPass:
    """Each factor function is called once per cost or linearization pass.

    The benchmark's tracer wraps these module-level names of the window
    module and reads one span per pass and kind.
    """

    NAMES = ("doppler_block_residual", "heading_block_residual", "imu_residual")

    def _count(self, monkeypatch):
        calls = Counter()

        def counting(owner, name, key):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in self.NAMES:
            counting(window_module, name, name)
        counting(_PackedWindow, "cost", "cost")
        counting(_PackedWindow, "linearize", "linearize")
        return calls

    def test_optimize_calls_each_factor_once_per_pass(
        self, cfg, extrinsics, imu_params, monkeypatch
    ):
        window = _noisy_window(extrinsics, imu_params)
        calls = self._count(monkeypatch)
        report = optimize_window(window, extrinsics, cfg)
        assert calls["linearize"] == report.iterations >= 1
        passes = calls["cost"] + calls["linearize"]
        assert passes > report.iterations
        assert [calls[name] for name in self.NAMES] == [passes] * 3

    def test_marginalize_calls_each_factor_once(self, cfg, extrinsics, imu_params, monkeypatch):
        window = _noisy_window(extrinsics, imu_params)
        calls = self._count(monkeypatch)
        marginalize_oldest(window, extrinsics, cfg)
        assert calls["linearize"] == 1
        assert [calls[name] for name in self.NAMES] == [1] * 3


class TestMarginalize:
    def _two_state_window(self, cfg, extrinsics, imu_params, with_doppler=False):
        rng = np.random.default_rng(4)
        x0 = State.initial(t=0.0, v=np.array([1.0, 0.2, 0.0]))
        samples = random_imu_segment(rng, duration=0.05)
        pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        x1 = predict_state(x0, pre)
        x1.v += 0.05 * rng.standard_normal(3)  # leave some residual
        prior = PriorFactor.from_sigmas(x0, 0.02, 0.5, 0.1, 0.01)
        e0 = WindowEntry(state=x0, t_oi=np.zeros(3), preint_to_next=pre)
        if with_doppler:
            e0.doppler = [
                DopplerBlock(
                    0,
                    np.eye(3),
                    np.eye(3) @ (extrinsics[0].rotation.T @ x0.v),
                    np.zeros(3),
                )
            ]
        e1 = WindowEntry(state=x1, t_oi=np.zeros(3))
        return SlidingWindow(prior=prior, entries=[e0, e1])

    def test_matches_dense_batch_oracle(self, cfg, extrinsics, imu_params):
        # oracle: assemble the full dense normal equations independently and
        # apply the textbook partitioned-inverse marginalization formula
        window = self._two_state_window(cfg, extrinsics, imu_params, with_doppler=True)
        x0, x1 = window.entries[0].state, window.entries[1].state
        pre = window.entries[0].preint_to_next
        prior = window.prior

        rows = []
        jacs = []
        r, J = prior.residual(x0)
        rows.append(r)
        jacs.append((J, np.zeros((STATE_DIM, STATE_DIM))))
        block = window.entries[0].doppler[0]
        rd, Jd = doppler_residuals(
            x0, block.rays, block.doppler, extrinsics[0].rotation, extrinsics[0].t, block.omega
        )
        sigma = cfg.doppler.sigma
        rd, Jd = rd / sigma, Jd / sigma
        rows.append(rd)
        jacs.append((Jd, np.zeros((len(rd), STATE_DIM))))
        W = imu_sqrt_information(pre)
        ri, Jk, Jk1 = imu_residual(x0, x1, pre)
        rows.append(W @ ri)
        jacs.append((W @ Jk, W @ Jk1))

        J_full = np.vstack([np.hstack(j) for j in jacs])
        r_full = np.concatenate(rows)
        H = J_full.T @ J_full
        b = J_full.T @ r_full
        H00, H01, H11 = H[:12, :12], H[:12, 12:], H[12:, 12:]
        b0, b1 = b[:12], b[12:]
        H_oracle = H11 - H01.T @ np.linalg.solve(H00, H01)
        b_oracle = b1 - H01.T @ np.linalg.solve(H00, b0)

        marginalize_oldest(window, extrinsics, cfg)
        new_prior = window.prior
        H_new = new_prior.sqrt_info.T @ new_prior.sqrt_info
        b_new = new_prior.sqrt_info.T @ new_prior.rhs
        np.testing.assert_allclose(H_new, H_oracle, atol=1e-8)
        np.testing.assert_allclose(b_new, b_oracle, atol=1e-8)
        assert len(window.entries) == 1
        assert window.entries[0].state is x1

    def test_prior_only_marginalization_shifts_anchor(self, cfg, extrinsics, imu_params):
        window = self._two_state_window(cfg, extrinsics, imu_params)
        window.entries[0].preint_to_next = None  # nothing couples x0 to x1
        x1 = window.entries[1].state
        info = marginalize_oldest(window, extrinsics, cfg)
        assert info.regularized
        assert window.prior.mean is not None
        np.testing.assert_array_equal(window.prior.mean.v, x1.v)
        # essentially no information remains
        H = window.prior.sqrt_info.T @ window.prior.sqrt_info
        assert np.linalg.norm(H) < 1e-6

    def test_factor_count_bounded_over_repeated_marginalization(self, cfg, extrinsics, imu_params):
        rng = np.random.default_rng(5)
        cfg.window.size = 6
        x = State.initial(v=np.array([1.0, 0.0, 0.0]))
        prior = PriorFactor.from_sigmas(x, 0.02, 0.5, 0.1, 0.01)
        window = SlidingWindow(prior=prior, entries=[WindowEntry(state=x, t_oi=np.zeros(3))])
        counts = []
        for k in range(60):
            samples = [
                s
                for s in random_imu_segment(rng, duration=0.05)
            ]
            shifted = [
                type(s)(s.t + 0.05 * k, s.accel, s.gyro) for s in samples
            ]
            pre = preintegrate(shifted, np.zeros(3), np.zeros(3), imu_params)
            window.entries[-1].preint_to_next = pre
            x_new = predict_state(window.entries[-1].state, pre)
            window.entries.append(WindowEntry(state=x_new, t_oi=np.zeros(3)))
            if len(window.entries) > cfg.window.size:
                marginalize_oldest(window, extrinsics, cfg)
            counts.append(window.factor_count())
        assert len(window.entries) == cfg.window.size
        assert max(counts[10:]) == min(counts[10:])
