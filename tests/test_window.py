import copy
from collections import Counter

import numpy as np
import pytest

import radarloc.rio.estimator as estimator_module
import radarloc.rio.window as window_module
from conftest import random_imu_segment, random_state
from oracles import doppler_residuals, landmark_residuals
from radarloc.config import RunConfig
from radarloc.geometry import quat_from_axis_angle, quat_to_matrix, quat_yaw, tilt_matrix
from radarloc.rio.factors import (
    PriorFactor,
    imu_residual,
    imu_sqrt_information,
)
from radarloc.rio.preintegration import predict_state, preintegrate
from radarloc.rio.ransac import pool_scans
from radarloc.rio.state import BA, STATE_DIM, State
from radarloc.sim.imu import ImuData
from radarloc.rio.window import (
    CONVERGED,
    DIVERGED,
    ITERATION_CAP,
    NO_DESCENT,
    Linearization,
    SlidingWindow,
    damped_step,
    linearize,
    lower_band,
    marginalize_oldest,
    optimize_window,
)
from radarloc.sim import RadarScan, Scenario, SensorLog, default_rig, simulate_mission


@pytest.fixture
def cfg():
    return RunConfig()


@pytest.fixture
def extrinsics():
    return default_rig().extrinsics


def _loose_prior(state, scale=100.0):
    p = PriorFactor.from_sigmas(state, 0.5 * scale, 0.5 * scale, 0.1 * scale, 0.05 * scale)
    return p


def _pooled_block(scans, extrinsics, omega):
    """One range-rate block of every scan's detections, as the estimator builds it."""
    pooled = pool_scans(scans, extrinsics, omega)
    return pooled.directions, pooled.levers, pooled.rates


def _window(prior, states, edges=(), doppler=None, landmarks=None):
    """A window of ``states``, joined by ``edges``, with their raw blocks.

    ``doppler`` and ``landmarks`` hold one block or None per state.
    """
    window = SlidingWindow(prior)
    for k, state in enumerate(states):
        window.append(
            state,
            edges[k - 1] if k else None,
            doppler[k] if doppler else None,
            landmarks[k] if landmarks else None,
        )
    return window


def _assert_same_state(a, b):
    for name in ("t", "q", "v", "ba", "bg"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def _sensor_rays(scan):
    return scan.points / np.linalg.norm(scan.points, axis=1, keepdims=True)


def _doppler_block(v_true, n, rng, extr):
    """One sensor's noise-free detections at identity orientation and zero body rate."""
    rays = rng.normal(size=(n, 3))
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    scan = RadarScan(0.0, 0, 10.0 * rays, rays @ (extr.rotation.T @ v_true))
    return _pooled_block([scan], [extr], np.zeros(3))


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

    def capture(window, cfg):
        captured.append(copy.deepcopy(window))
        return optimize_window(window, cfg)

    monkeypatch.setattr(estimator_module, "optimize_window", capture)
    log = SensorLog(imu=data.imu, scans=data.scans)
    estimator_module.run_odometry(log, RunConfig(), scenario.rig.extrinsics)
    return captured[-1]


class TestOptimize:
    def test_zero_residual_fixed_point(self, cfg, extrinsics):
        rng = np.random.default_rng(0)
        v_true = np.array([1.0, -0.5, 0.0])
        state = State.initial(v=v_true.copy())
        block = _doppler_block(v_true, 40, rng, extr=extrinsics[0])
        window = _window(_loose_prior(state), [state], doppler=[block])
        report = optimize_window(window, cfg)
        assert report.iterations == 1
        assert report.converged and not report.diverged
        assert report.reason in (CONVERGED, NO_DESCENT)
        np.testing.assert_allclose(window.states.v[0], v_true, atol=1e-9)

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
        block = _doppler_block(v_true, 50, rng, extr=extrinsics[0])
        window = _window(prior, [state], doppler=[block])
        report = optimize_window(window, cfg)
        assert not report.diverged
        np.testing.assert_allclose(window.states.v[0], v_true, atol=1e-6)

    def test_cost_monotone_on_noisy_window(self, cfg, extrinsics, imu_params):
        rng = np.random.default_rng(2)
        states = []
        blocks = []
        for k in range(5):
            v_true = np.array([1.0, 0.1 * k, 0.0])
            state = State.initial(t=0.05 * k, v=v_true + 0.3 * rng.standard_normal(3))
            state.q = random_state(rng).q  # deliberately off
            rays, levers, rates = _doppler_block(v_true, 30, rng, extr=extrinsics[0])
            blocks.append((rays, levers, rates + 0.04 * rng.standard_normal(30)))
            states.append(state)
        edges = [
            preintegrate(random_imu_segment(rng, duration=0.05), np.zeros(3), np.zeros(3), imu_params)
            for _ in range(4)
        ]
        window = _window(_loose_prior(states[0], scale=10.0), states, edges, doppler=blocks)
        report = optimize_window(window, cfg)
        assert not report.diverged
        diffs = np.diff(report.costs)
        assert np.all(diffs <= 1e-9)
        assert report.cost_final <= report.cost_initial

    def test_divergence_rolls_back(self, cfg, extrinsics):
        rng = np.random.default_rng(3)
        state = State.initial(v=np.array([np.nan, 0.0, 0.0]))
        block = _doppler_block(np.array([1.0, 0, 0]), 10, rng, extrinsics[0])
        window = _window(_loose_prior(state), [state], doppler=[block])
        snapshot_v = window.states.v[0].copy()
        report = optimize_window(window, cfg)
        assert report.diverged
        assert report.reason == DIVERGED
        np.testing.assert_array_equal(np.isnan(window.states.v[0]), np.isnan(snapshot_v))

    def test_weak_accel_bias_direction_converges_in_three_iterations(self, cfg, monkeypatch):
        window = _drive_window(monkeypatch)
        start = window.states
        # the horizontal accelerometer bias, confounded with tilt, is the
        # weakest direction of the diagonally scaled normal matrix
        H = linearize(window, start, cfg).H
        scale = np.sqrt(np.diag(H))
        eigenvalues, vectors = np.linalg.eigh(H / np.outer(scale, scale))
        assert eigenvalues[0] < 1e-6
        weakest = vectors[:, 0].reshape(-1, STATE_DIM)[:, BA]
        assert np.sum(weakest[:, :2] ** 2) > 0.5

        # oracle: 64 undamped Gauss-Newton steps on the same factors
        optimum = start
        for _ in range(64):
            lin = linearize(window, optimum, cfg)
            optimum = optimum.retract(np.linalg.solve(lin.H, -lin.g).reshape(-1, STATE_DIM))

        cfg.window.max_iterations = 3
        report = optimize_window(window, cfg)
        result = window.states
        assert report.cost_final == pytest.approx(linearize(window, optimum, cfg).cost, rel=1e-10)
        ba_start = np.abs(start.ba[:, :2] - optimum.ba[:, :2]).max()
        assert np.abs(result.ba[:, :2] - optimum.ba[:, :2]).max() < 0.02 * ba_start
        np.testing.assert_allclose(result.v, optimum.v, atol=1e-5)

    def test_iteration_cap_is_reported(self, cfg, extrinsics, imu_params):
        # one Gauss-Newton step cannot settle a window started far off
        cfg.window.max_iterations = 1
        window, _ = _noisy_window(extrinsics, imu_params)
        report = optimize_window(window, cfg)
        assert report.reason == ITERATION_CAP
        assert report.iterations == 1
        assert not report.converged and not report.diverged
        assert report.cost_final < report.cost_initial


WINDOW_VARIANTS = (
    "full",
    "short_doppler_blocks",  # 1 to 6 detections: fewer than 7 QR rows
    "entry_without_doppler",  # a degraded step
    "entry_without_heading",
    "heading_near_pi",  # measured bearings on both sides of +-pi
    "single_state",  # bootstrap: no IMU edge
)


# detections per sensor of each state in the "short_doppler_blocks" variant
SHORT_BLOCKS = ((1, 0, 0), (0, 2, 1), (2, 1, 2), (1, 2, 3))


def _noisy_window(extrinsics, imu_params, variant="full"):
    """A window of noisy states, and each state's raw measurements.

    The raw measurements of a state are its per-sensor scans, its gyro rate
    and its heading block ``(bearings, offsets)``. Its range-rate block
    pools the scans; a state without one has no scans, and a state without
    a heading block has None in its place.
    """
    rng = np.random.default_rng(7)
    n_states = 1 if variant == "single_state" else 4
    states, rate_blocks, heading_blocks = [], [], []
    raw = []
    for k in range(n_states):
        state = random_state(rng, t=0.05 * k)
        R_io = quat_to_matrix(state.q).T
        omega = rng.normal(scale=0.3, size=3)
        scans = []
        for sid, extr in enumerate(extrinsics):
            n_det = SHORT_BLOCKS[k][sid] if variant == "short_doppler_blocks" else 40
            if n_det == 0:
                continue
            rays = rng.normal(size=(n_det, 3))
            rays /= np.linalg.norm(rays, axis=1, keepdims=True)
            v_sensor = extr.rotation.T @ (R_io @ state.v + np.cross(omega - state.bg, extr.t))
            doppler = rays @ v_sensor + 0.04 * rng.standard_normal(n_det)
            points = rng.uniform(2.0, 40.0, size=(n_det, 1)) * rays
            scans.append(RadarScan(state.t, sid, points, doppler))
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
        states.append(state)
        rate_blocks.append(_pooled_block(scans, extrinsics, omega))
        heading_blocks.append((bearings, offsets))
        raw.append((scans, omega, heading_blocks[-1]))
    edges = [
        preintegrate(random_imu_segment(rng, duration=0.05), np.zeros(3), np.zeros(3), imu_params)
        for _ in range(n_states - 1)
    ]
    if variant == "entry_without_doppler":
        rate_blocks[1] = None
        raw[1] = ((), None, raw[1][2])
    if variant == "entry_without_heading":
        heading_blocks[2] = None
        raw[2] = (*raw[2][:2], None)
    if variant == "heading_near_pi":
        bearings = np.concatenate([b for b, _ in heading_blocks])
        assert bearings.max() > np.pi - 0.05 and bearings.min() < -np.pi + 0.05
    window = _window(_loose_prior(states[0], scale=0.1), states, edges, rate_blocks, heading_blocks)
    return window, raw


def _per_row_oracle(window, raw, extrinsics, cfg, owners=None):
    """One row per detection and per landmark match, as in the unreduced problem.

    The rows are taken from ``raw``: the range-rate rows per sensor in its
    own frame from the scans and gyro rate each state's block pools, and the
    heading rows from each heading block. With ``owners`` only the prior and
    the factors of the first ``owners`` states, their outgoing IMU edges
    included, are stacked.
    """
    states = window.states
    n = len(window)
    rows, jacs = [], []

    def add(r, blocks):
        J = np.zeros((len(r), STATE_DIM * n))
        for i, J_i in blocks:
            J[:, STATE_DIM * i : STATE_DIM * (i + 1)] = J_i
        rows.append(r)
        jacs.append(J)

    r, J = window.prior.residual(states[0])
    add(r, [(0, J)])
    for i, (scans, omega, lm) in enumerate(raw[:owners]):
        for scan in scans:
            extr = extrinsics[scan.sensor_id]
            r, J = doppler_residuals(
                states[i], _sensor_rays(scan), scan.doppler, extr.rotation, extr.t, omega
            )
            add(r / cfg.doppler.sigma, [(i, J / cfg.doppler.sigma)])
        if lm is not None:
            r, J, valid = landmark_residuals(states[i], *lm)
            sigma = cfg.landmark.bearing_sigma
            add(r[valid] / sigma, [(i, J[valid] / sigma)])
        if i < n - 1:
            edge = window.edges[i]
            W = imu_sqrt_information(edge)
            r, J_k, J_k1 = imu_residual(states[i], states[i + 1], edge)
            add(W @ r, [(i, W @ J_k), (i + 1, W @ J_k1)])
    return np.concatenate(rows), np.vstack(jacs)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _linearize(window, cfg):
    """The window's linearization at its current states."""
    return linearize(window, window.states, cfg)


class TestCompressedFactors:
    def test_cost_gradient_and_step_match_per_row_oracle(self, cfg, extrinsics, imu_params):
        def damped_step(H, g):
            lam = 1e-4
            return np.linalg.solve(H + lam * np.diag(np.clip(np.diag(H), 1e-12, None)), -g)

        for variant in WINDOW_VARIANTS:
            window, raw = _noisy_window(extrinsics, imu_params, variant)
            r, J = _per_row_oracle(window, raw, extrinsics, cfg)
            H_o, g_o = J.T @ J, J.T @ r
            if variant == "full":
                assert len(r) > 500  # the oracle really is per detection

            lin = _linearize(window, cfg)

            assert lin.cost == pytest.approx(float(r @ r), rel=1e-9), variant
            assert _rel(lin.g, g_o) < 1e-9, variant
            assert _rel(damped_step(lin.H, lin.g), damped_step(H_o, g_o)) < 1e-9, variant

    def test_marginalization_is_schur_complement_of_per_row_oracle(
        self, cfg, extrinsics, imu_params
    ):
        window, raw = _noisy_window(extrinsics, imu_params)
        r, J = _per_row_oracle(window, raw, extrinsics, cfg, owners=1)
        J = J[:, : 2 * STATE_DIM]  # these factors touch the first two states only
        H, b = J.T @ J, J.T @ r
        old, new = slice(0, STATE_DIM), slice(STATE_DIM, 2 * STATE_DIM)
        H01 = H[old, new]
        H_oracle = H[new, new] - H01.T @ np.linalg.solve(H[old, old], H01)
        b_oracle = b[new] - H01.T @ np.linalg.solve(H[old, old], b[old])
        x1 = window.states[1]

        prior = marginalize_oldest(window, _linearize(window, cfg), cfg)
        assert prior is window.prior and not prior.regularized
        assert _rel(prior.sqrt_info.T @ prior.sqrt_info, H_oracle) < 1e-9
        assert _rel(prior.sqrt_info.T @ prior.rhs, b_oracle) < 1e-9
        np.testing.assert_array_equal(prior.mean.q, x1.q)


class TestBandedSolve:
    """The damped step solved in band storage equals the dense solve."""

    @staticmethod
    def _block_tridiagonal(n, rng):
        """Dense SPD ``J^T J`` of random factors on one state or on two neighbours."""
        S = STATE_DIM
        J = np.zeros((0, n * S))
        for k in range(n):
            rows = np.zeros((S + 2, n * S))
            rows[:, k * S : (k + 1) * S] = rng.normal(size=(S + 2, S))
            J = np.vstack([J, rows])
        for k in range(n - 1):
            rows = np.zeros((S, n * S))
            rows[:, k * S : (k + 2) * S] = rng.normal(size=(S, 2 * S))
            J = np.vstack([J, rows])
        return J.T @ J

    @staticmethod
    def _blocks(H, n):
        S = STATE_DIM
        blocks = np.array([H[k * S : (k + 1) * S, k * S : (k + 1) * S] for k in range(n)])
        off = np.array([H[k * S : (k + 1) * S, (k + 1) * S : (k + 2) * S] for k in range(n - 1)])
        return blocks, off.reshape(n - 1, S, S)

    @pytest.mark.parametrize("n", [1, 2, 11])
    def test_equals_dense_solve(self, n):
        rng = np.random.default_rng(n)
        H = self._block_tridiagonal(n, rng)
        g = rng.normal(size=n * STATE_DIM)
        damping = rng.uniform(0.0, 2.0, size=n * STATE_DIM) * np.diag(H)
        blocks, off = self._blocks(H, n)
        np.testing.assert_array_equal(Linearization(None, 0.0, blocks, off, g).H, H)
        band = lower_band(blocks, off)
        assert band.shape == (2 * STATE_DIM, n * STATE_DIM)
        undamped = band.copy()
        for d in (damping, np.zeros(n * STATE_DIM)):
            delta = damped_step(band, d, g)
            assert _rel(delta, np.linalg.solve(H + np.diag(d), -g)) < 1e-12
        np.testing.assert_array_equal(band, undamped)

    def test_indefinite_damped_matrix_raises(self):
        n = 3
        H = self._block_tridiagonal(n, np.random.default_rng(0))
        band = lower_band(*self._blocks(H, n))
        damping = np.zeros(n * STATE_DIM)
        damping[5] = -2.0 * H[5, 5]  # a negative diagonal entry
        with pytest.raises(np.linalg.LinAlgError):
            damped_step(band, damping, np.ones(n * STATE_DIM))


class TestFactorCallsPerPass:
    """Each factor function is called once per linearization, and only there.

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
        counting(window_module, "linearize", "linearize")
        # the damped banded solves of optimize_window; the factors solve nothing
        counting(window_module, "solveh_banded", "solve")
        return calls

    def test_optimize_calls_each_factor_once_per_pass(
        self, cfg, extrinsics, imu_params, monkeypatch
    ):
        # one linearization for the start and one per damped candidate
        window, _ = _noisy_window(extrinsics, imu_params)
        calls = self._count(monkeypatch)
        report = optimize_window(window, cfg)
        assert report.iterations >= 2
        assert calls["linearize"] == 1 + calls["solve"] == report.linearizations
        assert [calls[name] for name in self.NAMES] == [calls["linearize"]] * 3

    def test_marginalize_calls_no_factor(self, cfg, extrinsics, imu_params, monkeypatch):
        window, _ = _noisy_window(extrinsics, imu_params)
        report = optimize_window(window, cfg)
        calls = self._count(monkeypatch)
        marginalize_oldest(window, report.linearization, cfg)
        assert calls["linearize"] == 0
        assert [calls[name] for name in self.NAMES] == [0] * 3


class TestMarginalPrior:
    """The prior taken from the optimizer's linearization of the whole window
    equals the one from a fresh linearization of the factors touching the
    oldest state, stored as a window of the first two states."""

    @staticmethod
    def _oldest_factors(window):
        only_first = np.array([1.0, 0.0])
        return SlidingWindow(
            prior=window.prior,
            states=window.states[:2],
            doppler=window.doppler[:2] * only_first[:, None, None],
            heading=window.heading[:2] * only_first[:, None],
            edges=window.edges[:1],
            whitening=window.whitening[:1],
        )

    @pytest.mark.parametrize("max_iterations", [8, 1])
    def test_equals_fresh_two_state_linearization(
        self, cfg, extrinsics, imu_params, max_iterations
    ):
        cfg.window.max_iterations = max_iterations
        window, _ = _noisy_window(extrinsics, imu_params)
        report = optimize_window(window, cfg)
        assert report.iterations == max_iterations or report.converged
        two = self._oldest_factors(window)

        marginalize_oldest(window, report.linearization, cfg)
        marginalize_oldest(two, _linearize(two, cfg), cfg)
        assert _rel(window.prior.sqrt_info, two.prior.sqrt_info) < 1e-12
        assert _rel(window.prior.rhs, two.prior.rhs) < 1e-12
        assert window.prior.regularized == two.prior.regularized

    def test_linearization_at_other_states_is_refused(self, cfg, extrinsics, imu_params):
        window, _ = _noisy_window(extrinsics, imu_params)
        stale = _linearize(window, cfg)
        optimize_window(window, cfg)  # moves every state
        with pytest.raises(ValueError, match="first two states"):
            marginalize_oldest(window, stale, cfg)
        assert len(window) == 4


# the fields of an IMU edge that hold one row per edge in a stack
EDGE_FIELDS = (
    "dt", "delta_q", "delta_v", "ba0", "bg0", "j_rot_bg", "j_vel", "gravity_dt", "cov_rot_vel"
)


class TestMarginalize:
    @staticmethod
    def _scan(x0, extrinsics):
        """Sensor 0 sees x0's velocity along its own three axes."""
        return RadarScan(0.0, 0, 5.0 * np.eye(3), extrinsics[0].rotation.T @ x0.v)

    def _two_state_window(self, cfg, extrinsics, imu_params, with_doppler=False):
        rng = np.random.default_rng(4)
        x0 = State.initial(t=0.0, v=np.array([1.0, 0.2, 0.0]))
        samples = random_imu_segment(rng, duration=0.05)
        pre = preintegrate(samples, np.zeros(3), np.zeros(3), imu_params)
        x1 = predict_state(x0, pre)
        x1.v += 0.05 * rng.standard_normal(3)  # leave some residual
        prior = PriorFactor.from_sigmas(x0, 0.02, 0.5, 0.1, 0.01)
        doppler = None
        if with_doppler:
            block = _pooled_block([self._scan(x0, extrinsics)], extrinsics, np.zeros(3))
            doppler = [block, None]
        return _window(prior, [x0, x1], [pre], doppler)

    def test_matches_dense_batch_oracle(self, cfg, extrinsics, imu_params):
        # oracle: assemble the full dense normal equations independently and
        # apply the textbook partitioned-inverse marginalization formula
        window = self._two_state_window(cfg, extrinsics, imu_params, with_doppler=True)
        x0, x1 = window.states[0], window.states[1]
        pre = window.edges[0]
        prior = window.prior

        rows = []
        jacs = []
        r, J = prior.residual(x0)
        rows.append(r)
        jacs.append((J, np.zeros((STATE_DIM, STATE_DIM))))
        scan, extr = self._scan(x0, extrinsics), extrinsics[0]
        rd, Jd = doppler_residuals(
            x0, _sensor_rays(scan), scan.doppler, extr.rotation, extr.t, np.zeros(3)
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

        marginalize_oldest(window, _linearize(window, cfg), cfg)
        new_prior = window.prior
        H_new = new_prior.sqrt_info.T @ new_prior.sqrt_info
        b_new = new_prior.sqrt_info.T @ new_prior.rhs
        np.testing.assert_allclose(H_new, H_oracle, atol=1e-8)
        np.testing.assert_allclose(b_new, b_oracle, atol=1e-8)
        assert len(window) == 1
        _assert_same_state(window.states[0], x1)
        assert len(window.edges.dt) == len(window.whitening) == 0

    def test_edge_only_marginalization_leaves_no_information(self, cfg, imu_params):
        # x0 has a prior without information and one IMU edge to x1: the
        # edge only ties x1 to x0, so nothing about x1 remains. The Schur
        # complement cancels against bias information of about 5e10 and comes
        # out slightly indefinite, below -marginal_epsilon.
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x0 = State.initial(v=np.array([1.0, 0.2, 0.0]))
            pre = preintegrate(random_imu_segment(rng), np.zeros(3), np.zeros(3), imu_params)
            x1 = predict_state(x0, pre)
            prior = PriorFactor(x0.copy(), np.zeros((STATE_DIM, STATE_DIM)), np.zeros(STATE_DIM))
            window = _window(prior, [x0, x1], [pre])
            info = marginalize_oldest(window, _linearize(window, cfg), cfg)
            assert info.regularized and window.prior.regularized
            _assert_same_state(window.prior.mean, x1)
            assert np.all(np.isfinite(window.prior.rhs))
            H = window.prior.sqrt_info.T @ window.prior.sqrt_info
            assert np.linalg.norm(H) < 1e-6

            # the emptied edge rows take the next edge
            assert len(window.edges.dt) == len(window.whitening) == 0
            pre = preintegrate(random_imu_segment(rng), x1.ba, x1.bg, imu_params)
            x2 = predict_state(x1, pre)
            x2.v = x2.v + 0.01  # leave some IMU residual
            window.append(x2, pre)
            lin = _linearize(window, cfg)
            r_prior = window.prior.residual(window.states[0])[0]
            W = imu_sqrt_information(pre)
            r_imu = W @ imu_residual(x1, x2, pre)[0]
            assert lin.cost == pytest.approx(r_prior @ r_prior + r_imu @ r_imu, rel=1e-12)
            assert lin.H.shape == (2 * STATE_DIM, 2 * STATE_DIM) and lin.first_edge is not None

    def test_factor_count_bounded_over_repeated_marginalization(self, cfg, extrinsics, imu_params):
        rng = np.random.default_rng(5)
        cfg.window.size = 6
        x = State.initial(v=np.array([1.0, 0.0, 0.0]))
        prior = PriorFactor.from_sigmas(x, 0.02, 0.5, 0.1, 0.01)
        window = SlidingWindow(prior)
        appended = []  # every edge appended, oldest first

        def assert_one_row_per_state():
            n = len(window.states.t)
            assert len(window) == len(window.doppler) == len(window.heading) == n
            assert all(len(a) == n for a in (window.states.q, window.states.v))
            assert all(len(a) == n for a in (window.states.ba, window.states.bg))
            # the edge rows are, bit for bit, the last n - 1 edges appended
            held = appended[len(appended) - (n - 1) :]
            assert len(window.whitening) == len(held)
            for name in EDGE_FIELDS:
                rows = getattr(window.edges, name) if held else np.zeros(0)
                np.testing.assert_array_equal(rows, [getattr(e, name) for e in held])
            for W, edge in zip(window.whitening, held):
                np.testing.assert_array_equal(W, imu_sqrt_information(edge))

        with pytest.raises(ValueError, match="IMU edge"):
            window.append(x, preintegrate(random_imu_segment(rng), x.ba, x.bg, imu_params))
        assert len(window) == 0
        window.append(x)
        assert_one_row_per_state()
        with pytest.raises(ValueError, match="IMU edge"):
            window.append(x)
        assert_one_row_per_state()
        counts = []
        for k in range(60):
            samples = random_imu_segment(rng, duration=0.05)
            shifted = ImuData(samples.t + 0.05 * k, samples.accel, samples.gyro)
            pre = preintegrate(shifted, np.zeros(3), np.zeros(3), imu_params)
            window.append(predict_state(window.states[-1], pre), pre)
            appended.append(pre)
            assert_one_row_per_state()
            if len(window) > cfg.window.size:
                marginalize_oldest(window, _linearize(window, cfg), cfg)
                assert_one_row_per_state()
            counts.append(window.factor_count())
        assert len(window) == cfg.window.size
        assert max(counts[10:]) == min(counts[10:])
