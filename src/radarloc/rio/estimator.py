"""Radar-inertial odometry estimator.

Per radar timestep: interpolate/preintegrate the IMU buffer, predict the
new state, reject dynamic detections by pooled consensus, attach range
rate and heading factors, optimize the sliding window, dead-reckon the
translation from optimized velocities, and marginalize once the window
exceeds its size. When consensus fails the step degrades to IMU-only
prediction and is flagged in the output; a step whose IMU segment bridges a
gap in the samples is flagged too.

The first step runs the same path. With no predecessor, its prediction is
at rest at identity orientation, with the interpolated gyro rate and no IMU
edge; the RANSAC velocity, when there is one, seeds that state and the
window's prior.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass

import numpy as np

from ..config import RunConfig
from ..geometry import quat_canonical, quat_to_matrix, tilt_matrix
from ..sim.imu import ImuData
from ..sim.io import SensorLog
from ..sim.rig import rig_from_dict
from .factors import PriorFactor
from .landmarks import LandmarkTracker
from .preintegration import imu_segment, lerp, predict_state, preintegrate, segment_span
from .ransac import estimate_velocity, pool_scans
from .state import State
from .window import OptimizeReport, SlidingWindow, marginalize_oldest, optimize_window

log = logging.getLogger(__name__)

# A step whose IMU segment is built across a sample interval longer than this
# many times the buffer's median interval is flagged degraded (``imu_gap``).
IMU_GAP_FACTOR = 5.0
# Samples the IMU buffer keeps however old: through a gap longer than the
# buffer's time span, its median interval stays the sampling interval.
IMU_BUFFER_MIN_SAMPLES = 16


class EstimatorDivergence(RuntimeError):
    """The window optimization produced a non-finite or unbounded state."""


@dataclass
class OdometryOutput:
    """One estimate per processed radar step.

    ``q``, ``v`` and ``p`` are in the IMU frame of the first processed
    step, not the world frame: the estimator starts there at identity
    orientation and zero position. ``v`` is the IMU-frame velocity.
    """

    t: float
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    degraded: bool


@dataclass
class StepDiagnostics:
    detections: int = 0
    dropped_detections: int = 0  # non-finite or zero-range detections left out at pooling
    skipped_imu_samples: int = 0  # non-finite IMU samples refused since the previous step
    inliers: int = 0
    heading_matches: int = 0  # matched bearings behind this step's heading factor
    # tracker after its update: landmarks kept, candidate (inlier, landmark)
    # pairs within the gate, matcher calls, and inliers matched to one or
    # turned into a new one; all 0 when the tracker does not run
    tracked_landmarks: int = 0
    association_pairs: int = 0
    association_solves: int = 0
    matched_landmarks: int = 0
    created_landmarks: int = 0
    # longest interval between the buffer samples the step's IMU segment is
    # built from, the two around each interpolated endpoint included, s
    imu_max_interval: float = 0.0
    ransac_reason: str = ""
    degraded_reason: str = ""  # "imu_gap", else the RANSAC reason; empty when not degraded
    ransac_iterations: int = 0  # RANSAC samples drawn, adaptive, at most ransac.iterations
    optimize_iterations: int = 0
    linearizations: int = 0  # window factor passes, rejected candidates included
    # window.CONVERGED (relative cost decrease or gradient floor), NO_DESCENT
    # (no damped step lowered the cost), ITERATION_CAP or DIVERGED
    optimize_reason: str = ""
    cost_drop: float = 0.0  # window cost before minus after the optimization
    marginalization_regularized: bool = False
    factor_count: int = 0
    accel_bias_shift: float = 0.0  # largest |ba - ba0| over the window's IMU edges, m/s^2
    gyro_bias_shift: float = 0.0  # largest |bg - bg0| over the window's IMU edges, rad/s

    def record_optimization(self, report: OptimizeReport) -> None:
        self.optimize_iterations = report.iterations
        self.linearizations = report.linearizations
        self.optimize_reason = report.reason
        self.cost_drop = report.cost_initial - report.cost_final


class RioEstimator:
    """Single-owner state machine; feed measurements in time order."""

    def __init__(self, cfg: RunConfig, extrinsics):
        self.cfg = cfg
        self.extrinsics = list(extrinsics)
        self.tracker = LandmarkTracker(cfg.landmark)
        self.window: SlidingWindow | None = None
        self.t_oi = np.zeros(3)
        self.step_count = 0
        self.last_diagnostics = StepDiagnostics()
        self._imu_t: list[float] = []
        self._imu_a: list[np.ndarray] = []
        self._imu_w: list[np.ndarray] = []
        self._skipped_imu = 0
        self._last_t: float | None = None

    @property
    def last_imu_time(self) -> float | None:
        """Time of the newest IMU sample fed, or None before the first."""
        return self._imu_t[-1] if self._imu_t else None

    # ------------------------------------------------------------------
    def add_imu(self, t: float, accel: np.ndarray, gyro: np.ndarray) -> None:
        """Buffer one IMU sample.

        A sample with a non-finite time, acceleration or rate is skipped and
        counted in the next step's ``skipped_imu_samples``.
        """
        accel = np.asarray(accel, dtype=float)
        gyro = np.asarray(gyro, dtype=float)
        if not (np.isfinite(t) and np.all(np.isfinite(accel)) and np.all(np.isfinite(gyro))):
            self._skipped_imu += 1
            return
        if self._imu_t and t <= self._imu_t[-1]:
            raise ValueError("IMU timestamps must be strictly increasing")
        self._imu_t.append(float(t))
        self._imu_a.append(accel)
        self._imu_w.append(gyro)

    def _imu_data(self) -> ImuData:
        return ImuData(
            np.asarray(self._imu_t), np.asarray(self._imu_a), np.asarray(self._imu_w)
        )

    def _trim_imu(self, keep_from: float) -> None:
        cut = min(
            bisect.bisect_left(self._imu_t, keep_from) - 1,
            len(self._imu_t) - IMU_BUFFER_MIN_SAMPLES,
        )
        if cut > 0:
            del self._imu_t[:cut]
            del self._imu_a[:cut]
            del self._imu_w[:cut]

    def _gyro_at(self, t: float) -> np.ndarray:
        if not self._imu_t:
            return np.zeros(3)
        i = bisect.bisect_right(self._imu_t, t) - 1
        if i < 0:
            return self._imu_w[0].copy()
        if i + 1 < len(self._imu_t) and self._imu_t[i] < t:
            return lerp(t, self._imu_t[i], self._imu_t[i + 1], self._imu_w[i], self._imu_w[i + 1])
        return self._imu_w[i].copy()

    # ------------------------------------------------------------------
    def _filter_scans(self, scans):
        if self.cfg.ablation.single_sensor:
            return [s for s in scans if s.sensor_id == 0]
        return list(scans)

    def _landmark_block(self, pooled, mask, t, x_pred, t_oi_prov, diag: StepDiagnostics):
        """Heading block ``(bearings, offsets)`` from the inliers (``mask``) of
        ``pooled``, or None.

        The tracker sees the inliers' IMU-frame positions in pooled order;
        its counts go to ``diag``.
        """
        if self.cfg.ablation.disable_heading_constraint:
            return None
        detections = pooled.positions[mask]
        active = self.tracker.update(detections, t, quat_to_matrix(x_pred.q), t_oi_prov)
        diag.tracked_landmarks = len(self.tracker.landmarks)
        diag.association_pairs = self.tracker.pairs
        diag.association_solves = self.tracker.solves
        diag.matched_landmarks = self.tracker.matched
        diag.created_landmarks = self.tracker.created
        if len(active) == 0:
            return None
        landmarks = self.tracker.landmarks[active[:, 1]]
        # bearings are taken in the gravity-levelled frame so the heading
        # factor constrains yaw only
        levelled = detections[active[:, 0]] @ tilt_matrix(x_pred.q).T
        keep = np.hypot(levelled[:, 0], levelled[:, 1]) >= 1e-9
        if not np.any(keep):
            return None  # only degenerate bearings
        levelled = levelled[keep]
        return np.arctan2(levelled[:, 1], levelled[:, 0]), landmarks[keep] - t_oi_prov

    def _check_health(self) -> None:
        newest = self.window.states[-1]
        if not newest.is_finite():
            raise EstimatorDivergence("non-finite state estimate")
        if np.linalg.norm(newest.ba) > self.cfg.window.accel_bias_max:
            raise EstimatorDivergence("accelerometer bias out of bounds")
        if np.linalg.norm(newest.bg) > self.cfg.window.gyro_bias_max:
            raise EstimatorDivergence("gyro bias out of bounds")

    # ------------------------------------------------------------------
    def process_scans(self, t: float, scans) -> OdometryOutput:
        if self._last_t is not None and t <= self._last_t:
            raise ValueError("radar timesteps must be strictly increasing")
        scans = self._filter_scans(scans)
        diag = StepDiagnostics(skipped_imu_samples=self._skipped_imu)
        self._skipped_imu = 0
        self.last_diagnostics = diag
        out = self._step(t, scans, diag)
        diag.factor_count = self.window.factor_count()
        self.step_count += 1
        self._last_t = t
        self._trim_imu(t - 0.2)
        return out

    def _step(self, t: float, scans, diag: StepDiagnostics) -> OdometryOutput:
        last = self.window.states[-1] if self.window is not None else None
        if last is None:
            # no predecessor to predict from: at rest at identity, no IMU edge
            x_pred = State.initial(t=t)
            pre = None
            omega = self._gyro_at(t)
            imu_gap = False
            t_oi_prov = self.t_oi
        else:
            dt = t - self._last_t
            imu = self._imu_data()
            segment = imu_segment(imu, self._last_t, t)
            i0, i1 = segment_span(imu, self._last_t, t)
            diag.imu_max_interval = float(np.max(np.diff(imu.t[i0 : i1 + 1])))
            imu_gap = diag.imu_max_interval > IMU_GAP_FACTOR * float(np.median(np.diff(imu.t)))
            pre = preintegrate(segment, last.ba, last.bg, self.cfg.imu)
            x_pred = predict_state(last, pre, t1=t)
            omega = segment.gyro[-1]
            t_oi_prov = self.t_oi + 0.5 * (last.v + x_pred.v) * dt

        pooled = pool_scans(scans, self.extrinsics, omega)
        diag.detections = len(pooled)
        diag.dropped_detections = pooled.dropped
        rates = pooled.rates - pooled.levers @ x_pred.bg  # at the predicted gyro bias
        seed = [self.cfg.seed, self.step_count]
        result = estimate_velocity(pooled.directions, rates, self.cfg.ransac, seed)
        diag.ransac_reason = result.reason
        diag.ransac_iterations = result.iterations_used
        diag.degraded_reason = "imu_gap" if imu_gap else result.reason
        degraded = result.degraded or imu_gap

        if last is None:
            if result.ok:
                x_pred.v = result.velocity.copy()  # identity initial orientation
            p = self.cfg.prior
            prior = PriorFactor.from_sigmas(
                x_pred, p.sigma_rotation, p.sigma_velocity, p.sigma_accel_bias, p.sigma_gyro_bias
            )
            self.window = SlidingWindow(prior)
        doppler = landmarks = None
        if result.ok:
            mask = result.inlier_mask
            diag.inliers = int(mask.sum())
            doppler = (pooled.directions[mask], pooled.levers[mask], pooled.rates[mask])
            landmarks = self._landmark_block(pooled, mask, t, x_pred, t_oi_prov, diag)
            if landmarks is not None:
                diag.heading_matches = len(landmarks[0])
        self.window.append(x_pred, pre, doppler, landmarks)

        report = optimize_window(self.window, self.cfg)
        diag.record_optimization(report)
        if report.diverged:
            raise EstimatorDivergence("window optimization diverged")
        self._check_health()
        states, edges = self.window.states, self.window.edges
        if len(self.window) > 1:  # edge i was integrated at the biases state i had then
            diag.accel_bias_shift = float(np.linalg.norm(states.ba[:-1] - edges.ba0, axis=1).max())
            diag.gyro_bias_shift = float(np.linalg.norm(states.bg[:-1] - edges.bg0, axis=1).max())

        if last is not None:
            v = states.v[-2:]  # optimized
            self.t_oi = self.t_oi + 0.5 * (v[0] + v[1]) * dt

        if len(self.window) > self.cfg.window.size:
            prior = marginalize_oldest(self.window, report.linearization, self.cfg)
            diag.marginalization_regularized = prior.regularized
        return self._emit(degraded)

    def _emit(self, degraded: bool) -> OdometryOutput:
        state = self.window.states[-1]
        return OdometryOutput(
            t=float(state.t),
            q=quat_canonical(state.q).copy(),
            v=state.v.copy(),
            p=self.t_oi.copy(),
            degraded=degraded,
        )


def run_odometry(sensor_log: SensorLog, cfg: RunConfig, extrinsics=None) -> list[OdometryOutput]:
    """Replay a sensor log through the estimator.

    Outputs are in the IMU frame of the first processed step (see
    ``OdometryOutput``). Scan groups without full IMU coverage (before the
    first or after the last IMU sample) are skipped with a warning.
    """
    if extrinsics is None:
        extrinsics = rig_from_dict(cfg.rig).extrinsics
    if sensor_log.imu is None or len(sensor_log.imu) < 2:
        raise ValueError("sensor log carries no usable IMU stream")
    est = RioEstimator(cfg, extrinsics)
    imu = sensor_log.imu
    fed = 0
    outputs: list[OdometryOutput] = []
    skipped = 0
    for t, scans in sensor_log.scans_by_time():
        # Feed through t, and past it while the newest fed sample is before t:
        # a refused sample at t must not leave the group uncovered. A NaN time
        # is fed too, for add_imu to skip, rather than stall the feed.
        while fed < len(imu):
            last = est.last_imu_time
            if imu.t[fed] > t + 1e-12 and (last is None or last >= t - 1e-9):
                break
            est.add_imu(imu.t[fed], imu.accel[fed], imu.gyro[fed])
            fed += 1
        last = est.last_imu_time
        covered = last is not None and last >= t - 1e-9
        if not covered:
            skipped += 1
            continue
        outputs.append(est.process_scans(t, scans))
    if skipped:
        log.warning("skipped %d scan groups without IMU coverage", skipped)
    return outputs
