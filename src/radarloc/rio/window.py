"""Fixed-lag sliding window: Levenberg-Marquardt and marginalization.

The window holds the most recent radar-timestep states with their
measurement blocks. Optimization is Levenberg-Marquardt over the prior,
range-rate, heading and IMU-consistency factors, with Marquardt's diagonal
scaling and Nielsen's gain-ratio damping update started close to
Gauss-Newton. It stops once a step lowers the cost by a negligible fraction
or the scaled gradient is negligible: about three linearizations a step on
the benchmark drives. Each sensor's range-rate block and each state's
heading block enter as one compressed factor with the same cost, gradient
and Gauss-Newton matrix as its per-detection rows; the RANSAC consensus
gate has already removed dynamic detections, so the loss is plain least
squares. Removing the oldest state takes the Schur complement of its block
over every factor touching it, leaving a Gaussian prior on the new oldest
state so cost and factor count stay bounded for arbitrarily long runs.

Cost, linearization and marginalization share one packed window
(``_PackedWindow``), built once per ``optimize_window`` or
``marginalize_oldest`` call. It stacks each factor kind into arrays with a
leading factor axis:

* range rate: state index, the QR factor ``sqrt_rows`` zero-padded to 4x4
  (a block of 1 to 3 detections has fewer rows; zero rows add nothing),
  the sensor's extrinsic rotation and lever arm, and the gyro rate;
* heading: state index and the ``HeadingSummary`` fields as arrays;
* IMU: the index of each edge's first state, ``PreintegratedImu.stack`` of
  the edges and their whitening matrices.

The iterates are one stacked ``State``; ``retract`` updates all of them at
once and the entries get their states back once, at the end. A pass calls
each of ``doppler_block_residual``, ``heading_block_residual`` and
``imu_residual`` once for all factors of its kind, through this module's
names: the benchmark's tracer wraps exactly these names and counts one span
per pass and kind. Single-state factors add into the diagonal blocks of the
normal equations and the IMU edges into the block tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..config import RunConfig
from ..geometry import RigidTransform, matvec
from .factors import (
    HeadingSummary,
    PriorFactor,
    compress_doppler,
    compress_landmarks,
    doppler_block_residual,
    heading_block_residual,
    imu_residual,
    imu_sqrt_information,
)
from .preintegration import PreintegratedImu
from .state import STATE_DIM, State


@dataclass
class DopplerBlock:
    """Inlier detections of one sensor attached to one state.

    Enters the window as one factor: ``sqrt_rows`` is computed on first
    use, so the raw arrays may still be edited in place before that.
    """

    sensor_id: int
    rays: np.ndarray  # (n, 3) unit rays, sensor frame
    doppler: np.ndarray  # (n,)
    omega: np.ndarray  # interpolated gyro at the scan time

    @cached_property
    def sqrt_rows(self) -> np.ndarray:
        return compress_doppler(self.rays, self.doppler)


@dataclass
class LandmarkBlock:
    """Heading constraints attached to one state.

    Enters the window as one factor built from ``summary``, computed on
    first use.
    """

    bearings: np.ndarray  # (n,) measured detection bearings, gravity-levelled frame
    offsets: np.ndarray  # (n, 3) landmark position minus dead-reckoned position

    @cached_property
    def summary(self) -> HeadingSummary:
        return compress_landmarks(self.bearings, self.offsets)


@dataclass
class WindowEntry:
    state: State
    t_oi: np.ndarray
    doppler: list[DopplerBlock] = field(default_factory=list)
    landmarks: LandmarkBlock | None = None
    preint_to_next: PreintegratedImu | None = None
    imu_sqrt_info: np.ndarray | None = None
    degraded: bool = False


@dataclass
class SlidingWindow:
    prior: PriorFactor
    entries: list[WindowEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def states(self) -> list[State]:
        return [e.state for e in self.entries]

    def factor_count(self) -> int:
        """Number of factors, each one whitened residual block.

        The prior, one per sensor range-rate block, one per heading block
        and one per IMU edge; independent of how many detections each
        block holds.
        """
        n = 1  # prior
        for e in self.entries:
            n += len(e.doppler)
            if e.landmarks is not None:
                n += 1
            if e.preint_to_next is not None:
                n += 1
        return n


# Levenberg-Marquardt schedule of ``optimize_window`` (Nielsen 1999; Madsen,
# Nielsen & Tingleff 2004). The damping is ``lam * diag(H)``. An accepted step
# with gain ratio rho (actual over predicted cost drop) scales ``lam`` by
# max(1/3, 1 - (2 rho - 1)^3); a rejected one by ``nu``, which then doubles.
# Starting near Gauss-Newton matters: the horizontal accelerometer bias is
# confounded with tilt and has diagonally scaled curvature of about 1e-8, so a
# ``lam`` near that holds steps along it back for several iterations.
DAMPING_INIT = 1e-10
DAMPING_MIN = 1e-12  # keeps ``lam`` off zero, from which no rejection could raise it
MAX_TRIES = 8  # damped solves per linearization before giving up on descent
# Stop tests (Madsen, Nielsen & Tingleff 2004) on a cost that sums
# whitened squared residuals. The relative decrease ends a converging run; the
# gradient floor, in whitened residual units, ends one that starts at a zero
# residual, where no relative test can fire.
RELATIVE_DECREASE = 1e-8
GRADIENT_FLOOR = 1e-10

# Why ``optimize_window`` stopped.
# CONVERGED: an accepted step lowered the cost by less than RELATIVE_DECREASE
# of it, or every scaled gradient entry |g_i| / sqrt(H_ii) is below
# GRADIENT_FLOOR.
CONVERGED = "converged"
NO_DESCENT = "no_descent"  # MAX_TRIES damped steps all failed to lower the cost
ITERATION_CAP = "iteration_cap"  # ``window.max_iterations`` linearizations
DIVERGED = "diverged"  # non-finite cost or normal equations; the states are kept


@dataclass
class OptimizeReport:
    iterations: int
    cost_initial: float
    cost_final: float
    converged: bool  # reason is CONVERGED or NO_DESCENT
    diverged: bool
    step_norm: float
    reason: str
    costs: list[float] = field(default_factory=list)


class _PackedWindow:
    """The window's factors stacked into arrays, one stack per factor kind.

    Built once per ``optimize_window`` or ``marginalize_oldest`` call from
    the measurement blocks of the first ``owners`` entries and the IMU edges
    among the first ``n_states`` states. Each cost or linearization pass
    calls each factor function once for all factors of its kind.
    """

    def __init__(
        self,
        window: SlidingWindow,
        extrinsics: list[RigidTransform],
        cfg: RunConfig,
        n_states: int | None = None,
        owners: int | None = None,
    ):
        self.prior = window.prior
        self.n = len(window.entries) if n_states is None else n_states
        entries = window.entries[: self.n if owners is None else owners]
        self.doppler_sigma = cfg.doppler.sigma
        self.bearing_sigma = cfg.landmark.bearing_sigma

        blocks = [(i, b) for i, e in enumerate(entries) for b in e.doppler]
        self.dop_state = np.array([i for i, _ in blocks], dtype=int)
        self.dop_rows = np.zeros((len(blocks), 4, 4))
        for k, (_, b) in enumerate(blocks):
            T = b.sqrt_rows  # fewer than 4 rows when the block has fewer detections
            self.dop_rows[k, : len(T)] = T
        sensor = np.array([b.sensor_id for _, b in blocks], dtype=int)
        self.dop_R = np.array([e.rotation for e in extrinsics])[sensor]
        self.dop_t = np.array([e.t for e in extrinsics])[sensor]
        self.dop_omega = np.array([b.omega for _, b in blocks]).reshape(-1, 3)

        headings = [
            (i, e.landmarks.summary)
            for i, e in enumerate(entries)
            if e.landmarks is not None and e.landmarks.summary.count
        ]
        self.head_state = np.array([i for i, _ in headings], dtype=int)
        if headings:
            self.head = HeadingSummary(*(np.array(f) for f in zip(*[h for _, h in headings])))

        edges = [
            i for i, e in enumerate(entries) if i + 1 < self.n and e.preint_to_next is not None
        ]
        for i in edges:
            if entries[i].imu_sqrt_info is None:
                entries[i].imu_sqrt_info = imu_sqrt_information(entries[i].preint_to_next)
        self.imu_from = np.array(edges, dtype=int)
        if edges:
            self.imu = PreintegratedImu.stack([entries[i].preint_to_next for i in edges])
            self.imu_W = np.stack([entries[i].imu_sqrt_info for i in edges])

    def _doppler(self, states: State, with_jacobian: bool):
        r, J = doppler_block_residual(
            states[self.dop_state],
            self.dop_rows,
            self.dop_R,
            self.dop_t,
            self.dop_omega,
            with_jacobian=with_jacobian,
        )
        return r / self.doppler_sigma, None if J is None else J / self.doppler_sigma

    def _heading(self, states: State, with_jacobian: bool):
        r, J = heading_block_residual(states[self.head_state], self.head, with_jacobian)
        return r / self.bearing_sigma, None if J is None else J / self.bearing_sigma

    def _imu(self, states: State, with_jacobian: bool):
        i = self.imu_from
        r, J_k, J_k1 = imu_residual(states[i], states[i + 1], self.imu, with_jacobian)
        W = self.imu_W
        if not with_jacobian:
            return matvec(W, r), None, None
        return matvec(W, r), W @ J_k, W @ J_k1

    def cost(self, states: State) -> float:
        r, _ = self.prior.residual(states[0], with_jacobian=False)
        total = float(r @ r)
        if len(self.dop_state):
            total += float(np.sum(self._doppler(states, False)[0] ** 2))
        if len(self.head_state):
            total += float(np.sum(self._heading(states, False)[0] ** 2))
        if len(self.imu_from):
            total += float(np.sum(self._imu(states, False)[0] ** 2))
        return total

    def linearize(self, states: State):
        """Gauss-Newton matrix ``J^T J`` and gradient ``J^T r`` of the window.

        Single-state factors add into the diagonal blocks and the IMU edges
        into the block tridiagonal; no dense Jacobian is formed.
        """
        n = self.n
        diag = np.zeros((n, STATE_DIM, STATE_DIM))
        grad = np.zeros((n, STATE_DIM))
        r, J = self.prior.residual(states[0])
        diag[0] += J.T @ J
        grad[0] += J.T @ r
        for index, kind in ((self.dop_state, self._doppler), (self.head_state, self._heading)):
            if len(index):
                r, J = kind(states, True)
                Jt = np.swapaxes(J, -1, -2)
                # sum each state's factors: one product with the (n, factors) 0/1 matrix
                to_state = np.eye(n)[index].T
                diag += (to_state @ (Jt @ J).reshape(len(J), -1)).reshape(diag.shape)
                grad += to_state @ matvec(Jt, r)
        H = np.zeros((n, STATE_DIM, n, STATE_DIM))
        if len(self.imu_from):
            i = self.imu_from  # distinct edges: each indexed += adds once
            r, J_k, J_k1 = self._imu(states, True)
            Jt_k, Jt_k1 = np.swapaxes(J_k, -1, -2), np.swapaxes(J_k1, -1, -2)
            diag[i] += Jt_k @ J_k
            diag[i + 1] += Jt_k1 @ J_k1
            grad[i] += matvec(Jt_k, r)
            grad[i + 1] += matvec(Jt_k1, r)
            off = Jt_k @ J_k1
            H[i, :, i + 1, :] = off
            H[i + 1, :, i, :] = np.swapaxes(off, -1, -2)
        k = np.arange(n)
        H[k, :, k, :] = diag
        return H.reshape(n * STATE_DIM, n * STATE_DIM), grad.reshape(-1)


def optimize_window(
    window: SlidingWindow, extrinsics: list[RigidTransform], cfg: RunConfig
) -> OptimizeReport:
    """Levenberg-Marquardt over the window; states updated in place.

    The damping ``lam * diag(H)`` follows the gain ratio of each step (see
    ``DAMPING_INIT``), and the loop stops on the tests named by ``CONVERGED``
    or at ``window.max_iterations`` linearizations. Steps are accepted only
    when the total cost decreases, so the reported cost sequence is
    decreasing. The states are iterated as one stacked ``State`` and written
    back to the entries once at the end. On a non-finite cost or normal
    equations the entries keep their input states and the report is flagged
    diverged.
    """
    if not window.entries:
        raise ValueError("cannot optimize an empty window")
    packed = _PackedWindow(window, extrinsics, cfg)
    states = State.stack(window.states())
    n = len(window.entries)

    cost = packed.cost(states)
    costs = [cost]
    if not np.isfinite(cost):
        return OptimizeReport(0, cost, cost, False, True, np.inf, DIVERGED, costs)

    lam = DAMPING_INIT
    nu = 2.0
    step_norm = np.inf
    reason = ITERATION_CAP
    iterations = 0

    while iterations < cfg.window.max_iterations:
        iterations += 1
        H, g = packed.linearize(states)
        if not np.all(np.isfinite(H)) or not np.all(np.isfinite(g)):
            return OptimizeReport(
                iterations, costs[0], np.inf, False, True, np.inf, DIVERGED, costs
            )
        diag = np.clip(np.diag(H), 1e-12, None)
        if np.max(np.abs(g) / np.sqrt(diag)) <= GRADIENT_FLOOR:
            reason = CONVERGED
            break
        for _ in range(MAX_TRIES):
            try:
                delta = np.linalg.solve(H + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                gain = -np.inf
            else:
                candidate = states.retract(delta.reshape(n, STATE_DIM))
                new_cost = packed.cost(candidate)
                # cost drop the linearized model predicts: ||r||^2 - ||r + J delta||^2
                predicted = float(delta @ (lam * diag * delta - g))
                gain = (cost - new_cost) / predicted if predicted > 0.0 else -np.inf
            if gain > 0.0:  # false for a non-finite cost too
                break
            lam *= nu
            nu *= 2.0
        else:
            reason = NO_DESCENT
            break
        small_drop = cost - new_cost <= RELATIVE_DECREASE * cost
        states, cost = candidate, new_cost
        costs.append(cost)
        step_norm = float(np.linalg.norm(delta))
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), DAMPING_MIN)
        nu = 2.0
        if small_drop:
            reason = CONVERGED
            break

    for entry, s in zip(window.entries, states.unstack()):
        entry.state = s
    converged = reason in (CONVERGED, NO_DESCENT)
    return OptimizeReport(iterations, costs[0], cost, converged, False, step_norm, reason, costs)


@dataclass
class MarginalizationInfo:
    regularized: bool


def marginalize_oldest(
    window: SlidingWindow, extrinsics: list[RigidTransform], cfg: RunConfig
) -> MarginalizationInfo:
    """Absorb the oldest state into a Gaussian prior on its successor.

    Linearizes every factor touching the oldest state (prior, its own
    measurement blocks, and the IMU edge to the next state) at the current
    estimates, then takes the Schur complement of the old state's block.
    Singular information is regularized with the configured epsilon and
    flagged.
    """
    if len(window.entries) < 2:
        raise ValueError("marginalization needs at least two states")
    packed = _PackedWindow(window, extrinsics, cfg, n_states=2, owners=1)
    states = window.states()[:2]
    H, b = packed.linearize(State.stack(states))
    H00 = H[:STATE_DIM, :STATE_DIM]
    H01 = H[:STATE_DIM, STATE_DIM:]
    H11 = H[STATE_DIM:, STATE_DIM:]
    b0 = b[:STATE_DIM]
    b1 = b[STATE_DIM:]

    regularized = False
    try:
        L = np.linalg.cholesky(H00)
    except np.linalg.LinAlgError:
        regularized = True
        L = np.linalg.cholesky(H00 + cfg.window.marginal_epsilon * np.eye(STATE_DIM))
    X = np.linalg.solve(L.T, np.linalg.solve(L, H01))
    y = np.linalg.solve(L.T, np.linalg.solve(L, b0))
    H_new = H11 - H01.T @ X
    b_new = b1 - H01.T @ y

    new_prior = PriorFactor.from_information(
        states[1], 0.5 * (H_new + H_new.T), b_new, cfg.window.marginal_epsilon
    )
    window.prior = new_prior
    window.entries.pop(0)
    return MarginalizationInfo(regularized=regularized or new_prior.regularized)
