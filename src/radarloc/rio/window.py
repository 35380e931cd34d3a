"""Fixed-lag sliding window: Levenberg-Marquardt and marginalization.

The window holds the most recent radar-timestep states with their
measurement blocks. Optimization is Levenberg-Marquardt over the prior,
range-rate, heading and IMU-consistency factors, with Marquardt's diagonal
scaling and Nielsen's gain-ratio damping update started close to
Gauss-Newton. It stops once a step lowers the cost by a negligible fraction
or the scaled gradient is negligible: about three iterations a step on the
benchmark drives. Each state's range-rate block, which pools the inliers
of every sensor, and its heading block enter as one compressed factor each,
with the same cost, gradient and Gauss-Newton matrix as their per-detection
rows; the RANSAC consensus gate has already removed dynamic detections, so
the loss is plain least squares.
Removing the oldest state takes the Schur complement of its block over
every factor touching it, leaving a Gaussian prior on the new oldest state
so cost and factor count stay bounded for arbitrarily long runs.

One pass over the factors serves all three: ``_PackedWindow.linearize``
gives the cost, the Gauss-Newton matrix and the gradient from the same
residuals (a ``Linearization``). ``optimize_window`` linearizes the start
and each damped candidate once; an accepted candidate's matrix and gradient
are the next iteration's. Its last accepted linearization is the one
``marginalize_oldest`` takes the Schur complement from, so no factor is
evaluated twice at the same states.

The packed window is built once per ``optimize_window`` call. It stacks
each factor kind into arrays with a leading factor axis:

* range rate: state index and the QR factor ``sqrt_rows`` zero-padded to
  7x7 (a block of 1 to 6 detections has fewer rows; zero rows add
  nothing). Every raw rate is linear in the IMU-frame velocity and the gyro
  bias, whatever its sensor, so the factor needs no extrinsic or gyro rate;
* heading: state index and the ``HeadingSummary`` fields as arrays;
* IMU: the index of each edge's first state, ``PreintegratedImu.stack`` of
  the edges, and their whitening matrices from one ``imu_sqrt_information``
  call on that stack.

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
from ..geometry import matvec
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
    """Inlier detections of every sensor attached to one state.

    Enters the window as one factor: ``sqrt_rows`` is computed on first
    use, so the raw arrays may still be edited in place before that.
    """

    rays: np.ndarray  # (n, 3) unit rays, IMU frame
    levers: np.ndarray  # (n, 3) ``PooledDetections.levers``
    rates: np.ndarray  # (n,) raw range rates plus omega . lever

    @cached_property
    def sqrt_rows(self) -> np.ndarray:
        return compress_doppler(self.rays, self.levers, self.rates)


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
    doppler: DopplerBlock | None = None
    landmarks: LandmarkBlock | None = None
    preint_to_next: PreintegratedImu | None = None


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

        The prior, one per range-rate block, one per heading block and one
        per IMU edge; independent of how many detections or sensors each
        block holds.
        """
        return 1 + sum(
            (e.doppler is not None) + (e.landmarks is not None) + (e.preint_to_next is not None)
            for e in self.entries
        )


# Levenberg-Marquardt schedule of ``optimize_window`` (Nielsen 1999; Madsen,
# Nielsen & Tingleff 2004). The damping is ``lam * diag(H)``. An accepted step
# with gain ratio rho (actual over predicted cost drop) scales ``lam`` by
# max(1/3, 1 - (2 rho - 1)^3); a rejected one by ``nu``, which then doubles.
# Starting near Gauss-Newton matters: the horizontal accelerometer bias is
# confounded with tilt and has diagonally scaled curvature of about 1e-8, so a
# ``lam`` near that holds steps along it back for several iterations.
DAMPING_INIT = 1e-10
DAMPING_MIN = 1e-12  # keeps ``lam`` off zero, from which no rejection could raise it
MAX_TRIES = 8  # damped solves per iteration before giving up on descent
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
ITERATION_CAP = "iteration_cap"  # ``window.max_iterations`` iterations
DIVERGED = "diverged"  # non-finite cost or normal equations; the states are kept


@dataclass
class Linearization:
    """One pass over the window's factors at ``states``.

    ``cost`` sums the squared whitened residuals; ``H`` is the Gauss-Newton
    matrix ``J^T J`` and ``g`` the gradient ``J^T r`` of the same residuals.
    ``first_edge`` is the ``(J^T J, J^T r)`` block that the IMU edge from the
    first state to the second adds on the second state, or None without
    that edge: marginalization needs it apart from the second state's other
    factors.
    """

    states: State
    cost: float
    H: np.ndarray
    g: np.ndarray
    first_edge: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class OptimizeReport:
    iterations: int
    cost_initial: float
    cost_final: float
    reason: str
    costs: list[float] = field(default_factory=list)
    linearizations: int = 0  # factor passes, rejected candidates included
    # at the returned states, for ``marginalize_oldest``; None when diverged
    linearization: Linearization | None = None

    @property
    def converged(self) -> bool:
        return self.reason in (CONVERGED, NO_DESCENT)

    @property
    def diverged(self) -> bool:
        return self.reason == DIVERGED


class _PackedWindow:
    """The window's factors stacked into arrays, one stack per factor kind.

    Built once per ``optimize_window`` call from the entries' measurement
    blocks and IMU edges. Each linearization calls each factor function
    once for all factors of its kind.
    """

    def __init__(self, window: SlidingWindow, cfg: RunConfig):
        self.prior = window.prior
        entries = window.entries
        self.n = len(entries)
        self.doppler_sigma = cfg.doppler.sigma
        self.bearing_sigma = cfg.landmark.bearing_sigma

        blocks = [(i, e.doppler) for i, e in enumerate(entries) if e.doppler is not None]
        self.dop_state = np.array([i for i, _ in blocks], dtype=int)
        self.dop_rows = np.zeros((len(blocks), 7, 7))
        for k, (_, b) in enumerate(blocks):
            T = b.sqrt_rows  # fewer than 7 rows when the block has fewer detections
            self.dop_rows[k, : len(T)] = T

        headings = [
            (i, e.landmarks.summary)
            for i, e in enumerate(entries)
            if e.landmarks is not None and e.landmarks.summary.count
        ]
        self.head_state = np.array([i for i, _ in headings], dtype=int)
        if headings:
            self.head = HeadingSummary(*(np.array(f) for f in zip(*[h for _, h in headings])))

        edges = [i for i, e in enumerate(entries[:-1]) if e.preint_to_next is not None]
        self.imu_from = np.array(edges, dtype=int)
        if edges:
            self.imu = PreintegratedImu.stack([entries[i].preint_to_next for i in edges])
            self.imu_W = imu_sqrt_information(self.imu)

    def _doppler(self, states: State):
        r, J = doppler_block_residual(states[self.dop_state], self.dop_rows)
        return r / self.doppler_sigma, J / self.doppler_sigma

    def _heading(self, states: State):
        r, J = heading_block_residual(states[self.head_state], self.head)
        return r / self.bearing_sigma, J / self.bearing_sigma

    def _imu(self, states: State):
        i = self.imu_from
        r, J_k, J_k1 = imu_residual(states[i], states[i + 1], self.imu)
        W = self.imu_W
        return matvec(W, r), W @ J_k, W @ J_k1

    def linearize(self, states: State) -> Linearization:
        """Cost, Gauss-Newton matrix and gradient of the window at ``states``.

        Single-state factors add into the diagonal blocks and the IMU edges
        into the block tridiagonal; no dense Jacobian is formed.
        """
        n = self.n
        diag = np.zeros((n, STATE_DIM, STATE_DIM))
        grad = np.zeros((n, STATE_DIM))
        r, J = self.prior.residual(states[0])
        cost = float(r @ r)
        diag[0] += J.T @ J
        grad[0] += J.T @ r
        for index, kind in ((self.dop_state, self._doppler), (self.head_state, self._heading)):
            if len(index):
                r, J = kind(states)
                cost += float(np.sum(r**2))
                Jt = np.swapaxes(J, -1, -2)
                # sum each state's factors: one product with the (n, factors) 0/1 matrix
                to_state = np.eye(n)[index].T
                diag += (to_state @ (Jt @ J).reshape(len(J), -1)).reshape(diag.shape)
                grad += to_state @ matvec(Jt, r)
        H = np.zeros((n, STATE_DIM, n, STATE_DIM))
        first_edge = None
        if len(self.imu_from):
            i = self.imu_from  # distinct edges: each indexed += adds once
            r, J_k, J_k1 = self._imu(states)
            cost += float(np.sum(r**2))
            Jt_k, Jt_k1 = np.swapaxes(J_k, -1, -2), np.swapaxes(J_k1, -1, -2)
            H_k1, g_k1 = Jt_k1 @ J_k1, matvec(Jt_k1, r)
            diag[i] += Jt_k @ J_k
            diag[i + 1] += H_k1
            grad[i] += matvec(Jt_k, r)
            grad[i + 1] += g_k1
            off = Jt_k @ J_k1
            H[i, :, i + 1, :] = off
            H[i + 1, :, i, :] = np.swapaxes(off, -1, -2)
            if i[0] == 0:
                first_edge = (H_k1[0], g_k1[0])
        k = np.arange(n)
        H[k, :, k, :] = diag
        H = H.reshape(n * STATE_DIM, n * STATE_DIM)
        return Linearization(states, cost, H, grad.reshape(-1), first_edge)


def optimize_window(window: SlidingWindow, cfg: RunConfig) -> OptimizeReport:
    """Levenberg-Marquardt over the window; states updated in place.

    One factor pass per iterate: the start is linearized once, and each
    damped candidate once, which gives its cost for the gain ratio and,
    when accepted, the next iteration's normal equations. The damping
    ``lam * diag(H)`` follows the gain ratio of each step (see
    ``DAMPING_INIT``), and the loop stops on the tests named by
    ``CONVERGED`` or after ``window.max_iterations`` iterations. Steps are
    accepted only when the total cost decreases, so the reported cost
    sequence is decreasing. The states are iterated as one stacked
    ``State`` and written back to the entries once at the end; the report
    carries the linearization at those states for ``marginalize_oldest``.
    On a non-finite cost or normal equations the entries keep their input
    states and the report is flagged diverged.
    """
    if not window.entries:
        raise ValueError("cannot optimize an empty window")
    packed = _PackedWindow(window, cfg)
    n = len(window.entries)

    lin = packed.linearize(State.stack(window.states()))
    linearizations = 1
    costs = [lin.cost]
    if not np.isfinite(lin.cost):
        return OptimizeReport(0, lin.cost, lin.cost, DIVERGED, costs, linearizations)

    lam = DAMPING_INIT
    nu = 2.0
    reason = ITERATION_CAP
    iterations = 0

    while iterations < cfg.window.max_iterations:
        iterations += 1
        H, g, cost = lin.H, lin.g, lin.cost
        if not np.all(np.isfinite(H)) or not np.all(np.isfinite(g)):
            return OptimizeReport(iterations, costs[0], np.inf, DIVERGED, costs, linearizations)
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
                candidate = packed.linearize(lin.states.retract(delta.reshape(n, STATE_DIM)))
                linearizations += 1
                # cost drop the linearized model predicts: ||r||^2 - ||r + J delta||^2
                predicted = float(delta @ (lam * diag * delta - g))
                gain = (cost - candidate.cost) / predicted if predicted > 0.0 else -np.inf
            if gain > 0.0:  # false for a non-finite cost too
                break
            lam *= nu
            nu *= 2.0
        else:
            reason = NO_DESCENT
            break
        small_drop = cost - candidate.cost <= RELATIVE_DECREASE * cost
        lin = candidate
        costs.append(lin.cost)
        lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), DAMPING_MIN)
        nu = 2.0
        if small_drop:
            reason = CONVERGED
            break

    for entry, s in zip(window.entries, lin.states.unstack()):
        entry.state = s
    return OptimizeReport(iterations, costs[0], lin.cost, reason, costs, linearizations, lin)


@dataclass
class MarginalizationInfo:
    regularized: bool


def _same_state(a: State, b: State) -> bool:
    return a.t == b.t and all(
        np.array_equal(x, y) for x, y in ((a.q, b.q), (a.v, b.v), (a.ba, b.ba), (a.bg, b.bg))
    )


def marginalize_oldest(
    window: SlidingWindow, linearization: Linearization, cfg: RunConfig
) -> MarginalizationInfo:
    """Absorb the oldest state into a Gaussian prior on its successor.

    ``linearization`` is the window's, taken at its current states: the
    ``OptimizeReport.linearization`` of the last ``optimize_window``. Its
    blocks on the oldest state hold exactly the factors touching that state
    (the prior, the oldest entry's range-rate and heading blocks, and the
    IMU edge to the next state), and ``first_edge`` holds what that edge
    adds on the next state. The Schur complement of the oldest state's
    block over these is the new prior; no factor is evaluated again.
    Singular information is regularized with the configured epsilon and
    flagged. Raises ``ValueError`` when the linearization was taken at
    other states than the window's first two.
    """
    if len(window.entries) < 2:
        raise ValueError("marginalization needs at least two states")
    states = window.states()[:2]
    if not all(_same_state(linearization.states[k], s) for k, s in enumerate(states)):
        raise ValueError("linearization is not at the window's first two states")
    S = STATE_DIM
    H00 = linearization.H[:S, :S]
    H01 = linearization.H[:S, S : 2 * S]
    b0 = linearization.g[:S]
    if linearization.first_edge is None:
        H11, b1 = np.zeros((S, S)), np.zeros(S)
    else:
        H11, b1 = linearization.first_edge

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
