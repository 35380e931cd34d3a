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

One pass over the factors serves all three: ``linearize`` gives the cost,
the Gauss-Newton matrix and the gradient from the same residuals (a
``Linearization``). ``optimize_window`` linearizes the start and each
damped candidate once; an accepted candidate's matrix and gradient are the
next iteration's. Its last accepted linearization is the one
``marginalize_oldest`` takes the Schur complement from, so no factor is
evaluated twice at the same states.

``SlidingWindow`` stores the window in one form, oldest state first, with
one row per state in each array:

* ``states``: one stacked ``State``;
* ``doppler``: the state's ``compress_doppler`` factor zero-padded to 7x7
  (a block of 1 to 6 detections has fewer rows). Every raw rate is linear
  in the IMU-frame velocity and the gyro bias, whatever its sensor, so the
  factor needs no extrinsic or gyro rate;
* ``heading``: the state's ``compress_landmarks`` row ``[count, yaw_ref,
  mean, spread]``;
* ``edges``: the IMU edges, edge i from state i to state i + 1.

``SlidingWindow.append`` compresses a new state's raw blocks once. A state
without a range-rate or heading factor has a zero row, and a zero row adds
nothing to the cost, the gradient or the Gauss-Newton matrix. So a pass
evaluates each factor kind on all states at once, and skips a kind with no
factor in the window. The IMU edges are stacked with
``PreintegratedImu.stack`` and whitened by one ``imu_sqrt_information``
call once per ``optimize_window`` call.

The iterates are one stacked ``State``; ``retract`` updates all of them at
once and ``optimize_window`` writes the window's states once, at the end. A
pass calls each of ``doppler_block_residual``, ``heading_block_residual``
and ``imu_residual`` at most once, through this module's names: the
benchmark's tracer wraps exactly these names and counts one span per pass
and kind. Single-state factors add into the diagonal blocks of the normal
equations and the IMU edges into the block tridiagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import RunConfig
from ..geometry import matvec
from .factors import (
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
class SlidingWindow:
    """The window's states and factors, oldest first; see the module docstring.

    Start it empty with its prior and add states with ``append``.
    """

    prior: PriorFactor
    states: State | None = None  # stacked; None while empty
    doppler: np.ndarray = field(default_factory=lambda: np.zeros((0, 7, 7)))
    heading: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    edges: list[PreintegratedImu] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.doppler)

    def append(self, state: State, pre=None, doppler=None, landmarks=None) -> None:
        """Add ``state`` as the newest, joined to the current newest by ``pre``.

        ``pre`` is the IMU edge into ``state``: required on a non-empty
        window and refused on an empty one. ``doppler`` is the range-rate
        block ``(rays, levers, rates)`` and ``landmarks`` the heading block
        ``(bearings, offsets)``; each is compressed here once, and None
        leaves a zero row.
        """
        if (pre is None) != (len(self) == 0):
            raise ValueError("every state but the first needs an IMU edge from its predecessor")
        doppler_row = np.zeros((1, 7, 7))
        if doppler is not None:
            T = compress_doppler(*doppler)  # fewer than 7 rows for fewer detections
            doppler_row[0, : len(T)] = T
        heading_row = np.zeros((1, 4))
        if landmarks is not None:
            heading_row[0] = compress_landmarks(*landmarks)
        self.states = State.stack([state]) if self.states is None else self.states.append(state)
        self.doppler = np.concatenate([self.doppler, doppler_row])
        self.heading = np.concatenate([self.heading, heading_row])
        if pre is not None:
            self.edges.append(pre)

    def factor_count(self) -> int:
        """Number of factors, each one whitened residual block.

        The prior, one per range-rate block, one per heading block and one
        per IMU edge; independent of how many detections or sensors each
        block holds. Zero rows are no factor.
        """
        doppler = np.count_nonzero(self.doppler.any(axis=(1, 2)))
        return 1 + int(doppler) + int(np.count_nonzero(self.heading[:, 0])) + len(self.edges)


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
    first state to the second adds on the second state, or None in a
    one-state window: marginalization needs it apart from the second
    state's other factors.
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


def _whitened_edges(window: SlidingWindow):
    """``PreintegratedImu.stack`` of the window's edges and their whitening matrices."""
    imu = PreintegratedImu.stack(window.edges)
    return imu, imu_sqrt_information(imu)


def linearize(window: SlidingWindow, states: State, cfg: RunConfig, imu=None) -> Linearization:
    """Cost, Gauss-Newton matrix and gradient of the window at ``states``.

    ``imu`` is ``_whitened_edges(window)``, made here when not given. Each
    factor kind is evaluated once for all its factors; single-state factors
    add into the diagonal blocks and the IMU edges into the block
    tridiagonal, and no dense Jacobian is formed.
    """
    n = len(window)
    diag = np.zeros((n, STATE_DIM, STATE_DIM))
    grad = np.zeros((n, STATE_DIM))
    r, J = window.prior.residual(states[0])
    cost = float(r @ r)
    diag[0] += J.T @ J
    grad[0] += J.T @ r
    single = []  # a kind with no factor in the window is not evaluated
    if window.doppler.any():
        single.append((doppler_block_residual(states, window.doppler), cfg.doppler.sigma))
    if window.heading[:, 0].any():
        single.append((heading_block_residual(states, window.heading), cfg.landmark.bearing_sigma))
    for (r, J), sigma in single:
        r, J = r / sigma, J / sigma
        cost += float(np.sum(r**2))
        Jt = np.swapaxes(J, -1, -2)
        diag += Jt @ J
        grad += matvec(Jt, r)
    H = np.zeros((n, STATE_DIM, n, STATE_DIM))
    first_edge = None
    if window.edges:
        pre, W = _whitened_edges(window) if imu is None else imu
        r, J_k, J_k1 = imu_residual(states[:-1], states[1:], pre)
        r, J_k, J_k1 = matvec(W, r), W @ J_k, W @ J_k1
        cost += float(np.sum(r**2))
        Jt_k, Jt_k1 = np.swapaxes(J_k, -1, -2), np.swapaxes(J_k1, -1, -2)
        H_k1, g_k1 = Jt_k1 @ J_k1, matvec(Jt_k1, r)
        diag[:-1] += Jt_k @ J_k
        diag[1:] += H_k1
        grad[:-1] += matvec(Jt_k, r)
        grad[1:] += g_k1
        i = np.arange(n - 1)
        off = Jt_k @ J_k1
        H[i, :, i + 1, :] = off
        H[i + 1, :, i, :] = np.swapaxes(off, -1, -2)
        first_edge = (H_k1[0], g_k1[0])
    k = np.arange(n)
    H[k, :, k, :] = diag
    H = H.reshape(n * STATE_DIM, n * STATE_DIM)
    return Linearization(states, cost, H, grad.reshape(-1), first_edge)


def optimize_window(window: SlidingWindow, cfg: RunConfig) -> OptimizeReport:
    """Levenberg-Marquardt over the window; ``window.states`` is replaced.

    One factor pass per iterate: the start is linearized once, and each
    damped candidate once, which gives its cost for the gain ratio and,
    when accepted, the next iteration's normal equations. The damping
    ``lam * diag(H)`` follows the gain ratio of each step (see
    ``DAMPING_INIT``), and the loop stops on the tests named by
    ``CONVERGED`` or after ``window.max_iterations`` iterations. Steps are
    accepted only when the total cost decreases, so the reported cost
    sequence is decreasing. The states are iterated as one stacked
    ``State`` and written to the window once at the end; the report carries
    the linearization at those states for ``marginalize_oldest``. On a
    non-finite cost or normal equations the window keeps its input states
    and the report is flagged diverged.
    """
    n = len(window)
    if not n:
        raise ValueError("cannot optimize an empty window")
    imu = _whitened_edges(window) if window.edges else None

    lin = linearize(window, window.states, cfg, imu)
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
                step = lin.states.retract(delta.reshape(n, STATE_DIM))
                candidate = linearize(window, step, cfg, imu)
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

    window.states = lin.states
    return OptimizeReport(iterations, costs[0], lin.cost, reason, costs, linearizations, lin)


def marginalize_oldest(
    window: SlidingWindow, linearization: Linearization, cfg: RunConfig
) -> PriorFactor:
    """Absorb the oldest state into a Gaussian prior on its successor.

    ``linearization`` is the window's, taken at its current states: the
    ``OptimizeReport.linearization`` of the last ``optimize_window``. Its
    blocks on the oldest state hold exactly the factors touching that state
    (the prior, the oldest state's range-rate and heading factors, and the
    IMU edge to the next state), and ``first_edge`` holds what that edge
    adds on the next state. The Schur complement of the oldest state's
    block over these is the new prior; no factor is evaluated again.
    Singular information is regularized with the configured epsilon and
    flagged. Row 0 of each of the window's arrays is dropped, with the
    first edge. Returns the new prior, which is also the window's; its
    ``regularized`` flag is set when either the oldest state's block or the
    new prior's information needed the epsilon. Raises ``ValueError`` when
    the linearization was taken at other states than the window's first two.
    """
    if len(window) < 2:
        raise ValueError("marginalization needs at least two states")
    ours, theirs = window.states[:2], linearization.states[:2]
    if not all(
        np.array_equal(getattr(ours, name), getattr(theirs, name))
        for name in ("t", "q", "v", "ba", "bg")
    ):
        raise ValueError("linearization is not at the window's first two states")
    S = STATE_DIM
    H00 = linearization.H[:S, :S]
    H01 = linearization.H[:S, S : 2 * S]
    b0 = linearization.g[:S]
    H11, b1 = linearization.first_edge

    regularized = False
    try:
        L = np.linalg.cholesky(H00)
    except np.linalg.LinAlgError:
        regularized = True
        L = np.linalg.cholesky(H00 + cfg.window.marginal_epsilon * np.eye(STATE_DIM))
    X = np.linalg.solve(L.T, np.linalg.solve(L, H01))
    y = np.linalg.solve(L.T, np.linalg.solve(L, b0))
    H_new = H11 - H01.T @ X  # symmetrized by ``from_information``
    b_new = b1 - H01.T @ y

    prior = PriorFactor.from_information(
        window.states[1], H_new, b_new, cfg.window.marginal_epsilon
    )
    prior.regularized |= regularized
    window.prior = prior
    window.states = window.states[1:]
    window.doppler = window.doppler[1:]
    window.heading = window.heading[1:]
    del window.edges[0]
    return prior
