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
  mean, spread]``.

The IMU edges are stacked alike, one row per edge, edge i from state i to
state i + 1:

* ``edges``: one stacked ``PreintegratedImu``;
* ``whitening``: the edge's ``imu_sqrt_information``.

``SlidingWindow.append`` compresses a new state's raw blocks and whitens
its edge once; no row changes after that, and ``marginalize_oldest`` drops
row 0 of every array. A state without a range-rate or heading factor has a
zero row, and a zero row adds nothing to the cost, the gradient or the
Gauss-Newton matrix. So a pass evaluates each factor kind on all states at
once, and skips a kind with no factor in the window.

The iterates are one stacked ``State``; ``retract`` updates all of them at
once and ``optimize_window`` writes the window's states once, at the end. A
pass calls each of ``doppler_block_residual``, ``heading_block_residual``
and ``imu_residual`` at most once, through this module's names: the
benchmark's tracer wraps exactly these names and counts one span per pass
and kind. Single-state factors add into the diagonal blocks of the normal
equations and the IMU edges into the block tridiagonal.

The Gauss-Newton matrix is block tridiagonal, so a ``Linearization`` holds
only its n diagonal and n - 1 super-diagonal 12x12 blocks, never the dense
``(12 n)^2`` matrix. Each iteration copies them once into LAPACK's lower
band storage (bandwidth 23, ``lower_band``), and each damped try solves
that band by banded Cholesky (``damped_step``; Golub & Van Loan, *Matrix
Computations*, section 4.3), in time linear in n. A damped matrix that is
not positive definite fails the try like a singular one.
``Linearization.H`` builds the dense matrix from the blocks for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from ..config import RunConfig
from ..geometry import matvec
from .factors import (
    IMU_RESIDUAL_DIM,
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
    edges: PreintegratedImu | None = None  # stacked; None before the first edge
    whitening: np.ndarray = field(
        default_factory=lambda: np.zeros((0, IMU_RESIDUAL_DIM, IMU_RESIDUAL_DIM))
    )

    def __len__(self) -> int:
        return len(self.doppler)

    def append(self, state: State, pre=None, doppler=None, landmarks=None) -> None:
        """Add ``state`` as the newest, joined to the current newest by ``pre``.

        ``pre`` is the IMU edge into ``state``: required on a non-empty
        window and refused on an empty one. ``doppler`` is the range-rate
        block ``(rays, levers, rates)`` and ``landmarks`` the heading block
        ``(bearings, offsets)``; each is compressed here once, and None
        leaves a zero row. ``pre`` is whitened here once.
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
        self.states = state[None] if self.states is None else self.states.append(state)
        self.doppler = np.concatenate([self.doppler, doppler_row])
        self.heading = np.concatenate([self.heading, heading_row])
        if pre is not None:
            self.edges = pre[None] if self.edges is None else self.edges.append(pre)
            self.whitening = np.concatenate([self.whitening, [imu_sqrt_information(pre)]])

    def factor_count(self) -> int:
        """Number of factors, each one whitened residual block.

        The prior, one per range-rate block, one per heading block and one
        per IMU edge; independent of how many detections or sensors each
        block holds. Zero rows are no factor.
        """
        doppler = np.count_nonzero(self.doppler.any(axis=(1, 2)))
        return 1 + int(doppler) + int(np.count_nonzero(self.heading[:, 0])) + len(self.whitening)


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

    ``cost`` sums the squared whitened residuals and ``g`` is the gradient
    ``J^T r`` of the same residuals, one 12-row per state. The Gauss-Newton
    matrix ``J^T J`` is block tridiagonal: ``blocks[i]`` is its diagonal
    block on state i, (n, 12, 12), and ``off[i]`` the block coupling state i
    (rows) to state i + 1 (columns), (n - 1, 12, 12). ``H`` is the dense
    matrix, built from them on each access for tests. ``first_edge`` is the
    ``(J^T J, J^T r)`` block that the IMU edge from the first state to the
    second adds on the second state, or None in a one-state window:
    marginalization needs it apart from the second state's other factors.
    """

    states: State
    cost: float
    blocks: np.ndarray
    off: np.ndarray
    g: np.ndarray
    first_edge: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def H(self) -> np.ndarray:
        n, S = len(self.blocks), STATE_DIM
        H = np.zeros((n, S, n, S))
        k, i = np.arange(n), np.arange(n - 1)
        H[k, :, k, :] = self.blocks
        H[i, :, i + 1, :] = self.off
        H[i + 1, :, i, :] = np.swapaxes(self.off, -1, -2)
        return H.reshape(n * S, n * S)


# LAPACK lower band storage of a symmetric matrix with 12x12 blocks on three
# block diagonals: band[r, j] = H[j + r, j] for r < 2 * 12. In block column k,
# rows j + r run down the diagonal block into the sub-diagonal block, the
# transpose of ``off[k]``; ``lower_band`` stacks the two (and a zero block for
# the last column's overrun) and gathers entry (b + r, b) of that stack.
_BAND_ROWS = 2 * STATE_DIM
_BAND_COLUMN = np.arange(STATE_DIM)  # b
_BAND_ROW = np.arange(_BAND_ROWS)[:, None] + _BAND_COLUMN  # b + r, (24, 12)


def lower_band(blocks: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Lower band storage (24, 12 n) of the block-tridiagonal symmetric matrix.

    ``blocks`` (n, 12, 12) are its diagonal blocks and ``off`` (n - 1, 12, 12)
    its super-diagonal ones, as in ``Linearization``. Row 0 is the diagonal.
    """
    n, S = len(blocks), STATE_DIM
    column = np.zeros((n, 3 * S, S))
    column[:, :S] = blocks
    column[:-1, S : 2 * S] = np.swapaxes(off, -1, -2)
    band = column[:, _BAND_ROW, _BAND_COLUMN]  # (n, 24, 12)
    return band.transpose(1, 0, 2).reshape(_BAND_ROWS, n * S)


def damped_step(band: np.ndarray, damping: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve ``(H + diag(damping)) delta = -g`` with ``H`` in lower band storage.

    ``band`` is left as it is. Raises ``np.linalg.LinAlgError`` when the
    damped matrix is not positive definite.
    """
    damped = band.copy()
    damped[0] += damping
    return solveh_banded(damped, -g, lower=True, check_finite=False)


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


def linearize(window: SlidingWindow, states: State, cfg: RunConfig) -> Linearization:
    """Cost, Gauss-Newton blocks and gradient of the window at ``states``.

    Each factor kind is evaluated once for all its factors; single-state
    factors add into the diagonal blocks and the IMU edges into the
    diagonal and super-diagonal blocks, and no dense Jacobian or matrix is
    formed.
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
    off = np.zeros((0, STATE_DIM, STATE_DIM))
    first_edge = None
    if n > 1:
        W = window.whitening
        r, J_k, J_k1 = imu_residual(states[:-1], states[1:], window.edges)
        r, J_k, J_k1 = matvec(W, r), W @ J_k, W @ J_k1
        cost += float(np.sum(r**2))
        Jt_k, Jt_k1 = np.swapaxes(J_k, -1, -2), np.swapaxes(J_k1, -1, -2)
        H_k1, g_k1 = Jt_k1 @ J_k1, matvec(Jt_k1, r)
        diag[:-1] += Jt_k @ J_k
        diag[1:] += H_k1
        grad[:-1] += matvec(Jt_k, r)
        grad[1:] += g_k1
        off = Jt_k @ J_k1
        first_edge = (H_k1[0], g_k1[0])
    return Linearization(states, cost, diag, off, grad.reshape(-1), first_edge)


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

    lin = linearize(window, window.states, cfg)
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
        band, g, cost = lower_band(lin.blocks, lin.off), lin.g, lin.cost
        if not np.all(np.isfinite(band)) or not np.all(np.isfinite(g)):
            return OptimizeReport(iterations, costs[0], np.inf, DIVERGED, costs, linearizations)
        diag = np.clip(band[0], 1e-12, None)
        if np.max(np.abs(g) / np.sqrt(diag)) <= GRADIENT_FLOOR:
            reason = CONVERGED
            break
        for _ in range(MAX_TRIES):
            try:
                delta = damped_step(band, lam * diag, g)
            except np.linalg.LinAlgError:
                gain = -np.inf
            else:
                step = lin.states.retract(delta.reshape(n, STATE_DIM))
                candidate = linearize(window, step, cfg)
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
    flagged. Row 0 of each of the window's arrays is dropped, the first
    edge's included. Returns the new prior, which is also the window's; its
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
    H00, H01 = linearization.blocks[0], linearization.off[0]
    b0 = linearization.g[:STATE_DIM]
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
    window.edges = window.edges[1:]
    window.whitening = window.whitening[1:]
    return prior
