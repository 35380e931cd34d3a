"""Persistent radar landmark tracking for the heading constraint.

Detections are matched to tracked landmarks with a weighted polar
distance (bearing difference scaled by a range-equivalent weight, plus
range difference) solved as a one-to-one assignment. Landmarks promote
into the constraint set only after enough consistent matches and retire
when stale.

``LandmarkTracker`` keeps one row per landmark in parallel arrays: the
``(n, 3)`` global positions ``landmarks``, fixed at the dead-reckoned
position of the first observation, beside the re-match count ``n_obs``, the
worst association distance ``max_err`` and the time last seen ``t_last``.
Retiring drops rows and keeps the order of the rest; new landmarks are
appended. ``update`` hands the estimator (detection index, row) pairs that
index the arrays as they stand after it.

The assignment is solved over the dense cost matrix and gated only
afterwards, on purpose. The dense optimum also weighs near-miss pairs
beyond the gate, which keeps matches consistent along evenly spaced wall
points (0.8 m apart against a 0.5 m gate). Gating first was measured on
the benchmark's ``yard_circle`` drive: one assignment per connected
component of the gated candidate graph raised the yaw RMSE from 0.033 to
0.084 deg, and a sparse minimum-weight matching over a 3 m candidate
radius still read 0.037 deg. The dense matrix is instead built cheaply,
in row blocks (``polar_distance_matrix``). From ``SPLIT_ENTRIES`` entries
up its rows are split between the calling thread and one worker thread,
and the matrix comes out bitwise the same as on one thread. The assignment
itself (``linear_sum_assignment``) stays on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..config import LandmarkParams
from ..geometry import matvec

# Rows of the cost matrix built per block: a block's temporaries (about
# 32 x 2,100 doubles on the suburban drive) stay in cache.
BLOCK_ROWS = 32
# Matrices of at least this many entries are built on two threads; below
# it (the ``yard_circle`` drive holds about 0.4M) the thread hand-off costs
# more CPU than it saves wall time.
SPLIT_ENTRIES = 1_000_000
# CPUs this process may run on; one CPU keeps every matrix on the caller.
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# The worker of polar_distance_matrix and the process that started it: a
# forked child holds no copy of the thread, so it starts its own.
_WORKER: tuple[int, ThreadPoolExecutor] | None = None
_WORKER_LOCK = threading.Lock()
# Finite stand-in for the cost of a degenerate pair in the assignment; a
# gate is at most 100 (config.PARAMETER_RANGES), so these pairs never pass.
DEGENERATE_COST = 1e9
# One row of ``associate``'s matches.
MATCH_DTYPE = np.dtype([("detection", int), ("landmark", int), ("distance", float)])


def _polar(points: np.ndarray):
    """Bearings, ranges and the mask of points with no usable bearing."""
    planar = np.hypot(points[:, 0], points[:, 1])
    degenerate = ~(planar >= 1e-9) | ~np.isfinite(points).all(axis=1)
    return np.arctan2(points[:, 1], points[:, 0]), np.linalg.norm(points, axis=1), degenerate


def _fill_rows(cost, phi_d, r_d, phi_l, r_l, range_weight, start, stop):
    """Fill ``cost[start:stop]`` block by block with in-place ufuncs."""
    dphi_buf = np.empty((min(stop - start, BLOCK_ROWS), len(phi_l)))
    other_buf = np.empty_like(dphi_buf)
    for first in range(start, stop, BLOCK_ROWS):
        rows = slice(first, min(first + BLOCK_ROWS, stop))
        out = cost[rows]
        dphi = dphi_buf[: len(out)]
        other = other_buf[: len(out)]
        np.subtract(phi_d[rows], phi_l, out=dphi)
        np.abs(dphi, out=dphi)
        np.subtract(2.0 * np.pi, dphi, out=other)
        np.minimum(dphi, other, out=dphi)
        np.multiply(dphi, range_weight, out=dphi)
        np.square(dphi, out=dphi)
        np.subtract(r_d[rows], r_l, out=out)
        np.square(out, out=out)
        np.add(out, dphi, out=out)
        np.sqrt(out, out=out)


def _worker() -> ThreadPoolExecutor:
    """The one worker thread of ``polar_distance_matrix``, started on first use."""
    global _WORKER
    with _WORKER_LOCK:
        if _WORKER is None or _WORKER[0] != os.getpid():
            _WORKER = os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="polar-rows")
        return _WORKER[1]


def polar_distance_matrix(
    detections: np.ndarray,
    landmarks: np.ndarray,
    range_weight: float,
    *,
    degenerate: float = np.inf,
) -> np.ndarray:
    """Pairwise polar distances ``sqrt(L^2 dbearing^2 + drange^2)``, (n_det, n_lm).

    Pairs with a degenerate point (no planar bearing, or a non-finite
    coordinate) get ``degenerate``. The bearing term uses
    ``|wrap(dphi)| = min(|dphi|, 2 pi - |dphi|)``, exact for bearings in
    (-pi, pi]; the matrix is built in blocks of ``BLOCK_ROWS`` rows with
    in-place ufuncs, so no full-size temporary is made.

    From ``SPLIT_ENTRIES`` entries up, on a process allowed two or more
    CPUs, the calling thread fills the first half of the rows and one
    worker thread the second (NumPy releases the GIL inside the ufuncs).
    Each entry goes through the same ufuncs either way, so the matrix is
    bitwise the same. Smaller matrices never start the worker. The worker
    is done with the matrix before this returns or raises.
    """
    n_det, n_lm = len(detections), len(landmarks)
    if n_det == 0 or n_lm == 0:
        return np.zeros((n_det, n_lm))
    phi_d, r_d, bad_d = _polar(detections)
    phi_l, r_l, bad_l = _polar(landmarks)
    cost = np.empty((n_det, n_lm))
    args = (cost, phi_d[:, None], r_d[:, None], phi_l, r_l, range_weight)
    if n_det * n_lm >= SPLIT_ENTRIES and CPUS >= 2:
        half = (n_det + 1) // 2
        future = _worker().submit(_fill_rows, *args, half, n_det)
        try:
            _fill_rows(*args, 0, half)
        finally:
            future.result()
    else:
        _fill_rows(*args, 0, n_det)
    cost[bad_d, :] = degenerate
    cost[:, bad_l] = degenerate
    return cost


def associate(
    detections: np.ndarray,
    landmarks: np.ndarray,
    range_weight: float,
    gate: float,
):
    """Optimal one-to-one assignment gated by the polar distance.

    The assignment minimises the total distance over all pairs, gated or
    not; pairs at ``gate`` or beyond are then dropped.

    Returns ``(matches, unmatched)``: ``matches`` is a ``MATCH_DTYPE``
    array, one row per match in detection order, and ``unmatched`` the int
    array of detection indices with no valid landmark.
    """
    n_det = len(detections)
    if n_det == 0 or len(landmarks) == 0:
        return np.zeros(0, dtype=MATCH_DTYPE), np.arange(n_det)
    cost = polar_distance_matrix(
        detections, landmarks, range_weight, degenerate=DEGENERATE_COST
    )
    rows, cols = linear_sum_assignment(cost)
    dist = cost[rows, cols]
    keep = dist < gate
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    matches = np.empty(len(rows), dtype=MATCH_DTYPE)
    matches["detection"], matches["landmark"], matches["distance"] = rows, cols, dist
    matched = np.zeros(n_det, dtype=bool)
    matched[rows] = True
    return matches, np.flatnonzero(~matched)


@dataclass
class LandmarkTracker:
    """Tracked landmarks, one row of each array per landmark (see the module docstring)."""

    params: LandmarkParams
    landmarks: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    n_obs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    max_err: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_last: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # counts of the latest update: detections matched to a landmark, and
    # detections that became a new one
    matched: int = 0
    created: int = 0

    def update(
        self,
        detections_imu: np.ndarray,
        now: float,
        R_oi: np.ndarray,
        t_oi: np.ndarray,
    ) -> np.ndarray:
        """One tracking step: match, promote, retire, initialize.

        ``detections_imu`` are IMU-frame positions of the static (inlier)
        detections; stale landmarks still take part in this step's
        assignment. Returns the matches eligible to constrain heading as an
        ``(n_active, 2)`` int array of (detection index, row after the
        update): landmarks re-observed more than ``n_obs_min`` times whose
        worst association distance stays below ``max_err_max``.
        """
        p = self.params
        projected = (self.landmarks - t_oi) @ R_oi
        matches, unmatched = associate(detections_imu, projected, p.range_weight, p.gate)

        det, row = matches["detection"], matches["landmark"]
        self.n_obs[row] += 1
        self.max_err[row] = np.maximum(self.max_err[row], matches["distance"])
        self.t_last[row] = now
        promoted = (self.n_obs[row] > p.n_obs_min) & (self.max_err[row] < p.max_err_max)

        # a matched landmark was seen now, so it is kept: its new row is its
        # index among the kept rows
        keep = now - self.t_last <= p.staleness
        kept_row = np.cumsum(keep) - 1
        active = np.column_stack([det[promoted], kept_row[row[promoted]]])

        n_new = len(unmatched)
        self.landmarks = np.concatenate(
            [self.landmarks[keep], matvec(R_oi, detections_imu[unmatched]) + t_oi]
        )
        self.n_obs = np.concatenate([self.n_obs[keep], np.zeros(n_new, dtype=int)])
        self.max_err = np.concatenate([self.max_err[keep], np.zeros(n_new)])
        self.t_last = np.concatenate([self.t_last[keep], np.full(n_new, now)])
        self.matched, self.created = len(matches), n_new
        return active
