"""Persistent radar landmark tracking for the heading constraint.

Detections are matched to tracked landmarks with a weighted polar
distance (bearing difference scaled by a range-equivalent weight, plus
range difference) solved as a one-to-one assignment. Landmarks promote
into the constraint set only after enough consistent matches and retire
when stale.

The assignment is solved over the dense cost matrix and gated only
afterwards, on purpose. The dense optimum also weighs near-miss pairs
beyond the gate, which keeps matches consistent along evenly spaced wall
points (0.8 m apart against a 0.5 m gate). Gating first was measured on
the benchmark's ``yard_circle`` drive: one assignment per connected
component of the gated candidate graph raised the yaw RMSE from 0.033 to
0.084 deg, and a sparse minimum-weight matching over a 3 m candidate
radius still read 0.037 deg. The dense matrix is instead built cheaply,
in row blocks (``polar_distance_matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from ..config import LandmarkParams
from ..geometry import bearing, wrap_angle

# Rows of the cost matrix built per block: a block's temporaries (about
# 128 x 2,400 doubles on the suburban drive) stay in cache.
BLOCK_ROWS = 128
# Finite stand-in for the cost of a degenerate pair in the assignment; a
# gate is at most 100 (config.PARAMETER_RANGES), so these pairs never pass.
DEGENERATE_COST = 1e9


def polar_distance(p_a: np.ndarray, p_b: np.ndarray, range_weight: float) -> float:
    """sqrt(L^2 * dbearing^2 + drange^2) between two IMU-frame points."""
    dphi = wrap_angle(bearing(p_a) - bearing(p_b))
    drange = np.linalg.norm(p_a) - np.linalg.norm(p_b)
    return float(np.hypot(range_weight * dphi, drange))


def _polar(points: np.ndarray):
    """Bearings, ranges and the mask of points with no usable bearing."""
    planar = np.hypot(points[:, 0], points[:, 1])
    degenerate = ~(planar >= 1e-9) | ~np.isfinite(points).all(axis=1)
    return np.arctan2(points[:, 1], points[:, 0]), np.linalg.norm(points, axis=1), degenerate


def polar_distance_matrix(
    detections: np.ndarray,
    landmarks: np.ndarray,
    range_weight: float,
    *,
    degenerate: float = np.inf,
) -> np.ndarray:
    """Pairwise polar distances, (n_det, n_lm).

    Pairs with a degenerate point (no planar bearing, or a non-finite
    coordinate) get ``degenerate``. The bearing term uses
    ``|wrap(dphi)| = min(|dphi|, 2 pi - |dphi|)``, exact for bearings in
    (-pi, pi]; the matrix is built in blocks of ``BLOCK_ROWS`` rows with
    in-place ufuncs, so no full-size temporary is made.
    """
    n_det, n_lm = len(detections), len(landmarks)
    if n_det == 0 or n_lm == 0:
        return np.zeros((n_det, n_lm))
    phi_d, r_d, bad_d = _polar(detections)
    phi_l, r_l, bad_l = _polar(landmarks)
    phi_d, r_d = phi_d[:, None], r_d[:, None]
    cost = np.empty((n_det, n_lm))
    dphi_buf = np.empty((min(n_det, BLOCK_ROWS), n_lm))
    other_buf = np.empty_like(dphi_buf)
    for start in range(0, n_det, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
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

    Returns ``(matches, unmatched)`` where matches are
    ``(detection_index, landmark_index, distance)`` triples and unmatched
    lists detection indices with no valid landmark.
    """
    n_det = len(detections)
    if n_det == 0 or len(landmarks) == 0:
        return [], list(range(n_det))
    cost = polar_distance_matrix(
        detections, landmarks, range_weight, degenerate=DEGENERATE_COST
    )
    rows, cols = linear_sum_assignment(cost)
    dist = cost[rows, cols]
    keep = dist < gate
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    matched = np.zeros(n_det, dtype=bool)
    matched[rows] = True
    matches = list(zip(rows.tolist(), cols.tolist(), dist.tolist()))
    return matches, np.flatnonzero(~matched).tolist()


@dataclass
class Landmark:
    """A tracked static radar target.

    ``position`` is fixed at the dead-reckoned global position of the
    first observation; ``n_obs`` counts successful re-matches.
    """

    position: np.ndarray
    created: float
    n_obs: int = 0
    max_err: float = 0.0
    t_last: float = 0.0


@dataclass
class ActiveMatch:
    detection_index: int
    landmark: Landmark


@dataclass
class LandmarkTracker:
    params: LandmarkParams
    landmarks: list[Landmark] = field(default_factory=list)

    def project(self, R_io: np.ndarray, t_oi: np.ndarray) -> np.ndarray:
        """Landmark positions in the current IMU frame, (n, 3)."""
        if not self.landmarks:
            return np.zeros((0, 3))
        positions = np.array([lm.position for lm in self.landmarks])
        return (positions - t_oi) @ R_io.T

    def update(
        self,
        detections_imu: np.ndarray,
        now: float,
        R_oi: np.ndarray,
        t_oi: np.ndarray,
    ) -> list[ActiveMatch]:
        """One tracking step: match, promote, retire, initialize.

        ``detections_imu`` are IMU-frame positions of the static (inlier)
        detections. Returns the matches eligible to constrain heading this
        step: landmarks re-observed more than ``n_obs_min`` times whose
        worst association distance stays below ``max_err_max``.
        """
        p = self.params
        projected = self.project(R_oi.T, t_oi)
        matches, unmatched = associate(detections_imu, projected, p.range_weight, p.gate)

        active: list[ActiveMatch] = []
        for det_idx, lm_idx, dist in matches:
            lm = self.landmarks[lm_idx]
            lm.n_obs += 1
            lm.max_err = max(lm.max_err, dist)
            lm.t_last = now
            if lm.n_obs > p.n_obs_min and lm.max_err < p.max_err_max:
                active.append(ActiveMatch(det_idx, lm))

        self.landmarks = [lm for lm in self.landmarks if now - lm.t_last <= p.staleness]

        for det_idx in unmatched:
            position = R_oi @ detections_imu[det_idx] + t_oi
            self.landmarks.append(Landmark(position=position, created=now, t_last=now))
        return active
