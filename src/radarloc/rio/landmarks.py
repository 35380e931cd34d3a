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

``associate`` solves the optimal assignment of the cost clipped at twice
the gate, ``min(distance, 2 gate)``, and gates it only afterwards. The
clipped problem is sparse: only pairs within ``2 gate`` can lower its total,
so they are found with a k-d tree and matched with
``min_weight_full_bipartite_matching``, one dummy landmark per detection
standing for every pair at the clip. The radius is twice the gate, not the
gate, so that a near miss below it still uses up its landmark: along evenly
spaced wall points (0.8 m apart against a 0.5 m gate) a detection that
missed its landmark then does not take the neighbour's. Measured on the
benchmark drives (seed 1), the yaw RMSE reads 0.0244 deg on
``suburban_street`` and 0.0272 deg on ``yard_circle`` with this radius,
0.0252 and 0.0270 deg with a radius and dummy cost equal to the gate, and
0.0261 and 0.0332 deg under the unclipped dense optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.spatial import cKDTree

from ..config import LandmarkParams
from ..geometry import matvec

# One row of ``associate``'s matches.
MATCH_DTYPE = np.dtype([("detection", int), ("landmark", int), ("distance", float)])
# Relative slack on the k-d tree's search radius: its distance rounds
# differently from the polar arithmetic that then decides.
_REACH_SLACK = 1e-9


class Association(tuple):
    """``associate``'s ``(matches, unmatched)``; ``pairs`` counts the
    candidate pairs, within twice the gate, that it was solved over."""

    pairs: int

    def __new__(cls, matches: np.ndarray, unmatched: np.ndarray, pairs: int):
        self = super().__new__(cls, (matches, unmatched))
        self.pairs = pairs
        return self


def _polar(points: np.ndarray):
    """Bearings, ranges and the mask of points with no usable bearing."""
    planar = np.hypot(points[:, 0], points[:, 1])
    degenerate = ~(planar >= 1e-9) | ~np.isfinite(points).all(axis=1)
    return np.arctan2(points[:, 1], points[:, 0]), np.linalg.norm(points, axis=1), degenerate


def _polar_distance(phi_a, r_a, phi_b, r_b, range_weight):
    """``sqrt(L^2 wrap(dphi)^2 + drange^2)`` elementwise, for bearings in [-pi, pi]."""
    dphi = np.abs(phi_a - phi_b)
    dphi = range_weight * np.minimum(dphi, 2.0 * np.pi - dphi)
    return np.sqrt(np.square(r_a - r_b) + np.square(dphi))


def _candidate_pairs(polar_d, polar_l, range_weight: float, radius: float):
    """Every (detection, landmark) pair at a polar distance below ``radius``.

    ``polar_d`` and ``polar_l`` are the ``_polar`` of the two point sets.
    The pairs are searched in the ``(range_weight * bearing, range)`` plane,
    where the Euclidean distance is the polar one away from the bearing
    seam; landmarks within ``radius`` of it get a copy shifted by
    ``-+2 pi range_weight`` to the other side. A pair found both ways is kept
    once, on the side whose bearing difference is the wrapped one. Points
    with no planar bearing or a non-finite coordinate are in no pair.

    Returns ``(detection, landmark, distance)`` arrays.
    """
    phi_d, r_d, bad_d = polar_d
    phi_l, r_l, bad_l = polar_l
    reach = radius * (1.0 + _REACH_SLACK)
    dets, lms = np.flatnonzero(~bad_d), np.flatnonzero(~bad_l)
    seam = lms[(range_weight * (np.pi - np.abs(phi_l[lms])) < reach) & (phi_l[lms] != 0.0)]
    lm_rows = np.concatenate([lms, seam])
    lm_phi = np.concatenate([phi_l[lms], phi_l[seam] - np.copysign(2.0 * np.pi, phi_l[seam])])
    tree_d = cKDTree(np.column_stack([range_weight * phi_d[dets], r_d[dets]]))
    tree_l = cKDTree(np.column_stack([range_weight * lm_phi, r_l[lm_rows]]))
    found = tree_d.sparse_distance_matrix(tree_l, reach, output_type="ndarray")
    i, k = dets[found["i"]], found["j"]
    j = lm_rows[k]
    dist = _polar_distance(phi_d[i], r_d[i], phi_l[j], r_l[j], range_weight)
    wrapped = np.abs(phi_d[i] - phi_l[j]) > np.pi
    keep = (dist < radius) & (wrapped == (k >= len(lms)))
    return i[keep], j[keep], dist[keep]


def associate(
    detections: np.ndarray,
    landmarks: np.ndarray,
    range_weight: float,
    gate: float,
) -> Association:
    """Optimal one-to-one assignment of the clipped polar distance, then gated.

    The assignment minimises the total of ``min(distance, 2 gate)`` over
    the detections; pairs at ``gate`` or beyond are then dropped. The
    matching runs over the candidate pairs within ``2 gate`` plus one dummy
    landmark per detection at cost ``2 gate``. Any pair at the clip costs
    the same as the dummy, and a landmark left over costs nothing, so this
    optimum keeps the same pairs below the clip as the one over the dense
    clipped matrix. Every weight is raised by ``2 gate`` because the solver
    drops explicit zeros; a full matching holds one edge per detection, so
    the shift changes no optimum.

    Returns an ``Association`` ``(matches, unmatched)``: ``matches`` is a
    ``MATCH_DTYPE`` array, one row per match in detection order, and
    ``unmatched`` the int array of detection indices with no valid landmark.
    """
    n_det, n_lm = len(detections), len(landmarks)
    if n_det == 0 or n_lm == 0:
        return Association(np.zeros(0, dtype=MATCH_DTYPE), np.arange(n_det), 0)
    radius = 2.0 * gate
    polar_d, polar_l = _polar(detections), _polar(landmarks)
    det, lm, dist = _candidate_pairs(polar_d, polar_l, range_weight, radius)
    rows = cols = np.zeros(0, dtype=int)
    if len(det):
        dummies = np.arange(n_det)
        graph = coo_array(
            (
                np.concatenate([dist + radius, np.full(n_det, 2.0 * radius)]),
                (np.concatenate([det, dummies]), np.concatenate([lm, n_lm + dummies])),
            ),
            shape=(n_det, n_lm + n_det),
        ).tocsr()
        rows, cols = min_weight_full_bipartite_matching(graph)
        real = cols < n_lm
        rows, cols = rows[real], cols[real]
    (phi_d, r_d, _), (phi_l, r_l, _) = polar_d, polar_l
    dist = _polar_distance(phi_d[rows], r_d[rows], phi_l[cols], r_l[cols], range_weight)
    keep = dist < gate
    rows, cols, dist = rows[keep], cols[keep], dist[keep]
    matches = np.empty(len(rows), dtype=MATCH_DTYPE)
    matches["detection"], matches["landmark"], matches["distance"] = rows, cols, dist
    matched = np.zeros(n_det, dtype=bool)
    matched[rows] = True
    return Association(matches, np.flatnonzero(~matched), len(det))


@dataclass
class LandmarkTracker:
    """Tracked landmarks, one row of each array per landmark (see the module docstring)."""

    params: LandmarkParams
    landmarks: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    n_obs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    max_err: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_last: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # counts of the latest update: candidate pairs within twice the gate,
    # detections matched to a landmark, and detections that became a new one
    pairs: int = 0
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
        association = associate(detections_imu, projected, p.range_weight, p.gate)
        matches, unmatched = association

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
        self.pairs, self.matched, self.created = association.pairs, len(matches), n_new
        return active
