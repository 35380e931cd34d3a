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

``associate`` solves the optimal one-to-one assignment in which a pair
costs its polar distance below the gate and ``2 gate`` otherwise, the same
as leaving the detection unmatched. Only pairs below the gate can lower the
total, so they are the only candidates. They are found with a k-d tree over
the points placed on a cylinder, ``(L cos phi, L sin phi, r)`` with ``L``
the range weight: the chord ``2 L sin(|dphi| / 2)`` between two bearings is
never longer than the wrapped arc ``L wrap(dphi)``, so every pair below the
gate in polar distance is within it there too, and is found once, with no
seam at +-pi. The candidate graph falls apart into many small connected
components (a median of 233 on the ``suburban_street`` steps of seed 1, of
about 1,880 detections, the largest of a median 660 nodes), and each is an
assignment problem of its own. They are solved with
``min_weight_full_bipartite_matching``, one dummy landmark per detection at
cost ``2 gate``, in bundles of consecutive components of about
``_BUNDLE_ROWS`` detections: a call's cost grows with its rows times its
columns, so one call over the whole step would pay for every pair of
components, and one call per component would pay the call's fixed cost
hundreds of times.

The dummy cost is ``2 gate``, not the gate, so that every match saves more
than a gate over leaving its detection unmatched, and the optimum seldom
gives a match up for shorter distances elsewhere. Measured on the benchmark
drives (seed 1), the yaw RMSE reads 0.0241 deg on ``suburban_street`` and
0.0273 deg on ``yard_circle`` with this cost, 0.0252 and 0.0270 deg with a
dummy cost equal to the gate, 0.0244 and 0.0272 deg when the pairs up to
``2 gate`` were candidates at their distance, and 0.0261 and 0.0332 deg
under the unclipped dense optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse.csgraph import connected_components, min_weight_full_bipartite_matching
from scipy.spatial import cKDTree

from ..config import LandmarkParams
from ..geometry import matvec

# One row of ``associate``'s matches.
MATCH_DTYPE = np.dtype([("detection", int), ("landmark", int), ("distance", float)])
# Relative slack on the k-d tree's search radius: its distance rounds
# differently from the polar arithmetic that then decides.
_REACH_SLACK = 1e-9
# Detection rows per matcher call. A ``min_weight_full_bipartite_matching``
# call costs about 100 us plus 1 to 1.5 ns per row x column, almost whatever
# its edges (measured on disjoint blocks, one BLAS thread, x86-64). A bundle
# of R rows has about 2 R columns: its landmarks, about as many as its
# detections, and one dummy per row. So n rows cost about
# n (100 us / R + 2 c R) at c ns per cell, least at R = sqrt(50 us / c):
# 180 to 220. A component larger than this is a bundle of its own.
_BUNDLE_ROWS = 200


class Association(tuple):
    """``associate``'s ``(matches, unmatched)``; ``pairs`` counts the
    candidate pairs, within the gate, that it was solved over, and
    ``solves`` the matcher calls it made."""

    pairs: int
    solves: int

    def __new__(cls, matches: np.ndarray, unmatched: np.ndarray, pairs: int, solves: int):
        self = super().__new__(cls, (matches, unmatched))
        self.pairs, self.solves = pairs, solves
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
    """Every (detection, landmark) pair at a polar distance below ``radius``, once.

    ``polar_d`` and ``polar_l`` are the ``_polar`` of the two point sets.
    The pairs are searched with each point at ``(L cos phi, L sin phi, r)``,
    ``L = range_weight``. There the bearing term is the chord
    ``2 L sin(|dphi| / 2)``, never longer than the wrapped arc ``L wrap(dphi)``
    of the polar distance, so one radius query finds every pair below
    ``radius``, across the +-pi seam too, and finds it once. Of the pairs
    found, those whose polar distance is below ``radius`` are kept. Points
    with no planar bearing or a non-finite coordinate are in no pair.

    Returns ``(detection, landmark, distance)`` arrays.
    """
    phi_d, r_d, bad_d = polar_d
    phi_l, r_l, bad_l = polar_l
    dets, lms = np.flatnonzero(~bad_d), np.flatnonzero(~bad_l)

    def tree(phi, r):
        return cKDTree(np.column_stack([range_weight * np.cos(phi), range_weight * np.sin(phi), r]))

    found = tree(phi_d[dets], r_d[dets]).sparse_distance_matrix(
        tree(phi_l[lms], r_l[lms]), radius * (1.0 + _REACH_SLACK), output_type="ndarray"
    )
    i, j = dets[found["i"]], lms[found["j"]]
    dist = _polar_distance(phi_d[i], r_d[i], phi_l[j], r_l[j], range_weight)
    keep = dist < radius
    return i[keep], j[keep], dist[keep]


def associate(
    detections: np.ndarray,
    landmarks: np.ndarray,
    range_weight: float,
    gate: float,
) -> Association:
    """Optimal one-to-one assignment of the gated polar distance.

    A pair costs its polar distance below ``gate`` and ``2 gate`` otherwise,
    the cost of leaving the detection unmatched; the assignment minimises
    the total over the detections. Only the candidate pairs below the gate
    can lower it, so the matching runs over them plus one dummy landmark per
    detection at cost ``2 gate``, and every match it keeps is below the gate.
    A landmark left over costs nothing, so this optimum keeps the same pairs
    as the one over the dense matrix of the same cost.

    The connected components of the candidate graph are solved apart: in
    bundles of consecutive components of about ``_BUNDLE_ROWS`` detections,
    one ``min_weight_full_bipartite_matching`` call each. A bundle's matrix
    is block diagonal, so its optimum is that of each component. Every weight
    is raised by ``gate`` because the solver drops explicit zeros; a full
    matching holds one edge per detection, so the shift changes no optimum.

    Returns an ``Association`` ``(matches, unmatched)``: ``matches`` is a
    ``MATCH_DTYPE`` array, one row per match in detection order, and
    ``unmatched`` the int array of detection indices with no landmark.
    """
    n_det, n_lm = len(detections), len(landmarks)
    no_match = Association(np.zeros(0, dtype=MATCH_DTYPE), np.arange(n_det), 0, 0)
    if n_det == 0 or n_lm == 0:
        return no_match
    polar_d, polar_l = _polar(detections), _polar(landmarks)
    det, lm, dist = _candidate_pairs(polar_d, polar_l, range_weight, gate)
    if len(det) == 0:
        return no_match
    # detections are nodes 0 .. n_det - 1 of the candidate graph, landmarks
    # the nodes after them
    n_comp, label = connected_components(
        coo_array((np.ones(len(det)), (det, n_det + lm)), shape=(n_det + n_lm,) * 2),
        directed=False,
    )
    # the detections and landmarks with a candidate, ordered by component;
    # a bundle's components then hold consecutive rows and columns
    rows = np.flatnonzero(np.bincount(det, minlength=n_det))
    cols = np.flatnonzero(np.bincount(lm, minlength=n_lm))
    rows = rows[np.argsort(label[rows], kind="stable")]
    cols = cols[np.argsort(label[n_det + cols], kind="stable")]
    per_comp = np.bincount(label[rows], minlength=n_comp)
    bundle = (np.cumsum(per_comp) - per_comp) // _BUNDLE_ROWS
    row_bundle, col_bundle = bundle[label[rows]], bundle[label[n_det + cols]]
    ids = np.unique(row_bundle)
    row_lo = np.searchsorted(row_bundle, ids)
    row_hi = np.searchsorted(row_bundle, ids, side="right")
    col_lo = np.searchsorted(col_bundle, ids)
    col_hi = np.searchsorted(col_bundle, ids, side="right")

    # one CSR over every row: its pairs by column, then its dummy; a bundle
    # is a slice of it, with columns counted from the bundle's first
    row_at, col_at = np.empty(n_det, dtype=int), np.empty(n_lm, dtype=int)
    row_at[rows], col_at[cols] = np.arange(len(rows)), np.arange(len(cols))
    p, q = row_at[det], col_at[lm]
    order = np.argsort(p * len(cols) + q)
    p, q = p[order], q[order]
    bundle_of_row = np.repeat(np.arange(len(ids)), row_hi - row_lo)
    local_row = np.arange(len(rows)) - row_lo[bundle_of_row]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(p, minlength=len(rows)) + 1)])
    pair_slot = np.arange(len(p)) + p  # each earlier row holds one dummy more
    indices = np.empty(indptr[-1], dtype=np.int32)
    weights = np.empty(indptr[-1])
    indices[pair_slot] = q - col_lo[bundle_of_row[p]]
    weights[pair_slot] = dist[order] + gate
    indices[indptr[1:] - 1] = (col_hi - col_lo)[bundle_of_row] + local_row
    weights[indptr[1:] - 1] = 3.0 * gate

    matched_rows, matched_cols = [], []
    for r0, r1, c0, c1 in zip(row_lo, row_hi, col_lo, col_hi):
        e0, e1 = indptr[r0], indptr[r1]
        graph = csr_array(
            (weights[e0:e1], indices[e0:e1], indptr[r0 : r1 + 1] - e0),
            shape=(r1 - r0, c1 - c0 + r1 - r0),
        )
        r, c = min_weight_full_bipartite_matching(graph)
        real = c < c1 - c0
        matched_rows.append(rows[r0 + r[real]])
        matched_cols.append(cols[c0 + c[real]])
    rows, cols = np.concatenate(matched_rows), np.concatenate(matched_cols)
    order = np.argsort(rows)
    rows, cols = rows[order], cols[order]
    (phi_d, r_d, _), (phi_l, r_l, _) = polar_d, polar_l
    dist = _polar_distance(phi_d[rows], r_d[rows], phi_l[cols], r_l[cols], range_weight)
    matches = np.empty(len(rows), dtype=MATCH_DTYPE)
    matches["detection"], matches["landmark"], matches["distance"] = rows, cols, dist
    matched = np.zeros(n_det, dtype=bool)
    matched[rows] = True
    return Association(matches, np.flatnonzero(~matched), len(det), len(ids))


@dataclass
class LandmarkTracker:
    """Tracked landmarks, one row of each array per landmark (see the module docstring)."""

    params: LandmarkParams
    landmarks: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    n_obs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    max_err: np.ndarray = field(default_factory=lambda: np.zeros(0))
    t_last: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # counts of the latest update: candidate pairs within the gate, matcher
    # calls, detections matched to a landmark, and detections that became a
    # new one
    pairs: int = 0
    solves: int = 0
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
        self.pairs, self.solves = association.pairs, association.solves
        self.matched, self.created = len(matches), n_new
        return active
