import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from scipy.optimize import linear_sum_assignment

import radarloc
import radarloc.rio.landmarks as landmarks_module
from oracles import DegenerateBearingError, polar_distance, polar_distance_matrix
from radarloc.config import LandmarkParams, RunConfig
from radarloc.rio import run_odometry
from radarloc.rio.landmarks import (
    MATCH_DTYPE,
    LandmarkTracker,
    _candidate_pairs,
    _polar,
    associate,
)
from test_rio_pipeline import _fault_log


def at_bearings(bearings, ranges, z=0.0):
    bearings = np.asarray(bearings, dtype=float)
    ranges = np.broadcast_to(ranges, bearings.shape)
    return np.column_stack(
        [ranges * np.cos(bearings), ranges * np.sin(bearings), np.full(bearings.shape, z)]
    )


def reference_associate(detections, landmarks, range_weight, gate):
    """The dense assignment of the distance below the gate and ``2 gate``
    beyond it; its pairs below the gate."""
    cost = polar_distance_matrix(detections, landmarks, range_weight)
    rows, cols = linear_sum_assignment(np.where(cost < gate, cost, 2.0 * gate))
    return [
        (int(r), int(c), float(cost[r, c]))
        for r, c in zip(rows, cols)
        if cost[r, c] < gate
    ]


def assert_matches_reference(dets, lms, range_weight, gate):
    """``associate`` equals ``reference_associate``; returns its matches."""
    result = associate(dets, lms, range_weight, gate)
    matches, unmatched = result
    expected = reference_associate(dets, lms, range_weight, gate)
    assert_array_equal(matches["detection"], [r for r, _, _ in expected])
    assert_array_equal(matches["landmark"], [c for _, c, _ in expected])
    assert_allclose(matches["distance"], [d for _, _, d in expected], rtol=0, atol=1e-12)
    matched = {r for r, _, _ in expected}
    assert_array_equal(unmatched, [i for i in range(len(dets)) if i not in matched])
    cost = polar_distance_matrix(dets, lms, range_weight)
    assert result.pairs == np.count_nonzero(cost < gate)
    return matches


def wall_scene(rng, extent, n_seam, n_clutter, n_seen, n_new):
    """Detections and landmarks like the benchmark drives.

    Four walls of points 0.8 m apart (against a 0.5 m gate) reaching
    ``extent`` metres along, ``n_seam`` points on both sides of the bearing
    seam, ``n_clutter`` clutter points and one point on the z axis in each
    set. The detections re-observe ``n_seen`` landmarks with noise under a
    small pose error, beside ``n_new`` new points.
    """
    along = np.arange(-extent, extent, 0.8)
    walls = np.vstack(
        [
            np.column_stack([along, np.full_like(along, 9.0), np.zeros_like(along)]),
            np.column_stack([along, np.full_like(along, -7.5), np.zeros_like(along)]),
            np.column_stack([np.full_like(along, -18.0), 0.3 * along, np.zeros_like(along)]),
            np.column_stack([np.full_like(along, 21.0), 0.3 * along, np.zeros_like(along)]),
        ]
    )
    seam = at_bearings(
        np.pi - rng.uniform(-1e-3, 1e-3, n_seam), rng.uniform(5.0, 30.0, n_seam)
    )
    clutter = rng.uniform(-30.0, 30.0, size=(n_clutter, 3))
    lms = np.vstack([walls, seam, clutter, [[0.0, 0.0, 1.0]]])
    yaw = 0.01
    R = np.array([[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0, 0, 1]])
    seen = rng.choice(len(lms) - 1, size=n_seen, replace=False)
    reobserved = (lms[seen] - [0.1, 0.05, 0.0]) @ R.T + rng.normal(scale=0.05, size=(n_seen, 3))
    new = rng.uniform(-30.0, 30.0, size=(n_new, 3))
    dets = rng.permutation(np.vstack([reobserved, new, [[0.0, 0.0, -2.0]]]))
    return dets, lms


class TestPolarDistance:
    def test_identical_points(self):
        p = np.array([3.0, 4.0, 1.0])
        assert polar_distance(p, p, 5.0) == 0.0

    def test_pure_bearing(self):
        d = polar_distance(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1.0)
        assert d == pytest.approx(np.pi / 2, abs=1e-12)

    def test_pure_range(self):
        for weight in (0.5, 1.0, 5.0):
            d = polar_distance(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), weight)
            assert d == pytest.approx(1.0, abs=1e-12)

    def test_origin_rejected(self):
        with pytest.raises(DegenerateBearingError):
            polar_distance(np.zeros(3), np.array([1.0, 0.0, 0.0]), 5.0)

    def test_matrix_matches_scalar(self):
        # more rows than one block, and bearings within 1e-6 of +-pi on both
        # sides of the seam (including atan2(-0.0, -x) = -pi)
        rng = np.random.default_rng(0)
        seam = np.pi - np.array([0.0, 1e-12, 1e-9, 1e-6])
        seam_points = np.vstack(
            [at_bearings(seam, 12.0), at_bearings(-seam, 12.5), [[-8.0, -0.0, 0.5]]]
        )
        dets = np.vstack([rng.uniform(-20, 20, size=(35, 3)), seam_points])
        lms = np.vstack([rng.uniform(-20, 20, size=(4, 3)), seam_points])
        M = polar_distance_matrix(dets, lms, 5.0)
        assert M.shape == (len(dets), len(lms))
        for i in range(len(dets)):
            for j in range(len(lms)):
                assert M[i, j] == pytest.approx(polar_distance(dets[i], lms[j], 5.0), abs=1e-12)

    def test_matrix_degenerate_rows_and_columns(self):
        # on the z axis, or with a non-finite coordinate
        dets = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0], [-5.0, 1.0, 1.0], [1.0, np.nan, 0.0]])
        lms = np.array([[0.0, 0.0, -1.0], [4.0, 3.0, 0.0]])
        M = polar_distance_matrix(dets, lms, 5.0)
        assert np.all(np.isinf(M[[1, 3], :])) and np.all(np.isinf(M[:, 0]))
        for i in (0, 2):
            assert M[i, 1] == pytest.approx(polar_distance(dets[i], lms[1], 5.0), abs=1e-12)
        matches, unmatched = associate(dets, lms, 5.0, gate=100.0)
        assert_array_equal(matches["detection"], [0])
        assert_array_equal(matches["landmark"], [1])
        assert_array_equal(unmatched, [1, 2, 3])

    def test_bearing_wrap(self):
        a = np.array([-10.0, 0.01, 0.0])
        b = np.array([-10.0, -0.01, 0.0])
        assert polar_distance(a, b, 5.0) < 0.1


class TestAssociation:
    def test_single_close_pair_matched(self):
        matches, unmatched = associate(
            np.array([[10.0, 0.0, 0.0]]), np.array([[10.1, 0.0, 0.0]]), 5.0, gate=0.5
        )
        assert len(matches) == 1 and len(unmatched) == 0
        assert matches["distance"][0] == pytest.approx(0.1, abs=1e-9)

    def test_optimal_not_greedy(self):
        # hand-built 2x2 cost where greedy row-wise picks 1 + 10 = 11 but the
        # optimal assignment costs 2 + 2 = 4; brute-force oracle over both
        # permutations confirms
        dets = np.array([[10.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
        lms = np.array([[9.0, 0.0, 0.0], [9.0, 0.0, 0.0]])
        cost = polar_distance_matrix(dets, lms, 1.0)
        perms = [cost[0, 0] + cost[1, 1], cost[0, 1] + cost[1, 0]]
        best = min(perms)
        matches, _ = associate(dets, lms, 1.0, gate=10.0)
        total = matches["distance"].sum()
        assert total == pytest.approx(best, abs=1e-12)

    def test_hungarian_beats_greedy_on_classic_case(self):
        # one bearing: detections at 10.0 and 10.32, landmarks at 10.1 and
        # 9.8. The distances are [[0.1, 0.2], [0.22, 0.52]]; the last is
        # beyond the 0.5 gate and costs 2 gate = 1.0, so the costs are
        # [[0.1, 0.2], [0.22, 1.0]], the classic [[1, 2], [2, 10]] shape (no
        # distance can put the 10 inside the gate: it is at most 1 + 2 + 2).
        # Greedy takes the 0.1 and leaves detection 1 unmatched, 1.1 in all;
        # the anti-diagonal costs 0.42.
        dets = at_bearings([0.0, 0.0], [10.0, 10.32])
        lms = at_bearings([0.0, 0.0], [10.1, 9.8])
        matches, unmatched = associate(dets, lms, 5.0, gate=0.5)
        assert_array_equal(matches["detection"], [0, 1])
        assert_array_equal(matches["landmark"], [1, 0])
        assert_allclose(matches["distance"], [0.2, 0.22], rtol=0, atol=1e-12)
        assert len(unmatched) == 0

    def test_dense_assignment_then_gate(self):
        # one bearing: landmarks at 10.0 and 10.85, detections at 9.4 and
        # 10.4. The pair (9.4, 10.0) at 0.6 is beyond the gate and costs
        # 2 gate, as leaving detection 0 unmatched does, so it uses up no
        # landmark: detection 1 takes the nearer landmark 0 at 0.4 rather
        # than landmark 1 at 0.45.
        dets = at_bearings([0.3, 0.3], [9.4, 10.4])
        lms = at_bearings([0.3, 0.3], [10.0, 10.85])
        matches, unmatched = associate(dets, lms, 5.0, gate=0.5)
        assert_array_equal(matches["detection"], [1])
        assert_array_equal(matches["landmark"], [0])
        assert matches["distance"][0] == pytest.approx(0.4, abs=1e-12)
        assert_array_equal(unmatched, [0])

    def test_matches_reference_on_wall_scene(self):
        dets, lms = wall_scene(np.random.default_rng(7), 24.0, 30, 60, 260, 40)
        assert 300 <= len(lms) <= 400
        assert len(assert_matches_reference(dets, lms, 5.0, 0.5)) > 200

    def test_matches_reference_on_large_wall_scene(self):
        dets, lms = wall_scene(np.random.default_rng(11), 96.0, 60, 80, 900, 100)
        assert len(dets) > 1000 and len(lms) > 1000
        assert len(assert_matches_reference(dets, lms, 5.0, 0.5)) > 700

    def test_starts_no_thread(self):
        before = threading.active_count()
        scenario, log = _fault_log(None)
        outputs = run_odometry(log, RunConfig(), extrinsics=scenario.rig.extrinsics)
        assert len(outputs) > 5
        assert threading.active_count() == before

    def test_far_detection_unmatched(self):
        matches, unmatched = associate(
            np.array([[10.0, 0.0, 0.0]]), np.array([[15.0, 0.0, 0.0]]), 5.0, gate=0.5
        )
        assert len(matches) == 0
        assert_array_equal(unmatched, [0])

    def test_empty_inputs(self):
        matches, unmatched = associate(np.zeros((0, 3)), np.zeros((0, 3)), 5.0, 0.5)
        assert len(matches) == 0 and len(unmatched) == 0
        matches, unmatched = associate(np.array([[1.0, 0, 0]]), np.zeros((0, 3)), 5.0, 0.5)
        assert len(matches) == 0 and matches.dtype == MATCH_DTYPE
        assert_array_equal(unmatched, [0])


class TestCandidateEdges:
    """Inputs at the edges of the candidate search and the sparse matching."""

    def test_detection_on_a_landmark(self):
        # distance 0: a zero edge weight would be dropped by the solver
        lms = at_bearings([0.2, 0.25, 1.0], [10.0, 10.0, 7.0])
        dets = np.vstack([lms[[1]], lms[[2]] + [0.05, 0.0, 0.0]])
        matches = assert_matches_reference(dets, lms, 5.0, 0.5)
        assert_array_equal(matches["landmark"], [1, 2])
        assert matches["distance"][0] == 0.0

    def test_pairs_across_the_bearing_seam(self):
        # bearings within 1e-3 of +-pi on both sides, and exactly -pi
        # (atan2(-0.0, -x)) and pi
        eps = np.array([0.0, 1e-9, 1e-4, 1e-3])
        lms = np.vstack([at_bearings(np.pi - eps, 12.0), at_bearings(-np.pi + eps, 20.0)])
        dets = np.vstack(
            [
                at_bearings(-np.pi + eps, 12.02),
                at_bearings(np.pi - eps, 20.02),
                [[-12.0, -0.0, 0.0], [-20.0, 0.0, 0.0]],
            ]
        )
        matches = assert_matches_reference(dets, lms, 5.0, 0.5)
        assert len(matches) == 8
        assert np.all(matches["distance"] < 5.0 * 2e-3 + 0.03)

    def test_seam_scene_matches_reference(self):
        rng = np.random.default_rng(3)
        lms = at_bearings(np.pi - rng.uniform(-0.1, 0.1, 200), rng.uniform(5.0, 30.0, 200))
        dets = lms[:150] + rng.normal(scale=0.1, size=(150, 3))
        assert len(assert_matches_reference(dets, lms, 5.0, 0.5)) > 100

    def test_points_on_the_z_axis(self):
        dets = np.array([[0.0, 0.0, 2.0], [10.0, 0.0, 0.0]])
        lms = np.array([[10.1, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])
        matches = assert_matches_reference(dets, lms, 5.0, 0.5)
        assert_array_equal(matches["detection"], [1])
        assert_array_equal(matches["landmark"], [0])
        result = associate(dets[:1], lms, 5.0, 0.5)
        assert len(result[0]) == 0 and result.pairs == 0
        assert_array_equal(result[1], [0])

    def test_detection_with_no_candidate(self):
        dets = at_bearings([0.0, 0.0, 2.0], [10.0, 10.9, 10.0])
        lms = at_bearings([0.0], [10.0])
        matches = assert_matches_reference(dets, lms, 5.0, 0.5)
        assert_array_equal(matches["detection"], [0])
        result = associate(dets[2:], lms, 5.0, 0.5)
        assert len(result[0]) == 0 and result.pairs == 0
        assert_array_equal(result[1], [0])

    def test_every_pair_a_candidate(self):
        # a gate of 100 reaches every pair, those across the bearing seam too
        dets, lms = wall_scene(np.random.default_rng(5), 8.0, 10, 10, 40, 10)
        result = associate(dets, lms, 5.0, 100.0)
        n_ok_det, n_ok_lm = len(dets) - 1, len(lms) - 1  # one z-axis point in each
        assert result.pairs == n_ok_det * n_ok_lm
        assert_matches_reference(dets, lms, 5.0, 100.0)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("range_weight", [1.0, 5.0, 50.0])
    @pytest.mark.parametrize("gate", [0.5, 100.0])
    def test_candidates_are_the_pairs_below_twice_the_gate(self, seed, range_weight, gate):
        # bearings within 0.2 rad of +-pi on both sides, and exactly 0, pi
        # and -pi (atan2(-0.0, -x)), beside points with no bearing
        rng = np.random.default_rng(seed)
        near_seam = np.pi - rng.uniform(0.0, 0.2, 120)
        lms = np.vstack(
            [
                at_bearings(near_seam * rng.choice([-1.0, 1.0], 120), rng.uniform(5.0, 30.0, 120)),
                [[10.0, 0.0, 0.0], [-12.0, 0.0, 0.5], [-12.0, -0.0, -0.5], [0.0, 0.0, 3.0]],
            ]
        )
        seen = rng.choice(len(lms) - 1, 80, replace=False)
        dets = np.vstack(
            [
                lms[seen] + rng.normal(scale=0.2, size=(80, 3)),
                at_bearings(rng.uniform(-np.pi, np.pi, 20), rng.uniform(5.0, 30.0, 20)),
                [[10.3, 0.0, 0.0], [-11.8, 0.0, 0.0], [-11.8, -0.0, 0.0], [1.0, np.nan, 0.0]],
            ]
        )
        i, j, dist = _candidate_pairs(_polar(dets), _polar(lms), range_weight, 2.0 * gate)
        cost = polar_distance_matrix(dets, lms, range_weight)
        expected = np.argwhere(cost < 2.0 * gate)
        assert 0 < len(expected) < cost.size
        order = np.lexsort((j, i))
        assert_array_equal(np.column_stack([i, j])[order], expected)  # each pair once
        assert_allclose(dist[order], cost[cost < 2.0 * gate], rtol=0, atol=1e-12)

    def test_empty_inputs(self):
        lms = at_bearings([0.0, 1.0], [10.0, 10.0])
        for dets, lm in ((np.zeros((0, 3)), lms), (lms, np.zeros((0, 3))), (np.zeros((0, 3)),) * 2):
            result = associate(dets, lm, 5.0, 0.5)
            matches, unmatched = result
            assert matches.dtype == MATCH_DTYPE and len(matches) == 0 and result.pairs == 0
            assert_array_equal(unmatched, np.arange(len(dets)))


class TestBundledSolve:
    """The components of the candidate graph are solved in bundles."""

    @pytest.mark.parametrize("bundle_rows", [1, 8])
    def test_bundles_match_reference(self, monkeypatch, bundle_rows):
        monkeypatch.setattr(landmarks_module, "_BUNDLE_ROWS", bundle_rows)
        dets, lms = wall_scene(np.random.default_rng(7), 24.0, 30, 60, 260, 40)
        assert len(assert_matches_reference(dets, lms, 5.0, 0.5)) > 200
        # far more components than fit one bundle
        assert associate(dets, lms, 5.0, 0.5).solves > 20

    def test_no_solver_call_without_candidates(self, monkeypatch):
        # associate imports the solver from its module when called
        import scipy.sparse.csgraph as csgraph

        calls = []
        solve = csgraph.min_weight_full_bipartite_matching

        def counting(graph):
            calls.append(graph.shape)
            return solve(graph)

        monkeypatch.setattr(csgraph, "min_weight_full_bipartite_matching", counting)
        lms = at_bearings([0.0, 1.0], [10.0, 10.0])
        no_candidate = (
            (np.zeros((0, 3)), lms),
            (lms, np.zeros((0, 3))),
            (at_bearings([0.0, 1.0], [12.0, 8.0]), lms),  # all beyond the gate
            (np.array([[0.0, 0.0, 2.0]]), lms),  # no bearing
        )
        for dets, lm in no_candidate:
            result = associate(dets, lm, 5.0, 0.5)
            assert result.solves == 0 and len(result[0]) == 0
        assert calls == []
        result = associate(at_bearings([0.0, 1.0], [10.1, 12.0]), lms, 5.0, 0.5)
        assert result.solves == len(calls) == 1 and len(result[0]) == 1


class TestTracker:
    def _params(self, **kw):
        defaults = dict(n_obs_min=3, max_err_max=0.3, staleness=1.0, gate=0.5, range_weight=5.0)
        defaults.update(kw)
        return LandmarkParams(**defaults)

    def test_promotion_requires_strictly_more_matches(self):
        params = self._params()
        tracker = LandmarkTracker(params)
        det = np.array([[10.0, 0.0, 0.0]])
        eye = np.eye(3)
        # creation scan, then n_obs_min matches: still not active
        for k in range(params.n_obs_min + 1):
            active = tracker.update(det, now=0.05 * k, R_oi=eye, t_oi=np.zeros(3))
            if k <= params.n_obs_min:
                assert len(active) == 0
        assert tracker.n_obs[0] == params.n_obs_min
        # one more match exceeds the threshold
        active = tracker.update(det, now=0.05 * (params.n_obs_min + 1), R_oi=eye, t_oi=np.zeros(3))
        assert len(active) == 1
        np.testing.assert_array_equal(active, [[0, 0]])
        assert tracker.n_obs[active[0, 1]] == params.n_obs_min + 1

    def test_high_error_landmark_never_promoted(self):
        params = self._params(max_err_max=0.05, gate=0.5)
        tracker = LandmarkTracker(params)
        eye = np.eye(3)
        rng = np.random.default_rng(1)
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, eye, np.zeros(3))
        for k in range(1, 10):
            noisy = np.array([[10.0 + 0.2 * rng.choice([-1, 1]), 0.0, 0.0]])
            active = tracker.update(noisy, 0.05 * k, eye, np.zeros(3))
            assert len(active) == 0

    def test_stale_landmark_removed(self):
        params = self._params(staleness=0.2)
        tracker = LandmarkTracker(params)
        eye = np.eye(3)
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, eye, np.zeros(3))
        assert len(tracker.landmarks) == 1
        tracker.update(np.zeros((0, 3)), 0.21, eye, np.zeros(3))
        assert len(tracker.landmarks) == 0

    def test_position_frozen_at_first_observation(self):
        params = self._params()
        tracker = LandmarkTracker(params)
        eye = np.eye(3)
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, eye, np.zeros(3))
        first = tracker.landmarks[0].copy()
        tracker.update(np.array([[10.05, 0.0, 0.0]]), 0.05, eye, np.array([0.1, 0.0, 0.0]))
        np.testing.assert_array_equal(tracker.landmarks[0], first)

    def test_new_landmark_in_global_frame(self):
        params = self._params()
        tracker = LandmarkTracker(params)
        yaw = np.pi / 2
        R_oi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t_oi = np.array([5.0, 0.0, 0.0])
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, R_oi, t_oi)
        np.testing.assert_allclose(tracker.landmarks[0], [5.0, 10.0, 0.0], atol=1e-12)

    def test_update_leaves_a_snapshot_as_it_was(self):
        tracker = LandmarkTracker(self._params())
        eye = np.eye(3)
        det = np.array([[10.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        tracker.update(det, 0.0, eye, np.zeros(3))
        snapshot = dataclasses.replace(tracker)
        names = ("landmarks", "n_obs", "max_err", "t_last")
        before = {name: getattr(tracker, name).copy() for name in names}
        tracker.update(det + [0.05, 0.0, 0.0], 0.05, eye, np.zeros(3))
        assert tracker.matched == 2
        for name in names:
            assert_array_equal(getattr(snapshot, name), before[name])

    def test_active_row_indexes_landmarks_after_retirement(self):
        # a stale landmark is retired in the update that promotes a later
        # one, so the promoted landmark moves up a row
        params = self._params(n_obs_min=1, staleness=0.2)
        tracker = LandmarkTracker(params)
        eye = np.eye(3)
        stale, kept = [10.0, 0.0, 0.0], [0.0, 20.0, 0.0]
        tracker.update(np.array([stale]), 0.0, eye, np.zeros(3))
        tracker.update(np.array([kept]), 0.1, eye, np.zeros(3))
        tracker.update(np.array([kept]), 0.15, eye, np.zeros(3))
        np.testing.assert_array_equal(tracker.landmarks, [stale, kept])
        new = [-15.0, 0.0, 0.0]
        active = tracker.update(np.array([new, kept]), 0.25, eye, np.zeros(3))
        np.testing.assert_array_equal(active, [[1, 0]])
        np.testing.assert_array_equal(tracker.landmarks, [kept, new])
        np.testing.assert_array_equal(tracker.n_obs, [2, 0])
        np.testing.assert_array_equal(tracker.landmarks[active[:, 1]], [kept])


@pytest.mark.parametrize("heading", [False, True], ids=["heading_off", "heading_on"])
def test_only_a_run_that_matches_landmarks_loads_the_matchers_libraries(heading):
    # scipy.spatial and scipy.sparse.csgraph cost about 12 MB of memory, which
    # a run with the heading constraint off has no use for
    code = (
        "import sys\n"
        "from radarloc.config import config_from_dict\n"
        "from radarloc.rio import run_odometry\n"
        "from radarloc.sim import Scenario, SensorLog, simulate_mission\n"
        "scenario = Scenario.from_dict({'trajectory': {'kind': 'line', 'speed': 1.0},\n"
        "    'duration': 1.0, 'scene': {'walls': [{'start': [-5, 4], 'end': [15, 4]}]}})\n"
        "data = simulate_mission(scenario, seed=1)\n"
        f"ablation = {{'disable_heading_constraint': {not heading}}}\n"
        "cfg = config_from_dict({'ablation': ablation})\n"
        "run_odometry(SensorLog(data.imu, data.scans), cfg, scenario.rig.extrinsics)\n"
        "print([m for m in ('scipy.spatial', 'scipy.sparse.csgraph') if m in sys.modules])"
    )
    src = str(Path(radarloc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    loaded = "['scipy.spatial', 'scipy.sparse.csgraph']" if heading else "[]"
    assert done.stdout.strip() == loaded
