import numpy as np
import pytest

from scipy.optimize import linear_sum_assignment

from radarloc.config import LandmarkParams
from radarloc.geometry import DegenerateBearingError, wrap_angle
from radarloc.rio.landmarks import (
    BLOCK_ROWS,
    LandmarkTracker,
    associate,
    polar_distance,
    polar_distance_matrix,
)


def at_bearings(bearings, ranges, z=0.0):
    bearings = np.asarray(bearings, dtype=float)
    ranges = np.broadcast_to(ranges, bearings.shape)
    return np.column_stack(
        [ranges * np.cos(bearings), ranges * np.sin(bearings), np.full(bearings.shape, z)]
    )


def reference_associate(detections, landmarks, range_weight, gate):
    """The assignment over the wrap_angle / np.hypot cost matrix, gated afterwards."""
    phi_d = np.arctan2(detections[:, 1], detections[:, 0])
    phi_l = np.arctan2(landmarks[:, 1], landmarks[:, 0])
    r_d = np.linalg.norm(detections, axis=1)
    r_l = np.linalg.norm(landmarks, axis=1)
    dphi = wrap_angle(phi_d[:, None] - phi_l[None, :])
    cost = np.hypot(range_weight * dphi, r_d[:, None] - r_l[None, :])
    cost[np.hypot(detections[:, 0], detections[:, 1]) < 1e-9, :] = np.inf
    cost[:, np.hypot(landmarks[:, 0], landmarks[:, 1]) < 1e-9] = np.inf
    rows, cols = linear_sum_assignment(np.where(np.isfinite(cost), cost, 1e9))
    return [
        (int(r), int(c), float(cost[r, c]))
        for r, c in zip(rows, cols)
        if np.isfinite(cost[r, c]) and cost[r, c] < gate
    ]


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
        dets = np.vstack([rng.uniform(-20, 20, size=(BLOCK_ROWS + 3, 3)), seam_points])
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
        assert [(r, c) for r, c, _ in matches] == [(0, 1)] and unmatched == [1, 2, 3]

    def test_bearing_wrap(self):
        a = np.array([-10.0, 0.01, 0.0])
        b = np.array([-10.0, -0.01, 0.0])
        assert polar_distance(a, b, 5.0) < 0.1


class TestAssociation:
    def test_single_close_pair_matched(self):
        matches, unmatched = associate(
            np.array([[10.0, 0.0, 0.0]]), np.array([[10.1, 0.0, 0.0]]), 5.0, gate=0.5
        )
        assert len(matches) == 1 and not unmatched
        assert matches[0][2] == pytest.approx(0.1, abs=1e-9)

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
        total = sum(m[2] for m in matches)
        assert total == pytest.approx(best, abs=1e-12)

    def test_hungarian_beats_greedy_on_classic_case(self):
        # costs [[1, 2], [2, 10]]: optimal picks the anti-diagonal
        from scipy.optimize import linear_sum_assignment

        cost = np.array([[1.0, 2.0], [2.0, 10.0]])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].sum() == pytest.approx(4.0)

    def test_dense_assignment_then_gate(self):
        # one bearing: landmarks at 10.0 and 10.85, detections at 9.4 and
        # 10.4. The dense optimum pairs (9.4, 10.0) at 0.6 and (10.4, 10.85)
        # at 0.45; the gate then drops the first. Gating first would leave
        # detection 1 as the only candidate and pair it with landmark 0 at 0.4.
        dets = at_bearings([0.3, 0.3], [9.4, 10.4])
        lms = at_bearings([0.3, 0.3], [10.0, 10.85])
        matches, unmatched = associate(dets, lms, 5.0, gate=0.5)
        assert [(r, c) for r, c, _ in matches] == [(1, 1)]
        assert matches[0][2] == pytest.approx(0.45, abs=1e-12)
        assert unmatched == [0]

    def test_matches_reference_on_wall_scene(self):
        # a scene like the benchmark drives: evenly spaced wall points (0.8 m
        # against the 0.5 m gate), points on both sides of the bearing seam,
        # clutter, and one point on the z axis in each set; the detections
        # re-observe most landmarks with noise under a small pose error
        rng = np.random.default_rng(7)
        along = np.arange(-24.0, 24.0, 0.8)
        walls = np.vstack(
            [
                np.column_stack([along, np.full_like(along, 9.0), np.zeros_like(along)]),
                np.column_stack([along, np.full_like(along, -7.5), np.zeros_like(along)]),
                np.column_stack([np.full_like(along, -18.0), 0.3 * along, np.zeros_like(along)]),
                np.column_stack([np.full_like(along, 21.0), 0.3 * along, np.zeros_like(along)]),
            ]
        )
        seam = at_bearings(np.pi - rng.uniform(-1e-3, 1e-3, 30), rng.uniform(5.0, 30.0, 30))
        clutter = rng.uniform(-30.0, 30.0, size=(60, 3))
        lms = np.vstack([walls, seam, clutter, [[0.0, 0.0, 1.0]]])
        yaw = 0.01
        R = np.array([[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0, 0, 1]])
        seen = rng.choice(len(lms) - 1, size=260, replace=False)
        reobserved = (lms[seen] - [0.1, 0.05, 0.0]) @ R.T + rng.normal(scale=0.05, size=(260, 3))
        new = rng.uniform(-30.0, 30.0, size=(40, 3))
        dets = rng.permutation(np.vstack([reobserved, new, [[0.0, 0.0, -2.0]]]))
        assert len(dets) > 2 * BLOCK_ROWS and 300 <= len(lms) <= 400

        matches, unmatched = associate(dets, lms, 5.0, gate=0.5)
        expected = reference_associate(dets, lms, 5.0, 0.5)
        assert [(r, c) for r, c, _ in matches] == [(r, c) for r, c, _ in expected]
        for got, want in zip(matches, expected):
            assert got[2] == pytest.approx(want[2], abs=1e-12)
        matched = {r for r, _, _ in expected}
        assert unmatched == [i for i in range(len(dets)) if i not in matched]
        assert len(matches) > 200

    def test_far_detection_unmatched(self):
        matches, unmatched = associate(
            np.array([[10.0, 0.0, 0.0]]), np.array([[15.0, 0.0, 0.0]]), 5.0, gate=0.5
        )
        assert not matches and unmatched == [0]

    def test_empty_inputs(self):
        matches, unmatched = associate(np.zeros((0, 3)), np.zeros((0, 3)), 5.0, 0.5)
        assert matches == [] and unmatched == []
        matches, unmatched = associate(np.array([[1.0, 0, 0]]), np.zeros((0, 3)), 5.0, 0.5)
        assert matches == [] and unmatched == [0]


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
                assert active == []
        assert tracker.landmarks[0].n_obs == params.n_obs_min
        # one more match exceeds the threshold
        active = tracker.update(det, now=0.05 * (params.n_obs_min + 1), R_oi=eye, t_oi=np.zeros(3))
        assert len(active) == 1
        assert active[0].landmark.n_obs == params.n_obs_min + 1

    def test_high_error_landmark_never_promoted(self):
        params = self._params(max_err_max=0.05, gate=0.5)
        tracker = LandmarkTracker(params)
        eye = np.eye(3)
        rng = np.random.default_rng(1)
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, eye, np.zeros(3))
        for k in range(1, 10):
            noisy = np.array([[10.0 + 0.2 * rng.choice([-1, 1]), 0.0, 0.0]])
            active = tracker.update(noisy, 0.05 * k, eye, np.zeros(3))
            assert active == []

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
        first = tracker.landmarks[0].position.copy()
        tracker.update(np.array([[10.05, 0.0, 0.0]]), 0.05, eye, np.array([0.1, 0.0, 0.0]))
        np.testing.assert_array_equal(tracker.landmarks[0].position, first)

    def test_new_landmark_in_global_frame(self):
        params = self._params()
        tracker = LandmarkTracker(params)
        yaw = np.pi / 2
        R_oi = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        t_oi = np.array([5.0, 0.0, 0.0])
        tracker.update(np.array([[10.0, 0.0, 0.0]]), 0.0, R_oi, t_oi)
        np.testing.assert_allclose(tracker.landmarks[0].position, [5.0, 10.0, 0.0], atol=1e-12)
