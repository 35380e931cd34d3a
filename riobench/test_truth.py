"""Tests of the ground-truth checker; no estimator runs.

    python3 -m pytest riobench/test_truth.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarloc.geometry import quat_from_axis_angle, quat_mul, quat_to_matrix  # noqa: E402
from radarloc.sim import GroundTruth, gen_trajectory  # noqa: E402
from truth import relative_truth, track_errors  # noqa: E402

SPEED = 2.0


@pytest.fixture
def circle():
    """The yard circle: starts at 90 deg yaw, 12 m from the world origin."""
    return gen_trajectory({"kind": "circle", "radius": 12.0, "speed": SPEED}, 4.0, 200.0)


def radar_times(gt: GroundTruth):
    return gt.t[100::10]  # 20 Hz from t = 0.5 s


def moved(gt: GroundTruth, q_d: np.ndarray, d: np.ndarray) -> GroundTruth:
    """The same motion seen from another world frame."""
    R = quat_to_matrix(q_d)
    return GroundTruth(
        gt.t,
        gt.position @ R.T + d,
        np.array([quat_mul(q_d, q) for q in gt.quat]),
        gt.velocity @ R.T,
        gt.accel @ R.T,
        gt.body_rate,
    )


def test_track_starts_at_the_origin_of_its_own_frame(circle):
    p, q, v = relative_truth(circle, radar_times(circle))
    np.testing.assert_allclose(p[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(q[0], [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    # the circle heads along +y of the world at 90 deg yaw; in its own frame along +x
    np.testing.assert_allclose(v[0], [SPEED, 0.0, 0.0], atol=1e-9)


def test_rigidly_moved_and_rotated_truth_scores_zero(circle):
    times = radar_times(circle)
    p, q, v = relative_truth(circle, times)
    q_d = quat_from_axis_angle(np.array([0.3, -0.5, 1.0]), 2.1)
    other = moved(circle, q_d, np.array([-40.0, 17.0, 3.0]))
    errors = track_errors(times, q, v, p, other)
    assert np.max(errors.position_m) < 1e-9
    assert np.max(np.abs(errors.yaw_rad)) < 1e-9
    assert np.max(errors.body_velocity_mps) < 1e-9
    assert errors.drift_pct < 1e-8
    assert errors.path_length_m == pytest.approx(SPEED * (times[-1] - times[0]), rel=1e-4)


@pytest.mark.parametrize("offset", [0.02, -0.3, 2.5])
def test_yaw_offset_is_reported_as_that_offset(circle, offset):
    times = radar_times(circle)
    p, q, v = relative_truth(circle, times)
    turn = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), offset)
    q_est = np.array([quat_mul(turn, qi) for qi in q])
    errors = track_errors(times, q_est, v, p, circle)
    np.testing.assert_allclose(errors.yaw_rad, offset, atol=1e-9)
    assert errors.yaw_rmse_deg == pytest.approx(np.degrees(abs(offset)), rel=1e-9)
    assert errors.final_yaw_deg == pytest.approx(np.degrees(abs(offset)), rel=1e-9)
    assert np.max(errors.position_m) < 1e-12
