import numpy as np
import pytest

import oracles
from oracles import DegenerateBearingError, bearing, exp_so3, log_so3, quat_from_matrix
from radarloc import geometry as geo


def test_skew_definition():
    S = geo.skew(np.array([1.0, 2.0, 3.0]))
    expected = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    np.testing.assert_array_equal(S, expected)


def test_skew_zero_vector():
    np.testing.assert_array_equal(geo.skew(np.zeros(3)), np.zeros((3, 3)))


def test_skew_matches_cross_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(geo.skew(v) @ w, np.cross(v, w), atol=1e-12)
        assert np.allclose(geo.skew(v), -geo.skew(v).T)


def test_skew_self_cross_is_zero():
    v = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(geo.skew(v) @ v, np.zeros(3), atol=1e-15)


# quat_local_error is the rotation part of the prior factor's error (see TestPriorFactor)
def test_quat_error_identical():
    q = geo.quat_from_axis_angle([0.0, 0.0, 1.0], 0.7)
    np.testing.assert_allclose(geo.quat_local_error(q, q), np.zeros(3), atol=1e-12)


def test_quat_error_small_yaw():
    # oracle: error magnitude is 2*sin(theta/2) about the rotation axis
    theta = np.deg2rad(2.0)
    q_est = geo.quat_from_axis_angle([0.0, 0.0, 1.0], theta)
    err = geo.quat_local_error(q_est, geo.quat_identity())
    np.testing.assert_allclose(err, [0.0, 0.0, 2.0 * np.sin(theta / 2.0)], atol=1e-12)
    np.testing.assert_allclose(err, [0.0, 0.0, 0.0349], atol=1e-4)


def test_quat_error_antipodal():
    q = geo.quat_from_axis_angle([0.2, -0.5, 0.8], 1.1)
    np.testing.assert_allclose(geo.quat_local_error(-q, q), np.zeros(3), atol=1e-12)


def test_bearing_axes():
    assert bearing(np.array([1.0, 0.0, 3.7])) == 0.0
    assert bearing(np.array([0.0, 1.0, 0.0])) == pytest.approx(np.pi / 2)
    assert bearing(np.array([-1.0, -1.0, 0.0])) == pytest.approx(-3.0 * np.pi / 4)


def test_bearing_degenerate_raises():
    with pytest.raises(DegenerateBearingError):
        bearing(np.array([0.0, 0.0, 1.0]))


def test_wrap_angle_range():
    angles = np.array([-4.0 * np.pi, -np.pi, 0.0, np.pi, 3.5 * np.pi, 6.0])
    wrapped = geo.wrap_angle(angles)
    assert np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
    assert geo.wrap_angle(np.pi) == pytest.approx(np.pi)
    assert geo.wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert geo.wrap_angle(2.0 * np.pi + 0.1) == pytest.approx(0.1)


def test_quat_matrix_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = geo.quat_canonical(geo.quat_normalize(rng.normal(size=4)))
        q_back = quat_from_matrix(geo.quat_to_matrix(q))
        assert min(np.linalg.norm(q - q_back), np.linalg.norm(q + q_back)) < 1e-9


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        qa = geo.quat_normalize(rng.normal(size=4))
        qb = geo.quat_normalize(rng.normal(size=4))
        Rab = geo.quat_to_matrix(geo.quat_normalize(geo.quat_mul(qa, qb)))
        np.testing.assert_allclose(Rab, geo.quat_to_matrix(qa) @ geo.quat_to_matrix(qb), atol=1e-12)


def test_product_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        qa = geo.quat_normalize(rng.normal(size=4))
        qb = geo.quat_normalize(rng.normal(size=4))
        np.testing.assert_allclose(geo.quat_left_mat(qa) @ qb, geo.quat_mul(qa, qb), atol=1e-12)
        np.testing.assert_allclose(geo.quat_right_mat(qb) @ qa, geo.quat_mul(qa, qb), atol=1e-12)


def test_exp_log_so3_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(100):
        rotvec = rng.normal(size=3)
        rotvec *= rng.uniform(0.0, 3.0) / max(np.linalg.norm(rotvec), 1e-12)
        np.testing.assert_allclose(log_so3(exp_so3(rotvec)), rotvec, atol=1e-8)


def test_quat_exp_matches_exp_so3():
    # random vectors, then axes at the angles one formula must get right:
    # zero, tiny angles around the old small-angle threshold of 1e-10, and up
    # to pi; each vector alone and the whole stack
    rng = np.random.default_rng(5)
    random = 0.5 * rng.normal(size=(50, 3))
    angles = np.array([0.0, 1e-12, 1e-10, 1e-7, 1.0, np.pi - 1e-9, np.pi, 3.0])
    axes = rng.normal(size=(len(angles), 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    rotvecs = np.vstack([random, angles[:, None] * axes])
    for rotvec, q_stacked in zip(rotvecs, geo.quat_exp(rotvecs)):
        for q in (geo.quat_exp(rotvec), q_stacked):
            np.testing.assert_allclose(geo.quat_to_matrix(q), exp_so3(rotvec), rtol=0.0, atol=1e-12)
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15


def test_retract_local_error_inverse():
    rng = np.random.default_rng(6)
    for _ in range(50):
        q = geo.quat_canonical(geo.quat_normalize(rng.normal(size=4)))
        dtheta = 0.2 * rng.normal(size=3)
        err = geo.quat_local_error(geo.retract(q, dtheta), q)
        # local error returns 2*sin(|d|/2)*axis; compare against that form
        angle = np.linalg.norm(dtheta)
        expected = dtheta * (2.0 * np.sin(angle / 2.0) / angle)
        np.testing.assert_allclose(err, expected, atol=1e-9)


@pytest.mark.parametrize(
    "name",
    [
        "skew",
        "quat_to_matrix",
        "quat_left_mat",
        "quat_right_mat",
        "quat_conj",
        "quat_canonical",
        "quat_normalize",
        "quat_exp",
        "right_jacobian_so3",
    ],
)
def test_helpers_broadcast_over_a_leading_axis(name):
    # a stack gives, row for row, what one input gives; the rotation vectors
    # include zero and tiny angles. One input and a stack share one code
    # path, so the values are pinned by test_quat_exp_matches_exp_so3
    rng = np.random.default_rng(5)
    if name in ("skew", "quat_exp", "right_jacobian_so3"):
        stack = rng.normal(size=(6, 3))
        stack[1], stack[2], stack[3] = 0.0, 1e-12, [0.0, 5e-8, 0.0]
    else:
        stack = rng.normal(size=(6, 4))
        stack[1] = 0.0  # quat_normalize maps it to the identity
    f = getattr(geo, name)
    out = f(stack)
    for k in range(len(stack)):
        np.testing.assert_allclose(out[k], f(stack[k]), rtol=1e-14, atol=1e-15)


def test_quat_mul_and_retract_broadcast():
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    dtheta = rng.normal(scale=0.1, size=(5, 3))
    for k in range(5):
        np.testing.assert_allclose(geo.quat_mul(a, b)[k], geo.quat_mul(a[k], b[k]), atol=1e-15)
        np.testing.assert_allclose(geo.quat_mul(a, b[0])[k], geo.quat_mul(a[k], b[0]), atol=1e-15)
        np.testing.assert_allclose(
            geo.retract(a, dtheta)[k], geo.retract(a[k], dtheta[k]), atol=1e-15
        )


@pytest.mark.parametrize(
    "name", ["skew", "quat_left_mat", "quat_right_mat", "quat_to_matrix", "quat_mul"]
)
def test_constant_table_maps_equal_their_component_oracles(name):
    # one input, a stack, and for quat_mul a single times a stack either way,
    # on unit quaternions and unit-scale vectors
    rng = np.random.default_rng(7)
    size = 3 if name == "skew" else 4
    stack = rng.normal(size=(8, size))
    if name != "skew":
        stack = geo.quat_normalize(stack)
    other = geo.quat_normalize(rng.normal(size=(8, 4)))
    f, oracle = getattr(geo, name), getattr(oracles, name)
    if name == "quat_mul":
        cases = [(stack[0], other[0]), (stack, other), (stack[0], other), (stack, other[0])]
    else:
        cases = [(stack[0],), (stack,)]
    for args in cases:
        out, expected = f(*args), oracle(*args)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-15)
