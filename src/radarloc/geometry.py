"""Rotation algebra and rigid transforms shared by every module.

Conventions, fixed here once for the whole project:

* Quaternions are Hamilton, stored as length-4 arrays ``[w, x, y, z]``.
* ``quat_to_matrix(q_AB) @ v_B`` expresses a B-frame vector in frame A;
  composition follows ``q_AC = q_AB * q_BC``.
* The orientation state of the robot is ``q_OI`` (IMU frame to global
  frame), so ``R(q_OI) @ v_imu`` is a global-frame vector.
* Quaternions are canonicalized to ``w >= 0`` before error extraction so
  that ``q`` and ``-q`` produce identical small-angle errors.
* Local orientation increments are right-multiplied (body frame):
  ``retract(q, dtheta) = q * quat_exp(dtheta)``, normalized and
  canonicalized.
* Angles are always wrapped to ``(-pi, pi]``.
* The quaternion and SO(3) helpers also take stacks along a leading axis:
  (n, 4) quaternions and (n, 3) vectors give (n, 4), (n, 3) and (n, 3, 3)
  results, so the window evaluates all its factors of one kind at once and
  preintegration maps all its IMU intervals at once. One input and a stack
  go through the same code.
* Each linear or quadratic map is one numpy operation on a constant table,
  so its cost is per call rather than per component: ``skew`` and the
  quaternion product matrices gather the input's components through an
  index table and multiply by a sign table, ``quat_mul`` is a product with
  one of those matrices, and ``quat_to_matrix`` is the identity plus the
  outer product ``q q^T`` times a constant (16, 9) coefficient table. The
  component formulas they replace are the test oracles in
  ``tests/oracles.py``.
* The cost of these helpers is their count of numpy calls, not their
  arithmetic, so the maps that branch at small angles make one select and
  take their identity from a constant: ``quat_exp`` writes ``sin(h)/h`` out
  with ``np.sinc``'s guard at zero, and ``right_jacobian_so3`` picks its
  first-order form with one ``np.where``. ``retract`` normalizes and
  canonicalizes a product of unit quaternions with one division.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-10
_JR_SMALL_ANGLE = 1e-7  # below it ``right_jacobian_so3`` is first order
_TINY = np.finfo(float).eps  # stands in for a zero angle; sin(x) / x is 1 there


# S[i, j] = _SKEW_SIGN[i, j] * v[_SKEW_INDEX[i, j]]
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])


def skew(v: np.ndarray) -> np.ndarray:
    """Return the 3x3 matrix S with S @ w == cross(v, w); (n, 3) gives (n, 3, 3)."""
    return np.asarray(v, dtype=float)[..., _SKEW_INDEX] * _SKEW_SIGN


def _norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norm over the last axis; what ``np.linalg.norm`` computes there."""
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for one matrix and vector or for stacks of them."""
    return (M @ x[..., None])[..., 0]


def wrap_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    wrapped = np.mod(np.asarray(a) + np.pi, 2.0 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    return float(wrapped) if np.ndim(a) == 0 else wrapped


# ---------------------------------------------------------------------------
# quaternions
# ---------------------------------------------------------------------------


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Unit quaternion(s); a near-zero input maps to the identity."""
    q = np.asarray(q, dtype=float)
    n = _norm(q, keepdims=True)
    return np.where(n < _SMALL_ANGLE, _IDENTITY, q / np.maximum(n, _SMALL_ANGLE))


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Flip sign so w >= 0; q and -q are the same rotation."""
    return np.where(q[..., :1] < 0.0, -q, q)


def quat_conj(q: np.ndarray) -> np.ndarray:
    return q * _CONJ


# L(q)[i, j] = _LEFT_SIGN[i, j] * q[_PRODUCT_INDEX[i, j]], and R(q) alike
_PRODUCT_INDEX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_LEFT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]]
)
_RIGHT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]]
)


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b (not normalized), as ``R(b) @ a``.

    Each row of ``R(b)`` takes the terms in the order of the component
    formula, so a stack sums them as that formula does.
    """
    return matvec(quat_right_mat(b), np.asarray(a, dtype=float))


def quat_left_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix L with L(q) @ p == quat_mul(q, p)."""
    return np.asarray(q, dtype=float)[..., _PRODUCT_INDEX] * _LEFT_SIGN


def quat_right_mat(q: np.ndarray) -> np.ndarray:
    """4x4 matrix R with R(q) @ p == quat_mul(p, q)."""
    return np.asarray(q, dtype=float)[..., _PRODUCT_INDEX] * _RIGHT_SIGN


def _rotation_coefficients() -> np.ndarray:
    """(16, 9) table C with R(q) = I + (q q^T).ravel() @ C, row-major R."""
    C = np.zeros((4, 4, 3, 3))
    for i in range(3):
        for j in range(3):
            # R = I + 2 w [v]x + 2 [v]x^2, with [v]x^2 = v v^T - |v|^2 I
            if i == j:
                for k in range(1, 4):
                    if k != i + 1:
                        C[k, k, i, j] = -2.0
            else:
                C[i + 1, j + 1, i, j] = 2.0
                k = 3 - i - j  # the third axis
                C[0, k + 1, i, j] = 2.0 * _SKEW_SIGN[i, j]
    return C.reshape(16, 9)


_ROTATION_COEFFICIENTS = _rotation_coefficients()
_EYE3 = np.eye(3)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of unit quaternion(s) q; (n, 4) gives (n, 3, 3).

    Every entry of ``R(q) - I`` is a quadratic form in ``q`` with at most
    two terms of coefficient +-2, so the one table product computes each
    exactly as the component formula does.
    """
    q = np.asarray(q, dtype=float)
    outer = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,))
    return _EYE3 + (outer @ _ROTATION_COEFFICIENTS).reshape(q.shape[:-1] + (3, 3))


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def quat_exp(rotvec: np.ndarray) -> np.ndarray:
    """Map rotation vector(s) to unit quaternion(s).

    ``[cos(angle/2), sin(angle/2)/angle * rotvec]``, with ``sin(h)/h`` at the
    half angle ``h`` taken at a tiny ``h`` where the angle is 0, so that it is
    exactly 1 there: ``np.sinc``'s guard, without its Python wrapper.
    """
    rotvec = np.asarray(rotvec, dtype=float)
    half = 0.5 * _norm(rotvec, keepdims=True)
    safe = np.where(half == 0.0, _TINY, half)
    return np.concatenate([np.cos(half), (0.5 * np.sin(safe) / safe) * rotvec], axis=-1)


def quat_yaw(q: np.ndarray) -> float:
    """Yaw of R(q) about +z, in (-pi, pi]."""
    R = quat_to_matrix(q)
    return float(np.arctan2(R[1, 0], R[0, 0]))


def tilt_matrix(q: np.ndarray) -> np.ndarray:
    """Roll-and-pitch part of R(q): ``Rz(yaw)^T R(q)``.

    Maps body-frame vectors into the gravity-levelled frame that shares the
    body's yaw, so ``R(q) = Rz(yaw) @ tilt_matrix(q)``.
    """
    R = quat_to_matrix(q)
    yaw = np.arctan2(R[1, 0], R[0, 0])
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]) @ R


def quat_local_error(q: np.ndarray, q_ref: np.ndarray) -> np.ndarray:
    """Right (body-frame) error 2 * vec(q_ref^-1 * q); inverts ``retract``."""
    e = quat_mul(quat_conj(q_ref), q)
    e = quat_canonical(e)
    return 2.0 * e[1:4]


def retract(q: np.ndarray, dtheta: np.ndarray) -> np.ndarray:
    """Apply a body-frame rotation increment: q * Exp(dtheta), with w >= 0.

    One division normalizes and canonicalizes: by the norm carrying the
    sign of w. A product of unit quaternions is never near zero, so this
    needs no guard of ``quat_normalize``.
    """
    q = quat_mul(q, quat_exp(dtheta))
    return q / np.copysign(_norm(q, keepdims=True), q[..., :1])


# ---------------------------------------------------------------------------
# SO(3) maps
# ---------------------------------------------------------------------------


def right_jacobian_so3(rotvec: np.ndarray) -> np.ndarray:
    """Right Jacobian Jr with Exp(phi + d) ~ Exp(phi) Exp(Jr(phi) @ d).

    ``I - (1 - cos a)/a K + (a - sin a)/a K^2`` with ``K = [phi]x / a`` at the
    angle ``a``, and its first-order form ``I - [phi]x / 2`` below
    ``_JR_SMALL_ANGLE``, picked by one select.
    """
    rotvec = np.asarray(rotvec, dtype=float)
    S = skew(rotvec)
    angle = _norm(rotvec)[..., None, None]
    safe = np.maximum(angle, _JR_SMALL_ANGLE)  # the small-angle rows are not used
    K = S / safe
    J = _EYE3 - ((1.0 - np.cos(angle)) / safe) * K + ((safe - np.sin(angle)) / safe) * (K @ K)
    return np.where(angle < _JR_SMALL_ANGLE, _EYE3 - 0.5 * S, J)


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RigidTransform:
    """Rigid transform between two frames.

    A point ``p`` of the source frame is ``R(q) @ p + t`` in the target
    frame; the sensor extrinsics map radar frames into the IMU frame.
    """

    q: np.ndarray
    t: np.ndarray

    @staticmethod
    def from_parts(q: np.ndarray, t: np.ndarray) -> "RigidTransform":
        return RigidTransform(quat_canonical(quat_normalize(q)), np.asarray(t, dtype=float))

    @property
    def rotation(self) -> np.ndarray:
        return quat_to_matrix(self.q)
