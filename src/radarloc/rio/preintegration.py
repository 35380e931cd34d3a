"""IMU interpolation and on-manifold preintegration.

Between two radar timesteps the IMU buffer is compounded into a single
relative constraint on orientation and velocity (position is deliberately
not tracked). Deltas exclude gravity; it is injected at prediction time.

``imu_segment`` cuts the samples of one radar interval out of the buffer as
an ``ImuData``: the samples inside the interval as they are, and its two
endpoints interpolated linearly between their neighbours. Each segment is
compounded once; ``PreintegratedImu.corrected`` carries every later bias
change to first order (Forster et al., T-RO 2017).

Rotation is compounded as a quaternion product over the segment's
intervals. Each interval's maps (its rotation, the right Jacobian and the
rotation matrix at its midpoint) come from one stacked call per kind. The
running product is one 4x4 matrix-vector product per interval, and the
other per-sample loop holds only the covariance and bias-Jacobian
recursions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    matvec,
    quat_canonical,
    quat_exp,
    quat_identity,
    quat_mul,
    quat_normalize,
    quat_right_mat,
    quat_to_matrix,
    retract,
    right_jacobian_so3,
    skew,
)
from ..config import ImuParams
from ..sim.imu import ImuData
from .state import Rows, State

_EYE3 = np.eye(3)


def lerp(t: float, t0: float, t1: float, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """The value at ``t`` on the line through ``(t0, z0)`` and ``(t1, z1)``."""
    a = (t - t0) / (t1 - t0)
    return (1.0 - a) * z0 + a * z1


def segment_span(imu: ImuData, t0: float, t1: float) -> tuple[int, int]:
    """First and last buffer sample ``imu_segment`` builds [t0, t1] from."""
    if t1 <= t0:
        raise ValueError("segment requires t1 > t0")
    if imu.t[0] > t0 + 1e-9 or imu.t[-1] < t1 - 1e-9:
        raise ValueError(f"IMU buffer [{imu.t[0]}, {imu.t[-1]}] does not cover [{t0}, {t1}]")
    i0 = max(int(np.searchsorted(imu.t, t0, side="right")) - 1, 0)
    i1 = min(int(np.searchsorted(imu.t, t1, side="left")), len(imu) - 1)
    return i0, i1


def imu_segment(imu: ImuData, t0: float, t1: float) -> ImuData:
    """Samples covering [t0, t1], endpoints interpolated to match.

    An endpoint within 1e-12 s of a sample is that sample; any other is
    interpolated between the samples around it.
    """
    i0, i1 = segment_span(imu, t0, t1)

    def endpoint(t: float, i: int, on: int):
        """Sample ``on`` if it is at ``t``, else the lerp between samples i and i + 1."""
        if abs(imu.t[on] - t) < 1e-12:
            return imu.t[on], imu.accel[on], imu.gyro[on]
        return t, *(lerp(t, imu.t[i], imu.t[i + 1], z[i], z[i + 1]) for z in (imu.accel, imu.gyro))

    (ta, a0, w0), (tb, a1, w1) = endpoint(t0, i0, i0), endpoint(t1, i1 - 1, i1)
    inner = slice(i0 + 1, i1)
    return ImuData(
        np.concatenate([[ta], imu.t[inner], [tb]]),
        np.vstack([a0, imu.accel[inner], a1]),
        np.vstack([w0, imu.gyro[inner], w1]),
    )


@dataclass
class PreintegratedImu(Rows):
    """Compounded IMU increment over one radar interval.

    ``delta_q``/``delta_v`` are evaluated at the linearization biases
    ``(ba0, bg0)``; ``j_*`` give their first-order sensitivity to bias
    changes, with ``j_vel = [j_vel_ba | j_vel_bg]`` the (3, 6) velocity
    block. ``gravity_dt`` is the velocity change gravity adds over ``dt``,
    ``[0, 0, -g] dt``. ``cov_rot_vel`` is the 6x6 white-noise covariance of
    the [rotation, velocity] residual; bias rows use random-walk covariance
    over ``dt``.

    Edges stack as ``Rows`` for the batched IMU factor, so the window stacks
    each of these once, when it appends the edge; the rows share ``params``
    and a stack holds no samples (``None``). ``samples`` and
    ``reintegrated`` stay only as the benchmark tracer's target.
    """

    ROWS = (
        "dt", "delta_q", "delta_v", "ba0", "bg0", "j_rot_bg", "j_vel", "gravity_dt", "cov_rot_vel"
    )
    SHARED = ("params",)

    dt: float
    delta_q: np.ndarray
    delta_v: np.ndarray
    ba0: np.ndarray
    bg0: np.ndarray
    j_rot_bg: np.ndarray
    j_vel: np.ndarray
    gravity_dt: np.ndarray
    cov_rot_vel: np.ndarray
    params: ImuParams
    samples: ImuData | None = None

    @property
    def j_vel_ba(self) -> np.ndarray:
        return self.j_vel[..., :3]

    @property
    def j_vel_bg(self) -> np.ndarray:
        return self.j_vel[..., 3:]

    def corrected(self, ba: np.ndarray, bg: np.ndarray):
        """Bias-corrected (delta_q, delta_v) plus the rotation vector applied to delta_q.

        That rotation vector is ``phi = j_rot_bg @ (bg - bg0)``, so that
        ``dq = delta_q * Exp(phi)`` (``geometry.retract``, so w >= 0); the
        IMU factor's gyro-bias Jacobian takes the right Jacobian at it.
        """
        dbg = bg - self.bg0
        phi = matvec(self.j_rot_bg, dbg)
        dq = retract(self.delta_q, phi)
        dv = self.delta_v + matvec(self.j_vel_ba, ba - self.ba0) + matvec(self.j_vel_bg, dbg)
        return dq, dv, phi

    def reintegrated(self, ba: np.ndarray, bg: np.ndarray) -> "PreintegratedImu":
        return preintegrate(self.samples, ba, bg, self.params)


def preintegrate(
    segment: ImuData,
    ba0: np.ndarray,
    bg0: np.ndarray,
    params: ImuParams,
) -> PreintegratedImu:
    """Midpoint-rule compounding of an IMU segment at fixed biases.

    The rotations over each interval and over its first half are stacked
    quaternions, mapped by one ``quat_exp`` and one ``quat_to_matrix``
    call. The running product of the first, one 4x4 product per interval
    with their stacked right-product matrices, gives every midpoint
    rotation and, at its end, ``delta_q``. Each interval's error-state
    transition ``F`` carries both the noise covariance ``Q`` and ``jac``,
    the first-order sensitivity of ``[rotation, velocity]`` to ``[ba, bg]``,
    which the interval's bias input ``B`` adds to; all three are blocks of
    one (m, 3, 6, 6) array.
    """
    if len(segment) < 2:
        raise ValueError("need at least two measurements (one interval)")
    ba0 = np.asarray(ba0, dtype=float).copy()
    bg0 = np.asarray(bg0, dtype=float).copy()
    dt = np.diff(segment.t)
    m = len(dt)
    dt3 = dt[:, None, None]
    a_mids = 0.5 * (segment.accel[:-1] + segment.accel[1:]) - ba0
    steps = (0.5 * (segment.gyro[:-1] + segment.gyro[1:]) - bg0) * dt[:, None]

    # rows :m are the intervals' rotations, rows m: their first halves, then
    # turned into the rotations from the start to each interval's midpoint
    q_steps = quat_exp(np.concatenate([steps, 0.5 * steps]))
    q_starts = np.empty((m + 1, 4))
    q_starts[0] = quat_identity()
    for k, right in enumerate(quat_right_mat(q_steps[:m])):
        np.matmul(right, q_starts[k], out=q_starts[k + 1])
    q_steps[m:] = quat_mul(q_starts[:-1], q_steps[m:])
    dR = quat_to_matrix(q_steps)
    dR_mids = dR[m:]
    Jr = right_jacobian_so3(steps)

    FBQ = np.zeros((m, 3, 6, 6))
    FBQ[:, 0, :3, :3] = dR[:m].swapaxes(-1, -2)
    FBQ[:, 0, 3:, :3] = -dR_mids @ skew(a_mids) * dt3
    FBQ[:, 0, 3:, 3:] = _EYE3
    FBQ[:, 1, :3, 3:] = -Jr * dt3
    FBQ[:, 1, 3:, :3] = -dR_mids * dt3
    FBQ[:, 2, :3, :3] = Jr @ Jr.swapaxes(-1, -2) * params.gyro_noise_density**2 * dt3
    FBQ[:, 2, 3:, 3:] = params.accel_noise_density**2 * dt3 * _EYE3  # isotropic white noise

    # from zero, the first interval gives jac = B and cov = Q
    jac, cov = FBQ[0, 1].copy(), FBQ[0, 2].copy()
    for F_k, B_k, Q_k in FBQ[1:]:
        jac = F_k @ jac + B_k
        cov = F_k @ cov @ F_k.T + Q_k

    dt_total = float(segment.t[-1] - segment.t[0])
    return PreintegratedImu(
        dt=dt_total,
        delta_q=quat_canonical(quat_normalize(q_starts[-1])),
        delta_v=(matvec(dR_mids, a_mids) * dt[:, None]).sum(axis=0),
        ba0=ba0,
        bg0=bg0,
        j_rot_bg=jac[:3, 3:],
        j_vel=jac[3:],
        gravity_dt=np.array([0.0, 0.0, -params.gravity * dt_total]),
        cov_rot_vel=cov,
        params=params,
        samples=segment,
    )


def predict_state(x: State, pre: PreintegratedImu, t1: float | None = None) -> State:
    """Propagate a state through a preintegrated increment (gravity added)."""
    dq, dv, _ = pre.corrected(x.ba, x.bg)
    R = quat_to_matrix(x.q)
    return State(
        t=x.t + pre.dt if t1 is None else t1,
        q=quat_normalize(quat_mul(x.q, dq)),
        v=x.v + R @ dv + pre.gravity_dt,
        ba=x.ba.copy(),
        bg=x.bg.copy(),
    )
