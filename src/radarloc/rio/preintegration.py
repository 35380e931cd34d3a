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
rotation matrix at its midpoint) come from one stacked call per kind, so
the per-sample loop holds only the covariance and bias-Jacobian recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..geometry import (
    matvec,
    quat_canonical,
    quat_exp,
    quat_identity,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
)
from ..config import ImuParams
from ..sim.imu import ImuData
from .state import Rows, State


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
    changes. ``cov_rot_vel`` is the 6x6 white-noise covariance of the
    [rotation, velocity] residual; bias rows use random-walk covariance
    over ``dt``.

    Edges stack as ``Rows`` for the batched IMU factor; the rows share
    ``params`` and a stack holds no samples (``None``). ``samples`` and
    ``reintegrated`` stay only as the benchmark tracer's target.
    """

    ROWS = (
        "dt", "delta_q", "delta_v", "ba0", "bg0", "j_rot_bg", "j_vel_ba", "j_vel_bg", "cov_rot_vel"
    )
    SHARED = ("params",)

    dt: float
    delta_q: np.ndarray
    delta_v: np.ndarray
    ba0: np.ndarray
    bg0: np.ndarray
    j_rot_bg: np.ndarray
    j_vel_ba: np.ndarray
    j_vel_bg: np.ndarray
    cov_rot_vel: np.ndarray
    params: ImuParams
    samples: ImuData | None = None

    def corrected(self, ba: np.ndarray, bg: np.ndarray):
        """Bias-corrected (delta_q, delta_v) plus the gyro-bias offset used."""
        dbg = bg - self.bg0
        dba = ba - self.ba0
        dq = quat_normalize(quat_mul(self.delta_q, quat_exp(matvec(self.j_rot_bg, dbg))))
        dv = self.delta_v + matvec(self.j_vel_ba, dba) + matvec(self.j_vel_bg, dbg)
        return dq, dv, dbg

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
    quaternions; the running product of the first gives every midpoint
    rotation and, at its end, ``delta_q``. Each interval's error-state
    transition ``F`` carries both the noise covariance and ``jac``, the
    first-order sensitivity of ``[rotation, velocity]`` to ``[ba, bg]``,
    which the interval's bias input ``B`` adds to.
    """
    if len(segment) < 2:
        raise ValueError("need at least two measurements (one interval)")
    ba0 = np.asarray(ba0, dtype=float).copy()
    bg0 = np.asarray(bg0, dtype=float).copy()
    dt = np.diff(segment.t)
    dt3 = dt[:, None, None]
    a_mids = 0.5 * (segment.accel[:-1] + segment.accel[1:]) - ba0
    steps = (0.5 * (segment.gyro[:-1] + segment.gyro[1:]) - bg0) * dt[:, None]

    q_steps = quat_exp(steps)
    q_starts = np.array(list(accumulate(q_steps, quat_mul, initial=quat_identity())))
    dR_mids = quat_to_matrix(quat_mul(q_starts[:-1], quat_exp(0.5 * steps)))
    Jr = right_jacobian_so3(steps)

    F = np.tile(np.eye(6), (len(dt), 1, 1))
    F[:, :3, :3] = quat_to_matrix(q_steps).swapaxes(-1, -2)
    F[:, 3:, :3] = -dR_mids @ skew(a_mids) * dt3
    B = np.zeros_like(F)
    B[:, :3, 3:] = -Jr * dt3
    B[:, 3:, :3] = -dR_mids * dt3
    Q = np.zeros_like(F)
    Q[:, :3, :3] = Jr @ Jr.swapaxes(-1, -2) * params.gyro_noise_density**2 * dt3
    Q[:, 3:, 3:] = params.accel_noise_density**2 * dt3 * np.eye(3)  # isotropic white noise

    jac = np.zeros((6, 6))
    cov = np.zeros((6, 6))
    for F_k, B_k, Q_k in zip(F, B, Q):
        jac = F_k @ jac + B_k
        cov = F_k @ cov @ F_k.T + Q_k

    return PreintegratedImu(
        dt=float(segment.t[-1] - segment.t[0]),
        delta_q=quat_canonical(quat_normalize(q_starts[-1])),
        delta_v=np.sum(matvec(dR_mids, a_mids) * dt[:, None], axis=0),
        ba0=ba0,
        bg0=bg0,
        j_rot_bg=jac[:3, 3:],
        j_vel_ba=jac[3:, :3],
        j_vel_bg=jac[3:, 3:],
        cov_rot_vel=cov,
        params=params,
        samples=segment,
    )


def predict_state(x: State, pre: PreintegratedImu, t1: float | None = None) -> State:
    """Propagate a state through a preintegrated increment (gravity added)."""
    dq, dv, _ = pre.corrected(x.ba, x.bg)
    R = quat_to_matrix(x.q)
    gravity = np.array([0.0, 0.0, -pre.params.gravity])
    return State(
        t=x.t + pre.dt if t1 is None else t1,
        q=quat_normalize(quat_mul(x.q, dq)),
        v=x.v + R @ dv + gravity * pre.dt,
        ba=x.ba.copy(),
        bg=x.bg.copy(),
    )
