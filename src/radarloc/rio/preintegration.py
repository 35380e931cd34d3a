"""IMU interpolation and on-manifold preintegration.

Between two radar timesteps the IMU buffer is compounded into a single
relative constraint on orientation and velocity (position is deliberately
not tracked). Deltas exclude gravity; it is injected at prediction time.

``imu_segment`` cuts the samples of one radar interval out of the buffer as
an ``ImuData``: the samples inside the interval as they are, and its two
endpoints interpolated linearly between their neighbours. Each segment is
compounded once; ``PreintegratedImu.corrected`` carries every later bias
change to first order (Forster et al., T-RO 2017).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import (
    exp_so3,
    matvec,
    quat_exp,
    quat_from_matrix,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    right_jacobian_so3,
    skew,
)
from ..config import ImuParams
from ..sim.imu import ImuData
from .state import State


def lerp(t: float, t0: float, t1: float, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """The value at ``t`` on the line through ``(t0, z0)`` and ``(t1, z1)``."""
    a = (t - t0) / (t1 - t0)
    return (1.0 - a) * z0 + a * z1


def imu_segment(imu: ImuData, t0: float, t1: float) -> ImuData:
    """Samples covering [t0, t1], endpoints interpolated to match.

    An endpoint within 1e-12 s of a sample is that sample; any other is
    interpolated between the samples around it.
    """
    if t1 <= t0:
        raise ValueError("segment requires t1 > t0")
    if imu.t[0] > t0 + 1e-9 or imu.t[-1] < t1 - 1e-9:
        raise ValueError(f"IMU buffer [{imu.t[0]}, {imu.t[-1]}] does not cover [{t0}, {t1}]")
    i0 = max(int(np.searchsorted(imu.t, t0, side="right")) - 1, 0)
    i1 = min(int(np.searchsorted(imu.t, t1, side="left")), len(imu) - 1)

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
class PreintegratedImu:
    """Compounded IMU increment over one radar interval.

    ``delta_q``/``delta_v`` are evaluated at the linearization biases
    ``(ba0, bg0)``; ``j_*`` give their first-order sensitivity to bias
    changes. ``cov_rot_vel`` is the 6x6 white-noise covariance of the
    [rotation, velocity] residual; bias rows use random-walk covariance
    over ``dt``.

    ``stack`` puts the compounds of several edges along a leading axis for
    the batched IMU factor; a stack holds no samples (``None``). ``samples``
    and ``reintegrated`` stay only as the benchmark tracer's target.
    """

    dt: float
    delta_q: np.ndarray
    delta_v: np.ndarray
    ba0: np.ndarray
    bg0: np.ndarray
    j_rot_bg: np.ndarray
    j_vel_ba: np.ndarray
    j_vel_bg: np.ndarray
    cov_rot_vel: np.ndarray
    samples: ImuData | None
    params: ImuParams

    @staticmethod
    def stack(pres: list["PreintegratedImu"]) -> "PreintegratedImu":
        def stacked(name):
            return np.stack([getattr(p, name) for p in pres])

        return PreintegratedImu(
            dt=np.array([p.dt for p in pres]),
            delta_q=stacked("delta_q"),
            delta_v=stacked("delta_v"),
            ba0=stacked("ba0"),
            bg0=stacked("bg0"),
            j_rot_bg=stacked("j_rot_bg"),
            j_vel_ba=stacked("j_vel_ba"),
            j_vel_bg=stacked("j_vel_bg"),
            cov_rot_vel=stacked("cov_rot_vel"),
            samples=None,
            params=pres[0].params,
        )

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
    """Midpoint-rule compounding of an IMU segment at fixed biases."""
    if len(segment) < 2:
        raise ValueError("need at least two measurements (one interval)")
    ba0 = np.asarray(ba0, dtype=float).copy()
    bg0 = np.asarray(bg0, dtype=float).copy()
    intervals = np.diff(segment.t)
    w_mids = 0.5 * (segment.gyro[:-1] + segment.gyro[1:]) - bg0
    a_mids = 0.5 * (segment.accel[:-1] + segment.accel[1:]) - ba0

    dR = np.eye(3)
    dv = np.zeros(3)
    j_rot_bg = np.zeros((3, 3))
    j_vel_ba = np.zeros((3, 3))
    j_vel_bg = np.zeros((3, 3))
    cov = np.zeros((6, 6))
    var_g = params.gyro_noise_density**2
    var_a = params.accel_noise_density**2

    for dt, w_mid, a_mid in zip(intervals, w_mids, a_mids):
        step = w_mid * dt
        R_step = exp_so3(step)
        Jr = right_jacobian_so3(step)
        dR_mid = dR @ exp_so3(0.5 * step)

        # noise/bias sensitivities use the pre-update rotation state
        j_vel_ba -= dR_mid * dt
        j_vel_bg -= dR_mid @ skew(a_mid) @ j_rot_bg * dt
        j_rot_bg = R_step.T @ j_rot_bg - Jr * dt

        F = np.eye(6)
        F[0:3, 0:3] = R_step.T
        F[3:6, 0:3] = -dR_mid @ skew(a_mid) * dt
        Q = np.zeros((6, 6))
        Q[0:3, 0:3] = (Jr @ Jr.T) * var_g * dt
        Q[3:6, 3:6] = (dR_mid @ dR_mid.T) * var_a * dt
        cov = F @ cov @ F.T + Q

        dv = dv + dR_mid @ a_mid * dt
        dR = dR @ R_step

    return PreintegratedImu(
        dt=float(segment.t[-1] - segment.t[0]),
        delta_q=quat_from_matrix(dR),
        delta_v=dv,
        ba0=ba0,
        bg0=bg0,
        j_rot_bg=j_rot_bg,
        j_vel_ba=j_vel_ba,
        j_vel_bg=j_vel_bg,
        cov_rot_vel=cov,
        samples=segment,
        params=params,
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
