"""Estimator state and its 12-dimensional error parameterization.

Error/update ordering per state: [dtheta (body frame), dv, d accel bias,
d gyro bias]. Orientation updates are right-multiplied increments,
``q <- q * Exp(dtheta)``.

A ``State`` may also hold several states stacked along a leading axis
(``State.stack``); ``retract`` and the batched factors work on either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import quat_canonical, quat_identity, quat_local_error, retract

STATE_DIM = 12
THETA = slice(0, 3)
VEL = slice(3, 6)
BA = slice(6, 9)
BG = slice(9, 12)


@dataclass
class State:
    """Velocity, orientation (q_OI), and IMU biases at one radar timestep.

    A stacked state has an (n,) ``t`` and a leading axis of length n on
    every array; index it with ``states[i]`` or ``states[index_array]``.
    """

    t: float
    q: np.ndarray
    v: np.ndarray
    ba: np.ndarray
    bg: np.ndarray

    @staticmethod
    def initial(t: float = 0.0, q: np.ndarray | None = None, v: np.ndarray | None = None) -> "State":
        return State(
            t=t,
            q=quat_identity() if q is None else np.asarray(q, dtype=float),
            v=np.zeros(3) if v is None else np.asarray(v, dtype=float),
            ba=np.zeros(3),
            bg=np.zeros(3),
        )

    @staticmethod
    def stack(states: list["State"]) -> "State":
        return State(
            t=np.array([s.t for s in states]),
            q=np.stack([s.q for s in states]),
            v=np.stack([s.v for s in states]),
            ba=np.stack([s.ba for s in states]),
            bg=np.stack([s.bg for s in states]),
        )

    def append(self, state: "State") -> "State":
        """This stacked state with ``state`` added after its last."""
        return State(
            t=np.append(self.t, state.t),
            q=np.vstack([self.q, state.q]),
            v=np.vstack([self.v, state.v]),
            ba=np.vstack([self.ba, state.ba]),
            bg=np.vstack([self.bg, state.bg]),
        )

    def __getitem__(self, index) -> "State":
        return State(self.t[index], self.q[index], self.v[index], self.ba[index], self.bg[index])

    def copy(self) -> "State":
        return State(self.t, self.q.copy(), self.v.copy(), self.ba.copy(), self.bg.copy())

    def retract(self, delta: np.ndarray) -> "State":
        """Apply a 12-dim error-state increment, or (n, 12) to a stacked state."""
        return State(
            t=self.t,
            q=quat_canonical(retract(self.q, delta[..., THETA])),
            v=self.v + delta[..., VEL],
            ba=self.ba + delta[..., BA],
            bg=self.bg + delta[..., BG],
        )

    def local_error(self, ref: "State") -> np.ndarray:
        """12-dim error of self relative to ref; inverse of ``ref.retract``."""
        out = np.empty(STATE_DIM)
        out[THETA] = quat_local_error(self.q, ref.q)
        out[VEL] = self.v - ref.v
        out[BA] = self.ba - ref.ba
        out[BG] = self.bg - ref.bg
        return out

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.q))
            and np.all(np.isfinite(self.v))
            and np.all(np.isfinite(self.ba))
            and np.all(np.isfinite(self.bg))
        )
