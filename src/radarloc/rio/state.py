"""Estimator state and its 12-dimensional error parameterization.

Error/update ordering per state: [dtheta (body frame), dv, d accel bias,
d gyro bias]. Orientation updates are right-multiplied increments,
``q <- q * Exp(dtheta)``.

A ``State`` may also hold several states stacked along a leading axis, as
``Rows``; ``retract`` and the batched factors work on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..geometry import quat_canonical, quat_identity, retract

STATE_DIM = 12
THETA = slice(0, 3)
VEL = slice(3, 6)
BA = slice(6, 9)
BG = slice(9, 12)


class Rows:
    """Records of one dataclass stacked along a leading axis, one row each.

    ``ROWS`` names the fields that hold one row per record; a single record
    holds one row's value in each. ``SHARED`` names the fields every row
    shares, kept from the stack; any other field takes its default.
    ``rows[index]`` keeps the rows at ``index``, ``record[None]`` is the
    one-row stack of a single record and ``rows.append(record)`` adds
    ``record`` after the last row.
    """

    ROWS: ClassVar[tuple[str, ...]]
    SHARED: ClassVar[tuple[str, ...]] = ()

    def _with_rows(self, rows: dict):
        return type(self)(**rows, **{name: getattr(self, name) for name in self.SHARED})

    def __getitem__(self, index):
        return self._with_rows({n: np.asarray(getattr(self, n))[index] for n in self.ROWS})

    def append(self, record):
        return self._with_rows(
            {n: np.concatenate([getattr(self, n), [getattr(record, n)]]) for n in self.ROWS}
        )


@dataclass
class State(Rows):
    """Velocity, orientation (q_OI), and IMU biases at one radar timestep.

    A stacked state has an (n,) ``t`` and a leading axis of length n on
    every array; see ``Rows``.
    """

    ROWS = ("t", "q", "v", "ba", "bg")

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

    def is_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.q))
            and np.all(np.isfinite(self.v))
            and np.all(np.isfinite(self.ba))
            and np.all(np.isfinite(self.bg))
        )
