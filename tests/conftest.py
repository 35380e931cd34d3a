import numpy as np
import pytest

from radarloc.config import ImuParams
from radarloc.rio.state import STATE_DIM, State
from radarloc.sim.imu import ImuData


def numeric_state_jacobian(func, x: State, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a residual through the state retraction.

    ``x`` may be a stacked state whose i-th residual block depends on its
    i-th state only: every state moves by the same increment, and the
    Jacobian keeps the residual's leading axis.
    """
    columns = []
    for i in range(STATE_DIM):
        d = np.zeros(STATE_DIM)
        d[i] = h
        rp = np.atleast_1d(func(x.retract(d)))
        rm = np.atleast_1d(func(x.retract(-d)))
        columns.append((rp - rm) / (2.0 * h))
    return np.stack(columns, axis=-1)


def jacobian_close(J_analytic: np.ndarray, J_numeric: np.ndarray, rel: float = 1e-5) -> bool:
    scale = max(float(np.linalg.norm(J_numeric)), 1e-6)
    return float(np.linalg.norm(J_analytic - J_numeric)) / scale < rel


def random_state(rng: np.random.Generator, t: float = 0.0) -> State:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    if q[0] < 0.0:
        q = -q
    return State(
        t=t,
        q=q,
        v=rng.normal(scale=2.0, size=3),
        ba=rng.normal(scale=0.05, size=3),
        bg=rng.normal(scale=0.01, size=3),
    )


def random_imu_segment(
    rng: np.random.Generator, duration: float = 0.05, rate: float = 200.0
) -> ImuData:
    n = max(int(round(duration * rate)), 1) + 1
    accel = np.empty((n, 3))
    gyro = np.empty((n, 3))
    for i in range(n):  # drawn sample by sample, accel then gyro
        accel[i] = np.array([0.0, 0.0, 9.81]) + rng.normal(scale=0.5, size=3)
        gyro[i] = rng.normal(scale=0.3, size=3)
    return ImuData(np.arange(n) / rate, accel, gyro)


@pytest.fixture
def imu_params() -> ImuParams:
    return ImuParams()
