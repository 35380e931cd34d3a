"""Ego-velocity estimation and dynamic-detection rejection.

All sensors' detections at one timestep pool into one linear problem;
each scan enters it rotated into the IMU frame by one product with its
sensor's rotation. A static detection's raw range rate is
``ray . v - (omega - bg) . lever``, with its IMU-frame ray,
``lever = ray x arm`` of its sensor's lever arm, the IMU-frame velocity
``v``, the gyro rate ``omega`` and its bias ``bg``. A pooled rate adds the
known ``omega . lever`` and so is ``ray . v + bg . lever``. The Doppler
factor fits ``v`` and ``bg`` to these rows; RANSAC fits ``v`` to
``rates - levers @ bg`` at the predicted bias and flags the detections off
its consensus as dynamic. Each least-squares refit is one SVD, whose
singular values also give its rank test.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import RansacParams
from ..geometry import RigidTransform

# Probability that at least one of the draws made was all inliers when the
# adaptive stop ends the loop (Hartley & Zisserman, Multiple View Geometry,
# 4.7.1).
CONFIDENCE = 0.999


@dataclass
class PooledDetections:
    """Per-timestep detections from all sensors, in solver-ready form."""

    directions: np.ndarray  # (n, 3) unit rays rotated into the IMU frame
    rates: np.ndarray  # (n,) raw range rate + omega . lever = direction . v + bg . lever
    levers: np.ndarray  # (n, 3) direction x its sensor's lever arm
    positions: np.ndarray  # (n, 3) IMU-frame detection positions
    dropped: int  # detections left out for a non-finite value or no positive range

    def __len__(self) -> int:
        return len(self.rates)


def pool_scans(scans, extrinsics: list[RigidTransform], omega: np.ndarray) -> PooledDetections:
    """All sensors' detections at one timestep as bias-free rows.

    Each scan's points are rotated at once by its sensor's rotation, read
    once per sensor, and take that sensor's lever arm. A detection with a
    non-finite coordinate or range rate, or at zero range, has no ray; it is
    left out and counted in ``dropped``. A scan whose sensor id has no
    extrinsic is a ``ValueError``.
    """
    ids = [scan.sensor_id for scan in scans]
    unknown = sorted({int(i) for i in ids if not 0 <= i < len(extrinsics)})
    if unknown:
        raise ValueError(f"sensor ids {unknown} have no extrinsic")
    rotations = {i: extrinsics[i].rotation for i in set(ids)}
    # an infinite coordinate rotates to NaN (inf * 0); its row is dropped below
    with np.errstate(invalid="ignore"):
        points = np.concatenate(
            [np.zeros((0, 3)), *(scan.points @ rotations[scan.sensor_id].T for scan in scans)]
        )
    arms = np.array([extrinsics[i].t for i in ids]).reshape(-1, 3)
    arms = np.repeat(arms, [len(scan) for scan in scans], axis=0)
    doppler = np.concatenate([np.zeros(0), *(scan.doppler for scan in scans)])
    ranges = np.sqrt(np.einsum("ij,ij->i", points, points))
    keep = np.isfinite(ranges) & (ranges > 0.0) & np.isfinite(doppler)
    dropped = len(keep) - int(np.count_nonzero(keep))
    if dropped:
        points, ranges, arms, doppler = points[keep], ranges[keep], arms[keep], doppler[keep]
    directions = points / ranges[:, None]
    levers = np.cross(directions, arms)
    return PooledDetections(directions, doppler + levers @ omega, levers, points + arms, dropped)


@dataclass
class RansacResult:
    velocity: np.ndarray | None  # IMU-frame velocity, None when degraded
    inlier_mask: np.ndarray
    reason: str = ""  # why no velocity was found; empty on success
    iterations_used: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.reason)

    @property
    def ok(self) -> bool:
        return not self.degraded


def draws_needed(count: int, n: int, cap: int) -> int:
    """Draws after which, at an inlier ratio of ``count / n``, an all-inlier
    minimal sample has been drawn with probability ``CONFIDENCE``.

    At least 1 and at most ``cap``; the cap applies when ``count`` is 0 or
    the ratio cubed underflows, where no finite number of draws suffices.
    """
    ratio_cubed = (count / n) ** 3
    if ratio_cubed >= 1.0:
        return 1
    log_miss = math.log1p(-ratio_cubed)
    if log_miss == 0.0:
        return cap
    draws = math.log1p(-CONFIDENCE) / log_miss
    return cap if draws >= cap else max(1, math.ceil(draws))


def refit_velocity(
    directions: np.ndarray, rates: np.ndarray, mask: np.ndarray
) -> np.ndarray | None:
    """Least-squares ``v`` of ``rates = directions @ v`` over the rows in
    ``mask``; None unless their rays span three directions.

    The rank test counts the singular values above 1e-6 that the solve
    returns, as ``np.linalg.matrix_rank(rays, tol=1e-6)`` does with an SVD
    of its own.
    """
    rows = np.flatnonzero(mask)  # a row gather by take: boolean indexing of (n, 3) costs 2x
    v, _, _, singular = np.linalg.lstsq(directions.take(rows, axis=0), rates.take(rows), rcond=None)
    return None if np.count_nonzero(singular > 1e-6) < 3 else v


def estimate_velocity(
    directions: np.ndarray,
    rates: np.ndarray,
    params: RansacParams,
    seed: int | Sequence[int] = 0,
) -> RansacResult:
    """RANSAC over the range-rate equations ``rates = directions @ v``.

    Minimal model: exact solve of three ray/rate pairs; consensus by rate
    residual below the inlier threshold; the returned velocity refits all
    consensus inliers by least squares and the mask is recomputed once
    from that refit. Degenerate geometry (rays spanning fewer than three
    directions, see ``refit_velocity``) and thin consensus both degrade the
    step.

    The number of draws adapts to the best consensus so far: each time it
    grows, the loop is set to stop after ``draws_needed`` draws, at most
    ``params.iterations``. It also stops when every detection is an inlier.
    A near-coplanar sample is skipped but counts as a draw.

    ``seed`` is an int or a sequence of ints, such as ``[run_seed, step]``
    for an independent stream per radar step; ``s`` and ``[s]`` draw the
    same stream.
    """
    n = len(rates)
    empty = np.zeros(n, dtype=bool)
    if n < max(3, params.min_inliers):
        return RansacResult(None, empty, "too_few_detections")

    seed_ints = [int(seed)] if np.isscalar(seed) else [int(s) for s in seed]
    rng = np.random.default_rng(np.random.SeedSequence([*seed_ints, 0x3303]))

    best_count = 0
    best_mask = empty
    iterations = 0
    needed = params.iterations
    while iterations < needed:
        iterations += 1
        pick = rng.choice(n, size=3, replace=False)
        A = directions[pick]
        # near-coplanar ray triplets carry no 3D velocity information
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        v = np.linalg.solve(A, rates[pick])
        mask = np.abs(rates - directions @ v) < params.inlier_threshold
        count = int(np.count_nonzero(mask))
        if count > best_count:
            best_count = count
            best_mask = mask
            if count == n:
                break
            needed = draws_needed(count, n, params.iterations)

    if best_count < params.min_inliers:
        return RansacResult(None, empty, "insufficient_consensus", iterations)

    v = refit_velocity(directions, rates, best_mask)
    if v is None:
        return RansacResult(None, empty, "degenerate_geometry", iterations)
    mask = np.abs(rates - directions @ v) < params.inlier_threshold
    if np.count_nonzero(mask) >= params.min_inliers:
        refined = refit_velocity(directions, rates, mask)
        if refined is not None:
            v = refined
            mask = np.abs(rates - directions @ v) < params.inlier_threshold
    if np.count_nonzero(mask) < params.min_inliers:
        return RansacResult(None, empty, "insufficient_consensus", iterations)
    return RansacResult(v, mask, "", iterations)
