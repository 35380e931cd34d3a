"""Spans and counts at the public functions each ``rio`` layer calls.

The benchmark wraps module-level names and methods from the outside, so the
estimator carries no tracing code. Spans are kept in memory and written out
once the run ends, one JSON list ``[name, parent_index, start_s, end_s]`` per
line. A target that no longer exists stops the traced run with its name, rather
than letting its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from radarloc.geometry import quat_to_matrix


class MissingTarget(RuntimeError):
    """A wrapped name is gone from the program."""


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # a module-level name, or Class.method
    span: str

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.attr}"

    def resolve(self):
        """``(owner, name)`` such that ``getattr(owner, name)`` is the target."""
        try:
            owner = importlib.import_module(self.module)
        except ImportError as exc:
            raise MissingTarget(f"{self.qualname}: {exc}") from exc
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, name, None)):
            raise MissingTarget(f"{self.qualname} no longer exists")
        return owner, name


STEP = Target("radarloc.rio.estimator", "RioEstimator.process_scans", "estimator.step")

TARGETS = (
    STEP,
    Target("radarloc.rio.estimator", "imu_segment", "preintegration.segment"),
    Target("radarloc.rio.estimator", "preintegrate", "preintegration.integrate"),
    Target("radarloc.rio.estimator", "predict_state", "preintegration.predict"),
    Target("radarloc.rio.preintegration", "PreintegratedImu.reintegrated", "preintegration.reintegrate"),
    Target("radarloc.rio.estimator", "pool_scans", "ransac.pool"),
    Target("radarloc.rio.estimator", "estimate_velocity", "ransac.estimate"),
    Target("radarloc.rio.landmarks", "LandmarkTracker.update", "landmarks.update"),
    Target("radarloc.rio.landmarks", "associate", "landmarks.associate"),
    Target("radarloc.rio.estimator", "optimize_window", "window.optimize"),
    Target("radarloc.rio.estimator", "marginalize_oldest", "window.marginalize"),
    Target("radarloc.rio.window", "doppler_block_residual", "factors.doppler"),
    Target("radarloc.rio.window", "heading_block_residual", "factors.heading"),
    Target("radarloc.rio.window", "imu_residual", "factors.imu"),
    Target("radarloc.rio.window", "compress_doppler", "factors.compress_doppler"),
    Target("radarloc.rio.window", "compress_landmarks", "factors.compress_landmarks"),
)

# spans every workload must produce; the heading ones only with landmarks on
ALWAYS_CALLED = (
    "estimator.step",
    "preintegration.segment",
    "preintegration.integrate",
    "preintegration.predict",
    "ransac.pool",
    "ransac.estimate",
    "window.optimize",
    "window.marginalize",
    "factors.doppler",
    "factors.imu",
    "factors.compress_doppler",
)
HEADING_SPANS = (
    "landmarks.update",
    "landmarks.associate",
    "factors.heading",
    "factors.compress_landmarks",
)


@contextmanager
def patched(wrappers: dict[Target, callable]):
    """Replace each target with ``make(original)`` while the block runs.

    ``wrappers`` maps a target to ``make``. Every target is resolved before
    any is replaced, and the originals are put back on exit.
    """
    resolved = [(target, *target.resolve()) for target in wrappers]
    saved = []
    try:
        for target, owner, name in resolved:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, functools.wraps(original)(wrappers[target](original)))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class Tracer:
    """Records one span per call of each target, nested by call stack.

    Spans live in flat arrays rather than Python objects, so that keeping
    hundreds of thousands of them does not slow the garbage collector.
    """

    def __init__(self, observers: dict[str, callable]):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.observers = observers  # span name -> observe(args, result)
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def spans(self):
        """``(name, parent_index, start_s, end_s)`` per span, in call order."""
        names = self.names
        for name_id, parent, start, end in zip(self.name_ids, self.parents, self.starts, self.ends):
            yield names[name_id], parent, start, end

    def wrappers(self) -> dict[Target, callable]:
        return {target: self._maker(target.span) for target in TARGETS}

    def _maker(self, span: str):
        if span not in self.names:
            self.names.append(span)
        name_id = self.names.index(span)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter
        observe = self.observers.get(span)

        def make(original):
            def traced(*args, **kwargs):
                index = len(starts)
                name_ids.append(name_id)
                parents.append(stack[-1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
                stack.append(index)
                starts[index] = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                if observe is not None:
                    observe(args, result)
                return result

            return traced

        return make

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as f:
            for name, parent, start, end in self.spans:
                f.write(json.dumps([name, parent, round(start - t0, 9), round(end - t0, 9)]))
                f.write("\n")


class LayerStats:
    """Counts observed at the traced boundaries, and the per-layer metrics.

    Steps, failed steps and the window's factor count are kept by the step
    wrapper of ``bench.StepLog``, which runs inside the traced rounds too.
    ``gt`` is the simulator ground truth, used to score each RANSAC velocity
    against the true IMU-frame velocity at its step.
    """

    def __init__(self, gt, max_iterations: int):
        self.gt = gt
        self.max_iterations = max_iterations
        self.count = Counter()
        self.tracked: list[int] = []
        self.velocity_err: list[float] = []
        self._ransac_velocity = None

    def observers(self) -> dict[str, callable]:
        return {
            "estimator.step": self._step,
            "ransac.pool": self._pool,
            "ransac.estimate": self._estimate,
            "landmarks.update": self._update,
            "landmarks.associate": self._associate,
            "window.optimize": self._optimize,
            "window.marginalize": self._marginalize,
        }

    def _step(self, args, out):
        if self._ransac_velocity is not None:
            i = self.gt.index_at(args[1])
            truth = quat_to_matrix(self.gt.quat[i]).T @ self.gt.velocity[i]
            self.velocity_err.append(float(np.linalg.norm(self._ransac_velocity - truth)))
            self._ransac_velocity = None

    def _pool(self, args, pooled):
        self.count["detections"] += len(pooled)

    def _estimate(self, args, result):
        self.count["ransac_iterations"] += result.iterations_used
        if result.ok:
            self.count["inliers"] += int(result.inlier_mask.sum())
            self._ransac_velocity = np.array(result.velocity, dtype=float)

    def _update(self, args, active):
        self.tracked.append(len(args[0].landmarks))
        self.count["active"] += len(active)

    def _associate(self, args, result):
        matches, unmatched = result
        self.count["pairs"] += len(args[0]) * len(args[1])
        self.count["matches"] += len(matches)
        self.count["created"] += len(unmatched)

    def _optimize(self, args, report):
        self.count["optimize_iterations"] += report.iterations
        self.count["cap_hits"] += report.iterations >= self.max_iterations and not report.converged

    def _marginalize(self, args, info):
        self.count["regularized"] += bool(info.regularized)

    def metrics(self, spans, rounds: int) -> dict[str, float]:
        """Per-layer metrics over the traced rounds; see the README table."""
        total = defaultdict(float)
        calls = Counter()
        step_ids = set()
        in_children = 0.0  # time of spans called directly by a step
        for i, (name, parent, start, end) in enumerate(spans):
            total[name] += end - start
            calls[name] += 1
            if name == "estimator.step":
                step_ids.add(i)
            elif parent in step_ids:
                in_children += end - start
        step_self = total["estimator.step"] - in_children
        steps = calls["estimator.step"]

        def ms(*names):
            return 1e3 * sum(total[n] for n in names) / steps

        c = self.count
        return {
            "estimator.step_ms": ms("estimator.step"),
            "estimator.self_ms": 1e3 * step_self / steps,
            "preintegration.ms_per_step": ms(
                "preintegration.segment",
                "preintegration.integrate",
                "preintegration.predict",
                "preintegration.reintegrate",
            ),
            "preintegration.reintegrations": calls["preintegration.reintegrate"] / rounds,
            "ransac.pool_ms_per_step": ms("ransac.pool"),
            "ransac.estimate_ms_per_step": ms("ransac.estimate"),
            "ransac.detections_per_step": c["detections"] / steps,
            "ransac.iterations_per_step": c["ransac_iterations"] / steps,
            "ransac.inlier_ratio": c["inliers"] / max(c["detections"], 1),
            "ransac.velocity_err_p95_mps": _p95(self.velocity_err),
            "landmarks.update_ms_per_step": ms("landmarks.update"),
            "landmarks.associate_ms_per_step": ms("landmarks.associate"),
            "landmarks.candidate_pairs_per_step": c["pairs"] / steps,
            "landmarks.tracked_mean": float(np.mean(self.tracked)) if self.tracked else 0.0,
            "landmarks.tracked_end": self.tracked[-1] if self.tracked else 0,
            "landmarks.matches_per_step": c["matches"] / steps,
            "landmarks.created_per_step": c["created"] / steps,
            "landmarks.active_per_step": c["active"] / steps,
            "window.optimize_ms_per_step": ms("window.optimize"),
            "window.marginalize_ms_per_step": ms("window.marginalize"),
            "window.iterations_per_step": c["optimize_iterations"] / steps,
            "window.cap_hit_ratio": c["cap_hits"] / steps,
            "window.regularized_marginalizations": c["regularized"] / rounds,
            "factors.doppler_evals_per_step": calls["factors.doppler"] / steps,
            "factors.heading_evals_per_step": calls["factors.heading"] / steps,
            "factors.imu_evals_per_step": calls["factors.imu"] / steps,
            "factors.ms_per_step": ms("factors.doppler", "factors.heading", "factors.imu"),
            "factors.compress_ms_per_step": ms(
                "factors.compress_doppler", "factors.compress_landmarks"
            ),
        }


def _p95(values) -> float:
    return float(np.percentile(values, 95)) if values else 0.0
