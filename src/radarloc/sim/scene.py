"""Scene description: static reflectors, moving objects, clutter rate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..spec import NON_NEGATIVE, POSITIVE, check_fields, check_spec, ranged

_WEIGHT = (0.0, 1.0, False, True)  # the range of a detection probability


@dataclass
class DynamicObject:
    """Point reflector moving at constant velocity, detected whenever in view."""

    position0: np.ndarray
    velocity: np.ndarray

    def position_at(self, t: float) -> np.ndarray:
        return self.position0 + self.velocity * t


@dataclass
class Scene:
    """Static world model for the radar simulator.

    ``static_weights`` are per-target detection probabilities in (0, 1];
    ``clutter_density`` is the Poisson mean of spurious detections per scan.
    """

    static_points: np.ndarray
    static_weights: np.ndarray
    dynamic_objects: list[DynamicObject] = field(default_factory=list)
    clutter_density: float = ranged(0.0, *NON_NEGATIVE)

    def __post_init__(self) -> None:
        check_fields(self)
        self.static_points = np.atleast_2d(np.asarray(self.static_points, dtype=float))
        if self.static_points.size == 0:
            self.static_points = np.zeros((0, 3))
        self.static_weights = np.asarray(self.static_weights, dtype=float).reshape(-1)
        if len(self.static_weights) != len(self.static_points):
            raise ValueError("one weight per static target required")


def wall_points(start, end, spacing: float = 0.5) -> np.ndarray:
    """Point reflectors along a wall segment between two xy points, at 0.5 and 1.5 m height."""
    start, end = (np.asarray(point, dtype=float) for point in (start, end))
    length = np.linalg.norm(end - start)
    count = max(int(np.floor(length / spacing)) + 1, 2)
    alphas = np.linspace(0.0, 1.0, count)
    base = start[None, :] + alphas[:, None] * (end - start)[None, :]
    return np.vstack([np.column_stack([base[:, :2], np.full(count, z)]) for z in (0.5, 1.5)])


def scene_from_dict(cfg: dict) -> Scene:
    """Expand a scenario JSON scene block into explicit point targets.

    The block's keys, each optional:

    * ``walls``: objects with xy ``start`` and ``end``, and optional
      ``spacing`` (m > 0, default 0.5) and detection ``weight`` (in (0, 1],
      default 1); each is a row of reflectors at 0.5 and 1.5 m height.
    * ``posts``: objects with a ``position`` (its xy is used) and optional
      ``weight`` (in (0, 1], default 1); each is three reflectors at 0.5, 1.5, 2.5 m.
    * ``dynamic_objects``: objects with xyz ``position`` and ``velocity``.
    * ``clutter_density``: spurious detections per scan (>= 0, default 0).

    A key not listed, or a number that is not finite or not in its range,
    raises a ``ValueError`` that names it.
    """
    check_spec(cfg, ("walls", "posts", "dynamic_objects", "clutter_density"), "scene")
    points, weights = [], []
    for wall in cfg.get("walls", []):
        check_spec(wall, {"start": None, "end": None, "spacing": POSITIVE, "weight": _WEIGHT}, "wall")
        pts = wall_points(wall["start"], wall["end"], spacing=float(wall.get("spacing", 0.5)))
        points.append(pts)
        weights.extend([float(wall.get("weight", 1.0))] * len(pts))
    for post in cfg.get("posts", []):
        check_spec(post, {"position": None, "weight": _WEIGHT}, "post")
        x, y = np.asarray(post["position"], dtype=float)[:2]
        points.append(np.array([[x, y, z] for z in (0.5, 1.5, 2.5)]))
        weights.extend([float(post.get("weight", 1.0))] * 3)
    static = np.vstack(points) if points else np.zeros((0, 3))
    dynamics = []
    for obj in cfg.get("dynamic_objects", []):
        check_spec(obj, ("position", "velocity"), "dynamic object")
        position, velocity = (np.asarray(obj[key], dtype=float) for key in ("position", "velocity"))
        dynamics.append(DynamicObject(position, velocity))
    clutter = cfg.get("clutter_density", 0.0)
    return Scene(static, np.asarray(weights, dtype=float), dynamics, clutter)
