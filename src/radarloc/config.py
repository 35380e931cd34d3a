"""Run configuration: every tunable parameter, with defaults and validation.

``config_from_dict`` takes overrides that mirror this structure section by
section; unknown keys are rejected and each value is range-checked. A
parameter whose default is an ``int`` takes only ``int`` values.
Documented ranges live in ``PARAMETER_RANGES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass


class ConfigError(ValueError):
    """Invalid configuration file or parameter value."""


@dataclass
class RansacParams:
    iterations: int = 100  # cap on draws; the adaptive stop ends sooner
    inlier_threshold: float = 0.12  # m/s, three times the Doppler accuracy
    min_inliers: int = 8


@dataclass
class ImuParams:
    accel_noise_density: float = 0.02  # m/s^2 per sqrt(Hz)
    gyro_noise_density: float = 0.002  # rad/s per sqrt(Hz)
    accel_bias_walk: float = 2e-4  # m/s^2 per sqrt(s)
    gyro_bias_walk: float = 2e-5  # rad/s per sqrt(s)
    gravity: float = 9.81


@dataclass
class DopplerFactorParams:
    sigma: float = 0.04  # m/s


@dataclass
class LandmarkParams:
    range_weight: float = 5.0  # m/rad weighting of bearing vs range distance
    # association acceptance on the polar distance; in the assignment a pair
    # at or beyond it costs 2 * gate, as leaving the detection unmatched does
    gate: float = 0.5
    n_obs_min: int = 5  # matches required before a landmark constrains heading
    max_err_max: float = 0.3  # worst historical association distance allowed
    staleness: float = 1.0  # s without a match before a landmark is dropped
    bearing_sigma: float = 0.01  # rad, heading-factor weight


@dataclass
class WindowParams:
    size: int = 10
    max_iterations: int = 8  # guard on LM iterations; the stop tests end sooner
    accel_bias_max: float = 1.0  # m/s^2, divergence guard
    gyro_bias_max: float = 0.2  # rad/s, divergence guard
    marginal_epsilon: float = 1e-8


@dataclass
class PriorParams:
    sigma_rotation: float = 0.02  # rad
    sigma_velocity: float = 0.5  # m/s
    sigma_accel_bias: float = 0.1  # m/s^2
    sigma_gyro_bias: float = 0.01  # rad/s


@dataclass
class AblationParams:
    single_sensor: bool = False
    disable_heading_constraint: bool = False


@dataclass
class RunConfig:
    seed: int = 0
    ransac: RansacParams = field(default_factory=RansacParams)
    imu: ImuParams = field(default_factory=ImuParams)
    doppler: DopplerFactorParams = field(default_factory=DopplerFactorParams)
    landmark: LandmarkParams = field(default_factory=LandmarkParams)
    window: WindowParams = field(default_factory=WindowParams)
    prior: PriorParams = field(default_factory=PriorParams)
    ablation: AblationParams = field(default_factory=AblationParams)


# (lo, hi, inclusive_lo, inclusive_hi) per dotted parameter path
PARAMETER_RANGES: dict[str, tuple[float, float, bool, bool]] = {
    "seed": (0, 2**63 - 1, True, True),
    "ransac.iterations": (1, 100000, True, True),
    "ransac.inlier_threshold": (0.0, 10.0, False, True),
    "ransac.min_inliers": (3, 100000, True, True),
    "imu.accel_noise_density": (0.0, 10.0, True, True),
    "imu.gyro_noise_density": (0.0, 10.0, True, True),
    "imu.accel_bias_walk": (0.0, 1.0, True, True),
    "imu.gyro_bias_walk": (0.0, 1.0, True, True),
    "imu.gravity": (0.0, 30.0, False, True),
    "doppler.sigma": (0.0, 10.0, False, True),
    "landmark.range_weight": (0.0, 1000.0, False, True),
    "landmark.gate": (0.0, 100.0, False, True),
    "landmark.n_obs_min": (0, 10000, True, True),
    "landmark.max_err_max": (0.0, 100.0, False, True),
    "landmark.staleness": (0.0, 3600.0, False, True),
    "landmark.bearing_sigma": (0.0, 3.2, False, True),
    "window.size": (2, 1000, True, True),
    "window.max_iterations": (1, 1000, True, True),
    "window.accel_bias_max": (0.0, 100.0, False, True),
    "window.gyro_bias_max": (0.0, 100.0, False, True),
    "window.marginal_epsilon": (0.0, 1.0, False, True),
    "prior.sigma_rotation": (0.0, 10.0, False, True),
    "prior.sigma_velocity": (0.0, 100.0, False, True),
    "prior.sigma_accel_bias": (0.0, 100.0, False, True),
    "prior.sigma_gyro_bias": (0.0, 100.0, False, True),
}


def _apply_overrides(obj, overrides: dict, path: str = "") -> None:
    known = {f.name: f for f in fields(obj)}
    for key, value in overrides.items():
        if key not in known:
            raise ConfigError(f"unknown config key: {path}{key}")
        current = getattr(obj, key)
        if is_dataclass(current) and not isinstance(value, dict):
            raise ConfigError(f"config section {path}{key} must be an object")
        if is_dataclass(current):
            _apply_overrides(current, value, path=f"{path}{key}.")
        else:
            setattr(obj, key, value)


def _check_ranges(cfg: RunConfig) -> None:
    def resolve(obj, path: str):
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    defaults = RunConfig()
    for path, (lo, hi, inc_lo, inc_hi) in PARAMETER_RANGES.items():
        value = resolve(cfg, path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be numeric, got {value!r}")
        if isinstance(resolve(defaults, path), int) and not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        ok_lo = value >= lo if inc_lo else value > lo
        ok_hi = value <= hi if inc_hi else value < hi
        if not (ok_lo and ok_hi):
            lo_b = "[" if inc_lo else "("
            hi_b = "]" if inc_hi else ")"
            raise ConfigError(f"{path}={value} outside valid range {lo_b}{lo}, {hi}{hi_b}")


def validate_config(cfg: RunConfig) -> RunConfig:
    _check_ranges(cfg)
    if not isinstance(cfg.ablation.single_sensor, bool):
        raise ConfigError("ablation.single_sensor must be a bool")
    if not isinstance(cfg.ablation.disable_heading_constraint, bool):
        raise ConfigError("ablation.disable_heading_constraint must be a bool")
    return cfg


def config_from_dict(overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("config root must be a JSON object")
        _apply_overrides(cfg, overrides)
    return validate_config(cfg)

