"""Run configuration: every tunable parameter, with defaults and validation.

``config_from_dict`` takes overrides that mirror this structure section by
section; unknown keys are rejected. Each numeric parameter declares its range
at its field (``ranged``) and takes only a finite number in it, and only an
``int`` where its default is one; an ablation flag takes only a bool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

from .spec import check_fields, leaf_fields, ranged


class ConfigError(ValueError):
    """Invalid configuration file or parameter value."""


@dataclass
class RansacParams:
    iterations: int = ranged(100, 1, 100000)  # cap on draws; the adaptive stop ends sooner
    inlier_threshold: float = ranged(0.12, 0.0, 10.0, inc_lo=False)  # m/s, three times the Doppler accuracy
    min_inliers: int = ranged(8, 3, 100000)


@dataclass
class ImuParams:
    accel_noise_density: float = ranged(0.02, 0.0, 10.0)  # m/s^2 per sqrt(Hz)
    gyro_noise_density: float = ranged(0.002, 0.0, 10.0)  # rad/s per sqrt(Hz)
    accel_bias_walk: float = ranged(2e-4, 0.0, 1.0)  # m/s^2 per sqrt(s)
    gyro_bias_walk: float = ranged(2e-5, 0.0, 1.0)  # rad/s per sqrt(s)
    gravity: float = ranged(9.81, 0.0, 30.0, inc_lo=False)


@dataclass
class DopplerFactorParams:
    sigma: float = ranged(0.04, 0.0, 10.0, inc_lo=False)  # m/s


@dataclass
class LandmarkParams:
    range_weight: float = ranged(5.0, 0.0, 1000.0, inc_lo=False)  # m/rad weighting of bearing vs range distance
    # association acceptance on the polar distance; in the assignment a pair
    # at or beyond it costs 2 * gate, as leaving the detection unmatched does
    gate: float = ranged(0.5, 0.0, 100.0, inc_lo=False)
    n_obs_min: int = ranged(5, 0, 10000)  # matches required before a landmark constrains heading
    max_err_max: float = ranged(0.3, 0.0, 100.0, inc_lo=False)  # worst historical association distance allowed
    staleness: float = ranged(1.0, 0.0, 3600.0, inc_lo=False)  # s without a match before a landmark is dropped
    bearing_sigma: float = ranged(0.01, 0.0, 3.2, inc_lo=False)  # rad, heading-factor weight


@dataclass
class WindowParams:
    size: int = ranged(10, 2, 1000)
    max_iterations: int = ranged(8, 1, 1000)  # guard on LM iterations; the stop tests end sooner
    accel_bias_max: float = ranged(1.0, 0.0, 100.0, inc_lo=False)  # m/s^2, divergence guard
    gyro_bias_max: float = ranged(0.2, 0.0, 100.0, inc_lo=False)  # rad/s, divergence guard
    marginal_epsilon: float = ranged(1e-8, 0.0, 1.0, inc_lo=False)


@dataclass
class PriorParams:
    sigma_rotation: float = ranged(0.02, 0.0, 10.0, inc_lo=False)  # rad
    sigma_velocity: float = ranged(0.5, 0.0, 100.0, inc_lo=False)  # m/s
    sigma_accel_bias: float = ranged(0.1, 0.0, 100.0, inc_lo=False)  # m/s^2
    sigma_gyro_bias: float = ranged(0.01, 0.0, 100.0, inc_lo=False)  # rad/s


@dataclass
class AblationParams:
    single_sensor: bool = False
    disable_heading_constraint: bool = False


@dataclass
class RunConfig:
    seed: int = ranged(0, 0, 2**63 - 1)
    ransac: RansacParams = field(default_factory=RansacParams)
    imu: ImuParams = field(default_factory=ImuParams)
    doppler: DopplerFactorParams = field(default_factory=DopplerFactorParams)
    landmark: LandmarkParams = field(default_factory=LandmarkParams)
    window: WindowParams = field(default_factory=WindowParams)
    prior: PriorParams = field(default_factory=PriorParams)
    ablation: AblationParams = field(default_factory=AblationParams)


# (lo, hi, inclusive_lo, inclusive_hi) per dotted parameter path, as each field declares it
PARAMETER_RANGES: dict[str, tuple[float, float, bool, bool]] = {
    name: f.metadata["range"] for name, f, _ in leaf_fields(RunConfig()) if "range" in f.metadata
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


def config_from_dict(overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ConfigError("config root must be a JSON object")
        _apply_overrides(cfg, overrides)
    check_fields(cfg, ConfigError)
    return cfg

