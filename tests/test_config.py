import pytest

from radarloc.config import PARAMETER_RANGES, ConfigError, RunConfig, config_from_dict


def test_defaults_validate():
    assert config_from_dict() == RunConfig()
    assert config_from_dict({}) == RunConfig()


@pytest.mark.parametrize("path", sorted(PARAMETER_RANGES))
def test_range_path_resolves_to_a_field(path):
    obj = RunConfig()
    for part in path.split("."):
        assert part in obj.__dataclass_fields__
        obj = getattr(obj, part)


def test_override_is_applied():
    cfg = config_from_dict({"window": {"size": 4}, "ablation": {"single_sensor": True}})
    assert cfg.window.size == 4
    assert cfg.ablation.single_sensor is True


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"no_such_section": {}}, id="section"),
        pytest.param({"window": {"no_such_key": 1}}, id="key"),
        # IMU edges are never re-integrated, so there is no threshold for it
        pytest.param({"imu": {"bias_relin_threshold": 1e-3}}, id="bias_relin_threshold"),
    ],
)
def test_unknown_key_raises(overrides):
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict(overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"window": {"size": 1}},
        {"doppler": {"sigma": 0.0}},
        {"ransac": {"inlier_threshold": 10.5}},
        {"seed": -1},
    ],
    ids=["below_inclusive_lo", "at_exclusive_lo", "above_hi", "negative_seed"],
)
def test_out_of_range_raises(overrides):
    with pytest.raises(ConfigError, match="outside valid range"):
        config_from_dict(overrides)


@pytest.mark.parametrize("overrides", [{"window": {"size": True}}, {"seed": False}])
def test_bool_in_numeric_field_raises(overrides):
    with pytest.raises(ConfigError, match="must be numeric"):
        config_from_dict(overrides)


@pytest.mark.parametrize("value", [3, [1], "imu", None])
def test_non_object_section_raises(value):
    with pytest.raises(ConfigError, match="must be an object"):
        config_from_dict({"imu": value})


@pytest.mark.parametrize("root", [[], [("seed", 1)], "seed"])
def test_non_object_root_raises(root):
    with pytest.raises(ConfigError, match="root"):
        config_from_dict(root)
