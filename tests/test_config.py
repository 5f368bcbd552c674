"""Run configuration parsing, validation, and hashing."""

import pytest

from tilelab.config import ConfigError, RunConfig, load_config


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.radius == 3
    assert cfg.schedule == [1, 6]
    assert cfg.interpretation == "square"


def test_schedule_validation():
    with pytest.raises(ConfigError):
        RunConfig({"schedule": [2, 3]})
    with pytest.raises(ConfigError):
        RunConfig({"resolution": 0})
    with pytest.raises(ConfigError):
        RunConfig({"interpretation": "diagonal"})
    with pytest.raises(ConfigError):
        RunConfig({"i_min": 1, "i_max": 2})


@pytest.mark.parametrize("window", [0.3, 1e-9, 0, 0.0, -1, -0.5,
                                    float("nan"), float("inf"), "1.0"])
def test_window_must_be_positive_multiple_of_2_to_minus_8(window):
    with pytest.raises(ConfigError, match="window must be a positive multiple"):
        RunConfig({"window": window})


def test_window_on_the_2_to_minus_8_lattice_is_kept_as_given():
    for window in (1 / 256, 0.375, 0.5, 0.625, 0.75, 1.0, 2, 3.5):
        assert RunConfig({"window": window}).window == window


def test_hash_ignores_out_dir():
    a = RunConfig({"seed": 4, "out": "/tmp/a"})
    b = RunConfig({"seed": 4, "out": "/tmp/b"})
    assert a.hash() == b.hash()
    assert a.hash() != RunConfig({"seed": 5}).hash()


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 7\nradius=5\n# comment\nschedule = 1, 6\n")
    cfg = load_config(str(p))
    assert cfg.seed == 7 and cfg.radius == 5 and cfg.schedule == [1, 6]


def test_load_config_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 7\n")
    cfg = load_config(str(p), overrides={"seed": 9})
    assert cfg.seed == 9


def test_load_config_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("radius = frog\n")
    with pytest.raises(ConfigError) as e:
        load_config(str(p))
    assert "line 1" in str(e.value)
    p.write_text("not a pair\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p.write_text("unknown_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
