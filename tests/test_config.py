import configparser
from importlib import resources

import pytest

from rabibeat.config import ConfigError, load_config, preset_names


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


def test_bundled_presets_all_load():
    names = preset_names()
    assert {
        "paper-fig2",
        "paper-fig3",
        "paper-fig4",
        "paper-fig5",
        "paper-fig7",
        "paper-fig8",
        "imaging-default",
        "drift-demo",
    } <= set(names)
    for name in names:
        cfg = load_config(name)
        assert cfg.kind


def test_preset_fields_are_typed():
    cfg = load_config("paper-fig3")
    assert cfg.kind == "rabi-single"
    assert cfg.drive["omega0_mhz"] == 22.2
    assert cfg.grid.n_points == 6001
    assert cfg.decay.kind == "exponential"
    assert list(d for d, _ in cfg.manifolds) == [0.0, 2.18, 4.36]
    imaging = load_config("imaging-default")
    assert imaging.geometry.gap == 10.0
    assert imaging.geometry.drive_scale == 20.0


def test_unknown_config_name():
    with pytest.raises(ConfigError, match="neither a file nor a bundled preset"):
        load_config("does-not-exist")


def test_unknown_section_is_field_pathed(tmp_path):
    path = write(tmp_path, "[run]\nkind = esr\n[banana]\nx = 1\n")
    with pytest.raises(ConfigError, match="banana"):
        load_config(path)


def test_unknown_key_is_field_pathed(tmp_path):
    path = write(tmp_path, "[run]\nkind = esr\n[esr]\nloudness = 11\n")
    with pytest.raises(ConfigError, match="esr.loudness"):
        load_config(path)


def test_missing_required_key_names_field(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0\n[grid]\nt_end_us = 10.0\n",
    )
    with pytest.raises(ConfigError, match="grid.n_points"):
        load_config(path)


def test_bad_value_type_names_field(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = loud\n"
        "[manifolds]\ndetunings_mhz = 0.0\n"
        "[grid]\nt_end_us = 10.0\nn_points = 101\n",
    )
    with pytest.raises(ConfigError, match="drive.omega0_mhz"):
        load_config(path)


def test_bad_kind(tmp_path):
    path = write(tmp_path, "[run]\nkind = karaoke\n")
    with pytest.raises(ConfigError, match="run.kind"):
        load_config(path)


def test_zero_duration_grid_is_validation_error(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0\n"
        "[grid]\nt_start_us = 5.0\nt_end_us = 5.0\nn_points = 101\n",
    )
    with pytest.raises(ConfigError, match="grid"):
        load_config(path)


def test_explicit_weights(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0, 2.18\nweights = 0.25, 0.75\n"
        "[grid]\nt_end_us = 10.0\nn_points = 101\n",
    )
    cfg = load_config(path)
    assert [w for _, w in cfg.manifolds] == [0.25, 0.75]


def test_weights_must_sum_to_one(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0, 2.18\nweights = 0.25, 0.25\n"
        "[grid]\nt_end_us = 10.0\nn_points = 101\n",
    )
    with pytest.raises(ConfigError, match="manifolds"):
        load_config(path)


def test_overrides_apply_before_validation():
    cfg = load_config("paper-fig3", overrides={"drive.omega0_mhz": "30.0"})
    assert cfg.drive["omega0_mhz"] == 30.0
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config("paper-fig3", overrides={"drive.volume": "11"})


@pytest.mark.parametrize(
    "preset, field, value, match",
    [
        ("paper-fig2", "esr.f_stop_mhz", "-3.0", "esr.f_stop_mhz"),
        ("paper-fig2", "esr.n_points", "1", "esr.n_points"),
        ("imaging-default", "imaging.branch", "middle", "imaging.branch"),
        ("imaging-default", "imaging.emitter_x_um", "6.0", "imaging.emitter_x_um"),
        ("imaging-default", "imaging.gap_um", "0.0", "imaging: gap must be positive"),
        ("imaging-default", "imaging.t1_rho_us", "-5.0", "imaging.t1_rho_us"),
        ("paper-fig2", "esr.linewidth_fwhm_mhz", None,
         "esr.linewidth_fwhm_mhz: required for kind esr"),
    ],
)
def test_run_checks_name_the_field(tmp_path, preset, field, value, match):
    """Each case overrides one field of a preset; ``None`` removes it."""
    if value is None:
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(
            (resources.files("rabibeat") / "presets" / f"{preset}.ini").read_text()
        )
        assert parser.remove_option(*field.split("."))
        preset = tmp_path / "run.ini"
        with preset.open("w") as fh:
            parser.write(fh)
    with pytest.raises(ConfigError, match=match):
        load_config(preset, overrides={} if value is None else {field: value})
