import configparser
import re
from importlib import resources
from pathlib import Path

import pytest

from rabibeat.config import (
    KINDS, SCHEMA, ConfigError, _typed, load_config, preset_names,
)
from rabibeat.evolve import DecayModel


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
    assert list(cfg.manifolds.detunings) == [0.0, 2.18, 4.36]
    imaging = load_config("imaging-default")
    assert imaging.geometry.gap == 10.0
    assert imaging.geometry.drive_scale == 20.0


def test_unknown_config_name():
    with pytest.raises(ConfigError, match="neither a file nor a bundled preset"):
        load_config("does-not-exist")


def test_directory_does_not_shadow_preset(tmp_path, monkeypatch):
    (tmp_path / "paper-fig3").mkdir()
    monkeypatch.chdir(tmp_path)
    assert load_config("paper-fig3").kind == "rabi-single"


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
        "[grid]\nt_end_us = 10.0\nn_points = 1001\n",
    )
    cfg = load_config(path)
    assert list(cfg.manifolds.weights) == [0.25, 0.75]


def test_weights_must_sum_to_one(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0, 2.18\nweights = 0.25, 0.25\n"
        "[grid]\nt_end_us = 10.0\nn_points = 101\n",
    )
    with pytest.raises(ConfigError, match="manifolds"):
        load_config(path)


def test_sections_the_kind_does_not_use_are_not_built(tmp_path):
    path = write(
        tmp_path,
        "[run]\nkind = analyze\n[analyze]\nmode = single\n"
        "[manifolds]\nweights = equal\n[grid]\nt_end_us = 10.0\n",
    )
    cfg = load_config(path)
    assert cfg.manifolds is None and cfg.grid is None
    # a stray section is not built, so its own checks do not apply
    path = write(
        tmp_path,
        "[run]\nkind = esr\n[esr]\ntransitions_mhz = 0.0\ncontrasts = 0.1\n"
        "linewidth_fwhm_mhz = 0.8\nf_start_mhz = -1.0\nf_stop_mhz = 1.0\n"
        "n_points = 101\n[decay]\nkind = exponential\n",
    )
    assert load_config(path).decay is None
    path = write(
        tmp_path,
        "[run]\nkind = rabi-single\n[drive]\nomega0_mhz = 22.2\n"
        "[manifolds]\ndetunings_mhz = 0.0\n[grid]\nt_end_us = 10.0\n"
        "n_points = 1001\n[drift]\nkind = linear\nn_sweeps = 3\n",
    )
    cfg = load_config(path)
    assert cfg.drift is None and cfg.n_sweeps is None
    assert cfg.decay == DecayModel()


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
        ("paper-fig3", "drive.omega0_mhz", "nan", "drive.omega0_mhz: must be finite"),
        ("paper-fig3", "manifolds.detunings_mhz", "0.0,inf",
         "manifolds.detunings_mhz: must be finite"),
        ("drift-demo", "drift.sigma_relative", "-inf",
         "drift.sigma_relative: must be finite"),
        ("paper-fig3", "manifolds.weights", "nan,0.5,0.5",
         "manifolds.weights: must be finite"),
        ("paper-fig3", "manifolds.weights", "0.5,0.25",
         "manifolds.weights: 3 detunings but 2 weights"),
        ("paper-fig4", "analyze.window", "blackman",
         "analyze.window: must be one of rectangular, hann, got 'blackman'"),
        ("paper-fig4", "analyze.zero_pad", "0", "analyze.zero_pad: must be >= 1, got 0"),
        ("imaging-default", "imaging.map_points", "1",
         "imaging.map_points: must be >= 2, got 1"),
        ("paper-fig2", "esr.linewidth_fwhm_mhz", "-1",
         "esr.linewidth_fwhm_mhz: must be > 0, got -1.0"),
        ("paper-fig2", "esr.contrasts", "0.12,2,0.12",
         r"esr.contrasts: must be in \(0, 1\], got 2.0"),
        ("paper-fig2", "esr.contrasts", "0.12,0.12",
         "esr.contrasts: 2 contrasts for 3 transitions"),
        ("paper-fig3", "drive.omega0_mhz", "-1", "drive.omega0_mhz: must be > 0"),
        ("paper-fig7", "drive.lambda_mhz", "0", "drive.lambda_mhz: must be > 0"),
        ("paper-fig7", "manifolds.detunings_mhz", "0,-1",
         "manifolds.detunings_mhz: half-splittings must be >= 0, got -1.0"),
        ("imaging-default", "grid.n_points", "101",
         "grid.n_points: 101 samples over 40 us reach a Nyquist frequency of "
         "1.25 MHz, not above the left branch's highest Rabi frequency 48.01 MHz"),
        ("imaging-default", "grid.t_end_us", "4000",
         "grid.n_points: 12001 samples over 4000 us"),
        ("paper-fig3", "drift.n_sweeps", "2",
         r"drift.n_sweeps: kind rabi-single does not read \[drift\]"),
        ("imaging-default", "decay.t1_rho_us", "1",
         r"decay.t1_rho_us: kind imaging-demo does not read \[decay\]"),
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


@pytest.mark.parametrize(
    "preset, resolved, aliased, top",
    [
        # hypot(22.2, 4.36): the detuned line, not the drive, is highest
        ("paper-fig3", 1361, 1341, "22.62"),
        # 2 sqrt(2 lambda^2 + 4.1^2)
        ("paper-fig7", 2581, 2561, "42.79"),
    ],
)
def test_simulate_grid_must_resolve_the_highest_line(preset, resolved, aliased, top):
    load_config(preset, overrides={"grid.n_points": str(resolved)})
    with pytest.raises(
        ConfigError,
        match=rf"^grid.n_points: {aliased} samples over 30 us reach a Nyquist "
        rf"frequency of .* MHz, not above the trace's highest line {top} MHz$",
    ):
        load_config(preset, overrides={"grid.n_points": str(aliased)})


def readme_configuration():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]


def test_readme_schema_table_matches_schema():
    rows, section = set(), None
    for line in readme_configuration().splitlines():
        cells = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
        if not line.startswith("|") or cells[0] == "section" or "---" in cells[0]:
            continue
        section = cells[0] or section
        rows.add((section, *cells[1:5]))
    declared = {
        (section, key, tag, ", ".join(allowed) if isinstance(allowed, tuple)
         else allowed or "", "" if default is None else str(default))
        for section, keys in SCHEMA.items()
        for key, (tag, _, allowed, default) in keys.items()
    }
    assert rows == declared


def test_readme_kind_list_matches_kinds():
    text = readme_configuration().split("fields it requires:\n\n", 1)[1]
    listed = {}
    for item in text.split("\n\n", 1)[0].split("\n- "):
        names, reads = item.split(":", 1)
        kinds, command = names.split("(")
        for kind in re.findall(r"`([\w-]+)`", kinds):
            listed[kind] = (command.strip("`) "), re.findall(r"`\[(\w+)\]`", reads))
    assert listed == {kind: (command, list(reads))
                      for kind, (command, reads) in KINDS.items()}


def test_defaults_pass_their_own_field_checks():
    for section, keys in SCHEMA.items():
        for key, (_, _, _, default) in keys.items():
            if default is not None:
                assert _typed(section, key, str(default)) == default
