import numpy as np
import pytest
from hypothesis import given, strategies as st

from rabibeat.imaging import (
    FIELDMAP_COLUMNS,
    FIELDMAP_HEADER,
    FieldMap,
    WaveguideGeometry,
    field_profile,
    oscillation_count,
    position_from_rabi,
    rabi_at,
    resolution_budget,
    resolution_from_count,
)
from rabibeat.traces import read_columns

finite = dict(allow_nan=False, allow_infinity=False)

GEOM = WaveguideGeometry(gap=10.0, drive_scale=20.0)


def test_field_profile_midpoint_normalized():
    assert field_profile(GEOM, 5.0) == pytest.approx(1.0, rel=1e-12)
    assert rabi_at(GEOM, 5.0) == pytest.approx(20.0, rel=1e-12)


@given(x=st.floats(0.0, 10.0, **finite))
def test_field_profile_mirror_symmetric(x):
    a = field_profile(GEOM, x)
    b = field_profile(GEOM, GEOM.gap - x)
    assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_field_profile_rises_toward_edges():
    x = np.linspace(0.0, 5.0, 101)
    profile = field_profile(GEOM, x)
    assert np.all(np.diff(profile) < 0)
    assert profile[0] > profile[-1]


def test_field_profile_rejects_outside_gap():
    with pytest.raises(ValueError):
        field_profile(GEOM, -0.1)
    with pytest.raises(ValueError):
        field_profile(GEOM, 10.1)


def test_field_map_branches():
    left = FieldMap.from_model(GEOM, n_points=101, branch="left")
    right = FieldMap.from_model(GEOM, n_points=101, branch="right")
    assert not left.increasing
    assert right.increasing
    assert left.positions[0] == 0.0
    assert left.positions[-1] == pytest.approx(5.0)
    assert right.positions[0] == pytest.approx(5.0)
    assert right.positions[-1] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        FieldMap.from_model(GEOM, branch="middle")


def test_field_map_csv_round_trip(tmp_path):
    fmap = FieldMap.from_model(GEOM, n_points=33, branch="left")
    path = fmap.to_csv(tmp_path / "map.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# rabibeat-fieldmap v1"
    assert lines[2] == "position_um,rabi_MHz"
    (positions, rabi), comments = read_columns(path, FIELDMAP_HEADER, FIELDMAP_COLUMNS)
    loaded = FieldMap(positions, rabi, comments)
    assert np.allclose(loaded.positions, fmap.positions, rtol=1e-12)
    assert np.allclose(loaded.rabi, fmap.rabi, rtol=1e-12)
    assert loaded.meta["model"] == fmap.meta["model"]
    again = loaded.to_csv(tmp_path / "again.csv")
    assert again.read_bytes() == path.read_bytes()


@given(
    gap=st.floats(1.0, 100.0, **finite),
    rabi=st.floats(0.1, 3000.0, **finite),
    t1=st.floats(0.1, 2000.0, **finite),
)
def test_resolution_identity(gap, rabi, t1):
    # counting oscillations then converting equals the direct formula
    via_count = resolution_from_count(gap, oscillation_count(rabi, t1))
    direct = 1000.0 * gap / (t1 * rabi)
    assert abs(via_count - direct) <= 1e-12 * direct


def test_resolution_reference_points():
    assert resolution_from_count(10.0, 1.0e6) == pytest.approx(0.01, rel=1e-12)
    high_field = oscillation_count(2880.0, 1000.0)
    assert resolution_from_count(10.0, high_field) == pytest.approx(
        0.003472222, rel=1e-6
    )
    assert oscillation_count(22.2, 25.0) == pytest.approx(555.0, rel=1e-12)


def test_resolution_budget_fields():
    budget = resolution_budget(10.0, 22.2, 25.0)
    assert budget.n_oscillations == pytest.approx(555.0)
    assert budget.delta_x_nm == pytest.approx(1000.0 * 10.0 / 555.0)
    assert budget.stability_required == pytest.approx(1.0 / 555.0)


def test_position_from_rabi_exact_at_grid_nodes():
    # the left branch falls with x and the right one rises, so each takes
    # its own side of the fmap.increasing split
    for branch, increasing in (("left", False), ("right", True)):
        fmap = FieldMap.from_model(GEOM, n_points=101, branch=branch)
        assert fmap.increasing is increasing
        for i in (3, 40, 77):
            loc = position_from_rabi(float(fmap.rabi[i]), fmap)
            assert loc.position == pytest.approx(fmap.positions[i], abs=1e-12)


def test_position_from_rabi_uncertainty_scales_with_resolvable():
    fmap = FieldMap.from_model(GEOM, n_points=201, branch="left")
    target = float(rabi_at(GEOM, 3.0))
    narrow = position_from_rabi(target, fmap, resolvable_mhz=0.1)
    wide = position_from_rabi(target, fmap, resolvable_mhz=0.5)
    assert narrow.uncertainty > 0
    assert wide.uncertainty == pytest.approx(5 * narrow.uncertainty, rel=1e-6)


def test_position_from_rabi_out_of_range():
    fmap = FieldMap.from_model(GEOM, n_points=51, branch="left")
    with pytest.raises(ValueError):
        position_from_rabi(1.0, fmap)


def test_geometry_validation():
    with pytest.raises(ValueError):
        WaveguideGeometry(gap=-1.0)
    with pytest.raises(ValueError):
        WaveguideGeometry(gap=10.0, edge_cutoff=0.0)
