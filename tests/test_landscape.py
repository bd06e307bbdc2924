"""Landscape rasters: file IO, fuel catalog, synthesis, acreage ratio."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfire.asciigrid import read_ascii_grid, write_ascii_grid
from gridfire.errors import InvalidInputError
from gridfire.geo import GeoPoint, RasterFrame
from gridfire.landscape import (
    ACRES_PER_SQUARE_METER,
    LAYER_FILES,
    FuelCatalog,
    FuelModel,
    SynthSpec,
    _running_mean,
    cell_acreage,
    default_catalog,
    load_catalog,
    load_landscape,
    synth_landscape,
    write_catalog,
    write_landscape,
)

ORIGIN = GeoPoint(37.85, -120.10)


def _flat_spec(n=10, **kw):
    kw.setdefault("slope_deg", 0.0)
    kw.setdefault("aspect_deg", 0.0)
    return SynthSpec(nrows=n, ncols=n, cell_size=kw.pop("cell_size", 30.0),
                     origin=ORIGIN, fuel_id=kw.pop("fuel_id", 1), **kw)


# ------------------------------------------------------------- ascii grids


def test_ascii_grid_round_trip(tmp_path):
    data = np.array([[1.5, -2.0, 3.25], [0.0, 7.0, -9999.0]])
    frame = RasterFrame(nrows=2, ncols=3, origin=GeoPoint(37.85, -120.1), cell_size=30.0)
    path = tmp_path / "layer.asc"
    write_ascii_grid(path, frame, -9999.0, data)
    back_frame, back_nodata, back = read_ascii_grid(path)
    assert back_frame == frame
    assert back_nodata == -9999.0
    np.testing.assert_array_equal(back, data)


def test_ascii_grid_rows_stored_south_up(tmp_path):
    # file is north row first; in memory row 0 is the south edge
    path = tmp_path / "g.asc"
    path.write_text(
        "ncols 2\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\n"
        "cellsize 10.0\nNODATA_value -9999\n"
        "3 4\n1 2\n"
    )
    _, _, data = read_ascii_grid(path)
    np.testing.assert_array_equal(data, [[1.0, 2.0], [3.0, 4.0]])


def test_ascii_grid_shape_mismatch(tmp_path):
    path = tmp_path / "g.asc"
    path.write_text(
        "ncols 3\nnrows 2\nxllcorner 0.0\nyllcorner 0.0\n"
        "cellsize 10.0\nNODATA_value -9999\n"
        "1 2 3\n"
    )
    with pytest.raises(InvalidInputError):
        read_ascii_grid(path)


# ------------------------------------------------------------- fuel catalog


def test_default_catalog_shape():
    cat = default_catalog()
    assert cat.non_burnable_id == 0
    assert not cat.lookup(0).burnable
    assert {cat.lookup(i).burnable for i in (1, 2, 3)} == {True}
    assert cat.lookup(1).base_ros > cat.lookup(2).base_ros > cat.lookup(3).base_ros


def test_catalog_lookup_unknown_id():
    with pytest.raises(InvalidInputError, match="99"):
        default_catalog().lookup(99)


def test_catalog_round_trip(tmp_path):
    cat = default_catalog()
    path = tmp_path / "fuels.csv"
    write_catalog(cat, path)
    back = load_catalog(path)
    assert back.non_burnable_id == cat.non_burnable_id
    assert set(back.models) == set(cat.models)
    for i in cat.models:
        assert back.lookup(i) == cat.lookup(i)


def test_catalog_rejects_bad_header(tmp_path):
    path = tmp_path / "fuels.csv"
    path.write_text("id,name,flammable\n0,rock,0\n")
    with pytest.raises(InvalidInputError):
        load_catalog(path)


def test_catalog_row_error_names_row(tmp_path):
    path = tmp_path / "fuels.csv"
    path.write_text(
        "id,name,burnable,base_ros_m_min,wind_coeff,wind_exp,moisture_exp\n"
        "0,rock,0,0,0,0,0\n"
        "1,grass,1,fast,0.4,1.0,1.0\n"
    )
    with pytest.raises(InvalidInputError, match="row 3"):
        load_catalog(path)


def test_catalog_row_error_names_the_file_line(tmp_path):
    """Blank lines are skipped but counted."""
    path = tmp_path / "fuels.csv"
    path.write_text(
        "id,name,burnable,base_ros_m_min,wind_coeff,wind_exp,moisture_exp\n"
        "0,rock,0,0,0,0,0\n"
        "\n"
        "1,grass,1,-15.0,0.4,1.0,1.0\n"
    )
    with pytest.raises(InvalidInputError, match=r"fuels.csv: row 4: fuel 1: negative base_ros"):
        load_catalog(path)


@pytest.mark.parametrize("row, message", [
    ("1,grass,1,inf,0.4,1.0,1.0", "fuel 1: base_ros must be finite and >= 0, got inf"),
    ("0,rock,0,nan,0,0,0", "fuel 0: base_ros must be finite and >= 0, got nan"),
], ids=["inf", "nan-non-burnable"])
def test_catalog_refuses_a_base_ros_that_is_not_finite(tmp_path, row, message):
    """An infinite base_ros would make every edge of the fuel free; a NaN
    one on a non-burnable fuel passes the burnable-flag check unnoticed."""
    path = tmp_path / "fuels.csv"
    path.write_text(
        "id,name,burnable,base_ros_m_min,wind_coeff,wind_exp,moisture_exp\n"
        f"{row}\n"
        "2,shrub,1,8.0,0.3,1.0,1.2\n"
    )
    with pytest.raises(InvalidInputError, match=re.escape(f"fuels.csv: row 2: {message}")):
        load_catalog(path)


def test_fuel_model_burnable_consistency():
    with pytest.raises(InvalidInputError):
        FuelModel(id=4, name="odd", burnable=True, base_ros=0.0,
                  wind_coeff=0.0, wind_exp=0.0, moisture_exp=0.0)
    with pytest.raises(InvalidInputError):
        FuelCatalog(models={1: FuelModel(1, "grass", True, 15.0, 0.4, 1.0, 1.0)},
                    non_burnable_id=0)


# ------------------------------------------------------------- acreage


def test_cell_acreage_30m():
    land = synth_landscape(_flat_spec())
    assert abs(cell_acreage(land) - 0.22240) < 1e-5
    assert cell_acreage(land) == 900.0 * ACRES_PER_SQUARE_METER


def test_cell_acreage_one_acre_cell():
    land = synth_landscape(_flat_spec(cell_size=63.6149))
    assert abs(cell_acreage(land) - 1.0) < 1e-4


def test_cell_size_must_be_positive():
    with pytest.raises(InvalidInputError):
        synth_landscape(_flat_spec(cell_size=0.0))


@given(s=st.floats(0.5, 500.0))
def test_cell_acreage_quadratic(s):
    land1 = synth_landscape(_flat_spec(n=2, cell_size=s))
    land2 = synth_landscape(_flat_spec(n=2, cell_size=2.0 * s))
    assert cell_acreage(land2) == pytest.approx(4.0 * cell_acreage(land1), rel=1e-12)


# ------------------------------------------------------------- synthesis


def test_uniform_spec_is_constant():
    land = synth_landscape(_flat_spec(slope_deg=12.0, aspect_deg=45.0, fuel_id=2))
    assert np.all(land.slope == 12.0)
    assert np.all(land.aspect == 45.0)
    assert np.all(land.fuel == 2)


def test_synth_deterministic():
    a = synth_landscape(_flat_spec(seed=7, elevation_relief=50.0, slope_deg=None))
    b = synth_landscape(_flat_spec(seed=7, elevation_relief=50.0, slope_deg=None))
    np.testing.assert_array_equal(a.slope, b.slope)
    np.testing.assert_array_equal(a.aspect, b.aspect)


def test_gradient_slope_matches_finite_difference():
    # 0.1 m rise per meter eastward: slope atan(0.1), downslope facing west
    spec = SynthSpec(nrows=12, ncols=12, cell_size=30.0, origin=ORIGIN,
                     elevation_gradient=(0.1, 0.0), fuel_id=1)
    land = synth_landscape(spec)
    expect = math.degrees(math.atan(0.1))
    assert expect == pytest.approx(5.710593137, abs=1e-6)
    np.testing.assert_allclose(land.slope[1:-1, 1:-1], expect, atol=1e-9)
    np.testing.assert_allclose(land.aspect[1:-1, 1:-1], 270.0, atol=1e-9)


def test_running_mean_equals_scipy_uniform_filter1d():
    """`_running_mean` is scipy.ndimage.uniform_filter1d with mode
    "nearest", bit for bit: every window size 1-40 along both axes of
    random arrays, windows longer than the line among them."""
    from scipy.ndimage import uniform_filter1d

    rng = np.random.default_rng(11)
    for k in range(1, 41):
        a = rng.standard_normal(tuple(rng.integers(1, 41, size=2))) * 10.0 ** rng.integers(-3, 4)
        for axis in (0, 1):
            want = uniform_filter1d(a, size=k, axis=axis, mode="nearest")
            assert _running_mean(a, k, axis).tobytes() == want.tobytes(), (k, axis, a.shape)


def test_fuel_mix_fractions_exact():
    mix = ((1, 0.50), (2, 0.30), (0, 0.20))
    spec = SynthSpec(nrows=40, ncols=40, cell_size=30.0, origin=ORIGIN,
                     fuel_mix=mix, patch_cells=5.0)
    land = synth_landscape(spec)
    counts = {int(i): int((land.fuel == i).sum()) for i, _ in mix}
    assert counts == {1: 800, 2: 480, 0: 320}


# ------------------------------------------------------------- load/write


def test_landscape_round_trip(tmp_path):
    land = synth_landscape(_flat_spec(n=8, elevation_relief=40.0, slope_deg=None,
                                      fuel_mix=((1, 0.7), (0, 0.3))))
    d = tmp_path / "land"
    write_landscape(land, d)
    assert sorted(p.name for p in d.glob("*.asc")) == [
        "aspect.asc", "fuel.asc", "slope.asc"]
    back = load_landscape(d, catalog=land.catalog)
    assert back.frame == land.frame
    for name in LAYER_FILES:
        np.testing.assert_array_equal(getattr(back, name), getattr(land, name),
                                      err_msg=name)


def test_extra_layer_files_are_ignored(tmp_path):
    """An eight-file landscape directory (the three layers, four constant
    canopy bands and a stale elevation grid) loads as the three files
    alone do. A NODATA cell in the elevation grid is not read, so the
    cell keeps the fuel that fuel.asc gives it."""
    land = synth_landscape(_flat_spec(n=8, elevation_relief=40.0, slope_deg=None,
                                      fuel_mix=((1, 0.7), (0, 0.3))))
    three, eight = tmp_path / "three", tmp_path / "eight"
    write_landscape(land, three)
    write_landscape(land, eight)
    frame, nodata, _ = read_ascii_grid(eight / "fuel.asc")
    r, c = np.argwhere(land.burnable_mask())[0]
    elevation = np.full((frame.nrows, frame.ncols), 650.0)
    elevation[r, c] = nodata
    for name, data in (("canopy_cover", 35.0), ("canopy_height", 14.0),
                       ("canopy_base", 2.5), ("canopy_density", 0.11),
                       ("elevation", elevation)):
        write_ascii_grid(eight / f"{name}.asc", frame, nodata,
                         np.broadcast_to(data, (frame.nrows, frame.ncols)).astype(np.float64))
    assert len(list(eight.glob("*.asc"))) == 8
    a = load_landscape(three, catalog=land.catalog)
    b = load_landscape(eight, catalog=land.catalog)
    assert a.frame == b.frame
    for name in LAYER_FILES:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert b.fuel[r, c] == land.fuel[r, c] != land.catalog.non_burnable_id


def test_load_missing_layer(tmp_path):
    land = synth_landscape(_flat_spec(n=4))
    d = tmp_path / "land"
    write_landscape(land, d)
    (d / "aspect.asc").unlink()
    with pytest.raises(InvalidInputError, match="aspect.asc"):
        load_landscape(d, catalog=land.catalog)


def test_load_inconsistent_geometry(tmp_path):
    land = synth_landscape(_flat_spec(n=4))
    d = tmp_path / "land"
    write_landscape(land, d)
    frame, nodata, data = read_ascii_grid(d / "slope.asc")
    write_ascii_grid(d / "slope.asc", replace(frame, cell_size=frame.cell_size * 2.0),
                     nodata, data)
    with pytest.raises(InvalidInputError, match="slope"):
        load_landscape(d, catalog=land.catalog)


def test_load_unknown_fuel_id(tmp_path):
    land = synth_landscape(_flat_spec(n=4))
    d = tmp_path / "land"
    write_landscape(land, d)
    frame, nodata, data = read_ascii_grid(d / "fuel.asc")
    data = data.copy()
    data[2, 2] = 99.0
    write_ascii_grid(d / "fuel.asc", frame, nodata, data)
    with pytest.raises(InvalidInputError, match="99"):
        load_landscape(d, catalog=land.catalog)


@pytest.mark.parametrize("layer", ["slope.asc", "fuel.asc"])
@pytest.mark.parametrize("nodata", [-9999.0, math.nan], ids=["nodata=-9999", "nodata=nan"])
def test_nodata_cells_become_non_burnable(tmp_path, layer, nodata):
    """A cell holding its layer's NODATA value, nan included where the
    header says `NODATA_value nan`, loads as non-burnable flat ground."""
    land = synth_landscape(_flat_spec(n=4, slope_deg=10.0))
    d = tmp_path / "land"
    write_landscape(land, d)
    frame, _, data = read_ascii_grid(d / layer)
    data = data.copy()
    data[1, 1] = nodata
    write_ascii_grid(d / layer, frame, nodata, data)
    back = load_landscape(d, catalog=land.catalog)
    assert back.fuel[1, 1] == back.catalog.non_burnable_id
    assert back.slope[1, 1] == 0.0
    # untouched cells keep their values
    assert back.fuel[0, 0] == 1
    assert back.slope[0, 0] == 10.0


def test_slope_range_validated():
    with pytest.raises(InvalidInputError):
        synth_landscape(_flat_spec(slope_deg=95.0))
    with pytest.raises(InvalidInputError):
        synth_landscape(_flat_spec(aspect_deg=360.0))


# (layer file, header key or "cell", value, message); {file} is the layer
# file's path and {dir} the landscape directory.
BAD_GRIDS = [
    pytest.param("slope.asc", "ncols", "128.6", "{file}: ncols 128.6 is not a whole number",
                 id="ncols-128.6"),
    pytest.param("slope.asc", "ncols", "nan", "{file}: ncols nan is not a whole number",
                 id="ncols-nan"),
    pytest.param("slope.asc", "ncols", "1e400", "{file}: ncols inf is not a whole number",
                 id="ncols-1e400"),
    pytest.param("slope.asc", "xllcorner", "200", "{file}: longitude 200.0 outside [-180, 180]",
                 id="xllcorner-200"),
    pytest.param("slope.asc", "cellsize", "1e308", "{file}: raster extent of 4x4 cells not finite",
                 id="cellsize-1e308"),
    *[pytest.param("fuel.asc", "cell", v,
                   f"{{file}}: fuel code {float(v)!r} in row 2 (row 0 is the south edge), "
                   "column 1 is not a whole number in the int64 range", id=f"fuel-{v}")
      for v in ("1.4", "nan", "inf", "1e30")],
    pytest.param("slope.asc", "cell", "95", "{dir}: slope values outside [0, 90)", id="slope-95"),
]


@pytest.mark.parametrize("fname, key, value, message", BAD_GRIDS)
def test_bad_grid_is_invalid_input_named_by_its_file(tmp_path, fname, key, value, message):
    """A header that is not a valid frame, or a cell value a layer cannot
    hold, raises InvalidInputError naming where it is, without a numpy
    warning: a count or a fuel code is never truncated or rounded."""
    land = synth_landscape(_flat_spec(n=4))
    d = tmp_path / "land"
    write_landscape(land, d)
    lines = (d / fname).read_text().splitlines()
    if key == "cell":  # file line 7 is the second row from the north: row 2
        cells = lines[7].split()
        cells[1] = value
        lines[7] = " ".join(cells)
    else:
        lines = [f"{key} {value}" if line.split()[0] == key else line for line in lines]
    (d / fname).write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError) as err:
            load_landscape(d, catalog=land.catalog)
    assert str(err.value) == message.format(file=d / fname, dir=d)
