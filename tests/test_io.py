import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens import io
from hybridlens.errors import ConfigError
from hybridlens.farfield import PhaseMap, build_phase, midfield_vertical
from hybridlens.fields import vertical
from hybridlens.geometry import Grid2D
from hybridlens.imaging import LensDesign
from hybridlens.maps import dilation
from hybridlens.raytrace import TraceReport
from hybridlens.surfaces import from_design


@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_csv_round_trip_bit_stable(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "col.csv"
    io.write_csv(path, ["v"], [np.array(values)])
    _, cols = io.read_csv(path)
    # compare bits: array_equal counts -0.0 == 0.0 and misses a lost sign
    assert np.array_equal(cols["v"].view(np.int64),
                          np.array(values).view(np.int64))


@pytest.mark.parametrize("header", [["a"], ["a", "b"]], ids=len)
def test_csv_round_trip_with_no_rows(tmp_path, header):
    path = tmp_path / "empty.csv"
    io.write_csv(path, header, [[] for _ in header])
    assert path.read_text() == ",".join(header) + "\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        names, cols = io.read_csv(path)
    assert names == header and list(cols) == header
    for col in cols.values():
        assert col.shape == (0,) and col.dtype == float


def _assert_bytes_equal_savetxt(tmp, columns):
    header = [f"c{i}" for i in range(len(columns))]
    io.write_csv(tmp / "ours.csv", header, columns)
    np.savetxt(tmp / "savetxt.csv", np.column_stack(columns), fmt="%.17g",
               delimiter=",", header=",".join(header), comments="")
    assert (tmp / "ours.csv").read_bytes() == (tmp / "savetxt.csv").read_bytes()


WRITER_CASES = {
    "signed zeros": [np.array([0.0, -0.0, 0.0, -0.0, 1.0])],
    "nan and infinities": [np.array([np.nan, np.inf, -np.inf, np.nan, 2.5])],
    "subnormals": [np.array([5e-324, -5e-324, 5e-324, 0.0,
                             2.2250738585072014e-308])],
    "repeats": [np.repeat(np.linspace(-0.7, 0.7, 7), 7),
                np.tile(np.linspace(-0.7, 0.7, 7), 7),
                np.arange(49.0) / 3.0],
    "one row": [np.array([1.0 / 3.0]), np.array([-0.0]), np.array([np.pi])],
    "no rows": [np.array([]), np.array([])],
}


@pytest.mark.parametrize("columns", WRITER_CASES.values(), ids=WRITER_CASES)
def test_write_csv_bytes_equal_savetxt(tmp_path, columns):
    _assert_bytes_equal_savetxt(tmp_path, columns)


def _random_bit_patterns():
    """10**5 seeded 64-bit patterns, with the values that a random draw
    hits rarely or never appended: the ends of the subnormal range, a nan
    with the sign bit set, both infinities and both zeros."""
    rng = np.random.default_rng(20261019)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                        size=10**5, dtype=np.int64, endpoint=True)
    extra = [5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
             np.copysign(np.nan, -1.0), np.nan, np.inf, -np.inf, 0.0, -0.0]
    return np.concatenate([bits.view(np.float64), extra])


def _fixed_notation_bit_patterns():
    """10**5 seeded 64-bit patterns with random sign and mantissa bits and
    a biased exponent in [1009, 1076]: magnitudes from 2**-14 to 2**54,
    which span the array path's [1e-4, 1e16] and a little beyond."""
    rng = np.random.default_rng(20261020)
    size = 10**5
    sign = rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(1009, 1076, size=size, dtype=np.uint64,
                            endpoint=True) << np.uint64(52)
    mantissa = rng.integers(0, 2**52, size=size, dtype=np.uint64)
    return (sign | exponent | mantissa).view(np.float64)


def _powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, -powers])


def _ties():
    """Values m * 2**-k whose exact decimal has 18 significant digits, the
    last a 5, so that "%.17g" rounds a tie to even (2**-25 ->
    2.9802322387695312e-08)."""
    rng = np.random.default_rng(7)
    values = [2.0**-25]
    for k in range(2, 26):
        lo, hi = -(-10**17 // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
        m = rng.integers(lo, hi, size=40, endpoint=True) | 1
        values += [int(v) / 2**k for v in m if lo <= v <= hi]
    values = np.array(values)
    return np.concatenate([values, -values])


def _powers_of_ten():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    around = np.concatenate([tens, np.nextafter(tens, 0.0),
                             np.nextafter(tens, np.inf)])
    return np.concatenate([around, -around])


def _columns(values, width):
    values = values[:values.size // width * width]
    return list(values.reshape(-1, width).T)


ARRAY_CASES = {
    "random 64-bit patterns": lambda: _columns(_random_bit_patterns(), 4),
    "random fixed-notation patterns":
        lambda: _columns(_fixed_notation_bit_patterns(), 4),
    "powers of two": lambda: _columns(_powers_of_two(), 3),
    "ties m*2^k": lambda: _columns(_ties(), 2),
    "powers of ten and neighbours": lambda: _columns(_powers_of_ten(), 3),
}


@pytest.mark.parametrize("case", ARRAY_CASES)
def test_write_csv_bytes_equal_savetxt_on_hard_values(tmp_path, case):
    _assert_bytes_equal_savetxt(tmp_path, ARRAY_CASES[case]())


def test_ties_are_exact_halves():
    """Each value of the tie case lies exactly half way between two
    17-digit decimals."""
    from decimal import Decimal

    for v in _ties():
        digits = Decimal(float(v)).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, v


BLOCK_ROWS_OF_6 = io._BLOCK_VALUES // 6


@pytest.mark.parametrize("rows", [0, 1, BLOCK_ROWS_OF_6 - 1, BLOCK_ROWS_OF_6,
                                  BLOCK_ROWS_OF_6 + 1])
def test_write_csv_bytes_equal_savetxt_at_block_edges(tmp_path, rows):
    """Six columns, as in rho.csv: a block of 1024 rows."""
    rng = np.random.default_rng(rows)
    _assert_bytes_equal_savetxt(
        tmp_path, [rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 6)
                   for _ in range(6)])


@pytest.mark.parametrize("width", [1, 5, 17, io._BLOCK_VALUES + 1])
def test_write_csv_blocks_hold_a_fixed_number_of_values(tmp_path, width):
    """A block is max(1, _BLOCK_VALUES // width) rows, so a wide file is
    cut into blocks too; the bytes do not depend on where the cuts fall."""
    block = max(1, io._BLOCK_VALUES // width)
    rows = 2 * block + 1
    rng = np.random.default_rng(width)
    _assert_bytes_equal_savetxt(
        tmp_path, [rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 6)
                   for _ in range(width)])


POOL = [0.0, -0.0, 1.0, -1.0, 1.0 / 3.0, 0.1, np.nan, np.inf, -np.inf,
        5e-324, 1e308]


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(
            st.lists(st.sampled_from(POOL), min_size=width, max_size=width),
            min_size=1,
            max_size=40,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_write_csv_with_repeats_bytes_equal_savetxt(tmp_path_factory, rows):
    _assert_bytes_equal_savetxt(tmp_path_factory.mktemp("pool"),
                                [np.array(col) for col in zip(*rows)])


def test_fmt_17_significant_digits(tmp_path):
    path = tmp_path / "digits.csv"
    io.write_csv(path, ["third", "pi"], [np.array([1.0 / 3.0]), np.array([np.pi])])
    assert path.read_text() == "third,pi\n0.33333333333333331,3.1415926535897931\n"
    header, cols = io.read_csv(path)
    assert header == ["third", "pi"]
    assert cols["third"][0] == 1.0 / 3.0 and cols["pi"][0] == np.pi


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        io.write_csv(tmp_path / "bad.csv", ["a", "b"],
                     [np.arange(3.0), np.arange(4.0)])


@pytest.mark.parametrize("text", ["a,b\n1,2\n3\n", "a,b\n1,x\n",
                                  "a,b,c\n1,2\n3,4\n"])
def test_read_csv_rejects_a_malformed_file_naming_it(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="bad.csv"):
        io.read_csv(path)


@pytest.mark.parametrize("text, asked, why", [
    ("a,b\n1,2\n", {"header": ["b", "a"]}, "header 'a,b', expected 'b,a'"),
    ("a,b\n1,2\n", {"rows": 2}, "1 rows, expected 2"),
    ("a,b\n1,2\n", {"names": ["c"]}, "no column 'c'"),
    ("a,b\n1,2\n3,4", {}, "its last row is cut short"),
    ("a\n1\n\n2\n", {}, "a blank row"),
    ("a,b\n1,x\n", {"names": ["a"]}, "byte b'x' is not part of a number"),
    ("a,b\n1,2 \n", {"names": ["a"]}, "byte b' ' is not part of a number"),
    ("a,b\n1,2,3\n4,5\n", {"names": ["a"]}, "row 1 has 2 commas, expected 1"),
    ("a,b\n1,2\n4\n", {"names": ["a"]}, "row 2 has 0 commas, expected 1"),
    ("a,b\n1,2,3\n4\n", {"names": ["a"]}, "row 1 has 2 commas, expected 1"),
], ids=["header", "rows", "column", "cut", "blank", "letter", "space",
        "extra-comma", "missing-comma", "compensating-commas"])
def test_read_csv_checks_the_whole_file(tmp_path, text, asked, why):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"bad.csv: {why}")):
        io.read_csv(path, **asked)


def test_read_csv_parses_only_the_columns_asked_for(tmp_path):
    """A column that is not parsed is still checked byte by byte, but a
    number of the writer's bytes that does not parse, such as 1.2.3,
    passes there."""
    path = tmp_path / "cols.csv"
    path.write_text("a,b,c\n1.2.3,2,3\n4,5,6\n")
    header, cols = io.read_csv(path, ["a", "b", "c"], ["c", "b"], rows=2)
    assert header == ["a", "b", "c"] and list(cols) == ["c", "b"]
    assert np.array_equal(cols["c"], [3.0, 6.0])
    assert np.array_equal(cols["b"], [2.0, 5.0])
    with pytest.raises(ConfigError, match="cols.csv"):
        io.read_csv(path)


def test_json_round_trip(tmp_path):
    payload = {"b": [1.5, 2.5], "a": {"nested": True}}
    io.write_json(tmp_path / "x.json", payload)
    assert io.read_json(tmp_path / "x.json") == payload


def test_read_json_takes_an_integer_only_if_a_float_holds_it(tmp_path):
    largest = int(np.finfo(float).max)  # 309 digits
    path = tmp_path / "x.json"
    for value in (largest, -largest, 10**308, 0, -7):
        path.write_text(f"[{value}]")
        assert io.read_json(path) == [value]
    # past 4300 digits Python's int() refuses to parse the text at all
    for text in (str(largest + 1), str(-largest - 1), "1" + "0" * 309,
                 "-1" + "0" * 400, "1" + "0" * 5000):
        path.write_text(f'{{"z0": {text}}}')
        with pytest.raises(ConfigError, match=re.escape(f"{path}: an integer "
                                                        f"of")):
            io.read_json(path)


def _write_lens(design, constants, out):
    """Write the artifacts of ``design`` and its phase to ``out``; the phase."""
    mid = midfield_vertical(design.grid, design.rho, design.drho, constants)
    phase = build_phase(vertical(), mid, constants)
    io.design_to_files(design, out)
    io.phase_to_files(phase, out, constants)
    return phase


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_design_round_trip_bit_equal(dilation_design, constants, tmp_path):
    d = dilation_design
    _write_lens(d, constants, tmp_path)
    lens, loaded = io.load_lens(tmp_path, "fd_phase")
    assert _same_bits(lens.grid.x1, d.grid.x1)
    assert _same_bits(lens.grid.x2, d.grid.x2)
    assert loaded == d.constants
    assert lens.target_map.params == d.target_map.params
    # the face a trace sees is the one the design's own rho gives
    points = np.random.default_rng(3).uniform(-0.7, 0.7, (500, 2))
    assert _same_bits(lens.surface.height(points),
                      from_design(d).height(points))
    assert _same_bits(lens.surface.gradient(points),
                      from_design(d).gradient(points))
    _, cols = io.read_csv(tmp_path / "rho.csv",
                          sum(io.RHO_COLUMNS.values(), ()), rows=d.rho.size)
    assert np.array_equal(cols["rho"], d.rho.ravel())
    assert np.array_equal(cols["z"], d.z.ravel())
    assert np.array_equal(np.stack([cols["drho1"], cols["drho2"]], axis=-1),
                          d.drho.reshape(-1, 2))
    assert io.read_json(tmp_path / "design.json")["z0"] == d.z0


def test_phase_round_trip(dilation_design, constants, tmp_path):
    phase = _write_lens(dilation_design, constants, tmp_path)
    _, cols = io.read_csv(tmp_path / "phase.csv",
                          sum(io.PHASE_COLUMNS.values(), ()), rows=phase.phi.size)
    assert np.array_equal(cols["phi"], phase.phi.ravel())
    assert np.array_equal(np.stack([cols["Q1"], cols["Q2"]], axis=-1),
                          phase.Q.reshape(-1, 2))
    assert np.array_equal(
        np.stack([cols["dphi_du1"], cols["dphi_du2"]], axis=-1),
        phase.grad_tan.reshape(-1, 2))
    assert io.read_json(tmp_path / "phase.json")["k"] == constants.k


@pytest.mark.parametrize("mode, read, unread", [
    ("fd_phase", ["Q", "phi"], ["grad_tan"]),
    ("analytic", ["grad_tan"], ["Q", "phi"]),
])
def test_load_lens_reads_the_phase_of_its_mode_only(
        mode, read, unread, dilation_design, constants, tmp_path):
    phase = _write_lens(dilation_design, constants, tmp_path)
    lens, _ = io.load_lens(tmp_path, mode)
    for name in read:
        assert _same_bits(getattr(lens.phase, name), getattr(phase, name))
    for name in unread:
        assert getattr(lens.phase, name) is None
    assert lens.phase.warnings == list(phase.warnings)
    lens.phase_gradient(mode)
    other = "analytic" if mode == "fd_phase" else "fd_phase"
    with pytest.raises(ValueError, match=" and ".join(unread)):
        lens.phase_gradient(other)


def test_load_lens_rejects_an_unknown_mode(tmp_path):
    with pytest.raises(ValueError, match="unknown gradient mode 'fd'"):
        io.load_lens(tmp_path, "fd")


def _plain_design(grid, constants):
    """A design of constant rho on ``grid``: enough for the artifacts."""
    rho = np.full(grid.shape, 0.5)
    return LensDesign(grid=grid, rho=rho, z=constants.a - rho,
                      drho=np.zeros(grid.shape + (2,)),
                      target_map=dilation(0.2), constants=constants,
                      x0=np.zeros(2), z0=0.5)


def _plain_phase(grid):
    return PhaseMap(Q=np.stack(grid.meshgrid(), axis=-1),
                    phi=np.zeros(grid.shape), grad_tan=np.zeros(grid.shape + (2,)))


@pytest.mark.parametrize("n", [5, 31, 61, 101, 201])
def test_the_loaded_grid_is_the_stored_one_bit_for_bit(n, constants, tmp_path):
    grid = Grid2D.from_box(((-0.7, 0.7), (-0.7, 0.7)), n)
    io.design_to_files(_plain_design(grid, constants), tmp_path)
    io.phase_to_files(_plain_phase(grid), tmp_path, constants)
    lens, _ = io.load_lens(tmp_path, "analytic")
    _, cols = io.read_csv(tmp_path / "rho.csv",
                          sum(io.RHO_COLUMNS.values(), ()), ["x1", "x2"])
    x1, x2 = lens.grid.meshgrid()
    assert _same_bits(x1.ravel(), cols["x1"])
    assert _same_bits(x2.ravel(), cols["x2"])


def test_a_trace_report_leaves_out_only_targets_that_are_none(tmp_path):
    """No target map, no target columns; any other field must be there."""
    rows = np.arange(6.0).reshape(3, 2)
    directions = np.column_stack([rows, np.ones(3)])
    report = TraceReport(samples=rows, hits=directions,
                         mid_directions=directions, meta_points=rows,
                         exit_directions=directions, landings=rows)
    io.trace_report_to_files(report, tmp_path)
    header, cols = io.read_csv(tmp_path / "trace_report.csv")
    assert header == [name for field, names in io.TRACE_COLUMNS.items()
                      if field != "targets" for name in names]
    assert np.array_equal(np.column_stack([cols["w1"], cols["w2"], cols["w3"]]),
                          directions)
    with pytest.raises(TypeError):
        io.trace_report_to_files(replace(report, hits=None), tmp_path)
