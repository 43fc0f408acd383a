import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens import io
from hybridlens.errors import ConfigError
from hybridlens.farfield import build_phase, midfield_vertical
from hybridlens.fields import vertical


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


@pytest.mark.parametrize("rows", [0, 1, io._BLOCK_ROWS - 1, io._BLOCK_ROWS,
                                  io._BLOCK_ROWS + 1])
def test_write_csv_bytes_equal_savetxt_at_block_edges(tmp_path, rows):
    rng = np.random.default_rng(rows)
    _assert_bytes_equal_savetxt(
        tmp_path, [rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 6)
                   for _ in range(3)])


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


def test_json_round_trip(tmp_path):
    payload = {"b": [1.5, 2.5], "a": {"nested": True}}
    io.write_json(tmp_path / "x.json", payload)
    assert io.read_json(tmp_path / "x.json") == payload


def test_design_round_trip_bit_equal(dilation_design, tmp_path):
    io.design_to_files(dilation_design, tmp_path)
    loaded = io.load_design(tmp_path)
    assert np.array_equal(loaded.rho, dilation_design.rho)
    assert np.array_equal(loaded.z, dilation_design.z)
    assert np.array_equal(loaded.drho, dilation_design.drho)
    assert np.array_equal(loaded.grid.x1, dilation_design.grid.x1)
    assert loaded.constants == dilation_design.constants
    assert loaded.target_map.params == dilation_design.target_map.params
    assert loaded.z0 == dilation_design.z0


def test_phase_round_trip(dilation_design, constants, tmp_path):
    d = dilation_design
    mid = midfield_vertical(d.grid, d.rho, d.drho, constants)
    phase = build_phase(vertical(), mid, constants)
    io.phase_to_files(phase, tmp_path, constants)
    loaded = io.load_phase(tmp_path, d.grid.shape, constants)
    assert np.array_equal(loaded.phi, phase.phi)
    assert np.array_equal(loaded.Q, phase.Q)
    assert np.array_equal(loaded.grad_tan, phase.grad_tan)
    assert io.read_json(tmp_path / "phase.json")["k"] == constants.k
