import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridlens import io
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
    loaded = io.load_phase(tmp_path, d.grid.shape)
    assert np.array_equal(loaded.phi, phase.phi)
    assert np.array_equal(loaded.Q, phase.Q)
    assert np.array_equal(loaded.grad_tan, phase.grad_tan)
    assert loaded.k == phase.k
