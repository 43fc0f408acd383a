"""Deterministic artifact emission: CSV grids and JSON metadata.

Floats are written with 17 significant digits ("%.17g", C locale) so a
written-and-reloaded design is bit-equal to the original.  The CSV bytes
equal ``np.savetxt(fmt="%.17g", delimiter=",", comments="")``.  The
writer formats a block of rows at a time:

- digits: each value with 1e-4 <= |x| <= 1e16, which "%.17g" writes in
  fixed notation, takes array code.  Its decimal exponent ``p`` lies in
  [-4, 16], so the scaling ``10**(16 - p)`` is an exact double, Dekker's
  product gives ``x * 10**(16 - p)`` exactly, and ``np.rint`` rounds it
  to the 17-digit integer ``D``, a tie half to even as Python does.
  Every other value (zeros, infinities, nan, the magnitudes written in
  exponent notation), and one whose ``p`` does not settle after one
  correction, is formatted by Python's ``%``, as ``np.savetxt`` does;
- layout: each value is gathered into a fixed-width byte row from a
  pattern keyed by its sign, ``p`` and count of significant digits, or
  by the length of Python's text;
- rows: the separator follows each value's text, and one boolean mask
  keeps the valid bytes of the block.
"""

import functools
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError

#: Rows formatted per pass.  It bounds the writer's temporary arrays
#: whatever the size of the file: at their peak about 390 bytes per value,
#: 200 of them the gather index, so 2.4 MB for a block of a 6-column file.
_BLOCK_ROWS = 1024
#: Longest "%.17g" text of a float64: "-2.2250738585072014e-308".
_WIDTH = 24

# Columns of the 32-byte source row from which each value's text is
# gathered.  Columns 0-15 hold digits 2-17 of the value, or, for a value
# formatted by Python, its text (at most _WIDTH bytes, so it ends before
# _SEP).  Digits are written 4 bytes at a time, and the separator with
# the constants as one more 4-byte word.
_LEAD = 16           # the first digit
_SEP = 24            # "," or "\n"
_CONSTANTS = b"-.0"
_MINUS, _DOT, _ZERO = range(_SEP + 1, _SEP + 1 + len(_CONSTANTS))
_SOURCE_WIDTH = 32

#: Magnitudes the array path takes: "%.17g" writes them in fixed
#: notation, and each scaling 10**(16 - p) is an exact double.
_LOWEST, _HIGHEST = 1e-4, 1e16
_P_MIN, _P_MAX = -4, 16          # their decimal exponents

# Layout modes.  Modes 0-20 are fixed notation with exponent p = mode - 4.
_PYTHON = _P_MAX - _P_MIN + 1    # Python's text; its count is its length
_MODES = _PYTHON + 1
_COUNTS = _WIDTH + 1             # also the width of a laid-out value
_VELTKAMP = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp's split of ``a`` into two halves of at most 26 bits."""
    t = _VELTKAMP * a
    hi = t - (t - a)
    return hi, a - hi


def _layout(sign, mode, count):
    """The source columns that spell one value of the given key."""
    if mode == _PYTHON:
        return list(range(count))
    digits = [_LEAD, *range(16)]
    p = mode + _P_MIN
    if p < 0:
        cols = [_ZERO, _DOT] + [_ZERO] * (-p - 1) + digits[:count]
    else:
        cols = digits[:p + 1]
        if count > p + 1:
            cols += [_DOT] + digits[p + 1:count]
    return [_MINUS] * sign + cols


def _layouts():
    """Rows of source columns and of the bytes to keep, one per key
    (sign * _MODES + mode) * _COUNTS + count.  Each text is followed by
    the separator, which also fills the rest of its row."""
    patterns = np.full((2, _MODES, _COUNTS, _COUNTS), _SEP, dtype=np.intp)
    lengths = np.zeros((2, _MODES, _COUNTS, 1), dtype=np.intp)
    for sign in (0, 1):
        for mode in range(_MODES):
            for count in range(1, _COUNTS if mode == _PYTHON else 18):
                cols = _layout(sign, mode, count)
                patterns[sign, mode, count, :len(cols)] = cols
                lengths[sign, mode, count] = len(cols)
    keep = np.arange(_COUNTS) <= lengths
    return patterns.reshape(-1, _COUNTS), keep.reshape(-1, _COUNTS)


def _four_digit_tables():
    """For g in [0, 10**4): its 4 ASCII digits as one uint32, and the
    length of "%04d" % g without its trailing zeros."""
    g = np.arange(10**4)
    digits = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0"))
    trailing = sum(g % 10**k == 0 for k in range(1, 5))
    return digits.astype(np.uint8).view(np.uint32).ravel(), 4 - trailing


@functools.cache
def _tables():
    """The writer's constant tables, built on its first call (a few ms)
    so that importing the package does not pay for them.  The first is
    10**q for q in [0, 16 - _P_MIN], each exact."""
    pow10 = np.array([float(10**q) for q in range(16 - _P_MIN + 1)])
    tables = (pow10, *_layouts(), *_four_digit_tables())
    for table in tables:
        table.flags.writeable = False  # shared by every later call
    return tables


def _scaled(pow10, a, p):
    """``D = round(a * 10**(16 - p))`` (int64) and ``V - D`` (float),
    ``V`` the exact product."""
    b = np.take(pow10, 16 - p)
    ah, al = _split(a)
    bh, bl = _split(b)
    ph = a * b
    pl = ((ah * bh - ph) + ah * bl + al * bh) + al * bl  # a * b == ph + pl
    # |ph| >= 2**53 wherever the result is kept, so ph is an even integer
    near = np.rint(pl)
    return ph.astype(np.int64) + near.astype(np.int64), pl - near


def _below(d, frac):
    """The scaled value is under 10**16: p was one too large."""
    return (d < 10**16) | (d == 10**16) & (frac < 0)


def _digits(pow10, a):
    """For each a in [_LOWEST, _HIGHEST]: the decimal exponent p and the
    17-digit integer D (int64) of its "%.17g" text, and whether p did
    not settle after one correction."""
    p = np.clip(np.floor(np.log10(a)), _P_MIN, _P_MAX).astype(np.int64)
    d, frac = _scaled(pow10, a, p)
    off = np.flatnonzero(_below(d, frac) | (d > 10**17))
    unsettled = np.zeros(a.size, dtype=bool)
    if off.size:
        p[off] += np.where(d[off] > 10**17, 1, -1)
        d[off], frac[off] = _scaled(pow10, a[off], p[off])
        unsettled[off] = _below(d[off], frac[off]) | (d[off] > 10**17)
    carry = d == 10**17  # rounding up reached the next power of ten
    d[carry] = 10**16
    return p + carry, d, unsettled


def _format_block(x, sep_words):
    """The text of rows ``x`` (2-D), each value "%.17g" and followed by
    the separator of its column.  ``sep_words`` holds, per column, its
    separator and then _CONSTANTS as one uint32."""
    pow10, patterns, keep, digits4, significant4 = _tables()
    n = x.size
    flat = x.ravel()
    mag = np.abs(flat)
    fast = (mag >= _LOWEST) & (mag <= _HIGHEST)
    p, d, unsettled = _digits(pow10, np.where(fast, mag, 1.0))

    head = (d // 10**8).astype(np.int32)  # the first 9 digits
    tail = (d - head.astype(np.int64) * 10**8).astype(np.int32)
    top, g2 = np.divmod(head, 10**4)
    lead, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(tail, 10**4)
    # count: the significant digits of D, its trailing zeros dropped
    count = np.take(significant4, g1)
    for shift, g in ((4, g2), (8, g3), (12, g4)):
        count = np.where(g != 0, shift + np.take(significant4, g), count)
    count += 1

    src = np.empty((n, _SOURCE_WIDTH), dtype=np.uint8)
    words = src.view(np.uint32)
    for i, g in enumerate((g1, g2, g3, g4)):
        words[:, i] = np.take(digits4, g)
    src[:, _LEAD] = lead + ord("0")
    words[:, _SEP // 4] = np.tile(sep_words, n // sep_words.size)

    mode = p - _P_MIN
    sign = np.signbit(flat)
    python = np.flatnonzero(~fast | unsettled)
    if python.size:
        text = ("%-24.17g" * python.size % tuple(flat[python].tolist())).encode()
        text = np.frombuffer(text, dtype=np.uint8).reshape(-1, _WIDTH)
        src[python, :_WIDTH] = text
        mode[python] = _PYTHON
        sign[python] = False
        count[python] = np.count_nonzero(text != ord(" "), axis=1)

    key = (sign * _MODES + mode) * _COUNTS + count
    # np.take: far faster than fancy indexing for these gathers
    index = np.take(patterns, key, axis=0)
    index += np.arange(0, n * _SOURCE_WIDTH, _SOURCE_WIDTH)[:, None]
    return np.take(src, index)[np.take(keep, key, axis=0)].tobytes()


def write_csv(path, header, columns):
    """Write named columns (equal-length 1-D arrays) as a CSV file."""
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must have equal length")
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    sep_words = np.frombuffer(b"".join(s + _CONSTANTS for s in seps), dtype=np.uint32)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, columns[0].size, _BLOCK_ROWS):
            rows = np.stack([c[start:start + _BLOCK_ROWS] for c in columns], axis=1)
            fh.write(_format_block(rows, sep_words))


def read_csv(path):
    """Read a CSV written by ``write_csv``; returns (header, dict of columns).

    A file whose rows do not parse, or do not match its header, raises
    ``ConfigError`` naming the file.  A file of the header alone gives
    empty columns.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = fh.tell()
        if not fh.readline():
            return header, {name: np.empty(0) for name in header}
        fh.seek(rows)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"malformed CSV {path}: {exc}") from exc
    if data.size and data.shape[1] != len(header):
        raise ConfigError(f"malformed CSV {path}: {data.shape[1]} columns "
                          f"under a header of {len(header)}")
    return header, {name: data[:, i] for i, name in enumerate(header)}


def _read_grid(path, names, shape):
    """The columns ``names`` of a CSV, each reshaped to the grid ``shape``;
    ``ConfigError`` naming the file if it lacks a column or a row."""
    _, cols = read_csv(path)
    missing = [name for name in names if name not in cols]
    if missing:
        raise ConfigError(f"malformed CSV {path}: no column {missing[0]!r}")
    rows = cols[names[0]].size
    if rows != shape[0] * shape[1]:
        raise ConfigError(f"malformed CSV {path}: {rows} rows, expected "
                          f"{shape[0]}x{shape[1]} = {shape[0] * shape[1]}")
    return {name: cols[name].reshape(shape) for name in names}


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    """The JSON value in a file; ``ConfigError`` naming it if it does not parse."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def design_to_files(design, out_dir):
    """Emit rho.csv (grids) and design.json (metadata) for a lens design."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nodes = design.grid.nodes()
    write_csv(
        out / "rho.csv",
        ["x1", "x2", "rho", "z", "drho1", "drho2"],
        [
            nodes[:, 0],
            nodes[:, 1],
            design.rho.ravel(),
            design.z.ravel(),
            design.drho[..., 0].ravel(),
            design.drho[..., 1].ravel(),
        ],
    )
    c = design.constants
    write_json(
        out / "design.json",
        {
            "kind": "imaging",
            "constants": {"n1": c.n1, "n2": c.n2, "n3": c.n3, "k": c.k,
                          "a": c.a, "c": c.c},
            "map": {"name": design.target_map.name,
                    "params": design.target_map.params or {}},
            "grid": {"box": [list(design.grid.box[0]), list(design.grid.box[1])],
                     "shape": list(design.grid.shape)},
            "x0": [float(design.x0[0]), float(design.x0[1])],
            "z0": design.z0,
            "path_residual": design.path_residual,
        },
    )


def phase_to_files(phase, out_dir, constants):
    """Emit phase.csv with a JSON header file describing the metasurface."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "phase.csv",
        ["Q1", "Q2", "phi", "dphi_du1", "dphi_du2"],
        [
            phase.Q[..., 0].ravel(),
            phase.Q[..., 1].ravel(),
            phase.phi.ravel(),
            phase.grad_tan[..., 0].ravel(),
            phase.grad_tan[..., 1].ravel(),
        ],
    )
    write_json(
        out / "phase.json",
        {"k": constants.k, "a": constants.a, "kappa2": constants.kappa2,
         "warnings": list(phase.warnings)},
    )


def load_design(in_dir):
    """Reload a design emitted by ``design_to_files`` (bit-equal grids).

    The constants and the map are read as a config's are; a design.json
    that does not describe a design raises ``ConfigError`` naming it.
    """
    from .config import read_constants, read_map
    from .geometry import Grid2D
    from .imaging import LensDesign

    path = Path(in_dir) / "design.json"
    meta = read_json(path)
    try:
        shape = meta["grid"]["shape"]
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n >= 2 for n in shape)):
            raise ConfigError(f"grid.shape must be two node counts >= 2, "
                              f"got {shape!r}")
        read = dict(
            constants=read_constants(meta["constants"]),
            target_map=read_map(meta["map"]),
            x0=np.asarray(meta["x0"], dtype=float),
            z0=float(meta["z0"]),
            path_residual=float(meta["path_residual"]),
        )
    except KeyError as exc:
        raise ConfigError(f"bad design {path}: no key {exc}") from exc
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad design {path}: {exc}") from exc
    cols = _read_grid(Path(in_dir) / "rho.csv",
                      ["x1", "x2", "rho", "z", "drho1", "drho2"], shape)
    return LensDesign(grid=Grid2D(x1=cols["x1"][:, 0], x2=cols["x2"][0, :]),
                      rho=cols["rho"], z=cols["z"],
                      drho=np.stack([cols["drho1"], cols["drho2"]], axis=-1),
                      **read)


def load_phase(in_dir, shape, constants):
    """Reload a phase emitted by ``phase_to_files`` on a grid of ``shape``;
    a phase.json that is not an object with a "warnings" list, or whose
    "k", "a" and "kappa2" are not those of ``constants``, raises
    ``ConfigError`` naming it."""
    from .farfield import PhaseMap

    path = Path(in_dir) / "phase.json"
    meta = read_json(path)
    if not (isinstance(meta, dict) and isinstance(meta.get("warnings"), list)):
        raise ConfigError(f"bad phase {path}: not an object with a "
                          f"'warnings' list")
    for name in ("k", "a", "kappa2"):  # JSON round-trips floats exactly
        if meta.get(name) != getattr(constants, name):
            raise ConfigError(
                f"bad phase {path}: {name} = {meta.get(name)!r}, but the "
                f"design's is {getattr(constants, name)!r}")
    cols = _read_grid(Path(in_dir) / "phase.csv",
                      ["Q1", "Q2", "phi", "dphi_du1", "dphi_du2"], shape)
    q = np.stack([cols["Q1"], cols["Q2"]], axis=-1)
    grad = np.stack([cols["dphi_du1"], cols["dphi_du2"]], axis=-1)
    return PhaseMap(Q=q, phi=cols["phi"], grad_tan=grad,
                    warnings=meta["warnings"])


def trace_report_to_files(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = [
        "x1", "x2", "hit1", "hit2", "hit3", "m1", "m2", "m3",
        "Q1", "Q2", "w1", "w2", "w3", "land1", "land2",
    ]
    columns = [
        report.samples[:, 0], report.samples[:, 1],
        report.hits[:, 0], report.hits[:, 1], report.hits[:, 2],
        report.mid_directions[:, 0], report.mid_directions[:, 1],
        report.mid_directions[:, 2],
        report.meta_points[:, 0], report.meta_points[:, 1],
        report.exit_directions[:, 0], report.exit_directions[:, 1],
        report.exit_directions[:, 2],
        report.landings[:, 0], report.landings[:, 1],
    ]
    if report.targets is not None:
        header += ["target1", "target2"]
        columns += [report.targets[:, 0], report.targets[:, 1]]
    write_csv(out / "trace_report.csv", header, columns)
    write_json(out / "trace_aggregates.json", report.aggregates)
