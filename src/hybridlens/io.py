"""Artifacts: CSV grids and JSON metadata, written and read back.

Floats are written with 17 significant digits ("%.17g", C locale) so a
written-and-reloaded design is bit-equal to the original.  The CSV bytes
equal ``np.savetxt(fmt="%.17g", delimiter=",", comments="")``.  The
writer formats a block of about ``_BLOCK_VALUES`` values, as whole
rows, at a time:

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

``read_csv`` is the one reader.  It checks a file whole in one pass over
its bytes (the header is the writer's, each row holds the right number of
commas, and every byte is one the writer writes), then parses only the
columns it is asked for with ``np.loadtxt(usecols=...)``.  ``load_lens``
reads a design back for ``trace``: the grid from design.json's box and
shape, rho.csv's ``rho``, and only the phase.csv columns of the trace's
gradient mode.

``RHO_COLUMNS``, ``PHASE_COLUMNS`` and ``TRACE_COLUMNS`` are the one
record of which column of rho.csv, phase.csv and trace_report.csv holds
which array; ``_write_table`` and ``_read_table`` name columns only
through them.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import Grid2D

#: Values formatted per pass, as whole rows: max(1, _BLOCK_VALUES //
#: columns) rows.  It bounds the writer's temporary arrays whatever the
#: size and width of the file: at their peak about 390 bytes per value,
#: 200 of them the gather index, so about 2.4 MB per block.
_BLOCK_VALUES = 6144
#: Longest "%.17g" text of a float64: "-2.2250738585072014e-308".
_WIDTH = 24
#: The bytes of the numbers the writer writes; a row adds "," and "\n".
_NUMBER_BYTES = b"0123456789.-+einfa"
#: Bytes the reader checks per pass, so that it holds one chunk and the
#: file's separators, not the whole file (4.8 MB for a 201^2 rho.csv).
_READ_BYTES = 1 << 18

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
        block = max(1, _BLOCK_VALUES // len(columns))
        for start in range(0, columns[0].size, block):
            rows = np.stack([c[start:start + block] for c in columns], axis=1)
            fh.write(_format_block(rows, sep_words))


def _csv_problem(found, skeleton, n, cut, header, names, rows):
    """What makes a CSV of header ``found`` and ``n`` rows other than
    ``read_csv`` was asked for, or None.  ``skeleton`` is its rows with
    the bytes of numbers deleted; ``cut`` says the last row has no
    newline."""
    if header is not None and found != list(header):
        return f"header {','.join(found)!r}, expected {','.join(header)!r}"
    missing = [name for name in names if name not in found]
    if missing:
        return f"no column {missing[0]!r}"
    stray = skeleton.translate(None, b",\n")
    if stray:
        return f"byte {stray[:1]!r} is not part of a number"
    if cut:
        return "its last row is cut short"
    if rows is not None and n != rows:
        return f"{n} rows, expected {rows}"
    commas = len(found) - 1
    if skeleton != (b"," * commas + b"\n") * n:
        counts = [len(row) for row in skeleton.split(b"\n")]
        i = next(i for i, count in enumerate(counts) if count != commas)
        return f"row {i + 1} has {counts[i]} commas, expected {commas}"
    return None


def read_csv(path, header=None, names=None, rows=None):
    """Read a CSV written by ``write_csv``: (header, dict of columns).

    ``header`` is the writer's header, which the file's first line must
    spell; ``names`` the columns to parse (by default every column), and
    ``rows`` the number of rows the file must hold.  Whatever is parsed,
    the whole file is checked: every byte is one the writer writes, and
    each row holds (columns - 1) commas and ends in a newline.  A file
    that fails a check, or a parsed value that does not parse, raises
    ``ConfigError`` naming the file.  A file of the header alone gives
    empty columns.
    """
    with open(path, "rb") as fh:
        first = fh.readline()
        found = first.rstrip(b"\n").decode("ascii", errors="replace").split(",")
        names = found if names is None else list(names)
        pieces, last = [], b"\n"
        while chunk := fh.read(_READ_BYTES):
            pieces.append(chunk.translate(None, _NUMBER_BYTES))
            last = chunk[-1:]
        skeleton = b"".join(pieces)
        n = skeleton.count(b"\n")
        problem = _csv_problem(found, skeleton, n, last != b"\n", header,
                               names, rows)
        if problem is None and n:
            fh.seek(len(first))
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2,
                                  usecols=[found.index(name) for name in names])
            except ValueError as exc:
                problem = str(exc)
            else:  # np.loadtxt skips a blank row, which only one column hides
                if data.shape[0] != n:
                    problem = "a blank row"
    if problem is not None:
        raise ConfigError(f"malformed CSV {path}: {problem}")
    if not n:
        return found, {name: np.empty(0) for name in names}
    return found, {name: data[:, i] for i, name in enumerate(names)}


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _json_int(text):
    """A JSON integer as an int, refused if it is too large for a float."""
    # JSON has no leading zeros, so a text longer than a sign and the
    # largest float's 309 digits is too large without parsing it (int()
    # refuses texts past 4300 digits)
    if len(text) > 310 or abs(int(text)) > sys.float_info.max:
        raise ValueError(f"an integer of {len(text.lstrip('-'))} digits is "
                         f"too large for a float")
    return int(text)


def read_json(path):
    """The JSON value in a file.  A file that cannot be read, is not
    UTF-8 JSON, or holds an integer too large for a float raises
    ``ConfigError`` naming it; a missing file, ``FileNotFoundError``."""
    try:
        return json.loads(Path(path).read_text(), parse_int=_json_int)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # also bad UTF-8, and _json_int's refusal
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


#: The columns of each CSV: for each field of the object written, its
#: column names, in the order they are written.  A field of one column
#: is an array of the grid's shape, a field of k columns one of shape
#: (..., k) split along its last axis.  rho.csv's "nodes" are its grid's.
RHO_COLUMNS = {"nodes": ("x1", "x2"), "rho": ("rho",), "z": ("z",),
               "drho": ("drho1", "drho2")}
PHASE_COLUMNS = {"Q": ("Q1", "Q2"), "phi": ("phi",),
                 "grad_tan": ("dphi_du1", "dphi_du2")}
TRACE_COLUMNS = {"samples": ("x1", "x2"), "hits": ("hit1", "hit2", "hit3"),
                 "mid_directions": ("m1", "m2", "m3"),
                 "meta_points": ("Q1", "Q2"),
                 "exit_directions": ("w1", "w2", "w3"),
                 "landings": ("land1", "land2"),
                 "targets": ("target1", "target2")}


def _write_table(path, table, fields):
    """Write ``fields`` (field -> array) as the columns of ``table``, in
    one ``write_csv`` call."""
    header, columns = [], []
    for field, names in table.items():
        array = fields[field]
        header += names
        columns += ([array.ravel()] if len(names) == 1 else
                    [array[..., i].ravel() for i in range(len(names))])
    write_csv(path, header, columns)


def _read_table(path, table, fields, shape):
    """The arrays of ``fields`` of a CSV that ``_write_table`` wrote from
    ``table`` over a grid of ``shape``; ``read_csv`` checks it whole."""
    _, cols = read_csv(path, sum(table.values(), ()),
                       sum((table[field] for field in fields), ()),
                       shape[0] * shape[1])
    read = {}
    for field in fields:
        parts = [cols[name].reshape(shape) for name in table[field]]
        read[field] = parts[0] if len(parts) == 1 else np.stack(parts, axis=-1)
    return read


def design_to_files(design, out_dir):
    """Emit rho.csv (grids) and design.json (metadata) for a lens design;
    design.json stores the grid as its box and shape."""
    grid = design.grid
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "rho.csv", RHO_COLUMNS,
                 {"nodes": grid.nodes(), **vars(design)})
    c = design.constants
    write_json(
        out / "design.json",
        {
            "kind": "imaging",
            "constants": {"n1": c.n1, "n2": c.n2, "n3": c.n3, "k": c.k,
                          "a": c.a, "c": c.c},
            "map": {"name": design.target_map.name,
                    "params": design.target_map.params or {}},
            "grid": {"box": [list(grid.box[0]), list(grid.box[1])],
                     "shape": list(grid.shape)},
            "x0": [float(design.x0[0]), float(design.x0[1])],
            "z0": design.z0,
            "path_residual": design.path_residual,
        },
    )


def phase_to_files(phase, out_dir, constants):
    """Emit phase.csv with a JSON header file describing the metasurface."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_table(out / "phase.csv", PHASE_COLUMNS, vars(phase))
    write_json(
        out / "phase.json",
        {"k": constants.k, "a": constants.a, "kappa2": constants.kappa2,
         "warnings": list(phase.warnings)},
    )


def _load_design(in_dir):
    """The design of design.json and rho.csv's ``rho``, on the grid of
    design.json's box and shape; ``z`` and ``drho`` are None.  A
    design.json that does not describe a design raises ``ConfigError``
    naming it."""
    from .config import read_constants, read_map, read_number, read_x0
    from .imaging import LensDesign

    path = Path(in_dir) / "design.json"
    meta = read_json(path)
    try:
        if meta["kind"] != "imaging":
            raise ConfigError(f"kind must be 'imaging', got {meta['kind']!r}")
        grid = Grid2D(meta["grid"]["box"], meta["grid"]["shape"])
        read = dict(
            constants=read_constants(meta["constants"]),
            target_map=read_map(meta["map"]),
            x0=read_x0(meta["x0"]),
            z0=read_number(meta["z0"], "z0"),
            path_residual=read_number(meta["path_residual"], "path_residual"),
        )
    except KeyError as exc:
        raise ConfigError(f"bad design {path}: no key {exc}") from exc
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad design {path}: {exc}") from exc
    rho = _read_table(Path(in_dir) / "rho.csv", RHO_COLUMNS, ["rho"],
                      grid.shape)["rho"]
    return LensDesign(grid=grid, rho=rho, z=None, drho=None, **read)


def _load_phase(in_dir, shape, constants, fields):
    """The phase of phase.json and of the phase.csv columns of ``fields``;
    the other fields are None.  A phase.json that is not an object with
    a "warnings" list, or whose "k", "a" and "kappa2" are not those of
    ``constants``, raises ``ConfigError`` naming it."""
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
    read = _read_table(Path(in_dir) / "phase.csv", PHASE_COLUMNS, fields,
                       shape)
    return PhaseMap(**{field: read.get(field) for field in PHASE_COLUMNS},
                    warnings=meta["warnings"])


def load_lens(in_dir, mode):
    """The ``TraceableLens`` and ``OpticalConstants`` of the artifacts of
    ``design_to_files`` and ``phase_to_files`` in ``in_dir``, read for a
    trace in gradient ``mode`` ("fd_phase" or "analytic").

    design.json and phase.json are read and checked whole, and the grid
    is rebuilt from design.json's box and shape.  Of the CSVs only what
    the trace uses is parsed: rho.csv's ``rho``, and the phase.csv
    columns of the ``PhaseMap`` fields that ``mode`` reads, though
    ``read_csv`` checks each file whole.  The other phase fields are
    None.  A damaged artifact raises ``ConfigError`` naming it.
    """
    from .raytrace import PHASE_FIELDS, TraceableLens

    if mode not in PHASE_FIELDS:
        raise ValueError(f"unknown gradient mode {mode!r}")
    design = _load_design(in_dir)
    phase = _load_phase(in_dir, design.grid.shape, design.constants,
                        PHASE_FIELDS[mode])
    return TraceableLens.from_design(design, phase), design.constants


def trace_report_to_files(report, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table = TRACE_COLUMNS
    if report.targets is None:  # a trace with no target map to land on
        table = {f: names for f, names in table.items() if f != "targets"}
    _write_table(out / "trace_report.csv", table, vars(report))
    write_json(out / "trace_aggregates.json", report.aggregates)
