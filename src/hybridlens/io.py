"""Deterministic artifact emission: CSV grids and JSON metadata.

Floats are written with 17 significant digits ("%.17g", C locale) so a
written-and-reloaded design is bit-equal to the original.  The CSV bytes
equal ``np.savetxt(fmt="%.17g", delimiter=",", comments="")``; the
writer formats each distinct 64-bit value of a column once, since grid
columns and symmetric designs repeat most of their values.
"""

import json
from pathlib import Path

import numpy as np


def _format_column(col):
    """The "%.17g" text of every value, formatting each bit pattern once.

    Keyed on the bits rather than the value so -0.0 keeps its sign.
    """
    bits, inverse = np.unique(col.view(np.int64), return_inverse=True)
    values = tuple(bits.view(np.float64).tolist())
    # one % over all values costs less than one % per value
    text = ("%.17g\n" * len(values) % values).splitlines()
    return np.array(text, dtype=object)[inverse].tolist()


def write_csv(path, header, columns):
    """Write named columns (equal-length 1-D arrays) as a CSV file."""
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must have equal length")
    rows = zip(*[_format_column(c) for c in columns])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def read_csv(path):
    """Read a CSV written by ``write_csv``; returns (header, dict of columns)."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, {name: data[:, i] for i, name in enumerate(header)}


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


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
        {"k": phase.k, "a": constants.a, "kappa2": constants.kappa2,
         "warnings": list(phase.warnings)},
    )


def load_design(in_dir):
    """Reload a design emitted by ``design_to_files`` (bit-equal grids)."""
    from .geometry import Grid2D
    from .imaging import LensDesign
    from .maps import BUILTIN_MAPS
    from .snell import OpticalConstants

    meta = read_json(Path(in_dir) / "design.json")
    _, cols = read_csv(Path(in_dir) / "rho.csv")
    shape = tuple(meta["grid"]["shape"])
    grid = Grid2D(
        x1=cols["x1"].reshape(shape)[:, 0],
        x2=cols["x2"].reshape(shape)[0, :],
    )
    constants = OpticalConstants(**meta["constants"])
    target_map = BUILTIN_MAPS[meta["map"]["name"]](meta["map"]["params"])
    drho = np.stack(
        [cols["drho1"].reshape(shape), cols["drho2"].reshape(shape)], axis=-1
    )
    return LensDesign(
        grid=grid,
        rho=cols["rho"].reshape(shape),
        z=cols["z"].reshape(shape),
        drho=drho,
        target_map=target_map,
        constants=constants,
        x0=np.asarray(meta["x0"], dtype=float),
        z0=float(meta["z0"]),
        path_residual=float(meta["path_residual"]),
    )


def load_phase(in_dir, shape):
    from .farfield import PhaseMap

    meta = read_json(Path(in_dir) / "phase.json")
    _, cols = read_csv(Path(in_dir) / "phase.csv")
    q = np.stack([cols["Q1"].reshape(shape), cols["Q2"].reshape(shape)], axis=-1)
    grad = np.stack(
        [cols["dphi_du1"].reshape(shape), cols["dphi_du2"].reshape(shape)], axis=-1
    )
    return PhaseMap(Q=q, phi=cols["phi"].reshape(shape), grad_tan=grad,
                    k=float(meta["k"]), warnings=list(meta["warnings"]))


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
