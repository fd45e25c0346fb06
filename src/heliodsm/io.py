"""CSV and JSON serialization for Cauchy data, indicator fields, and results.

File formats
------------
cauchy.csv
    One row per measurement point:
    x1..xN, nu1..nuN, weight, u_re, u_im, dnu_re, dnu_im,
    u_noisy_re, u_noisy_im, dnu_noisy_re, dnu_noisy_im.
    With zero noise the noisy columns repeat the clean ones.
indicator_<ell>.csv
    One row per grid point, in grid order (first axis fastest):
    z1..zN, abs, re, im.
reconstruction.csv
    One row per recovered group:
    group, components ('|'-separated), z1..zN (centroid), lambda_re,
    lambda_im, eta1_re, eta1_im, .., magnitude, kind.  lambda and eta are
    the boundary-fit read-offs of `locator` (read at the group's strongest
    members, not at the centroid; all groups fitted jointly).
run.json
    Parameters, seed, input-data fingerprint (data_sha256), timings,
    thread count.  Timings vary run to run, so determinism guarantees cover
    the CSV files only.

Floats are written with shortest round-trip precision, byte for byte the
text of Python's repr (rendered for whole columns by `_text.write_rows`;
the short reconstruction table calls repr itself), so a file read back
reproduces the in-memory values exactly; rows end in "\r\n".
`write_indicator_csv` writes one field; a run writes one file per field.
Text that recurs from write to write is rendered once per process as a
`_text.write_rows` row lead (`_lead_table`: one row of `write_rows` text
per entry, each ended by ',' and NUL-padded to the longest) and held
read-only in the process-wide LRU of setup-only tables (`geometry._held`):
* a grid's coordinates (`_grid_lead`), keyed by the grid and its bounds'
  bytes: every axis but the last in grid order, padded at the front, and
  the last axis, padded at the back, so each row's coordinates reach the
  compaction as one run of text;
* cauchy.csv's 2N+5 leading columns (points, normals, weights and the
  clean traces), keyed by those columns' bytes, so a write under any
  noise seed renders only the four noisy columns after it.
The indicator abs column is hypot(re, im), i.e. Python's abs(complex), which
can differ by 1 ulp from IndicatorField.magnitude() (np.abs, used for peaks).
"""

from __future__ import annotations

import csv
import json
from io import BytesIO
from pathlib import Path

import numpy as np

from . import _text
from .forward import CauchyData
from .geometry import MeasurementSurface, SamplingGrid, _held
from .indicators import IndicatorField
from .locator import Reconstruction

__all__ = [
    "write_cauchy_csv",
    "read_cauchy_csv",
    "write_indicator_csv",
    "read_indicator_csv",
    "write_reconstruction_csv",
    "read_reconstruction_csv",
    "write_run_json",
]


def _header(names) -> bytes:
    return (",".join(names) + "\r\n").encode()


def write_cauchy_csv(path, clean: CauchyData, noisy: CauchyData | None = None) -> None:
    """Write clean and noisy data on one measurement surface (the clean data
    twice without noisy); noisy data on another surface raise ValueError."""
    noisy = noisy if noisy is not None else clean
    surf = clean.surface
    if noisy.surface is not surf and (noisy.surface._bytes, noisy.surface.radius) != (surf._bytes, surf.radius):
        raise ValueError("the noisy data lie on another measurement surface than the clean data")
    n = surf.dims
    header = (
        [f"x{i+1}" for i in range(n)]
        + [f"nu{i+1}" for i in range(n)]
        + ["weight", "u_re", "u_im", "dnu_re", "dnu_im",
           "u_noisy_re", "u_noisy_im", "dnu_noisy_re", "dnu_noisy_im"]
    )
    lead_columns = [*surf.points.T, *surf.normals.T, surf.weights, *_parts(clean.dirichlet, clean.neumann)]
    key = ("cauchy", n, *surf._bytes, clean.dirichlet.tobytes(), clean.neumann.tobytes())
    lead = _held(key, lambda: (_lead_table(lead_columns), np.empty((1, 0), np.uint8)))
    with open(path, "wb") as fh:
        fh.write(_header(header))
        _text.write_rows(fh, _parts(noisy.dirichlet, noisy.neumann), lead=lead)


def _parts(*traces) -> list[np.ndarray]:
    return [part for z in traces for part in (z.real, z.imag)]


def _lead_table(columns, front: bool = False) -> np.ndarray:
    """The `write_rows` text of the float `columns` as a row-lead table: one
    row per entry, its "\r\n" made ',', NUL-padded to the longest row at
    the back, or at the `front`."""
    text = BytesIO()
    _text.write_rows(text, columns)
    rows = text.getvalue().replace(b"\r\n", b",\n").splitlines()
    width = max(map(len, rows))
    pad = bytes.rjust if front else bytes.ljust
    return np.frombuffer(b"".join(pad(r, width, b"\0") for r in rows), np.uint8).reshape(len(rows), width)


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Header fields and float body of a CSV written here; errors name the file."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        body = fh.tell()
        if not fh.readline().strip():  # loadtxt would only warn
            raise ValueError(f"{path} holds no data rows")
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # ragged rows and non-numbers; rows count from 1 after the header
            raise ValueError(f"{path} body: {exc}") from None
    if data.shape[1] != len(header):
        raise ValueError(f"{path} rows do not match the {len(header)}-column header")
    return header, data


def read_cauchy_csv(path, radius: float) -> tuple[CauchyData, CauchyData]:
    """Load (clean, noisy) Cauchy data written by write_cauchy_csv."""
    header, data = _read_table(path)
    dims = sum(1 for h in header if h.startswith("x"))
    if dims not in (2, 3) or len(header) != 2 * dims + 9:
        raise ValueError(f"{path} does not have a cauchy.csv header")
    points = data[:, :dims]
    normals = data[:, dims : 2 * dims]
    weights = data[:, 2 * dims]
    c = 2 * dims + 1
    try:
        surf = MeasurementSurface(dims=dims, points=points, normals=normals, weights=weights, radius=radius)
    except ValueError as exc:  # such as points off the config's radius
        raise ValueError(f"{path}: {exc}") from None
    clean = CauchyData(
        surface=surf,
        dirichlet=data[:, c] + 1j * data[:, c + 1],
        neumann=data[:, c + 2] + 1j * data[:, c + 3],
    )
    noisy = CauchyData(
        surface=surf,
        dirichlet=data[:, c + 4] + 1j * data[:, c + 5],
        neumann=data[:, c + 6] + 1j * data[:, c + 7],
    )
    return clean, noisy


def _indicator_header(dims: int) -> list[str]:
    return [f"z{i+1}" for i in range(dims)] + ["abs", "re", "im"]


def write_indicator_csv(path, field: IndicatorField) -> None:
    """Write one field as an indicator CSV; its grid's coordinate texts are
    rendered once per process and held (see `_grid_lead`)."""
    v, grid = field.values, field.grid
    # equal grids can differ in the sign of a zero bound, which the text shows
    lead = _held(("grid", np.array([grid.lower, grid.upper]).tobytes(), grid), lambda: _grid_lead(grid))
    with open(path, "wb") as fh:
        fh.write(_header(_indicator_header(grid.dims)))
        _text.write_rows(fh, [np.hypot(v.real, v.imag), v.real, v.imag], lead=lead)


def _grid_lead(grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """The `_text.write_rows` lead (prefix, last) that starts row r with grid point r's coordinates.

    Grid order is first axis fastest, so row r is prefix[r % P] then
    last[r // P], P points per last-axis slice: `prefix` holds the texts
    of the other axes' coordinates in grid order, padded at the front, and
    `last` those of the last axis, padded at the back, so a row's
    coordinates are one run of text between NUL bytes.
    """
    *lead_axes, last = grid.axes()
    prefix = _lead_table([m.ravel(order="F") for m in np.meshgrid(*lead_axes, indexing="ij")], front=True)
    return prefix, _lead_table([last])


def read_indicator_csv(path, grid: SamplingGrid, component: int) -> IndicatorField:
    """Load one field that write_indicator_csv wrote on `grid`; a file with
    another header or other points raises ValueError."""
    n = grid.dims
    header, data = _read_table(path)
    if header != _indicator_header(n):
        raise ValueError(f"{path} does not have the indicator header of a {n}D grid")
    if len(data) != len(grid) or not np.array_equal(data[:, :n], grid.points):
        raise ValueError(f"{path} rows are not the points of {grid}")
    values = data[:, n + 1] + 1j * data[:, n + 2]
    return IndicatorField(grid=grid, component=component, values=values)


def write_reconstruction_csv(path, recon: Reconstruction) -> None:
    dims = recon.dims
    header = (
        ["group", "components"]
        + [f"z{i+1}" for i in range(dims)]
        + ["lambda_re", "lambda_im"]
        + [f"eta{i+1}_{p}" for i in range(dims) for p in ("re", "im")]
        + ["magnitude", "kind"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for gi, g in enumerate(recon.groups):
            lam = g.lambda_estimate if g.lambda_estimate is not None else 0j
            eta = g.eta_estimate if g.eta_estimate is not None else np.zeros(dims, complex)
            values = [*g.centroid, lam.real, lam.imag, *(part for v in eta for part in (v.real, v.imag))]
            values.append(max(p.magnitude for p in g.members))
            components = "|".join(str(c) for c in g.components)
            writer.writerow([str(gi), components, *(repr(float(v)) for v in values), g.kind or ""])


def read_reconstruction_csv(path) -> list[dict]:
    """Rows of the reconstruction table as dicts with parsed numerics."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for r in rows:
        dims = sum(1 for key in r if key.startswith("z"))
        entry = {
            "group": int(r["group"]),
            "components": tuple(int(c) for c in r["components"].split("|") if c != ""),
            "centroid": np.array([float(r[f"z{i+1}"]) for i in range(dims)]),
            "lambda": complex(float(r["lambda_re"]), float(r["lambda_im"])),
            "eta": np.array(
                [complex(float(r[f"eta{i+1}_re"]), float(r[f"eta{i+1}_im"])) for i in range(dims)]
            ),
            "magnitude": float(r["magnitude"]),
            "kind": r["kind"],
        }
        out.append(entry)
    return out


def write_run_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
