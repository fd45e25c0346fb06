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
text of Python's repr (rendered for whole arrays by `_text`), so a file read
back reproduces the in-memory values exactly; rows end in "\r\n".
`write_indicator_csvs` writes all of a run's indicator fields and renders
the coordinates of their grid once; `write_indicator_csv` is its one-field
case.
The indicator abs column is hypot(re, im), i.e. Python's abs(complex), which
can differ by 1 ulp from IndicatorField.magnitude() (np.abs, used for peaks).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import _text
from .forward import CauchyData
from .geometry import MeasurementSurface, SamplingGrid
from .indicators import IndicatorField
from .locator import Reconstruction

__all__ = [
    "write_cauchy_csv",
    "read_cauchy_csv",
    "write_indicator_csv",
    "write_indicator_csvs",
    "read_indicator_csv",
    "write_reconstruction_csv",
    "read_reconstruction_csv",
    "write_run_json",
]


def _header(names) -> bytes:
    return (",".join(names) + "\r\n").encode()


def write_cauchy_csv(path, clean: CauchyData, noisy: CauchyData | None = None) -> None:
    noisy = noisy if noisy is not None else clean
    surf = clean.surface
    n = surf.dims
    header = (
        [f"x{i+1}" for i in range(n)]
        + [f"nu{i+1}" for i in range(n)]
        + ["weight", "u_re", "u_im", "dnu_re", "dnu_im",
           "u_noisy_re", "u_noisy_im", "dnu_noisy_re", "dnu_noisy_im"]
    )
    columns = [*surf.points.T, *surf.normals.T, surf.weights]
    for z in (clean.dirichlet, clean.neumann, noisy.dirichlet, noisy.neumann):
        columns += [z.real, z.imag]
    with open(path, "wb") as fh:
        fh.write(_header(header))
        _text.write_rows(fh, columns)


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
    surf = MeasurementSurface(dims=dims, points=points, normals=normals, weights=weights, radius=radius)
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


def write_indicator_csvs(paths, fields) -> None:
    """Write each field to its path as an indicator CSV.

    Each grid's coordinate texts are rendered once, for all the fields on it.
    """
    leads = {}
    for path, field in zip(paths, fields, strict=True):
        grid = field.grid
        if grid not in leads:
            leads[grid] = _grid_lead(grid)
        v = field.values
        with open(path, "wb") as fh:
            fh.write(_header([f"z{i+1}" for i in range(grid.dims)] + ["abs", "re", "im"]))
            _text.write_rows(fh, [np.hypot(v.real, v.imag), v.real, v.imag], lead=leads[grid])


def write_indicator_csv(path, field: IndicatorField) -> None:
    write_indicator_csvs([path], [field])


def _grid_lead(grid: SamplingGrid) -> tuple[np.ndarray, np.ndarray]:
    """The `_text.write_rows` lead (prefix, last) that starts row r with grid point r's coordinates.

    Grid order is first axis fastest, so row r is prefix[r % P] then
    last[r // P], P points per last-axis slice: `prefix` holds the joined
    texts of the other axes, `last` those of the last axis, each
    NUL-padded and ended by ','. All axes take one `_text.strings` call.
    """
    texts = [x + "," for x in _text.strings(np.concatenate(grid.axes()))]
    ends = np.cumsum(grid.counts)
    *lead_axes, last = (texts[lo:hi] for lo, hi in zip((0, *ends), ends))
    prefixes = [""]
    for axis in lead_axes:
        prefixes = [p + x for x in axis for p in prefixes]
    return _nul_padded(prefixes), _nul_padded(last)


def _nul_padded(texts: list[str]) -> np.ndarray:
    """The ASCII texts as the rows of a uint8 matrix, NUL-padded to the longest."""
    width = max(map(len, texts))
    data = "".join(t.ljust(width, "\0") for t in texts).encode()
    return np.frombuffer(data, np.uint8).reshape(len(texts), width)


def read_indicator_csv(path, grid: SamplingGrid, component: int) -> IndicatorField:
    n = grid.dims
    _, data = _read_table(path)
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
    values = []
    for g in recon.groups:
        lam = g.lambda_estimate if g.lambda_estimate is not None else 0j
        eta = g.eta_estimate if g.eta_estimate is not None else np.zeros(dims, complex)
        values += [*g.centroid, lam.real, lam.imag]
        values += [part for v in eta for part in (v.real, v.imag)]
        values.append(max(p.magnitude for p in g.members))
    texts = _text.strings(values)
    width = len(header) - 3  # the float columns of a row
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for gi, g in enumerate(recon.groups):
            components = "|".join(str(c) for c in g.components)
            row = texts[gi * width : (gi + 1) * width]
            writer.writerow([str(gi), components, *row, g.kind or ""])


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
