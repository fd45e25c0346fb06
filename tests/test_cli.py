"""CLI, config round-trip, file formats, and output determinism."""

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from io import BytesIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import heliodsm
import heliodsm._text
import heliodsm._threads
import heliodsm.cli
import heliodsm.forward
import heliodsm.geometry
import heliodsm.indicators
import heliodsm.io
import heliodsm.locator
from heliodsm import verify
from heliodsm.cli import main
from heliodsm.forward import CauchyData, add_noise, synthesize_cauchy
from heliodsm.geometry import MeasurementSurface, make_grid
from heliodsm.indicators import IndicatorField, reduced_data, indicator_field
from heliodsm.io import (
    read_cauchy_csv,
    read_indicator_csv,
    read_reconstruction_csv,
    write_cauchy_csv,
    write_indicator_csv,
    write_reconstruction_csv,
)
from heliodsm.locator import Peak, PeakGroup, Reconstruction
from heliodsm.presets import PRESETS, ConfigError, ExperimentConfig, preset_config


def test_config_roundtrip_idempotent():
    for name in PRESETS:  # to_dict writes only keys that from_dict accepts
        cfg = preset_config(name)
        text = cfg.to_json()
        again = ExperimentConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text


@pytest.mark.parametrize(
    "level, key",
    [("config", "dsm_count"), ("config", "algoritm"), ("measurement", "n_theta"), ("noise", "sede"),
     ("directions", "counts"), ("grid", "count"), ("locator", "significance"), ("locator", "merge_radius"),
     ("locator", "cluster_radius"), ("sources[2]", "monopol")],
)
def test_config_refuses_unknown_keys(level, key):
    raw = preset_config("example1").to_dict()
    target = raw if level == "config" else raw["sources"][2] if level == "sources[2]" else raw[level]
    target[key] = 1
    with pytest.raises(ConfigError, match=rf"^unknown key '{key}' in {re.escape(level)}$"):
        ExperimentConfig.from_dict(raw)


def test_config_accepts_bare_and_pair_complex():
    raw = preset_config("example1").to_dict()
    raw["sources"][0]["monopole"] = 9.0  # bare number form
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.sources[0].scalar_intensity == 9.0 + 0.0j
    # serialization normalizes to the pair form
    assert cfg.to_dict()["sources"][0]["monopole"] == [9.0, 0.0]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r.pop("wavenumber"),
        lambda r: r.__setitem__("dims", 4),
        lambda r: r.__setitem__("sources", []),
        lambda r: r["sources"][0].pop("monopole"),
        lambda r: r["sources"][0].__setitem__("dipole", [1.0, 0.0]),
        lambda r: r["grid"].__setitem__("lower", [5.0, 5.0]),
        lambda r: r.__setitem__("algorithm", "newton"),
        lambda r: r["sources"][0].__setitem__("location", [1.0]),
    ],
)
def test_config_validation_rejects(mutate):
    raw = preset_config("example1").to_dict()
    mutate(raw)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


def test_cauchy_csv_roundtrip(tmp_path, example1):
    cfg, _, clean, noisy = example1
    path = tmp_path / "cauchy.csv"
    write_cauchy_csv(path, clean, noisy)
    got_clean, got_noisy = read_cauchy_csv(path, cfg.measurement_radius)
    assert np.array_equal(got_clean.dirichlet, clean.dirichlet)
    assert np.array_equal(got_clean.neumann, clean.neumann)
    assert np.array_equal(got_noisy.dirichlet, noisy.dirichlet)
    assert np.array_equal(got_noisy.surface.points, clean.surface.points)


def test_cauchy_csv_refuses_noisy_data_of_another_surface(tmp_path, example1, example4):
    cfg2 = preset_config("example2")  # the circle of radius 5, not 6, with as many points
    clean2 = synthesize_cauchy(cfg2.ensemble(), cfg2.wavenumber, cfg2.surface())
    data = {"example1": example1[2:], "example2": (clean2, add_noise(clean2, cfg2.noise_spec())),
            "example4": example4[2:]}
    for clean, noisy in [("example1", "example2"), ("example4", "example1"), ("example1", "example4")]:
        path = tmp_path / f"{clean}_{noisy}.csv"
        with pytest.raises(ValueError, match="another measurement surface"):
            write_cauchy_csv(path, data[clean][0], data[noisy][1])
        assert not path.exists()
    # an equal surface built anew is the same surface
    clean, noisy = example1[2:]
    surf = clean.surface
    twin = MeasurementSurface(surf.dims, surf.points, surf.normals, surf.weights, surf.radius)
    write_cauchy_csv(tmp_path / "twin.csv", clean, CauchyData(twin, noisy.dirichlet, noisy.neumann))
    write_cauchy_csv(tmp_path / "same.csv", clean, noisy)
    assert (tmp_path / "twin.csv").read_bytes() == (tmp_path / "same.csv").read_bytes()


def test_indicator_csv_roundtrip(tmp_path, example1):
    cfg, _, _, noisy = example1
    red = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    grid = make_grid([-4, -4], [4, 4], [12, 11])
    fld = indicator_field(red, cfg.wavenumber, grid, 2)
    path = tmp_path / "indicator_2.csv"
    write_indicator_csv(path, fld)
    back = read_indicator_csv(path, grid, 2)
    assert np.array_equal(back.values, fld.values)


def test_indicator_csv_read_refuses_another_grid(tmp_path):
    grid3 = make_grid([-3, -3, -3], [3, 3, 3], [4, 5, 3])
    grid2 = make_grid([-4, -4], [4, 4], [12, 5])  # as many points as grid3
    path = tmp_path / "indicator_0.csv"
    write_indicator_csv(path, IndicatorField(grid=grid3, component=0, values=np.arange(60) * (1 + 2j)))
    assert np.array_equal(read_indicator_csv(path, grid3, 0).values, np.arange(60) * (1 + 2j))
    others = [
        grid2,  # other dims: the columns would be read as abs + i re
        make_grid([-3, -3, -3], [3, 3, 3.5], [4, 5, 3]),  # other bounds
        make_grid([-3, -3, -3], [3, 3, 3], [5, 4, 3]),  # other counts, as many points
        make_grid([-3, -3, -3], [3, 3, 3], [4, 5, 4]),  # more points
    ]
    for other in others:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_indicator_csv(path, other, 0)


def _fmt(x):
    return repr(float(x))


def _reference_csv(path, header, rows):
    # The per-row writer the column-wise io writers must match byte for byte.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _edge_values(n, seed):
    """Complex values with parts from 1e-300 to 1e+300, -0.0 and subnormals; one |v| overflows."""
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, n))
    re[: n // 2] *= 10.0 ** rng.integers(-300, 301, n // 2)
    im[: n // 2] *= 10.0 ** rng.integers(-300, 301, n // 2)
    values = re + 1j * im
    values[:5] = [complex(-0.0, -0.0), complex(5e-324, -0.0), complex(-0.0, 1e-310),
                  complex(1e-300, -1e300), complex(-1e300, 1e300)]
    values[5] = complex(1.5e308, -1.5e308)
    return values


@pytest.mark.byte_contract
@pytest.mark.parametrize(
    "lower, upper, counts",
    [([-4.0, -4.0], [4.0, 4.0], [12, 11]), ([-1.7, -2.0, -0.3], [1.1, 2.5, 3.9], [7, 6, 5]),
     ([-1e-5, 0.0, -3.0], [2e16, 1e-3, 7.0], [23, 19, 13]),  # 5681 rows span several blocks
     ([-2.5, 1e-7, -1e3], [3.0, 0.5, 1e3], [41, 37, 3])],  # a 1517-row slice outlasts a pass
)
def test_indicator_csv_bytes_match_per_row_writer(tmp_path, lower, upper, counts):
    grid = make_grid(lower, upper, counts)
    fld = IndicatorField(grid=grid, component=1, values=_edge_values(len(grid), len(counts)))
    # the abs column is the scalar abs(complex), which np.abs misses by 1 ulp here
    assert np.any(np.abs(fld.values) != np.array([abs(v) for v in fld.values]))
    # IndicatorField holds finite values only; the writer gets +-inf and nan through a stand-in
    special = fld.values.copy()
    special[6:10] = [complex(np.inf, -np.inf), complex(np.nan, 1.0), complex(-2.5, np.nan),
                     complex(-np.nan, -np.inf)]
    header = [f"z{i+1}" for i in range(grid.dims)] + ["abs", "re", "im"]
    points = grid.points
    for field in (fld, SimpleNamespace(grid=grid, values=special)):
        rows = (
            [_fmt(x) for x in points[i]] + [_fmt(abs(v)), _fmt(v.real), _fmt(v.imag)]
            for i, v in enumerate(field.values)
        )
        _reference_csv(tmp_path / "want.csv", header, rows)
        with np.errstate(over="ignore"):  # |values[5]| overflows to inf, as abs() does
            write_indicator_csv(tmp_path / "got.csv", field)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _grid_renders(monkeypatch):
    """Record the grid of every lead `io` renders, that is of each held build
    of kind "grid" (with `cold_tables`, from an empty hold)."""
    calls = []
    render = heliodsm.io._grid_lead
    monkeypatch.setattr(heliodsm.io, "_grid_lead", lambda grid: calls.append(grid) or render(grid))
    return calls


def _grid_entries():
    return [(key[-1], arrays) for key, arrays in heliodsm.geometry._held_tables.items() if key[0] == "grid"]


def test_grid_leads_are_held_read_only(tmp_path, cold_tables):
    grid = make_grid([-1.7, -2.0, -0.3], [1.1, 2.5, 3.9], [7, 6, 5])
    for g in (grid, make_grid(grid.lower, grid.upper, grid.counts)):
        write_indicator_csv(tmp_path / "got.csv", IndicatorField(grid=g, component=0, values=np.ones(len(g))))
    ((held_grid, lead),) = _grid_entries()
    assert held_grid == grid
    for held, fresh in zip(lead, heliodsm.io._grid_lead(grid)):
        assert held.tobytes() == fresh.tobytes() and held.shape == fresh.shape
        assert not held.flags.writeable


@pytest.mark.byte_contract
def test_grid_leads_tell_signed_zero_bounds_apart(tmp_path, cold_tables):
    # the grids compare and hash equal, but their last x1 is -0.0 and 0.0
    grids = [make_grid([-1.0, -1.0], [upper, 1.0], [3, 2]) for upper in (-0.0, 0.0)]
    assert grids[0] == grids[1]
    for name, grid in zip("ab", grids):
        write_indicator_csv(tmp_path / f"{name}.csv", IndicatorField(grid=grid, component=0, values=np.ones(6)))
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [_fmt(x) for x in grid.points[:, 0]]
    assert len(_grid_entries()) == 2


@pytest.mark.byte_contract
def test_indicator_csvs_render_each_grid_once(tmp_path, monkeypatch, cold_tables):
    grid = make_grid([-1.7, -2.0, -0.3], [1.1, 2.5, 3.9], [7, 6, 5])
    other = make_grid([-1e-5, 0.0, -3.0], [2e16, 1e-3, 7.0], [5, 4, 3])
    fields = [IndicatorField(grid=g, component=ell, values=_edge_values(len(g), ell))
              for ell, g in enumerate([grid, grid, other, grid])]
    calls = _grid_renders(monkeypatch)
    paths = [tmp_path / f"got_{i}.csv" for i in range(len(fields))]
    with np.errstate(over="ignore"):
        for path, fld in zip(paths, fields):
            write_indicator_csv(path, fld)
    assert calls == [grid, other]  # one row lead per grid
    assert [g for g, _ in _grid_entries()] == [other, grid]  # grid's last write was the latest use
    for path, fld in zip(paths, fields):
        g = fld.grid
        header = [f"z{i+1}" for i in range(g.dims)] + ["abs", "re", "im"]
        points = g.points
        rows = ([_fmt(x) for x in points[i]] + [_fmt(abs(v)), _fmt(v.real), _fmt(v.imag)]
                for i, v in enumerate(fld.values))
        _reference_csv(tmp_path / "want.csv", header, rows)
        assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.byte_contract
def test_reconstruction_csv_bytes_match_per_row_writer(tmp_path, monkeypatch, cold_tables):
    peak = Peak(location=[0.0, 0.0], component=0, magnitude=3.0000000000000004, grid_index=0)
    dipole = Peak(location=[0.0, 0.0], component=2, magnitude=5e-324, grid_index=3)
    groups = (
        PeakGroup(members=(peak,), centroid=[-0.0, 1e-5], lambda_estimate=complex(1e16, -2.5e-308),
                  eta_estimate=np.array([complex(0.1, -np.inf), complex(np.nan, 5e-324)]), kind="dipole"),
        PeakGroup(members=(peak,), centroid=[123456789.0, -9007199254740993.0]),
        PeakGroup(members=(dipole, peak), centroid=[np.inf, -1e-300], lambda_estimate=complex(-0.0, 7.0),
                  eta_estimate=np.array([complex(1e22, 2.5), complex(-1e-7, 0.0)]), kind="monopole"),
    )
    header = ["group", "components", "z1", "z2", "lambda_re", "lambda_im",
              "eta1_re", "eta1_im", "eta2_re", "eta2_im", "magnitude", "kind"]
    calls = _grid_renders(monkeypatch)
    for groups in (groups, ()):  # no groups: the same columns, no rows
        rows = []
        for gi, g in enumerate(groups):
            lam = g.lambda_estimate if g.lambda_estimate is not None else 0j
            eta = g.eta_estimate if g.eta_estimate is not None else np.zeros(2, complex)
            rows.append([str(gi), "|".join(map(str, g.components))] + [_fmt(v) for v in g.centroid]
                        + [_fmt(lam.real), _fmt(lam.imag)] + [_fmt(p) for v in eta for p in (v.real, v.imag)]
                        + [_fmt(max(p.magnitude for p in g.members)), g.kind or ""])
        _reference_csv(tmp_path / "want.csv", header, rows)
        recon = Reconstruction(estimated_count=len(groups), groups=groups, algorithm="dsm2",
                               elapsed_seconds=0.0, parameters={"grid_counts": [4, 4]})
        write_reconstruction_csv(tmp_path / "got.csv", recon)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert calls == [] and not _grid_entries()  # the table has no grid lead


@pytest.mark.byte_contract
def test_reconstruct_renders_text_and_builds_sphere_rule_once(tmp_path, monkeypatch, cold_tables):
    # the grid coordinates of all fields take one row lead, rendered once
    # across two requests; config check, sphere and directions share one
    # Gauss-Legendre rule
    calls = _grid_renders(monkeypatch)
    rules = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: rules.append(n) or leggauss(n))
    heliodsm.geometry.sphere_directions.cache_clear()
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert main(["reconstruct", "--preset", "example5", "--seed", seed, "--out", str(out), "--quiet"]) == 0
        assert len(list(out.glob("indicator_*.csv"))) == 4
    assert calls == [preset_config("example5").grid()]
    assert [g for g, _ in _grid_entries()] == calls
    assert rules == [42]


@pytest.mark.parametrize("algorithm", ["dsm", "dsm2"])
@pytest.mark.parametrize("preset", ["example1", "example4"])
def test_reconstruct_never_builds_grid_points(tmp_path, monkeypatch, preset, algorithm):
    # peaks and CSV rows take their coordinates from the grid axes
    def unread(grid):
        raise AssertionError("a request built SamplingGrid.points")

    monkeypatch.setattr(heliodsm.geometry.SamplingGrid, "points", property(unread))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["reconstruct", "--preset", preset, "--algorithm", algorithm,
                     "--out", str(tmp_path), "--quiet"])
    assert code == 0
    assert list(tmp_path.glob("indicator_*.csv"))


@pytest.mark.blas_unset
def test_cli_holds_openblas_to_one_thread(tmp_path, monkeypatch, cold_tables):
    # synthesis (not held yet, so it evaluates the traces) runs under the
    # hold, and the caller's count comes back
    lib = heliodsm._threads.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
    seen = []
    traces = heliodsm.forward._unit_traces

    def counted(*args):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return traces(*args)

    monkeypatch.setattr(heliodsm.forward, "_unit_traces", counted)
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        before = lib.scipy_openblas_get_num_threads64_()
        assert main(["synthesize", "--preset", "example4", "--out", str(tmp_path), "--quiet"]) == 0
        after = lib.scipy_openblas_get_num_threads64_()
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
    assert seen == [1]
    assert after == before


def test_run_json_counts_the_phase_tables_built(tmp_path):
    # a wavenumber no other test uses, so the first run builds all three
    # tables (the circulant R(d) spectrum, the coarse and the fine lattice)
    # whatever ran before
    raw = preset_config("example4").to_dict()
    raw["wavenumber"] = 9.25
    cfg_path = tmp_path / "k.json"
    cfg_path.write_text(json.dumps(raw))
    built = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        counts = json.loads((out / "run.json").read_text())["counts"]
        assert counts["phase_exps"] == 42 * 42 * 43
        built.append(counts["phase_tables_built"])
    assert built == [3, 0]


def test_the_2d_presets_hold_all_their_tables_at_once(tmp_path, cold_tables):
    # each 2D preset holds its clean traces and their cauchy.csv text, its
    # R(d) phase matrix, its coarse lattice factors and its fine lattice's
    # mode tables, and the row lead of its grid, which example2 and
    # example3 share: seventeen entries, which all fit, so a second round,
    # under other noise seeds, builds none; an LRU of 16 would cycle
    # through them and build 16 tables every round (the last round's use
    # orders them, so the shared lead comes after example3's tables)
    presets = ["example1", "example2", "example3"]
    synthesized, built = [], []
    for run, seed in (("cold", "0"), ("warm", "1")):
        for preset in presets:
            out = tmp_path / run / preset
            assert main(["reconstruct", "--preset", preset, "--seed", seed, "--out", str(out), "--quiet"]) == 0
            synthesized.append(json.loads((out / "meta.json").read_text())["held_tables_built"])
            built.append(json.loads((out / "run.json").read_text())["counts"]["phase_tables_built"])
    assert synthesized == [2, 2, 2, 0, 0, 0]
    assert built == [3, 3, 3, 0, 0, 0]
    kinds = [key[0] for key in heliodsm.geometry._held_tables]
    per_preset = ["traces", "cauchy", "phases", "lattice", "modes"]
    assert kinds == per_preset + ["grid"] + per_preset * 2 + ["grid"]
    assert len(kinds) == heliodsm.geometry._HELD_MAX


@pytest.mark.byte_contract
@pytest.mark.blas_unset
def test_warm_reconstructs_write_a_fresh_process_bytes(tmp_path):
    # one process runs each request twice, the second time from held clean
    # traces and cauchy.csv text, phase tables and lattice factors
    # (example1's dsm reads the lattice its dsm2 held); a fresh process per
    # request writes the same CSV bytes
    env = dict(os.environ)
    src = str(Path(heliodsm.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    requests = [("example1", "dsm2"), ("example4", "dsm2"), ("example1", "dsm")]
    script = (
        "import sys\n"
        "from heliodsm.cli import main\n"
        "for i, request in enumerate(sys.argv[2:]):\n"
        "    preset, algorithm = request.split(':')\n"
        "    argv = ['reconstruct', '--preset', preset, '--algorithm', algorithm, '--out', f'{sys.argv[1]}/{i}']\n"
        "    assert main(argv + ['--quiet']) == 0\n"
    )
    one = tmp_path / "one"
    subprocess.run([sys.executable, "-c", script, str(one)] + 2 * [":".join(r) for r in requests],
                   env=env, check=True, timeout=600)
    for i, (preset, algorithm) in enumerate(requests):
        fresh = tmp_path / f"{preset}_{algorithm}"
        subprocess.run(
            [sys.executable, "-m", "heliodsm.cli", "reconstruct", "--preset", preset, "--algorithm", algorithm,
             "--out", str(fresh), "--quiet"],
            env=env, check=True, timeout=600,
        )
        names = sorted(p.name for p in fresh.glob("*.csv"))
        assert "reconstruction.csv" in names
        for run in (one / str(i), one / str(i + len(requests))):  # first, then warm
            assert sorted(p.name for p in run.glob("*.csv")) == names
            for name in names:
                assert (run / name).read_bytes() == (fresh / name).read_bytes(), (preset, algorithm, run.name, name)


@pytest.mark.byte_contract
@pytest.mark.parametrize("preset", ["example1", "example4"])  # 200 and 1806 rows
def test_cauchy_csv_bytes_match_per_row_writer(tmp_path, request, preset):
    _, _, clean, noisy = request.getfixturevalue(preset)
    surf = clean.surface
    traces = (clean.dirichlet, clean.neumann, noisy.dirichlet, noisy.neumann)
    rows = (
        [_fmt(v) for v in surf.points[i]] + [_fmt(v) for v in surf.normals[i]] + [_fmt(surf.weights[i])]
        + [_fmt(p) for z in traces for p in (z[i].real, z[i].imag)]
        for i in range(len(surf))
    )
    header = (
        [f"x{i+1}" for i in range(surf.dims)] + [f"nu{i+1}" for i in range(surf.dims)]
        + ["weight", "u_re", "u_im", "dnu_re", "dnu_im",
           "u_noisy_re", "u_noisy_im", "dnu_noisy_re", "dnu_noisy_im"]
    )
    _reference_csv(tmp_path / "want.csv", header, rows)
    write_cauchy_csv(tmp_path / "got.csv", clean, noisy)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _cauchy_body(clean, noisy) -> bytes:
    """cauchy.csv's rows as one `_text.write_rows` call over every column writes them."""
    surf = clean.surface
    columns = [*surf.points.T, *surf.normals.T, surf.weights]
    for z in (clean.dirichlet, clean.neumann, noisy.dirichlet, noisy.neumann):
        columns += [z.real, z.imag]
    buf = BytesIO()
    heliodsm._text.write_rows(buf, columns)
    return buf.getvalue()


@pytest.mark.byte_contract
@pytest.mark.blas_unset
@pytest.mark.parametrize("level", [None, 0.0], ids=["preset_noise", "no_noise"])
def test_warm_synthesis_writes_the_cold_bytes(tmp_path, cold_tables, level):
    # the second synthesis of a config reads its clean traces and their
    # cauchy.csv text from the hold and renders only the noisy columns; both
    # write what one `_text.write_rows` call over every column writes for
    # traces evaluated afresh
    for name in PRESETS:
        raw = preset_config(name).to_dict()
        if level is not None:
            raw["noise"]["level"] = level
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(raw))
        files, built = [], []
        for run in ("cold", "warm"):
            out = tmp_path / run / name
            assert main(["synthesize", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
            files.append((out / "cauchy.csv").read_bytes())
            built.append(json.loads((out / "meta.json").read_text())["held_tables_built"])
        assert built == [2, 0]
        with heliodsm.geometry._held_lock:
            heliodsm.geometry._held_tables.clear()
        cfg = ExperimentConfig.from_dict(raw)
        clean = heliodsm.forward.synthesize_cauchy(cfg.ensemble(), cfg.wavenumber, cfg.surface())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # example4's level draws a warning
            noisy = heliodsm.forward.add_noise(clean, cfg.noise_spec())
        header = files[0].split(b"\r\n", 1)[0] + b"\r\n"
        assert files[0] == files[1] == header + _cauchy_body(clean, noisy), name


# Variants of example1 that differ from it in one input of a hold each; run
# in this process and, with the hold emptied before each, in a fresh one.
_HOLD_VARIANTS = """
import dataclasses, math, sys, warnings
import numpy as np
import heliodsm.geometry
from heliodsm.forward import SourceEnsemble, add_noise, synthesize_cauchy
from heliodsm.geometry import MeasurementSurface
from heliodsm.io import write_cauchy_csv
from heliodsm.presets import preset_config


def variants():
    cfg = preset_config("example1")
    ens, k, surf = cfg.ensemble(), cfg.wavenumber, cfg.surface()
    first, *rest = ens.sources
    lam = first.scalar_intensity
    louder = dataclasses.replace(first, scalar_intensity=complex(math.nextafter(lam.real, math.inf), lam.imag))
    weights = np.array(surf.weights)
    weights[0] = math.nextafter(weights[0], math.inf)
    return cfg.noise_spec(), {
        "base": (ens, k, surf),
        "intensity": (SourceEnsemble((louder, *rest)), k, surf),
        "wavenumber": (ens, math.nextafter(k, math.inf), surf),
        "weights": (ens, k, MeasurementSurface(surf.dims, surf.points, surf.normals, weights, surf.radius)),
    }


def write(out, names, cold):
    spec, table = variants()
    for name in names:
        if cold:
            with heliodsm.geometry._held_lock:
                heliodsm.geometry._held_tables.clear()
        clean = synthesize_cauchy(*table[name])
        write_cauchy_csv(f"{out}/{name}.csv", clean, add_noise(clean, spec))


if __name__ == "__main__":
    write(sys.argv[1], sys.argv[2:], cold=True)
"""


@pytest.mark.byte_contract
@pytest.mark.blas_unset
def test_holds_share_no_entry_across_one_input(tmp_path, cold_tables):
    # a source intensity or k one ulp off builds its own traces and text; a
    # surface weight one ulp off builds its own text and reads the traces,
    # which do not depend on the weights; each file is a fresh process's
    names = ["base", "intensity", "wavenumber", "weights"]
    space = {}
    exec(_HOLD_VARIANTS, space)
    built = []
    for name in names:
        before = heliodsm.geometry._held_builds.count
        space["write"](tmp_path, [name], cold=False)
        built.append(heliodsm.geometry._held_builds.count - before)
    assert built == [2, 2, 2, 1]
    kinds = [key[0] for key in heliodsm.geometry._held_tables]
    assert kinds.count("traces") == 3 and kinds.count("cauchy") == 4
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    env = dict(os.environ)
    src = str(Path(heliodsm.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _HOLD_VARIANTS, str(fresh), *names], env=env, check=True, timeout=300)
    texts = [(tmp_path / f"{name}.csv").read_bytes() for name in names]
    assert len(set(texts)) == len(names)
    for name, text in zip(names, texts):
        assert text == (fresh / f"{name}.csv").read_bytes(), name


def test_cli_synthesize_writes_expected_rows(tmp_path):
    out = tmp_path / "run"
    code = main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"])
    assert code == 0
    rows = (out / "cauchy.csv").read_text().strip().splitlines()
    assert len(rows) == 201  # header + 200 measurement angles
    meta = json.loads((out / "meta.json").read_text())
    assert meta["points"] == 200
    assert meta["write_seconds"] >= 0
    assert meta["bytes_written"] == (out / "cauchy.csv").stat().st_size
    cfg_round = ExperimentConfig.from_json((out / "config.json").read_text())
    assert cfg_round == preset_config("example1")


def test_cli_zero_noise_columns_equal(tmp_path):
    raw = preset_config("example1").to_dict()
    raw["noise"]["level"] = 0.0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["synthesize", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    clean, noisy = read_cauchy_csv(out / "cauchy.csv", 6.0)
    assert np.array_equal(clean.dirichlet, noisy.dirichlet)
    assert np.array_equal(clean.neumann, noisy.neumann)


def test_cli_reconstruct_and_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"])
    assert code == 0
    for ell in range(3):
        rows = (out / f"indicator_{ell}.csv").read_text().strip().splitlines()
        assert len(rows) == 10001  # header + 100x100 grid
    recon_rows = read_reconstruction_csv(out / "reconstruction.csv")
    assert len(recon_rows) == 4
    assert all(r["kind"] == "monopole" for r in recon_rows)
    run = json.loads((out / "run.json").read_text())
    assert run["estimated_count"] == 4
    assert run["parameters"]["algorithm"] == "dsm2"
    assert list(run["timings"]) == sorted(["reduce", "grid", "peaks", "refine", "cluster", "readoff"])
    assert run["counts"]["grid_points"][0] == 100 * 100
    assert run["counts"]["phase_exps"] == 200 * 256
    assert run["write_seconds"] >= 0
    written = [f"indicator_{ell}.csv" for ell in range(3)] + ["reconstruction.csv"]
    assert run["bytes_written"] == sum((out / name).stat().st_size for name in written)


def test_cli_reconstruct_reuses_existing_cauchy(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example2", "--out", str(out)]) == 0
    first = (out / "cauchy.csv").read_bytes()
    assert main(["reconstruct", "--preset", "example2", "--out", str(out)]) == 0
    assert (out / "cauchy.csv").read_bytes() == first
    assert "reusing" in capsys.readouterr().out


def _short_row(text):
    lines = text.split("\r\n")
    lines[2] = lines[2].rsplit(",", 1)[0]  # second data row loses its last field
    return "\r\n".join(lines)


def _points_scaled(scale):
    """A damage that moves every point of a 2D cauchy.csv off the radius by `scale`."""
    def damage(text):
        lines = text.split("\r\n")
        for i in range(1, len(lines) - 1):
            x1, x2, rest = lines[i].split(",", 2)
            lines[i] = ",".join([repr(float(x1) * scale), repr(float(x2) * scale), rest])
        return "\r\n".join(lines)
    return damage


@pytest.mark.parametrize(
    "damage",
    [lambda text: "", lambda text: text.split("\r\n")[0] + "\r\n", _short_row, _points_scaled(1.5),
     _points_scaled(1.0 + 1e-9)],
    ids=["empty", "header_only", "row_width", "points_off_radius", "points_off_radius_by_1e-9"],
)
def test_reconstruct_rejects_malformed_cauchy_csv(tmp_path, capsys, damage):
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    path = out / "cauchy.csv"
    path.write_bytes(damage(path.read_bytes().decode()).encode())
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"]) == 1
    assert "cauchy.csv" in capsys.readouterr().err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("algorithm", ["dsm2", "dsm"])
def test_reconstruct_evaluates_reduced_data_and_collection_grid_once(tmp_path, monkeypatch, algorithm):
    cfg = preset_config("example1")
    collection = (cfg.dsm_grid() if algorithm == "dsm" else cfg.grid()).counts
    calls = {"reduce": 0, "grid": 0}

    def counted_reduce(*args, **kwargs):
        calls["reduce"] += 1
        return heliodsm.indicators.reduced_data(*args, **kwargs)

    def counted_grid(reduced, k, grid, components=None):
        calls["grid"] += tuple(grid.counts) == tuple(collection)
        return heliodsm.indicators.indicator_grid_values(reduced, k, grid, components)

    for module in (heliodsm.locator, heliodsm.cli):
        monkeypatch.setattr(module, "reduced_data", counted_reduce, raising=False)
        monkeypatch.setattr(module, "indicator_grid_values", counted_grid, raising=False)
    out = tmp_path / "run"
    args = ["reconstruct", "--preset", "example1", "--algorithm", algorithm, "--out", str(out), "--quiet"]
    assert main(args) == 0
    assert calls == {"reduce": 1, "grid": 1}


def test_indicator_csv_holds_driver_fields(tmp_path, monkeypatch):
    recons = []

    def recorded(*args, **kwargs):
        recons.append(heliodsm.locator.dsm2(*args, **kwargs))
        return recons[-1]

    monkeypatch.setattr(heliodsm.cli, "dsm2", recorded)
    out = tmp_path / "run"
    assert main(["reconstruct", "--preset", "example3", "--out", str(out), "--quiet"]) == 0
    (recon,) = recons
    assert [f.component for f in recon.fields] == [0, 1, 2]
    for fld in recon.fields:
        back = read_indicator_csv(out / f"indicator_{fld.component}.csv", fld.grid, fld.component)
        assert back.values.tobytes() == fld.values.tobytes()


def test_reconstruct_refuses_cauchy_from_other_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--seed", "1", "--out", str(out), "--quiet"]) == 0
    data = (out / "cauchy.csv").read_bytes()
    assert main(["reconstruct", "--preset", "example1", "--seed", "2", "--out", str(out), "--quiet"]) == 1
    assert main(["example", "1", "--seed", "3", "--out", str(out), "--quiet"]) == 1
    assert "noise" in capsys.readouterr().err
    assert (out / "cauchy.csv").read_bytes() == data
    assert not (out / "run.json").exists()
    assert not (out / "comparison.json").exists()

    # locator settings do not determine the data: re-analysis reuses it
    raw = preset_config("example1").to_dict()
    raw["noise"]["seed"] = 1
    raw["locator"]["components"] = [0, 2]
    cfg_path = tmp_path / "reanalysis.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert "reusing" in capsys.readouterr().out
    assert (out / "cauchy.csv").read_bytes() == data
    run = json.loads((out / "run.json").read_text())
    assert run["seed"] == 1
    assert run["parameters"]["components"] == [0, 2]


def test_reconstruct_reuses_cauchy_under_a_config_with_old_keys(tmp_path, capsys):
    # only the data keys of the stored config.json are read, so a file written
    # when the locator still took significance and radii is reused
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    data = (out / "cauchy.csv").read_bytes()
    stored = json.loads((out / "config.json").read_text())
    stored["locator"].update(significance=2.0, merge_radius=None, cluster_radius=None)
    (out / "config.json").write_text(json.dumps(stored))
    assert main(["reconstruct", "--preset", "example1", "--out", str(out)]) == 0
    assert "reusing" in capsys.readouterr().out
    assert (out / "cauchy.csv").read_bytes() == data


@pytest.mark.parametrize(
    "damage",
    [lambda raw: "{not json", lambda raw: "[]", lambda raw: json.dumps({**raw, "noise": {"level": 5.0, "seed": 1}}),
     lambda raw: json.dumps({key: v for key, v in raw.items() if key != "sources"})],
    ids=["invalid_json", "not_an_object", "bad_noise", "no_sources"],
)
def test_reconstruct_names_a_bad_stored_config(tmp_path, capsys, damage):
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    data = (out / "cauchy.csv").read_bytes()
    stored = out / "config.json"
    stored.write_text(damage(json.loads(stored.read_text())))
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"]) == 1
    assert f"config error: cannot reuse {out / 'cauchy.csv'}: {stored}: " in capsys.readouterr().err
    assert (out / "cauchy.csv").read_bytes() == data
    assert not (out / "run.json").exists()


def test_run_json_names_its_input_data(tmp_path, example1):
    _, _, _, noisy = example1
    want = hashlib.sha256(noisy.dirichlet.tobytes() + noisy.neumann.tobytes()).hexdigest()
    out, other = tmp_path / "run", tmp_path / "other"
    sha = lambda path: json.loads(path.read_text())["data_sha256"]
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    assert sha(out / "run.json") == sha(out / "meta.json") == want
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"]) == 0  # reuses cauchy.csv
    assert sha(out / "run.json") == want
    assert main(["reconstruct", "--preset", "example1", "--seed", "7", "--out", str(other), "--quiet"]) == 0
    assert sha(other / "run.json") != want


def test_reconstruct_refuses_cauchy_without_config(tmp_path):
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    (out / "config.json").unlink()
    data = (out / "cauchy.csv").read_bytes()
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet"]) == 1
    assert (out / "cauchy.csv").read_bytes() == data
    assert not (out / "run.json").exists()


def test_cli_same_seed_same_bytes(tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "2")):
        out = tmp_path / tag
        code = main(
            ["reconstruct", "--preset", "example1", "--out", str(out),
             "--threads", threads, "--quiet"]
        )
        assert code == 0
        outs.append(out)
    for name in ["cauchy.csv", "indicator_0.csv", "indicator_1.csv",
                 "indicator_2.csv", "reconstruction.csv"]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_seed_override_changes_noise(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synthesize", "--preset", "example1", "--out", str(out_a), "--quiet"]) == 0
    assert main(["synthesize", "--preset", "example1", "--out", str(out_b),
                 "--seed", "777", "--quiet"]) == 0
    assert (out_a / "cauchy.csv").read_bytes() != (out_b / "cauchy.csv").read_bytes()


def test_cli_validation_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synthesize", "--config", str(bad), "--out", str(tmp_path / "x"), "--quiet"]) == 1
    raw = preset_config("example1").to_dict()
    raw["sources"] = []
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["synthesize", "--config", str(cfg_path), "--out", str(tmp_path / "z"), "--quiet"]) == 1
    assert main(["reconstruct", "--out", str(tmp_path / "w"), "--quiet"]) == 1


@pytest.mark.parametrize("name", ["none.json", "a_directory"])
def test_config_path_must_name_a_file(tmp_path, capsys, name):
    (tmp_path / "a_directory").mkdir()
    path, out = tmp_path / name, tmp_path / "run"
    assert main(["reconstruct", "--config", str(path), "--out", str(out), "--quiet"]) == 1
    assert f"config error: config file not found: {path}" in capsys.readouterr().err
    assert not out.exists()


CLI_OPTIONS = {
    "synthesize": {"--config", "--preset", "--seed", "--out", "--quiet"},
    "reconstruct": {"--config", "--preset", "--seed", "--out", "--threads", "--quiet", "--algorithm"},
    "verify": {"level", "--quiet"},
    "example": {"id", "--seed", "--out", "--threads", "--quiet"},
}


@pytest.mark.parametrize("command", CLI_OPTIONS)
def test_each_command_takes_only_the_options_it_acts_on(command):
    (sub,) = [a for a in heliodsm.cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(CLI_OPTIONS)
    taken = {
        a.option_strings[0] if a.option_strings else a.dest
        for a in sub.choices[command]._actions
        if not isinstance(a, argparse._HelpAction)
    }
    assert taken == CLI_OPTIONS[command]


@pytest.mark.parametrize("argv", [["synthesize", "--preset", "example1", "--threads", "1"],
                                  ["verify", "quick", "--out", "X"],
                                  ["verify", "quick", "--threads", "2"]],
                         ids=["synthesize", "verify", "verify-threads"])
def test_cli_refuses_an_option_its_command_ignores(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--quiet"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "usage: heliodsm" in err and "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synthesize", "reconstruct"])
def test_config_and_preset_together_refused(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(preset_config("example1").to_json())
    out = tmp_path / "run"
    argv = [command, "--config", str(cfg_path), "--preset", "example1", "--out", str(out), "--quiet"]
    assert main(argv) == 1
    assert "config error: exactly one of --config or --preset is required" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", [[], ["--threads", "1"]], ids=["default", "pinned"])
def test_cli_reads_no_thread_environment_variable(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("HELIO_DSM_THREADS", "abc")
    out = tmp_path / "run"
    assert main(["reconstruct", "--preset", "example1", "--out", str(out), "--quiet", *threads]) == 0
    want = int(threads[1]) if threads else os.cpu_count()
    assert json.loads((out / "run.json").read_text())["threads"] == want
    assert heliodsm._threads.get_thread_count() == os.cpu_count()  # nothing was pinned before main


@pytest.mark.parametrize("command", ["verify", "reconstruct"])
def test_cli_restores_a_library_callers_thread_pin(tmp_path, command):
    out = tmp_path / "run"
    argv = {
        "verify": ["verify", "quick", "--quiet"],
        "reconstruct": ["reconstruct", "--preset", "example1", "--threads", "2", "--out", str(out), "--quiet"],
    }[command]
    heliodsm.set_thread_count(1)
    try:
        assert main(argv) == 0
        assert heliodsm.get_thread_count() == 1
    finally:
        heliodsm.set_thread_count(None)
    if command == "reconstruct":  # the command's own count held while it ran
        assert json.loads((out / "run.json").read_text())["threads"] == 2


@pytest.mark.parametrize(
    "mutate",
    [
        # the locator takes no significance, merge_radius or cluster_radius:
        # each case on them fails as an unknown key, whatever its value
        lambda r: r["locator"].__setitem__("significance", 1.5),
        lambda r: r.__setitem__("fine_counts", [1, 40]),
        lambda r: r["grid"].__setitem__("counts", [100.7, 100]),
        lambda r: r["locator"].__setitem__("merge_radius", -1.0),
        lambda r: r["locator"].__setitem__("cluster_radius", 0.0),
        lambda r: r["locator"].__setitem__("components", []),
        lambda r: r["locator"].__setitem__("merge_radius", float("nan")),
        lambda r: r["locator"].__setitem__("cluster_radius", float("nan")),
        lambda r: r["locator"].__setitem__("significance", True),
        lambda r: r["locator"].__setitem__("merge_radius", True),
        lambda r: r["locator"].__setitem__("significance", "abc"),
        lambda r: r["locator"].__setitem__("components", [0, 0]),
        lambda r: r["grid"].__setitem__("lower", [float("nan"), -4.0]),
        lambda r: r["measurement"].__setitem__("count", 0),
        lambda r: r["measurement"].__setitem__("count", 7),
        lambda r: r["measurement"].__setitem__("radius", -1.0),
        lambda r: r["noise"].__setitem__("level", -0.1),
        lambda r: r["noise"].__setitem__("level", 5.0),
        lambda r: r["noise"].__setitem__("seed", -5),
        lambda r: r["sources"][1].__setitem__("location", r["sources"][0]["location"]),
        lambda r: r["sources"][0].__setitem__("location", [float("nan"), 3.0]),
        lambda r: r["sources"][0].__setitem__("location", [float("inf"), 3.0]),
        # a 3D box and grid in a dims=2 config
        lambda r: r["grid"].update(lower=[-4.0] * 3, upper=[4.0] * 3, counts=[10] * 3),
        lambda r: r["sources"][3].__setitem__("location", [7.0, 0.0]),
        lambda r: r["sources"][3].__setitem__("location", [6.0, 0.0]),
        lambda r: r.__setitem__("dsm_count", [60, 60]),
        lambda r: r["measurement"].__setitem__("n_theta", 42),
        lambda r: r["noise"].__setitem__("sede", 9),
        lambda r: r["directions"].__setitem__("counts", 256),
        lambda r: r["grid"].__setitem__("count", [100, 100]),
        lambda r: r["locator"].__setitem__("component", [0]),
        lambda r: r["sources"][2].__setitem__("monopol", 8.0),
    ],
    ids=["significance", "fine_counts", "fractional_grid_counts", "negative_merge_radius",
         "zero_cluster_radius", "no_components", "nan_merge_radius", "nan_cluster_radius",
         "bool_significance", "bool_merge_radius", "text_significance", "repeated_components",
         "nan_grid_lower", "no_measurement_points", "seven_measurement_points",
         "negative_radius", "negative_noise", "large_noise", "negative_seed",
         "repeated_location", "nan_location", "inf_location", "grid_dims",
         "source_outside_surface", "source_on_surface", "unknown_top_key",
         "unknown_measurement_key", "unknown_noise_key", "unknown_directions_key",
         "unknown_grid_key", "unknown_locator_key", "unknown_source_key"],
)
def test_reconstruct_rejects_bad_config_before_writing(tmp_path, capsys, mutate):
    raw = preset_config("example1").to_dict()
    mutate(raw)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("location", [[7.0, 0.0], [6.0, 0.0]], ids=["outside", "on_surface"])
def test_config_rejects_source_not_inside_the_surface(location):
    raw = preset_config("example1").to_dict()
    raw["sources"][3]["location"] = location
    with pytest.raises(ConfigError, match="^sources: source at"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("name", PRESETS)
def test_presets_reconstruct_without_warnings(tmp_path, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reconstruct", "--preset", name, "--out", str(tmp_path / name), "--quiet"]) == 0
    assert json.loads((tmp_path / name / "run.json").read_text())["warnings"] == []


def test_run_json_records_driver_warnings(tmp_path):
    raw = preset_config("example1").to_dict()
    raw["grid"]["counts"] = [20, 20]  # spacing 8/19 above half a wavelength, pi/15
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    with pytest.warns(UserWarning, match="spacing"):
        assert main(["reconstruct", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    run = json.loads((out / "run.json").read_text())
    assert run["warnings"] == ["grid spacing exceeds half a wavelength; maximizers may be missed"]


@pytest.mark.parametrize(
    "key, value", [("fine_counts", [40, 40]), ("algorithm", "dsm2"), ("output_dir", None)]
)
def test_config_json_with_removed_keys(tmp_path, capsys, key, value):
    # a config.json written when configs still held fine_counts, algorithm or
    # output_dir: reuse reads only its data keys, but as --config it names an
    # unknown key
    out = tmp_path / "run"
    assert main(["synthesize", "--preset", "example1", "--out", str(out), "--quiet"]) == 0
    stored = out / "config.json"
    raw = json.loads(stored.read_text())
    raw[key] = value
    stored.write_text(json.dumps(raw))
    data = (out / "cauchy.csv").read_bytes()
    assert main(["reconstruct", "--preset", "example1", "--out", str(out)]) == 0
    assert "reusing" in capsys.readouterr().out
    assert (out / "cauchy.csv").read_bytes() == data
    assert main(["reconstruct", "--config", str(stored), "--out", str(tmp_path / "other"), "--quiet"]) == 1
    assert f"config error: unknown key '{key}' in config" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_reconstruct_rejects_seed_override_before_writing(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["reconstruct", "--preset", "example1", "--seed", "-1", "--out", str(out), "--quiet"]) == 1
    assert "config error: noise:" in capsys.readouterr().err
    assert not out.exists()


def test_main_builds_its_parser_once(monkeypatch):
    built = []

    def parser(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(heliodsm.cli, "argparse", SimpleNamespace(ArgumentParser=parser))
    heliodsm.cli._build_parser.cache_clear()
    try:
        argv = ["reconstruct", "--preset", "example1", "--threads", "0", "--quiet"]
        assert main(argv) == main(argv) == 1  # a bad --threads stops before any work
        assert built == ["heliodsm"]
        args = heliodsm.cli._build_parser().parse_args(argv)
        assert args == heliodsm.cli._build_parser().parse_args(argv)
    finally:
        heliodsm.cli._build_parser.cache_clear()


def test_cli_runtime_error_exit_code(tmp_path, monkeypatch, capsys):
    # a fault outside validation, here a failed write, exits 2
    def full(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(heliodsm.io, "write_cauchy_csv", full)
    code = main(["synthesize", "--preset", "example1", "--out", str(tmp_path / "run"), "--quiet"])
    assert code == 2
    assert "runtime error: [Errno 28] No space left on device" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["synthesize", "--preset", "example1"],
                                     ["reconstruct", "--preset", "example1"],
                                     ["example", "1"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_out_must_name_a_directory(tmp_path, monkeypatch, capsys, command, under):
    # an --out that is a file, or lies under one, is refused before any work
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    out = blocker / "sub" if under else blocker
    assert main(command + ["--out", str(out), "--quiet"]) == 1
    assert f"error: --out {out} is not a directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "not a directory"


def test_cli_example_runs_end_to_end(tmp_path, capsys):
    out = tmp_path / "ex3"
    code = main(["example", "3", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "recovered 3 source(s)" in text
    comparison = json.loads((out / "comparison.json").read_text())
    errors = [row["error"] for row in comparison["comparison"]]
    assert len(errors) == 3
    assert all(e is not None and e < 0.12 for e in errors)


def test_verify_quick_passes(capsys):
    assert verify.run("quick", emit=lambda *a: None) is True


def _scale_coefficients(monkeypatch, factor):
    """Scale every indicator coefficient a_ell by factor."""
    weights = heliodsm.indicators._component_weights
    monkeypatch.setattr(heliodsm.indicators, "_component_weights", lambda *a: weights(*a) * factor)


def test_verify_detects_coefficient_mutation(monkeypatch):
    # 1% perturbation of the indicator coefficients must trip the suite
    _scale_coefficients(monkeypatch, 1.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert verify.run("quick", emit=lambda *a: None) is False


def test_cli_verify_exit_code(monkeypatch):
    assert main(["verify", "quick", "--quiet"]) == 0
    _scale_coefficients(monkeypatch, 1.01)
    assert main(["verify", "quick", "--quiet"]) == 3
