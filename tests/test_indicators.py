"""Indicator machinery against quadrature, extended-precision, and symmetry oracles."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

import heliodsm.indicators as ind
from heliodsm.forward import SourceEnsemble, add_noise, dipole, monopole, synthesize_cauchy
from heliodsm.geometry import (
    DirectionSet,
    MeasurementSurface,
    circle_directions,
    circle_surface,
    make_grid,
    sphere_directions,
    sphere_surface,
)
from heliodsm.io import read_cauchy_csv, write_cauchy_csv
from heliodsm.indicators import (
    ReducedData,
    decay_probe,
    indicator_at,
    indicator_field,
    indicator_grid_values,
    moment,
    plane_wave_identity,
    reduced_data,
)
from heliodsm.locator import FINE_COUNTS_2D, FINE_COUNTS_3D, dsm2
from heliodsm.presets import preset_config


# ----------------------------------------------------------------------
# closed-form moments vs direction-set quadrature (the moment oracle)
# ----------------------------------------------------------------------

def _moment_by_quadrature(directions, p, q, z, k):
    mono = np.ones(len(directions))
    if p > 0:
        mono = mono * directions.nodes[:, p - 1]
    if q > 0:
        mono = mono * directions.nodes[:, q - 1]
    phase = np.exp(1j * k * (directions.nodes @ np.asarray(z, float)))
    return complex(np.sum(directions.weights * mono * phase))


@pytest.mark.parametrize("dims", [2, 3])
def test_moment_trivial_values(dims):
    area = {2: 2 * math.pi, 3: 4 * math.pi}[dims]
    origin = np.zeros(dims)
    assert moment(0, 0, origin, 1.0) == pytest.approx(area)
    assert moment(1, 0, origin, 1.0) == 0.0
    assert moment(1, 1, origin, 1.0) == pytest.approx(area / dims)
    assert moment(1, dims, origin, 1.0) == 0.0


def test_moment_2d_diagonal_angle_drops_cos_term():
    # at alpha = pi/4 the cos(2 alpha) term vanishes: d1^2 moment = pi J0
    k, r = 1.0, 3.0
    z = r * np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
    dirs = circle_directions(512)
    quad = _moment_by_quadrature(dirs, 1, 1, z, k)
    assert abs(quad - moment(1, 1, z, k)) < 1e-12
    from heliodsm.specfun import bessel_j

    assert moment(1, 1, z, k) == pytest.approx(math.pi * bessel_j(0, 3.0), abs=1e-12)


@pytest.mark.parametrize("dims", [2, 3])
def test_moment_against_quadrature_sweep(dims):
    dirs = circle_directions(512) if dims == 2 else sphere_directions(64, 128)
    rng = np.random.default_rng(9 + dims)  # seeds 11 and 12
    for t in (0.0, 1.0, 5.0, 20.0, 50.0):
        for _ in range(5):
            zhat = rng.normal(size=dims)
            zhat /= np.linalg.norm(zhat)
            z = t * zhat
            for p in range(dims + 1):
                for q in range(p, dims + 1):
                    quad = _moment_by_quadrature(dirs, p, q, z, 1.0)
                    assert abs(quad - moment(p, q, z, 1.0)) < 1e-10


def test_moment_3d_mixed_pair_example():
    # k|z| = 5 along alpha = pi/3, beta = pi/5
    a, b = math.pi / 3, math.pi / 5
    z = 5.0 * np.array([math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), math.cos(a)])
    dirs = sphere_directions(64, 128)
    quad = _moment_by_quadrature(dirs, 1, 3, z, 1.0)
    assert abs(quad - moment(1, 3, z, 1.0)) < 1e-10


def test_moment_3d_on_polar_axis():
    z = np.array([0.0, 0.0, 2.5])
    dirs = sphere_directions(48, 96)
    for p in range(4):
        for q in range(p, 4):
            quad = _moment_by_quadrature(dirs, p, q, z, 1.0)
            assert abs(quad - moment(p, q, z, 1.0)) < 1e-11


def test_moment_index_validation():
    with pytest.raises(ValueError):
        moment(0, 3, [1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        moment(4, 0, [1.0, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        moment(0, 0, [1.0, 0.0, 0.0, 0.0], 1.0)


@pytest.mark.parametrize("dims", [2, 3])
def test_moment_on_arrays_equals_scalar_calls(dims):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(4, 5, dims)) * 7.0
    z[0, 0] = 0.0
    z[0, 1] = [0.0] * (dims - 1) + [2.5]  # on the last axis
    for p in range(dims + 1):
        for q in range(dims + 1):
            got = moment(p, q, z, 1.3)
            assert got.shape == (4, 5)
            ref = np.array([[moment(p, q, point, 1.3) for point in row] for row in z])
            assert np.array_equal(got, ref)


# ----------------------------------------------------------------------
# reduced data and the plane-wave identity
# ----------------------------------------------------------------------

def test_reduced_zero_data(example1):
    _, _, clean, _ = example1
    zero = type(clean)(
        surface=clean.surface,
        dirichlet=np.zeros_like(clean.dirichlet),
        neumann=np.zeros_like(clean.neumann),
    )
    red = reduced_data(zero, 15.0, circle_directions(64))
    assert np.all(red.values == 0)


def test_reduced_linearity(example1):
    cfg, _, clean, _ = example1
    dirs = circle_directions(128)
    red = reduced_data(clean, cfg.wavenumber, dirs)
    scaled = type(clean)(
        surface=clean.surface,
        dirichlet=(2.0 - 1.0j) * clean.dirichlet,
        neumann=(2.0 - 1.0j) * clean.neumann,
    )
    red2 = reduced_data(scaled, cfg.wavenumber, dirs)
    assert np.allclose(red2.values, (2.0 - 1.0j) * red.values, rtol=1e-13, atol=0)


def test_plane_wave_identity_singles():
    k = 9.0
    lam = 2.0 - 0.5j
    z = np.array([0.4, -1.0])
    mono = SourceEnsemble(sources=(monopole(z, lam),))
    for ang in np.linspace(0, 2 * math.pi, 7):
        d = np.array([math.cos(ang), math.sin(ang)])
        val = plane_wave_identity(mono, k, d)
        assert abs(val) == pytest.approx(abs(lam), abs=1e-13)
    eta = np.array([0.3, 1.1])
    dip = SourceEnsemble(sources=(dipole(z, eta),))
    for ang in np.linspace(0, 2 * math.pi, 7):
        d = np.array([math.cos(ang), math.sin(ang)])
        val = plane_wave_identity(dip, k, d)
        assert abs(val) == pytest.approx(k * abs(eta @ d), abs=1e-12)


def test_plane_wave_identity_extended_precision_oracle():
    # independent high-precision summation for the mixed ensemble
    cfg = preset_config("example3")
    ens = cfg.ensemble()
    k = cfg.wavenumber
    d = np.array([1.0, 0.0])
    mpmath.mp.dps = 40
    total = mpmath.mpc(0)
    for s in ens.sources:
        phase = mpmath.expjpi(mpmath.mpf(2) * (k * float(s.location @ d)) / (2 * mpmath.pi))
        lam = mpmath.mpc(s.scalar_intensity)
        eta_d = mpmath.mpc(complex(s.vector_intensity @ d.astype(complex)))
        total += (lam - 1j * k * eta_d) * phase
    got = plane_wave_identity(ens, k, d)
    assert abs(got - complex(total)) < 1e-12


@pytest.mark.parametrize("preset", ["example3", "example4"])
def test_plane_wave_identity_on_arrays_equals_scalar_calls(preset):
    cfg = preset_config(preset)
    ens, dirs = cfg.ensemble(), cfg.direction_set()
    got = plane_wave_identity(ens, cfg.wavenumber, dirs.nodes)
    assert got.shape == (len(dirs),)
    scalar = [plane_wave_identity(ens, cfg.wavenumber, d) for d in dirs.nodes]
    assert all(type(v) is complex for v in scalar)
    assert np.array_equal(got, scalar)


def test_identity_couples_forward_and_reduction(example1):
    cfg, ens, _, _ = example1
    k = cfg.wavenumber
    surf = circle_surface(cfg.measurement_radius, 2048)
    cauchy = synthesize_cauchy(ens, k, surf)
    dirs = circle_directions(256)
    red = reduced_data(cauchy, k, dirs)
    closed = np.array([plane_wave_identity(ens, k, d) for d in dirs.nodes])
    gap = np.max(np.abs(red.values - closed)) / np.max(np.abs(closed))
    assert gap < 1e-8


def test_dimension_mismatch_rejected(example1):
    _, _, clean, _ = example1
    with pytest.raises(ValueError):
        reduced_data(clean, 15.0, sphere_directions(8, 8))


# ----------------------------------------------------------------------
# indicator fields
# ----------------------------------------------------------------------

def test_single_monopole_readoff_exact():
    k = 15.0
    lam = 4.0 - 2.0j
    z = np.array([0.7, -0.2])
    ens = SourceEnsemble(sources=(monopole(z, lam),))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 1024))
    red = reduced_data(cauchy, k, circle_directions(256))
    vals = indicator_at(red, k, z[None, :])[0]
    assert abs(vals[0] - lam) < 1e-8
    assert np.max(np.abs(vals[1:])) < 1e-8


def test_single_dipole_readoff_exact():
    k = 15.0
    eta = np.array([1.0, 0.0])
    z = np.array([-0.4, 0.9])
    ens = SourceEnsemble(sources=(dipole(z, eta),))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 1024))
    red = reduced_data(cauchy, k, circle_directions(256))
    vals = indicator_at(red, k, z[None, :])[0]
    assert abs(vals[0]) < 1e-8
    assert abs(vals[1] - 1.0) < 1e-8
    assert abs(vals[2]) < 1e-8


def test_indicator_grid_matches_pointwise(example1):
    cfg, _, _, noisy = example1
    k = cfg.wavenumber
    red = reduced_data(noisy, k, cfg.direction_set())
    grid = make_grid([-4, -4], [4, 4], [7, 9])
    grid_vals = indicator_grid_values(red, k, grid)
    point_vals = indicator_at(red, k, grid.points)
    assert np.max(np.abs(grid_vals - point_vals)) < 1e-12
    sub = indicator_grid_values(red, k, grid, (2, 0))
    assert np.max(np.abs(sub - indicator_at(red, k, grid.points, (2, 0)))) < 1e-12
    fld = indicator_field(red, k, grid, 1)
    assert np.array_equal(fld.values, grid_vals[:, 1])


def test_indicator_grid_matches_pointwise_3d(example4):
    cfg, _, _, noisy = example4
    k = cfg.wavenumber
    red = reduced_data(noisy, k, cfg.direction_set())
    grid = make_grid([-3, -3, -3], [3, 3, 3], [5, 4, 6])
    grid_vals = indicator_grid_values(red, k, grid)
    point_vals = indicator_at(red, k, grid.points)
    assert np.max(np.abs(grid_vals - point_vals)) < 1e-12
    sub = indicator_grid_values(red, k, grid, (3, 0))
    assert np.max(np.abs(sub - indicator_at(red, k, grid.points, (3, 0)))) < 1e-12


def _fibonacci_units(count):
    idx = np.arange(count) + 0.5
    ca = 1.0 - 2.0 * idx / count
    sa = np.sqrt(1.0 - ca * ca)
    beta = np.pi * (1.0 + math.sqrt(5.0)) * idx
    unit = np.stack([sa * np.cos(beta), sa * np.sin(beta), ca], axis=1)
    return unit / np.linalg.norm(unit, axis=1)[:, None]


def _fibonacci_directions(count):
    return DirectionSet(3, _fibonacci_units(count), np.full(count, 4.0 * np.pi / count))


@pytest.mark.parametrize("components", [(2,), (0, 1, 2, 3)])
@pytest.mark.parametrize("rule", ["product", "fibonacci", "circle"])
def test_grid_kernel_matches_pointwise(example1, example4, rule, components):
    # every ring view of the grid kernel: 42 x 43 rings of 43 directions,
    # 1806 and 256 rings of one direction; odd, unequal axis counts
    if rule == "circle":
        cfg, _, _, noisy = example1
        dirs, grid = cfg.direction_set(), make_grid([-4, -3], [4, 3.5], [13, 7])
        components = tuple(c for c in components if c <= 2)
    else:
        cfg, _, _, noisy = example4
        dirs = cfg.direction_set() if rule == "product" else _fibonacci_directions(1806)
        grid = make_grid([-3, -2.5, -2], [3, 2, 3.5], [9, 7, 11])
        assert (ind._product_rule(dirs.nodes) is None) == (rule == "fibonacci")
    k = cfg.wavenumber
    red = reduced_data(noisy, k, dirs)
    grid_vals = indicator_grid_values(red, k, grid, components)
    point_vals = indicator_at(red, k, grid.points, components)
    assert np.max(np.abs(grid_vals - point_vals)) <= 1e-12 * np.max(np.abs(point_vals))


def test_grid_kernel_peak_allocation(example4):
    # the 60^3 product over all 1806 directions held a 104 MB phase table;
    # the ring sums stay within a few MB besides the 3.5 MB result
    import tracemalloc

    cfg, _, _, noisy = example4
    k = cfg.wavenumber
    red = reduced_data(noisy, k, cfg.direction_set())
    grid = make_grid([-3, -3, -3], [3, 3, 3], [60, 60, 60])
    tracemalloc.start()
    try:
        indicator_grid_values(red, k, grid, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_conjugation_symmetry_under_mirroring(example1):
    # |I(z; ensemble)| equals |I(-z; mirrored ensemble)| for real intensities
    cfg, ens, _, _ = example1
    k = cfg.wavenumber
    mirrored = SourceEnsemble(
        sources=tuple(monopole(-s.location, s.scalar_intensity) for s in ens.sources)
    )
    surf = cfg.surface()
    red_a = reduced_data(synthesize_cauchy(ens, k, surf), k, cfg.direction_set())
    red_b = reduced_data(synthesize_cauchy(mirrored, k, surf), k, cfg.direction_set())
    probes = np.array([[0.3, 0.4], [2.0, 2.9], [-1.7, 2.2], [1.1, -0.6]])
    va = indicator_at(red_a, k, probes)
    vb = indicator_at(red_b, k, -probes)
    assert np.max(np.abs(np.abs(va) - np.abs(vb))) < 1e-12


def test_noise_free_argmax_sits_at_the_sources(example1):
    # Local maximizers of |I_0| near each source, probed on a 0.002-step
    # local lattice.  Cross-source interference shifts the weakest source's
    # maximizer by up to ~1.8 fine cells (0.019 here), so the bound is two
    # fine-grid cells, not one.
    cfg, ens, clean, _ = example1
    k = cfg.wavenumber
    red = reduced_data(clean, k, cfg.direction_set())
    fine_cell = (2 * math.pi / k) / 39
    ax = np.arange(-0.05, 0.0502, 0.002)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    for s in ens.sources:
        pts = np.stack([X.ravel() + s.location[0], Y.ravel() + s.location[1]], 1)
        vals = np.abs(indicator_at(red, k, pts)[:, 0])
        best = pts[int(np.argmax(vals))]
        assert np.linalg.norm(best - s.location) <= 2 * fine_cell


def test_multi_source_readoff_within_cross_term_budget(example1, example4):
    # noise-free read-off at the exact locations deviates from the true
    # intensity only by the finite-separation cross term (<= 35% here)
    for cfg, ens, clean, _ in (example1, example4):
        k = cfg.wavenumber
        red = reduced_data(clean, k, cfg.direction_set())
        vals = indicator_at(red, k, ens.locations())
        for j, s in enumerate(ens.sources):
            rel = abs(vals[j, 0] - s.scalar_intensity) / abs(s.scalar_intensity)
            assert rel <= 0.35


def test_component_out_of_range(example1):
    cfg, _, _, noisy = example1
    red = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    grid = make_grid([-1, -1], [1, 1], [4, 4])
    with pytest.raises(ValueError):
        indicator_field(red, cfg.wavenumber, grid, 3)


def test_thread_count_does_not_change_results(example4):
    # every input spans more than one block of its kernel, so the chunks
    # of each kernel really are spread over the workers
    from heliodsm import _threads

    cfg, _, _, noisy = example4
    k = cfg.wavenumber
    red = reduced_data(noisy, k, cfg.direction_set())
    small = make_grid([-3, -3, -3], [3, 3, 3], [17, 16, 15])
    dirs = sphere_directions(48, 48)
    grid = make_grid([-3, -3, -3], [3, 3, 3], [48, 48, 3])
    probes = np.random.default_rng(5).uniform(-3, 3, size=(4100, 3))
    assert min(len(dirs), len(probes)) > ind._CHUNK
    # grid-kernel blocks: _RING_BLOCK entries of 42 rings x (n_y * L) columns
    for g, n_comps in ((small, 4), (grid, 2)):
        assert g.counts[0] * 42 * g.counts[1] * n_comps > ind._RING_BLOCK

    def evaluate():
        return (
            indicator_grid_values(red, k, small),
            reduced_data(noisy, k, dirs).values,
            indicator_grid_values(red, k, grid, (3, 0)),
            indicator_at(red, k, probes),
        )

    try:
        _threads.set_thread_count(1)
        a = evaluate()
        _threads.set_thread_count(3)
        b = evaluate()
    finally:
        _threads.set_thread_count(None)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    # the last block lands in the last rows
    tail_dirs = DirectionSet(3, dirs.nodes[-4:], dirs.weights[-4:])
    assert np.max(np.abs(a[1][-4:] - reduced_data(noisy, k, tail_dirs).values)) < 1e-10
    assert np.max(np.abs(a[2][-4:] - indicator_at(red, k, grid.points[-4:], (3, 0)))) < 1e-12
    assert np.max(np.abs(a[3][-4:] - indicator_at(red, k, probes[-4:]))) < 1e-12


def test_thread_count_does_not_change_results_with_blas_threads_unset():
    # map_chunks holds the bundled OpenBLAS to one thread itself, so the
    # contract must not lean on OPENBLAS_NUM_THREADS=1 being set outside
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    test = f"{__file__}::test_thread_count_does_not_change_results"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout


# ----------------------------------------------------------------------
# circulant R(d) on product rules
# ----------------------------------------------------------------------

def _general_path(monkeypatch, cauchy, k, dirs):
    with monkeypatch.context() as m:
        m.setattr(ind, "_circulant_parts", lambda *args: None)
        return reduced_data(cauchy, k, dirs)


def _noisy(cfg, surface):
    clean = synthesize_cauchy(cfg.ensemble(), cfg.wavenumber, surface)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return add_noise(clean, cfg.noise_spec())


@pytest.mark.parametrize("name, surface_theta", [("example4", 42), ("example5", 42), ("example4", 30)])
def test_circulant_reduced_data_matches_general_path(monkeypatch, name, surface_theta):
    cfg = preset_config(name)
    noisy = _noisy(cfg, sphere_surface(cfg.measurement_radius, surface_theta, 43))
    dirs = cfg.direction_set()
    assert len(dirs) == 42 * 43
    fast = reduced_data(noisy, cfg.wavenumber, dirs)
    general = _general_path(monkeypatch, noisy, cfg.wavenumber, dirs)
    assert fast.phase_exps == surface_theta * 42 * 43
    assert general.phase_exps == len(noisy.surface) * len(dirs)
    gap = np.max(np.abs(fast.values - general.values)) / np.max(np.abs(general.values))
    assert gap <= 1e-12


@pytest.mark.parametrize("name", ["example4", "example5"])
def test_batched_circulant_product_matches_einsum(monkeypatch, name):
    # one matmul over q against strided views of the held spectrum, checked
    # against the sum it replaced, einsum("raq,acq->rcq")
    cfg = preset_config(name)
    noisy = _noisy(cfg, cfg.surface())
    batched = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    monkeypatch.setattr(ind, "_circulant_product", lambda f, t: np.einsum("raq,acq->rcq", f, t))
    summed = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    assert batched.phase_exps == summed.phase_exps == 42 * 42 * 43
    gap = np.max(np.abs(batched.values - summed.values)) / np.max(np.abs(summed.values))
    assert gap <= 1e-14


def _fibonacci_surface(radius, count):
    unit = _fibonacci_units(count)
    return MeasurementSurface(
        dims=3, points=radius * unit, normals=unit,
        weights=np.full(count, 4.0 * np.pi * radius**2 / count), radius=radius,
    )


def _reversed(dirs):
    return DirectionSet(dirs.dims, dirs.nodes[::-1], dirs.weights[::-1])


@pytest.mark.parametrize(
    "surface, dirs",
    [
        (sphere_surface(6.0, 42, 43), sphere_directions(42, 40)),  # unequal n_phi
        (_fibonacci_surface(6.0, 1806), sphere_directions(42, 43)),  # no product rule
        (sphere_surface(6.0, 42, 43), _reversed(sphere_directions(42, 43))),  # azimuths descend
    ],
)
def test_non_matching_rules_take_the_general_path_bitwise(monkeypatch, surface, dirs):
    cfg = preset_config("example4")
    noisy = _noisy(cfg, surface)
    red = reduced_data(noisy, cfg.wavenumber, dirs)
    general = _general_path(monkeypatch, noisy, cfg.wavenumber, dirs)
    assert red.phase_exps == len(surface) * len(dirs)
    assert np.array_equal(red.values, general.values)


def test_surface_read_back_from_csv_takes_the_circulant_path(tmp_path, example4):
    cfg, _, clean, noisy = example4
    write_cauchy_csv(tmp_path / "cauchy.csv", clean, noisy)
    _, back = read_cauchy_csv(tmp_path / "cauchy.csv", cfg.measurement_radius)
    red = reduced_data(back, cfg.wavenumber, cfg.direction_set())
    assert red.phase_exps == 42 * 42 * 43
    assert np.array_equal(red.values, reduced_data(noisy, cfg.wavenumber, cfg.direction_set()).values)


# ----------------------------------------------------------------------
# phase tables held per process
# ----------------------------------------------------------------------

def test_held_spectrum_gives_the_built_bits(example4, cold_tables):
    cfg, _, _, noisy = example4
    cold = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    warm = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    assert (cold.tables_built, warm.tables_built) == (1, 0)
    assert cold.phase_exps == warm.phase_exps == 42 * 42 * 43
    assert np.array_equal(cold.values, warm.values)


@pytest.mark.parametrize("name", ["example1", "example4"])
def test_held_coarse_factors_are_the_built_bits(name, cold_tables):
    # dsm2 holds its coarse lattice's factors: read-only, and the bits
    # `_axis_factors` builds per call
    cfg = preset_config(name)
    dirs, grid = cfg.direction_set(), cfg.grid()
    dsm2(_noisy(cfg, cfg.surface()), cfg.wavenumber, grid, components=cfg.components, directions=dirs)
    held, built = ind._lattice_factors(dirs, cfg.wavenumber, grid)
    assert not built
    fresh = ind._axis_factors(dirs, cfg.wavenumber, grid.axes())
    assert len(held) == len(fresh) == cfg.dims
    for a, b in zip(held, fresh):
        assert not a.flags.writeable
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_grid_values_read_held_factors_and_hold_none(example1, monkeypatch, cold_tables):
    # a lattice nobody held is built for the call and left unheld; once
    # `_lattice_factors` holds it, the call reads those factors, same bits
    cfg, _, _, noisy = example1
    dirs, grid, k = cfg.direction_set(), cfg.grid(), cfg.wavenumber
    red = reduced_data(noisy, k, dirs)
    built = indicator_grid_values(red, k, grid)
    assert not ind._held_tables
    ind._lattice_factors(dirs, k, grid)

    def unreached(*args):
        raise AssertionError("held factors were built again")

    monkeypatch.setattr(ind, "_axis_factors", unreached)
    assert indicator_grid_values(red, k, grid).tobytes() == built.tobytes()


def test_held_tables_are_read_only(example1, example4):
    for cfg, _, _, noisy in (example1, example4):
        red = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
        lattice = make_grid([0.0] * cfg.dims, [0.4] * cfg.dims, FINE_COUNTS_2D if cfg.dims == 2 else FINE_COUNTS_3D)
        ind._lattice_factors(red.directions, cfg.wavenumber, lattice)
    held = [a for arrays in ind._held_tables.values() for a in arrays]
    assert len(held) >= 3 + 2 + 1  # 3D lattice, 2D lattice, spectrum
    for a in held:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


def test_each_table_input_gets_its_own_entry(cold_tables):
    dirs = sphere_directions(42, 43)
    box = make_grid([0, 0, 0], [0.6, 0.6, 0.6], [5, 5, 5])
    lattices = [
        (dirs, 10.0, box),
        (dirs, 10.5, box),  # k
        (dirs, 10.0, make_grid([0, 0, 0], [0.6, 0.6, 0.6], [5, 5, 6])),  # lattice counts
        (dirs, 10.0, make_grid([0, 0, 0], [0.6, 0.3, 0.6], [5, 5, 5])),  # box clamp
        (sphere_directions(40, 43), 10.0, box),  # direction rule
    ]
    for i, args in enumerate(lattices):
        assert ind._lattice_factors(*args)[1]
        assert len(ind._held_tables) == i + 1
    cfg = preset_config("example4")
    noisy, narrow = _noisy(cfg, cfg.surface()), _noisy(cfg, sphere_surface(cfg.measurement_radius, 30, 43))
    spectra = [(noisy, 10.0), (noisy, 10.5), (narrow, 10.0)]  # base, k, measurement rule
    for i, (data, k) in enumerate(spectra):
        assert reduced_data(data, k, dirs).tables_built == 1
        assert len(ind._held_tables) == len(lattices) + i + 1 == ind._HELD_MAX - len(spectra) + i + 1
    for args in lattices:
        assert not ind._lattice_factors(*args)[1]
    for data, k in spectra:
        assert reduced_data(data, k, dirs).tables_built == 0
    # beyond the bound, the least recently used entry goes
    for i in range(ind._HELD_MAX):
        ind._lattice_factors(dirs, 20.0 + i, box)
        assert len(ind._held_tables) == ind._HELD_MAX
    assert reduced_data(*spectra[-1], dirs).tables_built == 1


# ----------------------------------------------------------------------
# decay probe
# ----------------------------------------------------------------------

def test_decay_probe_validation():
    with pytest.raises(ValueError):
        decay_probe(2, 0, 0, [5.0, 20.0])
    with pytest.raises(ValueError):
        decay_probe(2, 0, 0, [20.0, 20.0])


def test_decay_probe_3d_00_env():
    # 4 pi |j0| envelope is exactly 4 pi / t
    kl = [50.0, 100.0, 200.0]
    env = decay_probe(3, 0, 0, kl)
    for base, val in zip(kl, env):
        assert val == pytest.approx(4 * math.pi / base, rel=0.05)


@pytest.mark.parametrize("dims", [2, 3])
def test_decay_probe_is_the_window_max_of_the_moments(dims):
    kl = [12.0, 30.0]
    env = decay_probe(dims, 1, dims, kl, orientations=5, window_samples=4)
    dirs = ind._orientation_sample(dims, 5)
    ref = [max(abs(moment(1, dims, t * zhat, 1.0)) for t in np.linspace(base, base + np.pi, 4) for zhat in dirs)
           for base in kl]
    assert env == pytest.approx(ref, rel=1e-14, abs=0)


def test_reduced_data_validation(example1):
    _, _, clean, _ = example1
    dirs = circle_directions(16)
    with pytest.raises(ValueError):
        ReducedData(directions=dirs, values=np.zeros(5, dtype=complex))
