"""Closed-form fields against finite-difference and symmetry oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heliodsm._threads
from heliodsm.forward import (
    CauchyData,
    NoiseSpec,
    SourceEnsemble,
    add_noise,
    check_assumptions,
    dipole,
    monopole,
    synthesize_cauchy,
)
from heliodsm.forward import _unit_traces
from heliodsm.geometry import circle_surface, sphere_surface
from heliodsm.presets import preset_config
from heliodsm.specfun import hankel1


def almost(a, b, tol):
    return abs(a - b) <= tol


# ----------------------------------------------------------------------
# source / ensemble validation
# ----------------------------------------------------------------------

def test_source_must_be_pure():
    with pytest.raises(ValueError):
        monopole([0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        dipole([0.0, 0.0], [0.0, 0.0])
    for location in ([math.nan, 0.0], [0.0, math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            monopole(location, 1.0)
    src = monopole([1.0, 2.0], 3.0 + 1.0j)
    assert src.is_monopole
    with pytest.raises(ValueError):
        # both intensities set at once
        type(src)(location=np.array([0.0, 0.0]), scalar_intensity=1.0,
                  vector_intensity=np.array([1.0, 0.0]))


def test_ensemble_distinct_locations_and_separation():
    with pytest.raises(ValueError):
        SourceEnsemble(sources=(monopole([1, 1], 1.0), monopole([1, 1], 2.0)))
    ens = SourceEnsemble(sources=(monopole([0, 0], 1.0), monopole([3, 4], 2.0)))
    assert ens.min_separation == 5.0
    single = SourceEnsemble(sources=(monopole([0, 0], 1.0),))
    assert single.min_separation == math.inf


# ----------------------------------------------------------------------
# closed-form field values
# ----------------------------------------------------------------------

def traces(ens, k, points, normals):
    """u and du/dnu at each row of `points`: the unit traces weighed by
    -(lam_j, eta_j), as synthesis weighs them."""
    weights = np.array([[s.scalar_intensity, *s.vector_intensity] for s in ens.sources])
    return -np.einsum("tmpc,pc->tm", _unit_traces(k, points, normals, ens.locations()), weights)


def field(ens, k, points):
    """u at one point (a vector) or at each row of a point array."""
    points = np.asarray(points, dtype=float)
    rows = np.atleast_2d(points)
    u, _ = traces(ens, k, rows, np.zeros_like(rows))
    return u if points.ndim == 2 else u[0]


def test_2d_monopole_modulus():
    k = 7.0
    ens = SourceEnsemble(sources=(monopole([0.0, 0.0], 1.0),))
    x = np.array([[1.3, 0.4], [-2.0, 0.7]])
    r = np.linalg.norm(x, axis=1)
    assert np.max(np.abs(np.abs(field(ens, k, x)) - 0.25 * np.abs(hankel1(0, k * r)))) <= 1e-13


def test_2d_dipole_specialization():
    k = 9.0
    eta = np.array([0.8, -0.5])
    ens = SourceEnsemble(sources=(dipole([0.0, 0.0], eta),))
    x = np.array([1.1, 0.3])
    r = np.linalg.norm(x)
    expected = 0.25j * k * (eta @ x / r) * hankel1(1, k * r)
    assert abs(field(ens, k, x) - expected) < 1e-13


def test_3d_monopole_modulus_and_phase():
    k = 10.0
    z = np.array([0.2, -0.1, 0.5])
    ens = SourceEnsemble(sources=(monopole(z, 1.0),))
    x = np.array([2.0, 1.0, -1.0])
    r = np.linalg.norm(x - z)
    u = field(ens, k, x)
    assert almost(abs(u), 1.0 / (4 * math.pi * r), 1e-15)
    assert almost((np.angle(u) - (k * r + math.pi)) % (2 * math.pi), 0.0, 1e-10) or almost(
        (np.angle(u) - (k * r + math.pi)) % (2 * math.pi), 2 * math.pi, 1e-10
    )


def test_radial_symmetry_of_central_monopole():
    k = 15.0
    ens = SourceEnsemble(sources=(monopole([0.0, 0.0], 2.0),))
    surf = circle_surface(6.0, 64)
    values = synthesize_cauchy(ens, k, surf).neumann
    assert np.max(np.abs(np.diff(values))) < 1e-12


def test_field_rejected_at_source():
    for loc in ([1.0, 1.0], [1.0, 1.0, 1.0]):
        ens = SourceEnsemble(sources=(monopole(loc, 1.0),))
        with pytest.raises(ValueError):
            field(ens, 5.0, loc)


def _reference_traces(ens, k, x, nu):
    """u and du/dnu at one point, from the hand-expanded per-point closed forms."""
    u = du = 0j
    for s in ens.sources:
        t = x - s.location
        r = np.linalg.norm(t)
        lam, eta = s.scalar_intensity, s.vector_intensity
        eta_t = complex(eta @ t)
        if ens.dims == 2:
            h0, h1 = hankel1(0, k * r), hankel1(1, k * r)
            u -= 0.25j * (lam * h0 - k * (eta_t / r) * h1)
            vec = (lam * t + eta) * h1 * r * r + eta_t * (k * r * h0 - 2.0 * h1) * t
            du += 0.25j * k * complex(nu @ vec) / r**3
        else:
            phase = np.exp(1j * k * r) / (4.0 * np.pi)
            u -= phase / r**3 * (lam * r * r + eta_t * (1j * k * r - 1.0))
            vec = (lam * t + eta) * (1j * k * r - 1.0) * r * r - eta_t * (k * k * r * r + 3j * k * r - 3.0) * t
            du -= phase / r**5 * complex(nu @ vec)
    return u, du


def _unit_sources(z):
    """A unit monopole and the unit dipoles e_1..e_N at z, in column order."""
    return [monopole(z, 1.0)] + [dipole(z, e) for e in np.eye(len(z))]


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example5"])
def test_traces_match_per_point_closed_forms(name):
    cfg = preset_config(name)
    ens, k, radius = cfg.ensemble(), cfg.wavenumber, cfg.measurement_radius
    surf = circle_surface(radius, 48) if ens.dims == 2 else sphere_surface(radius, 6, 8)
    units = _unit_traces(k, surf.points, surf.normals, ens.locations())
    # every unit column at every source, dipoles included; the unit traces
    # carry no model sign, the reference's u = -sum_j [...] does
    for j, s in enumerate(ens.sources):
        for c, unit in enumerate(_unit_sources(s.location)):
            one = SourceEnsemble(sources=(unit,))
            ref = np.array([_reference_traces(one, k, x, nu) for x, nu in zip(surf.points, surf.normals)]).T
            for got, want in zip(-units[:, :, j, c], ref):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (s.location, c)
    cauchy = synthesize_cauchy(ens, k, surf)
    ref = [_reference_traces(ens, k, x, nu) for x, nu in zip(surf.points, surf.normals)]
    ref_u, ref_du = np.array(ref).T
    assert np.max(np.abs(cauchy.dirichlet - ref_u)) <= 1e-14 * np.max(np.abs(ref_u))
    assert np.max(np.abs(cauchy.neumann - ref_du)) <= 1e-14 * np.max(np.abs(ref_du))


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_one_radial_call_gives_the_per_source_bits(name):
    # `_unit_traces` evaluates the radial profile for every (point, source)
    # pair in one call; each element takes a lone argument's operations, so
    # its traces are those of one call per source and point, bit for bit
    cfg = preset_config(name)
    surf = cfg.surface()
    k, at = cfg.wavenumber, cfg.ensemble().locations()
    got = _unit_traces(k, surf.points, surf.normals, at)
    for i, (x, nu) in enumerate(zip(surf.points, surf.normals)):
        for j, z in enumerate(at):
            want = _unit_traces(k, x[None], nu[None], z[None])
            assert got[:, i, j].tobytes() == want[:, 0, 0].tobytes(), (i, j)


# ----------------------------------------------------------------------
# finite-difference oracles
# ----------------------------------------------------------------------

def _assert_neumann_matches_finite_difference(name, surf, h=1e-5):
    cfg = preset_config(name)
    ens, k = cfg.ensemble(), cfg.wavenumber
    x, nu = surf.points, surf.normals
    _, exact = traces(ens, k, x, nu)
    fd = (field(ens, k, x + h * nu) - field(ens, k, x - h * nu)) / (2 * h)
    assert np.max(np.abs(exact - fd) / np.abs(exact)) < 1e-6


def test_neumann_2d_matches_finite_difference():
    # example1 holds monopoles only, example3 adds two dipoles
    for name in ("example1", "example3"):
        _assert_neumann_matches_finite_difference(name, circle_surface(6.0, 16))


def test_neumann_3d_matches_finite_difference():
    # example4 holds monopoles only, example5 adds two dipoles
    for name in ("example4", "example5"):
        _assert_neumann_matches_finite_difference(name, sphere_surface(6.0, 4, 8))


def test_helmholtz_residual_2d(example1):
    cfg, ens, _, _ = example1
    k = cfg.wavenumber
    h = 1e-4
    rng = np.random.default_rng(5)
    for _ in range(12):
        x = rng.uniform(-5.0, 5.0, size=2)
        if min(np.linalg.norm(x - s.location) for s in ens.sources) < 0.5:
            continue
        stencil = x + np.array([[0, 0], [h, 0], [-h, 0], [0, h], [0, -h]])
        u, *around = field(ens, k, stencil)
        lap = (sum(around) - 4.0 * u) / (h * h)
        assert abs(lap + k * k * u) <= 1e-4 * k * k * abs(u)


def test_helmholtz_residual_3d(example4):
    cfg, ens, _, _ = example4
    k = cfg.wavenumber
    h = 1e-4
    rng = np.random.default_rng(6)
    for _ in range(8):
        x = rng.uniform(-4.0, 4.0, size=3)
        if min(np.linalg.norm(x - s.location) for s in ens.sources) < 0.5:
            continue
        offsets = np.vstack([np.zeros(3), h * np.eye(3), -h * np.eye(3)])
        u, *around = field(ens, k, x + offsets)
        lap = (sum(around) - 6.0 * u) / (h * h)
        assert abs(lap + k * k * u) <= 1e-4 * k * k * abs(u)


def test_reciprocity_of_monopole_kernel():
    k = 11.0
    a, b = np.array([0.3, -1.2]), np.array([2.0, 0.9])
    u_ab = field(SourceEnsemble(sources=(monopole(a, 1.0),)), k, b)
    u_ba = field(SourceEnsemble(sources=(monopole(b, 1.0),)), k, a)
    assert abs(u_ab - u_ba) < 1e-13
    a3, b3 = np.array([0.3, -1.2, 0.4]), np.array([2.0, 0.9, -0.6])
    u_ab = field(SourceEnsemble(sources=(monopole(a3, 1.0),)), k, b3)
    u_ba = field(SourceEnsemble(sources=(monopole(b3, 1.0),)), k, a3)
    assert abs(u_ab - u_ba) < 1e-13


# ----------------------------------------------------------------------
# synthesis and noise
# ----------------------------------------------------------------------

def test_synthesize_shapes_and_linearity(example1):
    cfg, ens, clean, _ = example1
    assert len(clean.dirichlet) == len(clean.surface) == 200
    assert len(clean.neumann) == 200
    # linearity: union data equals the sum of per-source data
    k = cfg.wavenumber
    surf = clean.surface
    total_d = np.zeros(len(surf), dtype=complex)
    total_n = np.zeros(len(surf), dtype=complex)
    for s in ens.sources:
        single = synthesize_cauchy(SourceEnsemble(sources=(s,)), k, surf)
        total_d += single.dirichlet
        total_n += single.neumann
    scale = np.max(np.abs(clean.dirichlet))
    assert np.max(np.abs(total_d - clean.dirichlet)) / scale < 1e-13
    scale_n = np.max(np.abs(clean.neumann))
    assert np.max(np.abs(total_n - clean.neumann)) / scale_n < 1e-13


@pytest.mark.blas_unset
def test_synthesis_bits_do_not_depend_on_blas_threads():
    # synthesis sums its unit traces in numpy's own loop, not in BLAS, so
    # the caller's OpenBLAS thread count moves no bit of the data
    lib = heliodsm._threads.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
    cfgs = [preset_config(f"example{n}") for n in range(1, 6)]
    old = lib.scipy_openblas_get_num_threads64_()
    runs = []
    try:
        for threads in (1, 2):
            lib.scipy_openblas_set_num_threads64_(threads)
            runs.append([synthesize_cauchy(c.ensemble(), c.wavenumber, c.surface()) for c in cfgs])
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
    for one, two in zip(*runs):
        assert one.dirichlet.tobytes() == two.dirichlet.tobytes()
        assert one.neumann.tobytes() == two.neumann.tobytes()


def test_source_on_surface_rejected():
    ens = SourceEnsemble(sources=(monopole([6.0, 0.0], 1.0),))
    with pytest.raises(ValueError):
        synthesize_cauchy(ens, 5.0, circle_surface(6.0, 64))


def test_source_outside_surface_rejected():
    # between the nodes of the circle and outside it: no node is near either
    for location in ([6.0 * math.cos(0.05), 6.0 * math.sin(0.05)], [7.0, 0.0]):
        ens = SourceEnsemble(sources=(monopole(location, 1.0),))
        with pytest.raises(ValueError, match="not inside the measurement radius"):
            synthesize_cauchy(ens, 5.0, circle_surface(6.0, 64))


def test_noise_zero_is_identity(example1):
    _, _, clean, _ = example1
    out = add_noise(clean, NoiseSpec(level=0.0, seed=7))
    assert np.array_equal(out.dirichlet, clean.dirichlet)
    assert np.array_equal(out.neumann, clean.neumann)


def test_noise_bound_and_determinism(example1):
    _, _, clean, _ = example1
    spec = NoiseSpec(level=0.05, seed=42)
    a = add_noise(clean, spec)
    b = add_noise(clean, spec)
    assert np.array_equal(a.dirichlet, b.dirichlet)
    assert np.array_equal(a.neumann, b.neumann)
    rel_d = np.abs(a.dirichlet - clean.dirichlet) / np.abs(clean.dirichlet)
    rel_n = np.abs(a.neumann - clean.neumann) / np.abs(clean.neumann)
    assert rel_d.max() <= 0.05 * (1 + 1e-12)
    assert rel_n.max() <= 0.05 * (1 + 1e-12)
    c = add_noise(clean, NoiseSpec(level=0.05, seed=43))
    assert not np.array_equal(a.dirichlet, c.dirichlet)


@given(st.floats(min_value=1e-4, max_value=0.15), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=25, deadline=None)
def test_noise_bound_property(level, seed):
    surf = circle_surface(2.0, 16)
    ens = SourceEnsemble(sources=(monopole([0.3, 0.1], 2.0),))
    clean = synthesize_cauchy(ens, 6.0, surf)
    noisy = add_noise(clean, NoiseSpec(level=level, seed=seed))
    rel = np.abs(noisy.dirichlet - clean.dirichlet) / np.abs(clean.dirichlet)
    assert rel.max() <= level * (1 + 1e-12)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(level=-0.1, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(level=0.6, seed=0)
    for seed in (-1, 2**128):  # outside the Philox key range
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(level=0.05, seed=seed)
    for seed in (1.5, True, 2.0):  # a float would run its integer part's key
        with pytest.raises(ValueError, match="seed must be an integer"):
            NoiseSpec(level=0.05, seed=seed)
    with pytest.raises(ValueError, match="level must be finite"):
        NoiseSpec(level=math.nan, seed=0)
    for seed in (np.int64(7), np.uint64(2**64 - 1)):
        assert NoiseSpec(level=0.05, seed=seed).seed == seed
    with pytest.warns(UserWarning):
        NoiseSpec(level=0.3, seed=0)


def test_noise_warning_points_at_the_caller():
    with pytest.warns(UserWarning, match="small-noise") as record:
        NoiseSpec(level=0.3, seed=1)
    assert all(w.filename == __file__ for w in record)


def test_cauchy_data_validation(example1):
    _, _, clean, _ = example1
    with pytest.raises(ValueError):
        CauchyData(surface=clean.surface, dirichlet=clean.dirichlet[:-1], neumann=clean.neumann)
    bad = clean.dirichlet.copy()
    bad[3] = complex(math.nan, 0.0)
    with pytest.raises(ValueError):
        CauchyData(surface=clean.surface, dirichlet=bad, neumann=clean.neumann)


# ----------------------------------------------------------------------
# assumption diagnostics
# ----------------------------------------------------------------------

def test_assumptions_example1(example1):
    cfg, ens, _, _ = example1
    report = check_assumptions(ens, cfg.wavenumber)
    assert report.min_separation == pytest.approx(4.0)
    assert report.separation_ratio == pytest.approx(4.0 * 15.0 / (2 * math.pi))
    assert report.ok


def test_assumptions_single_source():
    report = check_assumptions(SourceEnsemble(sources=(monopole([0, 0], 1.0),)), 10.0)
    assert report.min_separation == math.inf
    assert report.ok


def test_assumptions_mixed_balanced():
    ens = SourceEnsemble(sources=(monopole([0, 0], 9.0), dipole([3, 3], [1.0, 0.0])))
    report = check_assumptions(ens, 20.0)
    assert report.intensity_ratios == (pytest.approx(0.45),)
    assert report.ok


def test_assumptions_warnings():
    ens = SourceEnsemble(sources=(monopole([0, 0], 1.0), monopole([0.5, 0], 1.0)))
    report = check_assumptions(ens, 10.0)
    assert any("separation" in w for w in report.warnings)
    ens = SourceEnsemble(sources=(monopole([0, 0], 100.0), dipole([3, 3], [1.0, 0.0])))
    report = check_assumptions(ens, 10.0)
    assert any("unbalanced" in w for w in report.warnings)
