"""Acceptance gate: one test per numbered criterion, tolerances pinned.

Each test prints a `[criterion N] PASS/FAIL` line with the measured
numbers, then asserts.  Criteria 5-9 are statistical reproductions of the
benchmark experiments at fixed seeds; criteria 1-4 are oracle identities.
"""

import math
import time
import warnings

import numpy as np
import pytest

from heliodsm import _threads
from heliodsm.cli import main
from heliodsm.forward import NoiseSpec, SourceEnsemble, add_noise, monopole, synthesize_cauchy
from heliodsm.geometry import (
    circle_directions,
    circle_surface,
    make_grid,
    sphere_directions,
    sphere_surface,
)
from heliodsm.indicators import (
    IndicatorField,
    decay_probe,
    indicator_at,
    indicator_grid_values,
    moment,
    plane_wave_identity,
    reduced_data,
)
from heliodsm.locator import Peak, PeakGroup, dsm, dsm2, find_peaks, recover_intensities
from heliodsm.presets import preset_config
from heliodsm.specfun import bessel_j, bessel_y, spherical_j


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# ----------------------------------------------------------------------
# shared example-1 runs (criteria 5 and 9)
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def example1_runs():
    cfg = preset_config("example1")
    ensemble = cfg.ensemble()
    clean = synthesize_cauchy(ensemble, cfg.wavenumber, cfg.surface())
    runs = []
    t0 = time.perf_counter()
    for seed in range(cfg.noise_seed, cfg.noise_seed + 5):
        noisy = add_noise(clean, NoiseSpec(level=cfg.noise_level, seed=seed))
        recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
        runs.append((seed, recon))
    elapsed = time.perf_counter() - t0
    return cfg, ensemble, runs, elapsed


def test_criterion_1_special_function_suite():
    t0 = time.perf_counter()
    worst_wronskian = 0.0
    for t in np.linspace(0.1, 100.0, 1000):
        w = bessel_j(1, t) * bessel_y(0, t) - bessel_j(0, t) * bessel_y(1, t)
        worst_wronskian = max(worst_wronskian, abs(w - 2.0 / (math.pi * t)))
    worst_recurrence = max(
        abs(bessel_j(2, t) - (2.0 / t * bessel_j(1, t) - bessel_j(0, t)))
        for t in np.linspace(0.5, 100.0, 1000)
    )
    eps = 1e-10
    bounds_ok = all(
        0.0 < bessel_j(0, t) < 1.0 - t * t / 4.0 + t**4 / 64.0 + eps
        and 0.0 < bessel_j(1, t) < t / 2.0
        and 0.0 < bessel_j(2, t) < t * t / 8.0
        and 0.0 < spherical_j(0, t) < 1.0 - t * t / 6.0 + t**4 / 120.0 + eps
        and 0.0 < spherical_j(1, t) < t / 3.0
        and 0.0 < spherical_j(2, t) < t * t / 15.0
        for t in np.linspace(1e-5, 1.0 - 1e-9, 1000)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_wronskian <= 1e-10 and worst_recurrence <= 1e-10 and bounds_ok and elapsed < 5.0
    _report(
        1,
        ok,
        f"wronskian {worst_wronskian:.2e}, recurrence {worst_recurrence:.2e}, "
        f"bounds {'ok' if bounds_ok else 'VIOLATED'}, {elapsed:.1f} s",
    )
    assert worst_wronskian <= 1e-10
    assert worst_recurrence <= 1e-10
    assert bounds_ok
    assert elapsed < 5.0


def test_criterion_2_moment_oracle():
    t0 = time.perf_counter()
    dirs2 = circle_directions(512)
    dirs3 = sphere_directions(64, 128)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for radius in (0.0, 1.0, 5.0, 20.0, 50.0):
        for _ in range(20):
            z2 = rng.normal(size=2)
            z2 *= radius / np.linalg.norm(z2)
            phase2 = np.exp(1j * (dirs2.nodes @ z2))
            for p in range(3):
                for q in range(p, 3):
                    mono = np.ones(len(dirs2))
                    if p:
                        mono = mono * dirs2.nodes[:, p - 1]
                    if q:
                        mono = mono * dirs2.nodes[:, q - 1]
                    quad = np.sum(dirs2.weights * mono * phase2)
                    worst = max(worst, abs(quad - moment(p, q, z2, 1.0)))
            z3 = rng.normal(size=3)
            z3 *= radius / np.linalg.norm(z3)
            phase3 = np.exp(1j * (dirs3.nodes @ z3))
            for p in range(4):
                for q in range(p, 4):
                    mono = np.ones(len(dirs3))
                    if p:
                        mono = mono * dirs3.nodes[:, p - 1]
                    if q:
                        mono = mono * dirs3.nodes[:, q - 1]
                    quad = np.sum(dirs3.weights * mono * phase3)
                    worst = max(worst, abs(quad - moment(p, q, z3, 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(2, ok, f"max |quadrature - closed form| = {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_plane_wave_identity():
    t0 = time.perf_counter()
    gaps = {}
    cfg = preset_config("example1")
    ens = cfg.ensemble()
    cauchy = synthesize_cauchy(ens, cfg.wavenumber, circle_surface(cfg.measurement_radius, 2048))
    dirs = circle_directions(256)
    red = reduced_data(cauchy, cfg.wavenumber, dirs)
    closed = np.array([plane_wave_identity(ens, cfg.wavenumber, d) for d in dirs.nodes])
    gaps["2D"] = float(np.max(np.abs(red.values - closed)) / np.max(np.abs(closed)))

    cfg = preset_config("example4")
    ens = cfg.ensemble()
    cauchy = synthesize_cauchy(ens, cfg.wavenumber, sphere_surface(cfg.measurement_radius, 64, 128))
    dirs = sphere_directions(42, 43)
    red = reduced_data(cauchy, cfg.wavenumber, dirs)
    closed = np.array([plane_wave_identity(ens, cfg.wavenumber, d) for d in dirs.nodes])
    gaps["3D"] = float(np.max(np.abs(red.values - closed)) / np.max(np.abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = max(gaps.values()) <= 1e-8 and elapsed < 60.0
    _report(3, ok, f"rel gaps 2D {gaps['2D']:.2e}, 3D {gaps['3D']:.2e}, {elapsed:.1f} s")
    assert gaps["2D"] <= 1e-8
    assert gaps["3D"] <= 1e-8
    assert elapsed < 60.0


def test_criterion_4_decay_rates():
    kl = [20.0 * (100.0 ** (i / 9.0)) for i in range(10)]  # 20 .. 2000
    log_kl = np.log(kl)
    results = []
    for dims, target, pairs in (
        (2, -0.5, [(0, 0), (0, 1), (1, 1), (1, 2)]),
        (3, -1.0, [(0, 0), (0, 3), (1, 1), (1, 3)]),
    ):
        for p, q in pairs:
            env = decay_probe(dims, p, q, kl)
            slope = float(np.polyfit(log_kl, np.log(env), 1)[0])
            results.append((dims, p, q, slope, target))
    ok = all(abs(s - t) <= 0.15 for _, _, _, s, t in results)
    worst = max(results, key=lambda r: abs(r[3] - r[4]))
    _report(
        4,
        ok,
        f"worst slope {worst[3]:+.3f} (target {worst[4]:+.1f}, pair {worst[1:3]} in {worst[0]}D)",
    )
    for dims, p, q, slope, target in results:
        assert abs(slope - target) <= 0.15, (dims, p, q, slope)


def test_criterion_5_example1_localization(example1_runs):
    cfg, ensemble, runs, elapsed = example1_runs
    exact = ensemble.locations()
    worst_err = 0.0
    counts = []
    for _, recon in runs:
        counts.append(recon.estimated_count)
        for j in range(len(exact)):
            d = float(np.min(np.linalg.norm(recon.centroids() - exact[j], axis=1)))
            worst_err = max(worst_err, d)
    ok = all(c == 4 for c in counts) and worst_err <= 0.12 and elapsed < 120.0
    _report(
        5,
        ok,
        f"counts {counts}, worst per-source error {worst_err:.3f} (<= 0.12), {elapsed:.1f} s",
    )
    assert all(c == 4 for c in counts)
    assert worst_err <= 0.12
    assert elapsed < 120.0


def test_criterion_6_example3_mixed():
    cfg = preset_config("example3")
    ens = cfg.ensemble()
    k = cfg.wavenumber
    exact = ens.locations()
    clean = synthesize_cauchy(ens, k, cfg.surface())
    noisy = add_noise(clean, cfg.noise_spec())
    recon = dsm2(noisy, k, cfg.grid(), components=cfg.components, directions=cfg.direction_set())
    errs = [float(np.min(np.linalg.norm(recon.centroids() - e, axis=1))) for e in exact]

    # per-component top-3 maximizer triplets, one triplet per source
    red = reduced_data(noisy, k, cfg.direction_set())
    values = indicator_grid_values(red, k, cfg.grid())
    wavelength = 2 * math.pi / k
    tops = {}
    for ell in range(3):
        fld = IndicatorField(grid=cfg.grid(), component=ell, values=values[:, ell])
        peaks = sorted(
            find_peaks(fld, 0.2, 2 * wavelength), key=lambda p: -p.magnitude
        )[:3]
        tops[ell] = [p.location for p in peaks]
    spreads = []
    for e in exact:
        triplet = [min(tops[ell], key=lambda L: np.linalg.norm(L - e)) for ell in range(3)]
        spreads.append(
            max(np.linalg.norm(a - b) for a in triplet for b in triplet)
        )
    ok = (
        recon.estimated_count == 3
        and max(errs) <= 0.12
        and all(s <= wavelength for s in spreads)
    )
    _report(
        6,
        ok,
        f"count {recon.estimated_count}, errors {[f'{e:.3f}' for e in errs]}, "
        f"triplet spreads {[f'{s:.3f}' for s in spreads]} (<= {wavelength:.3f})",
    )
    assert recon.estimated_count == 3
    assert max(errs) <= 0.12
    assert all(s <= wavelength for s in spreads)


def test_criterion_7_example4_dsm_vs_dsm2():
    cfg = preset_config("example4")
    ens = cfg.ensemble()
    k = cfg.wavenumber
    exact = ens.locations()
    clean = synthesize_cauchy(ens, k, cfg.surface())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        noisy = add_noise(clean, cfg.noise_spec())
        settings = {"components": cfg.components, "directions": cfg.direction_set()}
        # the fastest of 3 runs each, so a host stall in either cannot decide
        recon2 = min(
            (dsm2(noisy, k, cfg.grid(), **settings) for _ in range(3)),
            key=lambda r: r.elapsed_seconds,
        )
        recon1 = min(
            (dsm(noisy, k, cfg.dsm_grid(), **settings) for _ in range(3)),
            key=lambda r: r.elapsed_seconds,
        )
    errs2 = [float(np.min(np.linalg.norm(recon2.centroids() - e, axis=1))) for e in exact]
    errs1 = [float(np.min(np.linalg.norm(recon1.centroids() - e, axis=1))) for e in exact]
    ratio = recon2.elapsed_seconds / recon1.elapsed_seconds
    ok = (
        recon1.estimated_count == 3
        and recon2.estimated_count == 3
        and max(errs1) <= 0.10
        and max(errs2) <= 0.10
        and ratio <= 0.1
    )
    _report(
        7,
        ok,
        f"counts dsm {recon1.estimated_count} / dsm2 {recon2.estimated_count}, "
        f"errors dsm {max(errs1):.3f} / dsm2 {max(errs2):.3f} (<= 0.10), "
        f"T_dsm {recon1.elapsed_seconds:.2f} s, T_dsm2 {recon2.elapsed_seconds:.2f} s, "
        f"ratio {ratio:.2f} (need <= 0.10)",
    )
    assert recon1.estimated_count == 3 and recon2.estimated_count == 3
    assert max(errs1) <= 0.10
    assert max(errs2) <= 0.10
    assert ratio <= 0.1, (
        "two-level wall time is not 10x below single-level: the workload ratio "
        "(coarse+fine)/full-grid caps the speedup near 4x for any implementation "
        "that evaluates both with the same kernel"
    )


def test_criterion_8_example5_noise_robustness():
    cfg = preset_config("example5")
    ens = cfg.ensemble()
    k = cfg.wavenumber
    exact = ens.locations()
    clean = synthesize_cauchy(ens, k, cfg.surface())
    counts, worst = [], 0.0
    for seed in range(cfg.noise_seed, cfg.noise_seed + 5):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            noisy = add_noise(clean, NoiseSpec(level=cfg.noise_level, seed=seed))
        recon = dsm2(noisy, k, cfg.grid(), components=cfg.components, directions=cfg.direction_set())
        counts.append(recon.estimated_count)
        for e in exact:
            worst = max(worst, float(np.min(np.linalg.norm(recon.centroids() - e, axis=1))))
    ok = all(c == 3 for c in counts) and worst <= 0.16
    _report(8, ok, f"counts {counts}, worst error {worst:.3f} (<= 0.16) at eps = 15%")
    assert all(c == 3 for c in counts)
    assert worst <= 0.16


def test_criterion_9_intensity_readoff(example1_runs):
    # M = 1, noise-free: read-off at the exact location is exact to 1e-8
    k = 14.0
    z = np.array([0.4, -0.8])
    lam = 2.5 - 1.5j
    ens = SourceEnsemble(sources=(monopole(z, lam),))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 1024))
    group = PeakGroup(
        members=(Peak(location=z, component=0, magnitude=abs(lam), grid_index=0),),
        centroid=z,
    )
    [(lam_hat, eta_hat)] = recover_intensities((group,), cauchy, k)
    m1_gap = max(abs(lam_hat - lam), float(np.max(np.abs(eta_hat))))

    # Example 1 at eps = 5%: relative read-off error per source, 5 seeds
    cfg, ensemble, runs, _ = example1_runs
    exact = ensemble.locations()
    lams = [s.scalar_intensity for s in ensemble.sources]
    worst_rel = 0.0
    for _, recon in runs:
        for j, e in enumerate(exact):
            d = np.linalg.norm(recon.centroids() - e, axis=1)
            g = recon.groups[int(np.argmin(d))]
            worst_rel = max(worst_rel, abs(g.lambda_estimate - lams[j]) / abs(lams[j]))
    ok = m1_gap <= 1e-8 and worst_rel <= 0.20
    _report(
        9,
        ok,
        f"M=1 gap {m1_gap:.2e} (<= 1e-8), example-1 worst relative read-off "
        f"{worst_rel:.3f} (need <= 0.20)",
    )
    assert m1_gap <= 1e-8
    assert worst_rel <= 0.20, (
        "read-off error: the joint least-squares fit of the Cauchy data at "
        "each group's strongest component-0 member misses lambda by more "
        "than 20% on some example-1 seed"
    )


@pytest.mark.blas_unset
def test_criterion_10_bitwise_determinism(tmp_path):
    outs = []
    for tag, threads in (("t1", 1), ("t2", 2)):
        out = tmp_path / tag
        code = main(
            ["reconstruct", "--preset", "example1", "--out", str(out),
             "--threads", str(threads), "--quiet"]
        )
        assert code == 0
        outs.append(out)
    names = ["cauchy.csv", "indicator_0.csv", "indicator_1.csv",
             "indicator_2.csv", "reconstruction.csv"]
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)

    # library-level check on the 3D path across thread counts
    cfg = preset_config("example5")
    ens = cfg.ensemble()
    clean = synthesize_cauchy(ens, cfg.wavenumber, cfg.surface())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        noisy = add_noise(clean, cfg.noise_spec())
    red = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    grid = make_grid([-3, -3, -3], [3, 3, 3], [14, 13, 12])
    try:
        _threads.set_thread_count(1)
        a = indicator_grid_values(red, cfg.wavenumber, grid)
        vals_a = indicator_at(red, cfg.wavenumber, grid.points[:7])
        _threads.set_thread_count(4)
        b = indicator_grid_values(red, cfg.wavenumber, grid)
        vals_b = indicator_at(red, cfg.wavenumber, grid.points[:7])
    finally:
        _threads.set_thread_count(None)
    same_3d = np.array_equal(a, b) and np.array_equal(vals_a, vals_b)
    ok = same and same_3d
    _report(10, ok, f"CSV bytes identical: {same}, 3D values identical: {same_3d}")
    assert same
    assert same_3d
