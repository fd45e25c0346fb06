"""Built-in verification suite: oracle checks runnable from the CLI.

Each check recomputes a quantity along two independent routes and compares
them at a fixed tolerance:

* special-function identities (Wronskian, recurrence, series bounds,
  branch agreement at the evaluation crossover),
* closed-form circle/sphere moments against direction-set quadrature,
* the reduced boundary functional against the exact plane-wave sum
  (the identity coupling geometry, forward synthesis, and indicators),
* single-source indicator read-off exactness,
* oscillatory-moment decay slopes on a log-log envelope fit,
* the boundary-fit intensity read-off the locator uses, exact on clean
  data at the exact sources of every preset.

`run(level)` prints one pass/fail line per check and returns False if any
check fails.  The quick level runs in seconds; full adds the 3D identity,
the decay fits, the multi-source indicator band and the boundary-fit
read-off (a few seconds more).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import SourceEnsemble, dipole, monopole, synthesize_cauchy
from .geometry import DirectionSet, circle_directions, circle_surface, sphere_directions, sphere_surface
from .indicators import decay_probe, indicator_at, moment, plane_wave_identity, reduced_data
from .locator import Peak, PeakGroup, recover_intensities
from .presets import PRESETS, preset_config
from .specfun import bessel_j, bessel_y, spherical_j
from .specfun import _hankel_expansion, _j_series, _y0_series, _y1_series

__all__ = ["Check", "run", "quick_checks", "full_checks"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


def _check_wronskian() -> Check:
    ts = np.linspace(0.1, 100.0, 1201)
    w = bessel_j(1, ts) * bessel_y(0, ts) - bessel_j(0, ts) * bessel_y(1, ts)
    worst = float(np.max(np.abs(w - 2.0 / (np.pi * ts))))
    return Check("wronskian J1*Y0 - J0*Y1 = 2/(pi t)", worst <= 1e-10, f"max |resid| = {worst:.2e}")


def _check_recurrence() -> Check:
    ts = np.linspace(0.5, 100.0, 997)
    worst = float(np.max(np.abs(bessel_j(2, ts) - (2.0 / ts * bessel_j(1, ts) - bessel_j(0, ts)))))
    return Check("recurrence J2 = (2/t) J1 - J0", worst <= 1e-10, f"max |resid| = {worst:.2e}")


def _check_series_bounds() -> Check:
    eps = 1e-10  # order-0 upper-bound margins are O(t^6), sub-ulp near 0
    ts = np.linspace(1e-4, 1.0 - 1e-9, 600)
    j0, j1, j2 = (bessel_j(n, ts) for n in range(3))
    s0, s1, s2 = (spherical_j(n, ts) for n in range(3))
    holds = (
        (0.0 < j0) & (j0 < 1.0 - ts * ts / 4.0 + ts**4 / 64.0 + eps)
        & (0.0 < j1) & (j1 < ts / 2.0)
        & (0.0 < j2) & (j2 < ts * ts / 8.0)
        & (0.0 < s0) & (s0 < 1.0 - ts * ts / 6.0 + ts**4 / 120.0 + eps)
        & (0.0 < s1) & (s1 < ts / 3.0)
        & (0.0 < s2) & (s2 < ts * ts / 15.0)
    )
    detail = "all hold on (0, 1)" if holds.all() else f"violated at t = {ts[~holds][0]:.6f}"
    return Check("small-argument envelope bounds", holds.all(), detail)


def _check_branch_agreement() -> Check:
    ts = np.linspace(14.0, 18.0, 81)
    h = [_hankel_expansion(n, ts) for n in range(3)]
    gaps = [_j_series(n, ts) - h[n].real for n in range(3)]
    gaps += [_y0_series(ts) - h[0].imag, _y1_series(ts) - h[1].imag]
    worst = float(np.max(np.abs(gaps)))
    return Check("series/asymptotic branch agreement", worst <= 1e-9, f"max gap = {worst:.2e}")


def _moment_check(dirs: DirectionSet) -> Check:
    dims = dirs.dims
    rng = np.random.default_rng(2024 + dims)
    worst = 0.0
    k = 1.0
    for t in (0.0, 1.0, 5.0, 20.0, 50.0):
        zhat = rng.normal(size=(8, dims))
        zhat /= np.linalg.norm(zhat, axis=1)[:, None]
        z = t * zhat
        phase = np.exp(1j * k * (z @ dirs.nodes.T))  # (8, n_dir)
        mono = np.vstack([np.ones(len(dirs)), dirs.nodes.T])  # d_0 == 1, d_1 .. d_N
        for p in range(dims + 1):
            for q in range(p, dims + 1):
                quad = np.sum(dirs.weights * mono[p] * mono[q] * phase, axis=1)
                worst = max(worst, float(np.max(np.abs(quad - moment(p, q, z, k)))))
    return Check(
        f"{dims}D closed-form moments vs quadrature", worst <= 1e-10, f"max gap = {worst:.2e}"
    )


def _identity_check(dims: int) -> Check:
    if dims == 2:
        cfg = preset_config("example1")
        surface = circle_surface(cfg.measurement_radius, 2048)
        dirs = circle_directions(256)
    else:
        cfg = preset_config("example4")
        surface = sphere_surface(cfg.measurement_radius, 64, 128)
        dirs = sphere_directions(42, 43)
    ens = cfg.ensemble()
    k = cfg.wavenumber
    cauchy = synthesize_cauchy(ens, k, surface)
    reduced = reduced_data(cauchy, k, dirs)
    closed = plane_wave_identity(ens, k, dirs.nodes)
    scale = np.max(np.abs(closed))
    gap = np.max(np.abs(reduced.values - closed)) / scale
    return Check(
        f"{dims}D plane-wave identity (refined quadrature)", gap <= 1e-8, f"rel gap = {gap:.2e}"
    )


def _single_source_readoff(dims: int) -> Check:
    k = 12.0
    if dims == 2:
        surface = circle_surface(5.0, 1024)
        dirs = circle_directions(256)
        mono_loc, dip_loc = [0.6, -1.1], [0.7, 0.9]
        eta = [1.0, 0.0]
    else:
        surface = sphere_surface(5.0, 64, 128)
        dirs = sphere_directions(42, 43)
        mono_loc, dip_loc = [0.6, -1.1, 0.4], [0.7, 0.9, -0.3]
        eta = [0.0, 1.0, 0.0]
    worst = 0.0
    ens = SourceEnsemble(sources=(monopole(mono_loc, 3.0 - 1.0j),))
    cauchy = synthesize_cauchy(ens, k, surface)
    red = reduced_data(cauchy, k, dirs)
    vals = indicator_at(red, k, np.asarray(mono_loc)[None, :])[0]
    worst = max(worst, abs(vals[0] - (3.0 - 1.0j)))
    worst = max(worst, float(np.max(np.abs(vals[1:]))))
    ens = SourceEnsemble(sources=(dipole(dip_loc, eta),))
    cauchy = synthesize_cauchy(ens, k, surface)
    red = reduced_data(cauchy, k, dirs)
    vals = indicator_at(red, k, np.asarray(dip_loc)[None, :])[0]
    worst = max(worst, abs(vals[0]))
    worst = max(worst, float(np.max(np.abs(vals[1:] - np.asarray(eta)))))
    return Check(
        f"{dims}D single-source read-off exactness", worst <= 1e-8, f"max gap = {worst:.2e}"
    )


def _decay_check(dims: int) -> Check:
    kl = [20.0 * (100.0 ** (i / 9.0)) for i in range(10)]  # 20 .. 2000
    target = -0.5 if dims == 2 else -1.0
    worst = ""
    ok = True
    for p, q in ((0, 0), (1, 1), (1, dims)):
        env = decay_probe(dims, p, q, kl)
        slope = np.polyfit(np.log(kl), np.log(env), 1)[0]
        if abs(slope - target) > 0.15:
            ok = False
            worst = f"pair ({p},{q}): slope {slope:+.3f} vs {target:+.1f}"
            break
        worst = f"worst slope {slope:+.3f} (target {target:+.1f})"
    return Check(f"{dims}D oscillatory-moment decay slope", ok, worst)


def _readoff_band_check() -> Check:
    worst = 0.0
    for name in ("example1", "example4"):
        cfg = preset_config(name)
        ens = cfg.ensemble()
        k = cfg.wavenumber
        cauchy = synthesize_cauchy(ens, k, cfg.surface())
        red = reduced_data(cauchy, k, cfg.direction_set())
        vals = indicator_at(red, k, ens.locations())
        for j, s in enumerate(ens.sources):
            lam = s.scalar_intensity
            rel = abs(vals[j, 0] - lam) / abs(lam)
            worst = max(worst, rel)
    return Check(
        "multi-source I_0(z_j) within 35% of lambda_j (noise-free)", worst <= 0.35, f"max rel dev = {worst:.3f}"
    )


def _boundary_fit_check() -> Check:
    worst = 0.0
    for name in PRESETS:  # clean data, one group at each exact source
        cfg = preset_config(name)
        ens, k = cfg.ensemble(), cfg.wavenumber
        at = [Peak(location=s.location, component=0, magnitude=1.0, grid_index=0) for s in ens.sources]
        groups = [PeakGroup(members=(p,), centroid=p.location) for p in at]
        fits = recover_intensities(groups, synthesize_cauchy(ens, k, cfg.surface()), k)
        for s, (lam, eta) in zip(ens.sources, fits):
            truth = np.concatenate([[s.scalar_intensity], s.vector_intensity])
            worst = max(worst, float(np.linalg.norm(np.concatenate([[lam], eta]) - truth) / np.linalg.norm(truth)))
    return Check("boundary-fit read-off at exact sources (noise-free)", worst <= 1e-10, f"max rel err = {worst:.2e}")


def quick_checks() -> list:
    return [
        _check_wronskian,
        _check_recurrence,
        _check_series_bounds,
        _check_branch_agreement,
        lambda: _moment_check(circle_directions(512)),
        lambda: _moment_check(sphere_directions(64, 128)),
        lambda: _identity_check(2),
        lambda: _single_source_readoff(2),
    ]


def full_checks() -> list:
    return quick_checks() + [
        lambda: _identity_check(3),
        lambda: _single_source_readoff(3),
        lambda: _decay_check(2),
        lambda: _decay_check(3),
        _readoff_band_check,
        _boundary_fit_check,
    ]


def run(level: str = "quick", emit=print) -> bool:
    """Run the requested suite; returns True when every check passes."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    fns = quick_checks() if level == "quick" else full_checks()
    all_ok = True
    results = []
    for fn in fns:
        chk = fn()
        results.append(chk)
        all_ok = all_ok and chk.passed
    width = max(len(c.name) for c in results)
    for c in results:
        emit(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
    emit(f"{'all checks passed' if all_ok else 'VERIFICATION FAILED'} ({len(results)} checks)")
    return all_ok
