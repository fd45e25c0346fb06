"""Peak extraction, clustering, and the sampling drivers."""

import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import heliodsm._threads
import heliodsm.geometry
import heliodsm.indicators
import heliodsm.locator
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
from heliodsm.geometry import circle_directions, circle_surface, make_grid
from heliodsm.indicators import IndicatorField, indicator_at, indicator_field, indicator_grid_values, reduced_data
from heliodsm.io import write_reconstruction_csv
from heliodsm.locator import (
    FINE_COUNTS_2D,
    FINE_COUNTS_3D,
    Peak,
    PeakGroup,
    _classify,
    _refine,
    cluster_peaks,
    dsm,
    dsm2,
    find_peaks,
    recover_intensities,
)
from heliodsm.specfun import bessel_j
from heliodsm.presets import ExperimentConfig, preset_config

from conftest import nearest_errors


def _field_from(grid, values_2d):
    flat = np.asarray(values_2d).ravel(order="F").astype(complex)
    return IndicatorField(grid=grid, component=0, values=flat)


def _gaussian_bumps(grid, bumps):
    pts = grid.points
    total = np.zeros(len(pts))
    for center, height, width in bumps:
        d2 = np.sum((pts - np.asarray(center)) ** 2, axis=1)
        total += height * np.exp(-d2 / (2 * width**2))
    return IndicatorField(grid=grid, component=0, values=total.astype(complex))


def test_constant_field_has_no_peaks():
    grid = make_grid([0, 0], [1, 1], [8, 8])
    fld = IndicatorField(grid=grid, component=0, values=np.ones(64, dtype=complex))
    assert find_peaks(fld, 0.5, 0.1) == []


def test_two_bumps_merge_to_taller():
    grid = make_grid([-1, -1], [1, 1], [81, 81])
    fld = _gaussian_bumps(grid, [((-0.1, 0.0), 2.0, 0.05), ((0.1, 0.0), 1.5, 0.05)])
    peaks = find_peaks(fld, 0.3, merge_radius=0.5)
    assert len(peaks) == 1
    assert peaks[0].magnitude == pytest.approx(2.0, rel=0.05)
    assert abs(peaks[0].location[0] - (-0.1)) < 0.05


def test_two_bumps_survive_beyond_merge_radius():
    grid = make_grid([-1, -1], [1, 1], [81, 81])
    fld = _gaussian_bumps(grid, [((-0.5, 0.0), 2.0, 0.1), ((0.5, 0.0), 1.5, 0.1)])
    peaks = find_peaks(fld, 0.3, merge_radius=0.4)
    assert len(peaks) == 2


def test_significance_filters_weak_maxima():
    grid = make_grid([-1, -1], [1, 1], [81, 81])
    fld = _gaussian_bumps(grid, [((-0.5, 0.0), 2.0, 0.1), ((0.5, 0.5), 0.4, 0.1)])
    assert len(find_peaks(fld, 0.5, 0.1)) == 1
    assert len(find_peaks(fld, 0.1, 0.1)) == 2


def test_boundary_points_can_be_peaks():
    grid = make_grid([0, 0], [1, 1], [9, 9])
    vals = np.zeros((9, 9))
    vals[0, 0] = 3.0
    peaks = find_peaks(_field_from(grid, vals), 0.5, 0.05)
    assert len(peaks) == 1
    assert tuple(peaks[0].location) == (0.0, 0.0)


def test_tie_break_lowest_grid_index():
    grid = make_grid([0, 0], [1, 1], [9, 9])
    vals = np.zeros((9, 9))
    vals[2, 2] = 1.0
    vals[6, 6] = 1.0
    peaks = find_peaks(_field_from(grid, vals), 0.5, 10.0)  # merge radius spans the box
    assert len(peaks) == 1
    assert peaks[0].grid_index == 2 + 9 * 2


def _peaks_by_shifts(fld, significance, merge_radius):
    # reference: the strict-neighbour test by whole-array shifts over every
    # grid point, then the same ordering and greedy merge as find_peaks
    grid = fld.grid
    mag = fld.magnitude().reshape(grid.counts, order="F")
    padded = np.full(tuple(n + 2 for n in mag.shape), -np.inf)
    padded[tuple(slice(1, 1 + n) for n in mag.shape)] = mag
    is_max = (mag >= significance * mag.max()) & (mag > 0.0)
    for off in np.ndindex(*([3] * grid.dims)):
        if any(o != 1 for o in off):
            is_max &= mag > padded[tuple(slice(o, o + n) for o, n in zip(off, mag.shape))]
    idx = np.nonzero(is_max.ravel(order="F"))[0]
    mags = np.abs(fld.values[idx])
    order = np.lexsort((idx, -mags))
    idx, mags = idx[order], mags[order]
    kept, alive = [], np.ones(idx.size, dtype=bool)
    for i in range(idx.size):
        if alive[i]:
            kept.append((tuple(grid.points[idx[i]]), float(mags[i]), int(idx[i])))
            alive &= np.linalg.norm(grid.points[idx] - grid.points[idx[i]], axis=1) > merge_radius
    return kept


@pytest.mark.parametrize("preset", ["example1", "example4"])
def test_find_peaks_locations_are_grid_points(request, preset):
    # find_peaks reads the axes; the locations are the point rows bit for bit
    cfg, _, _, noisy = request.getfixturevalue(preset)
    red = reduced_data(noisy, cfg.wavenumber, cfg.direction_set())
    grid = cfg.grid()
    points = grid.points
    found = 0
    for ell in range(grid.dims + 1):
        fld = indicator_field(red, cfg.wavenumber, grid, ell)
        for peak in find_peaks(fld, 0.05, min(grid.spacing)):
            assert peak.location.tobytes() == points[peak.grid_index].tobytes()
            found += 1
    assert found > 2 * (grid.dims + 1)


@pytest.mark.parametrize("counts", [(9, 7), (6, 5, 4), (11, 3, 8)])
def test_find_peaks_matches_the_shift_rule(counts):
    # few distinct levels give ties and plateaus; the border is half the
    # points on these small grids, so border peaks are common
    rng = np.random.default_rng(sum(counts))
    grid = make_grid([0.0] * len(counts), [1.0] * len(counts), counts)
    fields = [rng.integers(0, 4, size=len(grid)), rng.integers(0, 2, size=len(grid)) * 3.0,
              rng.uniform(size=len(grid)), np.round(rng.uniform(size=len(grid)), 1)]
    plateau = rng.uniform(size=counts)
    plateau[tuple(slice(1, 3) for _ in counts)] = 2.0  # interior plateau at the max
    plateau[(0,) * len(counts)] = 1.9  # corner peak
    fields.append(plateau.ravel(order="F"))
    checked = 0
    for values in fields:
        fld = IndicatorField(grid=grid, component=0, values=np.asarray(values, dtype=complex) * (1 - 1j))
        for significance in (0.1, 0.5, 1.0):
            for merge in (1e-9, 0.3):
                got = [(tuple(p.location), p.magnitude, p.grid_index)
                       for p in find_peaks(fld, significance, merge)]
                assert got == _peaks_by_shifts(fld, significance, merge)
                checked += len(got)
    assert checked > 0


def _peaks_by_padding(fld, significance, merge_radius):
    # reference: the neighbour test on the above-threshold points by one
    # gather per neighbour step from a copy padded with -inf on every side
    grid = fld.grid
    magnitude = fld.magnitude()
    idx = np.nonzero((magnitude >= significance * float(magnitude.max())) & (magnitude > 0.0))[0]
    padded = np.full(tuple(n + 2 for n in grid.counts), -np.inf)
    padded[tuple(slice(1, 1 + n) for n in grid.counts)] = magnitude.reshape(grid.counts, order="F")
    at = np.array(np.unravel_index(idx, grid.counts, order="F")) + 1
    level = magnitude[idx]
    is_max = np.ones(idx.size, dtype=bool)
    for off in np.stack(np.meshgrid(*([[-1, 0, 1]] * grid.dims), indexing="ij"), -1).reshape(-1, grid.dims):
        if np.any(off):
            is_max &= level > padded[tuple(at + off[:, None])]
    idx, mags = idx[is_max], level[is_max]
    order = np.lexsort((idx, -mags))
    idx, mags = idx[order], mags[order]
    points = grid.points[idx]
    kept, alive = [], np.ones(idx.size, dtype=bool)
    for i in range(idx.size):
        if alive[i]:
            kept.append((points[i].tobytes(), float(mags[i]), int(idx[i])))
            alive &= np.linalg.norm(points - points[i], axis=1) > merge_radius
    return kept


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.integers(2, 6), min_size=2, max_size=3),
    levels=st.sampled_from([(0.0, 1.0), (0.0, 1.0, 2.0, 3.0), None]),
    significance=st.sampled_from([0.1, 0.5, 0.75, 1.0]),
    merge=st.sampled_from([1e-9, 0.3, 2.0]),
    data=st.data(),
)
def test_find_peaks_matches_the_padded_gather(counts, levels, significance, merge, data):
    # few levels give ties and plateaus, and on these small grids most
    # points lie on an edge or a corner
    grid = make_grid([0.0] * len(counts), [1.0] * len(counts), counts)
    value = st.floats(0.0, 3.0) if levels is None else st.sampled_from(levels)
    values = np.array(data.draw(st.lists(value, min_size=len(grid), max_size=len(grid))))
    fld = IndicatorField(grid=grid, component=0, values=values * (1 - 1j))
    got = [(p.location.tobytes(), p.magnitude, p.grid_index) for p in find_peaks(fld, significance, merge)]
    assert got == _peaks_by_padding(fld, significance, merge)


def test_field_magnitude_is_held_read_only():
    # the driver's component maximum and find_peaks read one |I|
    values = np.array([3 + 4j, -1.0, 0.5j, 0.0] * 4)
    fld = IndicatorField(grid=make_grid([0, 0], [1, 1], [4, 4]), component=0, values=values)
    magnitude = fld.magnitude()
    assert fld.magnitude() is magnitude
    assert magnitude.tobytes() == np.abs(values).tobytes()
    with pytest.raises(ValueError):
        magnitude[0] = 1.0


def test_find_peaks_validation():
    grid = make_grid([0, 0], [1, 1], [4, 4])
    fld = IndicatorField(grid=grid, component=0, values=np.ones(16, dtype=complex))
    with pytest.raises(ValueError):
        find_peaks(fld, 0.0, 0.1)
    with pytest.raises(ValueError):
        find_peaks(fld, 0.5, 0.0)


def _peak(x, y, mag, comp=0, idx=0):
    return Peak(location=np.array([x, y]), component=comp, magnitude=mag, grid_index=idx)


@pytest.mark.parametrize("magnitude", [0.0, -1.0, math.nan, math.inf])
def test_peak_magnitude_must_be_finite_and_positive(magnitude):
    with pytest.raises(ValueError, match="peak magnitude must be positive"):
        _peak(0.0, 0.0, magnitude)


def test_cluster_triplet_and_isolated():
    peaks = [
        _peak(-1.0, 2.0, 1.0, comp=0),
        _peak(-0.95, 2.05, 0.8, comp=1),
        _peak(-1.05, 1.95, 0.7, comp=2),
        _peak(3.0, -3.0, 0.9, comp=0),
    ]
    groups = cluster_peaks(peaks, radius=0.2)
    assert len(groups) == 2
    big = max(groups, key=lambda g: len(g.members))
    assert big.components == (0, 1, 2)
    assert np.allclose(big.centroid, [-1.0, 2.0], atol=0.05)


def test_cluster_chain_single_linkage():
    r = 1.0
    peaks = [_peak(0.0, 0.0, 3.0), _peak(0.9, 0.0, 2.0), _peak(1.8, 0.0, 1.0)]
    groups = cluster_peaks(peaks, radius=r)
    assert len(groups) == 1  # |AC| = 1.8 r, linked through B


def test_cluster_far_apart():
    peaks = [_peak(0.0, 0.0, 1.0), _peak(10.0, 0.0, 1.0)]
    assert len(cluster_peaks(peaks, radius=1.0)) == 2
    assert cluster_peaks([], radius=1.0) == []


@st.composite
def _peak_sets(draw):
    """Peaks in 2D or 3D with a linkage radius: chains of links just under
    the radius plus scattered points.  Each chain's lowest index sits at its
    middle, so labels need several rounds to reach both ends; a few distinct
    components, magnitudes and grid indices give ties in the member order."""
    dims = draw(st.sampled_from((2, 3)))
    radius = draw(st.floats(0.2, 2.0))
    coords = st.lists(st.floats(-6.0, 6.0), min_size=dims, max_size=dims).map(np.array)
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        heading = draw(st.lists(st.floats(-1.0, 1.0), min_size=dims, max_size=dims).map(np.array))
        assume(np.linalg.norm(heading) > 0.1)
        step = draw(st.floats(0.55, 0.95)) * radius * heading / np.linalg.norm(heading)
        start = draw(coords)
        chain = [start + i * step for i in range(draw(st.integers(3, 12)))]
        mid = len(chain) // 2
        runs.append([chain[mid]] + draw(st.permutations(chain[:mid] + chain[mid + 1:])))
    runs.extend([loc] for loc in draw(st.lists(coords, max_size=12)))
    slots = iter(draw(st.permutations(range(sum(map(len, runs))))))
    locations = {}
    for run in runs:  # the run's first point, a chain's middle, takes its lowest slot
        locations.update(zip(sorted(next(slots) for _ in run), run))
    peaks = [
        Peak(
            location=locations[i],
            component=draw(st.integers(0, dims)),
            magnitude=draw(st.sampled_from((0.5, 1.0, 2.0))),
            grid_index=draw(st.integers(0, 3)),
        )
        for i in range(len(locations))
    ]
    return peaks, radius


def _groups_by_bfs(peaks, radius):
    """cluster_peaks' groups from a breadth-first search over the same links."""
    if not peaks:
        return []
    locs = np.array([p.location for p in peaks])
    linked = np.linalg.norm(locs[:, None] - locs[None], axis=-1) <= radius
    seen, groups = set(), []
    for start in range(len(peaks)):
        if start in seen:
            continue
        seen.add(start)
        queue, component = [start], []
        while queue:
            i = queue.pop(0)
            component.append(i)
            for j in map(int, np.flatnonzero(linked[i])):
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        members = sorted(
            (peaks[i] for i in sorted(component)), key=lambda p: (p.component, -p.magnitude, p.grid_index)
        )
        groups.append((members, np.mean([p.location for p in members], axis=0)))
    groups.sort(key=lambda g: (-max(p.magnitude for p in g[0]), tuple(g[1])))
    return groups


@given(_peak_sets())
def test_cluster_peaks_matches_bfs_components(case):
    peaks, radius = case
    got = cluster_peaks(peaks, radius)
    want = _groups_by_bfs(peaks, radius)
    assert [[id(p) for p in g.members] for g in got] == [[id(p) for p in members] for members, _ in want]
    assert all(g.centroid.tobytes() == centroid.tobytes() for g, (_, centroid) in zip(got, want))


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------

def test_dsm_zero_data_gives_empty_reconstruction(example1, tmp_path):
    _, _, clean, _ = example1
    zero = CauchyData(
        surface=clean.surface,
        dirichlet=np.zeros_like(clean.dirichlet),
        neumann=np.zeros_like(clean.neumann),
    )
    grid = make_grid([-4, -4], [4, 4], [20, 20])
    with pytest.warns(UserWarning):
        recons = [dsm(zero, 15.0, grid), dsm2(zero, 15.0, grid)]
    for recon in recons:
        assert recon.estimated_count == 0
        # an empty result keeps its dimension: (0, N) centroids, every CSV column
        assert recon.centroids().shape == (0, 2)
        write_reconstruction_csv(tmp_path / "reconstruction.csv", recon)
        assert (tmp_path / "reconstruction.csv").read_bytes() == (
            b"group,components,z1,z2,lambda_re,lambda_im,eta1_re,eta1_im,eta2_re,eta2_im,magnitude,kind\r\n"
        )


def test_dsm_single_monopole_noise_free():
    k = 15.0
    z = np.array([0.55, -0.35])
    ens = SourceEnsemble(sources=(monopole(z, 3.0),))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 512))
    grid = make_grid([-2, -2], [2, 2], [60, 60])
    recon = dsm(cauchy, k, grid, components=(0,))
    assert recon.estimated_count == 1
    err = np.linalg.norm(recon.groups[0].centroid - z)
    assert err <= math.hypot(*grid.spacing) / 2
    # read-off at the grid-quantized peak: J0(k*err) attenuation only
    from heliodsm.specfun import bessel_j

    lam = recon.groups[0].lambda_estimate
    assert abs(lam - 3.0) <= 3.0 * (1.0 - bessel_j(0, k * err)) + 1e-8
    assert recon.groups[0].kind == "monopole"


def test_dsm2_refines_single_source():
    k = 15.0
    z = np.array([0.55, -0.35])
    ens = SourceEnsemble(sources=(monopole(z, 3.0),))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 512))
    coarse = make_grid([-2, -2], [2, 2], [40, 40])
    fine = dsm2(cauchy, k, coarse, components=(0,))
    single = dsm(cauchy, k, coarse, components=(0,))
    assert fine.estimated_count == 1
    err_fine = np.linalg.norm(fine.groups[0].centroid - z)
    err_coarse = np.linalg.norm(single.groups[0].centroid - z)
    assert err_fine <= max(coarse.spacing)
    assert err_fine <= err_coarse + 1e-12
    # the centroid is within half a fine cell of the source, and the
    # plane-wave fit at that point recovers lambda to within 1%
    assert abs(fine.groups[0].lambda_estimate - 3.0) < 0.01


def test_scaling_equivariance(example1):
    cfg, _, _, noisy = example1
    k = cfg.wavenumber
    grid = make_grid([-4, -4], [4, 4], [50, 50])
    base = dsm(noisy, k, grid, directions=cfg.direction_set())
    scaled_data = CauchyData(
        surface=noisy.surface,
        dirichlet=(0.3 + 1.9j) * noisy.dirichlet,
        neumann=(0.3 + 1.9j) * noisy.neumann,
    )
    scaled = dsm(scaled_data, k, grid, directions=cfg.direction_set())
    assert scaled.estimated_count == base.estimated_count
    assert np.array_equal(scaled.centroids(), base.centroids())


@pytest.mark.blas_unset
def test_determinism_across_thread_counts(example1):
    from heliodsm import _threads

    cfg, _, _, noisy = example1
    k = cfg.wavenumber
    try:
        _threads.set_thread_count(1)
        a = dsm2(noisy, k, cfg.grid(), directions=cfg.direction_set())
        _threads.set_thread_count(4)
        b = dsm2(noisy, k, cfg.grid(), directions=cfg.direction_set())
    finally:
        _threads.set_thread_count(None)
    assert a.estimated_count == b.estimated_count
    assert np.array_equal(a.centroids(), b.centroids())
    for ga, gb in zip(a.groups, b.groups):
        assert ga.lambda_estimate == gb.lambda_estimate
        assert np.array_equal(ga.eta_estimate, gb.eta_estimate)


@pytest.mark.blas_unset
def test_driver_holds_openblas_to_one_thread(example1, monkeypatch):
    # the library driver holds it as the CLI does: the read-off ran for
    # over 100 ms on two OpenBLAS threads; the caller's count comes back
    lib = heliodsm._threads.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
    cfg, _, _, noisy = example1
    seen = []
    solve = np.linalg.solve

    def counted(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        before = lib.scipy_openblas_get_num_threads64_()
        recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
        # the read-off holds it itself when called on its own
        recover_intensities(recon.groups, noisy, cfg.wavenumber)
        after = lib.scipy_openblas_get_num_threads64_()
    finally:
        lib.scipy_openblas_set_num_threads64_(old)
    assert seen == [1, 1]
    assert after == before


def test_overlapping_blas_holds_keep_one_thread_until_the_last_leaves():
    # the OpenBLAS count is process-wide: a hold that restored it while
    # another thread was inside its own would hand that thread's BLAS
    # calls back to two threads
    lib = heliodsm._threads.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
    seen = []

    def hold():
        for _ in range(200):
            with heliodsm._threads._one_blas_thread(), heliodsm._threads._one_blas_thread():  # nested, as in cli
                seen.append(lib.scipy_openblas_get_num_threads64_())

    old, interval = lib.scipy_openblas_get_num_threads64_(), sys.getswitchinterval()
    lib.scipy_openblas_set_num_threads64_(2)
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            for f in [pool.submit(hold) for _ in range(8)]:
                f.result(timeout=60)
        after = lib.scipy_openblas_get_num_threads64_()
    finally:
        sys.setswitchinterval(interval)
        lib.scipy_openblas_set_num_threads64_(old)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert after == 2


@pytest.mark.blas_unset
def test_cold_dsm2_runs_on_two_threads_count_their_own_builds(cold_tables):
    # each run, at a wavenumber no other test uses, builds its own R(d)
    # spectrum, coarse and fine lattice while the other builds its three;
    # the overlapping runs give the bits of the same runs one after the other
    runs = []
    for k in (9.5, 9.75):
        raw = preset_config("example4").to_dict()
        raw["wavenumber"] = k
        cfg = ExperimentConfig.from_dict(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            noisy = add_noise(synthesize_cauchy(cfg.ensemble(), k, cfg.surface()), cfg.noise_spec())
        runs.append((noisy, k, cfg.grid(), cfg.components, cfg.direction_set()))
    start = threading.Barrier(len(runs), timeout=60)

    def run(noisy, k, grid, comps, dirs):
        start.wait()
        return dsm2(noisy, k, grid, components=comps, directions=dirs)

    with ThreadPoolExecutor(len(runs)) as pool:
        together = [f.result(timeout=600) for f in [pool.submit(run, *r) for r in runs]]
    apart = [dsm2(noisy, k, grid, components=comps, directions=dirs) for noisy, k, grid, comps, dirs in runs]
    assert [r.counts["phase_tables_built"] for r in together] == [3, 3]
    assert [r.counts["phase_tables_built"] for r in apart] == [0, 0]
    for a, b in zip(together, apart):
        assert [(f.component, f.values.tobytes()) for f in a.fields] == [
            (f.component, f.values.tobytes()) for f in b.fields]
        assert a.estimated_count == b.estimated_count > 0
        for ga, gb in zip(a.groups, b.groups):
            assert ga.centroid.tobytes() == gb.centroid.tobytes()
            assert (ga.lambda_estimate, ga.eta_estimate.tobytes(), ga.kind) == (
                gb.lambda_estimate, gb.eta_estimate.tobytes(), gb.kind)
            assert [(m.location.tobytes(), m.component, m.magnitude, m.grid_index) for m in ga.members] == [
                (m.location.tobytes(), m.component, m.magnitude, m.grid_index) for m in gb.members]


def test_centroids_stay_inside_probe_box(example1):
    cfg, _, _, noisy = example1
    # probe box deliberately clipped so sources sit at the boundary
    coarse = make_grid([-4, -4], [3.0, 3.0], [88, 88])
    recon = dsm2(noisy, cfg.wavenumber, coarse, directions=cfg.direction_set())
    for g in recon.groups:
        assert np.all(g.centroid >= np.array(coarse.lower) - 1e-12)
        assert np.all(g.centroid <= np.array(coarse.upper) + 1e-12)


def _per_peak_refine(peak, reduced, k, grid, fine_counts):
    """Reference refinement: one clamped fine grid and one grid evaluation
    per peak; returns the fine argmax index, its point and its |I|."""
    side = 2.0 * math.pi / k
    lower, upper = [], []
    for box_lo, box_hi, c in zip(grid.lower, grid.upper, peak.location):
        lo, hi = box_lo, box_hi  # an axis narrower than one wavelength: the whole span
        if side < box_hi - box_lo:
            lo = max(box_lo, c - side / 2.0)
            hi = lo + side
            if hi > box_hi:
                lo, hi = box_hi - side, box_hi
        lower.append(lo)
        upper.append(hi)
    fine = make_grid(lower, upper, fine_counts)
    magnitude = np.abs(indicator_grid_values(reduced, k, fine, (peak.component,))[:, 0])
    best = int(np.argmax(magnitude))
    return best, fine.points[best], magnitude[best]


# preset, and the probe box (lower, upper, coarse counts) if not the preset's
REFINE_CASES = {
    "example1": ("example1", None),
    "example5": ("example5", None),
    "clipped": ("example1", ([-4.0, -4.0], [3.0, 3.0], [88, 88])),
    "narrow": ("example1", ([-4.0, 2.85], [4.0, 3.15], [88, 8])),  # y span 0.3 < 2 pi / 15
}


@pytest.mark.parametrize("case", list(REFINE_CASES))
def test_batched_refine_matches_per_peak_fine_grids(case, cold_tables):
    preset, box = REFINE_CASES[case]
    cfg = preset_config(preset)
    k = cfg.wavenumber
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        noisy = add_noise(synthesize_cauchy(cfg.ensemble(), k, cfg.surface()), cfg.noise_spec())
    grid = cfg.grid() if box is None else make_grid(*box)
    reduced = reduced_data(noisy, k, cfg.direction_set())
    values = indicator_grid_values(reduced, k, grid)
    peaks = [
        p
        for ell in range(grid.dims + 1)
        for p in find_peaks(IndicatorField(grid=grid, component=ell, values=values[:, ell]), 0.5, 4 * math.pi / k)
    ]
    assert len({p.component for p in peaks}) == grid.dims + 1
    fine_counts = FINE_COUNTS_2D if grid.dims == 2 else FINE_COUNTS_3D
    before = heliodsm.geometry._held_builds.count
    refined = _refine(peaks, reduced, k, grid, fine_counts)
    assert len(refined) == len(peaks)
    # the lattice factors are built once, then held: the warm call gives the same bits
    built = heliodsm.geometry._held_builds.count
    again = _refine(peaks, reduced, k, grid, fine_counts)
    assert (built - before, heliodsm.geometry._held_builds.count - built) == (1, 0)
    for got, warm in zip(refined, again):
        assert (got.location.tobytes(), got.magnitude, got.grid_index) == (
            warm.location.tobytes(), warm.magnitude, warm.grid_index)
    for peak, got in zip(peaks, refined):
        index, location, magnitude = _per_peak_refine(peak, reduced, k, grid, fine_counts)
        assert got.component == peak.component
        assert got.grid_index == index
        assert np.max(np.abs(got.location - location)) <= 1e-12
        assert abs(got.magnitude - magnitude) <= 1e-12 * magnitude
        assert np.all(got.location >= grid.lower) and np.all(got.location <= grid.upper)


def _ring_refine(peaks, reduced, k, grid, fine_counts):
    """Reference: `_refine` by the grid kernel on the fine lattice with its
    corner at 0, on its axis factors in either dimension; the fine argmax
    indices, points and |I|."""
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    side = np.minimum(2.0 * math.pi / k, upper - lower)
    lo = np.maximum(lower, np.array([p.location for p in peaks]) - side / 2.0)
    over = lo + side > upper
    lo, hi = np.where(over, np.maximum(lower, upper - side), lo), np.where(over, upper, lo + side)
    ind, dirs = heliodsm.indicators, reduced.directions
    weights = ind._component_weights(reduced, k, [p.component for p in peaks]) * np.exp(-1j * k * (dirs.nodes @ lo.T))
    local = make_grid([0.0] * grid.dims, side, fine_counts)
    magnitudes = np.abs(ind._grid_kernel(weights, ind._axis_factors(dirs, k, local.axes())))
    best, cols = np.argmax(magnitudes, axis=0), np.arange(len(peaks))
    index = np.unravel_index(best, fine_counts, order="F")
    at = np.stack([np.linspace(lo[:, i], hi[:, i], n)[index[i], cols] for i, n in enumerate(fine_counts)], axis=1)
    return best, at, magnitudes[best, cols]


@pytest.mark.blas_unset
@pytest.mark.parametrize("preset", ["example1", "example2", "example3", "example4", "example5"])
def test_refine_matches_the_ring_kernel(preset, cold_tables):
    # noise seeds 0-9 on the preset's grid and on the REFINE_CASES boxes: the
    # centred fine lattice (mode tables in 2D, axis factors in 3D) gives the
    # corner-anchored ring kernel's fine argmax and points, and |I| to
    # rounding; each fine lattice's tables are built once, held read-only and
    # read by every later call, which gives the same bits
    cfg = preset_config(preset)
    k, dirs = cfg.wavenumber, cfg.direction_set()
    comps = cfg.components or tuple(range(cfg.dims + 1))
    fine_counts = FINE_COUNTS_2D if cfg.dims == 2 else FINE_COUNTS_3D
    kind = "modes" if cfg.dims == 2 else "lattice"
    clean = synthesize_cauchy(cfg.ensemble(), k, cfg.surface())
    grids = [cfg.grid()] + [make_grid(*box) for name, box in REFINE_CASES.values() if name == preset and box]
    built, checked, worst = 0, 0, 0.0
    for seed in range(10):
        reduced = reduced_data(add_noise(clean, NoiseSpec(cfg.noise_level, seed)), k, dirs)
        for grid in grids:
            values = indicator_grid_values(reduced, k, grid, comps)
            peaks = [p for i, ell in enumerate(comps) for p in find_peaks(
                IndicatorField(grid=grid, component=ell, values=values[:, i]), 0.5, 4 * math.pi / k)]
            before = heliodsm.geometry._held_builds.count
            got = _refine(peaks, reduced, k, grid, fine_counts)
            built += heliodsm.geometry._held_builds.count - before
            again = _refine(peaks, reduced, k, grid, fine_counts)
            assert [(p.location.tobytes(), p.magnitude, p.grid_index) for p in got] == [
                (p.location.tobytes(), p.magnitude, p.grid_index) for p in again]
            index, at, magnitude = _ring_refine(peaks, reduced, k, grid, fine_counts)
            assert [p.grid_index for p in got] == index.tolist()
            assert np.array([p.location for p in got]).tobytes() == at.tobytes()
            worst = max(worst, np.max(np.abs(np.array([p.magnitude for p in got]) / magnitude - 1.0)))
            checked += len(got)
    assert checked >= (50 if cfg.dims == 2 else 30) * len(grids)
    assert worst <= 4e-15
    fine = [arrays for key, arrays in heliodsm.geometry._held_tables.items()
            if key[0] == kind and key[-1].counts == fine_counts]
    assert built == len(fine) == len({tuple(min(2 * math.pi / k, hi - lo) for lo, hi in zip(g.lower, g.upper))
                                      for g in grids})
    assert all(not a.flags.writeable for arrays in fine for a in arrays)


def test_example2_spurious_spike_suppression():
    # two dipoles: every component's accepted maxima concentrate at exactly
    # the two source sites, spurious side spikes are merged or rejected
    cfg = preset_config("example2")
    ens = cfg.ensemble()
    clean = synthesize_cauchy(ens, cfg.wavenumber, cfg.surface())
    noisy = add_noise(clean, cfg.noise_spec())
    recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    assert recon.estimated_count == 2
    exact = ens.locations()
    for ell in range(3):
        holders = [
            g for g in recon.groups if any(p.component == ell for p in g.members)
        ]
        assert len(holders) == 2
    errs = nearest_errors(recon, exact)
    assert max(errs) < 0.25


def test_example1_component0_yields_exactly_four_peaks(example1):
    cfg, ens, _, noisy = example1
    k = cfg.wavenumber
    red = reduced_data(noisy, k, cfg.direction_set())
    from heliodsm.indicators import indicator_field

    fld = indicator_field(red, k, cfg.grid(), 0)
    peaks = find_peaks(fld, 0.5, 2 * (2 * math.pi / k))
    assert len(peaks) == 4
    exact = ens.locations()
    cell_diag = math.hypot(*cfg.grid().spacing)
    for p in peaks:
        assert min(np.linalg.norm(p.location - e) for e in exact) <= cell_diag


def test_dsm2_warns_on_coarse_grid(example1, monkeypatch):
    cfg, _, _, noisy = example1
    too_coarse = make_grid([-4, -4], [4, 4], [10, 10])
    with pytest.warns(UserWarning, match="spacing"):
        dsm2(noisy, cfg.wavenumber, too_coarse, directions=cfg.direction_set())

    def unreached(*args):
        raise AssertionError("dsm2 formed R(d) before the spacing check")

    monkeypatch.setattr(heliodsm.locator, "reduced_data", unreached)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="spacing"):
            dsm2(noisy, cfg.wavenumber, too_coarse, directions=cfg.direction_set())


def test_drivers_reject_a_grid_of_other_dimension_before_any_work(example1, monkeypatch):
    cfg, _, _, noisy = example1

    def unreached(*args):
        raise AssertionError("the driver formed R(d) before checking the grid")

    monkeypatch.setattr(heliodsm.locator, "reduced_data", unreached)
    cube = make_grid([-4, -4, -4], [4, 4, 4], [10, 10, 10])
    for run in (dsm, dsm2):
        with pytest.raises(ValueError, match="different dimensions"):
            run(noisy, cfg.wavenumber, cube)


@pytest.mark.parametrize(
    "components",
    [(), (0, 0), (3,), (-1,), (1.5,), (True,), ("1",), (1.0,)],
    ids=["none", "repeated", "too_high", "negative", "fractional", "bool", "text", "integral_float"],
)
def test_drivers_reject_bad_components_before_any_work(example1, monkeypatch, components):
    cfg, _, _, noisy = example1

    def unreached(*args):
        raise AssertionError("the driver formed R(d) before checking components")

    monkeypatch.setattr(heliodsm.locator, "reduced_data", unreached)
    for run in (dsm, dsm2):
        with pytest.raises(ValueError, match="component"):
            run(noisy, cfg.wavenumber, cfg.grid(), components=components)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_entry_points_reject_a_bad_wavenumber_first(example1, k):
    cfg, ens, _, noisy = example1
    z = ens.sources[0].location
    calls = [
        lambda: synthesize_cauchy(ens, k, noisy.surface),
        lambda: check_assumptions(ens, k),
        lambda: reduced_data(noisy, k, cfg.direction_set()),
        lambda: recover_intensities([_point_group(z)], noisy, k),
        lambda: dsm(noisy, k, cfg.grid()),
        lambda: dsm2(noisy, k, cfg.grid()),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="wavenumber must be positive"):
                call()


def test_drivers_take_numpy_integer_components(example1):
    cfg, _, _, noisy = example1
    grid = make_grid([-4, -4], [4, 4], [50, 50])
    plain = dsm(noisy, cfg.wavenumber, grid, components=(2, 0), directions=cfg.direction_set())
    indexed = dsm(noisy, cfg.wavenumber, grid, components=np.array([2, 0]), directions=cfg.direction_set())
    assert indexed.parameters == plain.parameters
    assert np.array_equal(indexed.centroids(), plain.centroids())


@pytest.mark.blas_unset
def test_recover_intensities_matches_readoff(example1):
    cfg, ens, _, noisy = example1
    k = cfg.wavenumber
    recon = dsm2(noisy, k, cfg.grid(), directions=cfg.direction_set())
    g = recon.groups[0]
    lam, eta = recover_intensities(recon.groups, noisy, k)[0]
    assert lam == g.lambda_estimate
    assert np.array_equal(eta, g.eta_estimate)
    assert g.kind == "monopole"


def test_dsm2_groups_hold_read_only_arrays(example1):
    cfg, _, _, noisy = example1
    recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    assert recon.groups
    for g in recon.groups:
        for a in (g.centroid, g.eta_estimate):
            assert not a.flags.writeable
            assert a.flags.owndata


def test_reconstruction_provenance(example1):
    cfg, _, _, noisy = example1
    recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    assert recon.algorithm == "dsm2"
    assert recon.elapsed_seconds > 0
    assert recon.parameters["fine_counts"] == [40, 40]
    assert recon.parameters["component_peak_counts"]["0"] >= 4
    assert recon.estimated_count == len(recon.groups)


@pytest.mark.parametrize("algorithm", ["dsm", "dsm2"])
def test_stage_timings_sum_to_elapsed(example1, algorithm):
    cfg, _, _, noisy = example1
    if algorithm == "dsm":
        recon = dsm(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    else:
        recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    assert list(recon.timings) == ["reduce", "grid", "peaks", "refine", "cluster", "readoff"]
    assert all(t >= 0 for t in recon.timings.values())
    assert abs(sum(recon.timings.values()) - recon.elapsed_seconds) <= 1e-6


def test_counts_record_the_work_done(example1, example4, cold_tables):
    cfg, _, _, noisy = example1
    recon = dsm2(noisy, cfg.wavenumber, cfg.grid(), directions=cfg.direction_set())
    fine = sum(recon.parameters["component_peak_counts"].values())
    assert fine > 0
    assert recon.counts == {
        "directions": 256,
        "boundary_points": 200,
        "grid_points": [100 * 100, fine * 40 * 40],
        "fine_grids": fine,
        "phase_exps": 200 * 256,
        "phase_tables_built": 3,  # the R(d) phase matrix, the coarse and the fine lattice
    }
    cfg, _, _, noisy = example4
    recon = dsm(noisy, cfg.wavenumber, cfg.grid(), components=cfg.components, directions=cfg.direction_set())
    assert recon.counts == {
        "directions": 42 * 43,
        "boundary_points": 42 * 43,
        "grid_points": [30**3],
        "fine_grids": 0,
        "phase_exps": 42 * 42 * 43,  # the circulant phase table, not 1806^2
        "phase_tables_built": 2,  # the circulant spectrum and the 30^3 lattice
    }


def _point_group(z):
    z = np.asarray(z, dtype=float)
    return PeakGroup(members=(Peak(location=z, component=0, magnitude=1.0, grid_index=0),), centroid=z)


def test_joint_readoff_removes_cross_source_terms():
    # noise-free, two monopoles read at their exact locations
    k = 15.0
    z1, z2 = np.array([1.0, 0.5]), np.array([0.44, 0.08])
    lam1, lam2 = 3.0 + 1.0j, -2.0 + 0.5j
    ens = SourceEnsemble(sources=(monopole(z1, lam1), monopole(z2, lam2)))
    cauchy = synthesize_cauchy(ens, k, circle_surface(6.0, 1024))
    fits = recover_intensities((_point_group(z1), _point_group(z2)), cauchy, k)
    for (lam_hat, eta_hat), lam in zip(fits, (lam1, lam2)):
        assert abs(lam_hat - lam) <= 1e-8
        assert np.max(np.abs(eta_hat)) <= 1e-8
    # the indicator at z1 also carries the other source's lambda_2 J0(k|z1 - z2|)
    cross = lam2 * bessel_j(0, k * float(np.linalg.norm(z1 - z2)))
    i0 = indicator_at(reduced_data(cauchy, k, circle_directions(256)), k, z1[None, :], (0,))[0, 0]
    assert abs(i0 - (lam1 + cross)) <= 1e-8
    assert abs(i0 - lam1) > 0.1 * abs(lam1)


@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example5", "circle120"])
def test_readoff_exact_on_clean_data(name):
    # every preset on its own surface, and example1 on a 120-point circle
    # (too coarse to resolve R(d) there), read at the exact source points
    cfg = preset_config("example1" if name == "circle120" else name)
    ens, k = cfg.ensemble(), cfg.wavenumber
    surface = circle_surface(cfg.measurement_radius, 120) if name == "circle120" else cfg.surface()
    groups = [_point_group(s.location) for s in ens.sources]
    fits = recover_intensities(groups, synthesize_cauchy(ens, k, surface), k)
    for s, (lam, eta) in zip(ens.sources, fits):
        truth = np.concatenate([[s.scalar_intensity], s.vector_intensity])
        assert np.linalg.norm(np.concatenate([[lam], eta]) - truth) <= 1e-10 * np.linalg.norm(truth)


def _lstsq_readoff(groups, cauchy, k):
    """`recover_intensities` by an SVD least-squares solve: column j(N+1) + c
    holds the traces u, d_nu u / k of a unit monopole (c = 0) or unit dipole
    e_c at group j's read-off point, synthesized as data, and each row is
    weighted by the square root of its node's quadrature weight."""
    surf = cauchy.surface
    cols = []
    for g in groups:
        lam_at, eta_at = heliodsm.locator._readoff_points(g)
        units = [monopole(lam_at, 1.0)] + [dipole(eta_at, e) for e in np.eye(surf.dims)]
        for src in units:
            unit = synthesize_cauchy(SourceEnsemble(sources=(src,)), k, surf)
            cols.append(np.concatenate([unit.dirichlet, unit.neumann / k]))
    scale = np.tile(np.sqrt(surf.weights), 2)
    data = np.concatenate([cauchy.dirichlet, cauchy.neumann / k]) * scale
    coef = np.linalg.lstsq(np.stack(cols, axis=1) * scale[:, None], data, rcond=None)[0]
    return [(complex(c[0]), c[1:]) for c in coef.reshape(len(groups), surf.dims + 1)]


@pytest.mark.blas_unset
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4", "example5"])
def test_gram_readoff_matches_lstsq(name):
    # the normal equations of designs with condition numbers 9.3-29 lose
    # nothing measurable against the SVD solve, on every preset's groups
    cfg = preset_config(name)
    k = cfg.wavenumber
    clean = synthesize_cauchy(cfg.ensemble(), k, cfg.surface())
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # example5's noise level warns
            noisy = add_noise(clean, NoiseSpec(cfg.noise_level, seed))
        recon = dsm2(noisy, k, cfg.grid(), directions=cfg.direction_set())
        for g, (lam, eta) in zip(recon.groups, _lstsq_readoff(recon.groups, noisy, k)):
            want = np.concatenate([[lam], eta])
            got = np.concatenate([[g.lambda_estimate], g.eta_estimate])
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert g.kind == _classify(lam, eta, k)


def test_underresolved_boundary_reads_jointly(example1):
    cfg, ens, _, _ = example1
    k = cfg.wavenumber
    cauchy = synthesize_cauchy(ens, k, circle_surface(cfg.measurement_radius, 120))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recon = dsm2(cauchy, k, cfg.grid(), directions=cfg.direction_set())
    assert recon.estimated_count > 1
    for g, (lam, eta) in zip(recon.groups, recover_intensities(recon.groups, cauchy, k)):
        assert lam == g.lambda_estimate
        assert np.array_equal(eta, g.eta_estimate)


@pytest.mark.parametrize("algorithm", ["dsm", "dsm2"])
def test_reconstruction_carries_collection_grid_fields(example1, algorithm):
    cfg, _, _, noisy = example1
    k = cfg.wavenumber
    grid = make_grid([-4, -4], [4, 4], [60, 50])
    settings = {"components": (2, 0), "directions": cfg.direction_set()}
    if algorithm == "dsm":
        recon = dsm(noisy, k, grid, **settings)
    else:
        recon = dsm2(noisy, k, grid, **settings)
    expected = indicator_grid_values(reduced_data(noisy, k, cfg.direction_set()), k, grid, (2, 0))
    assert [f.component for f in recon.fields] == [2, 0]
    for i, fld in enumerate(recon.fields):
        assert fld.grid is grid
        assert fld.values.tobytes() == np.ascontiguousarray(expected[:, i]).tobytes()


def test_driver_warnings_point_at_the_caller(example1):
    cfg, _, _, noisy = example1
    k = cfg.wavenumber
    coarse = make_grid([-4, -4], [4, 4], [10, 10])
    silent = CauchyData(
        surface=noisy.surface,
        dirichlet=np.zeros_like(noisy.dirichlet),
        neumann=np.zeros_like(noisy.neumann),
    )
    calls = [
        ("spacing", lambda: dsm2(noisy, k, coarse, directions=cfg.direction_set())),
        ("spacing", lambda: dsm(noisy, k, coarse, directions=cfg.direction_set())),
        ("no significant", lambda: dsm(silent, k, cfg.grid(), directions=cfg.direction_set())),
        ("no significant", lambda: dsm2(silent, k, cfg.grid(), directions=cfg.direction_set())),
    ]
    for match, call in calls:
        with pytest.warns(UserWarning, match=match) as record:
            recon = call()
        hits = [w for w in record if match in str(w.message)]
        assert hits and all(w.filename == __file__ for w in hits), match
        # the result keeps each message it warned, in order
        assert recon.warnings == tuple(str(w.message) for w in record if w.category is UserWarning), match
    assert dsm2(noisy, k, cfg.grid(), directions=cfg.direction_set()).warnings == ()
