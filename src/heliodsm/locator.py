"""Peak extraction, clustering, and the direct sampling driver.

One driver runs the whole pipeline once, one timed stage after another
(reduce, grid, peaks, refine, cluster, readoff): it forms the reduced
data R(d), evaluates every indicator component on the probe grid,
collects the significant strict local maxima of each |I_ell|, suppresses
nearby spurious spikes by greedy merging (strongest first), clusters the
surviving maximizers across components by single linkage (each chain
of peaks within the cluster radius labeled by its lowest index), and
averages each cluster into one recovered location.  The indicator fields
it sampled are returned with the result, so callers never evaluate them
again.  `dsm` (single level) and `dsm2` (two level) are its two entry
points.

Intensities are read off by `recover_intensities`, which fits the
forward model itself,

    u(x) = -sum_j [lambda_j Phi + eta_j . grad_x Phi](x - z_j),

and its normal derivative to the boundary Cauchy data: one weighted
least-squares problem with (N+1) unknowns per group.  Its rows are u and
d_nu u / k at each boundary node, weighted by the square root of the node's
quadrature weight, so the squared residual approximates the boundary
integral of |u - U|^2 + |d_nu u - d_nu U|^2 / k^2.  Away from a source
d_nu Phi ~ ik Phi, so the division by k puts both traces on one scale and
neither outweighs the other.  The fit forms no quadrature of the data, so
it holds on a boundary rule too coarse to resolve R(d).  Each group's
lambda term sits at its strongest component-0 maximizer (|I_0| peaks at
monopoles) and its eta terms at its strongest maximizer of components 1..N
(|I_ell| peaks at dipoles); a group without one kind uses the other's
point.  Fitting all groups at once removes the cross-source terms that a
single-point indicator read-off picks up.

`dsm2` runs the same collection on a coarse grid, then re-samples only
the relevant component on a small fine grid (side one wavelength, 2*pi/k)
around each coarse maximizer and keeps the fine argmax before clustering.
A fine grid is a resolution per wavelength, not a setting: FINE_COUNTS_2D
(40 x 40) or FINE_COUNTS_3D (20 x 20 x 20) points.  Fine grids are
shifted, never shrunk, to stay inside the probe box so every reported
location remains inside it.  Every fine grid is the same local lattice x
shifted to its corner c_p, and e^{-ik d.(c_p + x)} = e^{-ik d.c_p}
e^{-ik d.x}, so all of them are one grid-kernel call on x with one weight
column per peak.  The local lattice depends only on k, the dimension and
the box clamp, so its plane-wave factors are built once per process and
held (see `indicators`), and so are those of dsm2's coarse collection
grid; dsm's full grid builds its factors on every call.
The driver's warnings go to the caller and into `Reconstruction.warnings`.

The driver holds numpy's bundled OpenBLAS to one thread for the whole
run, as the CLI does: the least-squares read-off and the small products
ran several times slower on two BLAS threads.

Spurious-structure handling is layered, reflecting how the indicator
fields actually look for multipolar ensembles.  Each rule has a fixed
constant, and none of them is an option:

* per component, a maximizer must reach PEAK_SIGNIFICANCE (0.5) of that
  component's largest magnitude;
* the greedy merge absorbs weaker maximizers within
  MERGE_RADIUS_WAVELENGTHS (two wavelengths, 4*pi/k) of a stronger one -
  the Bessel-kernel side rings of a source reach ~0.73 of the main peak as
  far as ~1.1 wavelengths out (second J0/J1 extrema), so a one-wavelength
  radius demonstrably lets them through while two wavelengths absorbs
  them, and source sparsity keeps two wavelengths far below the
  separation scale;
* clustering links maximizers within CLUSTER_RADIUS_WAVELENGTHS (one
  wavelength, 2*pi/k) of each other;
* after clustering, a group is accepted only if its best member reaches
  DEFAULT_GROUP_SIGNIFICANCE (0.65) of its component's maximum, which
  removes far-field interference bumps that no per-component threshold
  can separate from the weakest true peak.

Everything here is deterministic: ties in magnitude are broken by the
lowest grid index, group and member orderings are fixed, and all heavy
evaluation happens in the fixed-order indicator kernels.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import _threads
from .forward import CauchyData, _radial
from .geometry import SamplingGrid
from .indicators import (
    IndicatorField,
    ReducedData,
    _check_components,
    _component_weights,
    _grid_kernel,
    _lattice_factors,
    default_directions,
    indicator_grid_values,
    reduced_data,
)

__all__ = [
    "Peak",
    "PeakGroup",
    "Reconstruction",
    "find_peaks",
    "cluster_peaks",
    "recover_intensities",
    "dsm",
    "dsm2",
]

PEAK_SIGNIFICANCE = 0.5
DEFAULT_GROUP_SIGNIFICANCE = 0.65
MERGE_RADIUS_WAVELENGTHS = 2.0  # in units of 2*pi/k
CLUSTER_RADIUS_WAVELENGTHS = 1.0  # in units of 2*pi/k
FINE_COUNTS_2D = (40, 40)
FINE_COUNTS_3D = (20, 20, 20)


@dataclass(frozen=True)
class Peak:
    """A significant local maximizer of one indicator component."""

    location: np.ndarray
    component: int
    magnitude: float
    grid_index: int

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float).copy()
        loc.flags.writeable = False
        object.__setattr__(self, "location", loc)
        if self.magnitude <= 0:
            raise ValueError("peak magnitude must be positive")


@dataclass(frozen=True)
class PeakGroup:
    """Cross-component cluster of maximizers attributed to one source."""

    members: tuple[Peak, ...]
    centroid: np.ndarray
    lambda_estimate: complex | None = None
    eta_estimate: np.ndarray | None = None
    kind: str | None = None  # "monopole" | "dipole", from read-off magnitudes

    def __post_init__(self):
        c = np.asarray(self.centroid, dtype=float).copy()
        c.flags.writeable = False
        object.__setattr__(self, "centroid", c)

    @property
    def components(self) -> tuple[int, ...]:
        return tuple(sorted({p.component for p in self.members}))


@dataclass(frozen=True)
class Reconstruction:
    """Recovered source count and locations, with run provenance.

    fields holds the indicator components sampled on the collection grid
    (the coarse grid of dsm2), in the order of the requested components.
    timings splits elapsed_seconds into the driver's stages (reduce, grid,
    peaks, refine, cluster, readoff; they sum to it), and counts records
    the work done: directions, boundary_points, grid_points (per level:
    the collection grid, then all fine grids together), fine_grids,
    phase_exps (entries of the phase table R(d) used) and
    phase_tables_built (how many of the run's held tables, the R(d)
    spectrum and the lattice factors, it built rather than reused; see
    `indicators`).  warnings holds the messages of
    the UserWarnings the run raised, in order.
    """

    estimated_count: int
    groups: tuple[PeakGroup, ...]
    algorithm: str
    elapsed_seconds: float
    parameters: dict
    fields: tuple[IndicatorField, ...] = ()
    timings: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()

    @property
    def dims(self) -> int:
        return len(self.parameters["grid_counts"])

    def centroids(self) -> np.ndarray:
        """(groups, dims) centroid array; (0, dims) when nothing was found."""
        return np.array([g.centroid for g in self.groups]).reshape(len(self.groups), self.dims)


def find_peaks(field: IndicatorField, significance: float, merge_radius: float) -> list[Peak]:
    """Significant strict local maxima of |I|, greedily merged.

    A grid point is a candidate when its magnitude reaches at least
    significance * max|I| and strictly exceeds every existing immediate
    neighbor (8 in 2D, 26 in 3D); the neighbor test runs on the points
    above the threshold only.  Candidates are then processed in descending
    magnitude (ties: lowest grid index), each absorbing all remaining
    candidates within merge_radius.
    """
    if not (0.0 < significance <= 1.0):
        raise ValueError("significance must lie in (0, 1]")
    if merge_radius <= 0:
        raise ValueError("merge radius must be positive")
    grid = field.grid
    magnitude = field.magnitude()
    if magnitude.size == 0:
        raise ValueError("empty indicator field")
    threshold = significance * float(magnitude.max())
    idx = np.nonzero((magnitude >= threshold) & (magnitude > 0.0))[0]

    padded = np.full(tuple(n + 2 for n in grid.counts), -np.inf)
    padded[tuple(slice(1, 1 + n) for n in grid.counts)] = magnitude.reshape(grid.counts, order="F")
    at = np.array(np.unravel_index(idx, grid.counts, order="F")) + 1  # (dims, n) in padded
    level = magnitude[idx]
    is_max = np.ones(idx.size, dtype=bool)
    for off in np.stack(np.meshgrid(*([[-1, 0, 1]] * grid.dims), indexing="ij"), -1).reshape(-1, grid.dims):
        if np.any(off):
            is_max &= level > padded[tuple(at + off[:, None])]
    idx, mags, at = idx[is_max], level[is_max], at[:, is_max]
    if idx.size == 0:
        return []
    order = np.lexsort((idx, -mags))
    idx = idx[order]
    mags = mags[order]
    locations = np.stack([axis[i - 1] for axis, i in zip(grid.axes(), at[:, order])], axis=1)

    kept: list[Peak] = []
    alive = np.ones(idx.size, dtype=bool)
    for i in range(idx.size):
        if not alive[i]:
            continue
        kept.append(
            Peak(
                location=locations[i],
                component=field.component,
                magnitude=float(mags[i]),
                grid_index=int(idx[i]),
            )
        )
        dist = np.linalg.norm(locations - locations[i], axis=1)
        alive &= dist > merge_radius
    return kept


def cluster_peaks(peaks, radius: float) -> list[PeakGroup]:
    """Single-linkage grouping with the given linkage threshold.

    Peaks within radius of each other are linked.  Each peak's label starts
    as its index and takes the lowest label among its links until no label
    moves, so every chain is labeled by its lowest index.  Chains are
    grouped transitively, so a group's diameter may exceed the radius; the
    centroid is the plain mean of the member locations.
    """
    if radius <= 0:
        raise ValueError("cluster radius must be positive")
    peaks = list(peaks)
    if not peaks:
        return []
    locs = np.array([p.location for p in peaks])
    linked = np.linalg.norm(locs[:, None] - locs[None], axis=-1) <= radius
    index = np.arange(len(peaks))
    label, lowest = None, index
    while not np.array_equal(lowest, label):
        label = lowest
        lowest = np.where(linked, label, label[:, None]).min(axis=1)
    groups = []
    for root in index[label == index]:  # a chain's root is its lowest index
        members = sorted(
            (peaks[i] for i in np.flatnonzero(label == root)),
            key=lambda p: (p.component, -p.magnitude, p.grid_index),
        )
        centroid = np.mean([p.location for p in members], axis=0)
        groups.append(PeakGroup(members=tuple(members), centroid=centroid))
    groups.sort(key=lambda g: (-max(p.magnitude for p in g.members), tuple(g.centroid)))
    return groups


def _readoff_points(group: PeakGroup) -> tuple[np.ndarray, np.ndarray]:
    """Where a group's lambda and eta terms sit: its strongest component-0
    member and its strongest member of components 1..N (each falls back to
    the other when the group has no member of that kind)."""
    mono = [p for p in group.members if p.component == 0]
    dip = [p for p in group.members if p.component > 0]
    lam_at = max(mono or dip, key=lambda p: p.magnitude).location
    eta_at = max(dip or mono, key=lambda p: p.magnitude).location
    return lam_at, eta_at


def recover_intensities(groups, cauchy: CauchyData, k: float) -> list[tuple[complex, np.ndarray]]:
    """Intensity read-offs (lambda, eta), one per group, fitted jointly.

    Fits the forward field U of sources at each group's read-off points to
    u and d_nu u / k over the boundary nodes (see the module docstring).
    Fitting the groups together keeps each source's terms out of the
    others' read-offs; one group alone gives the single-group fit.  On
    clean data at the exact source points the result is exact to rounding.
    """
    if not groups:
        return []
    surf = cauchy.surface
    at = np.array([z for g in groups for z in _readoff_points(g)])  # lambda point, eta point per group
    points, which = np.unique(at, axis=0, return_inverse=True)
    t = surf.points[:, None] - points  # (m, p, N)
    r = np.sqrt(np.einsum("mpd,mpd->mp", t, t))
    phi, dphi = _radial(surf.dims, k, r)
    g = dphi / r
    nu_t = np.einsum("md,mpd->mp", surf.normals, t)
    hess = nu_t * (surf.dims * g + k * k * phi) / (r * r)
    # column j(N+1) + c holds group j's unit monopole (c = 0) or unit dipole
    # e_c (c >= 1) traces, as forward._traces forms them; the sign of
    # u = -sum_j [...] goes to the data
    lam, eta = which.reshape(len(groups), 2).T
    design = np.empty((2, len(surf), len(groups), surf.dims + 1), dtype=complex)  # u rows, d_nu u rows
    design[0, :, :, 0] = phi[:, lam]
    design[1, :, :, 0] = (g * nu_t)[:, lam]
    design[0, :, :, 1:] = g[:, eta, None] * t[:, eta]
    design[1, :, :, 1:] = g[:, eta, None] * surf.normals[:, None] - hess[:, eta, None] * t[:, eta]
    scale = np.sqrt(surf.weights) / np.array([[1.0], [k]])  # rows u and d_nu u / k
    design *= scale[:, :, None, None]
    data = -np.stack([cauchy.dirichlet, cauchy.neumann]) * scale
    coef = np.linalg.lstsq(design.reshape(data.size, -1), data.reshape(-1), rcond=None)[0]
    return [(complex(c[0]), c[1:]) for c in coef.reshape(len(groups), surf.dims + 1)]


def _classify(lam: complex, eta: np.ndarray, k: float) -> str:
    return "monopole" if abs(lam) >= k * float(np.linalg.norm(eta)) else "dipole"


class _Stopwatch:
    """Consecutive stage laps; their sum is the time since construction."""

    def __init__(self):
        self.start = self.last = time.perf_counter()
        self.laps: dict[str, float] = {}

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.laps[stage] = now - self.last
        self.last = now


@_threads._one_blas_thread()
def _sample(cauchy: CauchyData, k: float, grid: SamplingGrid, refine: bool, components, directions) -> Reconstruction:
    """The sampling pipeline behind `dsm` (refine False) and `dsm2`."""
    watch = _Stopwatch()
    comps = _check_components(cauchy.dims, components)
    if grid.dims != cauchy.dims:
        raise ValueError("grid and Cauchy data have different dimensions")
    dirs = directions if directions is not None else default_directions(cauchy.dims)
    notes: list[str] = []
    if refine and max(grid.spacing) > math.pi / k:
        notes.append("coarse grid spacing exceeds half a wavelength; maximizers may be missed")
        # frames: _sample, its BLAS hold, dsm or dsm2, their caller
        warnings.warn(notes[-1], stacklevel=4)
    wavelength = 2.0 * math.pi / k
    merge = MERGE_RADIUS_WAVELENGTHS * wavelength
    cluster = CLUSTER_RADIUS_WAVELENGTHS * wavelength
    algorithm = "dsm2" if refine else "dsm"
    params = {
        "algorithm": algorithm,
        "wavenumber": k,
        "significance": PEAK_SIGNIFICANCE,
        "merge_radius": merge,
        "cluster_radius": cluster,
        "group_significance": DEFAULT_GROUP_SIGNIFICANCE,
        "components": list(comps),
        "direction_count": len(dirs),
        "grid_counts": list(grid.counts),
        "grid_lower": list(grid.lower),
        "grid_upper": list(grid.upper),
    }
    reduced = reduced_data(cauchy, k, dirs)
    tables_built = reduced.tables_built
    watch.lap("reduce")
    if refine:  # dsm2's coarse lattice recurs from run to run: hold its factors for the grid call
        tables_built += _lattice_factors(dirs, k, grid)[1]
    fields = tuple(  # each field copies its column, so the (n, L) block is freed here
        IndicatorField(grid=grid, component=ell, values=v)
        for ell, v in zip(comps, indicator_grid_values(reduced, k, grid, comps).T)
    )
    watch.lap("grid")
    peaks: list[Peak] = []
    comp_max: dict[int, float] = {}
    comp_counts: dict[int, int] = {}
    for fld in fields:
        comp_max[fld.component] = float(np.max(np.abs(fld.values)))
        found = find_peaks(fld, PEAK_SIGNIFICANCE, merge)
        comp_counts[fld.component] = len(found)
        peaks.extend(found)
    if not peaks:
        notes.append("no significant indicator maximizers survived")
        warnings.warn(notes[-1], stacklevel=4)
    watch.lap("peaks")
    grid_points, fine_grids = [len(grid)], 0
    if refine:
        fine_counts = FINE_COUNTS_2D if grid.dims == 2 else FINE_COUNTS_3D
        params["fine_counts"] = list(fine_counts)
        peaks, built = _refine(peaks, reduced, k, grid, fine_counts)
        tables_built += built
        fine_grids = len(peaks)
        grid_points.append(fine_grids * math.prod(fine_counts))
        # fine grids resolve peaks better than the coarse lattice; normalize
        # group strengths by the refined component maxima
        for p in peaks:
            comp_max[p.component] = max(comp_max[p.component], p.magnitude)
    watch.lap("refine")
    clustered = cluster_peaks(peaks, cluster)
    # a group stands when its best member reaches DEFAULT_GROUP_SIGNIFICANCE
    # of its component's maximum, which is at least every member's magnitude > 0
    accepted = [
        g for g in clustered
        if max(p.magnitude / comp_max[p.component] for p in g.members) >= DEFAULT_GROUP_SIGNIFICANCE
    ]
    watch.lap("cluster")
    fits = recover_intensities(accepted, cauchy, k)
    groups = tuple(
        replace(g, lambda_estimate=lam, eta_estimate=eta, kind=_classify(lam, eta, k))
        for g, (lam, eta) in zip(accepted, fits)
    )
    params["component_peak_counts"] = {str(c): n for c, n in sorted(comp_counts.items())}
    params["rejected_groups"] = len(clustered) - len(accepted)
    watch.lap("readoff")
    return Reconstruction(
        estimated_count=len(groups),
        groups=groups,
        algorithm=algorithm,
        elapsed_seconds=watch.last - watch.start,
        parameters=params,
        fields=fields,
        timings=watch.laps,
        counts={
            "directions": len(dirs),
            "boundary_points": len(cauchy.surface),
            "grid_points": grid_points,
            "fine_grids": fine_grids,
            "phase_exps": reduced.phase_exps,
            "phase_tables_built": tables_built,
        },
        warnings=tuple(notes),
    )


def dsm(cauchy: CauchyData, k: float, grid: SamplingGrid, *, components=None, directions=None) -> Reconstruction:
    """Single-level direct sampling over the probe grid.

    components are the indicator components to sample (distinct, in 0..N;
    all N+1 when None, (0,) for sources known to be monopoles); directions
    is the indicator-integral DirectionSet, `default_directions` when None.
    """
    return _sample(cauchy, k, grid, False, components, directions)


def _refine(peaks, reduced: ReducedData, k: float, grid: SamplingGrid, fine_counts) -> tuple[list[Peak], bool]:
    """Argmax of |I_ell| over a one-wavelength fine grid around each peak (the
    box span on a narrower axis); one grid-kernel call on the local lattice x
    evaluates them all, peak p as weight column v_ell(d) e^{-ik d.c_p}.  The
    lattice's factors are held per process; the flag says whether this call
    built them."""
    if not peaks:
        return [], False
    lower, upper = np.array(grid.lower), np.array(grid.upper)
    side = np.minimum(2.0 * math.pi / k, upper - lower)
    lo = np.maximum(lower, np.array([p.location for p in peaks]) - side / 2.0)
    over = lo + side > upper  # shift down; max() as upper - span may round below lower
    lo, hi = np.where(over, np.maximum(lower, upper - side), lo), np.where(over, upper, lo + side)
    dirs = reduced.directions
    weights = _component_weights(reduced, k, [p.component for p in peaks]) * np.exp(-1j * k * (dirs.nodes @ lo.T))
    local = SamplingGrid(grid.dims, (0.0,) * grid.dims, tuple(side), tuple(fine_counts))
    factors, built = _lattice_factors(dirs, k, local)
    magnitudes = np.abs(_grid_kernel(weights, factors))
    best, cols = np.argmax(magnitudes, axis=0), np.arange(len(peaks))
    index = np.unravel_index(best, fine_counts, order="F")
    # report the fine grids' own points, np.linspace(lo, hi, n) on each axis
    at = np.stack([np.linspace(lo[:, i], hi[:, i], n)[index[i], cols] for i, n in enumerate(fine_counts)], axis=1)
    return [
        Peak(location=loc, component=p.component, magnitude=float(m), grid_index=int(i))
        for p, loc, m, i in zip(peaks, at, magnitudes[best, cols], best)
    ], built


def dsm2(
    cauchy: CauchyData, k: float, coarse_grid: SamplingGrid, *, components=None, directions=None
) -> Reconstruction:
    """Two-level direct sampling: coarse collection, local fine refinement.

    Each coarse maximizer of component ell gets a fine grid of side 2*pi/k
    centered on it (clamped into the probe box) with FINE_COUNTS_2D or
    FINE_COUNTS_3D points; the refined maximizer is the argmax of |I_ell|
    over that fine grid.  One grid-kernel call evaluates all fine grids
    (see the module docstring).  A coarse spacing above half a wavelength
    warns before any work.  components and directions are as for `dsm`.
    """
    return _sample(cauchy, k, coarse_grid, True, components, directions)
