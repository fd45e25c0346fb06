"""Reduced boundary data, indicator fields, and closed-form moment oracles.

The reduced functional maps the Cauchy pair on the measurement boundary to

    R(d) = int_Gamma (e^{ik x.d} du/dnu - u(x) d/dnu e^{ik x.d}) ds(x),

where the normal derivative of the plane wave is expanded analytically as
ik (d.nu) e^{ik x.d}.  For an exact multipolar field, Green's identity
collapses R(d) to the finite plane-wave sum

    sum_j lambda_j e^{ik d.z_j} - ik sum_j (eta_j.d) e^{ik d.z_j},

which `plane_wave_identity` evaluates directly; the agreement of the two
routes is the library's primary cross-module oracle.

The indicator with component ell (d_0 == 1 by convention) is

    I_ell(z) = a_ell / (2^(N-1) pi) * int_{S^(N-1)} R(d) d_ell e^{-ik d.z} ds(d),

with a_0 = 1 and a_ell = N i / k otherwise.

Both integrals are contractions of a phase table against a few weight
rows.  The heavy ones (R(d) over direction chunks, indicators at probe
points, indicators on grids) run through one private kernel, `_chunked`,
which splits its result into the fewest blocks of rows under a size cap,
with row counts that differ by at most one, and spreads them over the
worker threads; each block writes its last BLAS product straight into its
own rows.  The blocks, not the worker count, fix every sum, and
`_threads.map_chunks` holds the bundled OpenBLAS to one thread while they
run, so results are bitwise independent of the worker count.

On rectangular grids of any dimension the plane-wave factor separates per
axis, and `_grid_kernel`, the one lattice contraction, sees the direction
sum as A rings of B terms.  On axis factors the rings are directions that
share their last coordinate d_N: a ring-major product rule (see
`_product_rule`) gives n_theta rings of B = n_phi; any other set, and all
of 2D, gives n_dir rings of B = 1.  The kernel folds its weight columns
(the component weights, or one column per fine grid) and the factors of
the middle axes into (A, B, R) rows W_a, forms one per-ring product
H_a = X_a @ W_a with the first axis' factor X_a, and contracts the rings
with the last axis' factor, which is constant on every ring.  On the
42 x 43 rule and a 60^3 grid that is about 16 M complex multiply-adds per
component instead of 390 M for one product over all directions.

Every fine grid of dsm2 is one local lattice x centred on 0, shifted to
its centre c; since e^{-ik d.(c + x)} = e^{-ik d.c} e^{-ik d.x}, all of
them are one kernel call on x, one shifted weight column per grid
(`_fine_values`, the only code that evaluates fine lattices).  In 3D the
call reads x's axis factors.  In 2D it reads x's mode tables
(`_mode_tables`): on an axis that spans at most one wavelength, k|x| <= pi,
so by the Jacobi-Anger expansion e^{-ik x cos t} = sum_m (-i)^m J_m(kx)
e^{imt} the DFT of an axis factor over the directions keeps only the
columns at or above 2^-53 of its largest entry (44-51 of 256 on the 2D
presets).  The double sum over the kept modes of the two axes is the ring
sum with the second axis' modes as rings, so the tables are the kernel's
factors and the weights' spectrum its weights.  The cut comes from the
table itself, so any direction set is served (an irregular one keeps more
modes).  3D keeps its axis factors: an equatorial ring needs about 45
modes over one wavelength, more than its 43 azimuths.

In 3D, when both the measurement sphere and the direction set are
Gauss-Legendre x uniform-azimuth product rules with the same azimuth
count n_phi (detected from the points themselves, see `_product_rule`),
x.d depends only on the two polar rings and on the azimuth difference
phi_b - phi'_e mod n_phi.  R(d) then needs one n_theta x n'_theta x n_phi
phase table instead of one exponential per (point, direction) pair, and
its sums over the azimuth are circular correlations, done with numpy's
FFT: one batched matmul over the n_phi frequencies, on strided views of
the held spectrum.  Any other point set, unequal azimuth counts and all of
2D take the chunked path.

Some tables never depend on the Cauchy data and recur from run to run:
the inverse DFT of that phase table (key: k, the radius, both polar
rules and n_phi), the chunked path's phase matrix (key: k, the direction
nodes and the measurement points), a lattice's axis factors and a 2D
fine lattice's mode tables (key: k, the direction nodes and the lattice).
Each is built by the expression that would build it per call, then held
read-only, bit for bit, in the process-wide LRU that also holds the clean
Cauchy traces and their CSV text (`geometry._held`, which counts its builds
per thread).  A table is held when it fits in _HELD_BYTES, whichever
driver asks, and built for each call otherwise, which bounds the memory
held (dsm's 60^3 factors are not held).  The phase matrix is sized before
it is built, so one over the cap is still built per chunk; each lattice
factor is exponentiated in place.  The 2D presets' phase matrices
(256 x 200, 0.78 MiB) are held, so a warm 2D R(d) forms no exponential.

`moment` holds the closed form of the circle and sphere integrals of
d_p d_q e^{ik d.z}, one expression for both dimensions; it is the
verification target for the direction-set quadrature and the source of the
decay-rate checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _threads, geometry
from .forward import CauchyData, SourceEnsemble, _check_wavenumber
from .geometry import DirectionSet, SamplingGrid, _held, _hold, circle_directions, sphere_directions
from .specfun import bessel_j, spherical_j

__all__ = [
    "ReducedData",
    "IndicatorField",
    "reduced_data",
    "plane_wave_identity",
    "indicator_field",
    "indicator_grid_values",
    "indicator_at",
    "default_directions",
    "moment",
    "decay_probe",
]

_CHUNK = 2048

# Entries of the per-ring sums H that one grid-kernel block holds at most
# (4 MiB): every preset lattice, 60^3 included, is one block and runs inline.
_RING_BLOCK = 1 << 18

# Largest coordinate gap at which unit vectors still count as a product rule.
_RULE_TOL = 1e-12

# Indicator-integral direction defaults (2D count; 3D product factors).
DEFAULT_CIRCLE_DIRECTIONS = 256
DEFAULT_SPHERE_DIRECTIONS = (42, 43)


@dataclass(frozen=True)
class ReducedData:
    """R(d) sampled on a direction set."""

    directions: DirectionSet
    values: np.ndarray  # (n_dir,) complex
    phase_exps: int = 0  # entries of the phase table R(d) used

    def __post_init__(self):
        if _hold(self, "values", complex, "reduced data").shape != (len(self.directions),):
            raise ValueError("values must match the direction count")

    @property
    def dims(self) -> int:
        return self.directions.dims


@dataclass(frozen=True)
class IndicatorField:
    """One indicator component sampled on a grid (complex values)."""

    grid: SamplingGrid
    component: int
    values: np.ndarray  # (len(grid),) complex

    def __post_init__(self):
        if _hold(self, "values", complex, "indicator values").shape != (len(self.grid),):
            raise ValueError("values must match the grid point count")
        if not (0 <= self.component <= self.grid.dims):
            raise ValueError("component out of range")

    def magnitude(self) -> np.ndarray:
        """|values|, computed on the first call and then held read-only, so
        the driver's component maximum and its peak search share one."""
        if "_magnitude" not in self.__dict__:
            m = np.abs(self.values)
            m.flags.writeable = False
            object.__setattr__(self, "_magnitude", m)
        return self.__dict__["_magnitude"]


def default_directions(dims: int) -> DirectionSet:
    """Direction set used for the indicator integral when none is given."""
    if dims == 2:
        return circle_directions(DEFAULT_CIRCLE_DIRECTIONS)
    return sphere_directions(*DEFAULT_SPHERE_DIRECTIONS)


def _chunked(n_rows: int, width: int, fill, max_rows: int = _CHUNK) -> np.ndarray:
    """(n_rows, width) complex array whose rows s fill(s, out) writes into
    out, the view of them, for each block s.  The blocks are the fewest of
    at most max_rows rows, with row counts that differ by at most one (a
    lone remainder row would take BLAS's matrix-vector path and round
    differently); they, not the worker count, fix every sum."""
    out = np.empty((n_rows, width), dtype=complex)
    n_blocks = max(1, -(-n_rows // max_rows))
    bounds = [n_rows * i // n_blocks for i in range(n_blocks + 1)]

    def run(i: int) -> None:
        s = slice(bounds[i], bounds[i + 1])
        fill(s, out[s])

    _threads.map_chunks(run, list(range(n_blocks)))
    return out


def _product_rule(unit: np.ndarray):
    """(cos theta, sin theta) per ring and n_phi of a ring-major product rule.

    Point a * n_phi + b must be (sin t_a cos p_b, sin t_a sin p_b, cos t_a)
    with p_b = 2 pi b / n_phi, to _RULE_TOL in every coordinate; otherwise
    the unit vectors are no product rule and the result is None.
    """
    z = unit[:, 2]
    n_phi = int(np.argmax(np.abs(z - z[0]) > _RULE_TOL)) or len(z)
    if len(z) % n_phi:
        return None
    rings = unit.reshape(-1, n_phi, 3)
    cos_t, sin_t = rings[:, 0, 2], rings[:, 0, 0]  # p_0 = 0
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    model = np.stack(
        [np.outer(sin_t, np.cos(phi)), np.outer(sin_t, np.sin(phi)), np.outer(cos_t, np.ones(n_phi))],
        axis=-1,
    )
    if np.max(np.abs(rings - model)) > _RULE_TOL:
        return None
    return cos_t, sin_t, n_phi


def _circulant_parts(surf, nodes: np.ndarray, rows: np.ndarray, k: float):
    """reduced_data's (n_dir, n_rows) contraction on two product rules with
    equal n_phi and the size of its phase table (its spectrum is held, see
    `_held`); None for other inputs."""
    pts_rule, dir_rule = _product_rule(surf.points / surf.radius), _product_rule(nodes)
    if pts_rule is None or dir_rule is None or pts_rule[2] != dir_rule[2]:
        return None
    (cos_a, sin_a, n), (cos_c, sin_c, _) = pts_rule, dir_rule

    def build():
        # x.d at azimuth difference p_b - p'_e = 2 pi m / n, for rings a and c
        cos_m = np.cos(2.0 * np.pi * np.arange(n) / n)
        table = np.exp(1j * k * surf.radius * (
            np.outer(sin_a, sin_c)[:, :, None] * cos_m + np.outer(cos_a, cos_c)[:, :, None]))
        return (np.fft.ifft(table, norm="forward"),)

    key = ("spectrum", k, surf.radius, n) + tuple(v.tobytes() for v in (cos_a, sin_a, cos_c, sin_c))
    (table_spectrum,) = _held(key, build)
    # parts[r, c, e] = sum_{a, b} rows[r, a, b] table[a, c, (b - e) mod n]
    spectrum = _circulant_product(np.fft.fft(rows.reshape(len(rows), -1, n)), table_spectrum)
    return np.fft.ifft(spectrum).transpose(1, 2, 0).reshape(-1, len(rows)), table_spectrum.size


def _circulant_product(rows_spectrum: np.ndarray, table_spectrum: np.ndarray) -> np.ndarray:
    """(R, C, n) sums over a of rows_spectrum[r, a, q] table_spectrum[a, c, q]:
    one batched product over q, on strided views (the held table is not copied)."""
    return np.matmul(rows_spectrum.transpose(2, 0, 1), table_spectrum.transpose(2, 0, 1)).transpose(1, 2, 0)


def reduced_data(cauchy: CauchyData, k: float, directions: DirectionSet) -> ReducedData:
    """Quadrature of the reduced boundary functional over Gamma."""
    _check_wavenumber(k)
    if cauchy.dims != directions.dims:
        raise ValueError("Cauchy data and directions have different dimensions")
    surf = cauchy.surface
    nodes = directions.nodes
    # rows w du/dnu, then w u nu_c for each axis c
    rows = np.stack(
        [surf.weights * cauchy.neumann]
        + [surf.weights * cauchy.dirichlet * surf.normals[:, c] for c in range(surf.dims)]
    )
    circulant = _circulant_parts(surf, nodes, rows, k) if surf.dims == 3 else None
    if circulant is not None:
        parts, exps = circulant
    else:
        exps = len(surf) * len(directions)

        def phases(s: slice, out=None) -> np.ndarray:
            return np.exp(1j * k * (nodes[s] @ surf.points.T), out=out)

        # the cap, in complex128 bytes known before the build, bounds what the
        # LRU keeps; the unheld path builds _CHUNK directions per block, so the
        # whole matrix up to _CHUNK (1848 on a 1806-point sphere: 53 MB)
        if 16 * exps <= geometry._HELD_BYTES:
            key = ("phases", k, nodes.shape, nodes.tobytes(), surf.points.shape, surf.points.tobytes())
            (held,) = _held(key, lambda: (_chunked(len(directions), len(surf), phases),))
            parts = _chunked(len(directions), len(rows), lambda s, out: np.matmul(held[s], rows.T, out=out))
        else:
            parts = _chunked(len(directions), len(rows), lambda s, out: np.matmul(phases(s), rows.T, out=out))
    out = parts[:, 0]
    for c in range(surf.dims):
        out = out - 1j * k * nodes[:, c] * parts[:, c + 1]
    return ReducedData(directions=directions, values=out, phase_exps=exps)


def plane_wave_identity(ensemble: SourceEnsemble, k: float, d):
    """Exact value of R(d) from the ensemble (Green's identity route).

    d is one direction (dims,), giving a complex, or an (n, dims) array of
    directions, giving n values; each row takes the operations a lone
    direction would.
    """
    d = np.asarray(d, dtype=float)
    total = np.zeros(d.shape[:-1], dtype=complex)
    for s in ensemble.sources:
        phase = np.exp(1j * k * (d * s.location).sum(-1))
        total = total + (s.scalar_intensity - 1j * k * (d * s.vector_intensity).sum(-1)) * phase
    return complex(total) if total.ndim == 0 else total


def _component_weights(reduced: ReducedData, k: float, components) -> np.ndarray:
    """(n_dir, L) matrix: quadrature weight * R(d) * d_ell * a_ell / (2^(N-1) pi)."""
    dirs = reduced.directions
    base = 1.0 / (2 ** (dirs.dims - 1) * np.pi)
    weighted = dirs.weights * reduced.values
    cols = []
    for ell in components:
        a = 1.0 if ell == 0 else dirs.dims * 1j / k
        monomial = np.ones(len(dirs)) if ell == 0 else dirs.nodes[:, ell - 1]
        cols.append(complex(a * base) * weighted * monomial)
    return np.stack(cols, axis=1)


def _check_components(dims: int, components) -> tuple[int, ...]:
    """The components as ints, all N+1 when None; the one rule on them:
    non-empty, distinct integer indices (a bool is none), each in 0..N."""
    comps = tuple(range(dims + 1) if components is None else components)
    for c in comps:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise ValueError(f"component {c!r} is not an integer index")
    comps = tuple(map(int, comps))
    if not comps or len(set(comps)) != len(comps):
        raise ValueError("components must be non-empty and distinct")
    for c in comps:
        if not (0 <= c <= dims):
            raise ValueError(f"component {c} out of range for dims={dims}")
    return comps


def indicator_at(reduced: ReducedData, k: float, points, components=None) -> np.ndarray:
    """Indicator components at arbitrary probe points; returns (n_points, L)."""
    comps = _check_components(reduced.dims, components)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != reduced.dims:
        raise ValueError("probe points have the wrong dimension")
    v = _component_weights(reduced, k, comps)
    nodes = reduced.directions.nodes
    return _chunked(len(pts), len(comps), lambda s, out: np.matmul(np.exp(-1j * k * (pts[s] @ nodes.T)), v, out=out))


def _rings(directions: DirectionSet) -> tuple[np.ndarray, np.ndarray]:
    """Directions as (A, B, dims) rings and the d_N each ring shares.

    A ring-major product rule gives its n_theta rings of n_phi directions,
    with d_N = cos theta of the ring (within a ring the stored d_N differ
    by rounding); any other set is one ring per direction.
    """
    nodes = directions.nodes
    rule = _product_rule(nodes) if directions.dims == 3 else None
    if rule is None:
        return nodes[:, None, :], nodes[:, -1]
    cos_t, _, n_phi = rule
    return nodes.reshape(-1, n_phi, 3), cos_t


def _distinct(coord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of coord, told apart by their bits (so -0.0 and
    0.0 stay two), and the index of each entry of coord among them."""
    bits, at = np.unique(coord.ravel().view(np.uint64), return_inverse=True)
    return bits.view(float), at.reshape(coord.shape)


def _axis_factors(directions: DirectionSet, k: float, axes) -> tuple[np.ndarray, ...]:
    """`_grid_kernel`'s plane-wave factors on the lattice of `axes`: the first
    axis' (A, n_x, B), each middle axis' (A, B, n_y), the last axis' (A, n_z).

    A factor entry is a function of one direction coordinate and one axis
    point alone, so each distinct coordinate is exponentiated once and the
    factor gathered from that table, bit for bit the per-entry expression:
    the 42 x 43 rule has 854 and 883 distinct first and middle coordinates
    of 1806.
    """
    rings, level = _rings(directions)

    def exp(arg):  # in place: the table is the one array of its size it allocates
        return np.exp(arg, out=arg)

    middle = []
    for i in range(1, directions.dims - 1):
        coord, at = _distinct(rings[:, :, i])
        middle.append(exp(-1j * k * coord[:, None] * axes[i])[at])
    coord, at = _distinct(rings[:, :, 0])  # first[a, x, b] = table[x, at[a, b]]
    first = exp(-1j * k * axes[0][:, None] * coord)[np.arange(len(axes[0]))[:, None], at[:, None, :]]
    last = exp(-1j * k * np.outer(level, axes[-1]))
    return (first, *middle, last)


def _lattice_factors(directions: DirectionSet, k: float, grid: SamplingGrid):
    """`_axis_factors` of the grid, held (see `_held`) when they take at most
    _HELD_BYTES and built for the call otherwise."""
    key = ("lattice", k, directions.nodes.shape, directions.nodes.tobytes(), grid)
    return _held(key, lambda: _axis_factors(directions, k, grid.axes()))


def _grid_kernel(weights: np.ndarray, factors) -> np.ndarray:
    """sum_d weights[d, p] e^{-ik d.z} on a lattice, as (n_points, P), from
    the lattice's `_axis_factors`; a 2D lattice's `_mode_tables` serve as
    factors too, with the weights' spectrum gathered as weights.

    Exploits the tensor-product structure of the lattice and the ring
    structure of the directions (see `_rings`): with x, y, z the first,
    middle and last axes,

        I(x, y, z) = sum_a e^{-ik z c_a} sum_b e^{-ik x d_x} [v e^{-ik y d_y}](a, b),

    where c_a is ring a's d_N and v the weight columns.  The bracket is
    folded into (A, B, n_y * P) rows W; for each block of first-axis
    points, one batched product forms the ring sums H_a = X_a @ W_a and one
    product contracts them with the last axis' (A x n_z) factor.  Blocks
    hold at most _RING_BLOCK entries of H (or one first-axis point), which
    also bounds the memory when every ring has one direction.
    """
    first, *middle, last = factors
    n_ring, n_x, per_ring = first.shape
    w = weights.reshape(n_ring, per_ring, -1)
    for f in middle:  # a later axis varies slower
        w = (f[:, :, :, None] * w[:, :, None, :]).reshape(n_ring, per_ring, -1)
    width, n_z = w.shape[2], last.shape[1]

    def fill(s: slice, out: np.ndarray) -> None:
        ring_sums = np.matmul(first[:, s], w).reshape(n_ring, -1)  # (A, n_s * width)
        np.matmul(ring_sums.T, last, out=out.reshape(-1, n_z))

    out = _chunked(n_x, width * n_z, fill, max(1, _RING_BLOCK // (n_ring * width)))
    # out[x, (y, p, z)] -> flat grid order: x + n_x * (y + n_y * z)
    n_cols = weights.shape[1]
    return out.reshape(n_x, -1, n_cols, n_z).transpose(3, 1, 0, 2).reshape(-1, n_cols)


def _mode_tables(directions: DirectionSet, k: float, grid: SamplingGrid):
    """The ring factors of a 2D lattice's mode expansion, held (see `_held`),
    and the Hankel index that gathers its weights.

    Per axis i, A_i[x, m] is the DFT over the n directions of e^{-ik x d_i}
    divided by n, without the columns m below 2^-53 of its largest entry.
    With F the weight columns' inverse DFT over the directions times n,

        I(x1, x2) = sum_{m2} A_2[x2, m2] sum_{m1} A_1[x1, m1] F[(m1 + m2) mod n],

    which is `_grid_kernel`'s ring sum with the second axis' kept modes m2
    as rings and the first axis' m1 within each: the first factor is A_1 on
    every ring (a read-only broadcast view), the last A_2^T, and the
    weights are F gathered at the (M2, M1) index (m1 + m2) mod n returned
    third.
    """

    def build():
        tables, modes = [], []
        for axis, d in zip(grid.axes(), directions.nodes.T):
            table = np.fft.fft(np.exp(-1j * k * np.outer(axis, d)), axis=1, norm="forward")
            size = np.abs(table).max(axis=0)
            modes.append(np.flatnonzero(size >= 2.0**-53 * size.max()))
            tables.append(table[:, modes[-1]])
        return tables[0], tables[1].T, (modes[1][:, None] + modes[0]) % len(directions)

    # held before the broadcast, so the held-size cap counts A_1 once
    a_1, last, index = _held(("modes", k, directions.nodes.shape, directions.nodes.tobytes(), grid), build)
    return np.broadcast_to(a_1, (len(last), *a_1.shape)), last, index


def _fine_values(reduced: ReducedData, k: float, components, centres: np.ndarray, side, counts) -> np.ndarray:
    """(prod(counts), P) values of I_{components[p]} on one lattice of counts
    points over [-side/2, side/2] per axis, shifted to centres[p].

    e^{-ik d.(c + x)} = e^{-ik d.c} e^{-ik d.x}, so every shifted lattice is
    the one lattice x centred on 0, with its weight column shifted to its
    centre c: one `_grid_kernel` call on x's mode tables in 2D (see
    `_mode_tables`) or its axis factors in 3D, each held as `_held` allows.
    """
    dirs = reduced.directions
    lattice = SamplingGrid(reduced.dims, tuple(-side / 2.0), tuple(side / 2.0), tuple(counts))
    weights = _component_weights(reduced, k, components) * np.exp(-1j * k * (dirs.nodes @ centres.T))
    if reduced.dims == 2:
        *factors, hankel = _mode_tables(dirs, k, lattice)
        weights = np.fft.ifft(weights, axis=0, norm="forward")[hankel].reshape(hankel.size, -1)
    else:
        factors = _lattice_factors(dirs, k, lattice)
    return _grid_kernel(weights, factors)


def indicator_grid_values(reduced: ReducedData, k: float, grid: SamplingGrid, components=None) -> np.ndarray:
    """All requested indicator components on a grid; returns (len(grid), L)."""
    comps = _check_components(reduced.dims, components)
    if grid.dims != reduced.dims:
        raise ValueError("grid and reduced data have different dimensions")
    return _grid_kernel(_component_weights(reduced, k, comps), _lattice_factors(reduced.directions, k, grid))


def indicator_field(reduced: ReducedData, k: float, grid: SamplingGrid, component: int) -> IndicatorField:
    """One indicator component sampled over the grid."""
    values = indicator_grid_values(reduced, k, grid, (component,))[:, 0]
    return IndicatorField(grid=grid, component=int(component), values=values)


# ----------------------------------------------------------------------
# closed-form moments (circle and sphere integrals of d_p d_q e^{ik d.z})
# ----------------------------------------------------------------------

# radial kernels f_n of the moments: cylinder J_n on the circle, spherical
# j_n on the sphere
_RADIAL = {2: bessel_j, 3: spherical_j}


def moment(p: int, q: int, z, k: float):
    """Closed form of int_{S^(N-1)} d_p d_q e^{ik d.z} ds(d), with d_0 == 1.

    N is z.shape[-1] (2 or 3).  z is one point (N,), giving a complex, or
    an array (..., N) of points, giving a complex array of the leading
    shape.  With t = k|z|, zhat = z/|z| (0 at the origin), |S| = 2^(N-1) pi
    and f_n = J_n (N = 2) or j_n (N = 3):

        (0, 0) -> |S| f0(t),   (0, q) -> i |S| f1(t) zhat_q,
        (p, q) -> |S| [(f0 + f2)(t) / N delta_pq - f2(t) zhat_p zhat_q].
    """
    z = np.asarray(z, dtype=float)
    dims = z.shape[-1] if z.ndim else 0
    if dims not in _RADIAL:
        raise ValueError(f"moment points must have 2 or 3 coordinates, got shape {z.shape}")
    p, q = sorted((int(p), int(q)))
    if not (0 <= p and q <= dims):
        raise ValueError(f"moment indices must lie in 0..{dims}")
    r = np.linalg.norm(z, axis=-1)[..., None]
    zhat = np.divide(z, r, out=np.zeros_like(z), where=r > 0.0)
    area = 2 ** (dims - 1) * np.pi

    def f(n):
        return _RADIAL[dims](n, k * r[..., 0])

    if p == 0:
        out = area * f(0) if q == 0 else 1j * area * f(1) * zhat[..., q - 1]
    else:
        f2 = f(2)
        out = area * (((f(0) + f2) / dims if p == q else 0.0) - f2 * zhat[..., p - 1] * zhat[..., q - 1])
    out = np.asarray(out, dtype=complex)
    return complex(out) if out.ndim == 0 else out


def _orientation_sample(dims: int, count: int) -> np.ndarray:
    if dims == 2:
        angles = np.pi * (np.arange(count) + 0.31) / count
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # Fibonacci-style spread over the sphere, deterministic
    idx = np.arange(count) + 0.5
    ca = 1.0 - 2.0 * idx / count
    sa = np.sqrt(1.0 - ca * ca)
    beta = np.pi * (1.0 + math.sqrt(5.0)) * idx
    return np.stack([sa * np.cos(beta), sa * np.sin(beta), ca], axis=1)


def decay_probe(dims: int, p: int, q: int, kl_values, orientations: int = 24, window_samples: int = 24) -> list[float]:
    """Envelope of max_z |moment(p, q, z)| at k|z| near each requested value.

    For each kl the modulus is maximized over a deterministic orientation
    sample and over k|z| in [kl, kl + pi] (one oscillation crest), which
    gives a clean envelope for the decay-slope fit.
    """
    kl = [float(v) for v in kl_values]
    if any(b <= a for a, b in zip(kl, kl[1:])):
        raise ValueError("kl_values must be strictly increasing")
    if kl and kl[0] < 10.0:
        raise ValueError("decay probe starts at kl >= 10")
    dirs = _orientation_sample(dims, orientations)
    out = []
    for base in kl:
        window = np.linspace(base, base + np.pi, window_samples)[:, None, None] * dirs
        out.append(float(np.max(np.abs(moment(p, q, window, 1.0)))))
    return out
