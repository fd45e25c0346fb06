"""Direction sets, measurement surfaces, and rectangular sampling grids.

Direction sets carry quadrature weights for integrals over the unit circle
or unit sphere; measurement surfaces carry points, outward normals, and
surface-quadrature weights for boundary integrals.  Weights always travel
with the nodes so no downstream computation has to invent them.

The sphere rule is a Gauss-Legendre x uniform-azimuth product grid: exact
for spherical harmonics of degree < min(2*n_theta, n_phi).  The benchmark
configuration 42 x 43 = 1806 nodes reproduces the standard measurement
layout of the built-in presets.

Sampling-grid point ordering is deterministic: the first axis varies
fastest, then the second, then the third.

Every value object of the library (DirectionSet, MeasurementSurface and the
point sources, Cauchy data, reduced data, indicator fields and peaks built
on them) holds each array it is given as a private read-only copy, made
and, where the class promises finite values, checked once by `_hold`: the
caller's array stays writable and no later write to it reaches the object.
Arrays the library has just built itself, such as `SamplingGrid.points`,
are frozen in place without a copy.

Tables that never depend on the noisy data and recur from request to
request (the R(d) phase tables and lattice factors of `indicators`, the
clean traces of `forward.synthesize_cauchy`, and in `io` their `cauchy.csv`
text and the coordinate text of each grid written) are held by one rule,
`_held`: a process-wide LRU of _HELD_MAX read-only entries, each keyed by
every input of its build, bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DirectionSet",
    "MeasurementSurface",
    "SamplingGrid",
    "circle_directions",
    "sphere_directions",
    "circle_surface",
    "sphere_surface",
    "make_grid",
]


# Entries of the process-wide memo of setup-only tables (see `_held`); the
# most a preset mix holds is seventeen: per 2D preset, the clean traces,
# their cauchy.csv text, the R(d) phases, the coarse lattice's factors and
# the fine lattice's mode tables, and the coordinate text of the two grids
# the 2D presets write on. At 16 the three presets rebuild 16 tables a round.
_HELD_MAX = 17
_held_tables: OrderedDict = OrderedDict()
_held_lock = threading.Lock()
# Most bytes one held entry takes, so held memory stays under _HELD_MAX times
# it: 30^3 factors on the 42 x 43 rule (1.67 MiB), the circulant spectrum
# (1.16 MiB), 2D phase matrices of 256 x 200 (0.78 MiB), a 1806-point
# cauchy.csv lead (0.41 MB), its clean traces (58 kB) and a 60^3 grid's
# coordinate text (152 kB) fit, 60^3 factors (3.35 MiB) not
_HELD_BYTES = 2 << 20


class _Builds(threading.local):
    count = 0  # the tables `_held` built on this thread


_held_builds = _Builds()


def _held(key, build):
    """build()'s tuple of arrays, held read-only under key in a process-wide
    LRU of _HELD_MAX entries when they take at most _HELD_BYTES (a held
    build counts in `_held_builds`), else built for the call.  key must hold
    every input of build, bit for bit."""
    with _held_lock:
        if key in _held_tables:
            _held_tables.move_to_end(key)
            return _held_tables[key]
    arrays = build()
    if sum(a.nbytes for a in arrays) > _HELD_BYTES:
        return arrays
    _held_builds.count += 1
    for a in arrays:
        a.flags.writeable = False
    with _held_lock:
        _held_tables[key] = arrays
        while len(_held_tables) > _HELD_MAX:
            _held_tables.popitem(last=False)
    return arrays


def _hold(obj, name: str, dtype=float, what: str | None = None, default=None) -> np.ndarray | None:
    """Replace the array field `name` of the frozen dataclass obj (default
    when None; None stays None without one) with a private read-only
    C-ordered dtype copy, and return it.  With what given, a non-finite
    entry raises ValueError("<what> must be finite")."""
    value = getattr(obj, name)
    if value is None and default is None:
        return None
    a = np.array(default if value is None else value, dtype=dtype, order="C")
    if what is not None and not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    object.__setattr__(obj, name, a)
    return a


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors d on S^(dims-1) with quadrature weights in surface measure."""

    dims: int
    nodes: np.ndarray  # (n, dims), |d| = 1
    weights: np.ndarray  # (n,), sums to |S^(dims-1)|

    def __post_init__(self):
        _hold(self, "nodes", float, "direction nodes")
        _hold(self, "weights", float, "quadrature weights")
        if self.dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {self.dims}")
        if self.nodes.ndim != 2 or self.nodes.shape[1] != self.dims:
            raise ValueError("nodes must have shape (n, dims)")
        if self.weights.shape != (self.nodes.shape[0],):
            raise ValueError("weights must match node count")
        norms = np.linalg.norm(self.nodes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-14:
            raise ValueError("direction nodes must be unit vectors")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def __len__(self) -> int:
        return self.nodes.shape[0]


# Largest relative gap between a surface point's norm and the radius: rounding
# only (the preset surfaces sit within 2.2e-16).
_RADIUS_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementSurface:
    """Points on the measurement boundary with outward normals and weights."""

    dims: int
    points: np.ndarray  # (m, dims)
    normals: np.ndarray  # (m, dims), unit outward
    weights: np.ndarray  # (m,), surface quadrature weights
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive, got {self.radius}")
        _hold(self, "points", float, "surface points")
        _hold(self, "normals", float, "normals")
        _hold(self, "weights", float, "surface weights")
        m = self.points.shape[0]
        if self.normals.shape != (m, self.dims) or self.weights.shape != (m,):
            raise ValueError("points, normals and weights must be consistent")
        if np.any(self.weights <= 0):
            raise ValueError("surface weights must be positive")
        # every consumer (`forward.check_inside`, the circulant R(d)) trusts radius
        radii = np.linalg.norm(self.points, axis=1)
        if np.max(np.abs(radii - self.radius)) > _RADIUS_TOL * self.radius:
            raise ValueError(f"surface points must lie at the radius {self.radius}")
        norms = np.linalg.norm(self.normals, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-14:
            raise ValueError("normals must be unit vectors")
        if np.any(np.einsum("ij,ij->i", self.points, self.normals) <= 0):
            raise ValueError("normals must point radially outward")

    @cached_property
    def _bytes(self) -> tuple[bytes, bytes, bytes]:
        """The bytes of points, normals and weights, made on first use: the
        keys of the tables held on this surface (see `_held`) share them."""
        return self.points.tobytes(), self.normals.tobytes(), self.weights.tobytes()

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SamplingGrid:
    """Axis-aligned rectangular lattice of probe points, endpoints included.

    Ordering: first axis fastest.  Point i has per-axis indices
    (i % n1, (i // n1) % n2, ...), so its coordinates are those entries of
    `axes()`.  The grid holds only its box and counts: grids compare and
    hash by them, and `points` builds the (n, dims) coordinate array anew
    on each access.
    """

    dims: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.dims not in (2, 3):
            raise ValueError(f"dims must be 2 or 3, got {self.dims}")
        if not (len(self.lower) == len(self.upper) == len(self.counts) == self.dims):
            raise ValueError("lower/upper/counts must all have length dims")
        if any(not isinstance(c, (int, np.integer)) or c < 2 for c in self.counts):
            raise ValueError(f"counts must be integers >= 2, got {self.counts}")
        if not all(-math.inf < lo < hi < math.inf for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower corner must be strictly below upper corner")

    @property
    def points(self) -> np.ndarray:
        """The (n, dims) read-only array of every probe point, in grid order."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        points = np.stack([m.ravel(order="F") for m in mesh], axis=1)
        points.flags.writeable = False
        return points

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lower[i], self.upper[i], self.counts[i])
            for i in range(self.dims)
        ]

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (self.upper[i] - self.lower[i]) / (self.counts[i] - 1)
            for i in range(self.dims)
        )

    def __len__(self) -> int:
        return int(np.prod(self.counts))


@lru_cache(maxsize=8)
def circle_directions(count: int) -> DirectionSet:
    """Uniform angular nodes on S^1 with trapezoid weights 2*pi/count.

    Exact for trigonometric polynomials e^{i m theta} with |m| < count.
    Memoized, as the other rules here are: a 2D run asks for it to build its
    measurement circle and to integrate. The returned arrays are read-only.
    """
    if count < 4:
        raise ValueError(f"need at least 4 directions, got {count}")
    theta = 2.0 * np.pi * np.arange(count) / count
    nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    weights = np.full(count, 2.0 * np.pi / count)
    return DirectionSet(dims=2, nodes=nodes, weights=weights)


@lru_cache(maxsize=8)
def sphere_directions(n_theta: int, n_phi: int) -> DirectionSet:
    """Gauss-Legendre (in cos theta) x uniform azimuth product rule on S^2.

    Memoized: a 3D run asks for the same rule to validate its config, to
    build its measurement sphere and to integrate, and the Gauss-Legendre
    nodes cost about a millisecond. The returned arrays are read-only.
    """
    if n_theta < 2:
        raise ValueError(f"need n_theta >= 2, got {n_theta}")
    if n_phi < 4:
        raise ValueError(f"need n_phi >= 4, got {n_phi}")
    x, w = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_theta = np.sqrt(1.0 - x * x)
    nodes = np.stack(
        [
            np.outer(sin_theta, np.cos(phi)).ravel(),
            np.outer(sin_theta, np.sin(phi)).ravel(),
            np.outer(x, np.ones(n_phi)).ravel(),
        ],
        axis=1,
    )
    # Renormalize rows: sqrt(1-x^2) rounding can leave |d| off by ~1e-16.
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    weights = np.outer(w, np.full(n_phi, 2.0 * np.pi / n_phi)).ravel()
    return DirectionSet(dims=3, nodes=nodes, weights=weights)


@lru_cache(maxsize=8)
def circle_surface(radius: float, count: int) -> MeasurementSurface:
    """Measurement circle of given radius: count equally spaced points (memoized)."""
    if count < 8:
        raise ValueError(f"need at least 8 measurement points, got {count}")
    directions = circle_directions(count)
    return MeasurementSurface(
        dims=2,
        points=radius * directions.nodes,
        normals=directions.nodes,
        weights=radius * directions.weights,
        radius=float(radius),
    )


@lru_cache(maxsize=8)
def sphere_surface(radius: float, n_theta: int, n_phi: int) -> MeasurementSurface:
    """Measurement sphere of given radius on the product direction grid (memoized)."""
    directions = sphere_directions(n_theta, n_phi)
    return MeasurementSurface(
        dims=3,
        points=radius * directions.nodes,
        normals=directions.nodes,
        weights=radius * radius * directions.weights,
        radius=float(radius),
    )


def make_grid(lower, upper, counts) -> SamplingGrid:
    """Rectangular sampling grid over the box [lower, upper], endpoints included."""
    lower = tuple(float(v) for v in lower)
    upper = tuple(float(v) for v in upper)
    counts = tuple(int(c) for c in counts)
    return SamplingGrid(dims=len(lower), lower=lower, upper=upper, counts=counts)
