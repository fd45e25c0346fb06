"""Closed-form radiating fields for monopole/dipole ensembles.

Synthesizes exact Cauchy data (u and its normal derivative on the
measurement boundary) at a single wavenumber,

    u = -sum_j (lam_j Phi + eta_j . grad_x Phi)(x - z_j),

with Phi the outgoing fundamental solution, (i/4) H0(k r) in 2D and
e^{ikr}/(4 pi r) in 3D.  One private kernel, `_unit_traces`, is the only
code that knows Phi: it forms both traces of a unit monopole and of the
unit dipoles e_1..e_N at given source points, in either dimension, with
one radial-profile call (one H0 and one H1 call per 2D synthesis).
Synthesis weighs them by -(lam_j, eta_j); the intensity read-off
(`locator.recover_intensities`) fits them.
The module also applies the multiplicative random noise model

    u_noisy = u + eps * r1 * |u| * exp(i pi r2),

with r1, r2 drawn independently per sample point, uniform on [-1, 1].
Dirichlet draws precede Neumann draws, points in storage order, r1 before
r2, from one counter-based generator - so noisy data is a pure function of
(clean data, level, seed) regardless of how evaluation is scheduled.

Intensities are stored complex throughout: all the closed forms below are
linear in them and nothing in the indicator theory needs them real.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import MeasurementSurface, _held, _hold
from .specfun import hankel1

__all__ = [
    "PointSource",
    "SourceEnsemble",
    "CauchyData",
    "NoiseSpec",
    "monopole",
    "dipole",
    "synthesize_cauchy",
    "check_inside",
    "add_noise",
    "check_assumptions",
    "AssumptionReport",
]

# Every source must lie inside the measurement radius by at least this
# fraction of it (catastrophic cancellation guard).
BOUNDARY_GUARD = 1e-8

# The noise model targets the small-noise regime (eps << 1); levels beyond
# the largest benchmarked value draw a warning, beyond 0.5 they are rejected.
NOISE_WARN_LEVEL = 0.15
NOISE_MAX_LEVEL = 0.5


@dataclass(frozen=True, eq=False)
class PointSource:
    """One monopole (scalar intensity) or dipole (vector intensity)."""

    location: np.ndarray
    scalar_intensity: complex = 0.0
    vector_intensity: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, PointSource):
            return NotImplemented
        return (
            np.array_equal(self.location, other.location)
            and self.scalar_intensity == other.scalar_intensity
            and np.array_equal(self.vector_intensity, other.vector_intensity)
        )

    def __hash__(self):
        return hash((bytes(self.location), self.scalar_intensity, bytes(self.vector_intensity)))

    def __post_init__(self):
        loc = _hold(self, "location", float, "location")
        if loc.ndim != 1 or loc.shape[0] not in (2, 3):
            raise ValueError("location must be a 2- or 3-vector")
        object.__setattr__(self, "scalar_intensity", complex(self.scalar_intensity))
        if not cmath.isfinite(self.scalar_intensity):
            raise ValueError("scalar intensity must be finite")
        eta = _hold(self, "vector_intensity", complex, "vector intensity", default=np.zeros(loc.shape))
        if eta.shape != loc.shape:
            raise ValueError("vector intensity must match the location dimension")
        lam_abs = abs(self.scalar_intensity)
        eta_abs = float(np.linalg.norm(eta))
        if lam_abs + eta_abs == 0.0:
            raise ValueError("source must carry a nonzero intensity")
        if lam_abs * eta_abs != 0.0:
            raise ValueError("source must be a pure monopole or a pure dipole")

    @property
    def dims(self) -> int:
        return self.location.shape[0]

    @property
    def is_monopole(self) -> bool:
        return self.scalar_intensity != 0.0


def monopole(location, intensity) -> PointSource:
    return PointSource(location=np.asarray(location, float), scalar_intensity=intensity)


def dipole(location, intensity) -> PointSource:
    return PointSource(
        location=np.asarray(location, float),
        vector_intensity=np.asarray(intensity, complex),
    )


@dataclass(frozen=True)
class SourceEnsemble:
    """A finite family of mutually distinct point sources."""

    sources: tuple[PointSource, ...]

    def __post_init__(self):
        sources = tuple(self.sources)
        if not sources:
            raise ValueError("ensemble needs at least one source")
        dims = sources[0].dims
        if any(s.dims != dims for s in sources):
            raise ValueError("all sources must share one dimension")
        locs = np.array([s.location for s in sources])
        for i in range(len(sources)):
            for j in range(i + 1, len(sources)):
                if np.array_equal(locs[i], locs[j]):
                    raise ValueError("source locations must be mutually distinct")
        object.__setattr__(self, "sources", sources)

    @property
    def dims(self) -> int:
        return self.sources[0].dims

    @property
    def count(self) -> int:
        return len(self.sources)

    @property
    def min_separation(self) -> float:
        """Smallest pairwise distance L; +inf for a single source."""
        if self.count == 1:
            return math.inf
        locs = np.array([s.location for s in self.sources])
        best = math.inf
        for i in range(self.count):
            d = np.linalg.norm(locs[i + 1 :] - locs[i], axis=1)
            if d.size:
                best = min(best, float(d.min()))
        return best

    def locations(self) -> np.ndarray:
        return np.array([s.location for s in self.sources])


@dataclass(frozen=True)
class CauchyData:
    """Dirichlet and Neumann traces sampled on a measurement surface."""

    surface: MeasurementSurface
    dirichlet: np.ndarray  # (m,) complex, u on Gamma
    neumann: np.ndarray  # (m,) complex, du/dnu on Gamma

    def __post_init__(self):
        d = _hold(self, "dirichlet", complex, "Cauchy data")
        n = _hold(self, "neumann", complex, "Cauchy data")
        m = len(self.surface)
        if d.shape != (m,) or n.shape != (m,):
            raise ValueError("trace arrays must match the surface point count")

    @property
    def dims(self) -> int:
        return self.surface.dims


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative noise level and RNG seed (a Philox key, 0 <= seed < 2**128)."""

    level: float
    seed: int = 0

    def __post_init__(self):
        # a fractional seed would run the Philox key of its integer part
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"noise seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"noise seed must lie in [0, 2**128), got {self.seed}")
        if not math.isfinite(self.level):
            raise ValueError(f"noise level must be finite, got {self.level}")
        if self.level < 0:
            raise ValueError(f"noise level must be >= 0, got {self.level}")
        if self.level > NOISE_MAX_LEVEL:
            raise ValueError(
                f"noise level {self.level} exceeds the supported maximum {NOISE_MAX_LEVEL}"
            )
        if self.level > NOISE_WARN_LEVEL:
            warnings.warn(
                f"noise level {self.level} is far outside the small-noise regime",
                stacklevel=3,  # past the generated __init__, at the line that built the spec
            )


# ----------------------------------------------------------------------
# closed-form traces
# ----------------------------------------------------------------------

def _radial(dims: int, k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(r) and Phi'(r): (i/4) H0(kr) in 2D, e^{ikr}/(4 pi r) in 3D."""
    if dims == 2:
        kr = k * r
        return 0.25j * hankel1(0, kr), -0.25j * k * hankel1(1, kr)
    phi = np.exp(1j * k * r) / (4.0 * np.pi * r)
    return phi, phi * (1j * k - 1.0 / r)


def _unit_traces(k: float, points: np.ndarray, normals: np.ndarray, at: np.ndarray,
                 mono=slice(None), dip=slice(None)) -> np.ndarray:
    """u ([0]) and d_nu u ([1]) at `points` along `normals` (both (m, N)) of
    unit sources at rows z of `at` (p, N), as one (2, m, q, N+1) array:
    column 0 is Phi(x - z) for z = at[mono[j]], column c >= 1 is
    e_c . grad_x Phi(x - z) for z = at[dip[j]], j < q (by default each row
    of `at` gives all N+1 columns).

    With t = x - z, r = |t| and g = Phi'(r)/r, grad_x Phi = g t, and the
    identity Phi'' = -(N-1) Phi'/r - k^2 Phi gives the Hessian term, so

        d_nu Phi               = g (nu.t)
        d_nu (e_c . grad_x Phi) = g nu_c - t_c (nu.t)(N g + k^2 Phi)/r^2

    in any dimension N; only the radial profile (Phi, Phi') depends on N,
    and one call evaluates it for all (point, source) pairs.  Each element
    is a lone pair's operations, so a column's bits do not depend on which
    others are formed.
    """
    dims = points.shape[1]
    t = points[:, None, :] - at  # (m, p, N)
    # r enters the phase k r, so its last bit shows in u: take each row's
    # norm as np.linalg.norm takes one point's (a BLAS dot per row)
    r = np.sqrt(np.matmul(t[..., None, :], t[..., :, None])[..., 0, 0])
    if not np.all(r > 0.0):
        raise ValueError("field evaluated at a source location")
    phi, dphi = _radial(dims, k, r)
    g = dphi / r
    nu_t = np.einsum("md,mpd->mp", normals, t)
    phi_mono = phi[:, mono]
    out = np.empty((2, *phi_mono.shape, dims + 1), dtype=complex)
    out[0, ..., 0] = phi_mono
    out[1, ..., 0] = g[:, mono] * nu_t[:, mono]
    t, r, phi, g, nu_t = (a[:, dip] for a in (t, r, phi, g, nu_t))
    out[0, ..., 1:] = g[..., None] * t
    out[1, ..., 1:] = g[..., None] * normals[:, None] - (nu_t * (dims * g + k * k * phi) / (r * r))[..., None] * t
    return out


def _check_wavenumber(k: float) -> None:
    """Raise ValueError unless k is a finite positive number."""
    if not 0 < k < math.inf:
        raise ValueError(f"wavenumber must be positive, got {k}")


def check_inside(ensemble: SourceEnsemble, radius: float) -> None:
    """Raise ValueError unless every source lies strictly inside the
    measurement radius, |z| < radius (1 - BOUNDARY_GUARD)."""
    for s in ensemble.sources:
        norm = float(np.linalg.norm(s.location))
        if not norm < radius * (1.0 - BOUNDARY_GUARD):
            raise ValueError(
                f"source at {s.location.tolist()} (|z| = {norm:.6g}) is not inside the measurement radius {radius:g}"
            )


def synthesize_cauchy(ensemble: SourceEnsemble, k: float, surface: MeasurementSurface) -> CauchyData:
    """Evaluate the closed-form traces at every surface point.

    The traces are held per process (`geometry._held`), keyed by k, the
    surface points and normals and the sources' locations and intensities,
    bit for bit, so rerunning a configuration under another noise seed
    evaluates nothing: 2 x 1806 complex values (58 kB) on a 3D preset
    sphere, 2 x 200 (6.4 kB) on a 2D preset circle.
    """
    _check_wavenumber(k)
    if ensemble.dims != surface.dims:
        raise ValueError("ensemble and surface dimensions differ")
    check_inside(ensemble, surface.radius)
    at = ensemble.locations()
    weights = np.array([[s.scalar_intensity, *s.vector_intensity] for s in ensemble.sources])

    def build():
        units = _unit_traces(k, surface.points, surface.normals, at)
        # summed by numpy's own loop, not BLAS, so no BLAS thread count moves a bit
        return tuple(-np.einsum("tmpc,pc->tm", units, weights))

    key = ("traces", k, surface.points.shape, *surface._bytes[:2], weights.shape, at.tobytes(), weights.tobytes())
    dirichlet, neumann = _held(key, build)
    return CauchyData(surface=surface, dirichlet=dirichlet, neumann=neumann)


def add_noise(data: CauchyData, spec: NoiseSpec) -> CauchyData:
    """Apply the multiplicative noise model; deterministic given the seed."""
    if spec.level == 0.0:
        return CauchyData(surface=data.surface, dirichlet=data.dirichlet, neumann=data.neumann)
    m = len(data.surface)
    gen = np.random.Generator(np.random.Philox(key=int(spec.seed)))
    draws_d = gen.uniform(-1.0, 1.0, size=(m, 2))
    draws_n = gen.uniform(-1.0, 1.0, size=(m, 2))

    def perturb(values: np.ndarray, draws: np.ndarray) -> np.ndarray:
        r1, r2 = draws[:, 0], draws[:, 1]
        return values + spec.level * r1 * np.abs(values) * np.exp(1j * np.pi * r2)

    return CauchyData(
        surface=data.surface,
        dirichlet=perturb(data.dirichlet, draws_d),
        neumann=perturb(data.neumann, draws_n),
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Diagnostics for the sparsity and intensity-balance assumptions."""

    min_separation: float
    wavelength: float
    separation_ratio: float
    intensity_ratios: tuple[float, ...] = field(default=())
    warnings: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.warnings


# Separation below this many wavelengths, or monopole/dipole data-magnitude
# ratios outside this band, draw a WARN (order-of-magnitude reading of the
# "same order" condition).
SEPARATION_WARN_RATIO = 2.0
INTENSITY_RATIO_BAND = (0.2, 5.0)


def check_assumptions(ensemble: SourceEnsemble, k: float) -> AssumptionReport:
    """Report whether the ensemble sits in the regime the indicators assume."""
    _check_wavenumber(k)
    separation = ensemble.min_separation
    wavelength = 2.0 * np.pi / k
    ratio = separation / wavelength
    notes: list[str] = []
    if ratio < SEPARATION_WARN_RATIO:
        notes.append(
            f"WARN: min separation {separation:.4g} is only {ratio:.2f} wavelengths"
        )
    lambdas = [abs(s.scalar_intensity) for s in ensemble.sources if s.is_monopole]
    etas = [float(np.linalg.norm(s.vector_intensity)) for s in ensemble.sources if not s.is_monopole]
    ratios = []
    lo, hi = INTENSITY_RATIO_BAND
    for lam in lambdas:
        for eta in etas:
            r = lam / (k * eta)
            ratios.append(r)
            if not (lo <= r <= hi):
                notes.append(
                    f"WARN: monopole/dipole data magnitudes unbalanced (ratio {r:.3g})"
                )
    return AssumptionReport(
        min_separation=separation,
        wavelength=wavelength,
        separation_ratio=ratio,
        intensity_ratios=tuple(ratios),
        warnings=tuple(notes),
    )
