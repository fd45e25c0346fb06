"""Direct sampling localization of multipolar Helmholtz point sources.

Synthesizes exact boundary Cauchy data for monopole/dipole ensembles at a
single wavenumber, forms direction-space indicator functions whose moduli
peak at the source locations, and recovers the sources with one- or
two-level grid sampling.  See the README for the file formats and the CLI.
"""

from . import geometry, indicators, locator, specfun
from ._threads import get_thread_count, set_thread_count
from .forward import (
    CauchyData,
    NoiseSpec,
    PointSource,
    SourceEnsemble,
    add_noise,
    check_assumptions,
    dipole,
    monopole,
    synthesize_cauchy,
)
from .geometry import (
    DirectionSet,
    MeasurementSurface,
    SamplingGrid,
    circle_directions,
    circle_surface,
    make_grid,
    sphere_directions,
    sphere_surface,
)
from .indicators import (
    IndicatorField,
    ReducedData,
    indicator_at,
    indicator_field,
    moment,
    plane_wave_identity,
    reduced_data,
)
from .locator import Peak, PeakGroup, Reconstruction, dsm, dsm2
from .presets import ExperimentConfig, preset_config

__version__ = "0.1.0"
