import warnings

import numpy as np
import pytest
from hypothesis import settings

import heliodsm.geometry
from heliodsm.forward import add_noise, synthesize_cauchy
from heliodsm.presets import preset_config

# `--hypothesis-profile=ci` widens the property tests that do not fix their
# own example count (the float renderer's); tier-1 keeps the default budget.
settings.register_profile("ci", max_examples=20000, deadline=None)


@pytest.fixture(scope="session")
def example1():
    cfg = preset_config("example1")
    ensemble = cfg.ensemble()
    clean = synthesize_cauchy(ensemble, cfg.wavenumber, cfg.surface())
    noisy = add_noise(clean, cfg.noise_spec())
    return cfg, ensemble, clean, noisy


@pytest.fixture(scope="session")
def example4():
    cfg = preset_config("example4")
    ensemble = cfg.ensemble()
    clean = synthesize_cauchy(ensemble, cfg.wavenumber, cfg.surface())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        noisy = add_noise(clean, cfg.noise_spec())
    return cfg, ensemble, clean, noisy


@pytest.fixture
def cold_tables():
    """Empty the process-wide memo of setup-only tables, so the next calls build them."""
    with heliodsm.geometry._held_lock:
        heliodsm.geometry._held_tables.clear()


def nearest_errors(recon, exact: np.ndarray) -> list[float]:
    """Per-exact-source distance to the nearest recovered centroid."""
    if recon.estimated_count == 0:
        return [float("inf")] * len(exact)
    centroids = recon.centroids()
    return [float(np.min(np.linalg.norm(centroids - e, axis=1))) for e in exact]
