"""Special-function kernels against independent oracles.

The reference values here come from three routes that share no code with
the implementation: plain power series summed with math.fsum, scipy.special,
and bisection on the series oracle for the zero locations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from heliodsm.specfun import (
    _HANKEL_PHASE,
    EULER_GAMMA,
    T_MAX,
    _hankel_expansion,
    bessel_j,
    bessel_y,
    hankel1,
    spherical_j,
)


# ----------------------------------------------------------------------
# independent series oracle (test-local, fsum-based)
# ----------------------------------------------------------------------

def series_j(n: int, t: float, terms: int = 80) -> float:
    vals = []
    term = (t / 2.0) ** n / math.factorial(n)
    for p in range(terms):
        vals.append(term)
        term *= -(t * t / 4.0) / ((p + 1) * (n + p + 1))
    return math.fsum(vals)


def series_y0(t: float, terms: int = 80) -> float:
    acc = []
    term = 1.0
    harmonic = 0.0
    for k in range(1, terms):
        term *= (t * t / 4.0) / (k * k)
        harmonic += 1.0 / k
        acc.append(term * harmonic * (1 if k % 2 == 1 else -1))
    return (2.0 / math.pi) * ((math.log(t / 2.0) + EULER_GAMMA) * series_j(0, t) + math.fsum(acc))


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_j_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(2, 0.0) == 0.0


def test_first_zero_of_j0_from_series_oracle():
    zero = bisect(lambda t: series_j(0, t), 2.0, 3.0)
    assert zero == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j(0, zero)) < 1e-10


def test_first_zero_of_y0_from_series_oracle():
    zero = bisect(series_y0, 0.5, 1.5)
    assert zero == pytest.approx(0.893576966279167, abs=1e-10)
    assert abs(bessel_y(0, zero)) < 1e-9


def test_y0_log_divergence_near_origin():
    assert bessel_y(0, 1e-6) < -8.0


@pytest.mark.parametrize("order", [0, 1, 2])
def test_j_against_scipy_across_domain(order):
    ts = np.concatenate([np.linspace(1e-6, 15.99, 211), np.linspace(16.0, 200.0, 211)])
    worst = max(abs(bessel_j(order, t) - special.jv(order, t)) for t in ts)
    assert worst < 1e-12


@pytest.mark.parametrize("order", [0, 1])
def test_y_against_scipy_across_domain(order):
    ts = np.concatenate([np.linspace(1e-3, 15.99, 211), np.linspace(16.0, 200.0, 211)])
    worst = max(abs(bessel_y(order, t) - special.yn(order, t)) for t in ts)
    assert worst < 1e-10


def test_beyond_standard_range_stays_accurate():
    for t in (250.0, 1000.0, 9999.0):
        assert bessel_j(0, t) == pytest.approx(special.jv(0, t), abs=1e-11)
        assert bessel_y(1, t) == pytest.approx(special.yn(1, t), abs=1e-11)


def test_hankel_definition_and_series_crosscheck():
    t = 1.0
    h = hankel1(1, t)
    assert h.real == pytest.approx(series_j(1, t), abs=1e-10)
    assert h.imag == pytest.approx(special.yn(1, t), abs=1e-10)
    assert hankel1(0, 7.3) == complex(bessel_j(0, 7.3), bessel_y(0, 7.3))


def test_hankel_modulus_asymptotics():
    # |H_0(t)| * sqrt(t) -> sqrt(2/pi), within 1% at t = 500
    value = abs(hankel1(0, 500.0)) * math.sqrt(500.0)
    assert value == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-2)


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_wronskian(t):
    w = bessel_j(1, t) * bessel_y(0, t) - bessel_j(0, t) * bessel_y(1, t)
    assert abs(w - 2.0 / (math.pi * t)) < 1e-10


@given(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True))
@settings(max_examples=200, deadline=None)
def test_small_argument_bounds(t):
    # near t = 0 the order-0 margins are O(t^6), below one ulp of 1.0, so
    # the upper bounds are checked at the acceptance tolerance
    eps = 1e-12
    assert 0.0 < bessel_j(0, t) < 1.0 - t * t / 4.0 + t**4 / 64.0 + eps
    assert 0.0 < bessel_j(1, t) < t / 2.0
    assert 0.0 < bessel_j(2, t) < t * t / 8.0
    assert 0.0 < spherical_j(0, t) < 1.0 - t * t / 6.0 + t**4 / 120.0 + eps
    assert 0.0 < spherical_j(1, t) < t / 3.0
    assert 0.0 < spherical_j(2, t) < t * t / 15.0


@given(st.floats(min_value=0.5, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_recurrence(t):
    assert abs(bessel_j(2, t) - (2.0 / t * bessel_j(1, t) - bessel_j(0, t))) < 1e-10


def test_spherical_values():
    assert spherical_j(0, 0.0) == 1.0
    assert spherical_j(1, 0.0) == 0.0
    assert spherical_j(2, 0.0) == 0.0
    assert spherical_j(0, math.pi) == pytest.approx(0.0, abs=1e-14)
    ts = np.linspace(1e-6, 60.0, 400)
    for order in (0, 1, 2):
        worst = max(abs(spherical_j(order, t) - special.spherical_jn(order, t)) for t in ts)
        assert worst < 1e-12


def test_spherical_series_branch_agreement():
    # crossing the series/closed-form switch at t = 0.5 is seamless
    for order in (0, 1, 2):
        for t in np.linspace(0.3, 0.7, 41):
            assert spherical_j(order, t) == pytest.approx(
                special.spherical_jn(order, t), abs=1e-14
            )


def test_domain_rejections():
    with pytest.raises(ValueError):
        bessel_j(0, -1.0)
    with pytest.raises(ValueError):
        bessel_j(3, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, math.nan)
    with pytest.raises(ValueError):
        bessel_j(0, T_MAX * 1.01)
    with pytest.raises(ValueError):
        bessel_y(0, 0.0)
    with pytest.raises(ValueError):
        bessel_y(0, -2.0)
    with pytest.raises(ValueError):
        bessel_y(2, 1.0)
    with pytest.raises(ValueError):
        hankel1(0, 0.0)
    with pytest.raises(ValueError):
        spherical_j(0, math.inf)


def test_outputs_finite_on_valid_domain():
    for t in (1e-3, 0.3, 11.999, 12.0, 15.999, 16.0, 57.0, 200.0):
        for order in (0, 1, 2):
            assert math.isfinite(bessel_j(order, t))
            assert math.isfinite(spherical_j(order, t))
        for order in (0, 1):
            assert math.isfinite(bessel_y(order, t))
            h = hankel1(order, t)
            assert math.isfinite(h.real) and math.isfinite(h.imag)


# ----------------------------------------------------------------------
# array arguments
# ----------------------------------------------------------------------

# Both sides of the t = 16 crossover (and of spherical_j's t = 0.5), large
# arguments whose expansions stop after different numbers of terms, and
# repeated values inside one batch.
ARRAY_ARGS = np.concatenate([
    np.linspace(1e-3, 11.999, 37),
    np.linspace(11.9, 12.1, 21),
    np.linspace(15.9, 16.1, 21),
    np.linspace(12.0, 400.0, 53),
    [2500.5, 9999.0, 3.3, 3.3, 57.0, 57.0],
])


@pytest.mark.parametrize(
    "fn, order",
    [(bessel_j, 0), (bessel_j, 1), (bessel_j, 2), (bessel_y, 0), (bessel_y, 1), (hankel1, 0), (hankel1, 1),
     (spherical_j, 0), (spherical_j, 1), (spherical_j, 2)],
)
def test_array_equals_scalar_bitwise(fn, order):
    ts = np.random.default_rng(order).permutation(ARRAY_ARGS)
    values = fn(order, ts)
    scalars = np.array([fn(order, float(t)) for t in ts])
    assert values.dtype == scalars.dtype
    assert values.tobytes() == scalars.tobytes()
    # a scalar argument still gives a Python scalar
    expected = complex if fn is hankel1 else float
    assert type(fn(order, 12.5)) is expected and type(fn(order, np.float64(3.0))) is expected


@pytest.mark.parametrize("order", [0, 1])
def test_hankel_parts_are_j_and_y_bitwise_on_arrays(order):
    # across the t = 16 crossover, where both parts come from one expansion
    h = hankel1(order, ARRAY_ARGS)
    assert h.real.tobytes() == bessel_j(order, ARRAY_ARGS).tobytes()
    assert h.imag.tobytes() == bessel_y(order, ARRAY_ARGS).tobytes()


def test_array_shape_is_kept():
    ts = ARRAY_ARGS[:24].reshape(2, 3, 4)
    for fn in (bessel_j, bessel_y, hankel1, spherical_j):
        values = fn(1, ts)
        assert values.shape == ts.shape
        assert values[1, 2, 3] == fn(1, float(ts[1, 2, 3]))
    assert bessel_j(0, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("bad", [-1.0, math.nan, T_MAX * 1.01, 0.0])
def test_one_invalid_element_rejects_the_array(bad):
    ts = np.array([0.5, 20.0, bad, 3.0])
    for fn in (bessel_y, hankel1):
        with pytest.raises(ValueError):
            fn(0, ts)
    if bad != 0.0:
        with pytest.raises(ValueError):
            bessel_j(0, ts)
    else:
        assert bessel_j(0, ts)[2] == 1.0


def _complex_hankel_expansion(n: int, t: np.ndarray) -> np.ndarray:
    """Hankel's expansion as a complex recurrence on i^k a_k(n) / t^k, the
    form `_hankel_expansion` carries in real arithmetic."""
    term = np.ones(t.shape, dtype=complex)
    total = term
    live = np.ones(t.shape, dtype=bool)
    for k in range(1, 64):
        following = term * (1j * (4 * n * n - (2 * k - 1) ** 2) / (8 * k)) / t
        live &= (abs(following) < abs(term)) & (abs(term) >= 1e-17)
        total = np.where(live, total + following, total)
        term = following
        if not live.any():
            break
    return np.sqrt(2.0 / (np.pi * t)) * (np.cos(t) + 1j * np.sin(t)) * _HANKEL_PHASE[n] * total


@pytest.mark.parametrize("n", [0, 1, 2])
def test_real_hankel_recurrence_is_the_complex_one_bitwise(n):
    rng = np.random.default_rng(n)
    ts = np.concatenate([
        [16.0, np.nextafter(16.0, 17.0), T_MAX],
        np.linspace(16.0, T_MAX, 20001),
        16.0 + 84.0 * rng.random(20000),  # the slow-converging end, where most terms are kept
        np.exp(rng.uniform(math.log(16.0), math.log(T_MAX), 20000)),
    ])
    assert _hankel_expansion(n, ts).tobytes() == _complex_hankel_expansion(n, ts).tobytes()
