"""Self-contained cylinder and spherical Bessel kernels.

Provides J0, J1, J2, Y0, Y1, the Hankel function H_n^(1) = J_n + i*Y_n
(n = 0, 1), and the spherical Bessel functions j0, j1, j2.  These are the
only special functions the field synthesis and the closed-form moment
oracles need, so they are implemented here directly instead of pulling in
an external special-function dependency.

Evaluation strategy
-------------------
* t < 16 : ascending power series, accumulated in extended precision
  (``numpy.longdouble``) so the alternating-series cancellation near the
  crossover does not eat into the absolute-error budget.
* t >= 16 : Hankel's expansion of H_n^(1)(t) (DLMF 10.17.5), with J_n its
  real part and Y_n its imaginary part.  Each argument stops before its
  smallest term, which bounds the remainder (DLMF 10.17(iii)): below
  1e-15 from t = 16 on, for a few dozen terms at most.  At t = 12 it is
  still about 1e-12, hence the crossover at 16.  The terms alternate
  between real and imaginary, so the recurrence runs in float64 on each
  term's nonzero part, with the roundings of the complex one (half its
  time on 1600 arguments).
* spherical j_n : closed trigonometric forms, with a short power series
  below t = 0.5 guarding against cancellation.

The series leans on ``numpy.longdouble`` being wider than double (80-bit
extended on x86-64 Linux).  Where it is plain double, the series near
t = 16 loses about three digits: J_n then errs by about 2e-11 and Y_n by
about 7e-11 on [12, 16), and the 1e-12 sweep of J_n against scipy in
``tests/test_specfun.py::test_j_against_scipy_across_domain`` fails.

Every function takes a scalar or an array of arguments through one code
path, and each element takes the operations a lone scalar would, so it
equals the scalar result bit for bit.

Arguments above t = 1e4 are rejected rather than evaluated with silently
degraded accuracy.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "T_MAX",
    "bessel_j",
    "bessel_y",
    "hankel1",
    "spherical_j",
]

# Euler-Mascheroni constant to 20 digits (enters the Y_n series).
EULER_GAMMA = 0.57721566490153286061

# Domain cap: larger arguments are rejected, not silently degraded.
T_MAX = 1.0e4

# Branch crossovers.
_SERIES_CUTOFF = 16.0
_SPHERICAL_SERIES_CUTOFF = 0.5


def _check_t(t, name: str, positive: bool = False) -> np.ndarray:
    """Arguments as a float array; the first invalid element raises ValueError."""
    t = np.asarray(t, dtype=float)
    ok = ((t > 0.0) if positive else (t >= 0.0)) & (t <= T_MAX)  # False for NaN
    if not ok.all():
        domain = f"{'0 < t' if positive else '0 <= t'} <= {T_MAX:g}"
        raise ValueError(f"{name} requires {domain}, got {float(t[~ok].flat[0])!r}")
    return t


def _check_order(order: int, allowed: tuple[int, ...], name: str) -> int:
    if order not in allowed:
        raise ValueError(f"{name} supports orders {allowed}, got {order!r}")
    return int(order)


def _branches(t: np.ndarray, series, large, cutoff: float = _SERIES_CUTOFF, dtype=float) -> np.ndarray:
    """series(t) below the cutoff, large(t) from it on, element by element."""
    flat = t.ravel()
    out = np.empty(flat.shape, dtype=dtype)
    low = flat < cutoff
    if low.any():
        out[low] = series(flat[low])
    if not low.all():
        out[~low] = large(flat[~low])
    return out.reshape(t.shape)


# ----------------------------------------------------------------------
# small-argument series (longdouble accumulation)
# ----------------------------------------------------------------------
# Each element stops summing at the first term below 1e-24, as a lone
# scalar would; the loop runs until every element has stopped.

def _j_series(n: int, t: np.ndarray) -> np.ndarray:
    x = np.asarray(t, dtype=np.longdouble) / 2
    x2 = x * x
    term = x**n / math.factorial(n)
    total = term
    live = np.ones(x.shape, dtype=bool)
    for p in range(1, 120):
        term = term * (-x2) / (p * (n + p))
        total = np.where(live, total + term, total)
        live &= abs(term) >= np.longdouble(1e-24)
        if not live.any():
            break
    return total.astype(float)


def _y0_series(t: np.ndarray) -> np.ndarray:
    x = np.asarray(t, dtype=np.longdouble) / 2
    x2 = x * x
    s = np.zeros(x.shape, dtype=np.longdouble)
    term = np.ones(x.shape, dtype=np.longdouble)  # x^(2k) / (k!)^2
    harmonic = np.longdouble(0)
    live = np.ones(x.shape, dtype=bool)
    for kk in range(1, 200):
        term = term * x2 / (kk * kk)
        harmonic += np.longdouble(1) / kk
        contrib = term * harmonic
        s = np.where(live, s + (contrib if kk % 2 == 1 else -contrib), s)
        live &= abs(contrib) >= np.longdouble(1e-24)
        if not live.any():
            break
    lead = (np.log(x) + np.longdouble(EULER_GAMMA)) * _j_series(0, t).astype(np.longdouble)
    return ((2 / np.pi) * (lead + s)).astype(float)


def _y1_series(t: np.ndarray) -> np.ndarray:
    x = np.asarray(t, dtype=np.longdouble) / 2
    x2 = x * x
    g = np.longdouble(EULER_GAMMA)
    s = np.zeros(x.shape, dtype=np.longdouble)
    term = np.ones(x.shape, dtype=np.longdouble)  # (-x^2)^k / (k! (k+1)!)
    harmonic = np.longdouble(0)  # H_k
    live = np.ones(x.shape, dtype=bool)
    for kk in range(0, 200):
        if kk > 0:
            term = term * (-x2) / (kk * (kk + 1))
            harmonic += np.longdouble(1) / kk
        # psi(k+1) + psi(k+2) = -2*gamma + 2*H_k + 1/(k+1)
        contrib = term * (-2 * g + 2 * harmonic + np.longdouble(1) / (kk + 1))
        s = np.where(live, s + contrib, s)
        if kk > 3:
            live &= abs(contrib) >= np.longdouble(1e-24)
            if not live.any():
                break
    lead = np.log(x) * _j_series(1, t).astype(np.longdouble)
    t_ld = np.asarray(t, dtype=np.longdouble)
    return ((2 / np.pi) * lead - 2 / (np.pi * t_ld) - (t_ld / (2 * np.pi)) * s).astype(float)


# ----------------------------------------------------------------------
# large-argument Hankel expansion
# ----------------------------------------------------------------------
# H_n^(1)(t) ~ sqrt(2/(pi t)) e^{i(t - n pi/2 - pi/4)} sum_k i^k a_k(n) / t^k
# (DLMF 10.17.5), with a_k(n) = a_{k-1}(n) (4n^2 - (2k-1)^2) / (8k).  For
# real t the remainder is bounded by the first neglected term (DLMF
# 10.17(iii)), so each element stops before its smallest term, or once its
# terms fall below 1e-17 of the leading one.

# e^{-i(2n+1) pi/4}, the constant part of the phase for n = 0, 1, 2
_ROOT_HALF = math.sqrt(0.5)
_HANKEL_PHASE = (complex(_ROOT_HALF, -_ROOT_HALF), complex(-_ROOT_HALF, -_ROOT_HALF),
                 complex(-_ROOT_HALF, _ROOT_HALF))


def _hankel_expansion(n: int, t: np.ndarray) -> np.ndarray:
    # i^k a_k(n) / t^k is real for even k and imaginary for odd k, so each
    # term is carried as its one nonzero part, in float64.  That part times
    # the real c_k is the nonzero part of the complex product by i c_k
    # (negated from imaginary to real), and times 1/t that of numpy's
    # complex quotient by t + 0j, so every term and every |term| is the
    # complex recurrence's bit for bit.
    total = np.zeros(t.shape, dtype=complex)
    parts = [total.real, total.imag]  # views: the even terms' sum, the odd terms'
    parts[0][...] = 1.0
    term = np.ones(t.shape)
    inv_t = 1.0 / t
    live = np.ones(t.shape, dtype=bool)
    for k in range(1, 64):
        c = (4 * n * n - (2 * k - 1) ** 2) / (8 * k)
        following = term * (c if k % 2 else -c) * inv_t
        live &= (abs(following) < abs(term)) & (abs(term) >= 1e-17)
        parts[k % 2] += following * live
        term = following
        if not live.any():
            break
    # e^{it} from cos and sin of the exact double t, not of a rounded phase
    return np.sqrt(2.0 / (np.pi * t)) * (np.cos(t) + 1j * np.sin(t)) * _HANKEL_PHASE[n] * total


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
# Each function takes a scalar or an array of arguments; an array gives an
# array of the same shape, a scalar a Python float (complex for hankel1).

def _j(n: int, t: np.ndarray) -> np.ndarray:
    return _branches(t, lambda s: _j_series(n, s), lambda s: _hankel_expansion(n, s).real)


def _y(n: int, t: np.ndarray) -> np.ndarray:
    return _branches(t, _y0_series if n == 0 else _y1_series, lambda s: _hankel_expansion(n, s).imag)


def _out(values: np.ndarray):
    return values.item() if values.ndim == 0 else values


def bessel_j(order: int, t):
    """Bessel function of the first kind J_order(t) for order in {0, 1, 2}.

    Absolute error stays below 2e-14 on [0, 1e4], and below 1e-15 from
    t = 16 on; larger arguments are rejected.
    """
    order = _check_order(order, (0, 1, 2), "bessel_j")
    return _out(_j(order, _check_t(t, "bessel_j")))


def bessel_y(order: int, t):
    """Bessel function of the second kind Y_order(t) for order in {0, 1}.

    Requires t > 0 (logarithmic singularity at the origin); absolute error
    stays below 2e-13 on [1e-3, 1e4], and below 1e-15 from t = 16 on.
    """
    order = _check_order(order, (0, 1), "bessel_y")
    return _out(_y(order, _check_t(t, "bessel_y", positive=True)))


def hankel1(order: int, t):
    """Hankel function of the first kind, H_order^(1)(t) = J + i*Y, order in {0, 1}.

    Real and imaginary parts are bessel_j and bessel_y bit for bit, with
    their error bounds; from t = 16 on both come from one expansion.
    """
    order = _check_order(order, (0, 1), "hankel1")
    t = _check_t(t, "hankel1", positive=True)
    y_series = _y0_series if order == 0 else _y1_series
    return _out(_branches(t, lambda s: _j_series(order, s) + 1j * y_series(s),
                          lambda s: _hankel_expansion(order, s), dtype=complex))


def _spherical_series(n: int, t: np.ndarray) -> np.ndarray:
    # j_n(t) = sum_p (-1)^p t^(n+2p) / (2^p p! (2n+2p+1)!!); each element
    # stops after the first term below 1e-20
    term = t**n / math.prod(range(1, 2 * n + 2, 2))
    total = term
    t2 = t * t
    live = np.ones(t.shape, dtype=bool)
    for p in range(1, 60):
        term = term * (-t2 / (2.0 * p * (2 * n + 2 * p + 1)))
        total = np.where(live, total + term, total)
        live &= abs(term) >= 1e-20
        if not live.any():
            break
    return total


def _spherical_trig(n: int, t: np.ndarray) -> np.ndarray:
    s, c = np.sin(t), np.cos(t)
    if n == 0:
        return s / t
    if n == 1:
        return s / (t * t) - c / t
    return (3.0 / t**3 - 1.0 / t) * s - 3.0 * c / (t * t)


def spherical_j(order: int, t):
    """Spherical Bessel function j_order(t) for order in {0, 1, 2}.

    Closed trigonometric forms, with a series branch below t = 0.5 that
    avoids the small-argument cancellation; absolute error below 1e-12.
    """
    order = _check_order(order, (0, 1, 2), "spherical_j")
    return _out(_branches(
        _check_t(t, "spherical_j"),
        lambda s: _spherical_series(order, s),
        lambda s: _spherical_trig(order, s),
        _SPHERICAL_SERIES_CUTOFF,
    ))
