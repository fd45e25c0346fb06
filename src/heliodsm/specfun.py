"""Self-contained cylinder and spherical Bessel kernels.

Provides J0, J1, J2, Y0, Y1, the Hankel function H_n^(1) = J_n + i*Y_n
(n = 0, 1), and the spherical Bessel functions j0, j1, j2.  These are the
only special functions the field synthesis and the closed-form moment
oracles need, so they are implemented here directly instead of pulling in
an external special-function dependency.

Evaluation strategy
-------------------
* t < 12 : ascending power series, accumulated in extended precision
  (``numpy.longdouble``) so the alternating-series cancellation near the
  crossover does not eat into the absolute-error budget.
* t >= 12 : integral representations evaluated with spectrally accurate
  quadrature.  For J_n the full-period trapezoidal sum of the Bessel
  integral is exact up to an aliasing term J_{M-n}(t), which is driven
  below 1e-14 by choosing the node count M from t.  For Y_n the standard
  oscillatory + monotone-tail split is integrated with composite
  Gauss-Legendre panels.
* spherical j_n : closed trigonometric forms, with a short power series
  below t = 0.5 guarding against cancellation.

Every function takes a scalar or an array of arguments through one code
path, and each element takes the operations a lone scalar would, so it
equals the scalar result bit for bit.

Arguments above t = 1e4 are rejected rather than evaluated with silently
degraded accuracy.  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
_SERIES_CUTOFF = 12.0
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


def _branches(t: np.ndarray, series, integral, cutoff: float = _SERIES_CUTOFF) -> np.ndarray:
    """series(t) below the cutoff, integral(t) from it on, element by element."""
    flat = t.ravel()
    out = np.empty(flat.shape)
    low = flat < cutoff
    if low.any():
        out[low] = series(flat[low])
    if not low.all():
        out[~low] = integral(flat[~low])
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
# large-argument integral representations
# ----------------------------------------------------------------------
# Node counts are chosen per argument, so arguments are grouped by count
# and each group is integrated in row blocks of at most _BLOCK nodes; a
# row sum is then the same sum a lone argument would take.

_BLOCK = 1 << 16


def _grouped(t: np.ndarray, node_counts: list[int], rows_fn) -> np.ndarray:
    """rows_fn(nodes, t[block]) over blocks of arguments with equal node counts."""
    groups: dict[int, list[int]] = {}
    for i, nodes in enumerate(node_counts):
        groups.setdefault(nodes, []).append(i)
    out = np.empty(t.shape)
    for nodes, idx in groups.items():
        step = max(1, _BLOCK // nodes)
        for i in range(0, len(idx), step):
            sel = idx[i : i + step]
            out[sel] = rows_fn(nodes, t[sel])
    return out


@lru_cache(maxsize=64)
def _trapezoid_angles(node_count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(node_count) / node_count


def _j_node_count(t: float) -> int:
    # Aliasing error of the full-period trapezoid sum is ~|J_{M-n}(t)|,
    # superexponentially small once M - t outruns the Airy transition width.
    return int(2 * math.ceil((t + 60.0 + 10.0 * t ** (1.0 / 3.0)) / 2.0))


def _j_integral(n: int, t: np.ndarray) -> np.ndarray:
    def rows(node_count, tb):
        theta = _trapezoid_angles(node_count)
        phase = tb[:, None] * np.sin(theta) - n * theta
        return np.sum(np.cos(phase), axis=1) / node_count

    return _grouped(t, [_j_node_count(v) for v in t.tolist()], rows)


@lru_cache(maxsize=8)
def _gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _y_panel_rule(panels: int) -> tuple[np.ndarray, np.ndarray]:
    # composite 16-point Gauss panels on [0, pi]
    xg, wg = _gauss_nodes(16)
    edges = np.linspace(0.0, np.pi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    theta = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weight = (half[:, None] * wg[None, :]).ravel()
    return theta, weight


def _y_integral(n: int, t: np.ndarray) -> np.ndarray:
    xg2, wg2 = _gauss_nodes(64)

    def rows(nodes, tb):
        # Oscillatory part: (1/pi) * int_0^pi sin(t sin(theta) - n theta) dtheta,
        # on panels sized to a few oscillations each.
        theta, weight = _y_panel_rule(nodes // 16)
        oscillatory = np.sum(weight * np.sin(tb[:, None] * np.sin(theta) - n * theta), axis=1) / np.pi

        # Monotone tail: (1/pi) * int_0^inf (e^{n tau} + (-1)^n e^{-n tau})
        # e^{-t sinh tau} dtau, truncated where the decay hits e^{-60}.
        # math.asinh, as for a lone argument: numpy's arcsinh may round differently.
        half_max = 0.5 * np.array([math.asinh(60.0 / v) for v in tb.tolist()])[:, None]
        tau = half_max * (xg2 + 1.0)
        wt = half_max * wg2
        tail = (np.exp(n * tau) + (-1) ** n * np.exp(-n * tau)) * np.exp(-tb[:, None] * np.sinh(tau))
        return oscillatory - np.sum(wt * tail, axis=1) / np.pi

    return _grouped(t, [16 * max(4, math.ceil(v / 3.0)) for v in t.tolist()], rows)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
# Each function takes a scalar or an array of arguments; an array gives an
# array of the same shape, a scalar a Python float (complex for hankel1).

def _j(n: int, t: np.ndarray) -> np.ndarray:
    return _branches(t, lambda s: _j_series(n, s), lambda s: _j_integral(n, s))


def _y(n: int, t: np.ndarray) -> np.ndarray:
    return _branches(t, _y0_series if n == 0 else _y1_series, lambda s: _y_integral(n, s))


def _out(values: np.ndarray):
    return values.item() if values.ndim == 0 else values


def bessel_j(order: int, t):
    """Bessel function of the first kind J_order(t) for order in {0, 1, 2}.

    Absolute error stays below 1e-12 on [0, 200]; arguments up to 1e4 are
    accepted, larger ones rejected.
    """
    order = _check_order(order, (0, 1, 2), "bessel_j")
    return _out(_j(order, _check_t(t, "bessel_j")))


def bessel_y(order: int, t):
    """Bessel function of the second kind Y_order(t) for order in {0, 1}.

    Requires t > 0 (logarithmic singularity at the origin); absolute error
    stays below 1e-10 on [1e-3, 200].
    """
    order = _check_order(order, (0, 1), "bessel_y")
    return _out(_y(order, _check_t(t, "bessel_y", positive=True)))


def hankel1(order: int, t):
    """Hankel function of the first kind, H_order^(1)(t) = J + i*Y, order in {0, 1}."""
    order = _check_order(order, (0, 1), "hankel1")
    t = _check_t(t, "hankel1", positive=True)
    return _out(_j(order, t) + 1j * _y(order, t))


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
