import itertools
import math
import tracemalloc

import numpy as np
import pytest

from heliodsm.forward import CauchyData, PointSource
from heliodsm.geometry import (
    DirectionSet,
    MeasurementSurface,
    circle_directions,
    circle_surface,
    make_grid,
    sphere_directions,
    sphere_surface,
)
from heliodsm.indicators import IndicatorField, ReducedData, moment
from heliodsm.locator import Peak, PeakGroup


def test_circle_directions_small():
    d = circle_directions(4)
    expected = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(d.nodes, expected, atol=1e-15)
    assert np.allclose(d.weights, math.pi / 2)


def test_circle_weight_sum_and_unit_nodes():
    d = circle_directions(257)
    assert abs(d.weights.sum() - 2 * math.pi) < 1e-12
    assert np.max(np.abs(np.linalg.norm(d.nodes, axis=1) - 1.0)) < 1e-14


def test_circle_trig_polynomial_exactness():
    # trapezoid kills e^{i m theta} for 0 < |m| < count
    d = circle_directions(64)
    theta = np.arctan2(d.nodes[:, 1], d.nodes[:, 0])
    for m in (1, 2, 7, 31, 63):
        val = np.sum(d.weights * np.exp(1j * m * theta))
        assert abs(val) < 1e-13


def test_circle_monomial_quadrature_matches_closed_form():
    d = circle_directions(256)
    val = np.sum(d.weights * d.nodes[:, 0] ** 2)
    assert abs(val - math.pi) < 1e-13  # closed form of the d1^2 moment at z = 0
    assert abs(val - moment(1, 1, [0.0, 0.0], 1.0).real) < 1e-13


def test_sphere_directions_counts_and_sum():
    d = sphere_directions(42, 43)
    assert len(d) == 1806
    assert abs(d.weights.sum() - 4 * math.pi) < 1e-12
    assert np.max(np.abs(np.linalg.norm(d.nodes, axis=1) - 1.0)) < 1e-14


def test_sphere_directions_built_once_and_bitwise_equal_to_a_fresh_build():
    d = sphere_directions(42, 43)
    fresh = sphere_directions.__wrapped__(42, 43)
    assert sphere_directions(42, 43) is d
    assert d.nodes.tobytes() == fresh.nodes.tobytes()
    assert d.weights.tobytes() == fresh.weights.tobytes()
    assert not d.nodes.flags.writeable and not d.weights.flags.writeable


@pytest.mark.parametrize("build, args", [(circle_directions, (256,)), (circle_surface, (5.0, 200)),
                                         (sphere_surface, (5.0, 42, 43))])
def test_circle_rules_and_surfaces_are_built_once(build, args):
    # a request asks for its rules several times; all get one read-only build
    held = build(*args)
    fresh = build.__wrapped__(*args)
    assert build(*args) is held
    arrays = [(name, getattr(held, name)) for name in ("nodes", "weights", "points", "normals") if hasattr(held, name)]
    assert arrays
    for name, a in arrays:
        assert a.tobytes() == getattr(fresh, name).tobytes()
        assert not a.flags.writeable


def test_sphere_monomial_quadrature_matches_closed_forms():
    d = sphere_directions(6, 8)
    z0 = [0.0, 0.0, 0.0]
    for p in range(4):
        for q in range(p, 4):
            mono = np.ones(len(d))
            if p > 0:
                mono = mono * d.nodes[:, p - 1]
            if q > 0:
                mono = mono * d.nodes[:, q - 1]
            val = np.sum(d.weights * mono)
            assert abs(val - moment(p, q, z0, 1.0)) < 1e-12


def test_sphere_d3_squared():
    d = sphere_directions(42, 43)
    val = np.sum(d.weights * d.nodes[:, 2] ** 2)
    assert abs(val - 4 * math.pi / 3) < 1e-12


def test_circle_surface_example_setup():
    s = circle_surface(6.0, 200)
    assert len(s) == 200
    assert np.max(np.abs(np.linalg.norm(s.points, axis=1) - 6.0)) < 1e-12
    assert abs(s.weights.sum() - 2 * math.pi * 6.0) < 1e-10
    assert np.allclose(np.einsum("ij,ij->i", s.points, s.normals), 6.0, atol=1e-12)


def test_sphere_surface_example_setup():
    s = sphere_surface(6.0, 42, 43)
    assert len(s) == 1806
    assert abs(s.weights.sum() - 4 * math.pi * 36.0) < 1e-8
    assert np.allclose(np.einsum("ij,ij->i", s.points, s.normals), 6.0, atol=1e-12)


def test_grid_ordering_first_axis_fastest():
    g = make_grid([0.0, 10.0], [1.0, 12.0], [3, 2])
    assert len(g) == 6
    expected = np.array(
        [[0.0, 10.0], [0.5, 10.0], [1.0, 10.0], [0.0, 12.0], [0.5, 12.0], [1.0, 12.0]]
    )
    assert np.array_equal(g.points, expected)
    assert g.spacing == (0.5, 2.0)


@pytest.mark.parametrize(
    "lower, upper, counts",
    [([-4.1, -3.3], [4.2, 2.9], [12, 11]), ([-1.7, -2.0, -0.3], [1.1, 2.5, 3.9], [7, 6, 5])],
)
def test_grid_points_are_product_of_axes_first_axis_fastest(lower, upper, counts):
    # io.write_indicator_csv formats axes() values in place of points rows
    g = make_grid(lower, upper, counts)
    axes = g.axes()
    expected = np.array(
        [
            [axes[a][i] for a, i in enumerate(reversed(idx))]
            for idx in itertools.product(*(range(c) for c in reversed(counts)))
        ]
    )
    assert g.points.shape == expected.shape
    assert g.points.tobytes() == expected.tobytes()


def test_grid_two_point_corners():
    g = make_grid([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0], [2, 2, 2])
    corners = {tuple(p) for p in g.points}
    assert len(corners) == 8
    assert all(abs(x) == 1.0 for p in corners for x in p)


def test_grid_determinism():
    a = make_grid([-3, -3, -3], [3, 3, 3], [7, 5, 6])
    b = make_grid([-3, -3, -3], [3, 3, 3], [7, 5, 6])
    assert np.array_equal(a.points, b.points)


def test_grids_compare_and_hash_by_box_and_counts():
    a = make_grid([-3, -3, -3], [3, 3, 3], [7, 5, 6])
    b = make_grid([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0], [7, 5, 6])
    assert a == b
    assert hash(a) == hash(b)
    for other in (make_grid([-3, -3, -3], [3, 3, 3], [7, 5, 7]),
                  make_grid([-3, -3, -3], [3, 3, 4], [7, 5, 6]),
                  make_grid([-3, -3, -2], [3, 3, 3], [7, 5, 6]),
                  make_grid([-3, -3], [3, 3], [7, 5])):
        assert a != other
        assert hash(a) != hash(other)
    assert len({a: 1, b: 2}) == 1


def test_make_grid_builds_no_point_array():
    # a 60^3 point array alone would be 5.2 MB
    tracemalloc.start()
    try:
        g = make_grid([-3, -3, -3], [3, 3, 3], [60, 60, 60])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g) == 216000
    assert peak < 1e6


def test_paper_scale_grids():
    assert len(make_grid([-4, -4], [4, 4], [100, 100])) == 10000
    assert len(make_grid([-3, -3, -3], [3, 3, 3], [30, 30, 30])) == 27000


def test_validation_errors():
    with pytest.raises(ValueError):
        circle_directions(3)
    with pytest.raises(ValueError):
        sphere_directions(1, 8)
    with pytest.raises(ValueError):
        sphere_directions(8, 3)
    with pytest.raises(ValueError):
        circle_surface(-1.0, 200)
    with pytest.raises(ValueError):
        circle_surface(1.0, 4)
    with pytest.raises(ValueError):
        sphere_surface(0.0, 42, 43)
    with pytest.raises(ValueError):
        make_grid([0, 0], [1, 1], [1, 5])
    with pytest.raises(ValueError):
        make_grid([0, 0], [0, 1], [5, 5])
    arrays, rest = _value_object_arrays(MeasurementSurface)
    for radius in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be positive"):
            MeasurementSurface(**arrays, **{**rest, "radius": radius})
    for lower, upper in (([math.nan, 0], [1, 1]), ([0, 0], [math.inf, 1]), ([-math.inf, 0], [1, 1])):
        with pytest.raises(ValueError, match="strictly below"):
            make_grid(lower, upper, [4, 4])


def test_immutability():
    d = circle_directions(8)
    with pytest.raises(ValueError):
        d.nodes[0, 0] = 5.0
    g = make_grid([0, 0], [1, 1], [4, 4])
    with pytest.raises(ValueError):
        g.points[0, 0] = 9.0


def _value_object_arrays(cls):
    """Fresh writable arguments for one value object: (array kwargs, other kwargs)."""
    nodes = np.array(circle_directions(8).nodes)
    z = np.array([0.25, 0.5])
    peak = Peak(location=z.copy(), component=0, magnitude=1.0, grid_index=0)
    return {
        DirectionSet: ({"nodes": nodes, "weights": np.full(8, math.pi / 4)}, {"dims": 2}),
        MeasurementSurface: (
            {"points": 2.0 * nodes, "normals": nodes, "weights": np.full(8, math.pi / 2)},
            {"dims": 2, "radius": 2.0},
        ),
        PointSource: ({"location": z, "vector_intensity": np.array([1.0 + 0j, 2j])}, {}),
        CauchyData: (
            {"dirichlet": np.ones(8, complex), "neumann": np.full(8, 1j)},
            {"surface": circle_surface(2.0, 8)},
        ),
        ReducedData: ({"values": np.ones(8, complex)}, {"directions": circle_directions(8)}),
        IndicatorField: ({"values": np.ones(4, complex)}, {"grid": make_grid([0, 0], [1, 1], [2, 2]), "component": 0}),
        Peak: ({"location": z}, {"component": 0, "magnitude": 1.0, "grid_index": 0}),
        PeakGroup: ({"centroid": z, "eta_estimate": np.array([1.0 + 0j, 2j])}, {"members": (peak,)}),
    }[cls]


@pytest.mark.parametrize("cls", [DirectionSet, MeasurementSurface, PointSource, CauchyData,
                                 ReducedData, IndicatorField, Peak, PeakGroup], ids=lambda c: c.__name__)
def test_value_objects_hold_private_copies_of_their_arrays(cls):
    arrays, rest = _value_object_arrays(cls)
    obj = cls(**arrays, **rest)
    for name, given in arrays.items():
        held = getattr(obj, name)
        before = held.copy()
        assert given.flags.writeable
        assert not held.flags.writeable
        assert not np.shares_memory(given, held)
        given *= -1.0
        assert np.array_equal(getattr(obj, name), before)


@pytest.mark.parametrize("cls, name", [(DirectionSet, "nodes"), (DirectionSet, "weights"),
                                       (MeasurementSurface, "points"), (MeasurementSurface, "normals"),
                                       (MeasurementSurface, "weights")])
def test_rules_and_surfaces_reject_nan_entries(cls, name):
    arrays, rest = _value_object_arrays(cls)
    arrays[name][..., 0] = math.nan
    with pytest.raises(ValueError, match="must be finite"):
        cls(**arrays, **rest)
