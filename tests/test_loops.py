import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import convex_polygons, norm_split_counts, rect_sigma_closed_form, regular_polygon
from hologate import kicked, loops
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

HADAMARD_RECT = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
PLANE3_RECT = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))


def loop_round_trip(loop: LoopSpec) -> LoopSpec:
    """The loop through JSON text as the CLI takes it: loop_to_dict out, loop_from_dict in."""
    return loops.loop_from_dict(json.loads(json.dumps(loops.loop_to_dict(loop))))


def rect_as_polyline(loop: LoopSpec) -> LoopSpec:
    return LoopSpec(loop.plane, Polyline(loop.shape.vertices_ccw()), loop.orientation)


def dblquad_area(plane: PlaneId, verts) -> float:
    """Independent reference: adaptive 2-D quadrature of the weight over a fan of triangles.

    Exact for convex polygons; returns the unsigned weighted area.
    """
    if plane is PlaneId.III:
        weight = lambda u, v: 2.0 * math.sinh(2.0 * u)
    else:
        weight = lambda u, v: 2.0 * math.exp(-2.0 * v)
    a = np.asarray(verts[0], dtype=float)
    total = 0.0
    for b, c in zip(verts[1:-1], verts[2:]):
        e1 = np.asarray(b) - a
        e2 = np.asarray(c) - a
        jac = abs(e1[0] * e2[1] - e1[1] * e2[0])

        def integrand(eta, xi):
            p = a + xi * e1 + eta * e2
            return weight(p[0], p[1])

        value, _ = integrate.dblquad(
            integrand, 0.0, 1.0, 0.0, lambda xi: 1.0 - xi, epsabs=1e-15, epsrel=1e-13
        )
        total += jac * value
    return total


def test_weight_values():
    assert loops.weight(PlaneId.I, (0.3, 0.0)) == pytest.approx(2.0)
    assert loops.weight(PlaneId.III, (0.0, 0.2)) == 0.0
    assert loops.weight(PlaneId.II, (0.1, math.log(2.0))) == pytest.approx(0.5)


def test_weight_rejects_negative_amplitude():
    with pytest.raises(ValueError):
        loops.weight(PlaneId.I, (0.0, -0.1))
    with pytest.raises(ValueError):
        loops.weight(PlaneId.III, (-0.1, 0.0))


def test_reference_rectangle_closed_forms():
    assert loops.area(HADAMARD_RECT).sigma == pytest.approx(3.0 * math.pi / 16.0, abs=1e-14)
    assert loops.area(PLANE3_RECT).sigma == pytest.approx(3.0 * math.pi / 4.0, abs=1e-13)


def test_zero_width_region_has_zero_area():
    # a rectangle collapsed to zero width is only expressible as a degenerate
    # polyline; the Rect type itself requires strictly positive extent
    flat = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.0, 0.4), (0.0, 0.2))))
    assert loops.area(flat).sigma == 0.0
    with pytest.raises(ValueError):
        Rect(0.3, 0.3, 0.0, 1.0)


def test_line_integral_zero_for_back_and_forth_path():
    flat = LoopSpec(PlaneId.II, Polyline(((0.0, 0.1), (0.5, 0.1), (0.25, 0.1))))
    assert loops.area(flat).sigma == 0.0


# a unit-by-0.5 square at x = 1e7 and a 1e-8 square, which used to read sigma = 0
@pytest.mark.parametrize("rect", [Rect(1e7, 1e7 + 1.0, 0.1, 0.6), Rect(0.0, 1e-8, 0.1, 0.1 + 1e-8)],
                         ids=["far", "tiny"])
@pytest.mark.parametrize("orientation", [1, -1])
def test_far_and_tiny_polylines_read_their_rects_sigma(rect, orientation):
    expected = loops.area(LoopSpec(PlaneId.I, rect, orientation))
    corners = rect.vertices_ccw()
    for verts in (corners, corners[::-1]):
        got = loops.area(LoopSpec(PlaneId.I, Polyline(verts), orientation)).sigma
        assert got != 0.0
        assert abs(got - expected.sigma) <= expected.abs_error_estimate


@pytest.mark.parametrize("offset", [(0.0, 0.0), (3.3, 7.7), (1e7, 0.0), (0.0, 1e3), (1e7, 1e3)])
@pytest.mark.parametrize("plane", list(PlaneId))
def test_collinear_back_and_forth_paths_read_zero_near_and_far(plane, offset):
    path = np.array([(0.0, 0.1), (0.5, 0.3), (0.25, 0.2)]) + offset
    loop = LoopSpec(plane, Polyline(tuple(map(tuple, path))))
    assert loops.is_degenerate(loop)
    assert loops.area(loop).sigma == 0.0


@pytest.mark.parametrize("plane", list(PlaneId))
def test_quadrature_matches_closed_form_on_random_rects(plane):
    rng = np.random.default_rng(42)
    for _ in range(25):
        u0, v0 = rng.uniform(0.0, 1.5, size=2)
        du, dv = rng.uniform(0.05, 0.5, size=2)
        rect_loop = LoopSpec(plane, Rect(u0, u0 + du, v0, v0 + dv))
        exact = rect_sigma_closed_form(plane, rect_loop.shape)
        result = loops.area(rect_as_polyline(rect_loop))
        assert result.method == "edge_antiderivative"
        assert abs(result.sigma - exact) < 1e-12 * max(abs(exact), 1e-3)
        assert result.abs_error_estimate < 1e-14 * max(abs(exact), 1.0)


@pytest.mark.parametrize("plane", [PlaneId.I, PlaneId.III])
def test_thin_rects_keep_full_relative_accuracy(plane):
    # the long edges of a thin rect carry nearly equal terms; without the constant
    # part of the weight's antiderivative they do not cancel
    thin = 1e-3
    for length in np.linspace(1e-3, 5.0, 200):
        length = float(length)
        if plane is PlaneId.III:
            loop = LoopSpec(plane, Rect(0.0, thin, 0.0, length))
            exact = 2.0 * length * math.sinh(thin) ** 2
        else:
            loop = LoopSpec(plane, Rect(0.0, length, 0.0, thin))
            exact = -length * math.expm1(-2.0 * thin)
        assert abs(loops.area(loop).sigma - exact) <= 1e-15 * exact


def test_line_integral_matches_closed_form():
    assert abs(loops.area(rect_as_polyline(HADAMARD_RECT)).sigma - 3.0 * math.pi / 16.0) < 1e-14


def _random_convex_polyline(rng, plane, n_vertices):
    # convex hull of points on a randomized ellipse, kept inside the plane domain
    angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=n_vertices))
    cx, cy = rng.uniform(0.8, 1.2, size=2)
    rx, ry = rng.uniform(0.2, 0.6, size=2)
    verts = tuple(
        (cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles
    )
    return LoopSpec(plane, Polyline(verts))


@pytest.mark.parametrize("plane", [PlaneId.I, PlaneId.III])
def test_quadrature_matches_line_integral_on_convex_polylines(plane):
    rng = np.random.default_rng(7)
    for n_vertices in (4, 7, 12):
        loop = _random_convex_polyline(rng, plane, n_vertices)
        sigma = loops.area(loop).sigma
        reference = dblquad_area(plane, loop.shape.vertices)
        assert abs(sigma - reference) < 1e-10 * max(abs(reference), 1e-6)


@pytest.mark.parametrize("du", [1e-9, 1e-11, 1e-13])
def test_plane3_near_vertical_edge_does_not_cancel(du):
    # the direct quotient (sinh 2u1 - sinh 2u0) / (2 du) cancels here, by up to 8e-6
    triangle = ((1.0, 0.0), (1.0 + du, 0.3), (1.3, 0.15))
    sigma = loops.area(LoopSpec(PlaneId.III, Polyline(triangle))).sigma
    assert abs(sigma - dblquad_area(PlaneId.III, triangle)) < 1e-13


def test_orientation_reversal_negates_sigma_exactly():
    rect = HADAMARD_RECT
    sigma = loops.area(rect).sigma
    assert loops.area(LoopSpec(rect.plane, rect.shape, -rect.orientation)).sigma == -sigma


def test_line_integral_orientation_antisymmetry():
    loop = rect_as_polyline(PLANE3_RECT)
    forward = loops.area(loop).sigma
    backward = loops.area(LoopSpec(loop.plane, loop.shape, -loop.orientation)).sigma
    assert backward == -forward


ANGLES = st.lists(
    st.floats(0.0, 2.0 * math.pi, exclude_max=True), min_size=3, max_size=10, unique=True
)


@settings(max_examples=60, deadline=None)
@given(
    plane=st.sampled_from(list(PlaneId)),
    angles=ANGLES,
    center=st.tuples(st.floats(0.7, 1.5), st.floats(0.7, 1.5)),
    radii=st.tuples(st.floats(0.05, 0.6), st.floats(0.05, 0.6)),
)
def test_reversal_negates_convex_polylines_exactly(plane, angles, center, radii):
    verts = tuple(
        (center[0] + radii[0] * math.cos(t), center[1] + radii[1] * math.sin(t))
        for t in sorted(angles)
    )
    if len(set(verts)) < len(verts):
        return  # angles too close to give distinct vertices
    forward = loops.area(LoopSpec(plane, Polyline(verts))).sigma
    assert loops.area(LoopSpec(plane, Polyline(verts), -1)).sigma == -forward


@settings(max_examples=60, deadline=None)
@given(
    plane=st.sampled_from(list(PlaneId)),
    corner=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
    sides=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
    orientation=st.sampled_from([1, -1]),
)
def test_rect_area_equals_area_of_its_polyline(plane, corner, sides, orientation):
    u0, v0 = corner
    rect_loop = LoopSpec(plane, Rect(u0, u0 + sides[0], v0, v0 + sides[1]), orientation)
    sigma = loops.area(rect_loop).sigma
    polyline_sigma = loops.area(rect_as_polyline(rect_loop)).sigma
    assert abs(polyline_sigma - sigma) <= 1e-13 * max(abs(sigma), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    plane=st.sampled_from(list(PlaneId)),
    corner=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
    sides=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
    cut=st.floats(0.05, 0.95),
    along_u=st.booleans(),
    orientation=st.sampled_from([1, -1]),
)
def test_adjacent_rects_are_additive(plane, corner, sides, cut, along_u, orientation):
    u0, v0 = corner
    u1, v1 = u0 + sides[0], v0 + sides[1]
    if along_u:
        split = u0 + cut * sides[0]
        parts = (Rect(u0, split, v0, v1), Rect(split, u1, v0, v1))
    else:
        split = v0 + cut * sides[1]
        parts = (Rect(u0, u1, v0, split), Rect(u0, u1, split, v1))
    whole, *pieces = [
        loops.area(LoopSpec(plane, rect, orientation))
        for rect in (Rect(u0, u1, v0, v1), *parts)
    ]
    # the rounding area() reports for each of the three loops adds to the relative bound
    rounding = whole.abs_error_estimate + sum(p.abs_error_estimate for p in pieces)
    gap = abs(sum(p.sigma for p in pieces) - whole.sigma)
    assert gap <= 1e-12 * abs(whole.sigma) + rounding


@settings(max_examples=60, deadline=None)
@given(
    plane=st.sampled_from(list(PlaneId)),
    corner=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    sides=st.tuples(st.floats(1e-6, 2.0), st.floats(1e-6, 2.0)),
    angles=ANGLES,
    as_rect=st.booleans(),
    orientation=st.sampled_from([1, -1]),
)
def test_loop_json_round_trips_exactly(plane, corner, sides, angles, as_rect, orientation):
    u0, v0 = corner
    if as_rect:
        shape = Rect(u0, u0 + sides[0], v0, v0 + sides[1])
    else:
        # convex: vertices at increasing angles on the ellipse inscribed in the rect
        verts = tuple(
            (u0 + sides[0] * (1.0 + math.cos(t)), v0 + sides[1] * (1.0 + math.sin(t)))
            for t in sorted(angles)
        )
        if len(set(verts)) < len(verts):
            return  # angles too close to give distinct vertices
        shape = Polyline(verts)
    loop = LoopSpec(plane, shape, orientation)
    assert loop_round_trip(loop) == loop


def test_area_overflow_raises_value_error():
    far = LoopSpec(PlaneId.III, Rect(0.0, 1000.0, 0.0, 0.1))
    with pytest.raises(ValueError, match="overflows"):
        loops.area(far)


def test_exponential_ceiling_on_upward_growth():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u0 = rng.uniform(0.0, 1.0)
        du = rng.uniform(0.1, 1.0)
        v1 = rng.uniform(0.1, 2.0)
        dh = rng.uniform(0.01, 1.0)
        base = loops.area(LoopSpec(PlaneId.I, Rect(u0, u0 + du, 0.0, v1))).sigma
        grown = loops.area(LoopSpec(PlaneId.I, Rect(u0, u0 + du, 0.0, v1 + dh))).sigma
        assert grown - base < du * 2.0 * math.exp(-2.0 * v1) * dh


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)))
    # proper figure-eight crossing
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)))


def test_rect_domain_validation_per_plane():
    with pytest.raises(ValueError):
        LoopSpec(PlaneId.I, Rect(0.0, 1.0, -0.2, 1.0))
    with pytest.raises(ValueError):
        LoopSpec(PlaneId.III, Rect(-0.5, 1.0, 0.0, 1.0))
    # negative x is fine on planes I/II
    LoopSpec(PlaneId.II, Rect(-1.0, 1.0, 0.0, 1.0))


def test_loop_serialization_round_trip():
    for loop in (
        HADAMARD_RECT,
        PLANE3_RECT,
        LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.5, 0.1), (0.2, 0.6))), -1),
    ):
        assert loop_round_trip(loop) == loop


def test_loop_values_are_slotted():
    # requests hold many loops: slots keep each without a per-instance __dict__
    polyline = Polyline(((0.0, 0.0), (0.5, 0.1), (0.2, 0.6)))
    for value in (HADAMARD_RECT.shape, polyline, HADAMARD_RECT, LoopSpec(PlaneId.I, polyline)):
        assert not hasattr(value, "__dict__")


def test_loop_from_dict_rejects_malformed_records():
    with pytest.raises(ValueError):
        loops.loop_from_dict({"plane": "I"})
    with pytest.raises(ValueError):
        loops.loop_from_dict({"plane": "IV", "rect": {}})


def test_boundary_runs_split_steps_per_edge():
    rect = LoopSpec(PlaneId.I, Rect(0.0, 0.3, 0.0, 0.1), -1)
    runs = loops.boundary_runs(rect, 40)
    assert [run.count for run in runs] == [5, 15, 5, 15]  # clockwise: up the short edge first
    assert all(run.axis_aligned for run in runs)
    assert np.array_equal(runs[0].start, loops.boundary_vertices(rect)[0])
    for run, following in zip(runs, runs[1:] + runs[:1]):
        assert np.array_equal(run.end, following.start)
    tilted = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.2, 0.05), (0.1, 0.2))))
    assert not any(run.axis_aligned for run in loops.boundary_runs(tilted, 40))


def test_boundary_runs_need_a_step_per_edge():
    gon = regular_polygon(PlaneId.I, 60)
    assert [run.count for run in loops.boundary_runs(gon, 60)] == [1] * 60
    with pytest.raises(ValueError, match="60 edges"):
        loops.boundary_runs(gon, 59)


SPLIT_LOOPS = st.one_of(
    st.builds(
        lambda plane, corner, sides, orientation: LoopSpec(
            plane, Rect(corner[0], corner[0] + sides[0], corner[1], corner[1] + sides[1]), orientation
        ),
        st.sampled_from(list(PlaneId)),
        st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
        st.tuples(st.floats(1e-6, 1e3), st.floats(1e-6, 1e3)),
        st.sampled_from([1, -1]),
    ),
    convex_polygons(planes=tuple(PlaneId)),
    st.builds(regular_polygon, st.sampled_from(list(PlaneId)), st.integers(3, 64)),
)


@settings(max_examples=300, deadline=None)
@given(loop=SPLIT_LOOPS, steps=st.integers(100, 2000))
def test_boundary_runs_split_as_the_per_edge_norms_do(loop, steps):
    counts = [run.count for run in loops.boundary_runs(loop, steps)]
    assert counts == norm_split_counts(loop, steps)


def test_boundary_runs_of_a_far_loop_are_finite():
    # the lengths are not squared: np.linalg.norm made them inf here and split NaN
    far = LoopSpec(PlaneId.I, Rect(0.0, 1e300, 0.0, 0.1))
    runs = loops.boundary_runs(far, 2000)
    assert [run.count for run in runs] == [999, 1, 999, 1]
    assert kicked.largest_control_step(runs) == pytest.approx(1e300 / 999, rel=1e-15)
    with pytest.raises(ValueError, match="reaches too far"):
        loops.boundary_runs(LoopSpec(PlaneId.I, Rect(-1e306, 1e306, 0.0, 0.1)), 2000)


def test_shapes_reject_non_finite_coordinates():
    with pytest.raises(ValueError):
        Polyline(((0.0, 0.0), (float("nan"), 0.1), (0.2, 0.3)))
    with pytest.raises(ValueError):
        Rect(0.0, float("inf"), 0.0, 0.1)


def test_loop_from_dict_rejects_non_integer_orientation():
    rect = {"u_min": 0.0, "u_max": 0.1, "v_min": 0.0, "v_max": 0.1}
    for orientation in (1.7, 1.0, "1", True):
        with pytest.raises(ValueError):
            loops.loop_from_dict({"plane": "I", "orientation": orientation, "rect": rect})


def test_exact_contour_matches_closed_form_vectorized():
    verts = np.asarray(HADAMARD_RECT.shape.vertices_ccw())
    batch = np.stack([verts, verts])
    sigmas = loops.polygon_sigma_exact(PlaneId.II, batch)
    assert np.allclose(sigmas, 3.0 * math.pi / 16.0, atol=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.floats(0.0, 1e3), st.floats(1e-6, 1e3),
    st.sampled_from([1, -1]),
)
def test_rect_corners_are_counterclockwise_without_the_shoelace(u0, du, v0, dv, orientation):
    rect = Rect(u0, u0 + du, v0, v0 + dv)
    corners = np.asarray(rect.vertices_ccw(), dtype=float)
    # the rect's own corners, bit for bit, as the shoelace ordering gave them wherever the
    # shoelace did not round negative
    assert np.array_equal(loops._ccw_vertices(rect), corners)
    expected = corners if orientation == 1 else np.roll(corners[::-1], 1, axis=0)
    got = loops.boundary_vertices(LoopSpec(PlaneId.I, rect, orientation))
    assert np.array_equal(got, expected)


def test_rect_corners_stay_counterclockwise_where_the_shoelace_rounds_negative():
    # the shoelace's products of 1e15-sized corners round to -1.4e14 for a true area of
    # 4096: read off it, the corners would be traversed clockwise
    rect = Rect(1e15, 1e15 + 64.0, 1e15, 1e15 + 64.0)
    corners = np.asarray(rect.vertices_ccw(), dtype=float)
    assert loops._shoelace(corners) < 0
    assert np.array_equal(loops.boundary_vertices(LoopSpec(PlaneId.I, rect)), corners)


def test_area_refuses_a_gate_phase_past_double_resolution():
    near = LoopSpec(PlaneId.I, Rect(0.0, 2.0**51, 0.0, 10.0))
    assert 0.99 * 2.0**51 < loops.area(near).sigma < loops.MAX_GATE_PHASE
    far = LoopSpec(PlaneId.I, Rect(0.0, 1e150, 0.0, 0.1), -1)
    with pytest.raises(ValueError, match=r"^weighted area -1\.813e\+149 exceeds 4\.504e\+15 rad"):
        loops.area(far)
    # a non-finite sum keeps its own message
    with pytest.raises(ValueError, match="overflows"):
        loops.area(LoopSpec(PlaneId.III, Rect(0.0, 1000.0, 0.0, 0.1)))
