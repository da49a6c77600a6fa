import math

import numpy as np
import pytest

from hologate import loops
from hologate.exceptions import ConvergenceFailureError
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

HADAMARD_RECT = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
PLANE3_RECT = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))


def rect_as_polyline(loop: LoopSpec) -> LoopSpec:
    return LoopSpec(loop.plane, Polyline(loop.shape.vertices_ccw()), loop.orientation)


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


@pytest.mark.parametrize("plane", list(PlaneId))
def test_quadrature_matches_closed_form_on_random_rects(plane):
    rng = np.random.default_rng(42)
    for _ in range(25):
        u0, v0 = rng.uniform(0.0, 1.5, size=2)
        du, dv = rng.uniform(0.05, 0.5, size=2)
        rect_loop = LoopSpec(plane, Rect(u0, u0 + du, v0, v0 + dv))
        exact = loops.area(rect_loop).sigma
        quad = loops.area(rect_as_polyline(rect_loop), 1e-11)
        assert quad.method == "quadrature"
        assert abs(quad.sigma - exact) < 1e-9 * max(abs(exact), 1e-3)


def test_line_integral_matches_closed_form():
    fine = loops.area_line_integral(rect_as_polyline(HADAMARD_RECT), 64)
    assert abs(fine.sigma - 3.0 * math.pi / 16.0) < 1e-9


def test_line_integral_zero_for_back_and_forth_path():
    flat = LoopSpec(PlaneId.II, Polyline(((0.0, 0.1), (0.5, 0.1), (0.25, 0.1))))
    assert loops.area_line_integral(flat, 16).sigma == pytest.approx(0.0, abs=1e-15)


def test_line_integral_orientation_antisymmetry():
    loop = rect_as_polyline(PLANE3_RECT)
    forward = loops.area_line_integral(loop, 32).sigma
    backward = loops.area_line_integral(loops.reverse(loop), 32).sigma
    assert backward == -forward


def test_line_integral_rejects_coarse_steps():
    with pytest.raises(ValueError):
        loops.area_line_integral(HADAMARD_RECT, 4)


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
        quad = loops.area(loop, 1e-11).sigma
        contour = loops.area_line_integral(loop, 128).sigma
        assert abs(quad - contour) < 1e-7 * max(abs(quad), 1e-6)


def test_quadrature_error_budget_enforced():
    loop = rect_as_polyline(HADAMARD_RECT)
    with pytest.raises(ConvergenceFailureError):
        loops.area(loop, 1e-18)


def test_orientation_reversal_negates_sigma_exactly():
    sigma = loops.area(HADAMARD_RECT).sigma
    assert loops.area(loops.reverse(HADAMARD_RECT)).sigma == -sigma


def test_adjacent_rectangle_additivity():
    a = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0))
    b = LoopSpec(PlaneId.I, Rect(1.0, 2.0, 0.0, 1.0))
    merged = loops.concatenate(a, b)
    total = loops.area(merged).sigma
    assert abs(total - loops.area(a).sigma - loops.area(b).sigma) < 1e-9


def test_concatenate_with_reversal_cancels():
    a = LoopSpec(PlaneId.I, Rect(0.2, 0.8, 0.1, 0.9))
    cancelled = loops.concatenate(a, loops.reverse(a))
    assert loops.area(cancelled).sigma == pytest.approx(0.0, abs=1e-15)


def test_concatenate_with_degenerate_is_identity():
    a = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0))
    point = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (1e-3, 0.0), (5e-4, 0.0))))
    assert loops.concatenate(a, point) == a
    assert loops.concatenate(point, a) == a


def test_concatenate_rejects_plane_mismatch():
    a = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0))
    b = LoopSpec(PlaneId.II, Rect(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        loops.concatenate(a, b)


def test_vertical_rect_merge():
    a = LoopSpec(PlaneId.III, Rect(0.0, 1.0, 0.0, 0.5))
    b = LoopSpec(PlaneId.III, Rect(0.0, 1.0, 0.5, 1.0))
    merged = loops.concatenate(a, b)
    assert merged.shape == Rect(0.0, 1.0, 0.0, 1.0)


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
        assert loops.loop_from_json(loops.loop_to_json(loop)) == loop


def test_loop_from_dict_rejects_malformed_records():
    with pytest.raises(ValueError):
        loops.loop_from_dict({"plane": "I"})
    with pytest.raises(ValueError):
        loops.loop_from_dict({"plane": "IV", "rect": {}})


def test_discretize_boundary_closes_and_allocates():
    loop = LoopSpec(PlaneId.I, Rect(0.0, 0.3, 0.0, 0.1))
    pts = loops.discretize_boundary(loop, 40)
    assert pts.shape == (41, 2)
    assert np.allclose(pts[0], pts[-1])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    # near-uniform steps: long edges get proportionally more points
    assert seg.max() < 3.0 * seg.min()


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
