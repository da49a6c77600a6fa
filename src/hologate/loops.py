"""Closed control loops in the three pinned parameter planes and their weighted areas.

Plane I is (x, r1) at theta1 = 0, plane II is (x, r1) at theta1 = pi/2, and
plane III is (r2, r3) at theta2 = theta3 = 0; every other control coordinate
is pinned at zero.  The gate parameter of a loop is the signed weighted area

    sigma = orientation * integral over the enclosed region of w(u, v) du dv

with w = 2*exp(-2*v) on planes I/II and w = 2*sinh(2*u) on plane III.  The
orientation field alone carries the traversal sense (+1 counterclockwise);
stored polyline vertex order only fixes the shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from .exceptions import ConvergenceFailureError

DEFAULT_QUADRATURE_TOLERANCE = 1e-10
_DEGENERATE_AREA_EPS = 1e-14


class PlaneId(Enum):
    I = "I"
    II = "II"
    III = "III"

    @property
    def code_dim(self) -> int:
        return 4 if self is PlaneId.III else 2


@dataclass(frozen=True)
class Rect:
    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def __post_init__(self):
        corners = (self.u_min, self.u_max, self.v_min, self.v_max)
        if not all(math.isfinite(c) for c in corners):
            raise ValueError(f"rect bounds must be finite, got {corners}")
        if not (self.u_min < self.u_max):
            raise ValueError(f"need u_min < u_max, got [{self.u_min}, {self.u_max}]")
        if not (self.v_min < self.v_max):
            raise ValueError(f"need v_min < v_max, got [{self.v_min}, {self.v_max}]")

    def vertices_ccw(self) -> tuple[tuple[float, float], ...]:
        return (
            (self.u_min, self.v_min),
            (self.u_max, self.v_min),
            (self.u_max, self.v_max),
            (self.u_min, self.v_max),
        )


@dataclass(frozen=True)
class Polyline:
    """Closed polygonal path; the first vertex is not repeated at the end.

    Proper (transversal) self-crossings are rejected.  Collinear back-and-forth
    paths are legal: they enclose zero area.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        verts = tuple((float(u), float(v)) for u, v in self.vertices)
        if len(verts) < 3:
            raise ValueError("polyline needs at least 3 vertices")
        if not all(math.isfinite(c) for vertex in verts for c in vertex):
            raise ValueError("polyline vertices must be finite")
        if verts[0] == verts[-1]:
            raise ValueError("closure is implicit; first vertex must not repeat at the end")
        if _has_proper_crossing(verts):
            raise ValueError("polyline is self-intersecting")
        object.__setattr__(self, "vertices", verts)


Shape = Union[Rect, Polyline]


@dataclass(frozen=True)
class LoopSpec:
    plane: PlaneId
    shape: Shape
    orientation: int = 1

    def __post_init__(self):
        if self.orientation not in (1, -1):
            raise ValueError(f"orientation must be +1 or -1, got {self.orientation}")
        if not isinstance(self.shape, (Rect, Polyline)):
            raise ValueError(f"unsupported shape {type(self.shape).__name__}")
        for u, v in _shape_vertices(self.shape):
            _check_plane_coordinates(self.plane, u, v)


@dataclass(frozen=True)
class AreaResult:
    sigma: float
    method: str  # "closed_form" | "quadrature" | "line_integral"
    abs_error_estimate: float


def _shape_vertices(shape: Shape) -> tuple[tuple[float, float], ...]:
    if isinstance(shape, Rect):
        return shape.vertices_ccw()
    return shape.vertices


def _check_plane_coordinates(plane: PlaneId, u: float, v: float) -> None:
    if plane in (PlaneId.I, PlaneId.II):
        if v < 0:
            raise ValueError(f"plane {plane.value}: squeeze amplitude r1 = {v} may not be negative")
    else:
        if u < 0 or v < 0:
            raise ValueError(f"plane III: amplitudes (r2, r3) = ({u}, {v}) may not be negative")


def weight(plane: PlaneId, point: tuple[float, float]) -> float:
    """Curvature weight at a plane point: 2*exp(-2*r1) or 2*sinh(2*r2)."""
    u, v = point
    _check_plane_coordinates(plane, u, v)
    if plane in (PlaneId.I, PlaneId.II):
        return 2.0 * math.exp(-2.0 * v)
    return 2.0 * math.sinh(2.0 * u)


def _weight_unchecked(plane: PlaneId, u, v):
    # Smooth extension used by quadrature/contour internals; no domain check.
    if plane in (PlaneId.I, PlaneId.II):
        return 2.0 * np.exp(-2.0 * v)
    return 2.0 * np.sinh(2.0 * u)


# ---------------------------------------------------------------------------
# Polygon helpers


def _orient(p, q, r) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _proper_cross(p1, p2, q1, q2) -> bool:
    """True when segments p1p2 and q1q2 cross transversally at interior points."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    )


def _has_proper_crossing(verts) -> bool:
    n = len(verts)
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent segments share a vertex
            if _proper_cross(*segs[i], *segs[j]):
                return True
    return False


def _shoelace(verts: np.ndarray) -> float:
    u = verts[:, 0]
    v = verts[:, 1]
    return 0.5 * float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v))


def _ccw_vertices(shape: Shape) -> np.ndarray:
    """Vertices of the shape ordered counterclockwise (degenerate shapes as stored)."""
    verts = np.asarray(_shape_vertices(shape), dtype=float)
    if _shoelace(verts) < 0:
        verts = verts[::-1]
    return verts


def _dedupe(verts: np.ndarray) -> np.ndarray:
    keep = [verts[0]]
    for p in verts[1:]:
        if not np.allclose(p, keep[-1], rtol=0.0, atol=1e-15):
            keep.append(p)
    if len(keep) > 1 and np.allclose(keep[0], keep[-1], rtol=0.0, atol=1e-15):
        keep.pop()
    return np.asarray(keep)


def _point_in_triangle(p, a, b, c) -> bool:
    d1 = _orient(a, b, p)
    d2 = _orient(b, c, p)
    d3 = _orient(c, a, p)
    return d1 >= 0 and d2 >= 0 and d3 >= 0


def _ear_clip(verts: np.ndarray) -> list[np.ndarray]:
    """Triangulate a simple counterclockwise polygon by ear clipping."""
    pts = [tuple(p) for p in _dedupe(verts)]
    # drop exactly-collinear vertices; they carry no geometry
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            if abs(_orient(pts[i - 1], pts[i], pts[(i + 1) % len(pts)])) < 1e-30:
                pts.pop(i)
                changed = True
                break
    triangles = []
    guard = 0
    while len(pts) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("triangulation failed; polygon may be degenerate")
        n = len(pts)
        clipped = False
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            if _orient(a, b, c) <= 0:
                continue  # reflex or flat corner
            if any(
                _point_in_triangle(pts[j], a, b, c)
                for j in range(n)
                if pts[j] not in (a, b, c)
            ):
                continue
            triangles.append(np.asarray([a, b, c]))
            pts.pop(i)
            clipped = True
            break
        if not clipped:
            raise ValueError("triangulation failed; polygon may be degenerate")
    triangles.append(np.asarray(pts))
    return triangles


# ---------------------------------------------------------------------------
# Area engines


def _rect_closed_form(plane: PlaneId, rect: Rect) -> float:
    if plane in (PlaneId.I, PlaneId.II):
        return (rect.u_max - rect.u_min) * (
            math.exp(-2.0 * rect.v_min) - math.exp(-2.0 * rect.v_max)
        )
    return (rect.v_max - rect.v_min) * (
        math.cosh(2.0 * rect.u_max) - math.cosh(2.0 * rect.u_min)
    )


def _triangle_integral(plane: PlaneId, tri: np.ndarray, epsabs: float) -> tuple[float, float]:
    a, b, c = tri
    e1 = b - a
    e2 = c - a
    jac = abs(e1[0] * e2[1] - e1[1] * e2[0])
    if jac < 1e-300:
        return 0.0, 0.0

    def integrand(eta, xi):
        u = a[0] + xi * e1[0] + eta * e2[0]
        v = a[1] + xi * e1[1] + eta * e2[1]
        return _weight_unchecked(plane, u, v)

    val, err = integrate.dblquad(
        integrand, 0.0, 1.0, 0.0, lambda xi: 1.0 - xi, epsabs=epsabs, epsrel=1e-12
    )
    return jac * val, jac * err


def area(loop: LoopSpec, quadrature_tolerance: float = DEFAULT_QUADRATURE_TOLERANCE) -> AreaResult:
    """Signed weighted area enclosed by the loop.

    Rectangles use the closed forms
        sigma_I/II  = (u1 - u0) * (exp(-2*v0) - exp(-2*v1))
        sigma_III   = (v1 - v0) * (cosh(2*u1) - cosh(2*u0))
    and polylines go through adaptive 2-D quadrature over an ear-clipped
    triangulation.  Degenerate (zero-area) polylines legally return sigma = 0.
    """
    if isinstance(loop.shape, Rect):
        value = _rect_closed_form(loop.plane, loop.shape)
        return AreaResult(
            sigma=loop.orientation * value,
            method="closed_form",
            abs_error_estimate=4.0 * np.finfo(float).eps * abs(value),
        )
    verts = _ccw_vertices(loop.shape)
    region = abs(_shoelace(verts))
    scale = max(1.0, float(np.max(np.abs(verts))) ** 2)
    if region <= _DEGENERATE_AREA_EPS * scale:
        return AreaResult(sigma=0.0, method="quadrature", abs_error_estimate=0.0)
    triangles = _ear_clip(verts)
    per_tri = quadrature_tolerance / (2.0 * len(triangles))
    total = 0.0
    err = 0.0
    for tri in triangles:
        val_t, err_t = _triangle_integral(loop.plane, tri, per_tri)
        total += val_t
        err += err_t
    if err > quadrature_tolerance:
        raise ConvergenceFailureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance {quadrature_tolerance:.3e}"
        )
    return AreaResult(
        sigma=loop.orientation * total, method="quadrature", abs_error_estimate=err
    )


def _antiderivative_flux(plane: PlaneId, u, v):
    """Integrand of the boundary form: sigma = contour integral of f du (I/II) or f dv (III)."""
    if plane in (PlaneId.I, PlaneId.II):
        return np.exp(-2.0 * v)
    return np.cosh(2.0 * u)


def area_line_integral(loop: LoopSpec, step_count: int = 64) -> AreaResult:
    """Same signed weighted area, evaluated as a contour integral along the boundary.

    The plane weights depend on a single coordinate, so the area form has an
    exact antiderivative: exp(-2*v) du on planes I/II, cosh(2*u) dv on plane
    III.  Each edge is integrated with composite Gauss-Legendre panels;
    step_count panels per edge.
    """
    if step_count < 8:
        raise ValueError(f"step_count must be at least 8 per edge, got {step_count}")

    def contour(panels: int) -> float:
        nodes, wts = leggauss(5)
        # map nodes from [-1, 1] onto each panel of [0, 1]
        edges_total = 0.0
        verts = _ccw_vertices(loop.shape)
        starts = verts
        ends = np.roll(verts, -1, axis=0)
        for (u0, v0), (u1, v1) in zip(starts, ends):
            du = u1 - u0
            dv = v1 - v0
            if loop.plane in (PlaneId.I, PlaneId.II):
                if du == 0.0:
                    continue
            else:
                if dv == 0.0:
                    continue
            acc = 0.0
            width = 1.0 / panels
            for k in range(panels):
                t = (k + 0.5 * (nodes + 1.0)) * width
                u = u0 + t * du
                v = v0 + t * dv
                f = _antiderivative_flux(loop.plane, u, v)
                acc += 0.5 * width * float(np.dot(wts, f))
            edges_total += acc * (du if loop.plane in (PlaneId.I, PlaneId.II) else dv)
        return edges_total

    fine = contour(step_count)
    coarse = contour(max(step_count // 2, 4))
    return AreaResult(
        sigma=loop.orientation * fine,
        method="line_integral",
        abs_error_estimate=abs(fine - coarse),
    )


def polygon_sigma_exact(plane: PlaneId, verts: np.ndarray) -> float:
    """Signed weighted area of a polygon via exact per-edge antiderivatives.

    Vectorized over leading axes: verts may be (..., n, 2).  The traversal
    order of the vertices carries the sign.  Used for Monte Carlo sweeps where
    per-sample quadrature would be wasteful.
    """
    verts = np.asarray(verts, dtype=float)
    u0 = verts[..., :, 0]
    v0 = verts[..., :, 1]
    u1 = np.roll(u0, -1, axis=-1)
    v1 = np.roll(v0, -1, axis=-1)
    du = u1 - u0
    dv = v1 - v0
    if plane in (PlaneId.I, PlaneId.II):
        # integral of exp(-2 v(t)) du over an edge; safe limit for dv -> 0
        small = np.abs(dv) < 1e-300
        ratio = np.where(small, 1.0, -np.expm1(-2.0 * np.where(small, 1.0, dv)) / (2.0 * np.where(small, 1.0, dv)))
        contrib = du * np.exp(-2.0 * v0) * ratio
    else:
        small = np.abs(du) < 1e-300
        denom = np.where(small, 1.0, 2.0 * du)
        ratio = np.where(small, np.cosh(2.0 * u0), (np.sinh(2.0 * u1) - np.sinh(2.0 * u0)) / denom)
        contrib = dv * ratio
    return np.sum(contrib, axis=-1)


# ---------------------------------------------------------------------------
# Loop algebra


def reverse(loop: LoopSpec) -> LoopSpec:
    """Same loop traversed the other way; negates sigma exactly."""
    return LoopSpec(loop.plane, loop.shape, -loop.orientation)


def is_degenerate(loop: LoopSpec) -> bool:
    if isinstance(loop.shape, Rect):
        return False
    verts = np.asarray(loop.shape.vertices, dtype=float)
    scale = max(1.0, float(np.max(np.abs(verts))) ** 2)
    return abs(_shoelace(verts)) <= _DEGENERATE_AREA_EPS * scale


def _degenerate_at(plane: PlaneId, anchor: tuple[float, float]) -> LoopSpec:
    u, v = anchor
    d = 1e-3
    return LoopSpec(plane, Polyline(((u, v), (u + d, v), (u + d / 2, v))), orientation=1)


def concatenate(a: LoopSpec, b: LoopSpec) -> LoopSpec:
    """Merge two loops into one whose signed area is area(a) + area(b).

    Supported combinations: a degenerate loop with anything, a loop with its
    exact reversal (cancels to a degenerate loop), and two equally oriented
    rectangles sharing a full edge (merged into the union rectangle).
    """
    if a.plane is not b.plane:
        raise ValueError(f"cannot concatenate loops in planes {a.plane.value} and {b.plane.value}")
    if is_degenerate(a):
        return b
    if is_degenerate(b):
        return a
    if a.shape == b.shape and a.orientation == -b.orientation:
        return _degenerate_at(a.plane, _shape_vertices(a.shape)[0])
    if isinstance(a.shape, Rect) and isinstance(b.shape, Rect) and a.orientation == b.orientation:
        merged = _merge_rects(a.shape, b.shape)
        if merged is not None:
            return LoopSpec(a.plane, merged, a.orientation)
    raise ValueError(
        "unsupported concatenation: loops must share a full rectangle edge, "
        "cancel exactly, or include a degenerate loop"
    )


def _merge_rects(r1: Rect, r2: Rect) -> Rect | None:
    close = lambda x, y: math.isclose(x, y, rel_tol=0.0, abs_tol=1e-12)
    same_v = close(r1.v_min, r2.v_min) and close(r1.v_max, r2.v_max)
    same_u = close(r1.u_min, r2.u_min) and close(r1.u_max, r2.u_max)
    if same_v and close(r1.u_max, r2.u_min):
        return Rect(r1.u_min, r2.u_max, r1.v_min, r1.v_max)
    if same_v and close(r2.u_max, r1.u_min):
        return Rect(r2.u_min, r1.u_max, r1.v_min, r1.v_max)
    if same_u and close(r1.v_max, r2.v_min):
        return Rect(r1.u_min, r1.u_max, r1.v_min, r2.v_max)
    if same_u and close(r2.v_max, r1.v_min):
        return Rect(r1.u_min, r1.u_max, r2.v_min, r1.v_max)
    return None


# ---------------------------------------------------------------------------
# Boundary discretization (shared by the dynamical oracles)


def boundary_vertices(loop: LoopSpec) -> np.ndarray:
    """Loop corner points in traversal order; counterclockwise iff orientation = +1."""
    verts = _ccw_vertices(loop.shape)
    if loop.orientation == -1:
        verts = np.roll(verts[::-1], 1, axis=0)
    return verts


class EdgeRun(NamedTuple):
    """`count` equal steps along one straight boundary edge from `start` to `end`."""

    start: np.ndarray
    end: np.ndarray
    count: int

    @property
    def axis_aligned(self) -> bool:
        """Only one plane coordinate moves, so every step of the run is the same map."""
        return bool(self.start[0] == self.end[0] or self.start[1] == self.end[1])

    def points(self) -> np.ndarray:
        """(count+1, 2) step points, `start` and `end` included."""
        ts = np.linspace(0.0, 1.0, self.count, endpoint=False)
        inner = self.start[None, :] + ts[:, None] * (self.end - self.start)[None, :]
        return np.concatenate([inner, self.end[None, :]], axis=0)

    def first_step(self) -> np.ndarray:
        """The point one step along the run from `start`."""
        return self.start + (1.0 / self.count) * (self.end - self.start)


def boundary_runs(loop: LoopSpec, steps: int) -> list[EdgeRun]:
    """The boundary in traversal order as per-edge runs; `steps` split by edge length."""
    verts = boundary_vertices(loop)
    n = len(verts)
    lengths = np.array(
        [np.linalg.norm(verts[(i + 1) % n] - verts[i]) for i in range(n)], dtype=float
    )
    total = float(np.sum(lengths))
    if total == 0.0:
        return [EdgeRun(verts[0], verts[0], steps)]
    counts = np.maximum(1, np.floor(steps * lengths / total).astype(int))
    while int(np.sum(counts)) < steps:
        counts[int(np.argmax(lengths / counts))] += 1
    while int(np.sum(counts)) > steps:
        reducible = np.where(counts > 1)[0]
        counts[reducible[int(np.argmin((lengths / counts)[reducible]))]] -= 1
    return [EdgeRun(verts[i], verts[(i + 1) % n], int(counts[i])) for i in range(n)]


def discretize_boundary(loop: LoopSpec, steps: int) -> np.ndarray:
    """(steps+1, 2) points along the boundary, closed, allocated by edge length."""
    runs = boundary_runs(loop, steps)
    return np.concatenate([run.points()[:-1] for run in runs] + [runs[-1].end[None, :]])


# ---------------------------------------------------------------------------
# Serialization (shared with the CLI)


def loop_to_dict(loop: LoopSpec) -> dict:
    out: dict = {"plane": loop.plane.value, "orientation": loop.orientation}
    if isinstance(loop.shape, Rect):
        out["rect"] = {
            "u_min": loop.shape.u_min,
            "u_max": loop.shape.u_max,
            "v_min": loop.shape.v_min,
            "v_max": loop.shape.v_max,
        }
    else:
        out["polyline"] = [[u, v] for u, v in loop.shape.vertices]
    return out


def loop_from_dict(data: dict) -> LoopSpec:
    try:
        plane = PlaneId(data["plane"])
        orientation = data.get("orientation", 1)
        if isinstance(orientation, bool) or not isinstance(orientation, int):
            raise ValueError(f"orientation must be the integer +1 or -1, got {orientation!r}")
        if "rect" in data and "polyline" in data:
            raise ValueError("loop must have either 'rect' or 'polyline', not both")
        if "rect" in data:
            r = data["rect"]
            shape: Shape = Rect(
                float(r["u_min"]), float(r["u_max"]), float(r["v_min"]), float(r["v_max"])
            )
        elif "polyline" in data:
            shape = Polyline(tuple((float(u), float(v)) for u, v in data["polyline"]))
        else:
            raise ValueError("loop must have a 'rect' or 'polyline' entry")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed loop record: {exc}") from exc
    return LoopSpec(plane, shape, orientation)


def loop_to_json(loop: LoopSpec) -> str:
    return json.dumps(loop_to_dict(loop), sort_keys=True)


def loop_from_json(text: str) -> LoopSpec:
    return loop_from_dict(json.loads(text))
