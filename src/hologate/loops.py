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

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np

AREA_METHOD = "edge_antiderivative"
_DEGENERATE_AREA_EPS = 1e-14
# Rounding bound of the edge sum, in units of eps * sum(|edge terms|).
_ROUNDING_ULPS = 4
# Largest |sigma| that area() returns: past 2^52 rad one ulp of sigma is a radian or
# more, so the cos and sin of the gate phase, and every gate entry, are rounding noise.
MAX_GATE_PHASE = 2.0**52


class PlaneId(Enum):
    I = "I"
    II = "II"
    III = "III"

    @property
    def code_dim(self) -> int:
        return 4 if self is PlaneId.III else 2


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    method: str  # always AREA_METHOD
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
    """Signed area of the polygon, which callers take relative to its first vertex."""
    u = verts[:, 0]
    v = verts[:, 1]
    return 0.5 * float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v))


def _ccw_vertices(shape: Shape) -> np.ndarray:
    """Vertices of the shape ordered counterclockwise (degenerate shapes as stored).

    A Rect's corners are counterclockwise by construction (u_min < u_max,
    v_min < v_max), so only a polyline's orientation is read off its shoelace.
    """
    verts = np.asarray(_shape_vertices(shape), dtype=float)
    if isinstance(shape, Polyline) and _shoelace(verts - verts[0]) < 0:
        verts = verts[::-1]
    return verts


# ---------------------------------------------------------------------------
# Area engine


def _sinhc_minus_one(x: np.ndarray) -> np.ndarray:
    """sinh(x)/x - 1, by its Taylor series below |x| = 0.1, where the difference cancels."""
    y = x * x
    series = y * (1 / 6 + y * (1 / 120 + y * (1 / 5040 + y * (1 / 362880 + y / 39916800))))
    return np.where(np.abs(x) < 0.1, series, np.sinh(x) / x - 1.0)


def _edge_integrals(plane: PlaneId, verts: np.ndarray) -> np.ndarray:
    """Per-edge terms of the boundary integral of exp(-2v) du (I/II) or cosh(2u) dv (III).

    The boundary integrals of du and dv vanish around a closed loop, so each
    integrand is taken less its value at the loop's lowest coordinate r:
    (exp(-2v) - exp(-2r)) du or (cosh(2u) - cosh(2r)) dv.  Without that
    constant, the terms of opposite edges of a thin loop do not cancel.
    Along an edge they are du exp(-2r) (exp(-(v0 + v1 - 2r)) s(dv) - 1) and
    dv (cosh(2m) s(du) - cosh(2r)) with m = (u0 + u1)/2 and s(x) = sinh(x)/x,
    written through expm1, cosh(2m) - cosh(2r) = 2 sinh(m + r) sinh(m - r)
    and _sinhc_minus_one so that no difference cancels.  Vectorized over
    leading axes: verts may be (..., n, 2), edges run from each vertex to the
    next, cyclically.
    """
    u0 = verts[..., :, 0]
    v0 = verts[..., :, 1]
    u1 = np.roll(u0, -1, axis=-1)
    v1 = np.roll(v0, -1, axis=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if plane in (PlaneId.I, PlaneId.II):
            r = np.min(v0, axis=-1, keepdims=True)
            s1 = _sinhc_minus_one(v1 - v0)
            excess = np.expm1(-((v0 - r) + (v1 - r))) * (1.0 + s1) + s1
            return (u1 - u0) * np.exp(-2.0 * r) * excess
        r = np.min(u0, axis=-1, keepdims=True)
        s1 = _sinhc_minus_one(u1 - u0)
        half = 0.5 * ((u0 - r) + (u1 - r))  # m - r
        excess = 2.0 * np.sinh(half + 2.0 * r) * np.sinh(half) * (1.0 + s1) + np.cosh(2.0 * r) * s1
        return (v1 - v0) * excess


def _finite_sum(terms: np.ndarray) -> np.ndarray:
    total = np.sum(terms, axis=-1)
    if not np.all(np.isfinite(total)):
        raise ValueError("weighted area overflows double precision; the loop reaches too far")
    return total


def area(loop: LoopSpec) -> AreaResult:
    """Signed weighted area enclosed by the loop.

    Each plane weight depends on one coordinate, so the area is the boundary
    integral of exp(-2*v) du (planes I/II) or cosh(2*u) dv (plane III), and
    every straight edge integrates in closed form.  Rectangles and polylines
    both go through their counterclockwise corners; the orientation sets the
    sign.  Degenerate (zero-area) polylines legally return sigma = 0.
    abs_error_estimate bounds the rounding of the edge sum.  A loop whose
    area overflows double precision raises ValueError, and so does one whose
    |sigma| exceeds MAX_GATE_PHASE, where no gate phase is resolved.
    """
    if is_degenerate(loop):
        return AreaResult(sigma=0.0, method=AREA_METHOD, abs_error_estimate=0.0)
    terms = _edge_integrals(loop.plane, _ccw_vertices(loop.shape))
    sigma = loop.orientation * float(_finite_sum(terms))
    if abs(sigma) > MAX_GATE_PHASE:
        raise ValueError(
            f"weighted area {sigma:.4g} exceeds {MAX_GATE_PHASE:.4g} rad, past which a double "
            "does not resolve the gate phase; the loop reaches too far"
        )
    rounding = _ROUNDING_ULPS * np.finfo(float).eps * np.sum(np.abs(terms))
    return AreaResult(sigma=sigma, method=AREA_METHOD, abs_error_estimate=float(rounding))


def polygon_sigma_exact(plane: PlaneId, verts: np.ndarray) -> np.ndarray:
    """Signed weighted area of polygons given as (..., n, 2) vertex arrays.

    The same per-edge sums as area(), vectorized over leading axes and without
    the plane-domain check; the traversal order of the vertices carries the
    sign.  Used for Monte Carlo sweeps of jittered vertices.
    """
    return _finite_sum(_edge_integrals(plane, np.asarray(verts, dtype=float)))


def is_degenerate(loop: LoopSpec) -> bool:
    """True for a polyline whose shoelace area is below the loop's own resolution.

    The shoelace is taken relative to the first vertex and compared with
    extent * max(extent, largest |coordinate|) times _DEGENERATE_AREA_EPS:
    a fraction of the extent squared, or of the area that the rounding of
    the coordinates can fake.  So a small loop or one far from the origin
    keeps its area, and a collinear path reads 0 wherever it lies.
    """
    if isinstance(loop.shape, Rect):
        return False
    verts = np.asarray(loop.shape.vertices, dtype=float)
    extent = float(np.max(np.ptp(verts, axis=0)))
    scale = extent * max(extent, float(np.max(np.abs(verts))))
    return abs(_shoelace(verts - verts[0])) <= _DEGENERATE_AREA_EPS * scale


# ---------------------------------------------------------------------------
# Boundary discretization (shared by the dynamical oracles)


def boundary_vertices(loop: LoopSpec) -> np.ndarray:
    """Loop corner points in traversal order; counterclockwise iff orientation = +1."""
    verts = _ccw_vertices(loop.shape)
    if loop.orientation == -1:
        verts = np.roll(verts[::-1], 1, axis=0)
    return verts


class EdgeRun(NamedTuple):
    """`count` equal steps along one straight edge from `start` to `end`, `length` long."""

    start: np.ndarray
    end: np.ndarray
    count: int
    length: float

    @property
    def axis_aligned(self) -> bool:
        """Only one plane coordinate moves, so every step of the run is the same map."""
        return bool(self.start[0] == self.end[0] or self.start[1] == self.end[1])


def check_integer(name: str, value) -> None:
    """Reject a size that is not an integer (a float, NaN or 20.5 or 64.0, or a bool), naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_steps_cover_edges(steps: int, edges: int) -> None:
    """Reject a split of `steps` over more edges than steps: every edge needs a step."""
    if steps < edges:
        raise ValueError(
            f"{steps} steps are fewer than the loop's {edges} edges, which need one each"
        )


def edge_lengths(delta: np.ndarray) -> np.ndarray:
    """Lengths of the (n, 2) plane vectors `delta`, none of which overflows.

    sqrt(d . d) rounds as np.linalg.norm does, and that last bit splits a
    regular polygon's equal edges in boundary_runs; past 1e150, where d . d
    could overflow, every length is np.hypot, which does not square.
    """
    if np.abs(delta).max() < 1e150:
        return np.sqrt((delta[:, None, :] @ delta[:, :, None]).ravel())
    return np.hypot(delta[:, 0], delta[:, 1])


def _edges(loop: LoopSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(corners, the corner each edge ends at, edge lengths), in traversal order."""
    verts = boundary_vertices(loop)
    ends = np.concatenate((verts[1:], verts[:1]))
    return verts, ends, edge_lengths(ends - verts)


def boundary_edges(loop: LoopSpec) -> list[EdgeRun]:
    """The boundary in traversal order as its edges, one step each, with no split to validate."""
    return [EdgeRun(*edge, 1, float(length)) for *edge, length in zip(*_edges(loop))]


def boundary_runs(loop: LoopSpec, steps: int) -> list[EdgeRun]:
    """The boundary in traversal order as per-edge runs; `steps` split by edge length.

    A loop so long that `steps` times its length overflows raises ValueError.
    """
    verts, ends, lengths = _edges(loop)
    n = len(verts)
    total = float(np.sum(lengths))
    if not math.isfinite(steps * total):
        raise ValueError("edge lengths overflow double precision; the loop reaches too far")
    if total == 0.0:
        return [EdgeRun(verts[0], verts[0], steps, 0.0)]
    check_steps_cover_edges(steps, n)
    counts = np.maximum(1, np.floor(steps * lengths / total).astype(int))
    while int(np.sum(counts)) < steps:
        counts[int(np.argmax(lengths / counts))] += 1
    while int(np.sum(counts)) > steps:
        reducible = np.where(counts > 1)[0]
        counts[reducible[int(np.argmin((lengths / counts)[reducible]))]] -= 1
    return [
        EdgeRun(start, end, int(count), float(length))
        for start, end, count, length in zip(verts, ends, counts, lengths)
    ]


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
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed loop record: {exc}") from exc
    return LoopSpec(plane, shape, orientation)

