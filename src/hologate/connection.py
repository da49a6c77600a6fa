"""Wilczek-Zee connection, curvature, and path-ordered holonomy over dressed frames.

The dressed code frame at a plane point is F(o, i) = O(o) I(i) c: the outer
control propagator O (displacement D on planes I/II, two-mode mix N on plane
III) after the inner one I (squeeze S, two-mode squeeze M), applied to the
code columns c.  Each propagator commutes with its own generator, so the
connection A_mu = F^dag d_mu F is exact:

    A_o(i) = c^dag I(i)^dag G_o I(i) c      (depends on the inner control only)
    A_i    = c^dag G_i c                     (constant)

and the curvature needs d_i A_o = c^dag I^dag [G_o, G_i] I c, not nested
differences.  The loop holonomy is the path-ordered exponential of -A along
the boundary: one exact exponential per axis-aligned edge, fourth-order
Magnus steps on tilted ones.

Raw holonomies come out in the dressed-frame code basis.  That basis differs
from the gate convention (Sigma1/Sigma2/Sigma12 per plane) by a constant
change of code basis which carries no physics; the frozen CALIBRATION maps one
onto the other.  calibrate() re-derives the frozen choice numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, gates
from . import loops as loops_mod
from .fock import ControlPoint
from .loops import LoopSpec, PlaneId, Rect

# Loop used to pin the frame calibration and the oracle convergence checks.
CALIBRATION_RECT = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))

# Magnus sub-intervals per batch (two connection nodes each): bounds the work
# arrays of a tilted edge at a few hundred kB whatever its sub-interval count.
MAGNUS_BATCH = 32

# Two-node Gauss-Legendre points on [0, 1] for the fourth-order Magnus step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class DressedFrame:
    """Orthonormal code basis dressed by the control operators at one point."""

    point: ControlPoint
    plane: PlaneId
    cutoff: int
    basis_vectors: np.ndarray  # (dim, code_dim) columns in code order

    @property
    def orthonormality_defect(self) -> float:
        gram = self.basis_vectors.conj().T @ self.basis_vectors
        return float(np.linalg.norm(gram - np.eye(gram.shape[0])))


@dataclass(frozen=True)
class ConnectionSample:
    point: tuple[float, float]
    A_u: np.ndarray
    A_v: np.ndarray
    antihermitian_defect: float  # rounding left in the exact components


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple[float, float]
    matrix: np.ndarray  # curvature two-form component F_{uv} on the code space
    coefficient: float  # weight w with V F V^dag = i * w * G_plane (calibrated basis)
    residual: float  # off-generator remainder of the calibrated curvature


class FrameFactory:
    """Dressed code frames and their exact connection on one plane.

    Frames go through cached eigendecompositions of the two control
    generators.  The connection is evaluated in the inner eigenbasis V, where
    I(i) is the diagonal phase exp(-i i w):  A_o(i) = y^dag (V^dag G_o V) y
    with y = exp(-i i w) * V^dag c.  V spans only the conserved-number
    sectors of G_i that hold code states (both parities on planes I/II,
    n1 - n2 in {0, +1, -1} on plane III), since I(i) c never leaves them.
    """

    def __init__(self, plane: PlaneId, cutoff: int):
        fock.check_code_below_top_quartile(cutoff)
        self.plane = plane
        self.cutoff = cutoff
        if plane is PlaneId.III:
            self.code = fock.code_states(cutoff, mode_count=2)
            inner = fock.two_mode_squeeze_generator(1.0, cutoff).matrix
            outer = fock.two_mode_mix_generator(1.0, cutoff).matrix
        else:
            self.code = fock.code_states(cutoff, mode_count=1)
            phase = 1.0 if plane is PlaneId.I else 1.0j
            inner = fock.squeeze_generator(phase, cutoff).matrix
            outer = fock.displacement_generator(1.0, cutoff).matrix
        self._inner = fock.Propagator(inner)
        self._outer = fock.Propagator(outer)
        self.code_dim = self.code.shape[1]
        self.dim = self.code.shape[0]
        w, v = fock.touched_eigenpairs(inner, self.code)
        self._inner_values = w
        self._code_eig = v.conj().T @ self.code
        outer_eig = v.conj().T @ outer @ v
        self._outer_eig = 0.5 * (outer_eig - outer_eig.conj().T)
        self.inner_connection = self.code.conj().T @ inner @ self.code

    def _split(self, u: float, v: float) -> tuple[float, float]:
        """Plane coordinates as (outer, inner) control parameters."""
        return (v, u) if self.plane is PlaneId.III else (u, v)

    def frame(self, u: float, v: float) -> np.ndarray:
        """Columns of the dressed code basis at plane point (u, v)."""
        outer, inner = self._split(u, v)
        return self._outer.apply(outer, self._inner.apply(inner, self.code))

    def control_apply(self, u: float, v: float, state: np.ndarray) -> np.ndarray:
        """Apply the full control unitary C(u, v) to an arbitrary state block."""
        outer, inner = self._split(u, v)
        return self._outer.apply(outer, self._inner.apply(inner, state))

    def control_apply_dagger(self, u: float, v: float, state: np.ndarray) -> np.ndarray:
        outer, inner = self._split(u, v)
        return self._inner.apply(-inner, self._outer.apply(-outer, state))

    def edge_step(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """C(p1)^dag C(p0) as a dense matrix, for two points that share one coordinate.

        When only the inner control moves, the outer factors cancel.  When only
        the outer one moves, the step is the outer propagator conjugated by the
        fixed inner one.
        """
        outer0, inner0 = self._split(p0[0], p0[1])
        outer1, inner1 = self._split(p1[0], p1[1])
        if outer0 == outer1:
            return self._inner.matrix(inner0 - inner1)
        if inner0 != inner1:
            raise ValueError("edge_step needs two points that share one plane coordinate")
        return self._outer.matrix(outer0 - outer1, self._inner.apply(-inner0, self._outer.vectors))

    def _sandwich(self, middle: np.ndarray, inner: np.ndarray) -> np.ndarray:
        """y^dag middle y for y = I(i) c in the inner eigenbasis, at each inner value."""
        inner = np.asarray(inner, dtype=float).reshape(-1)
        # y is (k, nodes, code_dim), so that one (k, k) x (k, nodes * code_dim) product serves all
        phases = np.exp(-1j * np.outer(self._inner_values, inner))
        y = phases[:, :, None] * self._code_eig[:, None, :]
        my = (middle @ y.reshape(y.shape[0], -1)).reshape(y.shape)
        return y.transpose(1, 2, 0).conj() @ my.transpose(1, 0, 2)

    def outer_connection(self, inner: np.ndarray) -> np.ndarray:
        """A_o at each inner control value, shape (len(inner), code_dim, code_dim)."""
        return self._sandwich(self._outer_eig, inner)

    def connection(self, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
        """(A_u, A_v) at plane point (u, v)."""
        _, inner = self._split(u, v)
        a_outer = self.outer_connection([inner])[0]
        if self.plane is PlaneId.III:
            return self.inner_connection, a_outer
        return a_outer, self.inner_connection

    def curvature(self, u: float, v: float) -> np.ndarray:
        """F_uv = d_u A_v - d_v A_u + [A_u, A_v] at plane point (u, v).

        With F_io = d_i A_o + [A_i, A_o], F_uv is F_io on plane III (u is the
        inner control) and -F_io on planes I/II.
        """
        _, inner = self._split(u, v)
        a_outer = self.outer_connection([inner])[0]
        # V^dag [G_o, G_i] V, with V^dag G_i V = diag(-i w)
        w = self._inner_values
        d_inner = self._sandwich(1j * (w[:, None] - w[None, :]) * self._outer_eig, [inner])[0]
        a_inner = self.inner_connection
        f_io = d_inner + a_inner @ a_outer - a_outer @ a_inner
        return f_io if self.plane is PlaneId.III else -f_io


@lru_cache(maxsize=8)
def frame_factory(plane: PlaneId, cutoff: int) -> FrameFactory:
    return FrameFactory(plane, cutoff)


# ---------------------------------------------------------------------------
# Frozen frame calibration


def _swap_matrix_23() -> np.ndarray:
    mat = np.eye(4, dtype=complex)
    mat[[2, 3]] = mat[[3, 2]]
    return mat


# Constant code-basis change V with V Gamma_raw V^dag = exp(-i G_plane * CALIBRATION_SIGN * sigma).
CALIBRATION_GAUGE = {
    PlaneId.I: np.diag([1.0, 1.0j]).astype(complex),
    PlaneId.II: np.diag([1.0, 1.0j]).astype(complex),
    PlaneId.III: _swap_matrix_23(),
}
CALIBRATION_SIGN = 1


def calibrated_code_matrix(plane: PlaneId, raw: np.ndarray) -> np.ndarray:
    """Map a raw dressed-frame code matrix into the gate-convention basis."""
    v = CALIBRATION_GAUGE[plane]
    return v @ raw @ v.conj().T


def formula_gate_in_frame(loop: LoopSpec) -> np.ndarray:
    """The area-formula gate expressed in the raw dressed-frame basis."""
    v = CALIBRATION_GAUGE[loop.plane]
    return v.conj().T @ gates.gate_for_loop(loop).matrix @ v


# ---------------------------------------------------------------------------
# Operations


def plane_point(plane: PlaneId, u: float, v: float) -> ControlPoint:
    """ControlPoint at plane coordinates (u, v), all other controls pinned."""
    if plane is PlaneId.I:
        return ControlPoint(x=u, r1=v, theta1=0.0)
    if plane is PlaneId.II:
        return ControlPoint(x=u, r1=v, theta1=math.pi / 2.0)
    return ControlPoint(r2=u, r3=v)


def plane_coordinates(point: ControlPoint, plane: PlaneId) -> tuple[float, float]:
    """(u, v) of a point that lies in the given plane; rejects off-plane points."""

    def pinned(*names):
        for name in names:
            if not math.isclose(getattr(point, name), 0.0, abs_tol=1e-12):
                raise ValueError(f"point is not in plane {plane.value}: {name} != 0")

    if plane in (PlaneId.I, PlaneId.II):
        pinned("y", "r2", "theta2", "r3", "theta3")
        target = 0.0 if plane is PlaneId.I else math.pi / 2.0
        if point.r1 > 0 and not math.isclose(point.theta1, target, abs_tol=1e-12):
            raise ValueError(f"point is not in plane {plane.value}: theta1 != {target}")
        return point.x, point.r1
    pinned("x", "y", "r1", "theta1", "theta2", "theta3")
    return point.r2, point.r3


def dressed_frame(point: ControlPoint, plane: PlaneId, cutoff: int) -> DressedFrame:
    """Dressed code basis D(lambda)S(mu)|a> (planes I/II) or N(xi)M(zeta)|ab> (plane III)."""
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    vectors = factory.frame(u, v)
    _warn_on_frame_truncation(vectors, cutoff, plane)
    return DressedFrame(point=point, plane=plane, cutoff=cutoff, basis_vectors=vectors)


def _warn_on_frame_truncation(vectors: np.ndarray, cutoff: int, plane: PlaneId) -> None:
    mode_count = 2 if plane is PlaneId.III else 1
    population = fock.top_quartile_population(vectors, cutoff, mode_count)
    fock.warn_if_truncated(population, f"dressed frame on plane {plane.value}")


def check_loop_truncation(loop: LoopSpec, cutoff: int) -> None:
    """Warn when the dressed frames at the loop corners stress the cutoff."""
    factory = frame_factory(loop.plane, cutoff)
    for u, v in loops_mod.boundary_vertices(loop):
        _warn_on_frame_truncation(factory.frame(u, v), cutoff, loop.plane)


def connection_at(point: ControlPoint, plane: PlaneId, cutoff: int) -> ConnectionSample:
    """Exact connection components along the two plane directions."""
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)
    a_u, a_v = factory.connection(u, v)
    defect = max(
        float(np.linalg.norm(a_u + a_u.conj().T)), float(np.linalg.norm(a_v + a_v.conj().T))
    )
    return ConnectionSample(point=(u, v), A_u=a_u, A_v=a_v, antihermitian_defect=defect)


def curvature_at(point: ControlPoint, plane: PlaneId, cutoff: int) -> CurvatureSample:
    """Exact curvature F = dA + A ^ A at one plane point.

    The returned coefficient w satisfies V F V^dag ~= i * w * G_plane in the
    calibrated basis, so the loop holonomy exp(-i * G * sigma) corresponds to
    sigma = integral of w over the enclosed region.
    """
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)
    f_uv = factory.curvature(u, v)
    gen = gates.PLANE_GENERATOR[plane].matrix
    calibrated = calibrated_code_matrix(plane, f_uv)
    norm_sq = float(np.real(np.trace(gen @ gen)))
    coefficient = float(np.real(-1j * np.trace(gen.conj().T @ calibrated)) / norm_sq)
    residual = float(np.linalg.norm(calibrated - 1j * coefficient * gen))
    return CurvatureSample(
        point=(u, v), matrix=f_uv, coefficient=coefficient, residual=residual
    )


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Closest unitary to `mat` (the unitary factor of its polar decomposition)."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] for a (n, d, d) stack.

    Pairwise halving: log2(n) batched products, and rounding that grows with
    log n rather than n.
    """
    while len(mats) > 1:
        paired = mats[1::2] @ mats[0 : len(mats) - 1 : 2]
        mats = np.concatenate([paired, mats[-1:]]) if len(mats) % 2 else paired
    return mats[0]


def _run_transport(factory: FrameFactory, run: loops_mod.EdgeRun) -> np.ndarray:
    """Transport along one boundary edge: the path-ordered exponential of -A.

    With t in [0, 1] along the run, dU/dt = X(t) U for
    X = -(d_outer * A_o(i(t)) + d_inner * A_i).  On an axis-aligned run X is
    constant and the transport is exp(X).  A tilted run takes `count`
    fourth-order Magnus steps, each from X at the two Gauss-Legendre nodes of
    its sub-interval: Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2], B = X / count.
    """
    outer0, inner0 = factory._split(*run.start)
    outer1, inner1 = factory._split(*run.end)
    d_outer, d_inner = outer1 - outer0, inner1 - inner0
    if run.axis_aligned:
        a_outer = factory.outer_connection([inner0])[0]
        return fock.expm_skew_hermitian(-(d_outer * a_outer + d_inner * factory.inner_connection))
    dim = factory.code_dim
    transport = np.eye(dim, dtype=complex)
    for start in range(0, run.count, MAGNUS_BATCH):
        steps = np.arange(start, min(start + MAGNUS_BATCH, run.count))
        nodes = (steps[:, None] + _GAUSS_NODES[None, :]) / run.count
        a_outer = factory.outer_connection(inner0 + d_inner * nodes)
        b = -(d_outer * a_outer + d_inner * factory.inner_connection) / run.count
        b1, b2 = b.reshape(steps.size, 2, dim, dim).swapaxes(0, 1)
        omega = 0.5 * (b1 + b2) - _MAGNUS_COMMUTATOR * (b1 @ b2 - b2 @ b1)
        transport = _ordered_product(fock.expm_skew_hermitian(omega)) @ transport
    return transport


def _transport(factory: FrameFactory, runs: list[loops_mod.EdgeRun]) -> np.ndarray:
    holonomy = np.eye(factory.code_dim, dtype=complex)
    for run in runs:
        holonomy = _run_transport(factory, run) @ holonomy
    return holonomy


def holonomy_path_ordered(loop: LoopSpec, cutoff: int, steps: int) -> gates.GateMatrix:
    """Path-ordered holonomy of the exact Wilczek-Zee connection around the loop.

    The boundary is split into `steps` sub-intervals by edge length
    (loops.boundary_runs).  An axis-aligned edge is one exact exponential,
    whatever its sub-interval count; a tilted edge takes one fourth-order
    Magnus step per sub-interval.  diagnostics["integrator"] is "exact_edge"
    when every edge is axis-aligned and "magnus4" otherwise.  The result
    lives in the raw dressed-frame basis; use calibrated_code_matrix() to
    compare with the area-formula gates.  The same transport at steps/2
    gives the convergence estimate, which is exactly 0 on rectangles.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    check_loop_truncation(loop, cutoff)
    factory = frame_factory(loop.plane, cutoff)
    runs = loops_mod.boundary_runs(loop, steps)
    holonomy = _transport(factory, runs)
    coarse = _transport(factory, loops_mod.boundary_runs(loop, max(steps // 2, 4)))
    convergence = float(np.linalg.norm(holonomy - coarse))
    defect = float(np.linalg.norm(holonomy.conj().T @ holonomy - np.eye(factory.code_dim)))
    integrator = "exact_edge" if all(run.axis_aligned for run in runs) else "magnus4"
    return gates.GateMatrix(
        factory.code_dim,
        holonomy,
        "connection_oracle",
        unitarity_defect=defect,
        diagnostics={
            "convergence_estimate": convergence,
            "steps": steps,
            "integrator": integrator,
        },
    )


def oracle_vs_formula(loop: LoopSpec, cutoff: int, steps: int) -> dict:
    """Path-ordered oracle against the area-formula gate, in the gate basis."""
    oracle = holonomy_path_ordered(loop, cutoff, steps)
    formula = gates.gate_for_loop(loop)
    calibrated = calibrated_code_matrix(loop.plane, oracle.matrix)
    distance = float(np.linalg.norm(calibrated - formula.matrix))
    return {
        "oracle": oracle,
        "oracle_calibrated": calibrated,
        "formula": formula,
        "frobenius_distance": distance,
    }


def calibrate(cutoff: int = 40, steps: int = 800) -> dict:
    """Re-derive the frozen frame calibration from small-rectangle holonomies.

    Searches constant diagonal phase gauges (and, for plane III, the swap of
    the last two code labels) together with a global sign, and returns the
    combination that reproduces the area-formula gates.  Tests assert it
    matches CALIBRATION_GAUGE / CALIBRATION_SIGN.
    """
    single_candidates = [np.diag([1.0, 1.0j ** k]).astype(complex) for k in range(4)]
    swap = _swap_matrix_23()
    two_candidates = [np.eye(4, dtype=complex), swap] + [
        m @ np.diag([1.0, 1.0j ** k, 1.0, 1.0]).astype(complex)
        for m in (np.eye(4, dtype=complex), swap)
        for k in range(1, 4)
    ]
    loops_by_plane = {
        PlaneId.I: CALIBRATION_RECT,
        PlaneId.II: LoopSpec(PlaneId.II, Rect(0.0, 0.1, 0.0, 0.1)),
        PlaneId.III: LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
    }
    result: dict = {"sign": None, "gauges": {}, "distances": {}}
    for plane, loop in loops_by_plane.items():
        plane_cutoff = 14 if plane is PlaneId.III else cutoff
        raw = holonomy_path_ordered(loop, plane_cutoff, steps).matrix
        sigma = loops_mod.area(loop).sigma
        gen = gates.PLANE_GENERATOR[plane]
        candidates = two_candidates if plane is PlaneId.III else single_candidates
        best = None
        for sign in (1, -1):
            target = gates.gate_from_area(gen, sign * sigma).matrix
            for v in candidates:
                dist = float(np.linalg.norm(v @ raw @ v.conj().T - target))
                # prefer +1 on ties: the two signs come in equivalent pairs
                if best is None or dist < best[0] - 1e-12:
                    best = (dist, sign, v)
        dist, sign, v = best
        result["gauges"][plane] = v
        result["distances"][plane] = dist
        if result["sign"] is None:
            result["sign"] = sign
        elif result["sign"] != sign:
            raise RuntimeError("calibration signs disagree between planes")
    return result
