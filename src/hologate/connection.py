"""Wilczek-Zee connection, curvature, and path-ordered holonomy over dressed frames.

The dressed code frame at a plane point is D(lambda) S(mu) |a> for the
single-mode planes and N(xi) M(zeta) |ab> for plane III (squeeze innermost).
The connection A_mu[a, b] = <phi_a | d_mu phi_b> is estimated by central
differences, the curvature by nested differences, and the loop holonomy by an
ordered product of re-unitarized frame-overlap matrices.

Raw holonomies come out in the dressed-frame code basis.  That basis differs
from the gate convention (Sigma1/Sigma2/Sigma12 per plane) by a constant
change of code basis which carries no physics; the frozen CALIBRATION maps one
onto the other.  calibrate() re-derives the frozen choice numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import fock, gates
from . import loops as loops_mod
from .exceptions import ConvergenceFailureError, StepCancellationError
from .fock import ControlPoint
from .loops import LoopSpec, PlaneId, Rect

DEFAULT_FD_STEP = 1e-4
DEFAULT_CURVATURE_FD_STEP = 1e-3
_FD_STEP_RANGE = (1e-6, 1e-2)
_CANCELLATION_NOISE_LIMIT = 1e-4

# Loop used to pin the frame calibration and the oracle convergence checks.
CALIBRATION_RECT = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))


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
    fd_step: float
    antihermitian_defect: float


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple[float, float]
    matrix: np.ndarray  # curvature two-form component F_{uv} on the code space
    coefficient: float  # weight w with V F V^dag = i * w * G_plane (calibrated basis)
    residual: float  # off-generator remainder of the calibrated curvature


class FrameFactory:
    """Builds dressed code frames on one plane with cached eigendecompositions.

    The map (u, v) -> frame extends smoothly to negative amplitudes, which the
    finite-difference stencils need at the r = 0 boundary.
    """

    def __init__(self, plane: PlaneId, cutoff: int):
        fock.check_code_below_top_quartile(cutoff)
        self.plane = plane
        self.cutoff = cutoff
        if plane is PlaneId.III:
            self.code = fock.code_states(cutoff, mode_count=2)
            self._inner = fock.Propagator(fock.two_mode_squeeze_generator(1.0, cutoff).matrix)
            self._outer = fock.Propagator(fock.two_mode_mix_generator(1.0, cutoff).matrix)
        else:
            self.code = fock.code_states(cutoff, mode_count=1)
            phase = 1.0 if plane is PlaneId.I else 1.0j
            self._inner = fock.Propagator(fock.squeeze_generator(phase, cutoff).matrix)
            self._outer = fock.Propagator(fock.displacement_generator(1.0, cutoff).matrix)
        self.code_dim = self.code.shape[1]
        self.dim = self.code.shape[0]

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


def _connection_components(
    factory: FrameFactory, u: float, v: float, fd_step: float
) -> tuple[np.ndarray, np.ndarray, float]:
    center = factory.frame(u, v)
    raw_u = center.conj().T @ (
        (factory.frame(u + fd_step, v) - factory.frame(u - fd_step, v)) / (2.0 * fd_step)
    )
    raw_v = center.conj().T @ (
        (factory.frame(u, v + fd_step) - factory.frame(u, v - fd_step)) / (2.0 * fd_step)
    )
    defect = max(
        float(np.linalg.norm(raw_u + raw_u.conj().T)),
        float(np.linalg.norm(raw_v + raw_v.conj().T)),
    )
    a_u = 0.5 * (raw_u - raw_u.conj().T)
    a_v = 0.5 * (raw_v - raw_v.conj().T)
    return a_u, a_v, defect


def connection_at(
    point: ControlPoint,
    plane: PlaneId,
    cutoff: int,
    fd_step: float = DEFAULT_FD_STEP,
) -> ConnectionSample:
    """Central-difference connection components along the two plane directions."""
    if not (_FD_STEP_RANGE[0] <= fd_step <= _FD_STEP_RANGE[1]):
        raise ValueError(f"fd_step must lie in {_FD_STEP_RANGE}, got {fd_step}")
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)
    a_u, a_v, defect = _connection_components(factory, u, v, fd_step)
    if defect > _CANCELLATION_NOISE_LIMIT:
        raise StepCancellationError(
            f"anti-Hermitian defect {defect:.3e} exceeds {_CANCELLATION_NOISE_LIMIT:.0e}; "
            "fd_step is too small for this cutoff"
        )
    return ConnectionSample(
        point=(u, v), A_u=a_u, A_v=a_v, fd_step=fd_step, antihermitian_defect=defect
    )


def curvature_at(
    point: ControlPoint,
    plane: PlaneId,
    cutoff: int,
    fd_step: float = DEFAULT_CURVATURE_FD_STEP,
    connection_fd_step: float = DEFAULT_FD_STEP,
) -> CurvatureSample:
    """Curvature F = dA + A ^ A by nested central differences.

    The returned coefficient w satisfies V F V^dag ~= i * w * G_plane in the
    calibrated basis, so the loop holonomy exp(-i * G * sigma) corresponds to
    sigma = integral of w over the enclosed region.
    """
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)

    def conn(du: float, dv: float):
        return _connection_components(factory, u + du, v + dv, connection_fd_step)[:2]

    a_u, a_v = conn(0.0, 0.0)
    _, a_v_up = conn(fd_step, 0.0)
    _, a_v_dn = conn(-fd_step, 0.0)
    a_u_up, _ = conn(0.0, fd_step)
    a_u_dn, _ = conn(0.0, -fd_step)
    f_uv = (
        (a_v_up - a_v_dn) / (2.0 * fd_step)
        - (a_u_up - a_u_dn) / (2.0 * fd_step)
        + a_u @ a_v
        - a_v @ a_u
    )
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


def _frame_at(
    factory: FrameFactory, phase_gauge: Callable[[float, float], np.ndarray] | None
) -> Callable[[np.ndarray], np.ndarray]:
    def frame_at(p):
        cols = factory.frame(p[0], p[1])
        if phase_gauge is not None:
            cols = cols * np.asarray(phase_gauge(p[0], p[1]))[None, :]
        return cols

    return frame_at


def _stepped_product(
    frame_at: Callable[[np.ndarray], np.ndarray],
    points: np.ndarray,
    holonomy: np.ndarray,
    prev: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Extend `holonomy` by one re-unitarized overlap per step along `points`.

    `prev` is the frame at points[0] when the caller already has it.  Returns
    the extended holonomy and the frame at the last point.
    """
    if prev is None:
        prev = frame_at(points[0])
    for p in points[1:]:
        cur = frame_at(p)
        holonomy = polar_unitary(cur.conj().T @ prev) @ holonomy
        prev = cur
    return holonomy, prev


def _ordered_frame_product(
    factory: FrameFactory,
    points: np.ndarray,
    phase_gauge: Callable[[float, float], np.ndarray] | None,
) -> np.ndarray:
    """Ordered product of re-unitarized frame overlaps, one per step along `points`."""
    identity = np.eye(factory.code_dim, dtype=complex)
    return _stepped_product(_frame_at(factory, phase_gauge), points, identity)[0]


def _edge_run_product(
    factory: FrameFactory,
    runs: list[loops_mod.EdgeRun],
    phase_gauge: Callable[[float, float], np.ndarray] | None,
) -> np.ndarray:
    """The same ordered product over the boundary runs, in traversal order.

    On an axis-aligned run only the outer or only the inner control moves, so
    every step's overlap is the same matrix and the run contributes that one
    re-unitarized overlap raised to the run's step count.  A phase gauge
    varies along every edge, so gauged products take each step.
    """
    frame_at = _frame_at(factory, phase_gauge)
    holonomy = np.eye(factory.code_dim, dtype=complex)
    prev = None  # frame at the start of the current run, when already built
    for run in runs:
        if phase_gauge is None and run.axis_aligned:
            start = prev if prev is not None else frame_at(run.start)
            step = polar_unitary(frame_at(run.first_step()).conj().T @ start)
            holonomy = np.linalg.matrix_power(step, run.count) @ holonomy
            prev = None
        else:
            holonomy, prev = _stepped_product(frame_at, run.points(), holonomy, prev)
    return holonomy


def holonomy_path_ordered(
    loop: LoopSpec,
    cutoff: int,
    steps: int,
    tolerance: float | None = None,
    phase_gauge: Callable[[float, float], np.ndarray] | None = None,
) -> gates.GateMatrix:
    """Path-ordered holonomy of the dressed frame around the loop boundary.

    The boundary is split into `steps` segments and the ordered product of
    re-unitarized frame-overlap matrices <phi_a(p_{k+1}) | phi_b(p_k)> is
    accumulated; an axis-aligned edge takes its constant overlap to the power
    of its step count, which is the same product.  The result lives in the raw
    dressed-frame basis; use calibrated_code_matrix() to compare with the
    area-formula gates.  A run at steps/2 provides the convergence estimate.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    check_loop_truncation(loop, cutoff)
    factory = frame_factory(loop.plane, cutoff)
    runs = loops_mod.boundary_runs(loop, steps)
    holonomy = _edge_run_product(factory, runs, phase_gauge)
    coarse_runs = loops_mod.boundary_runs(loop, max(steps // 2, 4))
    coarse = _edge_run_product(factory, coarse_runs, phase_gauge)
    convergence = float(np.linalg.norm(holonomy - coarse))
    if tolerance is not None and convergence > tolerance:
        raise ConvergenceFailureError(
            f"holonomy steps-halving discrepancy {convergence:.3e} exceeds "
            f"tolerance {tolerance:.3e}"
        )
    defect = float(np.linalg.norm(holonomy.conj().T @ holonomy - np.eye(factory.code_dim)))
    return gates.GateMatrix(
        factory.code_dim,
        holonomy,
        "connection_oracle",
        unitarity_defect=defect,
        diagnostics={"convergence_estimate": convergence, "steps": steps},
    )


def oracle_vs_formula(
    loop: LoopSpec,
    cutoff: int,
    steps: int,
    tolerance: float | None = None,
) -> dict:
    """Path-ordered oracle against the area-formula gate, in the gate basis."""
    oracle = holonomy_path_ordered(loop, cutoff, steps, tolerance=tolerance)
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
