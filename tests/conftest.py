import math

import numpy as np
import pytest
from scipy.linalg import expm

from hologate import connection, fock, kicked, loops
from hologate.loops import LoopSpec, PlaneId, Rect

SMALL_RECTS = {
    PlaneId.I: connection.CALIBRATION_RECT,
    PlaneId.II: LoopSpec(PlaneId.II, Rect(0.0, 0.1, 0.0, 0.1)),
    PlaneId.III: LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
}

ORACLE_CUTOFF = {PlaneId.I: 60, PlaneId.II: 60, PlaneId.III: 14}


def rect_sigma_closed_form(plane: PlaneId, rect: Rect) -> float:
    """Counterclockwise weighted area of a rectangle, integrated by hand.

    sigma_I/II = (u1 - u0) * (exp(-2 v0) - exp(-2 v1)) and
    sigma_III = (v1 - v0) * (cosh(2 u1) - cosh(2 u0)).
    """
    if plane is PlaneId.III:
        return (rect.v_max - rect.v_min) * (
            math.cosh(2.0 * rect.u_max) - math.cosh(2.0 * rect.u_min)
        )
    return (rect.u_max - rect.u_min) * (
        math.exp(-2.0 * rect.v_min) - math.exp(-2.0 * rect.v_max)
    )


def stepped_product(factory, points, gauge=None):
    """Ordered product of re-unitarized frame overlaps, one per step along `points`.

    The independent reference for the transport: each step multiplies the
    unitary polar factor of F(p_{k+1})^dag F(p_k) on the left, and it
    converges onto the path-ordered exponential as 1/steps^2.  `gauge(u, v)`
    multiplies the frame columns by phases.
    """

    def frame_at(p):
        cols = factory.frame(p[0], p[1])
        return cols if gauge is None else cols * np.asarray(gauge(p[0], p[1]))[None, :]

    holonomy = np.eye(factory.code_dim, dtype=complex)
    prev = frame_at(points[0])
    for p in points[1:]:
        cur = frame_at(p)
        u, _, vh = np.linalg.svd(cur.conj().T @ prev)
        holonomy = (u @ vh) @ holonomy
        prev = cur
    return holonomy


def stepped_holonomy(loop, cutoff, steps, gauge=None):
    """The stepped reference around a loop, at discretize_boundary points."""
    factory = connection.frame_factory(loop.plane, cutoff)
    return stepped_product(factory, loops.discretize_boundary(loop, steps), gauge)


def stepped_kicks(loop, cutoff, kick_count):
    """The kicked route kick by kick, from scipy expm of the fock generators.

    The independent reference for kicked.run_kicked: each kick applies the
    dense control C = exp(o G_o) exp(i G_i) of the previous kick point, then
    C^dag of the next one, then the Kerr dwell expm(-i H dt), at the default
    chi and dt.  Along an edge the controls at the kick points are
    exp(o_0 G) exp(do G)^k.  Returns the re-unitarized code map and the
    leakage, the worst code-population deficit.
    """
    if loop.plane is PlaneId.III:
        mode_count = 2
        inner = fock.two_mode_squeeze_generator(1.0, cutoff).matrix
        outer = fock.two_mode_mix_generator(1.0, cutoff).matrix
    else:
        mode_count = 1
        inner = fock.squeeze_generator(1.0 if loop.plane is PlaneId.I else 1.0j, cutoff).matrix
        outer = fock.displacement_generator(1.0, cutoff).matrix
    kerr = fock.kerr_hamiltonian(kicked.DEFAULT_CHI, cutoff, mode_count).matrix
    dwell = expm(-1j * kicked.DEFAULT_DELTA_T * kerr)
    code = fock.code_states(cutoff, mode_count)
    state = code
    for run in loops.boundary_runs(loop, kick_count):
        # (outer, inner) control values at the two ends of the edge
        ends = [p[::-1] if loop.plane is PlaneId.III else p for p in (run.start, run.end)]
        (o0, i0), (o1, i1) = ends
        outer_k, inner_k = expm(o0 * outer), expm(i0 * inner)
        outer_step = expm((o1 - o0) / run.count * outer)
        inner_step = expm((i1 - i0) / run.count * inner)
        for _ in range(run.count):
            state = outer_k @ (inner_k @ state)
            outer_k, inner_k = outer_k @ outer_step, inner_k @ inner_step
            state = dwell @ (inner_k.conj().T @ (outer_k.conj().T @ state))
    overlap = code.conj().T @ state
    leakage = float(np.max(1.0 - np.sum(np.abs(overlap) ** 2, axis=0)))
    return connection.polar_unitary(overlap), leakage


@pytest.fixture(scope="session")
def stepped_sweeps():
    """Stepped-reference holonomies of the small rectangles at doubling step counts."""
    return {
        plane: {
            steps: stepped_holonomy(loop, ORACLE_CUTOFF[plane], steps)
            for steps in (250, 500, 1000, 2000)
        }
        for plane, loop in SMALL_RECTS.items()
    }


@pytest.fixture(scope="session")
def kicked_sweep():
    """Kicked runs of the calibration rectangle at doubling kick counts, cutoff 40."""
    return {
        k: kicked.run_kicked(kicked.KickSchedule(connection.CALIBRATION_RECT, k, cutoff=40))
        for k in (256, 512, 1024)
    }


@pytest.fixture(scope="session")
def connection_oracle_cutoff40():
    return connection.holonomy_path_ordered(connection.CALIBRATION_RECT, 40, 2000)
