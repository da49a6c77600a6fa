import math

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import expm

from hologate import connection, fock, kicked, loops
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

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


def expm_skew_hermitian(generators):
    """exp(X) for a stack (..., n, n) of skew-Hermitian X, through one stacked eigh.

    Built as I + V (exp(-iw) - 1) V^dag, with exp(-iw) - 1 = -2 sin^2(w/2) - i sin w,
    so a near-identity exponential carries rounding relative to |X|, not to 1.
    """
    w, v = np.linalg.eigh(1j * generators)
    shift = -2.0 * np.sin(0.5 * w) ** 2 - 1j * np.sin(w)
    return np.eye(w.shape[-1]) + (v * shift[..., None, :]) @ v.conj().swapaxes(-1, -2)


def ordered_product(mats):
    """mats[-1] @ ... @ mats[0] for a (n, d, d) stack, by pairwise halving."""
    while len(mats) > 1:
        paired = mats[1::2] @ mats[0 : len(mats) - 1 : 2]
        mats = np.concatenate([paired, mats[-1:]]) if len(mats) % 2 else paired
    return mats[0]


def matrix_magnus_transport(loop, cutoff, steps):
    """The transport as a generic code_dim x code_dim matrix ODE.

    The reference for connection.holonomy_path_ordered's closed-form SU(2)
    algebra: X = -(d_outer A_o + d_inner A_i) as full matrices, one eigh
    exponential per axis-aligned edge, and on a tilted edge one fourth-order
    Magnus step Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2], B = X / count, per
    sub-interval, each exponentiated by eigh and multiplied in order.
    """
    factory = connection.frame_factory(loop.plane, cutoff)
    holonomy = np.eye(factory.code_dim, dtype=complex)
    for run in loops.boundary_runs(loop, steps):
        (o0, i0), (o1, i1) = factory.split(*run.start), factory.split(*run.end)
        d_outer, d_inner = o1 - o0, i1 - i0
        if run.axis_aligned:
            x = -(d_outer * factory.outer_connection(i0)[0] + d_inner * factory.inner_connection)
            holonomy = expm_skew_hermitian(x) @ holonomy
            continue
        b1, b2 = (
            -(d_outer * factory.outer_connection(i0 + d_inner * node / run.count,
                                                 d_inner / run.count, run.count)
              + d_inner * factory.inner_connection) / run.count
            for node in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
        )
        omega = 0.5 * (b1 + b2) - math.sqrt(3.0) / 12.0 * (b1 @ b2 - b2 @ b1)
        holonomy = ordered_product(expm_skew_hermitian(omega)) @ holonomy
    return holonomy


@st.composite
def convex_polygons(draw, planes=(PlaneId.I, PlaneId.III)):
    """Convex polygons in a small window: angles on a circle around a center."""
    plane = draw(st.sampled_from(planes))
    center = (draw(st.floats(0.08, 0.12)), draw(st.floats(0.08, 0.12)))
    radius = draw(st.floats(0.02, 0.07))
    count = draw(st.integers(3, 7))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=count, max_size=count))
    angles = np.cumsum(gaps) * 2.0 * math.pi / sum(gaps)
    verts = tuple(
        (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)) for a in angles
    )
    return LoopSpec(plane, Polyline(verts))


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
