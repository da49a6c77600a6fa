"""Per-edge transport and kicks against the per-step products.

The transport takes one exact exponential per axis-aligned edge and Magnus
steps on tilted ones; the stepped product of re-unitarized frame overlaps
(conftest.stepped_holonomy) converges onto it as 1/steps^2.  On an
axis-aligned edge every kick is the same matrix, so the kicked route applies
that one matrix count times; here the per-step kicks are rebuilt from
discretize_boundary points and compared with it.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from hologate import connection, fock, kicked, loops
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import stepped_holonomy

STEPS = 400
KICKS = 256
CUTOFF = {PlaneId.I: 40, PlaneId.II: 40, PlaneId.III: 12}

SHAPES = {
    "rect-I": (PlaneId.I, Rect(-0.05, 0.1, 0.02, 0.12)),
    "rect-II": (PlaneId.II, Rect(0.0, 0.1, 0.0, 0.08)),
    "rect-III": (PlaneId.III, Rect(0.02, 0.14, 0.01, 0.12)),
    # one axis-aligned edge, two tilted ones
    "polyline-I": (PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.0), (0.05, 0.1)))),
}

CASES = [
    pytest.param(LoopSpec(plane, shape, orientation), id=f"{name}-{orientation:+d}")
    for name, (plane, shape) in SHAPES.items()
    for orientation in (1, -1)
]


def plane2_rect_transport(loop):
    """exp(L A_u(v1)) exp(-L A_u(v0)) for A_u(r) = -i (cosh 2r sigma_y + sinh 2r sigma_x).

    Plane II's transport is not the area-formula gate; this is its closed form
    in the raw frame basis (A_v = 0), inverted for clockwise traversal.
    """
    rect = loop.shape
    length = rect.u_max - rect.u_min

    def a_u(r):
        return np.array(
            [[0.0, -math.cosh(2 * r) - 1j * math.sinh(2 * r)],
             [math.cosh(2 * r) - 1j * math.sinh(2 * r), 0.0]]
        )

    hol = expm(length * a_u(rect.v_max)) @ expm(-length * a_u(rect.v_min))
    return hol if loop.orientation == 1 else hol.conj().T


def exact_reference(loop):
    """The closed-form transport in the raw frame basis."""
    if loop.plane is PlaneId.II:
        return plane2_rect_transport(loop)
    return connection.formula_gate_in_frame(loop)


def stepped_kicked(loop, cutoff, kick_count):
    factory = connection.frame_factory(loop.plane, cutoff)
    mode_count = 2 if loop.plane is PlaneId.III else 1
    dwell = fock.kerr_phases(kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T, cutoff, mode_count)
    points = loops.discretize_boundary(loop, kick_count)
    state = kicked._stepped_kicks(factory, dwell, points, factory.code.copy(), lambda s: None)
    overlap = factory.code.conj().T @ state
    leakage = float(np.max(1.0 - np.sum(np.abs(overlap) ** 2, axis=0)))
    return connection.polar_unitary(overlap), leakage


@pytest.mark.parametrize("loop", CASES)
def test_connection_edge_powers_match_stepped_product(loop):
    cutoff = CUTOFF[loop.plane]
    exact = connection.holonomy_path_ordered(loop, cutoff, STEPS).matrix
    # the stepped product converges onto the exact transport as 1/steps^2
    errors = [np.linalg.norm(stepped_holonomy(loop, cutoff, n) - exact) for n in (STEPS, 2 * STEPS)]
    assert 3.5 < errors[0] / errors[1] < 4.5, errors
    # and the exact transport is the closed-form gate
    assert np.linalg.norm(exact - exact_reference(loop)) < 1e-11


@pytest.mark.parametrize("loop", CASES)
def test_kicked_edge_powers_match_stepped_kicks(loop):
    cutoff = CUTOFF[loop.plane]
    schedule = KickSchedule(loop, KICKS, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    code_map, leakage = stepped_kicked(loop, cutoff, KICKS)
    assert np.max(np.abs(result.code_map - code_map)) < 1e-10
    assert abs(result.leakage - leakage) < 1e-10
    profile = kicked.leakage_profile(schedule)
    assert len(profile) == KICKS
    assert abs(profile[-1][1] - result.leakage) < 1e-12


@pytest.mark.parametrize("plane", [PlaneId.I, PlaneId.III])
def test_edge_step_equals_control_product(plane):
    factory = connection.frame_factory(plane, CUTOFF[plane])
    identity = np.eye(factory.dim, dtype=complex)
    p0 = np.array([0.11, 0.07])
    for p1 in (np.array([0.11, 0.0703]), np.array([0.1097, 0.07])):
        applied = factory.control_apply_dagger(*p1, factory.control_apply(*p0, identity))
        assert np.max(np.abs(factory.edge_step(p0, p1) - applied)) < 1e-12
    with pytest.raises(ValueError):
        factory.edge_step(p0, np.array([0.12, 0.08]))


def test_rect_transport_builds_frames_per_edge_not_per_step(monkeypatch):
    loop = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    factory = connection.frame_factory(PlaneId.I, CUTOFF[PlaneId.I])
    calls = []
    original = connection.FrameFactory.frame

    def counted(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(connection.FrameFactory, "frame", counted)
    connection.holonomy_path_ordered(loop, factory.cutoff, 2000)
    # the transport needs no frames: only the 4 corner truncation checks build one
    assert len(calls) == 4
