"""Edge-power transport against the per-step products it replaces.

On an axis-aligned boundary edge every overlap and every kick is the same
matrix, so both dynamical routes take that matrix to the edge's step count.
Here the per-step products are rebuilt from discretize_boundary points through
the stepped code and compared with the public routes.
"""

import numpy as np
import pytest

from hologate import connection, fock, kicked, loops
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

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


def stepped_holonomy(loop, cutoff, steps):
    factory = connection.frame_factory(loop.plane, cutoff)
    points = loops.discretize_boundary(loop, steps)
    return connection._ordered_frame_product(factory, points, None)


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
    oracle = connection.holonomy_path_ordered(loop, cutoff, STEPS)
    fine = stepped_holonomy(loop, cutoff, STEPS)
    coarse = stepped_holonomy(loop, cutoff, STEPS // 2)
    assert np.max(np.abs(oracle.matrix - fine)) < 1e-10
    stepped_convergence = float(np.linalg.norm(fine - coarse))
    assert abs(oracle.diagnostics["convergence_estimate"] - stepped_convergence) < 1e-10


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
    # 4 corner checks plus 2 frames per edge in each of the two passes
    assert len(calls) == 4 + 2 * 4 * 2


def test_gauged_transport_keeps_every_step():
    loop = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    cutoff = CUTOFF[PlaneId.I]
    unit = lambda u, v: np.ones(2)  # noqa: E731
    gauged = connection.holonomy_path_ordered(loop, cutoff, STEPS, phase_gauge=unit)
    assert np.array_equal(gauged.matrix, stepped_holonomy(loop, cutoff, STEPS))
