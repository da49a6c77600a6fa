"""Per-edge transport and kicks against the per-step products.

The transport takes one exact exponential per axis-aligned edge and per
tilted edge on planes I and III, and Magnus steps on tilted plane II edges;
the stepped product of re-unitarized frame overlaps
(conftest.stepped_holonomy) converges onto it as 1/steps^2.  On an
axis-aligned edge every kick is the same matrix, so the kicked route raises
it to the edge's kick count by repeated squaring, and on a tilted edge the
kicks go one by one through real-form products; both are compared here with
dense per-kick controls (conftest.stepped_kicks).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hologate import connection, kicked, loops
from hologate.exceptions import TruncationWarning
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import (
    convex_polygons,
    formula_gate_in_frame,
    regular_polygon,
    stepped_holonomy,
    stepped_kicks,
)

STEPS = 400
KICKS = 256
CUTOFF = {PlaneId.I: 40, PlaneId.II: 40, PlaneId.III: 12}

SHAPES = {
    "rect-I": (PlaneId.I, Rect(-0.05, 0.1, 0.02, 0.12)),
    "rect-II": (PlaneId.II, Rect(0.0, 0.1, 0.0, 0.08)),
    "rect-III": (PlaneId.III, Rect(0.02, 0.14, 0.01, 0.12)),
    # one axis-aligned edge, two tilted ones
    "polyline-I": (PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.0), (0.05, 0.1)))),
    # no axis-aligned edge
    "polyline-III": (PlaneId.III, Polyline(((0.02, 0.01), (0.13, 0.04), (0.08, 0.12)))),
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
    return formula_gate_in_frame(loop)


@pytest.mark.parametrize("loop", CASES)
def test_connection_edge_powers_match_stepped_product(loop):
    cutoff = CUTOFF[loop.plane]
    exact = connection.holonomy_path_ordered(loop, cutoff, STEPS).matrix
    # the stepped product converges onto the exact transport as 1/steps^2
    errors = [np.linalg.norm(stepped_holonomy(loop, cutoff, n) - exact) for n in (STEPS, 2 * STEPS)]
    assert 3.5 < errors[0] / errors[1] < 4.5, errors
    # and the exact transport is the closed-form gate
    assert np.linalg.norm(exact - exact_reference(loop)) < 1e-11


# no axis-aligned edge, under plane II's complex squeeze generator; there is no
# closed-form transport to check it against, so it is a kicked case only
POLYLINE_II = Polyline(((0.01, 0.005), (0.1, 0.03), (0.04, 0.08)))

# at the odd cutoff 13 the two plane III parity blocks are unequal: 85 and 84 states
KICK_CASES = [
    pytest.param(case.values[0], CUTOFF[case.values[0].plane], id=case.id) for case in CASES
] + [
    pytest.param(LoopSpec(PlaneId.II, POLYLINE_II, orientation), CUTOFF[PlaneId.II],
                 id=f"polyline-II-{orientation:+d}")
    for orientation in (1, -1)
] + [
    pytest.param(LoopSpec(PlaneId.III, SHAPES[name][1], orientation), 13,
                 id=f"{name}-cutoff13-{orientation:+d}")
    for name in ("rect-III", "polyline-III")
    for orientation in (1, -1)
]


@pytest.mark.parametrize("loop,cutoff", KICK_CASES)
def test_kicked_edge_powers_match_stepped_kicks(loop, cutoff):
    schedule = KickSchedule(loop, KICKS, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    code_map, leakage = stepped_kicks(loop, cutoff, KICKS)
    assert np.max(np.abs(result.code_map - code_map)) < 1e-10
    assert abs(result.leakage - leakage) < 1e-10


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(convex_polygons(), st.integers(64, 128), st.sampled_from([1, -1]))
def test_kicked_polygons_match_stepped_kicks(loop, kicks, orientation):
    loop = LoopSpec(loop.plane, loop.shape, orientation)
    cutoff = 10 if loop.plane is PlaneId.III else 24
    result = kicked.run_kicked(KickSchedule(loop, kicks, cutoff=cutoff))
    code_map, leakage = stepped_kicks(loop, cutoff, kicks)
    assert np.max(np.abs(result.code_map - code_map)) < 1e-10
    assert abs(result.leakage - leakage) < 1e-10


# Rects whose axis-aligned edges take 1 and 64 kicks (thin) or 31 and 16 (wide):
# one matrix product, a pure power of two, and every bit of 2^5 - 1
POWER_SHAPES = {
    "thin-I": (PlaneId.I, Rect(0.0, 0.002, 0.0, 0.128), 130),
    "wide-I": (PlaneId.I, Rect(-0.05, 0.105, 0.02, 0.1), 94),
    "thin-III": (PlaneId.III, Rect(0.02, 0.022, 0.01, 0.138), 130),
    "wide-III": (PlaneId.III, Rect(0.02, 0.175, 0.01, 0.09), 94),
}

POWER_CASES = [
    pytest.param(LoopSpec(plane, rect, orientation), kicks, cutoff,
                 id=f"{name}-cutoff{cutoff}-{orientation:+d}")
    for name, (plane, rect, kicks) in POWER_SHAPES.items()
    for cutoff in ((12, 13) if plane is PlaneId.III else (CUTOFF[plane],))
    for orientation in (1, -1)
]


@pytest.mark.parametrize("loop,kicks,cutoff", POWER_CASES)
def test_kicked_edge_power_counts_match_stepped_kicks(loop, kicks, cutoff):
    counts = sorted({run.count for run in loops.boundary_runs(loop, kicks)})
    assert counts in ([1, 64], [16, 31])
    result = kicked.run_kicked(KickSchedule(loop, kicks, cutoff=cutoff))
    code_map, leakage = stepped_kicks(loop, cutoff, kicks)
    assert np.max(np.abs(result.code_map - code_map)) < 1e-10
    assert abs(result.leakage - leakage) < 1e-13


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


def test_both_routes_refuse_fewer_steps_than_edges():
    # the transport's steps/2 rerun has 50 steps for 60 edges; the kicked run has 40 kicks
    gon = regular_polygon(PlaneId.I, 60)
    with pytest.raises(ValueError, match="60 edges"):
        connection.holonomy_path_ordered(gon, CUTOFF[PlaneId.I], 100)
    with pytest.raises(ValueError, match="60 edges"):
        kicked.run_kicked(KickSchedule(gon, 40, cutoff=CUTOFF[PlaneId.I]))


def test_refused_steps_build_no_frame_and_warn_nothing(monkeypatch):
    # this 60-gon stresses the plane III cutoff 14 at every vertex; the steps/2 split is
    # refused before the truncation check would build a frame there
    gon = regular_polygon(PlaneId.III, 60, center=(0.3, 0.2), radius=0.1)
    calls = []
    original = connection.FrameFactory.frame

    def counted(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(connection.FrameFactory, "frame", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="60 edges"):
            connection.holonomy_path_ordered(gon, 14, 100)
    assert not [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert calls == []
