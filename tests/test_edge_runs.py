"""Per-edge transport and kicks against the per-step products.

The transport takes one exact exponential per axis-aligned edge and per
tilted edge on planes I and III, and Magnus steps on tilted plane II edges;
the stepped product of re-unitarized frame overlaps
(conftest.stepped_holonomy) converges onto it as 1/steps^2.  On an
axis-aligned edge every kick is the same matrix, so the kicked route raises
it to the edge's kick count by repeated squaring, and on a tilted edge the
kicks go one by one, all in the paired basis; both are compared here with
dense per-kick controls (conftest.stepped_kicks), and the paired basis with
the same kicks formed densely in the inner eigenbasis
(conftest.v_basis_kicked).
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

import conftest
from conftest import (
    convex_polygons,
    formula_gate_in_frame,
    mixed_polygons,
    regular_polygon,
    stepped_holonomy,
    stepped_kicks,
    v_basis_kicked,
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


# plane III's even block runs on its swap-symmetric half (fock.swap_symmetric_half)
# at both parities of the cutoff: 49 + 84 states at 13, 56 + 98 at 14
HALF_BLOCK_CASES = [
    pytest.param(LoopSpec(PlaneId.III, shape, orientation), cutoff,
                 id=f"{name}-cutoff{cutoff}-{orientation:+d}")
    for name, shape in (("rect", Rect(0.01, 0.16, 0.02, 0.13)),
                        ("hexagon", regular_polygon(PlaneId.III, 6, (0.1, 0.08), 0.06).shape))
    for cutoff in (13, 14)
    for orientation in (1, -1)
] + [
    # tilted edges on the odd block run on its two U halves, one code column each: a loop
    # of tilted edges alone and the hexagon, two of whose edges are axis-aligned, also at
    # cutoff 20, where the halves hold zero modes as at 14 (none at 13)
    pytest.param(LoopSpec(PlaneId.III, shape, orientation), cutoff,
                 id=f"{name}-cutoff{cutoff}-{orientation:+d}")
    for name, shape, cutoffs in (("triangle", SHAPES["polyline-III"][1], (13, 14, 20)),
                                 ("hexagon", regular_polygon(PlaneId.III, 6, (0.1, 0.08), 0.06).shape,
                                  (20,)))
    for cutoff in cutoffs
    for orientation in (1, -1)
]


@pytest.mark.parametrize("loop,cutoff", HALF_BLOCK_CASES)
def test_plane3_half_block_kicks_match_stepped_kicks(loop, cutoff):
    result = kicked.run_kicked(KickSchedule(loop, KICKS, cutoff=cutoff))
    code_map, leakage = stepped_kicks(loop, cutoff, KICKS)
    assert np.max(np.abs(result.code_map - code_map)) < 1e-10
    assert abs(result.leakage - leakage) < 1e-12


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


@pytest.mark.parametrize("loop,cutoff", KICK_CASES)
def test_paired_kicks_match_the_v_basis_loop(loop, cutoff):
    schedule = KickSchedule(loop, KICKS, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    code_map, leakage = v_basis_kicked(schedule)
    assert np.max(np.abs(result.code_map - code_map)) <= 1e-13
    assert abs(result.leakage - leakage) <= 1e-13


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(convex_polygons(planes=tuple(PlaneId)), st.integers(64, 256), st.sampled_from([1, -1]),
       st.booleans())
def test_paired_kicks_match_the_v_basis_loop_on_polygons(loop, kicks, orientation, odd):
    loop = LoopSpec(loop.plane, loop.shape, orientation)
    cutoff = (12 if loop.plane is PlaneId.III else 40) + odd
    schedule = KickSchedule(loop, kicks, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    code_map, leakage = v_basis_kicked(schedule)
    assert np.max(np.abs(result.code_map - code_map)) <= 1e-13
    assert abs(result.leakage - leakage) <= 1e-13


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(mixed_polygons(), st.integers(64, 128), st.sampled_from([1, -1]), st.booleans())
def test_mixed_loops_run_in_the_paired_basis_like_both_references(loop, kicks, orientation, odd):
    # the axis-aligned edges are powered in Q, and v_basis_kicked powers them densely in V
    loop = LoopSpec(loop.plane, loop.shape, orientation)
    assert 1 <= sum(run.axis_aligned for run in loops.boundary_runs(loop, kicks)) <= 2
    cutoff = (10 if loop.plane is PlaneId.III else 24) + odd
    schedule = KickSchedule(loop, kicks, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    code_map, leakage = v_basis_kicked(schedule)
    assert np.max(np.abs(result.code_map - code_map)) <= 1e-13
    assert abs(result.leakage - leakage) <= 1e-13
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


def counted_frames(monkeypatch):
    """Points of every ControlBlock.frames call, one list per call; conftest.frame calls."""
    points, frame_calls = [], []
    frames, frame = connection.ControlBlock.frames, conftest.frame

    def counted(self, outer, inner, left):
        points.append(list(zip(outer, inner)))
        return frames(self, outer, inner, left)

    def counted_frame(factory, u, v):
        frame_calls.append((u, v))
        return frame(factory, u, v)

    monkeypatch.setattr(connection.ControlBlock, "frames", counted)
    monkeypatch.setattr(conftest, "frame", counted_frame)
    return points, frame_calls


def test_rect_transport_builds_frames_per_edge_not_per_step(monkeypatch):
    loop = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    factory = connection.frame_factory(PlaneId.I, CUTOFF[PlaneId.I])
    points, frame_calls = counted_frames(monkeypatch)
    connection.holonomy_path_ordered(loop, factory.cutoff, 2000)
    # the transport needs no frames, and its truncation check reads I(i) c alone
    assert points == [] and frame_calls == []
    # the kicked route's check evaluates the frames at the 4 corners at once, in the one
    # block of plane I, and no full frame is built
    corners = [factory.split(u, v) for u, v in loops.boundary_vertices(loop)]
    kicked.run_kicked(KickSchedule(loop, 64, cutoff=factory.cutoff))
    assert points == [corners]
    assert frame_calls == []


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_both_routes_refuse_fewer_steps_than_edges():
    # the transport's steps/2 rerun has 50 steps for 60 Magnus edges (tilted, on plane
    # II); the kicked run has 40 kicks
    gon = regular_polygon(PlaneId.II, 60)
    with pytest.raises(ValueError, match="60 edges"):
        connection.holonomy_path_ordered(gon, CUTOFF[PlaneId.II], 100)
    with pytest.raises(ValueError, match="60 edges"):
        kicked.run_kicked(KickSchedule(gon, 40, cutoff=CUTOFF[PlaneId.II]))
    # exact edges take no steps: the same 60-gon on planes I and III takes any split
    for plane in (PlaneId.I, PlaneId.III):
        gon = regular_polygon(plane, 60)
        coarse, fine = (connection.holonomy_path_ordered(gon, CUTOFF[plane], steps).matrix
                        for steps in (100, 2000))
        assert np.array_equal(coarse, fine)


def test_refused_steps_build_no_frame_and_warn_nothing(monkeypatch):
    # this plane II 60-gon stresses cutoff 14 at every vertex; the steps/2 split is
    # refused before anything is built there
    gon = regular_polygon(PlaneId.II, 60, center=(0.3, 0.2), radius=0.1)
    with pytest.warns(TruncationWarning):
        connection.holonomy_path_ordered(gon, 14, 2000)
    points, frame_calls = counted_frames(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="60 edges"):
            connection.holonomy_path_ordered(gon, 14, 100)
    assert not [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert points == [] and frame_calls == []
