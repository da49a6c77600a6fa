"""The kicked route's one dwell, the echo dwell chi dt = pi/2, against other dwells.

A kick leaks the code into the levels 2 and 3 of a mode; the echo dwell
turns them by pi, and the first-order term of the kick error cancels.  The
other dwells are run by the references alone (conftest.stepped_kicks and
conftest.v_basis_kicked take any chi dt); the engine runs only the echo
dwell.  Distances are Frobenius norms to the transport in the raw frame.
"""

import math

import numpy as np
import pytest

from hologate import compiler, connection, fock, kicked
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import (
    pair_phase,
    paired_transform,
    regular_polygon,
    stepped_kicks,
    v_basis_kicked,
)

RECTS = {
    PlaneId.I: (LoopSpec(PlaneId.I, Rect(0.0, 0.3, 0.0, 0.3)), 60),
    PlaneId.II: (LoopSpec(PlaneId.II, Rect(0.0, 0.3, 0.0, 0.3)), 60),
    PlaneId.III: (LoopSpec(PlaneId.III, Rect(0.0, 0.2, 0.0, 0.2)), 16),
}

PENTAGON = LoopSpec(
    PlaneId.I, Polyline(((0.05, 0.02), (0.3, 0.05), (0.35, 0.25), (0.2, 0.33), (0.02, 0.2)))
)


def kicked_distance(loop, cutoff, kick_count):
    code_map = kicked.run_kicked(KickSchedule(loop, kick_count, cutoff=cutoff)).code_map
    return np.linalg.norm(code_map - connection.holonomy_path_ordered(loop, cutoff, 2000).matrix)


def test_schedule_reports_the_echo_dwell():
    loop, cutoff = RECTS[PlaneId.I]
    result = kicked.run_kicked(KickSchedule(loop, 64, cutoff=cutoff))
    assert result.diagnostics["chi_delta_t"] == kicked.CHI_DELTA_T == math.pi / 2.0


@pytest.mark.parametrize("plane", list(RECTS))
def test_rect_error_falls_fourfold_per_kick_doubling(plane):
    # at any other dwell it falls twofold: the first-order term is gone
    loop, cutoff = RECTS[plane]
    errors = [kicked_distance(loop, cutoff, k) for k in (512, 1024, 2048)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.9 < coarse / fine < 4.1, errors


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@pytest.mark.parametrize(
    "loop,cutoff",
    [pytest.param(*RECTS[plane], id=f"rect-{plane.value}") for plane in RECTS]
    + [pytest.param(PENTAGON, 60, id="pentagon-I")],
)
def test_echo_dwell_beats_the_quarter_dwell_hundredfold(loop, cutoff):
    # at the quarter dwell, chi dt = pi/4, the error here is 1.2e-3 to 1.8e-3 on planes I
    # and II and 7.8e-4 on plane III; at the echo dwell 1.3e-7 to 4.0e-7 and 2.1e-8
    transport = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix
    quarter, _ = stepped_kicks(loop, cutoff, 1024, math.pi / 4.0)
    assert np.linalg.norm(quarter - transport) > 100.0 * kicked_distance(loop, cutoff, 1024)


def test_dwell_scan_is_least_at_the_echo_dwell():
    # the scan of chi dt on the plane I rect at 1024 kicks, by the V-basis reference: the
    # echo dwell is 1.3e-7 from the transport, every other dwell 9.6e-4 or more, and the
    # scan mirrors about pi/2, since exp(-i (pi - t) n(n - 1)) = conj(exp(-i t n(n - 1)))
    # and the plane I controls are real
    loop, cutoff = RECTS[PlaneId.I]
    schedule = KickSchedule(loop, 1024, cutoff=cutoff)
    transport = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix

    def distance(fraction):
        return np.linalg.norm(v_basis_kicked(schedule, fraction * math.pi)[0] - transport)

    echo = distance(0.5)
    assert echo == pytest.approx(kicked_distance(loop, cutoff, 1024), rel=1e-6)
    assert echo == pytest.approx(1.34e-7, rel=0.01)  # the README's figures
    assert distance(0.25) == pytest.approx(1.78e-3, rel=0.01)
    for fraction in (0.1, 0.2, 0.25, 0.3, 0.4, 0.45):
        below, above = distance(fraction), distance(1.0 - fraction)
        assert below > 1000.0 * echo
        assert above == pytest.approx(below, rel=1e-6)


@pytest.mark.parametrize("fraction", [1.0, 2.0])
def test_a_dwell_in_pi_z_is_the_identity_with_no_leakage(fraction):
    # why the dwell is no knob: at chi dt in pi Z every level's phase is a multiple of
    # 2 pi, the kicks telescope to C_K^dag C_0 = 1, and nothing flags it
    loop, cutoff = RECTS[PlaneId.I]
    schedule = KickSchedule(loop, 1024, cutoff=cutoff)
    code_map, leakage = v_basis_kicked(schedule, fraction * math.pi)
    transport = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix
    assert np.linalg.norm(code_map - np.eye(2)) < 1e-12 and leakage < 1e-12
    assert np.linalg.norm(code_map - transport) > 0.19


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_crot_loop_at_cutoff_48_is_near_the_trusted_transport():
    # 2.0e-4 at 1024 kicks, against 2.9e-2 at the quarter dwell, from the transport at
    # cutoff 128, where it is trusted.  Up to 16384 kicks it stays near 1.8e-4: that floor
    # follows the kicked route's cutoff (1.6e-5 at 56), while the transport at 48 is
    # 2.0e-5 from the one at 128
    code_map = kicked.run_kicked(KickSchedule(compiler.CROT_LOOP, 1024, cutoff=48)).code_map
    transport = connection.holonomy_path_ordered(compiler.CROT_LOOP, 128, 2000).matrix
    assert np.linalg.norm(code_map - transport) <= 3e-4


@pytest.mark.parametrize("loop", [RECTS[PlaneId.I][0], PENTAGON], ids=["rect", "pentagon"])
def test_plane1_maps_are_exactly_real(loop):
    # the echo dwell is a real sign, and plane I's controls and paired basis are real
    code_map = kicked.run_kicked(KickSchedule(loop, 1024, cutoff=60)).code_map
    assert np.max(np.abs(code_map.imag)) == 0.0


def sector_rule_flips(block, factory):
    """eps per eigencolumn of V: s(a) s(b) for the first two states a, b of its sector's chain."""
    signs = fock.echo_dwell(factory.cutoff, factory.mode_count)
    return np.concatenate([np.full(sector.index.size, np.prod(signs[sector.index[:2]]))
                           for sector in block.sectors])


@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 13), (PlaneId.I, 60), (PlaneId.II, 13),
                                          (PlaneId.II, 60), (PlaneId.III, 13),
                                          (PlaneId.III, 14), (PlaneId.III, 20)])
def test_the_dwell_conjugates_the_inner_rotation_by_the_sector_rule(plane, cutoff):
    # D R(t) D = R(eps t) on every block, D the echo dwell and R(t) = Q^dag I(t) Q, I's
    # rotation in the paired basis, with eps = s(a) s(b) for two adjacent states of each
    # sector's chain: the tilted kernel folds D into the outer step on that identity
    factory = connection.FrameFactory(plane, cutoff)
    powered = []
    for block, dwell in zip(factory.blocks, kicked.dense_dwells(factory)):
        to_paired, flips = paired_transform(block), sector_rule_flips(block, factory)
        rates, n = block.paired_basis[1], block.index.size
        for t in (0.037, -0.61):
            turn = to_paired @ (np.exp(-1j * t * block.values)[:, None] * to_paired.conj().T)
            flipped = to_paired @ (np.exp(-1j * t * flips * block.values)[:, None]
                                   * to_paired.conj().T)
            assert np.max(np.abs(dwell @ turn @ dwell - flipped)) < 1e-14
            # the kernel's R(t) and its eps per pair of Q
            assert np.max(np.abs(pair_phase(rates, t, n) - turn)) < 1e-14
            eps = kicked._echo_flips(dwell, rates)
            assert np.max(np.abs(pair_phase(eps * rates, t, n) - flipped)) < 1e-14
        powered.append(bool(np.all(flips == 1.0)))
    # eps = +1 on every chain of plane III's even block alone, so only its tilted edges
    # are one power of M = D S; eps = -1 on every other chain
    assert powered == ([True, False] if plane is PlaneId.III else [False])
    for block in factory.blocks[1 if plane is PlaneId.III else 0 :]:
        flips = sector_rule_flips(block, factory)
        chains = np.repeat([sector.index.size > 1 for sector in block.sectors],
                           [sector.index.size for sector in block.sectors])
        assert np.all(flips[chains] == -1.0)  # a lone state turns at rate 0
    if plane is PlaneId.III and cutoff == 14:
        assert [block.index.size for block in factory.blocks] == [56, 49]


HEXAGONS = {
    PlaneId.I: (regular_polygon(PlaneId.I, 6, (0.2, 0.2), 0.1, 0.3), 60, 60),
    PlaneId.III: (regular_polygon(PlaneId.III, 6, (0.15, 0.15), 0.08, 0.3), 16, 40),
}


@pytest.mark.parametrize("plane", list(HEXAGONS))
def test_tilted_error_falls_sixteenfold_per_two_doublings(plane):
    # on tilted loops the error falls 16 times from K to 4K, but not 4 times per
    # doubling: 3.0, 5.4, 3.0 on plane I and 2.6, 6.2, 2.6 on plane III from K = 512 to
    # 4096 (16.1/16.0 and 16.1/16.0 over two doublings), so an extrapolation from K/2
    # and K alone cannot assume one ratio.  Against the transport at cutoff 60 and 40
    loop, cutoff, transport_cutoff = HEXAGONS[plane]
    transport = connection.holonomy_path_ordered(loop, transport_cutoff, 2000).matrix
    errors = []
    for k in (512, 1024, 2048, 4096):
        code_map = kicked.run_kicked(KickSchedule(loop, k, cutoff=cutoff)).code_map
        errors.append(np.linalg.norm(code_map - transport))
    for coarse, fine in zip(errors, errors[2:]):
        assert 15.5 < coarse / fine < 16.5, errors
    doublings = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert doublings[0] < 3.2 and doublings[1] > 5.2 and doublings[2] < 3.2, doublings
