import math

import numpy as np
import pytest

from hologate import connection, fock, kicked, loops
from hologate.exceptions import AdiabaticityWarning
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import formula_gate_in_frame, infidelity

# extent small enough that finite-kick effects sit below 1e-12
ZERO_CONTROL_LOOP = LoopSpec(
    PlaneId.I, Polyline(((0.0, 0.0), (1e-9, 0.0), (5e-10, 0.0)))
)


@pytest.mark.parametrize("kick_count,chi,delta_t", [(16, 1.0, 0.3), (64, 2.5, math.pi / 4.0)])
def test_zero_control_schedule_is_exact_identity(kick_count, chi, delta_t):
    result = kicked.run_kicked(
        KickSchedule(ZERO_CONTROL_LOOP, kick_count, chi=chi, delta_t=delta_t, cutoff=24)
    )
    assert np.linalg.norm(result.code_map - np.eye(2)) < 1e-12
    assert result.leakage < 1e-12


def test_fidelity_trend_over_kick_doubling(kicked_sweep):
    prediction = formula_gate_in_frame(connection.CALIBRATION_RECT)
    infidelities = [infidelity(kicked_sweep[k].code_map, prediction) for k in (256, 512, 1024)]
    assert infidelities[0] >= infidelities[1] >= infidelities[2]


def test_leakage_decreases_with_kick_count(kicked_sweep):
    assert kicked_sweep[1024].leakage < kicked_sweep[256].leakage


def test_kicked_matches_connection_oracle(kicked_sweep, connection_oracle_cutoff40):
    distance = np.linalg.norm(
        kicked_sweep[1024].code_map - connection_oracle_cutoff40.matrix
    )
    assert distance < 5e-2


def test_reversed_schedule_is_dagger(kicked_sweep):
    rect = connection.CALIBRATION_RECT
    forward = kicked_sweep[1024].code_map
    backward = kicked.run_kicked(
        KickSchedule(LoopSpec(rect.plane, rect.shape, -rect.orientation), 1024, cutoff=40)
    ).code_map
    assert np.linalg.norm(backward - forward.conj().T) < 5e-3


def test_plane3_schedule_runs():
    loop = LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1))
    result = kicked.run_kicked(KickSchedule(loop, 128, cutoff=12))
    assert result.code_map.shape == (4, 4)
    assert 1.0 - infidelity(result.code_map, formula_gate_in_frame(loop)) > 0.999


@pytest.mark.parametrize("cutoff", [12, 13])
def test_plane3_code_map_is_zero_between_parity_blocks(cutoff):
    loop = LoopSpec(PlaneId.III, Polyline(((0.02, 0.01), (0.13, 0.04), (0.08, 0.12))))
    code_map = kicked.run_kicked(KickSchedule(loop, 128, cutoff=cutoff)).code_map
    even, odd = [0, 2], [1, 3]  # {|00>, |11>} and {|10>, |01>}
    assert np.all(code_map[np.ix_(even, odd)] == 0)
    assert np.all(code_map[np.ix_(odd, even)] == 0)
    assert np.linalg.norm(code_map[np.ix_(even, even)]) > 1.0


def test_zero_control_loop_has_no_leakage():
    result = kicked.run_kicked(KickSchedule(ZERO_CONTROL_LOOP, 32, cutoff=16))
    assert result.leakage < 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 8)
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 64, chi=-1.0)
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 64, delta_t=0.0)


def test_oversized_control_increment_rejected():
    big = LoopSpec(PlaneId.I, Rect(0.0, 2.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        kicked.run_kicked(KickSchedule(big, 16, cutoff=12))


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_adiabaticity_warning_on_resonant_dwell():
    # chi*dt ~ 2*pi leaves the nearest leakage level barely dephased
    loop = LoopSpec(PlaneId.I, Rect(0.0, 1.5, 0.0, 1.5))
    schedule = KickSchedule(loop, 128, chi=1.0, delta_t=2.0 * math.pi * 0.999, cutoff=14)
    with pytest.warns(AdiabaticityWarning):
        result = kicked.run_kicked(schedule)
    assert result.leakage > 0.5


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("size", [1, 7, 98])
def test_real_form_is_the_complex_product_on_rows(size, rows):
    rng = np.random.default_rng(10 * size + rows)
    matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    x = rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))
    # the kicked route passes transposed views
    for m in (matrix, matrix.T):
        got = (x.view(np.float64) @ kicked.real_form(m)).view(np.complex128)
        expected = x @ m
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_real_forms_are_built_only_for_tilted_edges(monkeypatch):
    shapes = []
    original = kicked.real_form

    def counted(matrix):
        shapes.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(kicked, "real_form", counted)
    for loop, cutoff in [(connection.CALIBRATION_RECT, 24),
                         (LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)), 12)]:
        kicked.run_kicked(KickSchedule(loop, 128, cutoff=cutoff))
    assert shapes == []
    # one axis-aligned edge and two tilted ones, on plane I's one block:
    # the dwell's real form, then one per tilted edge for its outer step
    triangle = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.0), (0.05, 0.1))))
    kicked.run_kicked(KickSchedule(triangle, 128, cutoff=24))
    assert shapes == [(24, 24)] * 3


@pytest.mark.parametrize("count", [1, 2, 31, 64, 256])
@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 40), (PlaneId.II, 40), (PlaneId.III, 14)])
def test_stacked_inner_power_is_the_dense_power(plane, cutoff, count):
    factory = connection.frame_factory(plane, cutoff)
    mode_count = 2 if plane is PlaneId.III else 1
    dwell = fock.kerr_phases(kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T, cutoff, mode_count)
    for block in factory.blocks:
        stack, dense = kicked.sector_dwell(block, dwell)
        mask = block.sector_mask
        w_stack = np.zeros(mask.shape)
        w_stack[mask] = block.values
        # the kick of an inner-direction edge: I's phase step, then the dwell
        stacked = stack * np.exp(0.004j * w_stack)[:, None, :]
        kick = dense * np.exp(0.004j * block.values)
        got = kicked.power_sectors(stacked, count, block.code_eig, mask)
        expected = kicked._power_apply(kick, count, block.code_eig)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_inner_edges_are_powered_as_sector_stacks(monkeypatch):
    shapes = []
    original = kicked._power_apply

    def counted(kick, count, state):
        shapes.append(kick.shape)
        return original(kick, count, state)

    monkeypatch.setattr(kicked, "_power_apply", counted)
    loop = LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1))
    kicked.run_kicked(KickSchedule(loop, 128, cutoff=12))
    factory = connection.frame_factory(PlaneId.III, 12)
    # per parity block, in the order of the edges: along r2 (the inner control),
    # along r3, back along r2, back along r3
    expected = []
    for block in factory.blocks:
        size = block.index.size
        stacked = (len(block.sectors),) + (block.sector_mask.shape[1],) * 2
        expected += [stacked, (size, size), stacked, (size, size)]
    assert shapes == expected
    assert all(len(shape) == 3 and shape[1] <= 12 for shape in shapes[::2])


def test_kicks_do_not_depend_on_the_phase_batch(monkeypatch):
    # tilted edges read I's phases in tables of connection.MAGNUS_BATCH kicks
    loop = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.03), (0.05, 0.1))))
    kicks = 2000
    batch = connection.MAGNUS_BATCH
    counts = [run.count for run in loops.boundary_runs(loop, kicks)]
    assert any(count > batch and count % batch for count in counts)
    results = []
    for size in (1, 7, batch):
        monkeypatch.setattr(connection, "MAGNUS_BATCH", size)
        results.append(kicked.run_kicked(KickSchedule(loop, kicks, cutoff=40)))
    for other in results[:-1]:
        assert np.max(np.abs(other.code_map - results[-1].code_map)) <= 1e-13
        assert abs(other.leakage - results[-1].leakage) <= 1e-13
