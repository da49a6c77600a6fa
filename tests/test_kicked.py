import math

import numpy as np
import pytest

from hologate import connection, kicked
from hologate.exceptions import AdiabaticityWarning
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

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
    infidelities = [1.0 - kicked_sweep[k].fidelity_to_prediction for k in (256, 512, 1024)]
    assert infidelities[0] >= infidelities[1] >= infidelities[2]


def test_leakage_decreases_with_kick_count(kicked_sweep):
    assert kicked_sweep[1024].leakage < kicked_sweep[256].leakage


def test_kicked_matches_connection_oracle(kicked_sweep, connection_oracle_cutoff40):
    distance = np.linalg.norm(
        kicked_sweep[1024].code_map - connection_oracle_cutoff40.matrix
    )
    assert distance < 5e-2


def test_reversed_schedule_is_dagger(kicked_sweep):
    from hologate import loops

    forward = kicked_sweep[1024].code_map
    backward = kicked.run_kicked(
        KickSchedule(loops.reverse(connection.CALIBRATION_RECT), 1024, cutoff=40)
    ).code_map
    assert np.linalg.norm(backward - forward.conj().T) < 5e-3


def test_plane3_schedule_runs():
    loop = LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1))
    result = kicked.run_kicked(KickSchedule(loop, 128, cutoff=12))
    assert result.code_map.shape == (4, 4)
    assert result.fidelity_to_prediction > 0.999


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
    assert result.diagnostics["adiabaticity_failure"]


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
