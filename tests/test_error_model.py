import math

import numpy as np
import pytest

from hologate import error_model, gates, loops
from hologate.error_model import BorderShift
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

HADAMARD_RECT = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, math.log(2.0)))
PLANE3_RECT = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))


def test_zero_shift_gives_zero_epsilon():
    report = error_model.perturbed_area(HADAMARD_RECT, BorderShift())
    assert report.epsilon == 0.0


def test_x_border_shift_enters_linearly():
    # epsilon = alpha * (1 - exp(-2h)), approaching alpha as h grows
    alpha = 0.01
    h = math.log(2.0)
    report = error_model.perturbed_area(HADAMARD_RECT, BorderShift(du_high=alpha))
    assert report.epsilon == pytest.approx(alpha * (1.0 - math.exp(-2.0 * h)), abs=1e-12)
    tall = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, 6.0))
    report_tall = error_model.perturbed_area(tall, BorderShift(du_high=alpha))
    assert report_tall.epsilon == pytest.approx(alpha, rel=1e-4)


def test_r_border_shift_is_exponentially_suppressed():
    beta = 0.01
    h = math.log(2.0)
    report = error_model.perturbed_area(HADAMARD_RECT, BorderShift(dv_high=beta))
    expected = (math.pi / 4.0) * (math.exp(-2.0 * h) - math.exp(-2.0 * (h + beta)))
    assert report.epsilon == pytest.approx(expected, abs=1e-14)
    # suppression takes over at large height: ~exp(-8) vs ~1 at h = 4
    tall = LoopSpec(PlaneId.II, Rect(0.0, math.pi / 4.0, 0.0, 4.0))
    eps_r = error_model.perturbed_area(tall, BorderShift(dv_high=beta)).epsilon
    eps_x = error_model.perturbed_area(tall, BorderShift(du_high=beta)).epsilon
    assert abs(eps_r) < 1e-3 * abs(eps_x)


def test_large_shift_is_flagged_not_rejected():
    report = error_model.perturbed_area(HADAMARD_RECT, BorderShift(du_high=0.5))
    assert report.flags["first_order_questionable"]


def test_degenerate_shift_rejected():
    with pytest.raises(ValueError):
        error_model.perturbed_area(HADAMARD_RECT, BorderShift(du_low=-1.0))


def test_sensitivity_plane3_reference_rect():
    sens = error_model.sensitivity(PLANE3_RECT)
    # (pi/8) * 2 sinh(2 arccosh 2) = pi * sqrt(3) and cosh(2 arccosh 2) - 1 = 6
    assert sens["u_high"] == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-7)
    assert sens["v_high"] == pytest.approx(6.0, rel=1e-9)
    # the stated coefficient pair stays report-only, never merged into computation
    assert error_model.PAPER_STATED_DELTA_COEFFICIENTS == (1.7, 1.0)


def test_sensitivity_zero_weight_border():
    sens = error_model.sensitivity(PLANE3_RECT)
    assert abs(sens["u_low"]) < 1e-9


def test_sensitivity_height_ratio_is_exponential():
    base = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0))
    for delta in (0.25, 0.7):
        taller = LoopSpec(PlaneId.I, Rect(0.0, 1.0, 0.0, 1.0 + delta))
        ratio = (
            error_model.sensitivity(taller)["v_high"]
            / error_model.sensitivity(base)["v_high"]
        )
        assert ratio == pytest.approx(math.exp(-2.0 * delta), abs=1e-6)


def test_perturbed_hadamard_at_zero():
    first, exact = error_model.perturbed_hadamard(0.0)
    nominal = gates.hadamard_family(math.pi / 4.0).matrix
    assert np.allclose(first.matrix, nominal, atol=1e-15)
    assert np.allclose(exact.matrix, nominal, atol=1e-15)


def test_stated_h_is_the_analytic_derivative():
    s = math.pi / 4.0
    derivative = np.array(
        [[-math.sin(s), math.cos(s)], [math.cos(s), math.sin(s)]], dtype=complex
    )
    assert np.max(np.abs(derivative - error_model.H_PERTURBATION)) < 1e-14


def test_stated_u_is_the_analytic_derivative():
    s = math.pi / 4.0
    block = np.array(
        [[-math.sin(s), -math.cos(s)], [math.cos(s), -math.sin(s)]], dtype=complex
    )
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = block
    assert np.max(np.abs(expected - error_model.U_PERTURBATION)) < 1e-14


def test_hadamard_taylor_remainder():
    first, exact = error_model.perturbed_hadamard(0.01)
    defect = np.linalg.norm(exact.matrix - first.matrix)
    assert defect < 1e-3
    first2, exact2 = error_model.perturbed_hadamard(0.005)
    defect2 = np.linalg.norm(exact2.matrix - first2.matrix)
    assert 3.0 < defect / defect2 < 5.0


def test_two_qubit_taylor_remainder():
    first, exact = error_model.perturbed_two_qubit(0.02)
    assert np.linalg.norm(exact.matrix - first.matrix) < 4e-4


def test_perturbed_two_qubit_at_zero():
    first, exact = error_model.perturbed_two_qubit(0.0)
    nominal = gates.gate_from_area(gates.SIGMA12, math.pi / 4.0).matrix
    assert np.allclose(first.matrix, nominal, atol=1e-15)
    assert np.allclose(exact.matrix, nominal, atol=1e-15)


def test_perturbed_cnot_at_zero():
    out = error_model.perturbed_cnot(0.0)
    nominal = gates.controlled_not().matrix
    for key in ("first_order", "exact_total", "exact_per_loop"):
        assert np.allclose(out[key].matrix, nominal, atol=1e-14)


def test_perturbed_cnot_offset_matrix_is_explicit_product():
    p_pi_u = gates.phase_gate(math.pi).matrix @ error_model.U_PERTURBATION
    delta = 0.05
    out = error_model.perturbed_cnot(delta)
    assert np.allclose(
        out["first_order"].matrix,
        gates.controlled_not().matrix + delta * p_pi_u,
        atol=1e-14,
    )


def test_perturbed_cnot_two_exact_readings_differ_at_first_order():
    # the stated additive rule is not the derivative of either exact path, so
    # its defect against both shrinks only linearly in delta
    d1 = np.linalg.norm(
        error_model.perturbed_cnot(0.02)["exact_total"].matrix
        - error_model.perturbed_cnot(0.02)["first_order"].matrix
    )
    d2 = np.linalg.norm(
        error_model.perturbed_cnot(0.01)["exact_total"].matrix
        - error_model.perturbed_cnot(0.01)["first_order"].matrix
    )
    assert 1.8 < d1 / d2 < 2.3


@pytest.mark.parametrize("op", ["hadamard", "two_qubit"])
def test_gate_perturbation_domain(op):
    func = {
        "hadamard": error_model.perturbed_hadamard,
        "two_qubit": error_model.perturbed_two_qubit,
    }[op]
    with pytest.raises(ValueError):
        func(0.31)


def test_statistical_noise_zero_amplitude():
    summary = error_model.statistical_loop_noise(HADAMARD_RECT, 0.0, seed=3, samples=100)
    assert summary.std < 1e-14
    assert summary.mean == pytest.approx(summary.sigma_nominal, abs=1e-14)


def test_statistical_noise_drift_is_second_order():
    wide = error_model.statistical_loop_noise(HADAMARD_RECT, 0.02, seed=9, samples=2000)
    narrow = error_model.statistical_loop_noise(HADAMARD_RECT, 0.01, seed=9, samples=2000)
    assert abs(wide.drift) / abs(narrow.drift) >= 3.2


def test_statistical_noise_std_is_first_order():
    wide = error_model.statistical_loop_noise(HADAMARD_RECT, 0.02, seed=9, samples=2000)
    narrow = error_model.statistical_loop_noise(HADAMARD_RECT, 0.01, seed=9, samples=2000)
    assert wide.std / narrow.std == pytest.approx(2.0, rel=0.2)


def test_statistical_noise_amplitude_cap():
    with pytest.raises(ValueError):
        error_model.statistical_loop_noise(HADAMARD_RECT, 0.5, seed=0, samples=10)


def test_statistical_noise_requires_rectangle_or_polyline_vertices():
    # rect loops are jittered through their corner polyline
    summary = error_model.statistical_loop_noise(PLANE3_RECT, 0.01, seed=1, samples=200)
    assert summary.samples == 200
    assert summary.sigma_nominal == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)


@pytest.mark.parametrize("orientation", [1, -1])
@pytest.mark.parametrize(
    "loop",
    [
        LoopSpec(PlaneId.I, Rect(0.0, 0.3, 0.1, 0.4)),
        LoopSpec(PlaneId.III, Polyline(((0.1, 0.0), (0.4, 0.1), (0.2, 0.3)))),
    ],
    ids=["rect-I", "polyline-III"],
)
def test_statistical_noise_nominal_is_signed_area(loop, orientation):
    oriented = LoopSpec(loop.plane, loop.shape, orientation)
    summary = error_model.statistical_loop_noise(oriented, 0.001, seed=5, samples=64)
    assert summary.sigma_nominal == pytest.approx(loops.area(oriented).sigma, abs=1e-12)
    assert np.sign(summary.mean) == orientation
