import math

import numpy as np
import pytest

from hologate import gates
from hologate.gates import SIGMA1, SIGMA2, SIGMA12, GateMatrix, Generator
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

SQ2 = math.sqrt(2.0)

EQ5_MATRIX = np.array(
    [
        [SQ2, 0, 0, 0],
        [0, 1, -1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, SQ2],
    ],
    dtype=complex,
) / SQ2

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / SQ2

# permutation swapping |10> and |11> in the ordered basis {|00>,|10>,|11>,|01>}
CNOT_PERMUTATION = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def test_generators_are_the_expected_paulis():
    assert np.array_equal(SIGMA1.matrix, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(SIGMA2.matrix, np.array([[0, -1j], [1j, 0]], dtype=complex))
    expected12 = np.zeros((4, 4), dtype=complex)
    expected12[1:3, 1:3] = SIGMA2.matrix
    assert np.array_equal(SIGMA12.matrix, expected12)


def test_generator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        Generator("bad", np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("generator", [SIGMA1, SIGMA2, SIGMA12])
def test_gate_from_area_identity_at_zero(generator):
    gate = gates.gate_from_area(generator, 0.0)
    assert np.allclose(gate.matrix, np.eye(generator.dim), atol=1e-15)


def test_gate_from_area_sigma2_quarter_pi():
    gate = gates.gate_from_area(SIGMA2, math.pi / 4.0)
    expected = np.array([[1, -1], [1, 1]], dtype=complex) / SQ2
    assert np.linalg.norm(gate.matrix - expected) < 1e-14


def test_gate_from_area_sigma12_quarter_pi_reproduces_stated_gate():
    gate = gates.gate_from_area(SIGMA12, math.pi / 4.0)
    assert np.max(np.abs(gate.matrix - EQ5_MATRIX)) < 1e-12


@pytest.mark.parametrize("generator", [SIGMA1, SIGMA2, SIGMA12])
def test_same_generator_composition_is_abelian(generator):
    s, t = 0.37, -1.22
    lhs = gates.gate_from_area(generator, s).matrix @ gates.gate_from_area(generator, t).matrix
    rhs = gates.gate_from_area(generator, s + t).matrix
    assert np.linalg.norm(lhs - rhs) < 1e-12


@pytest.mark.parametrize("generator", [SIGMA1, SIGMA2, SIGMA12])
def test_dagger_flips_sign(generator):
    s = 0.81
    lhs = gates.gate_from_area(generator, s).matrix.conj().T
    rhs = gates.gate_from_area(generator, -s).matrix
    assert np.linalg.norm(lhs - rhs) < 1e-12


@pytest.mark.parametrize("generator", [SIGMA1, SIGMA2, SIGMA12])
@pytest.mark.parametrize("s", [0.0, 0.3, 2.4, -1.1])
def test_unit_modulus_determinant(generator, s):
    det = np.linalg.det(gates.gate_from_area(generator, s).matrix)
    assert abs(abs(det) - 1.0) < 1e-12


def test_gate_from_area_rejects_non_finite_sigma():
    with pytest.raises(ValueError):
        gates.gate_from_area(SIGMA1, math.inf)


def test_hadamard_family_values():
    assert np.max(np.abs(gates.hadamard_family(math.pi / 4.0).matrix - HADAMARD)) < 1e-12
    assert np.allclose(
        gates.hadamard_family(0.0).matrix, np.diag([1.0, -1.0]), atol=1e-15
    )
    assert np.allclose(
        gates.hadamard_family(math.pi / 2.0).matrix,
        np.array([[0, 1], [1, 0]], dtype=complex),
        atol=1e-15,
    )


def test_hadamard_squares_to_identity():
    h = gates.hadamard_family(math.pi / 4.0).matrix
    assert np.linalg.norm(h @ h - np.eye(2)) < 1e-12


def test_hadamard_family_is_corrected_rotation():
    # hadamard_family(s) = exp(-i sigma_y s) @ diag(1, -1)
    for s in (0.0, 0.4, math.pi / 4.0, 2.0):
        lhs = gates.hadamard_family(s).matrix
        rhs = gates.gate_from_area(SIGMA2, s).matrix @ gates.reflection_correction().matrix
        assert np.linalg.norm(lhs - rhs) < 1e-14


def test_phase_gate_values():
    assert np.allclose(gates.phase_gate(0.0).matrix, np.eye(4), atol=1e-15)
    assert np.allclose(
        gates.phase_gate(math.pi).matrix, np.diag([1.0, -1.0, 1.0, 1.0]), atol=1e-15
    )
    prod = gates.phase_gate(0.7).matrix @ gates.phase_gate(-0.7).matrix
    assert np.allclose(prod, np.eye(4), atol=1e-15)


def test_controlled_not_is_the_stated_permutation():
    cn = gates.controlled_not().matrix
    assert np.max(np.abs(cn - CNOT_PERMUTATION)) < 1e-12


def test_controlled_not_involution():
    cn = gates.controlled_not().matrix
    assert np.linalg.norm(cn @ cn - np.eye(4)) < 1e-12


def test_controlled_not_column_action():
    cn = gates.controlled_not().matrix
    basis = np.eye(4)
    # order {|00>, |10>, |11>, |01>}: |10> -> |11>, |11> -> |10>, rest fixed
    assert np.allclose(cn @ basis[:, 1], basis[:, 2], atol=1e-12)
    assert np.allclose(cn @ basis[:, 2], basis[:, 1], atol=1e-12)
    assert np.allclose(cn @ basis[:, 0], basis[:, 0], atol=1e-12)
    assert np.allclose(cn @ basis[:, 3], basis[:, 3], atol=1e-12)


def test_controlled_not_in_lexicographic_basis():
    # permute {|00>,|10>,|11>,|01>} -> {|00>,|01>,|10>,|11>}
    perm = [0, 3, 1, 2]
    cn = gates.controlled_not().matrix[np.ix_(perm, perm)]
    standard = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.max(np.abs(cn - standard)) < 1e-12


def test_gate_for_loop_degenerate_is_identity():
    loop = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.3, 0.0), (0.15, 0.0))))
    gate = gates.gate_for_loop(loop)
    assert np.allclose(gate.matrix, np.eye(2), atol=1e-14)


def test_gate_for_loop_plane3_reference_rect():
    loop = LoopSpec(PlaneId.III, Rect(0.0, math.acosh(2.0), 0.0, math.pi / 8.0))
    gate = gates.gate_for_loop(loop)
    expected = gates.gate_from_area(SIGMA12, 3.0 * math.pi / 4.0).matrix
    assert np.linalg.norm(gate.matrix - expected) < 1e-12
    assert gate.diagnostics["area"].sigma == pytest.approx(3.0 * math.pi / 4.0)


def test_gate_for_loop_reversal_is_dagger():
    loop = LoopSpec(PlaneId.II, Rect(0.0, 0.4, 0.0, 0.3))
    forward = gates.gate_for_loop(loop).matrix
    backward = gates.gate_for_loop(LoopSpec(loop.plane, loop.shape, -loop.orientation)).matrix
    assert np.linalg.norm(backward - forward.conj().T) < 1e-12


def test_gate_matrix_validates_exact_provenances():
    with pytest.raises(ValueError):
        GateMatrix(2, np.array([[1.0, 0.0], [0.0, 2.0]]), "area_formula")
    # oracle provenance carries a defect field instead of hard validation
    GateMatrix(2, np.array([[1.0, 0.0], [0.0, 2.0]]), "connection_oracle", unitarity_defect=1.0)
