"""Gate generators and the holonomic gates they produce from loop areas.

Code bases: {|0>, |1>} for single-mode gates and the ordered two-mode basis
{|00>, |10>, |11>, |01>}, in which the first qubit is the control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import loops as loops_mod
from .loops import AreaResult, LoopSpec, PlaneId

_EXACT_PROVENANCES = ("area_formula", "composed")

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def _embed_middle_block(block: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[1:3, 1:3] = block
    return out


@dataclass(frozen=True)
class Generator:
    """Hermitian gate generator on the 2- or 4-dimensional code space."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if np.linalg.norm(mat - mat.conj().T) >= 1e-14:
            raise ValueError(f"generator {self.label} is not Hermitian")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


SIGMA1 = Generator("Sigma1", _PAULI_X)
SIGMA2 = Generator("Sigma2", _PAULI_Y)
# Pauli-y acting on span{|10>, |11>} (the middle pair of the ordered basis).
SIGMA12 = Generator("Sigma12", _embed_middle_block(_PAULI_Y))

PLANE_GENERATOR = {PlaneId.I: SIGMA1, PlaneId.II: SIGMA2, PlaneId.III: SIGMA12}


@dataclass(frozen=True)
class GateMatrix:
    """A computed gate plus where it came from.

    Gates with provenance "area_formula" or "composed" are unitary by
    construction and validated as such; oracle provenances instead carry an
    explicit unitarity_defect.
    """

    dim: int
    matrix: np.ndarray
    provenance: str
    unitarity_defect: float | None = None
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dim {self.dim}")
        object.__setattr__(self, "matrix", mat)
        if self.provenance in _EXACT_PROVENANCES:
            defect = np.linalg.norm(mat.conj().T @ mat - np.eye(self.dim))
            if defect >= 1e-10:
                raise ValueError(
                    f"{self.provenance} gate has unitarity defect {defect:.3e}"
                )


def gate_from_area(generator: Generator, sigma: float) -> GateMatrix:
    """exp(-i * G * sigma) in exact trigonometric form.

    Both 2x2 Paulis and the embedded 4x4 generator square to a projector P,
    so exp(-i G s) = I + (cos s - 1) P - i sin s G exactly.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    g = generator.matrix
    proj = g @ g
    eye = np.eye(generator.dim, dtype=complex)
    mat = eye + (math.cos(sigma) - 1.0) * proj - 1j * math.sin(sigma) * g
    return GateMatrix(generator.dim, mat, "area_formula")


def hadamard_family(sigma: float) -> GateMatrix:
    """[[cos s, sin s], [sin s, -cos s]]; the Hadamard gate at s = pi/4.

    This reflection family has determinant -1 and is kept distinct from
    gate_from_area(SIGMA2, s): the two differ by the corrective reflection
    diag(1, -1), see reflection_correction().
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    c, s = math.cos(sigma), math.sin(sigma)
    return GateMatrix(2, np.array([[c, s], [s, -c]], dtype=complex), "area_formula")


def reflection_correction() -> GateMatrix:
    """diag(1, -1): hadamard_family(s) == gate_from_area(SIGMA2, s) @ this."""
    return GateMatrix(2, np.diag([1.0, -1.0]).astype(complex), "area_formula")


def phase_gate(phi: float) -> GateMatrix:
    """Control phase gate diag(1, e^{i phi}, 1, 1) in the ordered two-mode basis."""
    mat = np.diag([1.0, np.exp(1j * phi), 1.0, 1.0]).astype(complex)
    return GateMatrix(4, mat, "area_formula")


def controlled_not() -> GateMatrix:
    """P_pi * U^2 with U the pi/4 controlled rotation; swaps |10> and |11>."""
    u = gate_from_area(SIGMA12, math.pi / 4.0).matrix
    mat = phase_gate(math.pi).matrix @ (u @ u)
    return GateMatrix(4, mat, "composed")


def gate_for_loop(loop: LoopSpec) -> GateMatrix:
    """Area-formula gate of a loop: sigma = area(loop), generator set by its plane."""
    area_result: AreaResult = loops_mod.area(loop)
    generator = PLANE_GENERATOR[loop.plane]
    gate = gate_from_area(generator, area_result.sigma)
    return GateMatrix(
        gate.dim,
        gate.matrix,
        "area_formula",
        diagnostics={"area": area_result, "generator": generator.label},
    )
