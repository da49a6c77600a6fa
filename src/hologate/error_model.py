"""Systematic control-error model: shifted loop borders and perturbed gates.

Border shifts move a rectangle's four borders outward for positive values.
The per-border sensitivities of the area parameter make the suppression
structure explicit: on planes I/II the r1-top border enters with weight
exp(-2*r1) while the x borders enter with O(1) weight, so squeeze-border
errors are exponentially suppressed and displacement-border errors enter
linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import gates
from . import loops as loops_mod
from .gates import GateMatrix
from .loops import LoopSpec, PlaneId, Rect

# Printed first-order response of the Hadamard family at sigma = pi/4.
H_PERTURBATION = np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)

# Printed first-order response of the two-qubit gate at sigma = pi/4:
# middle block [[-1, -1], [1, -1]] / sqrt(2), zeros elsewhere.
U_PERTURBATION = np.zeros((4, 4), dtype=complex)
U_PERTURBATION[1:3, 1:3] = np.array([[-1.0, -1.0], [1.0, -1.0]]) / math.sqrt(2.0)

# Stated coefficients of delta = 1.7*alpha' + beta' for the plane III reference
# rectangle, carried verbatim on reports next to computed sensitivities.
PAPER_STATED_DELTA_COEFFICIENTS = (1.7, 1.0)

BORDERS = ("u_low", "u_high", "v_low", "v_high")

# Bytes that the (samples, vertices, 2) float arrays of one statistical_loop_noise
# run may take together: the noise shapes (half the samples), their antithetic
# jitter and the jittered vertices.  A rect's 4 vertices allow about 1.6e6 samples.
NOISE_BYTES_BUDGET = 256 * 1024**2


@dataclass(frozen=True)
class BorderShift:
    """Outward shifts of a rectangle's four borders (positive enlarges)."""

    du_low: float = 0.0
    du_high: float = 0.0
    dv_low: float = 0.0
    dv_high: float = 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.du_low, self.du_high, self.dv_low, self.dv_high)


@dataclass(frozen=True)
class ErrorReport:
    sigma_nominal: float
    sigma_perturbed: float
    epsilon: float
    flags: dict[str, Any] = field(default_factory=dict)


def _require_rect(loop: LoopSpec) -> Rect:
    if not isinstance(loop.shape, Rect):
        raise ValueError("this operation needs a rectangular loop")
    return loop.shape


def shifted_rect(rect: Rect, shift: BorderShift) -> Rect:
    return Rect(
        rect.u_min - shift.du_low,
        rect.u_max + shift.du_high,
        rect.v_min - shift.dv_low,
        rect.v_max + shift.dv_high,
    )


def perturbed_area(rect_loop: LoopSpec, shift: BorderShift) -> ErrorReport:
    """Area of the border-shifted rectangle; epsilon = sigma' - sigma."""
    rect = _require_rect(rect_loop)
    moved = shifted_rect(rect, shift)  # Rect/LoopSpec validation rejects degenerate results
    perturbed_loop = LoopSpec(rect_loop.plane, moved, rect_loop.orientation)
    sigma = loops_mod.area(rect_loop).sigma
    sigma_p = loops_mod.area(perturbed_loop).sigma
    sides = (rect.u_max - rect.u_min, rect.v_max - rect.v_min)
    large = any(
        abs(s) >= 0.5 * sides[i // 2] for i, s in enumerate(shift.as_tuple())
    )
    return ErrorReport(
        sigma_nominal=sigma,
        sigma_perturbed=sigma_p,
        epsilon=sigma_p - sigma,
        flags={"first_order_questionable": large, "shift_convention": "outward_positive"},
    )


def sensitivity(rect_loop: LoopSpec) -> dict[str, float]:
    """Exact partials of sigma with respect to each outward border shift.

    Moving a border outward adds the weight integrated along it, times the
    orientation.  Planes I/II (w = 2 exp(-2v)): exp(-2 v0) - exp(-2 v1) for
    either u border and 2 (u1 - u0) exp(-2v) at a v border.  Plane III
    (w = 2 sinh 2u): 2 (v1 - v0) sinh(2u) at a u border and
    cosh 2u1 - cosh 2u0 = 2 sinh(u1 + u0) sinh(u1 - u0) for either v border.
    The differences are written so that they do not cancel on thin rects.
    """
    r = _require_rect(rect_loop)
    if rect_loop.plane is PlaneId.III:
        across = 2.0 * math.sinh(r.u_max + r.u_min) * math.sinh(r.u_max - r.u_min)
        side = 2.0 * (r.v_max - r.v_min)
        values = (
            side * math.sinh(2.0 * r.u_min), side * math.sinh(2.0 * r.u_max), across, across
        )
    else:
        across = -math.exp(-2.0 * r.v_min) * math.expm1(-2.0 * (r.v_max - r.v_min))
        side = 2.0 * (r.u_max - r.u_min)
        values = (
            across, across, side * math.exp(-2.0 * r.v_min), side * math.exp(-2.0 * r.v_max)
        )
    return {name: rect_loop.orientation * value for name, value in zip(BORDERS, values)}


def perturbed_hadamard(epsilon: float) -> tuple[GateMatrix, GateMatrix]:
    """(first-order, exact) Hadamard under an area error epsilon.

    First order adds epsilon times the stated response matrix, which equals
    the analytic sigma-derivative of the family at pi/4; exact re-evaluates
    the family at pi/4 + epsilon.
    """
    if abs(epsilon) >= 0.3:
        raise ValueError(f"|epsilon| must be below 0.3, got {epsilon}")
    nominal = gates.hadamard_family(math.pi / 4.0).matrix
    first = GateMatrix(2, nominal + epsilon * H_PERTURBATION, "perturbed_first_order")
    exact = gates.hadamard_family(math.pi / 4.0 + epsilon)
    return first, exact


def perturbed_two_qubit(delta: float) -> tuple[GateMatrix, GateMatrix]:
    """(first-order, exact) two-qubit controlled rotation under an area error delta."""
    if abs(delta) >= 0.3:
        raise ValueError(f"|delta| must be below 0.3, got {delta}")
    nominal = gates.gate_from_area(gates.SIGMA12, math.pi / 4.0).matrix
    first = GateMatrix(4, nominal + delta * U_PERTURBATION, "perturbed_first_order")
    exact = gates.gate_from_area(gates.SIGMA12, math.pi / 4.0 + delta)
    return first, exact


def perturbed_cnot(delta: float) -> dict[str, GateMatrix]:
    """Perturbed controlled-not under the stated first-order rule and both exact readings.

    The stated rule adds delta * P_pi * u to P_pi * U^2.  Where delta enters the
    exact gate is ambiguous, so both are returned: "exact_total" treats delta
    as the total area error of the squared gate (pi/4 + delta/2 per loop) and
    "exact_per_loop" as the error of each loop (pi/4 + delta per loop).  The
    stated rule is not the derivative of either exact path, so its defect is
    first order in delta.
    """
    if abs(delta) >= 0.3:
        raise ValueError(f"|delta| must be below 0.3, got {delta}")
    p_pi = gates.phase_gate(math.pi).matrix
    nominal = gates.controlled_not().matrix
    first = GateMatrix(
        4, nominal + delta * (p_pi @ U_PERTURBATION), "perturbed_first_order"
    )

    def squared(sigma_per_loop: float) -> GateMatrix:
        u = gates.gate_from_area(gates.SIGMA12, sigma_per_loop).matrix
        return GateMatrix(4, p_pi @ (u @ u), "composed")

    return {
        "first_order": first,
        "exact_total": squared(math.pi / 4.0 + delta / 2.0),
        "exact_per_loop": squared(math.pi / 4.0 + delta),
    }


@dataclass(frozen=True)
class NoiseSummary:
    sigma_nominal: float
    mean: float
    std: float
    drift: float  # mean - nominal
    amplitude: float
    samples: int
    outside_domain: int  # samples with r1 < 0 (planes I/II) or r2, r3 < 0 (plane III)


def statistical_loop_noise(
    loop: LoopSpec, amplitude: float, seed: int, samples: int
) -> NoiseSummary:
    """Area statistics under zero-mean isotropic vertex noise.

    Vertices are jittered by Gaussian noise of the given amplitude, drawn in
    antithetic pairs so that the sampled noise family has exactly zero mean;
    the surviving mean drift is the second-order response of the area.  The
    seed fixes the noise shapes, so sweeping the amplitude rescales one frozen
    family.  The samples with a vertex outside the plane's domain, which the
    area route would refuse as loops, are integrated all the same and counted.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be non-negative")
    verts = loops_mod.boundary_vertices(loop)
    diameter = float(np.max(np.ptp(verts, axis=0)))
    if amplitude > 0.1 * diameter:
        raise ValueError(
            f"amplitude {amplitude} exceeds 0.1 * loop diameter ({0.1 * diameter:.4g})"
        )
    if samples < 2:
        raise ValueError("need at least 2 samples")
    half = (samples + 1) // 2
    needed = 5 * half * len(verts) * 2 * 8  # shapes: half rows; jitter and sampled: 2 half each
    if needed > NOISE_BYTES_BUDGET:
        raise ValueError(
            f"{samples} samples of {len(verts)} vertices need about {needed:.1e} bytes of noise "
            f"arrays, above the budget of {NOISE_BYTES_BUDGET:.1e} "
            "(error_model.NOISE_BYTES_BUDGET)"
        )
    # boundary_vertices runs in traversal order, so the exact sums carry the orientation
    nominal = float(loops_mod.polygon_sigma_exact(loop.plane, verts))
    rng = np.random.default_rng(seed)
    shapes = rng.standard_normal(size=(half, len(verts), 2))
    jitter = np.concatenate([shapes, -shapes], axis=0)
    sampled = verts[None, :, :] + amplitude * jitter
    sigmas = loops_mod.polygon_sigma_exact(loop.plane, sampled)
    mean = float(np.mean(sigmas))
    # the lowest of r1 (planes I/II) or of r2 and r3 (plane III), one value per sample
    lowest = np.min(sampled if loop.plane is PlaneId.III else sampled[:, :, 1:], axis=(1, 2))
    return NoiseSummary(
        sigma_nominal=nominal,
        mean=mean,
        std=float(np.std(sigmas)),
        drift=mean - nominal,
        amplitude=amplitude,
        samples=2 * half,
        outside_domain=int(np.count_nonzero(lowest < 0.0)),
    )
