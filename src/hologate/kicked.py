"""Kicked realization of the adiabatic loop: Kerr dwells alternated with control kicks.

Each step conjugates a fixed Kerr dwell exp(-i*H0*dt) by the control unitary
of the current loop point, which is the stroboscopic form of evolving under
the slowly rotating Hamiltonian C(p) H0 C(p)^dag.  The code space sits in the
exact zero-eigenspace throughout, so the code-space map converges to the
geometric holonomy as the kick count grows; the dwell dephases whatever leaks
to higher levels.  Kicks are instantaneous (the short-kick idealization).

Everything is computed in the frame pulled back by the instantaneous control
unitary, where the dressed code basis is the bare one: the evolution of one
step is exp(-i*H0*dt) C_k^dag C_{k-1}, and leakage against the dressed frame
at the current point is simply the population outside the bare code levels.
The state is held block by block (the invariant blocks of the two control
generators, two parity blocks on plane III), each in the eigenbasis of the
inner control generator, where the inner control factor of every kick is a
diagonal phase.  Only the state after the whole loop is kept: on an
axis-aligned edge every kick is the same matrix, which is raised to the
edge's kick count by repeated squaring instead of being applied kick by kick.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import connection, fock
from . import loops as loops_mod
from .exceptions import AdiabaticityWarning
from .loops import LoopSpec, PlaneId

# Default dwell: chi*dt = pi/4, so the nearest leakage level (n = 2) picks up
# phase pi/2 per dwell, maximally dephasing it against the code space.
DEFAULT_CHI = 1.0
DEFAULT_DELTA_T = math.pi / 4.0

MAX_CONTROL_STEP = 0.05
LEAKAGE_FAILURE_THRESHOLD = 0.5


@dataclass(frozen=True)
class KickSchedule:
    """A discretized loop traversal: K kicks with a Kerr dwell after each."""

    loop: LoopSpec
    kick_count: int
    chi: float = DEFAULT_CHI
    delta_t: float = DEFAULT_DELTA_T
    cutoff: int = 40

    def __post_init__(self):
        if self.kick_count < 16:
            raise ValueError(f"kick_count must be at least 16, got {self.kick_count}")
        if self.delta_t <= 0:
            raise ValueError(f"delta_t must be positive, got {self.delta_t}")
        if self.chi <= 0:
            raise ValueError(f"chi must be positive, got {self.chi}")


@dataclass(frozen=True)
class KickedResult:
    code_map: np.ndarray  # re-unitarized code-space map, raw dressed-frame basis
    leakage: float
    fidelity_to_prediction: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


def largest_control_step(runs: list[loops_mod.EdgeRun]) -> float:
    """Largest control-plane distance between consecutive kicks along the runs."""
    return max(float(np.linalg.norm(run.end - run.start)) / run.count for run in runs)


def _schedule_runs(schedule: KickSchedule) -> list[loops_mod.EdgeRun]:
    runs = loops_mod.boundary_runs(schedule.loop, schedule.kick_count)
    max_step = largest_control_step(runs)
    if max_step > MAX_CONTROL_STEP:
        raise ValueError(
            f"largest control increment {max_step:.4f} exceeds {MAX_CONTROL_STEP}; "
            "increase kick_count"
        )
    return runs


def _power_apply(kick: np.ndarray, count: int, state: np.ndarray) -> np.ndarray:
    """kick^count @ state by binary powering: kick is squared, and applied on each set bit."""
    while True:
        if count & 1:
            state = kick @ state
        count >>= 1
        if not count:
            return state
        kick = kick @ kick


def _kicks(schedule: KickSchedule) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per control block: its code columns, their code states and their states after the loop.

    No control leaves an invariant block of the two control generators
    (FrameFactory.blocks), so each block evolves its own code columns, held in
    the block's inner eigenbasis V.  A kick from p to p' is
    C(p')^dag C(p) = I(-i') O(-(o' - o)) I(i), and I(i) = V diag(exp(-i i w)) V^dag,
    so in V a kick is V^dag O V between two diagonal phases, then the dwell
    V^dag D V.  O's step is constant along an edge, so a tilted edge costs two
    dense products per kick.  On an axis-aligned edge the whole kick K is
    constant, and K^count is applied by binary powering, in about
    2 log2(count) products.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    mode_count = 2 if schedule.loop.plane is PlaneId.III else 1
    dwell = fock.kerr_phases(schedule.chi, schedule.delta_t, schedule.cutoff, mode_count)

    def evolve(block: connection.ControlBlock, dwell_eig: np.ndarray) -> np.ndarray:
        w = block.inner.values
        state = block.code_eig
        for run in runs:
            outer0, inner0 = factory.split(*run.start)
            outer1, inner1 = factory.split(*run.end)
            outer_step = (outer0 - outer1) / run.count
            inners = inner0 + (inner1 - inner0) * np.arange(run.count + 1) / run.count
            phase = np.exp(-1j * inners[0] * w)[:, None]
            if run.axis_aligned:
                if outer0 == outer1:  # O's step is the identity: one phase, then the dwell
                    kick = dwell_eig * np.exp(1j * (inners[1] - inners[0]) * w)
                else:
                    kick = dwell_eig @ (phase.conj() * block.outer_kick(outer_step) * phase.T)
                state = _power_apply(kick, run.count, state)
            else:
                step = block.outer_kick(outer_step)
                for inner in inners[1:]:
                    following = np.exp(-1j * inner * w)[:, None]
                    state = dwell_eig @ (following.conj() * (step @ (phase * state)))
                    phase = following
        return state

    kicks = []
    for block in factory.blocks:
        vectors = block.inner.vectors
        dwell_eig = (vectors.conj().T * dwell[block.index]) @ vectors
        kicks.append((block.columns, block.code_eig, evolve(block, dwell_eig)))
    return kicks


def _leakage(overlap: np.ndarray) -> float:
    """Worst population deficit of the code columns, from their code-space overlaps."""
    return float(np.max(1.0 - np.sum(np.abs(overlap) ** 2, axis=0)))


def run_kicked(schedule: KickSchedule) -> KickedResult:
    """Evolve each code basis state around the loop and project back onto the frame.

    Returns the re-unitarized code-space map (raw dressed-frame basis, like the
    path-ordered oracle), the worst code-population deficit, and the fidelity
    |tr(M^dag P)| / dim against the area-formula gate, compared through the
    frozen frame calibration.
    """
    dim = schedule.loop.plane.code_dim
    code_map = np.zeros((dim, dim), dtype=complex)  # exactly zero between blocks
    leakages = []
    for columns, code_eig, state in _kicks(schedule):
        overlap = code_eig.conj().T @ state
        code_map[np.ix_(columns, columns)] = connection.polar_unitary(overlap)
        leakages.append(_leakage(overlap))
    leakage = max(leakages)
    prediction = connection.formula_gate_in_frame(schedule.loop)
    fidelity = float(np.abs(np.trace(code_map.conj().T @ prediction)) / dim)
    if leakage > LEAKAGE_FAILURE_THRESHOLD:
        warnings.warn(
            f"leakage {leakage:.3f} exceeds {LEAKAGE_FAILURE_THRESHOLD}; "
            "the evolution is not adiabatic at this kick count",
            AdiabaticityWarning,
            stacklevel=2,
        )
    return KickedResult(
        code_map=code_map,
        leakage=leakage,
        fidelity_to_prediction=fidelity,
        diagnostics={
            "kick_count": schedule.kick_count,
            "chi_delta_t": schedule.chi * schedule.delta_t,
            "adiabaticity_failure": leakage > LEAKAGE_FAILURE_THRESHOLD,
        },
    )
