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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

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


def _schedule_runs(schedule: KickSchedule) -> list[loops_mod.EdgeRun]:
    runs = loops_mod.boundary_runs(schedule.loop, schedule.kick_count)
    max_step = max(float(np.linalg.norm(run.end - run.start)) / run.count for run in runs)
    if max_step > MAX_CONTROL_STEP:
        raise ValueError(
            f"largest control increment {max_step:.4f} exceeds {MAX_CONTROL_STEP}; "
            "increase kick_count"
        )
    return runs


def _stepped_kicks(
    factory: connection.FrameFactory,
    dwell: np.ndarray,
    points: np.ndarray,
    state: np.ndarray,
    after_kick: Callable[[np.ndarray], None],
) -> np.ndarray:
    """One kick per step along `points`: two control applies and a dwell each."""
    for (u_prev, v_prev), (u_cur, v_cur) in zip(points[:-1], points[1:]):
        state = factory.control_apply(u_prev, v_prev, state)
        state = factory.control_apply_dagger(u_cur, v_cur, state)
        state = dwell[:, None] * state
        after_kick(state)
    return state


def _edge_power_kicks(
    factory: connection.FrameFactory,
    dwell: np.ndarray,
    run: loops_mod.EdgeRun,
    state: np.ndarray,
    after_kick: Callable[[np.ndarray], None],
) -> np.ndarray:
    """The kicks of an axis-aligned run: one constant step matrix, applied count times.

    Only one control factor moves along the run, so C(p+h)^dag C(p) does not
    depend on p and every kick of the run is dwell * C(p0+h)^dag C(p0).
    """
    kick = dwell[:, None] * factory.edge_step(run.start, run.first_step())
    for _ in range(run.count):
        state = kick @ state
        after_kick(state)
    return state


def _evolve(schedule: KickSchedule, record_profile: bool):
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    mode_count = 2 if schedule.loop.plane is PlaneId.III else 1
    dwell = fock.kerr_phases(schedule.chi, schedule.delta_t, schedule.cutoff, mode_count)
    code = factory.code
    code_idx = np.nonzero(np.sum(np.abs(code) ** 2, axis=1))[0]

    profile = []

    def after_kick(state: np.ndarray) -> None:
        if record_profile:
            inside = np.sum(np.abs(state[code_idx, :]) ** 2, axis=0)
            profile.append(float(np.max(1.0 - inside)))

    state = code.copy()  # all code columns evolved together
    for run in runs:
        if run.axis_aligned:
            state = _edge_power_kicks(factory, dwell, run, state, after_kick)
        else:
            state = _stepped_kicks(factory, dwell, run.points(), state, after_kick)
    overlap = code.conj().T @ state
    return overlap, profile


def run_kicked(schedule: KickSchedule) -> KickedResult:
    """Evolve each code basis state around the loop and project back onto the frame.

    Returns the re-unitarized code-space map (raw dressed-frame basis, like the
    path-ordered oracle), the worst code-population deficit, and the fidelity
    |tr(M^dag P)| / dim against the area-formula gate, compared through the
    frozen frame calibration.
    """
    overlap, _ = _evolve(schedule, record_profile=False)
    leakage = float(np.max(1.0 - np.sum(np.abs(overlap) ** 2, axis=0)))
    code_map = connection.polar_unitary(overlap)
    prediction = connection.formula_gate_in_frame(schedule.loop)
    dim = code_map.shape[0]
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


def leakage_profile(schedule: KickSchedule) -> list[tuple[int, float]]:
    """Per-kick code-subspace population deficit, worst case over code states."""
    _, profile = _evolve(schedule, record_profile=True)
    return list(enumerate(profile))
