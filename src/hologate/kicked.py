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
diagonal phase.  That eigenbasis is the direct sum of the bases of the
sectors of the inner generator (FrameFactory), and the Kerr dwell, diagonal
in the Fock basis, is block-diagonal by sector in it.  Only the state after
the whole loop is kept: on an axis-aligned edge every kick is the same
matrix, which is raised to the edge's kick count by squaring while the
count is large and then applied to the columns (_power_apply) instead of
being applied kick by kick.  Along the inner control that kick is
block-diagonal by sector too, so it is powered as a stack of small sector
blocks (two parity chains of 30 states on planes I/II at cutoff 60, 13 and
14 chains of at most 14 states per parity block on plane III at cutoff 14);
along the outer control it is dense, but its dwell factor is applied
sector by sector.
On a tilted edge the kicks differ and are applied one by one, to the code
columns held as rows, through the real forms of the edge's outer step and of
the dwell (real_form): on two rows a real product of twice the size runs
faster than the complex one, and every kick writes into the same two buffers.
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
from .loops import LoopSpec

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
    """kick^count @ state: binary powering while the count is large, then kick by kick.

    Squaring an n x n kick costs about n^3 and applying it to the state's
    columns about n^2 columns, and a squaring halves the applications left,
    so by flops it pays while count > 2 n / columns.  A product on a few
    columns runs about 4 times slower per flop than a square one (OpenBLAS,
    one thread, n = 60 and 98 on 2 columns), so squaring stops once the
    count falls below n / (2 columns), and the kick, squared so far, is then
    applied that many times.  At the smallest limit, 2, this is plain
    binary powering.  Broadcasts over a stack of kicks, n then being the
    stack's block size.
    """
    limit = max(2, kick.shape[-1] // (2 * state.shape[-1]))
    while count >= limit:
        if count & 1:
            state = kick @ state
        count >>= 1
        kick = kick @ kick
    for _ in range(count):
        state = kick @ state
    return state


def real_form(matrix: np.ndarray) -> np.ndarray:
    """R(M), the float64 form of x -> x @ M on complex rows x.

    (x.view(float64) @ R(M)).view(complex128) == x @ M: the float64 view of x
    interleaves real and imaginary parts, so each entry m of M becomes the
    2x2 block [[Re m, Im m], [-Im m, Re m]].
    """
    rows, cols = matrix.shape
    form = np.empty((rows, 2, cols, 2))
    form[:, 0, :, 0] = form[:, 1, :, 1] = matrix.real
    form[:, 0, :, 1] = matrix.imag
    np.negative(matrix.imag, out=form[:, 1, :, 0])
    return form.reshape(2 * rows, 2 * cols)


def sector_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell D = V^dag exp(-i H0 delta_t) V on each block, as a sector stack and as one matrix.

    The Kerr dwell is diagonal in the Fock basis and V maps each sector of
    G_i onto itself, so D is block-diagonal by sector: it is built one sector
    at a time, and the matrix is exactly zero between sectors.  The stack, of
    shape (sectors, s, s) for the largest sector size s, holds each sector's
    block padded with the identity.  Both are kept, read-only, in
    factory.dwells for the last (chi, delta_t) asked for, so they live and
    die with the factory.
    """
    key = (chi, delta_t)
    if key not in factory.dwells:
        dwell = fock.kerr_phases(chi, delta_t, factory.cutoff, factory.mode_count)
        built = []
        for block in factory.blocks:
            mask = block.sector_mask
            stack = np.tile(np.eye(mask.shape[1], dtype=complex), (mask.shape[0], 1, 1))
            dense = np.zeros((block.index.size,) * 2, dtype=complex)
            start = 0
            for sector, part in zip(block.sectors, stack):
                vectors = sector.vectors
                size = vectors.shape[0]
                part[:size, :size] = (vectors.conj().T * dwell[sector.index]) @ vectors
                dense[start : start + size, start : start + size] = part[:size, :size]
                start += size
            stack.setflags(write=False)
            dense.setflags(write=False)
            built.append((stack, dense))
        factory.dwells.clear()
        factory.dwells[key] = built
    return factory.dwells[key]


def _stacked(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """`rows` laid out sector by sector, shape mask.shape + rows.shape[1:], zero in the padding."""
    stacked = np.zeros(mask.shape + rows.shape[1:], dtype=complex)
    stacked[mask] = rows
    return stacked


def power_sectors(kick: np.ndarray, count: int, state: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """kick^count @ state for a block-diagonal kick given as a sector stack.

    The state's rows are gathered into the stack's layout (zeros in the
    padding, which the identity there keeps at zero) and powered through
    _power_apply, which broadcasts over the sectors; then scattered back.
    """
    return _power_apply(kick, count, _stacked(state, mask))[mask]


def _kicks(schedule: KickSchedule) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per control block: its code columns, their code states and their states after the loop.

    No control leaves an invariant block of the two control generators
    (FrameFactory.blocks), so each block evolves its own code columns, held in
    the block's inner eigenbasis V.  A kick from p to p' is
    C(p')^dag C(p) = I(-i') O(-(o' - o)) I(i), and I(i) = V diag(exp(-i i w)) V^dag,
    so in V a kick is the step S = V^dag O V between two diagonal phases, then
    the dwell D = V^dag exp(-i H0 dt) V, which is block-diagonal by sector of
    G_i (sector_dwells).

    On an axis-aligned edge the whole kick K is constant, and K^count is
    applied to the columns by _power_apply: squarings while the count is
    large, then the squared kick applied to the columns.  Along the inner control
    (o = o') S is the identity, so K = D diag(exp(i (i' - i) w)) is
    block-diagonal by sector too, and it is powered as one stack of sector
    blocks (power_sectors): on plane III at cutoff 14 a squaring then costs
    14 products of 14 x 14 blocks instead of one 98 x 98 product.  Along the
    outer control K is dense, and D is multiplied onto the phased step
    through its sector stack: 14 products of 14 x 14 blocks by 14 x 98 rows
    instead of one 98 x 98 product.  A real form would double the cost of
    each squaring, so these edges stay complex, and a loop of them builds no
    real form.  The dwell comes from sector_dwells, built once per factory
    and dwell.

    On a tilted edge S is constant and the inner phases at the edge's kick
    points come from CodeBlock.phases tables of connection.MAGNUS_BATCH kicks
    each, so memory stays flat whatever the kick count, and each kick is two
    row scalings and two products.  The columns are held as rows x (code
    columns x block size), so the products are x S^T and x D^T, and they go
    through real_form(S^T) and real_form(D^T): on two rows this real product
    runs about 1.5 times faster than the complex one (OpenBLAS, one thread,
    block size 98).  Each kick writes into the same two buffers, and the
    complex S is dropped once its real form exists.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    tilted = not all(run.axis_aligned for run in runs)

    def evolve(block: connection.ControlBlock, dwell_stack, dwell_eig) -> np.ndarray:
        w = block.values
        mask = block.sector_mask
        w_stack = np.zeros(mask.shape)
        w_stack[mask] = w
        state = block.code_eig
        if tilted:
            dwell_re = real_form(dwell_eig.T)
            rows = np.empty(state.T.shape, dtype=complex)
            scaled = np.empty_like(rows)
            rows_re, scaled_re = rows.view(np.float64), scaled.view(np.float64)
            following = np.empty(w.size, dtype=complex)
        for run in runs:
            outer0, inner0 = factory.split(*run.start)
            outer1, inner1 = factory.split(*run.end)
            outer_step = (outer0 - outer1) / run.count
            if run.axis_aligned:
                inners = inner0 + (inner1 - inner0) * np.arange(2) / run.count
                if outer0 == outer1:  # O's step is the identity: one phase, then the dwell
                    kick = dwell_stack * np.exp(1j * (inners[1] - inners[0]) * w_stack)[:, None, :]
                    state = power_sectors(kick, run.count, state, mask)
                else:  # the dwell after the phased outer step, sector by sector
                    phase = np.exp(-1j * inners[0] * w)[:, None]
                    step = phase.conj() * block.outer_kick(outer_step) * phase.T
                    kick = (dwell_stack @ _stacked(step, mask))[mask]
                    state = _power_apply(kick, run.count, state)
            else:
                step_re = real_form(block.outer_kick(outer_step).T)
                inner_step = (inner1 - inner0) / run.count
                rows[...] = state.T
                for start in range(0, run.count, connection.MAGNUS_BATCH):
                    size = min(connection.MAGNUS_BATCH, run.count - start)
                    # column k holds I's phases at kick point start + k of the edge
                    phases = block.phases(inner0 + inner_step * start, inner_step, size + 1)
                    for k in range(size):
                        np.multiply(rows, phases[:, k], out=scaled)
                        np.matmul(scaled_re, step_re, out=rows_re)
                        np.conjugate(phases[:, k + 1], out=following)
                        np.multiply(rows, following, out=scaled)
                        np.matmul(scaled_re, dwell_re, out=rows_re)
                state = rows.T
        return state

    dwells = sector_dwells(factory, schedule.chi, schedule.delta_t)
    return [
        (block.columns, block.code_eig, evolve(block, *dwell))
        for block, dwell in zip(factory.blocks, dwells)
    ]


def _leakage(state: np.ndarray, overlap: np.ndarray) -> float:
    """Worst population outside the code space over the code columns.

    Per column it is |state|^2 - |overlap|^2, the state's own norm less its
    code-space part, so rounding that drifts the norm of the evolved state
    cancels instead of reading as leakage.
    """
    outside = np.sum(np.abs(state) ** 2, axis=0) - np.sum(np.abs(overlap) ** 2, axis=0)
    return float(np.max(outside))


def run_kicked(schedule: KickSchedule) -> KickedResult:
    """Evolve each code basis state around the loop and project back onto the frame.

    Returns the re-unitarized code-space map (raw dressed-frame basis, like the
    path-ordered oracle) and the worst population outside the code space.
    """
    dim = schedule.loop.plane.code_dim
    code_map = np.zeros((dim, dim), dtype=complex)  # exactly zero between blocks
    leakages = []
    for columns, code_eig, state in _kicks(schedule):
        overlap = code_eig.conj().T @ state
        code_map[np.ix_(columns, columns)] = connection.polar_unitary(overlap)
        leakages.append(_leakage(state, overlap))
    leakage = max(leakages)
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
        diagnostics={
            "kick_count": schedule.kick_count,
            "chi_delta_t": schedule.chi * schedule.delta_t,
        },
    )
