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
generators, two parity blocks on plane III), in one basis per loop.  A loop
whose edges are all axis-aligned holds it in the eigenbasis of the inner
control generator, where the inner control factor of every kick is a
diagonal phase.  That eigenbasis is the direct sum of the bases of the
sectors of the inner generator (FrameFactory), and the Kerr dwell, diagonal
in the Fock basis, is block-diagonal by sector in it.  Only the state after
the whole loop is kept: on an axis-aligned edge every kick is the same
matrix, which is raised to the edge's kick count by squaring while the count
is large and then applied to the columns (_power_apply) instead of being
applied kick by kick.  Along the inner control that kick is block-diagonal
by sector too, so it is powered as a stack of small sector blocks (two
parity chains of 30 states on planes I/II at cutoff 60, 13 and 14 chains of
at most 14 states per parity block on plane III at cutoff 14); along the
outer control it is dense, but its dwell factor is applied sector by sector.
A loop with a tilted edge holds the code columns as real rows in the block's
paired basis (ControlBlock.paired_basis) on every edge, axis-aligned ones
included, and applies its kicks one by one: there the inner factor is a
rotation of each pair of basis columns, one complex multiply on the rows'
complex view, and on planes I and III the outer step is a real matrix, so a
kick reads n^2 doubles for it where a complex step on complex rows reads
4 n^2.  The dwell goes through its 2n x 2n real form (real_form), and every
kick writes into the same two buffers.
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
    lengths = loops_mod.edge_lengths(np.array([run.end - run.start for run in runs]))
    return float(np.max(lengths / [run.count for run in runs]))


def _schedule_runs(schedule: KickSchedule) -> list[loops_mod.EdgeRun]:
    runs = loops_mod.boundary_runs(schedule.loop, schedule.kick_count)
    max_step = largest_control_step(runs)
    if max_step > MAX_CONTROL_STEP:
        raise ValueError(
            f"largest control increment {max_step:.4g} exceeds {MAX_CONTROL_STEP}; "
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
    """R(M), the float64 form of x -> x @ M on complex rows held as [Re x | Im x].

    [Re x | Im x] @ R(M) = [Re(x M) | Im(x M)] for R(M) = [[Re M, Im M], [-Im M, Re M]].
    """
    return np.block([[matrix.real, matrix.imag], [-matrix.imag, matrix.real]])


def _kept_dwells(factory: connection.FrameFactory, chi: float, delta_t: float) -> dict:
    """The dwell forms kept on the factory for (chi, delta_t); any other dwell's are dropped."""
    key = (chi, delta_t)
    if key not in factory.dwells:
        factory.dwells.clear()
        factory.dwells[key] = {}
    return factory.dwells[key]


def sector_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell D = V^dag exp(-i H0 delta_t) V on each block, as a stack of its sector blocks.

    The Kerr dwell is diagonal in the Fock basis and V maps each sector of
    G_i onto itself, so D is block-diagonal by sector: it is built one sector
    at a time.  The stack, of shape (sectors, s, s) for the largest sector
    size s, holds each sector's block padded with the identity.  The stacks
    are kept, read-only, in factory.dwells for the last (chi, delta_t) asked
    for, so they live and die with the factory.
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "sectors" not in kept:
        dwell = fock.kerr_phases(chi, delta_t, factory.cutoff, factory.mode_count)
        stacks = []
        for block in factory.blocks:
            mask = block.sector_mask
            stack = np.tile(np.eye(mask.shape[1], dtype=complex), (mask.shape[0], 1, 1))
            for sector, part in zip(block.sectors, stack):
                vectors = sector.vectors
                size = vectors.shape[0]
                part[:size, :size] = (vectors.conj().T * dwell[sector.index]) @ vectors
            stack.setflags(write=False)
            stacks.append(stack)
        kept["sectors"] = stacks
    return kept["sectors"]


def paired_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell Q^dag exp(-i H0 delta_t) Q on each block, as the real form of its transpose.

    That is the dwell on columns in the paired basis Q (ControlBlock.paired_basis)
    held as [Re | Im] rows: a 2n x 2n real matrix per n-state block, built for
    the first loop with a tilted edge and kept, read-only, beside the sector stacks.
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "paired" not in kept:
        dwell = fock.kerr_phases(chi, delta_t, factory.cutoff, factory.mode_count)
        forms = []
        for block in factory.blocks:
            basis, _ = block.paired_basis
            form = real_form(((basis.conj().T * dwell[block.index]) @ basis).T)
            form.setflags(write=False)
            forms.append(form)
        kept["paired"] = forms
    return kept["paired"]


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


def _tilted_edge(rows, step, dwell_form, rates, inner0, inner_step, count) -> None:
    """`count` kicks of one edge on the columns held as paired rows, in place.

    `rows` is (columns, 2n): each column in Q as [Re | Im], so that its
    (2 columns, n) view holds real rows with each pair of Q adjacent, and the
    complex view of those holds y_a + i y_b per pair.  A kick is I's rotation
    at the kick point (one complex multiply on that view), the outer step S,
    the rotation back at the next point and the dwell.  A real S (planes I
    and III) is one (2 columns, n) @ (n, n) product, n^2 doubles read; a
    complex one (plane II) goes through its 2n x 2n real form on the rows,
    as the dwell always does.  The rotations exp(i w i) come from
    connection.phase_table, in tables of connection.MAGNUS_BATCH kicks each,
    the ones back conjugated once per table, and every kick writes into the
    same two buffers.  An axis-aligned edge of a loop in Q is the same loop
    with inner_step = 0 or S = outer_step(0).
    """
    columns, width = rows.shape
    n = width // 2
    ahead = np.empty_like(rows)
    halves, ahead_halves = rows.reshape(2 * columns, n), ahead.reshape(2 * columns, n)
    turned = 2 * rates.size
    pairs, ahead_pairs = (part[:, :turned].view(np.complex128) for part in (halves, ahead_halves))
    if np.isrealobj(step):
        source, matrix, target = halves, step.T, ahead_halves
    else:
        source, matrix, target = rows, real_form(step.T), ahead
    for start in range(0, count, connection.MAGNUS_BATCH):
        size = min(connection.MAGNUS_BATCH, count - start)
        # row k holds the rotations at kick point start + k of the edge
        table = connection.phase_table(-rates, inner0 + inner_step * start, inner_step, size + 1)
        back = np.conjugate(table[1:])
        for k in range(size):
            np.multiply(pairs, table[k], out=pairs)
            np.dot(source, matrix, out=target)
            np.multiply(ahead_pairs, back[k], out=ahead_pairs)
            np.dot(ahead, dwell_form, out=rows)


def _inner_basis_loop(block, runs, factory, dwell_stack) -> np.ndarray:
    """The block's code columns in V after a loop of axis-aligned edges, edge by edge as powers.

    In the inner eigenbasis V, I(i) = V diag(exp(-i i w)) V^dag is a
    diagonal phase and the dwell D = V^dag exp(-i H0 dt) V is block-diagonal
    by sector of G_i (sector_dwells).  The whole kick K of an edge is
    constant, and K^count is applied to the columns by _power_apply:
    squarings while the count is large, then the squared kick applied to the
    columns.  Along the inner control (o = o') the step V^dag O V is the
    identity, so K = D diag(exp(i (i' - i) w)) is block-diagonal by sector
    too, and it is powered as one stack of sector blocks (power_sectors): on
    plane III at cutoff 14 a squaring then costs 14 products of 14 x 14
    blocks instead of one 98 x 98 product.  Along the outer control K is
    dense, and D is multiplied onto the phased step through its sector
    stack: 14 products of 14 x 14 blocks by 14 x 98 rows instead of one
    98 x 98 product.  These kicks stay complex.
    """
    w = block.values
    mask = block.sector_mask
    w_stack = np.zeros(mask.shape)
    w_stack[mask] = w
    state = block.code_eig
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        inners = inner0 + (inner1 - inner0) * np.arange(2) / run.count
        if outer0 == outer1:  # O's step is the identity: one phase, then the dwell
            kick = dwell_stack * np.exp(1j * (inners[1] - inners[0]) * w_stack)[:, None, :]
            state = power_sectors(kick, run.count, state, mask)
        else:  # the dwell after the phased outer step, sector by sector
            phase = np.exp(-1j * inners[0] * w)[:, None]
            step = phase.conj() * block.outer_kick((outer0 - outer1) / run.count) * phase.T
            kick = (dwell_stack @ _stacked(step, mask))[mask]
            state = _power_apply(kick, run.count, state)
    return state


def _paired_loop(block, runs, factory, dwell_form) -> tuple[np.ndarray, np.ndarray]:
    """(Q^dag c, the block's code columns in Q after the loop): every edge kick by kick in Q.

    The columns start as the block's code columns c in the paired basis Q
    and are held as [Re | Im] rows through _tilted_edge, where I(i) rotates
    each pair of columns and, on planes I and III, the step
    S = Q^dag O Q is real (ControlBlock.outer_step, built once per edge).
    """
    basis, rates = block.paired_basis
    code = basis.conj().T @ block.code
    rows = np.ascontiguousarray(np.hstack([code.T.real, code.T.imag]))
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        step = block.outer_step((outer0 - outer1) / run.count)
        inner_step = (inner1 - inner0) / run.count
        _tilted_edge(rows, step, dwell_form, rates, inner0, inner_step, run.count)
    n = basis.shape[1]
    return code, (rows[:, :n] + 1j * rows[:, n:]).T


def _kicks(schedule: KickSchedule) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per control block: its code columns, their code states and their states after the loop.

    No control leaves an invariant block of the two control generators
    (FrameFactory.blocks), so each block evolves its own code columns.  A
    kick from p to p' is C(p')^dag C(p) = I(-i') O(-(o' - o)) I(i), then the
    dwell exp(-i H0 dt).  The code states and the evolved states are in one
    basis per loop: a loop of axis-aligned edges runs in the inner
    eigenbasis V with edge powers (_inner_basis_loop), and a loop with a
    tilted edge runs every edge kick by kick in the paired basis Q
    (_paired_loop).  Only a loop with a tilted edge builds Q, the outer
    eigenvectors in Q and the paired dwell, and only a loop without one
    builds the sector stacks.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    if all(run.axis_aligned for run in runs):
        stacks = sector_dwells(factory, schedule.chi, schedule.delta_t)
        return [
            (block.columns, block.code_eig, _inner_basis_loop(block, runs, factory, stack))
            for block, stack in zip(factory.blocks, stacks)
        ]
    forms = paired_dwells(factory, schedule.chi, schedule.delta_t)
    return [
        (block.columns, *_paired_loop(block, runs, factory, form))
        for block, form in zip(factory.blocks, forms)
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
    for columns, code, state in _kicks(schedule):
        overlap = code.conj().T @ state
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
