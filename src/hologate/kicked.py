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
generators, FrameFactory.blocks: on plane III the U = +1 halves of the two
parity blocks, U = P i^(n1 - n2), built by one construction), in the block's
paired basis Q (ControlBlock.paired_basis), where the inner control factor
of every kick turns each pair of basis columns and the Kerr dwell is
block-diagonal by sector of the inner generator.  Plane III's odd block
carries its U = -1 half as a conjugate twin: the same Q, chains, dwell and
code row, with the outer step conjugated, so the block evolves two code
columns, one for each sign (ControlBlock.signs), and its 2 x 2 map is put
together from the two halves' overlaps (_kicks).  Each edge takes one of
two kernels (_block_loop): an axis-aligned edge's constant kick is raised
to the edge's kick count (_power_apply), the twin's kick beside the block's
in one stack, and a tilted edge's kicks go one by one on the code columns
held as real rows (_tilted_edge), the twin's with its imaginary row signed,
so that it crosses the step conjugated.  An outer-direction edge's kick is
the outer step, built unturned once for a rect's two such edges and turned
by I's rotation per edge.  Only the state after the whole loop is kept.
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

# Kicks whose rotations a tilted edge broadcasts to the rows' pair view at once.  A
# multiply by a broadcast row of the table took 1.0-1.1 us against 0.4-0.5 us by a
# row of the rows' shape (OpenBLAS, one thread).  A whole phase batch of those, about
# 0.8 MB on a 98-state block, ran its kick at 11.6 us against 9.7 us 32 kicks at a
# time, and within 2% of it on rows of 52 to 60 states.
_BROADCAST_KICKS = 32

@dataclass(frozen=True)
class KickSchedule:
    """A discretized loop traversal: K kicks with a Kerr dwell after each."""

    loop: LoopSpec
    kick_count: int
    chi: float = DEFAULT_CHI
    delta_t: float = DEFAULT_DELTA_T
    cutoff: int = 40

    def __post_init__(self):
        for name in ("kick_count", "cutoff"):
            loops_mod.check_integer(name, getattr(self, name))
        # the kicked blocks are dense: refused here, before anything is formed
        fock.check_dense_budget(self.cutoff, 2 if self.loop.plane is PlaneId.III else 1)
        if self.kick_count < 16:
            raise ValueError(f"kick_count must be at least 16, got {self.kick_count}")
        for name in ("delta_t", "chi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class KickedResult:
    code_map: np.ndarray  # re-unitarized code-space map, raw dressed-frame basis
    leakage: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


def largest_control_step(runs: list[loops_mod.EdgeRun]) -> float:
    """Largest control-plane distance between consecutive kicks along the runs."""
    return max(run.length / run.count for run in runs)


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


def _aligned(array: np.ndarray) -> np.ndarray:
    """A copy of `array` in its own memory order that starts on a 64-byte boundary.

    numpy aligns its arrays to 16 bytes only, and a tilted kick reads the
    dwell's real form slower off a 64-byte boundary: 6.3 against 7.1-7.3 us
    on plane I's 60-state block and 5.6 against 6.0-6.7 us on plane III's
    56-state half (OpenBLAS, one thread), so where the form lands no longer
    decides the kick's speed.  The memory order is kept, and with it the
    products' rounding.
    """
    buffer = np.empty(array.nbytes + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    order = "C" if array.flags.c_contiguous else "F"
    out = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape, order=order)
    out[...] = array
    return out


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
    """Per block, (D, E, rates): the dwell D = Q^dag exp(-i H0 delta_t) Q as sector stacks.

    D is block-diagonal by sector up to the order of Q's columns, so it is
    built one sector at a time, on the sector's columns in the order of
    ControlBlock.sector_columns.  The stack, of shape (sectors, s, s) for the
    largest sector size s, holds each sector's block padded with the
    identity.  E is D with each pair's columns (a, b) taken as (-b, a), and
    the rates, of shape (sectors, s), are the rotation rate of each column's
    pair, zero off the pairs: D I(-t) = D cos(t rates) + E sin(t rates),
    column by column.  All are kept, read-only, in factory.dwells for the
    last (chi, delta_t) asked for, so they live and die with the factory.
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "sectors" not in kept:
        dwell = fock.kerr_phases(chi, delta_t, factory.cutoff, factory.mode_count)
        stacks = []
        for block in factory.blocks:
            basis, pair_rates = block.paired_basis
            columns = block.sector_columns
            stack = np.tile(np.eye(columns.shape[1], dtype=complex), (columns.shape[0], 1, 1))
            for sector, part, rows, places in zip(block.sectors, stack, block.sector_rows, columns):
                size = sector.index.size
                q = basis[rows, places[:size]]
                part[:size, :size] = (q.conj().T * dwell[sector.index]) @ q
            # either column c of a pair turns at pair_rates[c // 2]; the rest at the appended 0
            rates = np.append(pair_rates, 0.0)[columns // 2]
            paired, partner = columns.shape[1] // 2 * 2, np.zeros_like(stack)
            partner[..., :paired:2] = -stack[..., 1:paired:2]
            partner[..., 1:paired:2] = stack[..., :paired:2]
            for kept_array in (stack, partner, rates):
                kept_array.setflags(write=False)
            stacks.append((stack, partner, rates))
        kept["sectors"] = stacks
    return kept["sectors"]


def _row_width(block) -> int:
    """The width of a block's tilted kick rows: its size, or the next multiple of 4 on a twin.

    A block with a conjugate twin (ControlBlock.signs) holds a column whose
    imaginary row is signed, and the sign rides on I's rotation, so the
    rotation's pair view must span the whole row: the rows are padded with
    zeros to an even width, and the rates with zero.  The next multiple of 4
    makes a (2, 2 width) row pair of whole 64-byte lines: at cutoff 14 a
    tilted kick took as long at 52 as at 50, the least even width, and
    longer at 56 and 64 (BENCH_28.json).
    """
    n = block.index.size
    return n if len(block.signs) == 1 else -(-n // 4) * 4


def dense_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell D = Q^dag exp(-i H0 delta_t) Q on each block, as one dense n x n matrix.

    Scattered from the sector stacks (sector_dwells) with no product: D is
    zero between sectors.  Built on first use and kept, read-only, beside
    the stacks; an outer-direction kick takes it in one product
    (_block_loop), and a tilted one its real form (paired_dwells).
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "dense" not in kept:
        matrices = []
        for block, (stack, _, _) in zip(factory.blocks, sector_dwells(factory, chi, delta_t)):
            n = block.index.size
            matrix = np.zeros((n, n), dtype=complex)
            for part, places in zip(stack, block.sector_columns):
                places = places[places < n]
                matrix[np.ix_(places, places)] = part[: places.size, : places.size]
            matrix.setflags(write=False)
            matrices.append(matrix)
        kept["dense"] = matrices
    return kept["dense"]


def paired_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell D = Q^dag exp(-i H0 delta_t) Q on each block, as the real form of its transpose.

    That is the dwell on columns in the paired basis Q (ControlBlock.paired_basis)
    held as [Re | Im] rows: a 2 width x 2 width real matrix per block
    (_row_width), built for the first tilted edge and kept, read-only,
    beside the sector stacks, from the dense dwell (dense_dwells) padded
    with zeros.
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "paired" not in kept:
        forms = []
        for block, dwell in zip(factory.blocks, dense_dwells(factory, chi, delta_t)):
            padded = np.pad(dwell, (0, _row_width(block) - block.index.size))
            form = _aligned(real_form(padded.T))
            form.setflags(write=False)
            forms.append(form)
        kept["paired"] = forms
    return kept["paired"]


def _by_sector(apply, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """apply(rows gathered sector by sector at ControlBlock.sector_columns), scattered back.

    The padding places read, and write, an appended zero row.
    """
    padded = np.zeros((rows.shape[0] + 1,) + rows.shape[1:], dtype=complex)
    padded[:-1] = rows
    padded[columns] = apply(padded[columns])
    return padded[:-1]


def _tilted_edge(rows, step, dwell_form, rates, inner0, inner_step, count, signs) -> None:
    """`count` kicks of one edge on the columns held as paired rows, in place.

    `rows` is (columns, 2n): each column in Q as [Re | Im], so that its
    (2 columns, n) view holds real rows with each pair of Q adjacent, and the
    complex view of those holds y_a + i y_b per pair.  A kick is I's rotation
    at the kick point (one complex multiply on that view), the outer step S,
    the rotation back at the next point and the dwell.  A real S (planes I
    and III) is one (2 columns, n) @ (n, n) product, n^2 doubles read; a
    complex one (plane II, plane III's odd block) goes through its 2n x 2n real form
    on the rows, as the dwell always does.  `signs` holds one sign per real
    row of the view, and both rotations take it: a column whose imaginary
    row is signed -1 crosses the step conjugated, conj(S conj(y)), and is
    itself again for the dwell.  That needs the pair view to span the whole
    row (2 rates.size = n); ones leave every column as it is.  The rotations
    exp(i w i) come from connection.phase_table, in tables of
    connection.MAGNUS_BATCH kicks each, the ones back conjugated, and are
    broadcast to the view's rows, signs included, _BROADCAST_KICKS kicks at
    a time; every kick writes into the same two buffers.
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
    signs = signs[:, None]
    for start in range(0, count, connection.MAGNUS_BATCH):
        size = min(connection.MAGNUS_BATCH, count - start)
        # row k holds the rotations at kick point start + k of the edge
        table = connection.phase_table(-rates, inner0 + inner_step * start, inner_step, size + 1)
        fore, back = table[:-1, None], np.conjugate(table[1:])[:, None]
        for first in range(0, size, _BROADCAST_KICKS):
            kicks = slice(first, first + _BROADCAST_KICKS)
            for turn, turn_back in zip(fore[kicks] * signs, back[kicks] * signs):
                np.multiply(pairs, turn, pairs)
                np.dot(source, matrix, target)
                np.multiply(ahead_pairs, turn_back, ahead_pairs)
                np.dot(ahead, dwell_form, rows)


def _tilted_columns(columns, width, step, dwell_form, rates, signs, *edge) -> np.ndarray:
    """The complex `columns` (k, m) after _tilted_edge's kicks, held as [Re | Im] rows of `width`.

    The rows, and the step, are padded with zeros from m to `width`, and the
    rows stay zero there.  `edge` is (inner0, inner_step, count).
    """
    size = columns.shape[-1]
    rows = np.zeros((columns.shape[0], 2 * width))
    rows[:, :size], rows[:, width : width + size] = columns.real, columns.imag
    if size < width:
        step = np.pad(step, (0, width - size))
    _tilted_edge(rows, step, dwell_form, rates, *edge, signs)
    return rows[:, :size] + 1j * rows[:, width : width + size]


def _shared_step(block, steps: dict, d_outer: float) -> np.ndarray:
    """The unturned outer step S(d_outer), kept in the loop's `steps` by d_outer.

    S(-d) = S(d)^dag, its transpose on a real step, so a rect's two
    outer-direction edges, whose d_outer are opposite, build one step.
    """
    if -d_outer in steps:
        opposite = steps[-d_outer]
        return opposite.T if block.real_step else opposite.conj().T
    steps[d_outer] = block.outer_step(d_outer)
    return steps[d_outer]


def _block_loop(block, runs, factory, sectors, dwell, form) -> np.ndarray:
    """The block's code rows in Q after the loop, once per sign of the block, edge by edge.

    The columns start as Q^dag code (ControlBlock.paired_code), one copy
    for each of block.signs; a -1 column is the conjugate twin's, which
    shares Q, the chains, the dwell and the code rows, and crosses each
    outer step conjugated.  An axis-aligned edge's kick K is constant, and
    K^count is applied to the columns by _power_apply.  Along the inner
    control the outer step is the identity, and K = D I(-inner step) is
    powered as the block's stack of sector blocks, `sectors`
    (sector_dwells), on every column at once.  Along the outer control
    K = D R S R^dag, S the unturned outer step (ControlBlock.outer_step),
    built once per loop for a rect's two opposite edges (_shared_step), and
    R = Q^dag I(-inner) Q the turn at the edge's inner value
    (ControlBlock.turned_step); D multiplies on as the dense `dwell`
    (dense_dwells).  These kicks stay complex, and on a twin the kick and
    the twin's, D conj(R S R^dag) (R is real there), are powered as one
    stack, one column each.  A tilted edge's kicks go one by one on the
    columns held as [Re | Im] rows of _row_width, with the dwell's real form
    `form` (_tilted_edge); a twin's column has its imaginary row signed -1,
    so that it crosses the step conjugated.
    """
    rates = block.paired_basis[1]
    signs = np.repeat(block.signs, block.paired_code.shape[1])
    state = np.tile(block.paired_code, len(block.signs))
    width, columns, steps = _row_width(block), block.sector_columns, {}
    turning = np.zeros(width // 2)
    turning[: rates.size] = rates
    row_signs = np.stack([np.ones(signs.size), signs], axis=1).ravel()
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        d_outer, inner_step = (outer0 - outer1) / run.count, (inner1 - inner0) / run.count
        if not run.axis_aligned:
            step, edge = block.outer_step(d_outer), (inner0, inner_step, run.count)
            state = _tilted_columns(state.T, width, step, form, turning, row_signs, *edge).T
        elif outer0 == outer1:  # D I(-inner_step), sector by sector
            stack, partner, sector_rates = sectors
            turns = inner_step * sector_rates[:, None]
            kick = stack * np.cos(turns) + partner * np.sin(turns)
            power = lambda part: _power_apply(kick, run.count, part)  # noqa: E731
            state = _by_sector(power, state, columns)
        else:
            step = block.turned_step(_shared_step(block, steps, d_outer), inner0)
            if len(block.signs) == 1:
                state = _power_apply(dwell @ step, run.count, state)
            else:  # the block's kick and its twin's, one column each, from one dwell product
                both = dwell @ np.hstack([step, step.conj()])
                kicks = np.stack(np.hsplit(both, 2))
                state = _power_apply(kicks, run.count, state.T[:, :, None])[:, :, 0].T
    return state


def _kicks(schedule: KickSchedule) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per control block: its code columns, their code states and their states after the loop.

    No control leaves an invariant block of the two control generators
    (FrameFactory.blocks), so each block evolves its own code columns.  A
    kick from p to p' is C(p')^dag C(p) = I(-i') O(-(o' - o)) I(i), then the
    dwell exp(-i H0 dt).  The code states and the evolved states are in the
    block's paired basis Q (_block_loop).  A block holds its code columns as
    B^dag c = code mix (ControlBlock), mix the identity on a block with one
    sign.  A block with a conjugate twin evolves its one code row in both
    halves, and both are returned stacked, each times its mix: mix on the
    block and conj(mix) on the twin.  Then code^dag state sums the halves,
    and the odd block's code map on plane III is phi+ P+ + phi- P-, with phi
    the overlap of each half's evolved code row with its start and P the
    projector mix^dag mix, or its conjugate, onto the code pair's U = +1 or
    U = -1 state.  Every loop builds the sector stacks and the dense dwell,
    and only one with a tilted edge the dwell's real form.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    args = (factory, schedule.chi, schedule.delta_t)
    stacks, dense = sector_dwells(*args), dense_dwells(*args)
    tilted = not all(run.axis_aligned for run in runs)
    forms = paired_dwells(*args) if tilted else [None] * len(factory.blocks)
    out = []
    for block, sectors, dwell, form in zip(factory.blocks, stacks, dense, forms):
        code, state = block.paired_code, _block_loop(block, runs, factory, sectors, dwell, form)
        if len(block.signs) > 1:  # each half times its mix: mix, and conj(mix) on the twin
            mixes = (block.mix, block.mix.conj())
            halves = np.split(state, len(mixes), axis=1)
            state = np.vstack([half @ mix for half, mix in zip(halves, mixes)])
            code = np.vstack([code @ mix for mix in mixes])
        out.append((block.columns, code, state))
    return out


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
