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
generators: on plane III the odd parity block and the swap-symmetric half of
the even one, FrameFactory.blocks), in the block's paired basis Q
(ControlBlock.paired_basis), where the inner control factor of every kick
turns each pair of basis columns and the Kerr dwell is block-diagonal by
sector of the inner generator.  Each edge takes one of two kernels
(_block_loop): an axis-aligned edge's constant kick is raised to the edge's
kick count (_power_apply), and a tilted edge's kicks go one by one on the
code columns held as real rows (_tilted_edge).  An outer-direction edge's
kick is the outer step, built unturned once for a rect's two such edges and
turned by I's rotation per edge.  On plane III's odd block, which
U = P i^(n1 - n2) maps to itself (ControlBlock.swap_pairing), that kick is
split into its two U halves and powered as one stack of half-size blocks,
one code column each (_halved_power).  A tilted edge there runs on the two
halves as well, as one pair of real rows through the same kernel
(_tilted_halves): the half steps are S+ and conj(S+) and the half dwells
equal, so one signed row crosses the step conjugated, and a kick reads
about a third of the whole block's doubles in the same four calls.  Only
the state after the whole loop is kept.
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

# The signs of U's two halves on a block that U swaps: U = +1, then U = -1.
_HALF_SIGNS = np.array([1.0, -1.0])
# The signs of the halves' real rows in a tilted kick, Re and Im of the + half, then
# of the - half: its imaginary row is negated, so that it crosses the step conjugated.
_CONJUGATED = np.array([1.0, 1.0, 1.0, -1.0])


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


def paired_dwells(factory: connection.FrameFactory, chi: float, delta_t: float):
    """The dwell D = Q^dag exp(-i H0 delta_t) Q on each block, as the real form of its transpose.

    That is the dwell on columns in the paired basis Q (ControlBlock.paired_basis)
    held as [Re | Im] rows: a 2n x 2n real matrix per n-state block, built for
    the first tilted edge and kept, read-only, beside the sector stacks.  On
    a block that U swaps the tilted kicks run on its halves (_tilted_halves),
    where the dwell is D[c, c] in half_layout's order and padding: its form
    is 2 width x 2 width, about a quarter of the block's.
    """
    kept = _kept_dwells(factory, chi, delta_t)
    if "paired" not in kept:
        dwell = fock.kerr_phases(chi, delta_t, factory.cutoff, factory.mode_count)
        forms = []
        for block in factory.blocks:
            basis, _ = block.paired_basis
            if block.swap_pairing is None:
                matrix = (basis.conj().T * dwell[block.index]) @ basis
            else:
                pairing, width, _ = half_layout(block)
                size, within = pairing.half.size, basis[:, pairing.half]
                matrix = np.zeros((width, width), dtype=complex)
                matrix[:size, :size] = (within.conj().T * dwell[block.index]) @ within
            form = _aligned(real_form(matrix.T))
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


def _dwell_rows(block, stack: np.ndarray, step: np.ndarray, sectors=slice(None)):
    """((D @ step)[order], order): D's rows at the `sectors` of the stack, sector by sector.

    D is the dwell held as its sector stack (sector_dwells), block-diagonal
    by sector up to the order of Q's columns, so with the step's rows taken
    sector by sector (ControlBlock.sector_columns; `order` lists them) each
    sector's rows of the product are one small product D_k S_k.  It is taken
    transposed, S_k^T D_k^T, and written straight into that sector's columns
    of one array; a real step takes D_k^T on its [Re, Im]-interleaved view,
    so that S_k^T needs no complex copy.  No padded copy of the step is
    formed.
    """
    n = step.shape[0]
    columns = block.sector_columns[sectors]
    order = columns[columns < n]  # Q's columns sector by sector
    ends = np.cumsum(np.count_nonzero(columns < n, axis=1))
    rows = step[order]
    parts = stack[sectors].transpose(0, 2, 1).copy()  # each sector's D_k^T, padded
    transposed = np.empty((n, order.size), dtype=complex)  # (D S)^T, columns sector by sector
    out, width = transposed, 1
    if np.isrealobj(step):  # a complex entry is two floats of the views
        parts, out, width = parts.view(np.float64), transposed.view(np.float64), 2
    for part, start, end in zip(parts, np.append(0, ends[:-1]), ends):
        dwell_t = part[: end - start, : width * (end - start)]
        np.matmul(rows[start:end].T, dwell_t, out=out[:, width * start : width * end])
    return transposed.T, order


def _dwell_product(block, stack: np.ndarray, step: np.ndarray) -> np.ndarray:
    """D @ step for the dwell D held as its sector stack (sector_dwells): _dwell_rows, in order."""
    rows, order = _dwell_rows(block, stack, step)
    product = np.empty(rows.shape, dtype=complex)  # C order, as the powers read it fastest
    product[order] = rows
    return product


def _tilted_edge(rows, step, dwell_form, rates, inner0, inner_step, count, signs) -> None:
    """`count` kicks of one edge on the columns held as paired rows, in place.

    `rows` is (columns, 2n): each column in Q as [Re | Im], so that its
    (2 columns, n) view holds real rows with each pair of Q adjacent, and the
    complex view of those holds y_a + i y_b per pair.  A kick is I's rotation
    at the kick point (one complex multiply on that view), the outer step S,
    the rotation back at the next point and the dwell.  A real S (planes I
    and III) is one (2 columns, n) @ (n, n) product, n^2 doubles read; a
    complex one (plane II, the U halves) goes through its 2n x 2n real form
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

    The rows are padded with zeros from m to `width`, and stay zero there.
    `edge` is (inner0, inner_step, count).
    """
    size = columns.shape[-1]
    rows = np.zeros((columns.shape[0], 2 * width))
    rows[:, :size], rows[:, width : width + size] = columns.real, columns.imag
    _tilted_edge(rows, step, dwell_form, rates, *edge, signs)
    return rows[:, :size] + 1j * rows[:, width : width + size]


def _sector_power(kick: np.ndarray, count: int, pairing):
    """apply(rows): kick^count on rows gathered sector by sector (_by_sector), for a sector stack.

    On a block that U swaps (`pairing`, ControlBlock.swap_pairing), U maps
    sector d onto -d place by place, and the dwell's blocks on the two, and
    their pair rates, are the same numbers, so the kick's sector blocks at d
    and -d are equal: only the d < 0 half of the stack is powered, on the
    rows of both sectors side by side.
    """
    if pairing is None:
        return lambda part: _power_apply(kick, count, part)
    lower, upper = pairing.lower, pairing.upper

    def apply(part):
        width = part.shape[-1]
        both = _power_apply(kick[lower], count, np.concatenate([part[lower], part[upper]], -1))
        part[lower], part[upper] = both[..., :width], both[..., width:]
        return part

    return apply


def _shared_step(block, steps: dict, d_outer: float) -> np.ndarray:
    """The unturned outer step S(d_outer), kept in the loop's `steps` by d_outer.

    S(-d) = S(d)^dag, its transpose on a real block, so a rect's two
    outer-direction edges, whose d_outer are opposite, build one step.
    """
    if -d_outer in steps:
        opposite = steps[-d_outer]
        return opposite.T if block.real_controls else opposite.conj().T
    steps[d_outer] = block.outer_step(d_outer)
    return steps[d_outer]


def _on_halves(state: np.ndarray, pairing, apply) -> np.ndarray:
    """The code columns `state` after apply(halves) on the U = +-1 halves of a block that U swaps.

    `pairing` is ControlBlock.swap_pairing.  The two code columns are turned
    to one in each half (pairing.turn), and the halves' coordinates on their
    bases (e_c +- phase e_p)/sqrt 2, c in pairing.half, are taken times
    sqrt 2, t[c] +- conj(phase) t[p]: `halves` is (2, n/2), the + half
    first.  apply returns them after, and they are given back halved.
    """
    half, partner, phase, turn = pairing.half, pairing.partner, pairing.phase, pairing.turn
    turned = state @ turn
    halves = turned[half] + phase.conj()[:, None] * turned[partner] * _HALF_SIGNS
    halves = apply(halves.T).T / 2.0
    turned[half], turned[partner] = halves, phase[:, None] * halves * _HALF_SIGNS
    return turned @ turn.conj().T


def _half_kicks(rows: np.ndarray, pairing) -> np.ndarray:
    """K+- = K[c, c] +- K[c, p] phase, as a (2, n/2, n/2) stack, from K's `rows` at c.

    K commutes with U, so on the halves' bases (_on_halves) it is these two
    blocks, split with no product (pairing, ControlBlock.swap_pairing).
    """
    within, across = rows[:, pairing.half], rows[:, pairing.partner] * pairing.phase
    return np.stack([within + across, within - across])


def _halved_power(rows: np.ndarray, count: int, state: np.ndarray, pairing) -> np.ndarray:
    """K^count @ state on the U = +-1 halves of a block that U swaps, from K's `rows` at c.

    The halves (_half_kicks), one code column each (_on_halves), are powered
    as one (2, n/2, n/2) stack.
    """
    kicks = _half_kicks(rows, pairing)
    return _on_halves(
        state, pairing, lambda halves: _power_apply(kicks, count, halves[:, :, None])[:, :, 0]
    )


def half_layout(block):
    """(pairing, width, rates): where the tilted kicks of a block that U swaps run on its halves.

    `pairing` is ControlBlock.swap_pairing with the half's columns c in Q's
    order, its pairs first, each adjacent, then its zero modes, so that I
    turns each pair (2k, 2k + 1) of the half as it turns that pair in Q, at
    the pair's rate in `rates`, and the zero modes not at all.  The half is
    padded with zeros to `width`, the next multiple of 4: a (2, 2 width)
    row pair of whole 64-byte lines.  At cutoff 14 a tilted kick took as long
    at 52 as at 50, the least even width, and longer at 56 and 64
    (BENCH_28.json).
    """
    pairing = block.swap_pairing
    order = np.argsort(pairing.half)
    pairing = pairing._replace(
        half=pairing.half[order], partner=pairing.partner[order], phase=pairing.phase[order]
    )
    width = -(-order.size // 4) * 4
    rates = np.zeros(width // 2)
    turning = np.append(block.paired_basis[1], 0.0)[pairing.half[::2] // 2]
    rates[: turning.size] = turning
    return pairing, width, rates


def _tilted_halves(block, state, d_outer, dwell_form, *edge) -> np.ndarray:
    """The code columns `state` after a tilted edge's kicks on the U halves of a block that U swaps.

    The outer step S is real and the phases are +-i, so its halves are S+
    and S- = conj(S+) (_half_kicks), formed from S's rows at the half's
    columns c alone.  The dwell links no two sectors and is the same on d
    and -d, so on either half it is D[c, c], whose real form is `dwell_form`
    (paired_dwells).  The - half crosses the step conjugated (_CONJUGATED),
    so both take S+: one product for the step and one for the dwell a kick,
    on (2, 2 width) rows laid out as half_layout says.
    """
    pairing, width, rates = half_layout(block)
    size = pairing.half.size
    plus = np.zeros((width, width), dtype=complex)
    plus[:size, :size] = _half_kicks(block.outer_step(d_outer, rows=pairing.half), pairing)[0]
    return _on_halves(
        state,
        pairing,
        lambda halves: _tilted_columns(halves, width, plus, dwell_form, rates, _CONJUGATED, *edge),
    )


def _block_loop(block, runs, factory, sectors, form) -> tuple[np.ndarray, np.ndarray]:
    """(Q^dag c, the block's code columns in Q after the loop), edge by edge.

    An axis-aligned edge's kick K is constant, and K^count is applied to the
    columns by _power_apply.  Along the inner control the outer step is the
    identity, and K = D I(-inner step) is powered as the block's stack of
    sector blocks, `sectors` (sector_dwells); on a block that U swaps (plane
    III's odd block, ControlBlock.swap_pairing) only half the stack is
    powered (_sector_power), so at cutoff 14 a squaring costs 7 products of
    13 x 13 blocks instead of one 98 x 98 product.  Along the outer control
    K = D R S R^dag, S the unturned outer step (ControlBlock.outer_step),
    built once per loop for a rect's two opposite edges (_shared_step), and
    R = Q^dag I(-inner) Q the turn at the edge's inner value
    (ControlBlock.turned_step); D multiplies on sector by sector
    (_dwell_product).  These kicks stay complex.  On a block that U swaps
    the kick is powered on its two U halves (_halved_power), from its rows
    at the d < 0 sectors alone.  A tilted edge's kicks go one by one on the
    columns held as [Re | Im] rows, with the dwell's real form `form`
    (_tilted_edge); on a block that U swaps, on its two halves, one column
    each, whose steps are S+ and conj(S+) and whose dwells are equal
    (_tilted_halves): a kick took about 5.5 us there against 10 us on the
    whole block (OpenBLAS, one thread), and `form` is the half's, a quarter
    of the size.
    """
    basis, rates = block.paired_basis
    code, pairing = block.paired_code, block.swap_pairing
    state, n, columns, steps = code, basis.shape[1], block.sector_columns, {}
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        d_outer, inner_step = (outer0 - outer1) / run.count, (inner1 - inner0) / run.count
        if not run.axis_aligned:
            edge = (inner0, inner_step, run.count)
            if pairing is None:
                step, signs = block.outer_step(d_outer), np.ones(2 * state.shape[1])
                state = _tilted_columns(state.T, n, step, form, rates, signs, *edge).T
            else:
                state = _tilted_halves(block, state, d_outer, form, *edge)
        elif outer0 == outer1:  # D I(-inner_step), sector by sector
            dwell, partner, sector_rates = sectors
            turns = inner_step * sector_rates[:, None]
            kick = dwell * np.cos(turns) + partner * np.sin(turns)
            state = _by_sector(_sector_power(kick, run.count, pairing), state, columns)
        else:
            step = block.turned_step(_shared_step(block, steps, d_outer), inner0)
            if pairing is None:
                state = _power_apply(_dwell_product(block, sectors[0], step), run.count, state)
            else:  # the kick's rows at the half's columns: the d < 0 sectors of D
                rows, _ = _dwell_rows(block, sectors[0], step, pairing.lower)
                state = _halved_power(rows, run.count, state, pairing)
    return code, state


def _kicks(schedule: KickSchedule) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per control block: its code columns, their code states and their states after the loop.

    No control leaves an invariant block of the two control generators
    (FrameFactory.blocks), so each block evolves its own code columns.  A
    kick from p to p' is C(p')^dag C(p) = I(-i') O(-(o' - o)) I(i), then the
    dwell exp(-i H0 dt).  The code states and the evolved states are in the
    block's paired basis Q (_block_loop).  Only a loop with an axis-aligned
    edge builds the sector stacks, and only one with a tilted edge builds
    the paired dwell's real form.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    aligned, unbuilt = {run.axis_aligned for run in runs}, [None] * len(factory.blocks)
    args = (factory, schedule.chi, schedule.delta_t)
    stacks = sector_dwells(*args) if True in aligned else unbuilt
    forms = paired_dwells(*args) if False in aligned else unbuilt
    return [
        (block.columns, *_block_loop(block, runs, factory, sectors, form))
        for block, sectors, form in zip(factory.blocks, stacks, forms)
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
