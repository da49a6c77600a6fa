"""Kicked realization of the adiabatic loop: Kerr dwells alternated with control kicks.

Each step conjugates a fixed Kerr dwell exp(-i*H0*dt) by the control unitary
of the current loop point, which is the stroboscopic form of evolving under
the slowly rotating Hamiltonian C(p) H0 C(p)^dag.  The code space sits in the
exact zero-eigenspace throughout, so the code-space map converges to the
geometric holonomy as the kick count grows; the dwell dephases whatever leaks
to higher levels.  Kicks are instantaneous (the short-kick idealization).

The dwell is the echo dwell, chi*dt = pi/2 (CHI_DELTA_T): exp(-i (pi/2) n(n - 1))
per mode, formed exactly as the sign (-1)^(n(n - 1)/2) (fock.echo_dwell).  It
turns the levels 2 and 3 of a mode, the first a kick reaches from the code,
by pi, so what leaked there on one kick flips sign before the next, and the
first-order term of the kick error cancels, as in bang-bang decoupling
(Viola & Lloyd, PRA 58, 2733 (1998)): on rects the error then falls 4
times per doubling of K, not 2, and at K = 1024 it lies three to four orders
of magnitude below that at chi*dt = pi/4.  At chi*dt in pi*Z the dwell would
be the identity, and the kicks would telescope to the identity map.

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
held as real rows (_tilted_edge), the twin's conjugated, so that it crosses
the step conjugated.  There the dwell folds into the outer step, M = D S:
D conjugates I's rotation to itself or to its inverse (_echo_flips), so a
kick is one product with M and one rotation, and where D commutes with I
(plane III's even block) the edge is one power of M.  An outer-direction
edge's kick is the outer step, built unturned once for a rect's two such
edges and turned by I's rotation per edge.  Only the state after the whole
loop is kept.
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

# The echo dwell's chi*dt: the leakage levels 2 and 3 pick up phase pi per dwell.
CHI_DELTA_T = math.pi / 2.0

MAX_CONTROL_STEP = 0.05
LEAKAGE_FAILURE_THRESHOLD = 0.5

@dataclass(frozen=True)
class KickSchedule:
    """A discretized loop traversal: K kicks with the echo dwell after each."""

    loop: LoopSpec
    kick_count: int
    cutoff: int

    def __post_init__(self):
        for name in ("kick_count", "cutoff"):
            loops_mod.check_integer(name, getattr(self, name))
        # the kicked blocks are dense: refused here, before anything is formed
        fock.check_dense_budget(self.cutoff, 2 if self.loop.plane is PlaneId.III else 1)
        if self.kick_count < 16:
            raise ValueError(f"kick_count must be at least 16, got {self.kick_count}")


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


def real_form(matrix: np.ndarray) -> np.ndarray:
    """R(M), the float64 form of x -> x @ M on complex rows held as [Re x | Im x].

    [Re x | Im x] @ R(M) = [Re(x M) | Im(x M)] for R(M) = [[Re M, Im M], [-Im M, Re M]].
    """
    return np.block([[matrix.real, matrix.imag], [-matrix.imag, matrix.real]])


def sector_dwells(factory: connection.FrameFactory):
    """Per block, (D, E, rates): the echo dwell D = Q^dag exp(-i H0 dt) Q as sector stacks.

    D is block-diagonal by sector up to the order of Q's columns, so it is
    built one sector at a time, on the sector's columns in the order of
    ControlBlock.sector_columns.  The stack, of shape (sectors, s, s) for the
    largest sector size s, holds each sector's block padded with the
    identity.  E is D with each pair's columns (a, b) taken as (-b, a), and
    the rates, of shape (sectors, s), are the rotation rate of each column's
    pair, zero off the pairs: D I(-t) = D cos(t rates) + E sin(t rates),
    column by column.  All are kept, read-only, in factory.dwells, so they
    live and die with the factory.
    """
    if "sectors" not in factory.dwells:
        dwell = fock.echo_dwell(factory.cutoff, factory.mode_count)
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
        factory.dwells["sectors"] = stacks
    return factory.dwells["sectors"]


def dense_dwells(factory: connection.FrameFactory):
    """The echo dwell D = Q^dag exp(-i H0 dt) Q on each block, as one dense n x n matrix.

    Scattered from the sector stacks (sector_dwells) with no product: D is
    zero between sectors.  Built on first use and kept, read-only, beside
    the stacks; an outer-direction kick takes it in one product, and a
    tilted edge folds it into its outer step once, M = D S (_block_loop),
    and reads its sign per pair off the diagonal (_echo_flips).
    """
    if "dense" not in factory.dwells:
        matrices = []
        for block, (stack, _, _) in zip(factory.blocks, sector_dwells(factory)):
            n = block.index.size
            matrix = np.zeros((n, n), dtype=complex)
            for part, places in zip(stack, block.sector_columns):
                places = places[places < n]
                matrix[np.ix_(places, places)] = part[: places.size, : places.size]
            matrix.setflags(write=False)
            matrices.append(matrix)
        factory.dwells["dense"] = matrices
    return factory.dwells["dense"]


def _by_sector(apply, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """apply(rows gathered sector by sector at ControlBlock.sector_columns), scattered back.

    The padding places read, and write, an appended zero row.
    """
    padded = np.zeros((rows.shape[0] + 1,) + rows.shape[1:], dtype=complex)
    padded[:-1] = rows
    padded[columns] = apply(padded[columns])
    return padded[:-1]


def _echo_flips(dwell: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """eps per pair of Q, for which the echo dwell D gives D R(t) D = R(eps t).

    R(t) is I's rotation, the phase exp(i w t) on each pair of Q's columns
    (paired_basis).  Each column of Q lies on the even or the odd places of
    one sector's chain, where the sign s = (-1)^(n(n - 1)/2) (fock.echo_dwell)
    is constant, so the dwell in Q (`dwell`, dense_dwells) is diagonal, that
    sign on each column.  A pair's two columns lie on the even and the odd
    places of one chain, so eps = s(a) s(b) for two adjacent states a, b of
    the chain.  The squeeze moves n by 2, and s(n) s(n + 2) = -1 for
    every n, so eps = -1 on planes I and II; the two-mode squeeze moves
    (n1, n2) by (1, 1), and s(n1 + 1) s(n2 + 1) = (-1)^(n1 + n2) s(n1) s(n2),
    so on plane III eps is +1 on the even block and -1 on the odd one.  A
    pair of zero modes turns at rate 0, where eps does not act.
    """
    signs = np.sign(dwell.diagonal().real)
    return signs[0 : 2 * rates.size : 2] * signs[1 : 2 * rates.size : 2]


def _tilted_edge(rows, kick, rates, flips, inner0, inner_step, count) -> np.ndarray:
    """The columns held as [Re | Im] rows after `count` kicks of one edge.

    `rows` is (columns, 2n): each column in Q as [Re | Im], so that its
    (2 columns, n) view holds real rows with each pair of Q adjacent, and
    the complex view of those holds y_a + i y_b per pair, where I's
    rotation R(t) is the phase exp(i w t).  Kick k is D R(-t_{k+1}) S R(t_k),
    t_k the inner control at kick point k, S the unturned outer step and D
    the echo dwell; D R(t) D = R(eps t) (_echo_flips) and D^2 = 1 make it
    R(-eps t_{k+1}) M R(t_k) with `kick` M = D S, so the edge is
    R(-eps t_N) M R((1 - eps) t_{N-1}) ... M R((1 - eps) t_1) M R(t_0).
    Where eps = -1, a kick is one product with M and one complex multiply
    by R(2 t); a real M (planes I and III) is one (2 columns, n) @ (n, n)
    product, a complex one (plane II, plane III's odd block) goes through
    its 2n x 2n real form on the rows.  The middle rotations come from
    connection.phase_table, in tables of connection.MAGNUS_BATCH kicks, and
    every kick writes into one of two buffers.  Where every eps is +1
    (plane III's even block) the middle rotations are the identity and the
    edge is R(-t_N) M^N R(t_0), one _power_apply.
    """
    columns, width = rows.shape
    n = width // 2
    real = np.isrealobj(kick)
    matrix = kick.T if real else real_form(kick.T)

    def views(part):  # the rows, their operand of the product with M, their pairs' complex view
        halves = part.reshape(2 * columns, n)
        return part, halves if real else part, halves[:, : 2 * rates.size].view(np.complex128)

    here = views(rows)
    here[2][...] *= np.exp(1j * inner0 * rates)
    middle = (1.0 - flips) * rates
    if not np.any(middle):
        here[1][...] = _power_apply(matrix.T, count, here[1].T).T
    else:
        there = views(np.empty_like(rows))
        np.dot(here[1], matrix, there[1])
        for start in range(1, count, connection.MAGNUS_BATCH):
            size = min(connection.MAGNUS_BATCH, count - start)
            # row k holds R((1 - eps) t) at kick point start + k of the edge
            table = connection.phase_table(-middle, inner0 + inner_step * start, inner_step, size)
            for turn in table:
                here, there = there, here
                np.multiply(here[2], turn, here[2])
                np.dot(here[1], matrix, there[1])
        here = there
    here[2][...] *= np.exp(-1j * (inner0 + inner_step * count) * flips * rates)
    return here[0]


def _tilted_columns(columns, kick, rates, flips, signs, *edge) -> np.ndarray:
    """The complex `columns` (k, n) after _tilted_edge's kicks, each with its sign.

    A column signed -1 is the conjugate twin's (ControlBlock.signs), which
    crosses conj(S): it is held conjugated for the whole edge, its imaginary
    row negated on the way in and out, so that it crosses conj(M) = D conj(S),
    D being real, and I's rotation, real too, turns it as any other.  An odd
    n is padded with a zero to an even width, where the rows, and M, stay
    zero: on plane III's 49-state odd block a kick took 4.3 us at 50 and
    5.3 us at 49 (OpenBLAS, one thread; BENCH_34.json).  `edge` is
    (inner0, inner_step, count).
    """
    n, signs = columns.shape[-1], signs[:, None]
    width = n + n % 2
    rows = np.zeros((columns.shape[0], 2 * width))
    rows[:, :n], rows[:, width : width + n] = columns.real, columns.imag * signs
    rows = _tilted_edge(rows, np.pad(kick, (0, width - n)), rates, flips, *edge)
    return rows[:, :n] + 1j * (rows[:, width : width + n] * signs)


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


def _block_loop(block, runs, factory, sectors, dwell) -> np.ndarray:
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
    columns held as [Re | Im] rows (_tilted_columns), the twin's
    conjugated, through M = D S, the dwell taken real wherever Q is, and
    I's rotations, by eps per pair (_echo_flips, _tilted_edge).
    """
    rates = block.paired_basis[1]
    signs = np.repeat(block.signs, block.paired_code.shape[1])
    state = np.tile(block.paired_code, len(block.signs))
    columns, steps = block.sector_columns, {}
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        d_outer, inner_step = (outer0 - outer1) / run.count, (inner1 - inner0) / run.count
        if not run.axis_aligned:  # M = D S, D real wherever Q is
            kick = (dwell.real if block.real_controls else dwell) @ block.outer_step(d_outer)
            edge = (inner0, inner_step, run.count)
            flips = _echo_flips(dwell, rates)
            state = _tilted_columns(state.T, kick, rates, flips, signs, *edge).T
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
    U = -1 state.  Every loop builds the sector stacks and the dense dwell.
    """
    runs = _schedule_runs(schedule)
    connection.check_loop_truncation(schedule.loop, schedule.cutoff)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    stacks, dense = sector_dwells(factory), dense_dwells(factory)
    out = []
    for block, sectors, dwell in zip(factory.blocks, stacks, dense):
        code, state = block.paired_code, _block_loop(block, runs, factory, sectors, dwell)
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
            "chi_delta_t": CHI_DELTA_T,
        },
    )
