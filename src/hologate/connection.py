"""Wilczek-Zee connection, curvature, and path-ordered holonomy over dressed frames.

The dressed code frame at a plane point is F(o, i) = O(o) I(i) c: the outer
control propagator O (displacement D on planes I/II, two-mode mix N on plane
III) after the inner one I (squeeze S, two-mode squeeze M), applied to the
code columns c.  Each propagator commutes with its own generator, so the
connection A_mu = F^dag d_mu F is exact:

    A_o(i) = c^dag I(i)^dag G_o I(i) c      (depends on the inner control only)
    A_i    = c^dag G_i c                     (constant)

and the curvature needs d_i A_o = c^dag I^dag [G_o, G_i] I c, not nested
differences.  The loop holonomy is the path-ordered exponential of -A along
the boundary.  On planes I and III every control generator is real, so a(i)
below is real, the pair connection along any path is a real multiple of one
fixed generator and commutes with itself: the holonomy is the exponential of
the line integral of a, the line-integral side of the area formula by
Stokes, and each edge is one exact exponential of its closed-form integral.
Plane II's a(i) is complex, so there only an axis-aligned edge is one exact
exponential, and a tilted edge takes fourth-order Magnus steps.  The exact
edges of a loop are all taken in one vectorized pass (_exact_edges).

A_o couples exactly one pair of code columns (|0>, |1> on planes I/II;
|10>, |01> on plane III) through one entry a(i), and A_i is exactly 0 on
that pair.  So the transport on the pair is an SU(2) matrix
[[p, q], [-conj q, conj p]], carried as its Cayley-Klein pair (p, q): each
Magnus step and each product is a closed form in p and q.  The rest of the
code space (plane III's |00>, |11>) sees only the constant A_i, whose
exponential is the same closed form.

Everything runs in the eigenbasis V of G_i, and G_i never leaves one of its
sectors (the parity chains of the squeeze, the n1 - n2 chains of the
two-mode squeeze).  So V is built sector by sector, one small eigh each, as
the direct sum of the sector bases; the transport's code pair is two of these
sectors.  The kicked route runs in the paired basis Q built from V, where a
diagonal operator such as the Kerr dwell is block-diagonal by sector up to
the order of Q's columns (ControlBlock.sector_columns).

Raw holonomies come out in the dressed-frame code basis.  That basis differs
from the gate convention (Sigma1/Sigma2/Sigma12 per plane) by a constant
change of code basis which carries no physics; the frozen CALIBRATION maps one
onto the other.  calibrate() re-derives the frozen choice numerically.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import fock, gates
from . import loops as loops_mod
from .loops import LoopSpec, PlaneId, Rect

# Loop used to pin the frame calibration and the oracle convergence checks.
CALIBRATION_RECT = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))

# Sub-intervals per batch on a tilted edge, in both dynamical routes: bounds the
# transport's work arrays (one sector's size x MAGNUS_BATCH phases each; only
# tilted plane II edges take Magnus steps) and the kicked route's rotation table
# (MAGNUS_BATCH + 1 x half the block size) whatever the count.
MAGNUS_BATCH = 256

# Two-node Gauss-Legendre points on [0, 1] for the fourth-order Magnus step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# -sqrt(3)/12 [B1, B2] for B_j = [[0, x_j], [-conj x_j, 0]] is diag(i g, -i g),
# g = -(sqrt(3)/6) Im(conj(x1) x2)
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 6.0


class CodeBlock:
    """Fock basis states closed under the inner generator G_i, in its eigenbasis there.

    `index` lists the block's Fock basis states, `columns` the code columns
    it holds (possibly none) and `code` those columns on the block; `values`
    w and the columns of `vectors` V are the eigenpairs of i G_i on the block,
    so that I(i) = V diag(exp(-i i w)) V^dag there.
    """

    def __init__(
        self, index: np.ndarray, values: np.ndarray, vectors: np.ndarray, code: np.ndarray
    ):
        self.index = index
        self.values = values
        self.vectors = vectors
        self.columns = np.nonzero(np.any(code[index] != 0, axis=0))[0]
        self.code = code[np.ix_(index, self.columns)]

    @cached_property
    def code_eig(self) -> np.ndarray:
        """The block's code columns in its inner eigenbasis V."""
        return self.vectors.conj().T @ self.code

    def phases_at(self, inner: np.ndarray, rows=slice(None)) -> np.ndarray:
        """exp(-i w i) at each inner control value i, shape (rows, values): I's phases."""
        return np.exp(-1j * (self.values[rows, None] * inner))

    def phases(self, start: float, step: float, count: int) -> np.ndarray:
        """I's phases at start + step k for k < count, shape (block size, count)."""
        return np.ascontiguousarray(phase_table(self.values, start, step, count).T)


def phase_table(values: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """exp(-i w (start + step k)) for each w in `values` and k < count, shape (count, values).

    The table is the outer product of a coarse one, at every m-th k, and a
    fine one, at the first m, with m about sqrt(count): 2 sqrt(count)
    exponentials per value instead of count.
    """
    fine = math.isqrt(count - 1) + 1
    points = start + step * fine * np.arange(-(-count // fine))
    table = np.exp(-1j * np.multiply.outer(points, values))
    if fine > 1:
        table = table[:, None, :] * np.exp(-1j * np.multiply.outer(step * np.arange(fine), values))
    return table.reshape(-1, values.size)[:count]


def _sector(index: np.ndarray, inner: np.ndarray, code: np.ndarray) -> CodeBlock:
    """One sector of G_i (a chain that G_i does not leave), with its own eigh of `inner` on it."""
    basis = fock.Propagator(inner)
    return CodeBlock(index, basis.values, basis.vectors, code)


class SwapPairing(NamedTuple):
    """U = P i^(n1 - n2) in a block's paired basis Q, as a phased permutation of its columns.

    U e_c = phase e_p for each column c in `half` and its partner p in
    `partner`, and U e_p = conj(phase) e_c; (e_c +- phase e_p)/sqrt 2 span
    the U = +-1 halves.  `turn` takes the block's two code columns (s_0, s_1),
    which U swaps, to (s_0 +- U s_0)/sqrt 2, one in each half.  `lower` and
    `upper` list the sectors d < 0 that hold `half` and their partners -d.
    """

    half: np.ndarray
    partner: np.ndarray
    phase: np.ndarray
    turn: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


class ControlBlock(CodeBlock):
    """One invariant block of the control generators G_i and G_o that holds code states.

    The block is the union of `sectors`, the sectors of G_i inside it, built
    from their (Fock indices, G_i on them) chains from fock.inner_sectors, each
    a CodeBlock with its own eigenbasis; `index` lists them one after another,
    and V is their direct sum, so V is block-diagonal and `values` is the
    sectors' eigenvalues in the same order.  G_o restricted to the block is
    V_o diag(w_o) V_o^dag times -i; the block keeps `outer_values` w_o and
    `outer_vectors` W = V^dag V_o, the outer eigenvectors in V, so that its
    only dense matrices are V and W until a kicked loop asks for more.

    The paired basis Q (paired_basis) is where the kicked route runs: there
    I(i) is a rotation of each pair of columns, and with `real_controls`
    (planes I and III) Q is real and so is the outer step Q^dag O Q
    (outer_step), one product of the outer eigenvectors in Q
    (paired_outer_vectors).  These, the code columns in Q (paired_code) and
    U's pairing of Q's columns (swap_pairing) are built on first use.  Each
    column of Q lies in one sector: `sector_columns` (sectors x largest
    sector size) lists each sector's columns, its pairs, then its zero mode,
    padded with the block size, and `sector_rows` each sector's rows in V's
    layout.

    A block's rows are Fock states, one per entry of `index`, except on plane
    III's even block, built on the U = +1 half of the beam-swap symmetry only
    (fock.swap_symmetric_half): `mirror` = (rows, images, signs) marks the
    rows that stand for (|index> + sign |image>)/sqrt 2, and in_fock maps
    rows back.  As P G_o P = -G_o and G_o moves d = n1 - n2 by 2, G_o there
    is the Fock G_o at the kept indices with the entries between |n, n> and
    a pair times sqrt 2: real, like the Fock one.  Plane III's odd block is
    whole, and U maps each of its sectors d onto -d: `swap_cutoff`, the
    cutoff per mode there (None on every other block), lets swap_pairing
    read U in Q off the sectors' Fock indices.
    """

    def __init__(
        self,
        sectors: list[tuple[np.ndarray, np.ndarray]],
        outer: np.ndarray,
        code: np.ndarray,
        real_controls: bool,
        mirror: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        swap_cutoff: int | None = None,
    ):
        self.sectors = [_sector(index, inner, code) for index, inner in sectors]
        sizes = np.array([sector.index.size for sector in self.sectors])
        index = np.concatenate([sector.index for sector in self.sectors])
        vectors = np.zeros((index.size, index.size), dtype=complex)
        self.sector_rows = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
        for sector, rows in zip(self.sectors, self.sector_rows):
            vectors[rows, rows] = sector.vectors
        values = np.concatenate([sector.values for sector in self.sectors])
        super().__init__(index, values, vectors, code)
        self.real_controls = real_controls
        self.mirror = mirror
        self.swap_cutoff = swap_cutoff
        outer = outer[np.ix_(index, index)]
        if mirror is not None:  # |n, n> rows take sqrt 2 (G_o is zero between two of them)
            lift = np.full(index.size, math.sqrt(2.0))
            lift[mirror[0]] = 1.0
            outer = lift[:, None] * outer * lift
        outer = fock.Propagator(outer)
        self.outer_values = outer.values
        self.outer_vectors = vectors.conj().T @ outer.vectors
        # paired_basis's order: each sector's pairs, sector by sector, then the zero modes
        paired = 2 * (sizes // 2)
        starts = (np.cumsum(paired) - paired)[:, None]
        places = np.arange(sizes.max())
        columns = np.where(places < paired[:, None], starts + places, index.size)
        odd = np.flatnonzero(sizes % 2)
        columns[odd, paired[odd]] = paired.sum() + np.arange(odd.size)
        self.sector_columns = columns

    @cached_property
    def paired_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, rates): the paired basis of the block and the rotation rate of each pair.

        In each sector G_i's spectrum is symmetric: the eigenvector v of i G_i
        at w > 0 has a partner u at -w, conj(v) when the controls are real.
        q_a = (v + u)/sqrt(2) and q_b = (v - u)/(i sqrt(2)) are orthonormal,
        and I(i) rotates them, I q_a = cos(w i) q_a + sin(w i) q_b and
        I q_b = cos(w i) q_b - sin(w i) q_a: on the coefficients (y_a, y_b)
        of a column that is the phase exp(i w i) on y_a + i y_b.  With real
        controls q_a = sqrt(2) Re v and q_b = sqrt(2) Im v, so Q is real.
        Each sector's vectors go to its columns (sector_columns): the pairs
        come first, sector by sector with q_a and q_b adjacent, and their rates
        are w.  Then the zero modes, one per odd-sized sector and real up to a
        phase (the kernel of a real or an imaginary G_i), taken real and paired
        among themselves at rate 0; an odd one out comes last and takes no
        phase.
        """
        n = self.index.size
        basis = np.zeros((n, n), dtype=float if self.real_controls else complex)
        rates = np.zeros(n // 2)
        for sector, rows, places in zip(self.sectors, self.sector_rows, self.sector_columns):
            m = sector.index.size
            half = m // 2
            v = sector.vectors[:, m - half :]
            if self.real_controls:
                q_a, q_b = math.sqrt(2.0) * v.real, math.sqrt(2.0) * v.imag
            else:
                u = sector.vectors[:, :half][:, ::-1]
                q_a, q_b = (v + u) / math.sqrt(2.0), (v - u) / (1j * math.sqrt(2.0))
            basis[rows, places[0 : 2 * half : 2]] = q_a
            basis[rows, places[1 : 2 * half : 2]] = q_b
            rates[places[0 : 2 * half : 2] // 2] = sector.values[m - half :]
            if m % 2:
                zero = sector.vectors[:, half]
                top = zero[np.argmax(np.abs(zero))]
                basis[rows, places[2 * half]] = (zero * (np.conj(top) / abs(top))).real
        return basis, rates

    @cached_property
    def paired_code(self) -> np.ndarray:
        """Q^dag c: the block's code columns in its paired basis, where every kicked loop starts.

        With `real_controls` Q and c are real, and so is Q^dag c, held as float64.
        """
        code = self.paired_basis[0].conj().T @ self.code
        return np.ascontiguousarray(code.real) if self.real_controls else code

    @cached_property
    def swap_pairing(self) -> SwapPairing | None:
        """U = P i^(n1 - n2) in the paired basis Q, on a block whose sectors U swaps; else None.

        P maps the chain of sector d = n1 - n2, (d + j, j) for j = 0, 1, ..,
        onto that of -d, (j, d + j), place by place, and G_i's entries there
        are the same products of two roots, so the two sectors' eigenvectors,
        and their columns of Q, are the same numbers.  So U e_c = i^d e_c'
        for the column c at each place of sector d and the column c' at the
        same place of -d: U is a phased permutation in Q, read here off the
        sectors' first Fock indices with no product.  Only plane III's odd
        block has it (swap_cutoff); the even block holds its U = +1 half
        alone, and one mode has no swap.
        """
        if self.swap_cutoff is None:
            return None
        first, second = np.divmod([sector.index[0] for sector in self.sectors], self.swap_cutoff)
        d = first - second
        sector_of = {int(k): s for s, k in enumerate(d)}
        lower = np.flatnonzero(d < 0)
        upper = np.array([sector_of[-int(d[s])] for s in lower])
        n, half, partner, phase = self.index.size, [], [], []
        for s, image in zip(lower, upper):
            places = self.sector_columns[s]
            partner.append(self.sector_columns[image][places < n])
            half.append(places[places < n])
            phase.append(np.full(half[-1].size, 1j if d[s] % 4 == 1 else -1j))  # i^d, d odd
        # the code pair is swapped by U too: U s_0 = i^d s_1 for s_0's sector d
        [d_code] = [k for k, sector in zip(d, self.sectors) if self.columns[0] in sector.columns]
        swap = 1j if d_code % 4 == 1 else -1j
        turn = np.array([[1.0, 1.0], [swap, -swap]]) / math.sqrt(2.0)
        columns = (np.concatenate(part) for part in (half, partner, phase))
        return SwapPairing(*columns, turn, lower, upper)

    @cached_property
    def paired_outer_vectors(self) -> np.ndarray:
        """X = Q^dag V W: the outer eigenvectors in the paired basis Q, sector by sector.

        Q^dag V is block-diagonal by sector up to the order of its rows.
        """
        basis, _ = self.paired_basis
        x = np.empty(self.outer_vectors.shape, dtype=complex)
        for sector, rows, places in zip(self.sectors, self.sector_rows, self.sector_columns):
            places = places[: sector.index.size]
            x[places] = (basis[rows, places].conj().T @ sector.vectors) @ self.outer_vectors[rows]
        return x

    def outer_step(self, d_outer: float, inner: float = 0.0, rows=slice(None)) -> np.ndarray:
        """S = Q^dag I(-inner) O(d_outer) I(inner) Q on the block: O turned by I's rotation.

        That is R X exp(-i d_outer w_o) X^dag R^dag, X the outer eigenvectors
        in Q (paired_outer_vectors) and R = Q^dag I(-inner) Q, which turns
        each pair of rows (2k, 2k + 1) by -inner w_k (paired_basis).  With
        `real_controls` S is real, and only its real part is formed, a
        C-contiguous float64 array that the kicked route's real products take
        as it is.  The unturned step is built first, and turned_step turns it.
        `rows` forms the unturned step's rows there alone (inner = 0).
        """
        x = self.paired_outer_vectors
        phased = x[rows] * np.exp(-1j * d_outer * self.outer_values)[None, :]
        if self.real_controls:
            # Re(P X^dag) = Re P Re X^T + Im P Im X^T: one product of the [Re, Im]-interleaved rows
            step = phased.view(np.float64) @ x.view(np.float64).T
        else:
            step = phased @ x.conj().T
        return self.turned_step(step, inner) if inner else step

    def turned_step(self, step: np.ndarray, inner: float) -> np.ndarray:
        """R S R^dag as a new array, for a step S on the block and R = Q^dag I(-inner) Q.

        R turns each pair of rows (a, b) to (c a + s b, c b - s a), c and s
        the cosine and sine of inner w_k, and R^dag the columns the same way.
        A real S is turned in place of a copy: on a real row (.., a, b, ..) R
        is the phase exp(-i inner w_k) on the complex view a + i b of each
        pair, so S R^dag is one complex multiply on S's rows, and R S one on
        the rows of S^T.
        """
        rates = self.paired_basis[1]
        if self.real_controls:
            turn = np.exp(-1j * inner * rates)
            # S^T R^dag = (R S)^T, transposed to R S, and then R S R^dag
            rows = _turn_pairs(np.array(step.T, order="C"), turn)
            return _turn_pairs(np.ascontiguousarray(rows.T), turn)
        cos, sin = np.cos(inner * rates)[:, None], np.sin(inner * rates)[:, None]
        a, b = slice(0, 2 * rates.size, 2), slice(1, 2 * rates.size, 2)
        turned = step.copy()
        turned[a], turned[b] = cos * step[a] + sin * step[b], cos * step[b] - sin * step[a]
        turned = turned.T
        turned[a], turned[b] = cos * turned[a] + sin * turned[b], cos * turned[b] - sin * turned[a]
        return turned.T

    def in_fock(self, rows: np.ndarray, size: int) -> np.ndarray:
        """The block's (rows, columns) as `size` Fock rows, a mirrored row split on its pair."""
        out = np.zeros((size, rows.shape[1]), dtype=complex)
        out[self.index] = rows
        if self.mirror is not None:
            mirrored, images, signs = self.mirror
            halves = rows[mirrored] / math.sqrt(2.0)
            out[self.index[mirrored]] = halves
            out[images] = signs[:, None] * halves
        return out

    @cached_property
    def code_rows(self) -> np.ndarray:
        """The places where code_eig is not zero: the sectors that hold code columns."""
        return np.flatnonzero(np.any(self.code_eig != 0, axis=1))

    def frames(self, outer: np.ndarray, inner: np.ndarray, left: np.ndarray) -> np.ndarray:
        """Rows of O(outer_k) I(inner_k) c on the block at point k, shape (rows, points, columns).

        In the inner eigenbasis that is V W exp(-i outer w_o) W^dag exp(-i inner w) V^dag c,
        and V^dag c is code_eig, zero off its code_rows: only those take I's
        phases and W^dag.  Every point goes through each product at once, as
        points x code columns columns.  `left` holds the wanted rows of V W,
        the outer eigenvectors in the Fock basis.
        """
        w, rows = self.outer_vectors, self.code_rows
        code = self.code_eig[rows]
        cols = self.phases_at(inner, rows)[:, :, None] * code[:, None, :]
        shape = (w.shape[0],) + cols.shape[1:]
        # W^dag cols as conj(W[rows]^T conj(cols)): only W's code rows are copied
        cols = (w[rows].T @ cols.reshape(rows.size, -1).conj()).conj().reshape(shape)
        cols *= np.exp(-1j * np.multiply.outer(self.outer_values, outer))[:, :, None]
        return (left @ cols.reshape(shape[0], -1)).reshape(-1, *shape[1:])


def _turn_pairs(rows: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """rows R^dag in place, for real rows: each pair of columns (a, b), as a + i b, times `turn`."""
    pairs = rows[:, : 2 * turn.size].view(np.complex128)
    np.multiply(pairs, turn, out=pairs)
    return rows


class SectorPair(NamedTuple):
    """The two sectors of G_i that G_o links, one code column each.

    With t_a = first.phases(...) and t_b = second.phases(...), the one entry
    of A_o on the pair, at row first.columns and column second.columns, is
    sum(conj(t_a) * (outer @ t_b)).
    """

    first: CodeBlock
    second: CodeBlock
    outer: np.ndarray  # conj(c_a) * (V_a^dag G_o[a, b] V_b) * c_b, c the code columns in V
    weight: np.ndarray  # i (w_a - w_b): the same block of V^dag [G_o, G_i] V is weight * outer


class FrameFactory:
    """Dressed code frames and their exact connection on one plane.

    No control leaves an invariant block of G_i and G_o together: `blocks`
    holds one ControlBlock per such block that holds code states (the whole
    space on planes I/II; on plane III the U = +1 half of the even parity
    block of (-1)^(n1 + n2), fock.swap_symmetric_half, and the whole odd
    one), and frames and kicks run block by block; frame maps each block's
    rows back to the Fock basis (ControlBlock.in_fock).  Each block is built
    from the sectors of G_i inside it, one eigh per sector: the two parity
    chains of the squeeze on planes I/II, the n1 - n2 chains of the two-mode
    squeeze on plane III (7 and 14 of them, 56 and 98 states, at cutoff 14).
    fock.inner_sectors builds G_i chain by chain, so G_i is never dense, and
    A_i = c^dag G_i c is summed from the chains; G_o is dense.
    In a sector's eigenbasis V_a, I(i) is the diagonal phase exp(-i i w_a),
    and I(i) c never leaves the sector.  With y_a = exp(-i i w_a) V_a^dag c_a,
    the block of A_o(i) between the code columns of sectors a and b is
    y_a^dag (V_a^dag G_o V_b) y_b.  `pair` is the two sectors that hold one
    code column each (the two parities on planes I/II, n1 - n2 = -1 and +1 on
    plane III), the only two that G_o links among those that hold code
    states, so A_o is one entry at `pair_columns` and its mirror, and exactly
    zero elsewhere.  A_i is exactly zero on the pair; on the `rest` of the
    code columns (none on planes I/II, |00> and |11> on plane III) it is the
    one entry `rest_entry` and its mirror.  The pair's sectors are the
    blocks' own sector objects.  `real_controls` says that G_o and G_i have
    no imaginary part (planes I and III), so that a(i) is real.
    `top_outer_vectors` holds, per block, the rows of V W (the outer
    eigenvectors in the Fock basis) at its top-quartile Fock levels, for the
    kicked route's truncation check (top_quartile_populations); the
    transport's reads the code columns' chains alone (chain_tail_populations).
    `dwells` holds, for one (chi, delta_t), the kicked route's Kerr dwell per
    block in its paired basis, as a sector stack for axis-aligned edges
    (kicked.sector_dwells) and as a 2n x 2n real form for tilted ones
    (kicked.paired_dwells), each built on first use.
    """

    def __init__(self, plane: PlaneId, cutoff: int):
        mode_count = 2 if plane is PlaneId.III else 1
        fock.check_dense_budget(cutoff, mode_count)
        fock.check_code_below_top_quartile(cutoff)
        self.plane = plane
        self.cutoff = cutoff
        self.mode_count = mode_count
        self.code = fock.code_states(cutoff, mode_count)
        if plane is PlaneId.III:
            outer = fock.two_mode_mix_generator(1.0, cutoff)
        else:
            outer = fock.displacement_generator(1.0, cutoff)
        layout = fock.inner_sectors(cutoff, mode_count, 1.0j if plane is PlaneId.II else 1.0)
        chains = [inner for sectors in layout for _, inner in sectors]
        self.real_controls = not any(np.any(g.imag) for g in [outer, *chains])
        parts = [(sectors, None) for sectors in layout]
        if plane is PlaneId.III:  # the even block's U = +1 half holds both of its code states
            parts[0] = fock.swap_symmetric_half(layout[0], cutoff)
        swapped = [None, cutoff] if plane is PlaneId.III else [None]
        self.blocks = [
            ControlBlock(sectors, outer, self.code, self.real_controls, mirror, swap)
            for (sectors, mirror), swap in zip(parts, swapped)
        ]
        self.code_dim = self.code.shape[1]
        self.inner_connection = np.zeros((self.code_dim,) * 2, dtype=complex)
        for index, inner in (sector for sectors in layout for sector in sectors):
            self.inner_connection += self.code[index].conj().T @ inner @ self.code[index]
        sectors = [sector for block in self.blocks for sector in block.sectors]
        first, second = [sector for sector in sectors if sector.columns.size == 1]
        middle = first.vectors.conj().T @ outer[np.ix_(first.index, second.index)]
        middle = first.code_eig.conj() * (middle @ second.vectors) * second.code_eig.T
        weight = 1j * np.subtract.outer(first.values, second.values)
        self.pair = SectorPair(first, second, middle, weight)
        [row], [col] = first.columns, second.columns
        self.pair_columns = np.array([row, col])
        self.rest = np.delete(np.arange(self.code_dim), self.pair_columns)
        rest = self.rest
        self.rest_entry = self.inner_connection[rest[0], rest[-1]] if rest.size else 0.0
        top = fock.top_quartile_mask(cutoff, mode_count)
        self.top_outer_vectors = [
            block.vectors[top[block.index]] @ block.outer_vectors for block in self.blocks
        ]
        self.dwells: dict = {}

    def split(self, u: float, v: float) -> tuple[float, float]:
        """Plane coordinates as (outer, inner) control parameters."""
        return (v, u) if self.plane is PlaneId.III else (u, v)

    def frame(self, u: float, v: float) -> np.ndarray:
        """The dressed code basis at plane point (u, v): ControlBlock.frames at that one point."""
        outer, inner = self.split(np.array([u], dtype=float), np.array([v], dtype=float))
        cols = np.zeros(self.code.shape, dtype=complex)
        for block in self.blocks:
            left = block.vectors @ block.outer_vectors
            rows = block.frames(outer, inner, left)[:, 0]
            cols[:, block.columns] = block.in_fock(rows, cols.shape[0])
        return cols

    def top_quartile_populations(self, points) -> np.ndarray:
        """Worst population in the top quartile of Fock levels over the code columns, per point.

        Every code column lives in one block, so each block forms only the
        top-quartile rows of its frames (top_outer_vectors), at all the (u, v)
        points at once.  A mirrored row's population is its pair's: the top
        quartile holds |a, b> exactly when it holds |b, a>.
        """
        outer, inner = self.split(*np.asarray(points, dtype=float).T)
        worst = np.zeros(outer.shape)
        for block, left in zip(self.blocks, self.top_outer_vectors):
            population = np.sum(np.abs(block.frames(outer, inner, left)) ** 2, axis=0)
            worst = np.maximum(worst, np.max(population, axis=1))
        return worst

    def chain_tail_populations(self, inner: np.ndarray) -> np.ndarray:
        """Worst population in the top quartile of Fock levels of I(i) c over the code columns.

        One value per inner control value i.  I(i) c never leaves the code
        columns' own sectors, the chains of G_i that hold them, so each is
        read there: V_a's top-quartile rows times exp(-i i w_a) V_a^dag c_a.
        That is what the transport depends on, as A_o(i) = c^dag I^dag G_o I c
        and A_i = c^dag G_i c; the outer propagator, which the frame check
        (top_quartile_populations) also applies, never acts on it.  None of
        these chains holds a mirrored row.
        """
        top = fock.top_quartile_mask(self.cutoff, self.mode_count)
        worst = np.zeros(inner.shape)
        for sector in (sector for block in self.blocks for sector in block.sectors):
            rows = top[sector.index]
            if sector.columns.size and rows.any():
                cols = sector.phases_at(inner)[:, :, None] * sector.code_eig[:, None, :]
                tail = sector.vectors[rows] @ cols.reshape(sector.values.size, -1)
                population = np.sum(np.abs(tail) ** 2, axis=0).reshape(cols.shape[1:])
                worst = np.maximum(worst, np.max(population, axis=1))
        return worst

    def pair_entries(
        self, middle: np.ndarray, start: float, step: float = 0.0, count: int = 1
    ) -> np.ndarray:
        """The entry of c^dag I(i)^dag M I(i) c at pair_columns, at i = start + step k, k < count.

        `middle` is M's block between the pair's sectors in the form of
        SectorPair.outer (pair.outer gives a(i), the entry of A_o); M is
        anti-Hermitian and zero off that block.
        """
        t_a = self.pair.first.phases(start, step, count)
        t_b = self.pair.second.phases(start, step, count)
        return np.sum(t_a.conj() * (middle @ t_b), axis=0)

    def _on_pair(self, entries: np.ndarray) -> np.ndarray:
        """One code-space matrix per entry: the entry at pair_columns, its mirror -conj."""
        out = np.zeros((entries.size, self.code_dim, self.code_dim), dtype=complex)
        row, col = self.pair_columns
        out[:, row, col] = entries
        out[:, col, row] = -entries.conj()
        return out

    def outer_connection(self, start: float, step: float = 0.0, count: int = 1) -> np.ndarray:
        """A_o at i = start + step k, k < count, shape (count, code_dim, code_dim)."""
        return self._on_pair(self.pair_entries(self.pair.outer, start, step, count))

    def connection(self, u: float, v: float) -> tuple[np.ndarray, np.ndarray]:
        """(A_u, A_v) at plane point (u, v)."""
        _, inner = self.split(u, v)
        a_outer = self.outer_connection(inner)[0]
        if self.plane is PlaneId.III:
            return self.inner_connection, a_outer
        return a_outer, self.inner_connection

    def curvature(self, u: float, v: float) -> np.ndarray:
        """F_uv = d_u A_v - d_v A_u + [A_u, A_v] at plane point (u, v).

        With F_io = d_i A_o + [A_i, A_o], F_uv is F_io on plane III (u is the
        inner control) and -F_io on planes I/II.
        """
        _, inner = self.split(u, v)
        a_outer = self.outer_connection(inner)[0]
        d_inner = self._on_pair(self.pair_entries(self.pair.weight * self.pair.outer, inner))[0]
        a_inner = self.inner_connection
        f_io = d_inner + a_inner @ a_outer - a_outer @ a_inner
        return f_io if self.plane is PlaneId.III else -f_io


@lru_cache(maxsize=8)
def frame_factory(plane: PlaneId, cutoff: int) -> FrameFactory:
    return FrameFactory(plane, cutoff)


# ---------------------------------------------------------------------------
# Frozen frame calibration


def _swap_matrix_23() -> np.ndarray:
    mat = np.eye(4, dtype=complex)
    mat[[2, 3]] = mat[[3, 2]]
    return mat


# Constant code-basis change V with V Gamma_raw V^dag = exp(-i G_plane * CALIBRATION_SIGN * sigma).
CALIBRATION_GAUGE = {
    PlaneId.I: np.diag([1.0, 1.0j]).astype(complex),
    PlaneId.II: np.diag([1.0, 1.0j]).astype(complex),
    PlaneId.III: _swap_matrix_23(),
}
CALIBRATION_SIGN = 1


def calibrated_code_matrix(plane: PlaneId, raw: np.ndarray) -> np.ndarray:
    """Map a raw dressed-frame code matrix into the gate-convention basis."""
    v = CALIBRATION_GAUGE[plane]
    return v @ raw @ v.conj().T


# ---------------------------------------------------------------------------
# Operations


def check_loop_truncation(loop: LoopSpec, cutoff: int) -> None:
    """Warn when the dressed frames at the loop corners stress the cutoff, once per corner.

    The kicked route's check: its state spreads as the whole frame does.
    """
    factory = frame_factory(loop.plane, cutoff)
    for population in factory.top_quartile_populations(loops_mod.boundary_vertices(loop)):
        fock.warn_if_truncated(float(population), f"dressed frame on plane {loop.plane.value}")


def _check_chain_tails(factory: FrameFactory, verts: np.ndarray) -> None:
    """Warn when I(i) c at the loop corners stresses the cutoff, once per corner.

    The transport's check (FrameFactory.chain_tail_populations): the
    transport reads the code columns only through I(i) c.
    """
    _, inner = factory.split(*verts.T)
    for population in factory.chain_tail_populations(inner):
        fock.warn_if_truncated(float(population), f"squeezed code on plane {factory.plane.value}")


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Closest unitary to `mat` (the unitary factor of its polar decomposition)."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def _magnus_step(x1, x2):
    """(p, q) of exp(Omega), the fourth-order Magnus step of B_j = [[0, x_j], [-conj x_j, 0]].

    Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2] = [[i g, a], [-conj a, -i g]]
    with a = (x1 + x2)/2 and g = -(sqrt(3)/6) Im(conj(x1) x2).  It squares to
    -theta^2, theta = sqrt(g^2 + |a|^2), so exp(Omega) = cos theta + sinc theta * Omega.
    x1 = x2 = x gives the exact exp(B): Im(conj(x1) x2) is formed from real
    products, so g is exactly 0 there, in scalars and in arrays alike (a
    vectorized complex product may fuse its terms and leave a residue).
    Broadcasts over arrays of steps.
    """
    alpha = 0.5 * (x1 + x2)
    gamma = -_MAGNUS_COMMUTATOR * (np.real(x1) * np.imag(x2) - np.imag(x1) * np.real(x2))
    theta = np.hypot(gamma, np.abs(alpha))
    sinc = np.sinc(theta / math.pi)
    return np.cos(theta) + 1j * gamma * sinc, alpha * sinc


def _check_exponents(*exponents) -> None:
    """Refuse edge exponents x whose |x|^2 is not finite, before _magnus_step squares them.

    Past |x| of about 1.3e154 the commutator term's real products overflow,
    and inf - inf then reads NaN; so the overflow is refused while x is
    still an input, with no numpy warning on the way.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.all(np.isfinite(x.real * x.real + x.imag * x.imag)) for x in exponents)
    if not finite:
        raise ValueError("transport overflows double precision; the loop reaches too far")


def _compose(later, earlier):
    """(p, q) of U_later U_earlier, U = [[p, q], [-conj q, conj p]]."""
    (p2, q2), (p1, q1) = later, earlier
    return p2 * p1 - q2 * np.conj(q1), p2 * q1 + q2 * np.conj(p1)


def _tree_product(p: np.ndarray, q: np.ndarray):
    """(p, q) of U[-1] ... U[0] for arrays of steps.

    Pairwise halving: log2(n) batched compositions, and rounding that grows
    with log n rather than n.
    """
    while p.size > 1:
        last = p.size - 1
        paired = _compose((p[1::2], q[1::2]), (p[0:last:2], q[0:last:2]))
        if p.size % 2:
            paired = tuple(np.append(half, whole[-1]) for half, whole in zip(paired, (p, q)))
        p, q = paired
    return p[0], q[0]


def _stepped(factory: FrameFactory, run: loops_mod.EdgeRun) -> bool:
    """A tilted plane II edge: the one kind whose pair connection does not commute with itself."""
    return not (factory.real_controls or run.axis_aligned)


def takes_magnus_steps(loop: LoopSpec) -> bool:
    """Whether some edge of the loop takes Magnus steps: a tilted edge on plane II.

    Plane II's squeeze is the one complex control generator
    (FrameFactory.real_controls); on an axis-aligned edge one coordinate
    stays put.  Only such a loop splits `steps` over its edges.
    """
    return loop.plane is PlaneId.II and not all(
        edge.axis_aligned for edge in loops_mod.boundary_edges(loop)
    )


def _exact_edges(factory: FrameFactory, runs: list[loops_mod.EdgeRun]):
    """Each edge as one exact exponential, as (p, q) arrays over the runs, on the pair and the rest.

    With t in [0, 1] along the run, dU/dt = X(t) U for
    X = -(d_outer * A_o(i(t)) + d_inner * A_i).  On the pair X is
    [[0, x], [-conj x, 0]] with x = -d_outer * a(i(t)); on the rest it is the
    constant x = -d_inner * rest_entry.  Unless the run is _stepped, x(t) is a
    real multiple of one generator, so the run is exactly exp of its
    integral, x = -d_outer times the mean of a over [inner0, inner1]: with
    a(i) = sum(outer * exp(i Omega i)), Omega = weight.imag, that is the entry
    at the midpoint with `outer` scaled by sinc(Omega d_inner / 2), and
    d_inner = 0 gives a(inner0) itself.  All runs go through one pass: one
    phase table at the midpoints, one stacked product with each run's
    scaled `outer`, one closed-form exponential of pair and rest together.
    """
    starts = np.array([factory.split(*run.start) for run in runs])
    d_outer, d_inner = (np.array([factory.split(*run.end) for run in runs]) - starts).T
    inner0 = starts[:, 1]
    pair = factory.pair
    # mean of exp(i Omega i) over [inner0, inner1]: the midpoint phase times a sinc
    middle = pair.outer * np.sinc(np.multiply.outer(d_inner / (2.0 * math.pi), pair.weight.imag))
    midpoint = inner0 + 0.5 * d_inner
    # each run's phases as a contiguous column: every run's entry is then summed in
    # FrameFactory.pair_entries' order, and equals it bit for bit at d_inner = 0
    t_a, t_b = (
        np.ascontiguousarray(sector.phases_at(midpoint).T)[:, :, None]
        for sector in (pair.first, pair.second)
    )
    entries = np.sum(t_a.conj() * (middle @ t_b), axis=1)[:, 0]
    x = np.stack([-d_outer * entries, -d_inner * factory.rest_entry + 0j])
    _check_exponents(x)
    p, q = _magnus_step(x, x)
    return (p[0], q[0]), (p[1], q[1])


def _run_transport(factory: FrameFactory, run: loops_mod.EdgeRun):
    """(p, q) on the code pair of a _stepped run: `count` fourth-order Magnus steps.

    Each step takes x = -d_outer * a / count at the two Gauss-Legendre nodes
    of its sub-interval; the steps multiply by pairwise halving, in batches
    of MAGNUS_BATCH.
    """
    outer0, inner0 = factory.split(*run.start)
    outer1, inner1 = factory.split(*run.end)
    d_outer, d_inner = outer1 - outer0, inner1 - inner0
    transport = (1.0, 0.0)
    outer, step, scale = factory.pair.outer, d_inner / run.count, -d_outer / run.count
    for start in range(0, run.count, MAGNUS_BATCH):
        size = min(MAGNUS_BATCH, run.count - start)
        x1, x2 = (
            scale * factory.pair_entries(outer, inner0 + step * (start + node), step, size)
            for node in _GAUSS_NODES
        )
        _check_exponents(x1, x2)
        transport = _compose(_tree_product(*_magnus_step(x1, x2)), transport)
    return transport


def _transport(factory: FrameFactory, runs: list[loops_mod.EdgeRun]) -> np.ndarray:
    """The loop's holonomy: every edge from _exact_edges, a _stepped one from its Magnus steps.

    The edges multiply on one at a time, in traversal order: with a handful
    of edges a pairwise product saves nothing, and this order keeps a loop
    of Magnus edges bit for bit what it was when each edge was taken alone.
    An edge exponent past double range raises ValueError (_check_exponents).
    """
    pair, rest = _exact_edges(factory, runs)
    for k, run in enumerate(runs):
        if _stepped(factory, run):
            pair[0][k], pair[1][k] = _run_transport(factory, run)
    holonomy = np.zeros((factory.code_dim, factory.code_dim), dtype=complex)
    for columns, edges in ((factory.pair_columns, pair), (factory.rest, rest)):
        if columns.size:
            p, q = 1.0, 0.0
            for edge in zip(*edges):
                p, q = _compose(edge, (p, q))
            holonomy[np.ix_(columns, columns)] = [[p, q], [-np.conj(q), np.conj(p)]]
    return holonomy


def holonomy_path_ordered(loop: LoopSpec, cutoff: int, steps: int) -> gates.GateMatrix:
    """Path-ordered holonomy of the exact Wilczek-Zee connection around the loop.

    An edge is one exact exponential unless it takes Magnus steps
    (takes_magnus_steps: a tilted plane II edge), so only such a loop splits
    `steps` over its edges by length (loops.boundary_runs), one fourth-order
    Magnus step per sub-interval of a tilted edge.  Before anything is
    built, that split is validated, and so is steps/2 (at least 4) against
    the loop's edge count, with boundary_runs' own message, since the rerun
    at steps/2 needs a step per edge too.  Every other loop takes its edges
    from its corners (loops.boundary_edges), and `steps` is only checked
    against the floor of 100.  diagnostics["integrator"] is "magnus4" when
    some edge takes Magnus steps and "exact_edge" otherwise.  Only then is
    the transport rerun at steps/2, and the distance to that rerun is the
    convergence estimate; it is 0.0 when every edge is exact.  The
    truncation check reads I(i) c at the corners (_check_chain_tails), after
    the transport, so a loop that the transport refuses warns of nothing.
    The result lives in the raw dressed-frame basis; use
    calibrated_code_matrix() to compare with the area-formula gates.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    stepped = takes_magnus_steps(loop)
    half = max(steps // 2, 4)
    if stepped:
        runs = loops_mod.boundary_runs(loop, steps)
        loops_mod.check_steps_cover_edges(half, len(runs))
    else:
        runs = loops_mod.boundary_edges(loop)
    factory = frame_factory(loop.plane, cutoff)
    holonomy = _transport(factory, runs)
    _check_chain_tails(factory, np.array([run.start for run in runs]))
    convergence = 0.0
    if stepped:
        coarse = _transport(factory, loops_mod.boundary_runs(loop, half))
        convergence = float(np.linalg.norm(holonomy - coarse))
    defect = float(np.linalg.norm(holonomy.conj().T @ holonomy - np.eye(factory.code_dim)))
    integrator = "magnus4" if stepped else "exact_edge"
    return gates.GateMatrix(
        factory.code_dim,
        holonomy,
        "connection_oracle",
        unitarity_defect=defect,
        diagnostics={
            "convergence_estimate": convergence,
            "steps": steps,
            "integrator": integrator,
        },
    )


def calibrate(cutoff: int = 40, steps: int = 800) -> dict:
    """Re-derive the frozen frame calibration from small-rectangle holonomies.

    Searches constant diagonal phase gauges (and, for plane III, the swap of
    the last two code labels) together with a global sign, and returns the
    combination that reproduces the area-formula gates.  Tests assert it
    matches CALIBRATION_GAUGE / CALIBRATION_SIGN.
    """
    single_candidates = [np.diag([1.0, 1.0j ** k]).astype(complex) for k in range(4)]
    swap = _swap_matrix_23()
    two_candidates = [np.eye(4, dtype=complex), swap] + [
        m @ np.diag([1.0, 1.0j ** k, 1.0, 1.0]).astype(complex)
        for m in (np.eye(4, dtype=complex), swap)
        for k in range(1, 4)
    ]
    loops_by_plane = {
        PlaneId.I: CALIBRATION_RECT,
        PlaneId.II: LoopSpec(PlaneId.II, Rect(0.0, 0.1, 0.0, 0.1)),
        PlaneId.III: LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
    }
    result: dict = {"sign": None, "gauges": {}, "distances": {}}
    for plane, loop in loops_by_plane.items():
        plane_cutoff = 14 if plane is PlaneId.III else cutoff
        raw = holonomy_path_ordered(loop, plane_cutoff, steps).matrix
        sigma = loops_mod.area(loop).sigma
        gen = gates.PLANE_GENERATOR[plane]
        candidates = two_candidates if plane is PlaneId.III else single_candidates
        best = None
        for sign in (1, -1):
            target = gates.gate_from_area(gen, sign * sigma).matrix
            for v in candidates:
                dist = float(np.linalg.norm(v @ raw @ v.conj().T - target))
                # prefer +1 on ties: the two signs come in equivalent pairs
                if best is None or dist < best[0] - 1e-12:
                    best = (dist, sign, v)
        dist, sign, v = best
        result["gauges"][plane] = v
        result["distances"][plane] = dist
        if result["sign"] is None:
            result["sign"] = sign
        elif result["sign"] != sign:
            raise RuntimeError("calibration signs disagree between planes")
    return result
