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
two-mode squeeze).  So V is built sector by sector, one real SVD of half
the sector's size each (_sector).  The transport reads only the sectors
that hold code columns, and G_o only between its code pair's two, so it
builds nothing else (FrameFactory's transport part).  The kicked route's
blocks take V as the direct sum of all their sectors' bases and run in the
paired basis Q built from it, where a diagonal operator such as the Kerr
dwell is block-diagonal by sector up to the order of Q's columns
(ControlBlock.sector_columns).  On plane III each
block is the U = +1 half of a parity block of (-1)^(n1 + n2), U the
beam swap times i^(n1 - n2), built by one construction
(fock.swap_symmetric_half); the odd one carries its U = -1 half as a
conjugate twin, which differs from it only by a conjugated G_o.

Raw holonomies come out in the dressed-frame code basis.  That basis differs
from the gate convention (Sigma1/Sigma2/Sigma12 per plane) by a constant
change of code basis which carries no physics; the frozen CALIBRATION maps one
onto the other, and the tests re-derive that choice from small rects.
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
# (MAGNUS_BATCH x half the block size) whatever the count.
MAGNUS_BATCH = 256

# Two-node Gauss-Legendre points on [0, 1] for the fourth-order Magnus step.
_GAUSS_NODES = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
# -sqrt(3)/12 [B1, B2] for B_j = [[0, x_j], [-conj x_j, 0]] is diag(i g, -i g),
# g = -(sqrt(3)/6) Im(conj(x1) x2)
_MAGNUS_COMMUTATOR = math.sqrt(3.0) / 6.0


class CodeBlock:
    """Fock basis states closed under the inner generator G_i, in its eigenbasis there.

    `index` lists the block's Fock basis states, `columns` the code columns
    it holds (possibly none), those whose Fock index, in `places`
    (fock.code_places), it lists, and `code` those columns on the block, as
    unit columns; `values` w and the columns of `vectors`, formed when asked
    for as V = diag(row_phases) real_vectors, are the eigenpairs of i G_i on
    the block, so that I(i) = V diag(exp(-i i w)) V^dag there.
    """

    def __init__(self, index: np.ndarray, values: np.ndarray, real_vectors: np.ndarray,
                 row_phases: np.ndarray, places: np.ndarray):
        self.index = index
        self.values = values
        self.real_vectors = real_vectors
        self.row_phases = row_phases
        self.columns, rows = np.nonzero(places[:, None] == index)
        self.code = np.zeros((index.size, self.columns.size), dtype=complex)
        self.code[rows, np.arange(rows.size)] = 1.0

    @property
    def vectors(self) -> np.ndarray:
        """V, the eigenvectors of i G_i on the block, as a new complex array."""
        return self.row_phases[:, None] * self.real_vectors

    @cached_property
    def code_eig(self) -> np.ndarray:
        """The block's code columns in its inner eigenbasis V: V^dag c, V's code rows conjugated."""
        rows = np.nonzero(self.code.T)[1]
        return (self.row_phases[rows, None] * self.real_vectors[rows]).conj().T

    def phases_at(self, inner: np.ndarray, rows=slice(None)) -> np.ndarray:
        """exp(-i w i) at each inner control value i, shape (rows, values): I's phases."""
        return np.exp(-1j * (self.values[rows, None] * inner))


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


def _sector(index: np.ndarray, lower: np.ndarray, places: np.ndarray) -> CodeBlock:
    """One sector of G_i, a chain that G_i does not leave, from one real SVD of half its size.

    h = i lower, i G_i below its diagonal (fock.inner_sectors), has one phase
    alpha: i on planes I and III, -1 on plane II.  With a zero diagonal, i G_i
    is [[0, B], [B^dag, 0]] on the chain's (even, odd) places, B / alpha =
    U diag(s) W^T is real, and the eigenpairs are (u, +-conj(alpha) w)/sqrt 2
    at +-s and (u, 0) at 0 for U's last column on an odd-sized chain, held in
    eigh's ascending layout as V = diag(row_phases) real_vectors.
    """
    n = index.size
    h, half = 1j * lower, n // 2
    alpha = h[0] / abs(h[0]) if h.size else 1.0
    block = np.zeros((n - half, half), dtype=complex)  # B, from the odd places to the even ones
    np.fill_diagonal(block, h[0::2].conj())  # from place 2j + 1 to 2j
    np.fill_diagonal(block[1:], h[1::2])  # from place 2j - 1 to 2j
    u, s, wt = np.linalg.svd((block / alpha).real)
    pair_u, pair_w = math.sqrt(0.5) * u[:, :half], math.sqrt(0.5) * wt.T
    vectors = np.zeros((n, n))
    vectors[0::2, :half], vectors[1::2, :half] = pair_u, -pair_w
    vectors[0::2, n - half :], vectors[1::2, n - half :] = pair_u[:, ::-1], pair_w[:, ::-1]
    vectors[0::2, half : n - half] = u[:, half:]  # the zero mode of an odd-sized chain
    values = np.concatenate([-s, np.zeros(n % 2), s[::-1]])
    row_phases = np.where(np.arange(n) % 2, np.conj(alpha), 1.0 + 0j)
    return CodeBlock(index, values, vectors, row_phases, places)


class ControlBlock(CodeBlock):
    """One invariant block of the control generators G_i and G_o that holds code states.

    The block is the union of `sectors`, the sectors of G_i inside it, each
    a CodeBlock with its own eigenbasis (_sector); `index` lists them one
    after another, and V is their direct sum, so V is block-diagonal and `values` is the
    sectors' eigenvalues in the same order.  G_o restricted to the block is
    V_o diag(w_o) V_o^dag times -i; the block keeps `outer_values` w_o and
    `outer_vectors` W = V^dag V_o, the outer eigenvectors in V, so that its
    only dense matrices are V's real factor and W until a kicked loop asks.

    The paired basis Q (paired_basis) is where the kicked route runs: there
    I(i) is a rotation of each pair of columns, and with `real_controls`
    (G_i real, planes I and III) Q is real.  With `real_step`, read off G_o
    on the block (real, and Q real), so is the outer step Q^dag O Q
    (outer_step), one product of the outer eigenvectors in Q
    (paired_outer_vectors).  These and the code columns in Q (paired_code)
    are built on first use.  Each column of Q lies in one sector:
    `sector_columns` (sectors x largest sector size) lists each sector's
    columns, its pairs, then its zero mode, padded with the block size, and
    `sector_rows` each sector's rows in V's layout.

    A block's rows are Fock states, one per entry of `index`, except on plane
    III, where each parity block is built on its U = +1 half
    (fock.swap_symmetric_half): `half` = (images, phases) makes row r stand
    for (|index_r> + p_r |image_r>)/sqrt 2, or for |index_r> alone where
    p_r = 0.  With B those rows as Fock columns, G_o on the block is
    B^dag G_o B, formed by one gather of the dense G_o at the rows' two
    states, and the code columns are B^dag c.  On the even block p = +-1 and
    G_o is real.  On the odd block p = +-i and G_o is complex, though G_i,
    and so Q, stays real; there the U = -1 half, whose rows
    (|index> - p |image>)/sqrt 2 are conj(B), is the block's conjugate twin:
    the same chains, dwell, Q and code rows, with G_o conjugated, so that
    its outer step is the conjugate of the block's.  Each odd code state has
    half its weight in each half, so `signs` is (1, -1), the block and its
    twin; (1,) on every other block.

    `code` holds, as unit columns, the rows where B^dag c is not zero, and
    `mix` the code columns `columns` on them: B^dag c = code mix.  On a
    whole block and on the even half mix is the identity.  On the odd half
    code is the one row of |0, 1>, h = (|01> - i |10>)/sqrt 2, and mix is
    (i, 1)/sqrt 2, h's overlaps with |10> and |01>; the twin's is conj(mix).
    """

    def __init__(
        self,
        sectors: list[CodeBlock],
        outer: np.ndarray,
        places: np.ndarray,
        real_controls: bool,
        half: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.sectors = sectors
        sizes = np.array([sector.index.size for sector in self.sectors])
        self.index = np.concatenate([sector.index for sector in self.sectors])
        n = self.index.size
        self.real_vectors = np.zeros((n, n))
        self.sector_rows = [slice(end - size, end) for size, end in zip(sizes, np.cumsum(sizes))]
        for sector, rows in zip(self.sectors, self.sector_rows):
            self.real_vectors[rows, rows] = sector.real_vectors
        self.row_phases = np.concatenate([sector.row_phases for sector in self.sectors])
        self.values = np.concatenate([sector.values for sector in self.sectors])
        self.real_controls = real_controls
        # B's column r, unnormalized: weights[k, r] |states[k, r]> summed over k
        states, weights = self.index[None], np.ones((1, n))
        if half is not None:
            states, weights = np.stack([self.index, half[0]]), np.stack([weights[0], half[1]])
        paired = np.count_nonzero(weights, axis=0) - 1
        flat = states.ravel()
        outer = outer[np.ix_(flat, flat)].reshape(states.shape * 2)
        outer = np.einsum("kr,krls,ls->rs", weights.conj(), outer, weights)
        # B's norms: a pair's 1/sqrt 2 once or twice, as 1/sqrt 2 or 0.5 exactly
        outer *= np.array([1.0, math.sqrt(0.5), 0.5])[np.add.outer(paired, paired)]
        self.real_step = real_controls and not np.any(outer.imag)
        self.signs = (1.0, -1.0) if np.any(weights.imag) else (1.0,)
        norm = np.where(paired, math.sqrt(0.5), 1.0)
        code = np.sum((weights * norm).conj()[:, :, None] * (states[:, :, None] == places), axis=0)
        self.columns = np.flatnonzero(np.any(code != 0, axis=0))
        rows = np.flatnonzero(np.any(code != 0, axis=1))
        self.code = np.zeros((n, rows.size), dtype=complex)
        self.code[rows, np.arange(rows.size)] = 1.0
        self.mix = code[np.ix_(rows, self.columns)]
        outer = fock.Propagator(outer)
        self.outer_values = outer.values
        self.outer_vectors = self.vectors.conj().T @ outer.vectors
        # paired_basis's order: each sector's pairs, sector by sector, then the zero modes
        paired = 2 * (sizes // 2)
        starts = (np.cumsum(paired) - paired)[:, None]
        slots = np.arange(sizes.max())
        columns = np.where(slots < paired[:, None], starts + slots, n)
        odd = np.flatnonzero(sizes % 2)
        columns[odd, paired[odd]] = paired.sum() + np.arange(odd.size)
        self.sector_columns = columns

    @cached_property
    def paired_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q, rates): the paired basis of the block and the rotation rate of each pair.

        In each sector, a chain, i G_i's eigenvector at s > 0 is
        v = (u, conj(alpha) w)/sqrt 2 on the chain's (even, odd) places, and
        its partner at -s differs only in the sign of the odd ones (_sector).
        q_a = sqrt 2 v = u on the even places and q_b = -i sqrt 2 v on the odd
        ones are orthonormal, and I(i) rotates them, I q_a = cos(s i) q_a +
        sin(s i) q_b and I q_b = cos(s i) q_b - sin(s i) q_a: on the
        coefficients (y_a, y_b) of a column, the phase exp(i s i) on
        y_a + i y_b.  With real controls alpha = i, q_b = -w and Q is real.
        Each sector's vectors go to its columns (sector_columns): the pairs
        first, sector by sector with q_a and q_b adjacent, at the rates s.
        Then the zero modes, (u, 0) and so real, paired among themselves at
        rate 0; an odd one out comes last and takes no phase.
        """
        n = self.index.size
        basis = np.zeros((n, n), dtype=complex)
        rates = np.zeros(n // 2)
        for sector, rows, places in zip(self.sectors, self.sector_rows, self.sector_columns):
            m = sector.index.size
            half = m // 2
            v = math.sqrt(2.0) * sector.vectors[:, m - half :]
            basis[rows.start : rows.stop : 2, places[0 : 2 * half : 2]] = v[0::2]
            basis[rows.start + 1 : rows.stop : 2, places[1 : 2 * half : 2]] = -1j * v[1::2]
            rates[places[0 : 2 * half : 2] // 2] = sector.values[m - half :]
            basis[rows, places[2 * half : m]] = sector.vectors[:, half : m - half]  # a zero mode
        return (np.ascontiguousarray(basis.real) if self.real_controls else basis), rates

    @cached_property
    def paired_code(self) -> np.ndarray:
        """Q^dag c: the block's code columns in its paired basis, where every kicked loop starts.

        With `real_controls` Q and c are real, and so is Q^dag c, held as float64.
        """
        code = self.paired_basis[0].conj().T @ self.code
        return np.ascontiguousarray(code.real) if self.real_controls else code

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

    def outer_step(self, d_outer: float, inner: float = 0.0) -> np.ndarray:
        """S = Q^dag I(-inner) O(d_outer) I(inner) Q on the block: O turned by I's rotation.

        That is R X exp(-i d_outer w_o) X^dag R^dag, X the outer eigenvectors
        in Q (paired_outer_vectors) and R = Q^dag I(-inner) Q, which turns
        each pair of rows (2k, 2k + 1) by -inner w_k (paired_basis).  With
        `real_step` S is real, and only its real part is formed, a
        C-contiguous float64 array that the kicked route's real products take
        as it is.  The unturned step is built first, and turned_step turns it.
        """
        x = self.paired_outer_vectors
        phased = x * np.exp(-1j * d_outer * self.outer_values)[None, :]
        if self.real_step:
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
        if self.real_step:
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


def _summed_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right, summed over the inner dimension 16 entries at a time.

    One BLAS product sums each entry in one chain of roundings as long as
    the inner dimension.  The pair's R_a^T G_o R_b has terms that grow with
    the place and cancel: over plane III cutoffs 400-1096 (step 37) one
    product left CROT_LOOP's transport up to 2.4e-14 from its gate (median
    6.4e-15), and 16 at a time up to 7.0e-15 (3.5e-15), as the complex eigh.
    """
    total = left[:, :16] @ right[:16]
    for start in range(16, right.shape[0], 16):
        total += left[:, start : start + 16] @ right[start : start + 16]
    return total


class SectorPair(NamedTuple):
    """The two sectors of G_i that G_o links, one code column each.

    With t_a and t_b the transposed phase tables of the two sectors,
    phase_table(first.values, ...).T and phase_table(second.values, ...).T,
    the one entry of A_o on the pair, at row first.columns and column
    second.columns, is sum(conj(t_a) * (outer @ t_b)).
    """

    first: CodeBlock
    second: CodeBlock
    outer: np.ndarray  # conj(c_a) * (V_a^dag G_o[a, b] V_b) * c_b, c the code columns in V
    weight: np.ndarray  # i (w_a - w_b): the same block of V^dag [G_o, G_i] V is weight * outer


def _inner_phase(plane: PlaneId) -> complex:
    """The phase of the inner generator (fock.inner_sectors): i on plane II, 1 elsewhere."""
    return 1.0j if plane is PlaneId.II else 1.0


class FrameFactory:
    """The exact connection on one plane, and the kicked route's control blocks, in two parts.

    The transport's part is built here, with nothing of the whole space's
    square: the bytes it forms are checked first (fock.check_chain_budget).
    I(i) c never leaves the chains of G_i that hold the code columns, so
    `chains` holds those alone (fock.code_chains: the two parity chains of
    the squeeze on planes I/II, n1 - n2 = 0, -1 and +1 of the two-mode
    squeeze on plane III), each a CodeBlock with one eigh of its own and its
    code rows read off the code states' Fock indices (`places`,
    fock.code_places), with nothing of the whole space's size.  In a
    chain's eigenbasis V_a, I(i) is the diagonal phase exp(-i i w_a), and
    with y_a = exp(-i i w_a) V_a^dag c_a the block of A_o(i) between the
    code columns of chains a and b is y_a^dag (V_a^dag G_o V_b) y_b.  `pair`
    is the two chains that hold one code column each (the two parities on
    planes I/II, n1 - n2 = -1 and +1 on plane III), the only two that G_o
    links among those that hold code states, so A_o is one entry at
    `pair_columns` and its mirror, and exactly zero elsewhere; G_o between
    them is read entry by entry (fock.outer_entries).  A_i = c^dag G_i c is
    summed from the chains (`inner_connection`): exactly zero on the pair,
    and on the `rest` of the code columns (none on planes I/II, |00> and
    |11> on plane III) the one entry `rest_entry` and its mirror.
    `real_controls` says that G_i has no imaginary part (planes I and III;
    G_o is real on every plane), so that a(i) is real.  holonomy_path_ordered, its truncation
    check (chain_tail_populations), connection, curvature and
    outer_connection read this part alone.

    The kicked part is built on first kicked use (kicked.run_kicked,
    check_loop_truncation), after fock.check_dense_budget.  `blocks` holds
    one ControlBlock per invariant block of G_i and G_o that holds code
    states (the whole space on planes I/II; on plane III the U = +1 half of
    each parity block of (-1)^(n1 + n2), fock.swap_symmetric_half, the odd
    one with its conjugate twin), from the dense G_o and the sectors of G_i
    inside the block (fock.inner_sectors), one eigh per sector; the code
    chains they keep are the transport's own.  On plane III at cutoff 14
    the blocks hold 7 sectors each, 56 and 49 states.  `top_outer_vectors`
    holds, per block, the rows of V W (the outer eigenvectors in the Fock
    basis) at its top-quartile Fock levels, for the kicked route's
    truncation check (top_quartile_populations).  `dwells` holds the kicked
    route's one Kerr dwell, the echo dwell, per block in its paired basis,
    as a sector stack (kicked.sector_dwells) and as one dense matrix
    scattered from it (kicked.dense_dwells), each built on first use.
    """

    def __init__(self, plane: PlaneId, cutoff: int):
        mode_count = 2 if plane is PlaneId.III else 1
        fock.check_chain_budget(cutoff, mode_count)
        fock.check_code_below_top_quartile(cutoff)
        self.plane = plane
        self.cutoff = cutoff
        self.mode_count = mode_count
        self.places = fock.code_places(cutoff, mode_count)
        self.code_dim = self.places.size
        chains = fock.code_chains(cutoff, mode_count, _inner_phase(plane))
        self.chains = [_sector(index, lower, self.places) for index, lower in chains]
        self.inner_connection = np.zeros((self.code_dim,) * 2, dtype=complex)
        for chain, (_, lower) in zip(self.chains, chains):
            rows = np.nonzero(chain.code.T)[1]
            inner = np.diag(lower[: rows.max()], -1)  # G_i up to the chain's last code row
            inner = inner - inner.conj().T
            self.inner_connection[np.ix_(chain.columns, chain.columns)] += inner[np.ix_(rows, rows)]
        first, second = [chain for chain in self.chains if chain.columns.size == 1]
        self.real_controls = not any(np.any(lower.imag) for _, lower in chains)
        # V_a^dag G_o V_b = R_a^T (D_a^* G_o D_b) R_b for V = D R (_sector), in real products:
        # G_o is real, and D turns only its links from an even to an odd place (plane I's) by +-i
        outer = fock.outer_entries(first.index, second.index, cutoff, mode_count)
        outer *= np.multiply.outer(first.row_phases.conj(), second.row_phases)
        left, right = first.real_vectors.T, second.real_vectors
        middle = sum(scale * _summed_product(left, np.ascontiguousarray(part) @ right)
                     for scale, part in ((1.0, outer.real), (1j, outer.imag)) if np.any(part))
        middle = first.code_eig.conj() * middle * second.code_eig.T
        weight = 1j * np.subtract.outer(first.values, second.values)
        self.pair = SectorPair(first, second, middle, weight)
        [row], [col] = first.columns, second.columns
        self.pair_columns = np.array([row, col])
        self.rest = np.delete(np.arange(self.code_dim), self.pair_columns)
        rest = self.rest
        self.rest_entry = self.inner_connection[rest[0], rest[-1]] if rest.size else 0.0

    @cached_property
    def blocks(self) -> list[ControlBlock]:
        """The kicked part's control blocks, from the dense G_o, built on first use."""
        cutoff = self.cutoff
        fock.check_dense_budget(cutoff, self.mode_count)
        if self.plane is PlaneId.III:
            outer = fock.two_mode_mix_generator(1.0, cutoff)
        else:
            outer = fock.displacement_generator(1.0, cutoff)
        layout = fock.inner_sectors(cutoff, self.mode_count, _inner_phase(self.plane))
        if self.plane is PlaneId.III:  # each parity block's U = +1 half
            parts = [fock.swap_symmetric_half(sectors, cutoff) for sectors in layout]
        else:
            parts = [(sectors, None) for sectors in layout]
        built = {int(chain.index[0]): chain for chain in self.chains}

        def sector(index, inner):  # a code chain is the transport's own
            return built[index[0]] if index[0] in built else _sector(index, inner, self.places)

        return [
            ControlBlock(
                [sector(*chain) for chain in sectors], outer, self.places, self.real_controls, half
            )
            for sectors, half in parts
        ]

    @cached_property
    def top_outer_vectors(self) -> list[np.ndarray]:
        """Per block, the rows of V W at its top-quartile Fock levels (top_quartile_populations)."""
        top = fock.top_quartile_mask(self.cutoff, self.mode_count)
        return [block.vectors[top[block.index]] @ block.outer_vectors for block in self.blocks]

    @cached_property
    def dwells(self) -> dict:
        """The kicked route's echo dwell forms, by kind (kicked.sector_dwells)."""
        return {}

    def split(self, u: float, v: float) -> tuple[float, float]:
        """Plane coordinates as (outer, inner) control parameters."""
        return (v, u) if self.plane is PlaneId.III else (u, v)

    def top_quartile_populations(self, points) -> np.ndarray:
        """Worst population in the top quartile of Fock levels over the code columns, per point.

        Every code column lives in one block, so each block forms only the
        top-quartile rows of its frames (top_outer_vectors), at all the (u, v)
        points at once, on its code rows (ControlBlock.code).  A half's row
        carries its pair's population: the top quartile holds |a, b> exactly
        when it holds |b, a>.  An odd code state has half its weight on each
        half of the odd block, and the twin's frame is the conjugate of the
        block's (its G_i and code row are real), so its population is the
        block's frame on the code row.
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
        read there (`chains`): V_a's top-quartile rows times
        exp(-i i w_a) V_a^dag c_a, read off V_a's real factor (its row phases
        keep populations).  That is what the transport depends on, as
        A_o(i) = c^dag I^dag G_o I c and A_i = c^dag G_i c; the outer
        propagator, which the frame check (top_quartile_populations) also
        applies, never acts on it.
        """
        top = fock.top_quartile_mask(self.cutoff, self.mode_count)
        worst = np.zeros(inner.shape)
        for chain in self.chains:
            rows = top[chain.index]
            if rows.any():
                cols = chain.phases_at(inner)[:, :, None] * chain.code_eig[:, None, :]
                tail = chain.real_vectors[rows] @ cols.reshape(chain.values.size, -1)
                population = np.sum(np.abs(tail) ** 2, axis=0).reshape(cols.shape[1:])
                worst = np.maximum(worst, np.max(population, axis=1))
        return worst

    def pair_entries(
        self, middle: np.ndarray, start: float, step: float = 0.0, count: int = 1
    ) -> np.ndarray:
        """The entry of c^dag I(i)^dag M I(i) c at pair_columns, at i = start + step k, k < count.

        `middle` is M's block between the pair's sectors in the form of
        SectorPair.outer (pair.outer gives a(i), the entry of A_o); M is
        anti-Hermitian and zero off that block.  Each sector's phase_table is
        taken as a contiguous (sector size, count) array: a transposed view
        takes another BLAS path through the product with M and rounds
        differently, by 1.8e-14 at cutoff 60 on plane III.
        """
        t_a, t_b = (
            np.ascontiguousarray(phase_table(sector.values, start, step, count).T)
            for sector in (self.pair.first, self.pair.second)
        )
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


def _mean_entries(pair: SectorPair, midpoint: np.ndarray, d_inner: np.ndarray) -> np.ndarray:
    """The mean of a(i) over [midpoint -+ d_inner / 2], per run (_exact_edges).

    Each run's phases are a contiguous column: its entry is then summed in
    FrameFactory.pair_entries' order, and equals it bit for bit at d_inner = 0.
    """
    # mean of exp(i Omega i) over the run: the midpoint phase times a sinc
    middle = pair.outer * np.sinc(np.multiply.outer(d_inner / (2.0 * math.pi), pair.weight.imag))
    t_a, t_b = (
        np.ascontiguousarray(sector.phases_at(midpoint).T)[:, :, None]
        for sector in (pair.first, pair.second)
    )
    return np.sum(t_a.conj() * (middle @ t_b), axis=1)[:, 0]


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
    d_inner = 0 gives a(inner0) itself.  The runs go through one pass per
    chunk of MAGNUS_BATCH // s of them, s the larger pair sector's size, so
    that the sinc-scaled (runs, s, s) blocks hold at most MAGNUS_BATCH x s
    entries, the Magnus path's bound: a phase table at the midpoints, one
    stacked product with each run's scaled `outer`.  Then one closed-form
    exponential takes pair and rest together.
    """
    starts = np.array([factory.split(*run.start) for run in runs])
    d_outer, d_inner = (np.array([factory.split(*run.end) for run in runs]) - starts).T
    midpoint = starts[:, 1] + 0.5 * d_inner
    pair = factory.pair
    chunk = max(1, MAGNUS_BATCH // max(pair.outer.shape))
    entries = np.concatenate(
        [
            _mean_entries(pair, midpoint[k : k + chunk], d_inner[k : k + chunk])
            for k in range(0, len(runs), chunk)
        ]
    )
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
    Magnus step per sub-interval of a tilted edge.  A `cutoff` or `steps`
    that is not an integer raises ValueError naming it.  Before anything is
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
    loops_mod.check_integer("cutoff", cutoff)
    loops_mod.check_integer("steps", steps)
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
