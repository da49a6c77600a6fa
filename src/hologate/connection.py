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
sectors, and a diagonal operator such as the kicked route's Kerr dwell is
block-diagonal by sector in V.

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
# tilted plane II edges take Magnus steps) and the kicked route's phase table
# (block size x MAGNUS_BATCH + 1) whatever the count.
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
        """I's phases at start + step k for k < count, shape (block size, count).

        The table is the outer product of a coarse one, at every m-th k, and a
        fine one, at the first m, with m about sqrt(count): 2 sqrt(count)
        exponentials per eigenvalue w instead of count.
        """
        fine = math.isqrt(count - 1) + 1
        table = self.phases_at(start + step * fine * np.arange(-(-count // fine)))
        if fine > 1:
            table = table[:, :, None] * self.phases_at(step * np.arange(fine))[:, None, :]
        return table.reshape(self.values.size, -1)[:, :count]


def _sector(index: np.ndarray, inner: np.ndarray, code: np.ndarray) -> CodeBlock:
    """One sector of G_i (a chain that G_i does not leave), with its own eigh of `inner` on it."""
    basis = fock.Propagator(inner)
    return CodeBlock(index, basis.values, basis.vectors, code)


class ControlBlock(CodeBlock):
    """One invariant block of the control generators G_i and G_o that holds code states.

    The block is the union of `sectors`, the sectors of G_i inside it, built
    from their (Fock indices, G_i on them) chains from fock.inner_sectors, each
    a CodeBlock with its own eigenbasis; `index` lists them one after another,
    and V is their direct sum, so V is block-diagonal and `values` is the
    sectors' eigenvalues in the same order.  `sector_mask` (sectors x largest
    sector size) is True at the places a sector fills: a vector in V, written
    into the True places in row-major order, lands sector by sector.  G_o
    restricted to the block is V_o diag(w_o) V_o^dag times -i; the block keeps
    `outer_values` w_o and `outer_vectors` W = V^dag V_o, the outer
    eigenvectors in V, so that its only dense matrices are V and W.
    """

    def __init__(
        self, sectors: list[tuple[np.ndarray, np.ndarray]], outer: np.ndarray, code: np.ndarray
    ):
        self.sectors = [_sector(index, inner, code) for index, inner in sectors]
        sizes = np.array([sector.index.size for sector in self.sectors])
        self.sector_mask = np.arange(sizes.max()) < sizes[:, None]
        index = np.concatenate([sector.index for sector in self.sectors])
        vectors = np.zeros((index.size, index.size), dtype=complex)
        ends = np.cumsum(sizes)
        for sector, start, end in zip(self.sectors, ends - sizes, ends):
            vectors[start:end, start:end] = sector.vectors
        values = np.concatenate([sector.values for sector in self.sectors])
        super().__init__(index, values, vectors, code)
        outer = fock.Propagator(outer[np.ix_(index, index)])
        self.outer_values = outer.values
        self.outer_vectors = vectors.conj().T @ outer.vectors

    def outer_kick(self, d_outer: float) -> np.ndarray:
        """V^dag O(d_outer) V = W exp(-i d_outer w_o) W^dag on the block."""
        w = self.outer_vectors
        return (w * np.exp(-1j * d_outer * self.outer_values)[None, :]) @ w.conj().T

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
    space on planes I/II, the two parity blocks of (-1)^(n1 + n2) on plane
    III), and frames and kicks run block by block.  Each block is built from
    the sectors of G_i inside it, one eigh per sector: the two parity chains
    of the squeeze on planes I/II, the n1 - n2 chains of the two-mode squeeze
    on plane III (13 and 14 of them in the two parity blocks at cutoff 14).
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
    truncation check.  `dwells` holds the kicked route's Kerr dwell per block
    (kicked.sector_dwells) for one (chi, delta_t): one more block-sized
    matrix per block beside V and W, inside the dense budget.
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
        self.blocks = [ControlBlock(sectors, outer, self.code) for sectors in layout]
        chains = [inner for sectors in layout for _, inner in sectors]
        self.real_controls = not any(np.any(g.imag) for g in [outer, *chains])
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
            cols[np.ix_(block.index, block.columns)] = block.frames(outer, inner, left)[:, 0]
        return cols

    def top_quartile_populations(self, points) -> np.ndarray:
        """Worst population in the top quartile of Fock levels over the code columns, per point.

        Every code column lives in one block, so each block forms only the
        top-quartile rows of its frames (top_outer_vectors), at all the (u, v)
        points at once.
        """
        outer, inner = self.split(*np.asarray(points, dtype=float).T)
        worst = np.zeros(outer.shape)
        for block, left in zip(self.blocks, self.top_outer_vectors):
            population = np.sum(np.abs(block.frames(outer, inner, left)) ** 2, axis=0)
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
    """Warn when the dressed frames at the loop corners stress the cutoff, once per corner."""
    factory = frame_factory(loop.plane, cutoff)
    for population in factory.top_quartile_populations(loops_mod.boundary_vertices(loop)):
        fock.warn_if_truncated(float(population), f"dressed frame on plane {loop.plane.value}")


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
        transport = _compose(_tree_product(*_magnus_step(x1, x2)), transport)
    return transport


def _transport(factory: FrameFactory, runs: list[loops_mod.EdgeRun]) -> np.ndarray:
    """The loop's holonomy: every edge from _exact_edges, a _stepped one from its Magnus steps.

    The edges multiply on one at a time, in traversal order: with a handful
    of edges a pairwise product saves nothing, and this order keeps a loop
    of Magnus edges bit for bit what it was when each edge was taken alone.
    A holonomy that overflows to inf or NaN raises ValueError.
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
    if not np.all(np.isfinite(holonomy)):
        raise ValueError("transport overflows double precision; the loop reaches too far")
    return holonomy


def holonomy_path_ordered(loop: LoopSpec, cutoff: int, steps: int) -> gates.GateMatrix:
    """Path-ordered holonomy of the exact Wilczek-Zee connection around the loop.

    The boundary is split into `steps` sub-intervals by edge length
    (loops.boundary_runs).  Before any frame is built, that split is
    validated, and so is steps/2 (at least 4) against the loop's edge count,
    with boundary_runs' own message, since a rerun at steps/2 needs a step
    per edge too.  On planes I and III every edge is one exact exponential of
    the line integral of the (abelian) pair connection, so `steps` is only
    validated there.  On plane II an axis-aligned edge is one exact
    exponential and a tilted edge takes one fourth-order Magnus step per
    sub-interval.  diagnostics["integrator"] is "magnus4" when some edge takes
    Magnus steps (a tilted plane II edge) and "exact_edge" otherwise.  Only
    then is the steps/2 split built and the transport rerun on it, and the
    distance to that rerun is the convergence estimate; it is 0.0 when every
    edge is exact.  The result lives in the raw dressed-frame basis; use
    calibrated_code_matrix() to compare with the area-formula gates.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    runs = loops_mod.boundary_runs(loop, steps)
    half = max(steps // 2, 4)
    loops_mod.check_steps_cover_edges(half, len(runs))
    check_loop_truncation(loop, cutoff)
    factory = frame_factory(loop.plane, cutoff)
    holonomy = _transport(factory, runs)
    stepped = any(_stepped(factory, run) for run in runs)
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
