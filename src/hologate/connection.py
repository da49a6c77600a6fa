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
exponential, and a tilted edge takes fourth-order Magnus steps.

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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import fock, gates
from . import loops as loops_mod
from .fock import ControlPoint
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


@dataclass(frozen=True)
class ConnectionSample:
    point: tuple[float, float]
    A_u: np.ndarray
    A_v: np.ndarray
    antihermitian_defect: float  # rounding left in the exact components


@dataclass(frozen=True)
class CurvatureSample:
    point: tuple[float, float]
    matrix: np.ndarray  # curvature two-form component F_{uv} on the code space
    coefficient: float  # weight w with V F V^dag = i * w * G_plane (calibrated basis)
    residual: float  # off-generator remainder of the calibrated curvature


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

    def phases(self, start: float, step: float, count: int) -> np.ndarray:
        """exp(-i w (start + step k)) for k < count, shape (block size, count): I's phases.

        The table is the outer product of a coarse one, at every m-th k, and a
        fine one, at the first m, with m about sqrt(count): 2 sqrt(count)
        exponentials per eigenvalue w instead of count.
        """
        fine = math.isqrt(count - 1) + 1
        w = self.values[:, None]
        table = np.exp(-1j * (w * (start + step * fine * np.arange(-(-count // fine)))))
        if fine > 1:
            table = table[:, :, None] * np.exp(-1j * (w * (step * np.arange(fine))))[:, None, :]
        return table.reshape(w.size, -1)[:, :count]


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

    def frame(self, outer: float, inner: float) -> np.ndarray:
        """O(outer) I(inner) c on the block.

        In the inner eigenbasis that is V W exp(-i outer w_o) W^dag exp(-i inner w) V^dag c,
        and V^dag c is code_eig.
        """
        w = self.outer_vectors
        cols = np.exp(-1j * inner * self.values)[:, None] * self.code_eig
        # W^dag cols as conj(W^T conj(cols)): a transposed view, no W-sized copy
        cols = np.exp(-1j * outer * self.outer_values)[:, None] * (w.T @ cols.conj()).conj()
        return self.vectors @ (w @ cols)


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
    """

    def __init__(self, plane: PlaneId, cutoff: int):
        mode_count = 2 if plane is PlaneId.III else 1
        fock.check_dense_budget(cutoff, mode_count)
        fock.check_code_below_top_quartile(cutoff)
        self.plane = plane
        self.cutoff = cutoff
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

    def split(self, u: float, v: float) -> tuple[float, float]:
        """Plane coordinates as (outer, inner) control parameters."""
        return (v, u) if self.plane is PlaneId.III else (u, v)

    def frame(self, u: float, v: float) -> np.ndarray:
        """Columns of the dressed code basis at plane point (u, v)."""
        outer, inner = self.split(u, v)
        cols = np.zeros(self.code.shape, dtype=complex)
        for block in self.blocks:
            cols[np.ix_(block.index, block.columns)] = block.frame(outer, inner)
        return cols

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


def plane_point(plane: PlaneId, u: float, v: float) -> ControlPoint:
    """ControlPoint at plane coordinates (u, v), all other controls pinned."""
    if plane is PlaneId.I:
        return ControlPoint(x=u, r1=v, theta1=0.0)
    if plane is PlaneId.II:
        return ControlPoint(x=u, r1=v, theta1=math.pi / 2.0)
    return ControlPoint(r2=u, r3=v)


def plane_coordinates(point: ControlPoint, plane: PlaneId) -> tuple[float, float]:
    """(u, v) of a point that lies in the given plane; rejects off-plane points."""

    def pinned(*names):
        for name in names:
            if not math.isclose(getattr(point, name), 0.0, abs_tol=1e-12):
                raise ValueError(f"point is not in plane {plane.value}: {name} != 0")

    if plane in (PlaneId.I, PlaneId.II):
        pinned("y", "r2", "theta2", "r3", "theta3")
        target = 0.0 if plane is PlaneId.I else math.pi / 2.0
        if point.r1 > 0 and not math.isclose(point.theta1, target, abs_tol=1e-12):
            raise ValueError(f"point is not in plane {plane.value}: theta1 != {target}")
        return point.x, point.r1
    pinned("x", "y", "r1", "theta1", "theta2", "theta3")
    return point.r2, point.r3


def _warn_on_frame_truncation(vectors: np.ndarray, cutoff: int, plane: PlaneId) -> None:
    mode_count = 2 if plane is PlaneId.III else 1
    population = fock.top_quartile_population(vectors, cutoff, mode_count)
    fock.warn_if_truncated(population, f"dressed frame on plane {plane.value}")


def check_loop_truncation(loop: LoopSpec, cutoff: int) -> None:
    """Warn when the dressed frames at the loop corners stress the cutoff."""
    factory = frame_factory(loop.plane, cutoff)
    for u, v in loops_mod.boundary_vertices(loop):
        _warn_on_frame_truncation(factory.frame(u, v), cutoff, loop.plane)


def connection_at(point: ControlPoint, plane: PlaneId, cutoff: int) -> ConnectionSample:
    """Exact connection components along the two plane directions."""
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)
    a_u, a_v = factory.connection(u, v)
    defect = max(
        float(np.linalg.norm(a_u + a_u.conj().T)), float(np.linalg.norm(a_v + a_v.conj().T))
    )
    return ConnectionSample(point=(u, v), A_u=a_u, A_v=a_v, antihermitian_defect=defect)


def curvature_at(point: ControlPoint, plane: PlaneId, cutoff: int) -> CurvatureSample:
    """Exact curvature F = dA + A ^ A at one plane point.

    The returned coefficient w satisfies V F V^dag ~= i * w * G_plane in the
    calibrated basis, so the loop holonomy exp(-i * G * sigma) corresponds to
    sigma = integral of w over the enclosed region.
    """
    u, v = plane_coordinates(point, plane)
    factory = frame_factory(plane, cutoff)
    _warn_on_frame_truncation(factory.frame(u, v), cutoff, plane)
    f_uv = factory.curvature(u, v)
    gen = gates.PLANE_GENERATOR[plane].matrix
    calibrated = calibrated_code_matrix(plane, f_uv)
    norm_sq = float(np.real(np.trace(gen @ gen)))
    coefficient = float(np.real(-1j * np.trace(gen.conj().T @ calibrated)) / norm_sq)
    residual = float(np.linalg.norm(calibrated - 1j * coefficient * gen))
    return CurvatureSample(
        point=(u, v), matrix=f_uv, coefficient=coefficient, residual=residual
    )


def polar_unitary(mat: np.ndarray) -> np.ndarray:
    """Closest unitary to `mat` (the unitary factor of its polar decomposition)."""
    u, _, vh = np.linalg.svd(mat)
    return u @ vh


def _magnus_step(x1, x2):
    """(p, q) of exp(Omega), the fourth-order Magnus step of B_j = [[0, x_j], [-conj x_j, 0]].

    Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2] = [[i g, a], [-conj a, -i g]]
    with a = (x1 + x2)/2 and g = -(sqrt(3)/6) Im(conj(x1) x2).  It squares to
    -theta^2, theta = sqrt(g^2 + |a|^2), so exp(Omega) = cos theta + sinc theta * Omega.
    x1 = x2 = x gives the exact exp(B).  Broadcasts over arrays of steps.
    """
    alpha = 0.5 * (x1 + x2)
    gamma = -_MAGNUS_COMMUTATOR * np.imag(np.conj(x1) * x2)
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


def _run_transport(factory: FrameFactory, run: loops_mod.EdgeRun):
    """Transport along one boundary edge, as (p, q) on the code pair and on the rest.

    With t in [0, 1] along the run, dU/dt = X(t) U for
    X = -(d_outer * A_o(i(t)) + d_inner * A_i).  On the pair X is
    [[0, x], [-conj x, 0]] with x = -d_outer * a(i(t)); on the rest it is the
    constant x = -d_inner * rest_entry, which is exponentiated exactly.  With
    real controls (or on an axis-aligned run) x(t) is a real multiple of one
    generator, so the run is exactly exp of its integral, x = -d_outer times
    the mean of a over [inner0, inner1]: with a(i) = sum(outer * exp(i Omega i)),
    Omega = weight.imag, that is the entry at the midpoint with `outer` scaled
    by sinc(Omega d_inner / 2).  d_inner = 0 gives a(inner0) itself.  A tilted
    run on plane II takes `count` fourth-order Magnus steps on the pair, each
    from x at the two Gauss-Legendre nodes of its sub-interval.
    """
    outer0, inner0 = factory.split(*run.start)
    outer1, inner1 = factory.split(*run.end)
    d_outer, d_inner = outer1 - outer0, inner1 - inner0
    x = -d_inner * factory.rest_entry
    rest = _magnus_step(x, x)
    if run.axis_aligned or factory.real_controls:
        x = 0.0
        if d_outer:
            # mean of exp(i Omega i) over [inner0, inner1]: the midpoint phase times a sinc
            pair = factory.pair
            middle = pair.outer * np.sinc(pair.weight.imag * (d_inner / (2.0 * math.pi)))
            x = -d_outer * factory.pair_entries(middle, inner0 + 0.5 * d_inner)[0]
        return _magnus_step(x, x), rest
    transport = (1.0, 0.0)
    outer, step, scale = factory.pair.outer, d_inner / run.count, -d_outer / run.count
    for start in range(0, run.count, MAGNUS_BATCH):
        size = min(MAGNUS_BATCH, run.count - start)
        x1, x2 = (
            scale * factory.pair_entries(outer, inner0 + step * (start + node), step, size)
            for node in _GAUSS_NODES
        )
        transport = _compose(_tree_product(*_magnus_step(x1, x2)), transport)
    return transport, rest


def _transport(factory: FrameFactory, runs: list[loops_mod.EdgeRun]) -> np.ndarray:
    pair = rest = (1.0, 0.0)
    for run in runs:
        edge_pair, edge_rest = _run_transport(factory, run)
        pair, rest = _compose(edge_pair, pair), _compose(edge_rest, rest)
    holonomy = np.zeros((factory.code_dim, factory.code_dim), dtype=complex)
    for columns, (p, q) in ((factory.pair_columns, pair), (factory.rest, rest)):
        if columns.size:
            holonomy[np.ix_(columns, columns)] = [[p, q], [-np.conj(q), np.conj(p)]]
    return holonomy


def holonomy_path_ordered(loop: LoopSpec, cutoff: int, steps: int) -> gates.GateMatrix:
    """Path-ordered holonomy of the exact Wilczek-Zee connection around the loop.

    The boundary is split into `steps` sub-intervals by edge length
    (loops.boundary_runs); that split and the one at steps/2 are validated
    before any frame is built.  On planes I and III every edge is one exact
    exponential of the line integral of the (abelian) pair connection, so
    `steps` is only validated there.  On plane II an axis-aligned edge is one
    exact exponential and a tilted edge takes one fourth-order Magnus step per
    sub-interval.  diagnostics["integrator"] is "magnus4" when some edge takes
    Magnus steps (a tilted plane II edge) and "exact_edge" otherwise.  Only
    then is the same transport run at steps/2, and the distance to it is the
    convergence estimate; it is 0.0 when every edge is exact.  The result
    lives in the raw dressed-frame basis; use calibrated_code_matrix() to
    compare with the area-formula gates.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    runs = loops_mod.boundary_runs(loop, steps)
    coarse_runs = loops_mod.boundary_runs(loop, max(steps // 2, 4))
    check_loop_truncation(loop, cutoff)
    factory = frame_factory(loop.plane, cutoff)
    holonomy = _transport(factory, runs)
    stepped = not factory.real_controls and not all(run.axis_aligned for run in runs)
    convergence = 0.0
    if stepped:
        convergence = float(np.linalg.norm(holonomy - _transport(factory, coarse_runs)))
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
