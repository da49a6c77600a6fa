import math

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st
from scipy.linalg import expm

from hologate import connection, fock, gates, kicked, loops
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

SMALL_RECTS = {
    PlaneId.I: connection.CALIBRATION_RECT,
    PlaneId.II: LoopSpec(PlaneId.II, Rect(0.0, 0.1, 0.0, 0.1)),
    PlaneId.III: LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
}

ORACLE_CUTOFF = {PlaneId.I: 60, PlaneId.II: 60, PlaneId.III: 14}


def rect_sigma_closed_form(plane: PlaneId, rect: Rect) -> float:
    """Counterclockwise weighted area of a rectangle, integrated by hand.

    sigma_I/II = (u1 - u0) * (exp(-2 v0) - exp(-2 v1)) and
    sigma_III = (v1 - v0) * (cosh(2 u1) - cosh(2 u0)).
    """
    if plane is PlaneId.III:
        return (rect.v_max - rect.v_min) * (
            math.cosh(2.0 * rect.u_max) - math.cosh(2.0 * rect.u_min)
        )
    return (rect.u_max - rect.u_min) * (
        math.exp(-2.0 * rect.v_min) - math.exp(-2.0 * rect.v_max)
    )


def in_fock(block, rows, factory):
    """A control block's (rows, columns) as Fock rows: B rows, B the block's rows as Fock columns.

    On plane III a row |a, b> of a block stands for
    (|a, b> + i^(a - b) |b, a>)/sqrt 2, or for |n, n> alone
    (fock.swap_symmetric_half); on one mode each row is its own Fock state.
    The coefficients i^(a - b) are complex on the odd block.  B itself is
    in_fock(block, identity, factory).
    """
    cutoff, index = factory.cutoff, block.index
    columns = np.arange(index.size)
    basis = np.zeros((cutoff**factory.mode_count, index.size), dtype=complex)
    a, b = np.divmod(index, cutoff) if factory.mode_count == 2 else (index, index)
    pair = a != b
    basis[index, columns] = np.where(pair, math.sqrt(0.5), 1.0)
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])[(a - b) % 4]
    basis[(b * cutoff + a)[pair], columns[pair]] = phases[pair] * math.sqrt(0.5)
    return basis @ rows


def frame(factory, u, v):
    """The dressed code basis O(o) I(i) c at plane point (u, v), from the kicked part's blocks.

    The reference frame: ControlBlock.frames at that one point, block by
    block, on the code columns (times the block's mix), each block's rows
    mapped back to the Fock basis (in_fock).  A block with a conjugate twin
    (plane III's odd block) adds the twin's part, conj(B) conj(rows): the
    twin's outer propagator is conj(O), and I and the code row are real.
    """
    outer, inner = factory.split(np.array([u], dtype=float), np.array([v], dtype=float))
    cols = np.zeros((factory.cutoff**factory.mode_count, factory.code_dim), dtype=complex)
    for block in factory.blocks:
        left = block.vectors @ block.outer_vectors
        rows = in_fock(block, block.frames(outer, inner, left)[:, 0] @ block.mix, factory)
        cols[:, block.columns] = rows + rows.conj() if len(block.signs) > 1 else rows
    return cols


def stepped_product(factory, points, gauge=None):
    """Ordered product of re-unitarized frame overlaps, one per step along `points`.

    The independent reference for the transport: each step multiplies the
    unitary polar factor of F(p_{k+1})^dag F(p_k) on the left, and it
    converges onto the path-ordered exponential as 1/steps^2.  `gauge(u, v)`
    multiplies the frame columns by phases.
    """

    def frame_at(p):
        cols = frame(factory, p[0], p[1])
        return cols if gauge is None else cols * np.asarray(gauge(p[0], p[1]))[None, :]

    holonomy = np.eye(factory.code_dim, dtype=complex)
    prev = frame_at(points[0])
    for p in points[1:]:
        cur = frame_at(p)
        u, _, vh = np.linalg.svd(cur.conj().T @ prev)
        holonomy = (u @ vh) @ holonomy
        prev = cur
    return holonomy


def boundary_points(loop, steps):
    """(steps+1, 2) points along the boundary, closed: the equal steps of each boundary run."""
    runs = loops.boundary_runs(loop, steps)
    points = [
        run.start + np.linspace(0.0, 1.0, run.count, endpoint=False)[:, None] * (run.end - run.start)
        for run in runs
    ]
    return np.concatenate(points + [runs[-1].end[None, :]])


def stepped_holonomy(loop, cutoff, steps, gauge=None):
    """The stepped reference around a loop, at boundary_points."""
    factory = connection.frame_factory(loop.plane, cutoff)
    return stepped_product(factory, boundary_points(loop, steps), gauge)


def expm_skew_hermitian(generators):
    """exp(X) for a stack (..., n, n) of skew-Hermitian X, through one stacked eigh.

    Built as I + V (exp(-iw) - 1) V^dag, with exp(-iw) - 1 = -2 sin^2(w/2) - i sin w,
    so a near-identity exponential carries rounding relative to |X|, not to 1.
    """
    w, v = np.linalg.eigh(1j * generators)
    shift = -2.0 * np.sin(0.5 * w) ** 2 - 1j * np.sin(w)
    return np.eye(w.shape[-1]) + (v * shift[..., None, :]) @ v.conj().swapaxes(-1, -2)


def ordered_product(mats):
    """mats[-1] @ ... @ mats[0] for a (n, d, d) stack, by pairwise halving."""
    while len(mats) > 1:
        paired = mats[1::2] @ mats[0 : len(mats) - 1 : 2]
        mats = np.concatenate([paired, mats[-1:]]) if len(mats) % 2 else paired
    return mats[0]


def matrix_magnus_transport(loop, cutoff, steps):
    """The transport as a generic code_dim x code_dim matrix ODE.

    The reference for connection.holonomy_path_ordered's closed-form SU(2)
    algebra: X = -(d_outer A_o + d_inner A_i) as full matrices, one eigh
    exponential per axis-aligned edge, and on a tilted edge one fourth-order
    Magnus step Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2], B = X / count, per
    sub-interval, each exponentiated by eigh and multiplied in order.  On
    planes I and III the transport takes every edge as one exponential of the
    closed-form line integral of a(i), so there this stepped reference checks
    it from the outside, to within the Magnus error at `steps`.
    """
    factory = connection.frame_factory(loop.plane, cutoff)
    holonomy = np.eye(factory.code_dim, dtype=complex)
    for run in loops.boundary_runs(loop, steps):
        (o0, i0), (o1, i1) = factory.split(*run.start), factory.split(*run.end)
        d_outer, d_inner = o1 - o0, i1 - i0
        if run.axis_aligned:
            x = -(d_outer * factory.outer_connection(i0)[0] + d_inner * factory.inner_connection)
            holonomy = expm_skew_hermitian(x) @ holonomy
            continue
        b1, b2 = (
            -(d_outer * factory.outer_connection(i0 + d_inner * node / run.count,
                                                 d_inner / run.count, run.count)
              + d_inner * factory.inner_connection) / run.count
            for node in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
        )
        omega = 0.5 * (b1 + b2) - math.sqrt(3.0) / 12.0 * (b1 @ b2 - b2 @ b1)
        holonomy = ordered_product(expm_skew_hermitian(omega)) @ holonomy
    return holonomy


def exact_edge(factory, run):
    """One run as one exponential of its closed-form integral, run by run, as (pair, rest) (p, q).

    The reference for connection._exact_edges, which takes all runs in one
    pass: one pair_entries call at the run's midpoint with `outer` scaled by
    sinc(Omega d_inner / 2), and no call when d_outer = 0.
    """
    (outer0, inner0), (outer1, inner1) = factory.split(*run.start), factory.split(*run.end)
    d_outer, d_inner = outer1 - outer0, inner1 - inner0
    x = -d_inner * factory.rest_entry
    rest = connection._magnus_step(x, x)
    x = 0.0
    if d_outer:
        pair = factory.pair
        middle = pair.outer * np.sinc(pair.weight.imag * (d_inner / (2.0 * math.pi)))
        x = -d_outer * factory.pair_entries(middle, inner0 + 0.5 * d_inner)[0]
    return connection._magnus_step(x, x), rest


def per_edge_transport(factory, runs):
    """The transport taken edge by edge: the reference for connection._transport.

    Exact edges come from exact_edge, and a tilted plane II edge from its
    Magnus steps (connection._run_transport); each edge multiplies on as it
    comes.
    """
    pair = rest = (1.0, 0.0)
    for run in runs:
        edge_pair, edge_rest = exact_edge(factory, run)
        if connection._stepped(factory, run):
            edge_pair = connection._run_transport(factory, run)
        pair = connection._compose(edge_pair, pair)
        rest = connection._compose(edge_rest, rest)
    holonomy = np.zeros((factory.code_dim, factory.code_dim), dtype=complex)
    for columns, (p, q) in ((factory.pair_columns, pair), (factory.rest, rest)):
        if columns.size:
            holonomy[np.ix_(columns, columns)] = [[p, q], [-np.conj(q), np.conj(p)]]
    return holonomy


def norm_split_counts(loop, steps):
    """boundary_runs' step counts with each edge length from np.linalg.norm, edge by edge.

    The reference for loops.boundary_runs, which takes every length at once as
    np.hypot of the vertex differences: the split by length, then the
    remainder to the edges with the longest steps.
    """
    verts = loops.boundary_vertices(loop)
    n = len(verts)
    lengths = np.array([np.linalg.norm(verts[(i + 1) % n] - verts[i]) for i in range(n)])
    total = float(np.sum(lengths))
    if total == 0.0:
        return [steps]
    counts = np.maximum(1, np.floor(steps * lengths / total).astype(int))
    while int(np.sum(counts)) < steps:
        counts[int(np.argmax(lengths / counts))] += 1
    while int(np.sum(counts)) > steps:
        reducible = np.where(counts > 1)[0]
        counts[reducible[int(np.argmin((lengths / counts)[reducible]))]] -= 1
    return counts.tolist()


def curvature_coefficient(plane, f_uv):
    """(w, residual) of a curvature F_uv, with V F V^dag = i w G_plane + residual (calibrated basis).

    The loop holonomy exp(-i G sigma) then has sigma = the integral of w over
    the enclosed region, so w is the plane weight; residual is the norm of
    what is left beside the generator.
    """
    gen = gates.PLANE_GENERATOR[plane].matrix
    calibrated = connection.calibrated_code_matrix(plane, f_uv)
    norm_sq = float(np.real(np.trace(gen @ gen)))
    coefficient = float(np.real(-1j * np.trace(gen.conj().T @ calibrated)) / norm_sq)
    residual = float(np.linalg.norm(calibrated - 1j * coefficient * gen))
    return coefficient, residual


def top_quartile_population(cols, cutoff, mode_count):
    """Worst population over the columns of cols on states with a mode at level >= 3 cutoff / 4."""
    top = np.arange(cutoff) >= (3 * cutoff) // 4
    if mode_count == 2:
        top = np.logical_or.outer(top, top).reshape(-1)  # index n1 * cutoff + n2
    return float(np.max(np.sum(np.abs(cols[top, :]) ** 2, axis=0)))


def corner_populations(loop, cutoff):
    """The truncation check corner by corner, warning as it goes; returns the populations.

    The reference for connection.check_loop_truncation, which forms only the
    top-quartile rows of the frames, at every corner at once: here each
    corner takes one full frame (frame, above) and its worst
    top-quartile population over the code columns.
    """
    factory = connection.frame_factory(loop.plane, cutoff)
    mode_count = 2 if loop.plane is PlaneId.III else 1
    populations = []
    for u, v in loops.boundary_vertices(loop):
        population = top_quartile_population(frame(factory, u, v), cutoff, mode_count)
        fock.warn_if_truncated(population, f"dressed frame on plane {loop.plane.value}")
        populations.append(population)
    return populations


def chain_tail_populations(loop, cutoff):
    """The transport's truncation check corner by corner, warning as it goes; the populations.

    The reference for FrameFactory.chain_tail_populations: at each corner the
    inner propagator exp(i G_i), from scipy expm of the dense generator, on
    the code columns, and its worst top-quartile population over them.
    """
    _, inner, code = plane_generators(loop.plane, cutoff)
    factory = connection.frame_factory(loop.plane, cutoff)
    mode_count = 2 if loop.plane is PlaneId.III else 1
    populations = []
    for u, v in loops.boundary_vertices(loop):
        _, i = factory.split(u, v)
        population = top_quartile_population(expm(i * inner) @ code, cutoff, mode_count)
        fock.warn_if_truncated(population, f"squeezed code on plane {loop.plane.value}")
        populations.append(population)
    return populations


def binary_power(kick, count, state):
    """kick^count @ state by plain binary powering, squaring up to the count's top bit.

    The reference for kicked._power_apply, which stops squaring early.
    """
    while True:
        if count & 1:
            state = kick @ state
        count >>= 1
        if not count:
            return state
        kick = kick @ kick


def dense_sectors(stack, block):
    """A block's matrix in its paired basis Q from its sector stack (kicked.sector_dwells).

    Each sector's block, unpadded, lands on that sector's columns of Q
    (ControlBlock.sector_columns, padded with the block size), and the
    matrix is exactly zero between sectors.
    """
    size = block.index.size
    dense = np.zeros((size, size), dtype=complex)
    for part, places in zip(stack, block.sector_columns):
        places = places[places < size]
        dense[np.ix_(places, places)] = part[: places.size, : places.size]
    return dense


def v_outer_kick(block, d_outer):
    """V^dag O(d_outer) V = W exp(-i d_outer w_o) W^dag on a control block."""
    w = block.outer_vectors
    return (w * np.exp(-1j * d_outer * block.outer_values)[None, :]) @ w.conj().T


def v_dwell(block, cutoff, mode_count, chi_delta_t=kicked.CHI_DELTA_T):
    """The Kerr dwell V^dag exp(-i chi dt H_kerr) V on a control block, dense (kerr_dwell)."""
    dwell = np.diag(kerr_dwell(chi_delta_t, cutoff, mode_count))
    return (block.vectors.conj().T * dwell[block.index]) @ block.vectors


def interleaved_real_form(matrix):
    """R(M) with (x.view(float64) @ R(M)).view(complex128) == x @ M: each entry a 2 x 2 block."""
    rows, cols = matrix.shape
    form = np.empty((rows, 2, cols, 2))
    form[:, 0, :, 0] = form[:, 1, :, 1] = matrix.real
    form[:, 0, :, 1] = matrix.imag
    np.negative(matrix.imag, out=form[:, 1, :, 0])
    return form.reshape(2 * rows, 2 * cols)


def v_basis_kicked(schedule, chi_delta_t=kicked.CHI_DELTA_T):
    """The kicked route in the inner eigenbasis V, every matrix dense, as (code map, leakage).

    The reference for the kicked route's paired basis, independent of it:
    each kick is formed in V, where I(i) is the diagonal phase
    exp(-i i w), the outer step is W exp(-i do w_o) W^dag (v_outer_kick)
    and the dwell is dense (v_dwell), at any chi dt.  An axis-aligned
    edge's constant kick is raised to its count by plain binary powering
    (binary_power); a tilted edge's kicks go one by one, the row scalings
    by I's phases around the step, and the step and the dwell through
    interleaved real forms.  A
    block with a conjugate twin runs twice, the twin with its outer kick
    conjugated in the block's Fock coordinates, and its code map sums the
    two halves (kicked._kicks).
    """
    runs = kicked._schedule_runs(schedule)
    factory = connection.frame_factory(schedule.loop.plane, schedule.cutoff)
    dim = schedule.loop.plane.code_dim
    code_map = np.zeros((dim, dim), dtype=complex)
    leakages = []
    for block in factory.blocks:
        # the conjugate twin's outer kick is V^dag conj(V K V^dag) V; its dwell and I are the
        # block's own
        twin = block.vectors.conj().T @ block.vectors.conj()
        kicks = [lambda d: v_outer_kick(block, d),
                 lambda d: twin @ v_outer_kick(block, d).conj() @ twin.conj().T]
        dwell = v_dwell(block, factory.cutoff, factory.mode_count, chi_delta_t)
        states = [v_basis_loop(block, factory, runs, dwell, kick)
                  for kick, _ in zip(kicks, block.signs)]
        mixes = [block.mix, block.mix.conj()][: len(block.signs)]
        code = np.vstack([block.code_eig @ mix for mix in mixes])
        state = np.vstack([part @ mix for part, mix in zip(states, mixes)])
        overlap = code.conj().T @ state
        code_map[np.ix_(block.columns, block.columns)] = connection.polar_unitary(overlap)
        leakages.append(kicked._leakage(state, overlap))
    return code_map, max(leakages)


def v_basis_loop(block, factory, runs, dwell, outer_kick):
    """v_basis_kicked's loop on one block, the outer kick in V from outer_kick(d_outer)."""
    w = block.values
    dwell_re = interleaved_real_form(dwell.T)
    state = block.code_eig
    rows = np.empty(state.T.shape, dtype=complex)
    scaled = np.empty_like(rows)
    rows_re, scaled_re = rows.view(np.float64), scaled.view(np.float64)
    following = np.empty(w.size, dtype=complex)
    for run in runs:
        outer0, inner0 = factory.split(*run.start)
        outer1, inner1 = factory.split(*run.end)
        outer_step = (outer0 - outer1) / run.count
        inner_step = (inner1 - inner0) / run.count
        if run.axis_aligned:
            if outer0 == outer1:
                kick = dwell * np.exp(1j * inner_step * w)[None, :]
            else:
                phase = np.exp(-1j * inner0 * w)[:, None]
                kick = dwell @ (phase.conj() * outer_kick(outer_step) * phase.T)
            state = binary_power(kick, run.count, state)
        else:
            step_re = interleaved_real_form(outer_kick(outer_step).T)
            rows[...] = state.T
            for start in range(0, run.count, connection.MAGNUS_BATCH):
                size = min(connection.MAGNUS_BATCH, run.count - start)
                phases = connection.phase_table(
                    block.values, inner0 + inner_step * start, inner_step, size + 1
                ).T
                for k in range(size):
                    np.multiply(rows, phases[:, k], out=scaled)
                    np.matmul(scaled_re, step_re, out=rows_re)
                    np.conjugate(phases[:, k + 1], out=following)
                    np.multiply(rows, following, out=scaled)
                    np.matmul(scaled_re, dwell_re, out=rows_re)
            state = rows.T.copy()
    return state


def paired_transform(block):
    """T = Q^dag V: a column in the inner eigenbasis V is T^dag times the same column in Q."""
    basis, _ = block.paired_basis
    return basis.conj().T @ block.vectors


def pair_phase(rates, t, size):
    """The phase exp(i rates t) on each pair's y_a + i y_b in Q, as a real size x size matrix.

    The tilted kernel's form of I's rotation Q^dag I(t) Q (ControlBlock.paired_basis).
    """
    turn = np.eye(size)
    a, b = np.arange(0, 2 * rates.size, 2), np.arange(1, 2 * rates.size, 2)
    turn[a, a] = turn[b, b] = np.cos(rates * t)
    turn[b, a] = np.sin(rates * t)
    turn[a, b] = -turn[b, a]
    return turn


def regular_polygon(plane, count, center=(0.2, 0.12), radius=0.05, first=0.0):
    """A counterclockwise regular polygon with `count` edges, its first vertex at angle `first`."""
    angles = first + 2.0 * math.pi * np.arange(count) / count
    verts = zip(center[0] + radius * np.cos(angles), center[1] + radius * np.sin(angles))
    return LoopSpec(plane, Polyline(tuple(verts)))


@st.composite
def convex_polygons(draw, planes=(PlaneId.I, PlaneId.III)):
    """Convex polygons in a small window: angles on a circle around a center.

    No edge is axis-aligned: two vertices at mirrored angles can share a
    coordinate bit for bit, and such a draw is rejected, since the tilted-edge
    tests that draw from here take every edge as tilted.
    """
    plane = draw(st.sampled_from(planes))
    center = (draw(st.floats(0.08, 0.12)), draw(st.floats(0.08, 0.12)))
    radius = draw(st.floats(0.02, 0.07))
    count = draw(st.integers(3, 7))
    gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=count, max_size=count))
    angles = np.cumsum(gaps) * 2.0 * math.pi / sum(gaps)
    verts = tuple(
        (center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)) for a in angles
    )
    ends = zip(verts, verts[1:] + verts[:1])
    assume(all(p[0] != q[0] and p[1] != q[1] for p, q in ends))
    return LoopSpec(plane, Polyline(verts))


@st.composite
def mixed_polygons(draw, planes=tuple(PlaneId)):
    """Convex polygons with one or two axis-aligned edges and the rest tilted.

    A triangle on a horizontal base, its apex strictly between the base's
    ends, or a quadrilateral (0, 0), (a, 0), (a, h), (b, h2) with 0 < b < a
    and h < h2, which adds a vertical edge; both shifted to a small corner.
    """
    plane = draw(st.sampled_from(planes))
    corner = (draw(st.floats(0.0, 0.08)), draw(st.floats(0.0, 0.08)))
    a, h = draw(st.floats(0.04, 0.12)), draw(st.floats(0.04, 0.12))
    b = a * draw(st.floats(0.2, 0.8))
    if draw(st.booleans()):
        verts = ((0.0, 0.0), (a, 0.0), (b, h))
    else:
        verts = ((0.0, 0.0), (a, 0.0), (a, h), (b, h * draw(st.floats(1.2, 1.8))))
    return LoopSpec(plane, Polyline(tuple((corner[0] + u, corner[1] + v) for u, v in verts)))


def squeeze_generator(mu, cutoff):
    """Dense mu (a^dag)^2 - conj(mu) a^2 (no 1/2 factor): the squeeze's inner generator."""
    a = fock.annihilator(cutoff)
    adag = a.conj().T
    return mu * (adag @ adag) - np.conj(mu) * (a @ a)


def two_mode_squeeze_generator(zeta, cutoff):
    """Dense zeta a1^dag a2^dag - conj(zeta) a1 a2, as Kronecker products; keeps n1 - n2."""
    a = fock.annihilator(cutoff)
    adag = a.conj().T
    return zeta * np.kron(adag, adag) - np.conj(zeta) * np.kron(a, a)


def plane_generators(plane, cutoff):
    """Dense (G_o, G_i, code columns) of a plane: the references for fock's chains."""
    if plane is PlaneId.III:
        return (
            fock.two_mode_mix_generator(1.0, cutoff),
            two_mode_squeeze_generator(1.0, cutoff),
            fock.code_states(cutoff, mode_count=2),
        )
    phase = 1.0 if plane is PlaneId.I else 1.0j
    return (
        fock.displacement_generator(1.0, cutoff),
        squeeze_generator(phase, cutoff),
        fock.code_states(cutoff),
    )


def chain_matrix(lower):
    """A chain's dense G_i from its entries below the diagonal (fock.inner_sectors): -conj above."""
    below = np.diag(lower, -1)
    return below - below.conj().T


def chain_eigh(lower):
    """(w, V): the eigenpairs of i G_i on a chain from one dense complex eigh, the reference
    for connection._sector's real SVD."""
    return np.linalg.eigh(1j * chain_matrix(lower))


def component_blocks(pattern, cols):
    """Basis indices of the connected components of a nonzero pattern that the columns touch.

    The pattern is read as an undirected graph.  Every index starts as its
    own label and repeatedly takes the lowest label among its links, until no
    label changes: then each component carries its lowest index.  Ordered by
    their first index that a column touches.
    """
    rows, links = np.nonzero(pattern | pattern.T)
    labels = np.arange(pattern.shape[0])
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[links])
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    blocks = {}
    for seed in np.nonzero(np.any(cols != 0, axis=1))[0]:
        if labels[seed] not in blocks:
            blocks[labels[seed]] = np.nonzero(labels == labels[seed])[0]
    return list(blocks.values())


def component_layout(plane, cutoff):
    """The sector layout found by component search in the dense generators.

    The reference for fock.inner_sectors: the blocks are the components of
    the pattern of G_i | G_o that hold code states, and each block's sectors
    are the components of G_i's pattern on it, by lowest index.  Returns the
    sectors' Fock indices per block, and the dense G_i.
    """
    outer, inner, code = plane_generators(plane, cutoff)
    layout = []
    for block in component_blocks((inner != 0) | (outer != 0), code):
        linked = inner[np.ix_(block, block)] != 0
        layout.append([block[part] for part in component_blocks(linked, np.ones((block.size, 1)))])
    return layout, inner


def calibrate(cutoff=40, steps=800):
    """Re-derive the frozen frame calibration from small-rectangle holonomies.

    Searches constant diagonal phase gauges (and, for plane III, the swap of
    the last two code labels) together with a global sign, and returns the
    combination that reproduces the area-formula gates, to be compared with
    connection.CALIBRATION_GAUGE and CALIBRATION_SIGN.
    """
    single_candidates = [np.diag([1.0, 1.0j**k]).astype(complex) for k in range(4)]
    swap = np.eye(4, dtype=complex)[[0, 1, 3, 2]]  # the last two code labels swapped
    two_candidates = [np.eye(4, dtype=complex), swap] + [
        m @ np.diag([1.0, 1.0j**k, 1.0, 1.0]).astype(complex)
        for m in (np.eye(4, dtype=complex), swap)
        for k in range(1, 4)
    ]
    result = {"sign": None, "gauges": {}, "distances": {}}
    for plane, loop in SMALL_RECTS.items():
        plane_cutoff = 14 if plane is PlaneId.III else cutoff
        raw = connection.holonomy_path_ordered(loop, plane_cutoff, steps).matrix
        sigma = loops.area(loop).sigma
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


def formula_gate_in_frame(loop):
    """The area-formula gate in the raw dressed-frame basis."""
    v = connection.CALIBRATION_GAUGE[loop.plane]
    return v.conj().T @ gates.gate_for_loop(loop).matrix @ v


def infidelity(code_map, prediction):
    """1 - |tr(M^dag P)| / dim: how far a code map M is from a predicted gate P."""
    dim = code_map.shape[0]
    return 1.0 - float(np.abs(np.trace(code_map.conj().T @ prediction)) / dim)


def kerr_hamiltonian(chi, cutoff, mode_count=1):
    """Dense Kerr Hamiltonian chi n(n - 1) per mode, in product-basis order.

    There is no cross term between the modes: the four states |00>, |01>,
    |10>, |11> stay exactly degenerate at eigenvalue 0.
    """
    n = np.arange(cutoff, dtype=float)
    single = np.diag(chi * n * (n - 1.0))
    if mode_count == 1:
        return single
    eye = np.eye(cutoff)
    return np.kron(single, eye) + np.kron(eye, single)


def kerr_dwell(chi_delta_t, cutoff, mode_count=1):
    """The Kerr dwell expm(-i chi dt H_kerr), H_kerr = n(n - 1) per mode, dense, at any chi dt.

    The references' dwell: the kicked route runs only chi dt = pi/2
    (kicked.CHI_DELTA_T), whose diagonal is the sign fock.echo_dwell.
    """
    return expm(-1j * chi_delta_t * kerr_hamiltonian(1.0, cutoff, mode_count))


def stepped_kicks(loop, cutoff, kick_count, chi_delta_t=kicked.CHI_DELTA_T):
    """The kicked route kick by kick, from scipy expm of the dense generators.

    The independent reference for kicked.run_kicked: each kick applies the
    dense control C = exp(o G_o) exp(i G_i) of the previous kick point, then
    C^dag of the next one, then the Kerr dwell expm(-i chi dt H_kerr)
    (kerr_dwell), at the echo dwell's chi dt unless `chi_delta_t` says
    otherwise.  Along an edge the controls at the kick points are
    exp(o_0 G) exp(do G)^k.  Returns the re-unitarized code map and the
    leakage, the worst population outside the code space: per code column
    |state|^2 - |overlap|^2, so the norm drift of the dense products cancels.
    """
    outer, inner, code = plane_generators(loop.plane, cutoff)
    mode_count = 2 if loop.plane is PlaneId.III else 1
    dwell = kerr_dwell(chi_delta_t, cutoff, mode_count)
    state = code
    for run in loops.boundary_runs(loop, kick_count):
        # (outer, inner) control values at the two ends of the edge
        ends = [p[::-1] if loop.plane is PlaneId.III else p for p in (run.start, run.end)]
        (o0, i0), (o1, i1) = ends
        outer_k, inner_k = expm(o0 * outer), expm(i0 * inner)
        outer_step = expm((o1 - o0) / run.count * outer)
        inner_step = expm((i1 - i0) / run.count * inner)
        for _ in range(run.count):
            state = outer_k @ (inner_k @ state)
            outer_k, inner_k = outer_k @ outer_step, inner_k @ inner_step
            state = dwell @ (inner_k.conj().T @ (outer_k.conj().T @ state))
    overlap = code.conj().T @ state
    outside = np.sum(np.abs(state) ** 2, axis=0) - np.sum(np.abs(overlap) ** 2, axis=0)
    leakage = float(np.max(outside))
    return connection.polar_unitary(overlap), leakage


@pytest.fixture(scope="session")
def stepped_sweeps():
    """Stepped-reference holonomies of the small rectangles at doubling step counts."""
    return {
        plane: {
            steps: stepped_holonomy(loop, ORACLE_CUTOFF[plane], steps)
            for steps in (250, 500, 1000, 2000)
        }
        for plane, loop in SMALL_RECTS.items()
    }


@pytest.fixture(scope="session")
def kicked_sweep():
    """Kicked runs of the calibration rectangle at doubling kick counts, cutoff 40."""
    return {
        k: kicked.run_kicked(kicked.KickSchedule(connection.CALIBRATION_RECT, k, cutoff=40))
        for k in (256, 512, 1024)
    }


@pytest.fixture(scope="session")
def connection_oracle_cutoff40():
    return connection.holonomy_path_ordered(connection.CALIBRATION_RECT, 40, 2000)
