import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from hologate import compiler, connection, fock, gates, kicked, loops
from hologate.connection import (
    CALIBRATION_GAUGE,
    CALIBRATION_RECT,
    CALIBRATION_SIGN,
    frame_factory,
)
from hologate.exceptions import TruncationWarning
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import (
    ORACLE_CUTOFF,
    SMALL_RECTS,
    boundary_points,
    calibrate,
    chain_eigh,
    chain_matrix,
    chain_tail_populations,
    convex_polygons,
    corner_populations,
    curvature_coefficient,
    dense_sectors,
    frame,
    in_fock,
    kerr_hamiltonian,
    matrix_magnus_transport,
    paired_transform,
    per_edge_transport,
    plane_generators,
    regular_polygon,
    stepped_holonomy,
    stepped_product,
    v_outer_kick,
)

J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)  # e^{-2r} J is A_u on plane I


def central_difference_connection(plane, cutoff, u, v, h):
    """Test-side (A_u, A_v): F^dag times central differences of frame()."""
    factory = frame_factory(plane, cutoff)
    center = frame(factory, u, v).conj().T
    a_u = center @ (frame(factory, u + h, v) - frame(factory, u - h, v)) / (2.0 * h)
    a_v = center @ (frame(factory, u, v + h) - frame(factory, u, v - h)) / (2.0 * h)
    return a_u, a_v


def antihermitian_defect(connection_pair):
    """The larger of |A_u + A_u^dag| and |A_v + A_v^dag|: the rounding left in exact components."""
    return max(float(np.linalg.norm(a + a.conj().T)) for a in connection_pair)


def test_dressed_frame_at_origin_is_bare_basis():
    cols = frame(frame_factory(PlaneId.I, 30), 0.0, 0.0)
    assert np.allclose(cols, fock.code_states(30), atol=1e-14)


def test_dressed_frame_orthonormality():
    cols = frame(frame_factory(PlaneId.I, 60), 0.3, 0.2)
    assert np.linalg.norm(cols.conj().T @ cols - np.eye(2)) < 1e-8


def test_dressed_frame_two_mode_origin_order():
    cols = frame(frame_factory(PlaneId.III, 6), 0.0, 0.0)
    assert np.allclose(cols, fock.code_states(6, mode_count=2), atol=1e-14)


def test_connection_squeeze_direction_component_vanishes():
    # the code projection of the frame variation along r1 is exactly zero on
    # planes I/II, so the estimated component must sit at finite-difference noise
    for plane in (PlaneId.I, PlaneId.II):
        _, a_v = frame_factory(plane, 60).connection(0.2, 0.15)
        assert np.linalg.norm(a_v) < 1e-8


def test_connection_antihermitian_defect_small():
    assert antihermitian_defect(frame_factory(PlaneId.I, 60).connection(0.3, 0.2)) < 1e-6


def test_connection_central_difference_order():
    exact, _ = frame_factory(PlaneId.I, 60).connection(0.25, 0.3)
    errors = [
        np.linalg.norm(central_difference_connection(PlaneId.I, 60, 0.25, 0.3, h)[0] - exact)
        for h in (2e-3, 1e-3, 5e-4)
    ]
    # central differences converge onto the exact connection at second order
    assert 2.5 < errors[0] / errors[1] < 5.5
    assert 2.5 < errors[1] / errors[2] < 5.5


@pytest.mark.parametrize("r", [0.0, 0.15, 0.3])
def test_exact_connection_plane1_closed_form(r):
    a_u, a_v = frame_factory(PlaneId.I, 60).connection(0.2, r)
    assert np.max(np.abs(a_u - math.exp(-2.0 * r) * J)) < 1e-12
    assert np.max(np.abs(a_v)) == 0.0


def test_exact_connection_plane2_closed_form():
    # A_u(r1) = -i (cosh 2r1 sigma_y + sinh 2r1 sigma_x) in the raw frame basis
    a_u, a_v = frame_factory(PlaneId.II, 80).connection(0.1, 0.3)
    off_diagonal = -(math.cosh(0.6) + 1j * math.sinh(0.6))
    assert off_diagonal == pytest.approx(-1.185465 - 0.636654j, abs=1e-6)
    expected = np.array([[0.0, off_diagonal], [-np.conj(off_diagonal), 0.0]])
    assert np.max(np.abs(a_u - expected)) < 1e-12
    assert np.max(np.abs(a_v)) == 0.0


@pytest.mark.parametrize("u", [0.0, 0.2, 0.35])
def test_exact_connection_plane3_closed_form(u):
    # code order |00>, |10>, |11>, |01>: the mix couples |10> <-> |01> with cosh 2u
    # and the two-mode squeeze couples |00> <-> |11> only
    a_u, a_v = frame_factory(PlaneId.III, 20).connection(u, 0.1)
    expected_v = np.zeros((4, 4), dtype=complex)
    expected_v[1, 3] = math.cosh(2.0 * u)
    expected_v[3, 1] = -math.cosh(2.0 * u)
    assert np.max(np.abs(a_v - expected_v)) < 1e-12
    expected_u = np.zeros((4, 4), dtype=complex)
    expected_u[0, 2], expected_u[2, 0] = -1.0, 1.0
    assert np.max(np.abs(a_u - expected_u)) == 0.0


@pytest.mark.parametrize(
    "plane,cutoff,u,v",
    [(PlaneId.I, 60, 0.25, 0.3), (PlaneId.II, 60, -0.1, 0.2), (PlaneId.III, 14, 0.2, 0.15)],
)
def test_exact_connection_matches_central_differences(plane, cutoff, u, v):
    a_u, a_v = frame_factory(plane, cutoff).connection(u, v)
    fd_u, fd_v = central_difference_connection(plane, cutoff, u, v, 1e-5)
    assert np.max(np.abs(a_u - fd_u)) < 1e-8
    assert np.max(np.abs(a_v - fd_v)) < 1e-8


@pytest.mark.parametrize(
    "u,v,expected",
    [(0.0, 0.0, 2.0), (0.0, 0.5, 2.0 * math.exp(-1.0)), (0.3, 0.2, 2.0 * math.exp(-0.4))],
)
def test_curvature_matches_plane1_weight(u, v, expected):
    coefficient, residual = curvature_coefficient(
        PlaneId.I, frame_factory(PlaneId.I, 60).curvature(u, v)
    )
    assert abs(abs(coefficient) - expected) < 5e-2
    assert coefficient == pytest.approx(expected, abs=5e-2)
    # the curvature is a multiple of the plane generator: nothing is left beside it
    assert residual < 1e-12


def test_curvature_plane3_zero_at_origin_edge():
    f_uv = frame_factory(PlaneId.III, 14).curvature(0.0, 0.1)
    coefficient, _ = curvature_coefficient(PlaneId.III, f_uv)
    assert abs(coefficient) < 5e-2


def test_curvature_plane2_origin():
    f_uv = frame_factory(PlaneId.II, 60).curvature(0.0, 0.0)
    coefficient, _ = curvature_coefficient(PlaneId.II, f_uv)
    assert coefficient == pytest.approx(2.0, abs=5e-2)


def inner_generator(cutoff):
    """The dense two-mode squeeze generator of plane III (conftest.plane_generators)."""
    return plane_generators(PlaneId.III, cutoff)[1]


def swap_symmetry(cutoff):
    """Dense U = P i^(n1 - n2), P the swap of the two modes: U|a, b> = i^(a - b) |b, a>."""
    first, second = np.divmod(np.arange(cutoff * cutoff), cutoff)
    u = np.zeros((cutoff * cutoff,) * 2, dtype=complex)
    u[second * cutoff + first, np.arange(cutoff * cutoff)] = 1j ** (first - second)
    return u


@pytest.mark.parametrize("cutoff,sizes", [(13, [49, 42]), (14, [56, 49])])
def test_plane3_control_blocks_are_the_two_parity_blocks(monkeypatch, cutoff, sizes):
    # the U = +1 halves of the two parity blocks, by one construction (fock.swap_symmetric_half)
    generators = []
    original = fock.Propagator

    def recorded(generator):
        generators.append(generator)
        return original(generator)

    _, shapes = counted_decompositions(monkeypatch)
    monkeypatch.setattr(fock, "Propagator", recorded)
    factory = connection.FrameFactory(PlaneId.III, cutoff)
    outer, inner, code = plane_generators(PlaneId.III, cutoff)
    kerr = np.diag(kerr_hamiltonian(1.0, cutoff, 2))
    even, odd = factory.blocks
    assert [block.index.size for block in factory.blocks] == sizes
    # one eigh per block, of its G_o, and one half-size SVD per sector of G_i, none of a block
    assert [g.shape[0] for g in generators] == sizes
    chains = {id(s): s for s in factory.chains + even.sectors + odd.sectors}.values()
    assert sorted(shapes) == sorted(half_shape(chain) for chain in chains)
    # U commutes exactly with both control generators and the Kerr dwell, U^2 = 1
    u = swap_symmetry(cutoff)
    for generator in (outer, inner, np.diag(kerr)):
        assert not np.any(u @ generator - generator @ u)
    assert np.array_equal(u @ u, np.eye(cutoff * cutoff))
    dim = cutoff * cutoff
    parity = (np.arange(dim) // cutoff + np.arange(dim) % cutoff) % 2
    for kept, block in enumerate(factory.blocks):
        # each block's basis B is orthonormal, U = +1 on it, and it spans the U = +1 half
        # of its parity block: |n, n> and (|a, b> + i^(a - b) |b, a>)/sqrt 2
        basis = in_fock(block, np.eye(block.index.size), factory)
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(block.index.size))) < 1e-15
        assert not np.any(u @ basis - basis) and not np.any(basis[parity != kept])
        assert block.index.size == (np.count_nonzero(parity == kept) + cutoff * (1 - kept)) // 2
        # its G_o, the one its eigh took, is B^dag G_o B, gathered (a pair's entries there
        # are exact, and the dense product rounds 1/sqrt 2 twice); G_i and the Kerr phases
        # are read at its indices
        [block_outer] = [g for g in generators if g.shape == (block.index.size,) * 2]
        assert np.max(np.abs(block_outer - basis.conj().T @ outer @ basis)) <= 1e-14
        chains = inner[np.ix_(block.index, block.index)]
        assert np.max(np.abs(basis.conj().T @ inner @ basis - chains)) <= 1e-14
        within = basis.conj().T @ np.diag(kerr) @ basis
        assert np.max(np.abs(within - np.diag(kerr[block.index]))) <= 1e-12
        # neither control generator couples the blocks, nor a block to its parity's U = -1 half
        other_states = np.eye(dim)[:, parity != kept]
        other_half = (np.eye(dim) - basis @ basis.conj().T)[:, parity == kept]
        for generator in (outer, inner):
            assert not np.any(basis.conj().T @ generator @ other_states)
            assert np.max(np.abs(basis.conj().T @ generator @ other_half)) < 1e-14
        # the code columns on the block, B^dag c, are its code rows times its mix
        assert np.array_equal(basis.conj().T @ code[:, block.columns], block.code @ block.mix)
    # each code column lies in exactly one block: {|00>, |11>} even, {|10>, |01>} odd
    assert [block.columns.tolist() for block in factory.blocks] == [[0, 2], [1, 3]]
    # the even block is real and holds its code states whole; the odd one holds half of
    # each, on the one row of h = (|01> - i |10>)/sqrt 2, and its G_o is complex
    assert (even.signs, even.real_step, np.array_equal(even.mix, np.eye(2))) == ((1.0,), True, True)
    assert (odd.signs, odd.real_step) == ((1.0, -1.0), False)
    assert np.max(np.abs(odd.mix * math.sqrt(2.0) - [[1j, 1.0]])) <= 1e-15
    [odd_outer] = [g for g in generators if g.shape == (odd.index.size,) * 2]
    assert np.max(np.abs(odd_outer.imag)) > 1.0
    # the odd block's U = -1 half, conj(B), is its conjugate twin: G_o there is conj(G_o)
    # and G_i the same chains, and B and conj(B) together hold the odd code states
    basis = in_fock(odd, np.eye(odd.index.size), factory)
    twin = basis.conj()
    assert not np.any(u @ twin + twin)
    dense = basis.conj().T @ outer @ basis
    assert np.array_equal(twin.conj().T @ outer @ twin, dense.conj())
    assert np.max(np.abs(dense.imag)) == cutoff - 1
    chains = inner[np.ix_(odd.index, odd.index)]
    assert np.max(np.abs(twin.conj().T @ inner @ twin - chains)) <= 1e-14
    halves = basis @ odd.code @ odd.mix + twin @ odd.code @ odd.mix.conj()
    assert np.max(np.abs(halves - code[:, odd.columns])) <= 1e-15


def held_arrays(owner):
    """The arrays an object holds, through its attributes and theirs."""
    for value in vars(owner).values():
        if isinstance(value, np.ndarray):
            yield value
        elif hasattr(value, "__dict__"):
            yield from held_arrays(value)


def test_control_blocks_hold_two_dense_matrices(monkeypatch):
    # each plane III block (56 and 49 states at cutoff 14) keeps its inner
    # eigenvectors V and W = V^dag V_o; everything else it holds is a few columns.
    # A fresh factory: a kicked loop elsewhere would have built the paired basis
    factory = connection.FrameFactory(PlaneId.III, 14)
    monkeypatch.setattr(connection, "frame_factory", lambda plane, cutoff: factory)

    def held(block):
        return list(held_arrays(block)) + [a for pair in vars(block).values()
                                           if isinstance(pair, tuple) for a in pair
                                           if isinstance(a, np.ndarray)]

    assert [block.index.size for block in factory.blocks] == [56, 49]
    for block in factory.blocks:
        block.code_eig  # built on first use; count it too
        size = block.index.size
        arrays = held(block)
        dense = [a for a in arrays if a.shape == (size, size)]
        assert len(dense) == 2
        assert sum(a.nbytes for a in arrays) <= 2 * size**2 * 16 + 8 * size * 16
    # any kicked loop, a rect as much as a tilted one, adds the real Q and the
    # complex X = Q^dag V W, and nothing dense besides
    shapes = [LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)),
             LoopSpec(PlaneId.III, Polyline(((0.0, 0.0), (0.1, 0.02), (0.05, 0.1))))]
    for loop in shapes:
        kicked.run_kicked(kicked.KickSchedule(loop, 128, cutoff=14))
        for block in factory.blocks:
            size = block.index.size
            arrays = held(block)
            dense = [a for a in arrays if a.shape == (size, size)]
            assert len(dense) == 4
            assert sum(a.nbytes for a in arrays) <= 3 * size**2 * 16 + size**2 * 8 + 9 * size * 16


# odd cutoffs leave a zero mode without a partner: plane I's odd parity chain, and
# plane III's even block at cutoff 13 (7 odd sectors)
PAIRED_CASES = [(PlaneId.I, 60), (PlaneId.I, 61), (PlaneId.II, 60), (PlaneId.II, 61),
                (PlaneId.III, 14), (PlaneId.III, 13)]


@pytest.mark.parametrize("plane,cutoff", PAIRED_CASES)
def test_paired_basis_turns_each_pair_and_holds_the_zero_modes(plane, cutoff):
    factory = connection.FrameFactory(plane, cutoff)
    lone = 0
    for block in factory.blocks:
        basis, rates = block.paired_basis
        n = block.index.size
        to_paired = paired_transform(block)
        # real on planes I and III; orthonormal, as V itself is (1.8e-15 by the same product)
        assert np.isrealobj(basis) == factory.real_controls
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(n))) < 1e-14
        assert np.max(np.abs(to_paired.conj().T @ to_paired - np.eye(n))) < 1e-14
        # I(i) in Q, T diag(exp(-i i w)) T^dag, turns each pair by i w and fixes the rest
        pairs = 2 * np.arange(rates.size)
        for inner in (0.3, -0.7):
            turned = to_paired @ (np.exp(-1j * inner * block.values)[:, None] * to_paired.conj().T)
            expected = np.eye(n)
            cos, sin = np.cos(inner * rates), np.sin(inner * rates)
            expected[pairs, pairs] = expected[pairs + 1, pairs + 1] = cos
            expected[pairs, pairs + 1], expected[pairs + 1, pairs] = -sin, sin
            assert np.max(np.abs(turned - expected)) < 1e-13
        # one zero mode per odd sector; they pair at rate 0, and an odd one out comes last
        zeros = sum(sector.index.size % 2 for sector in block.sectors)
        assert rates.size == n // 2
        assert np.count_nonzero(rates == 0.0) == zeros // 2
        assert np.all(rates[: rates.size - zeros // 2] > 0.0)
        lone += n % 2
    # plane III's halves hold 49 states, the even one at cutoff 13 and the odd one at 14
    assert lone == (1 if plane is PlaneId.III else cutoff % 2)


@pytest.mark.parametrize("plane,cutoff", PAIRED_CASES)
def test_outer_step_is_the_outer_propagator_in_the_paired_basis(plane, cutoff):
    factory = connection.FrameFactory(plane, cutoff)
    for block in factory.blocks:
        to_paired = paired_transform(block)
        for d_outer, inner in ((0.013, 0.0), (-0.04, 0.0), (0.013, 0.21), (-0.04, -0.6)):
            # turned by I's rotation at the inner value: I(-inner) O I(inner), in V
            phase = np.exp(-1j * inner * block.values)[:, None]
            turned = phase.conj() * v_outer_kick(block, d_outer) * phase.T
            step = block.outer_step(d_outer, inner)
            reference = to_paired @ turned @ to_paired.conj().T
            # a turned step and its reference both round phases of up to |inner| w ~ 70 rad
            bound = 3e-14 if inner else 1e-14
            assert np.max(np.abs(step - reference)) < bound
            if block.real_step:
                # real and contiguous for the real products, where the complex product
                # leaves rounding in the imaginary part; plane III's odd block has a
                # complex G_o (ControlBlock), and so a complex step
                assert step.dtype == np.float64 and step.flags.c_contiguous
                assert np.max(np.abs(reference.imag)) < bound
            else:
                assert np.max(np.abs(step.imag)) > 1e-3
            # S(-d) = S(d)^dag, a real step's transpose: a rect's two outer edges share one
            # unturned step (kicked._shared_step), turned per edge
            shared = block.turned_step(block.outer_step(d_outer).conj().T, inner)
            assert np.max(np.abs(shared - block.outer_step(-d_outer, inner))) < bound


OVERFLOW_LOOPS = [
    pytest.param(LoopSpec(PlaneId.I, Rect(0.0, 1e200, 0.0, 0.1)), 40, id="plane-I"),
    pytest.param(LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 1e200)), 14, id="plane-III"),
    pytest.param(LoopSpec(PlaneId.II, Polyline(((0.0, 0.0), (1e200, 0.05), (0.0, 0.1)))), 40,
                 id="plane-II-tilted"),
]


@pytest.mark.parametrize("loop,cutoff", OVERFLOW_LOOPS)
def test_overflowing_edges_raise_before_numpy_warns(loop, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", TruncationWarning)
        with pytest.raises(ValueError, match="^transport overflows double precision"):
            connection.holonomy_path_ordered(loop, cutoff, 2000)


SECTOR_CASES = [
    pytest.param(PlaneId.I, 60, [[30, 30]], id="I"),
    pytest.param(PlaneId.II, 60, [[30, 30]], id="II"),
    # n1 - n2 = d holds cutoff - |d| states; even d in the even parity block
    # the even block keeps d >= 0 only, the odd one d < 0 (fock.swap_symmetric_half)
    pytest.param(PlaneId.III, 13, [[13, 11, 9, 7, 5, 3, 1], [12, 10, 8, 6, 4, 2]], id="III-13"),
    pytest.param(PlaneId.III, 14, [[14, 12, 10, 8, 6, 4, 2], [13, 11, 9, 7, 5, 3, 1]], id="III"),
]


@pytest.mark.parametrize("plane,cutoff,sizes", SECTOR_CASES)
def test_control_block_bases_are_direct_sums_of_sector_bases(plane, cutoff, sizes):
    factory = connection.FrameFactory(plane, cutoff)
    _, inner, _ = plane_generators(plane, cutoff)
    for block, block_sizes in zip(factory.blocks, sizes):
        # the sectors, laid out one after another, partition the block
        assert sorted(sector.index.size for sector in block.sectors) == sorted(block_sizes)
        assert np.array_equal(block.index, np.concatenate([s.index for s in block.sectors]))
        lengths = np.array([s.index.size for s in block.sectors])
        ends = np.cumsum(lengths)
        between = np.ones((block.index.size,) * 2, dtype=bool)
        for start, end in zip(ends - lengths, ends):
            between[start:end, start:end] = False
        generator = 1j * inner[np.ix_(block.index, block.index)]
        assert not np.any(generator[between])
        # V is unitary, exactly zero between sectors, and diagonalizes G_i
        v = block.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-14
        assert not np.any(v[between])
        eigen = v.conj().T @ generator @ v
        assert np.max(np.abs(eigen - np.diag(block.values))) < 1e-14 * np.max(np.abs(block.values))
        # sector_columns partitions Q's columns, each sector's own, padded with the block size
        n = block.index.size
        columns = block.sector_columns
        assert columns.shape == (len(block.sectors), max(block_sizes))
        assert sorted(columns[columns < n]) == list(range(n))
        assert [np.count_nonzero(c < n) for c in columns] == lengths.tolist()
        basis, _ = block.paired_basis
        for places, start, end in zip(columns, ends - lengths, ends):
            outside = np.ones(n, dtype=bool)
            outside[start:end] = False
            assert not np.any(basis[np.ix_(outside, places[places < n])])


def counted_decompositions(monkeypatch):
    """(eigh sizes, SVD shapes): what fock.Propagator and np.linalg.svd are asked to decompose."""
    sizes, shapes = [], []
    propagator, svd = fock.Propagator, np.linalg.svd

    def counted_eigh(generator):
        sizes.append(generator.shape[0])
        return propagator(generator)

    def counted_svd(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(fock, "Propagator", counted_eigh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    return sizes, shapes


def half_shape(sector):
    """The shape of a chain's sublattice block: its even places by its odd ones."""
    size = sector.index.size
    return ((size + 1) // 2, size // 2)


@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 60), (PlaneId.II, 60), (PlaneId.III, 14)])
def test_pair_sectors_are_the_blocks_own_with_one_svd_each(monkeypatch, plane, cutoff):
    sizes, shapes = counted_decompositions(monkeypatch)
    factory = connection.FrameFactory(plane, cutoff)
    sectors = [sector for block in factory.blocks for sector in block.sectors]
    assert any(factory.pair.first is sector for sector in sectors)
    # plane III's odd block keeps n1 - n2 = -1 of the pair, and +1 is its image there
    # (fock.swap_symmetric_half)
    pair_held = any(factory.pair.second is sector for sector in sectors)
    assert pair_held == (plane is not PlaneId.III)
    # one real SVD of half its size per sector of G_i, the transport's chains among them,
    # and no eigh of G_i; one eigh of G_o per block: no block-sized decomposition of G_i
    # and no second one of the pair's sectors
    chains = {id(chain): chain for chain in sectors + factory.chains}.values()
    assert sorted(shapes) == sorted(half_shape(chain) for chain in chains)
    assert sorted(sizes) == sorted(block.index.size for block in factory.blocks)


@pytest.mark.parametrize("plane", list(PlaneId))
@pytest.mark.parametrize("cutoff", [12, 13, 16, 17, 20])
def test_chain_svd_gives_the_eigh_spectrum_a_real_q_and_the_rates(plane, cutoff):
    # every sector of G_i, from one real SVD of its sublattice block (connection._sector),
    # against a dense complex eigh of i G_i on it
    factory = connection.FrameFactory(plane, cutoff)
    phase = 1.0j if plane is PlaneId.II else 1.0
    entries = {int(index[0]): lower
               for sectors in fock.inner_sectors(cutoff, factory.mode_count, phase)
               for index, lower in sectors}
    for block in factory.blocks:
        basis, rates = block.paired_basis
        assert np.isrealobj(basis) == (plane is not PlaneId.II)
        for sector, rows, places in zip(block.sectors, block.sector_rows, block.sector_columns):
            lower, m = entries[int(sector.index[0])], sector.index.size
            values, _ = chain_eigh(lower)
            scale = max(np.max(np.abs(values)), 1.0)
            assert np.max(np.abs(sector.values - values)) <= 1e-13 * scale
            v = sector.vectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(m))) <= 1e-14
            generator = 1j * chain_matrix(lower)
            eigen = v.conj().T @ generator @ v
            assert np.max(np.abs(eigen - np.diag(sector.values))) <= 1e-13 * scale
            # each column of Q on one sublattice of the chain: q_a on its even places,
            # q_b on its odd ones, a zero mode on the even ones
            half = m // 2
            columns = basis[rows, places[:m]]
            assert not np.any(columns[1::2, 0 : 2 * half : 2])
            assert not np.any(columns[0::2, 1 : 2 * half : 2])
            # the rates are the singular values of the block from the odd places to the even
            # ones, the eigenvalues at +s
            singular = np.linalg.svd(generator[0::2, 1::2], compute_uv=False)
            assert np.array_equal(rates[places[0 : 2 * half : 2] // 2], sector.values[m - half :])
            assert np.max(np.abs(sector.values[m - half :] - singular[::-1]), initial=0.0) <= (
                1e-14 * scale
            )
            if m % 2:
                # the zero mode is real as it comes, and Q holds it with no phase fix
                zero = sector.vectors[:, half]
                assert sector.values[half] == 0.0 and not np.any(zero.imag)
                assert not np.any(zero[1::2]) and np.array_equal(columns[:, 2 * half], zero.real)


@pytest.mark.parametrize("plane", list(PlaneId))
def test_frame_matches_expm_of_the_generators(plane):
    cutoff = 13 if plane is PlaneId.III else 30
    outer, inner, code = plane_generators(plane, cutoff)
    factory = connection.FrameFactory(plane, cutoff)
    for u, v in [(0.0, 0.0), (0.21, 0.13), (-0.17, 0.3)]:
        if plane is PlaneId.III:
            u = abs(u)
        o, i = factory.split(u, v)
        reference = expm(o * outer) @ expm(i * inner) @ code
        assert np.max(np.abs(frame(factory, u, v) - reference)) < 1e-12


CORNER_CASES = [
    pytest.param(PlaneId.I, Rect(0.02, 0.2, 0.03, 0.31), 60, False, id="I-rect"),
    pytest.param(PlaneId.I, Rect(0.0, 2.6, 0.0, 0.05), 8, True, id="I-rect-warns"),
    pytest.param(PlaneId.II, Rect(0.0, 0.3, 0.0, 0.25), 60, False, id="II-rect"),
    pytest.param(PlaneId.II, Rect(0.0, 2.6, 0.0, 0.05), 8, True, id="II-rect-warns"),
    pytest.param(PlaneId.III, Rect(0.0, 0.15, 0.0, 0.15), 14, False, id="III-rect"),
    pytest.param(PlaneId.III, Rect(0.05, 0.25, 0.0, 0.2), 14, True, id="III-rect-warns"),
    pytest.param(PlaneId.I, regular_polygon(PlaneId.I, 7).shape, 60, False, id="I-polygon"),
    pytest.param(PlaneId.II, regular_polygon(PlaneId.II, 5).shape, 60, False, id="II-polygon"),
    pytest.param(PlaneId.III, regular_polygon(PlaneId.III, 6, (0.08, 0.08)).shape, 14, False,
                 id="III-polygon"),
    pytest.param(PlaneId.III, regular_polygon(PlaneId.III, 8, (0.3, 0.2), 0.1).shape, 14, True,
                 id="III-polygon-warns"),
]


@pytest.mark.parametrize("plane,shape,cutoff,warns", CORNER_CASES)
def test_corner_check_matches_the_per_corner_reference(plane, shape, cutoff, warns):
    for orientation in (1, -1):
        loop = LoopSpec(plane, shape, orientation)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            populations = corner_populations(loop, cutoff)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            connection.check_loop_truncation(loop, cutoff)
        factory = frame_factory(plane, cutoff)
        got = factory.top_quartile_populations(loops.boundary_vertices(loop))
        assert np.max(np.abs(got - populations)) <= 1e-15
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
        assert all(w.category is TruncationWarning for w in caught)
        assert bool(caught) == warns


@pytest.mark.parametrize("plane,shape,cutoff,_", CORNER_CASES)
def test_transport_check_reads_the_chain_tails_at_the_corners(plane, shape, cutoff, _):
    # I(i) c at each corner, against the dense reference; the transport warns per corner
    # as the reference does, and the frames' check, the kicked route's, is not called
    for orientation in (1, -1):
        loop = LoopSpec(plane, shape, orientation)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            populations = chain_tail_populations(loop, cutoff)
        factory = frame_factory(plane, cutoff)
        _, inner = factory.split(*loops.boundary_vertices(loop).T)
        got = factory.chain_tail_populations(inner)
        assert np.max(np.abs(got - populations)) <= 1e-15
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            connection.holonomy_path_ordered(loop, cutoff, 2000)
        assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
        assert all(w.category is TruncationWarning for w in caught)


def test_the_frame_check_is_the_more_pessimistic_one():
    # the README's example: the displacement to x = 2.6 stresses cutoff 16 in the frames,
    # not in I(i) c, so only the kicked route warns
    loop = LoopSpec(PlaneId.I, Rect(0.0, 2.6, 0.0, 0.05))
    factory = frame_factory(PlaneId.I, 16)
    verts = loops.boundary_vertices(loop)
    frames = factory.top_quartile_populations(verts)
    tails = factory.chain_tail_populations(factory.split(*verts.T)[1])
    assert np.round(frames[1:3], 2).tolist() == [0.24, 0.27]
    assert np.max(tails) == pytest.approx(2.8e-12, rel=0.01)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        connection.holonomy_path_ordered(loop, 16, 2000)
    assert not caught
    with pytest.warns(TruncationWarning, match="dressed frame"):
        kicked.run_kicked(kicked.KickSchedule(loop, 2000, cutoff=16))


@pytest.mark.parametrize("cutoff", [13, 14, 20])
def test_odd_twin_is_the_u_minus_half_with_the_conjugate_step(cutoff):
    # plane III's odd block is its U = +1 half, B Q in the Fock basis, and its twin
    # conj(B) Q is the U = -1 half: there the outer step is conj(S), and the dwell and
    # the code row are the block's own
    factory = connection.FrameFactory(PlaneId.III, cutoff)
    even, odd = factory.blocks
    assert even.signs == frame_factory(PlaneId.I, 24).blocks[0].signs == (1.0,)
    outer, _, code = plane_generators(PlaneId.III, cutoff)
    basis, _ = odd.paired_basis
    assert np.isrealobj(basis)
    plus = in_fock(odd, basis, factory)
    minus = plus.conj()
    u = swap_symmetry(cutoff)
    assert np.array_equal(u @ plus, plus) and np.array_equal(u @ minus, -minus)
    assert np.max(np.abs(plus.conj().T @ minus)) <= 1e-15
    for d_outer, inner in [(0.0005, 0.0), (-0.0004, 0.07), (0.0011, 0.15)]:
        step = odd.outer_step(d_outer, inner)
        turned = expm(-inner * inner_generator(cutoff)) @ expm(d_outer * outer)
        turned = turned @ expm(inner * inner_generator(cutoff))
        assert np.max(np.abs(plus.conj().T @ turned @ plus - step)) <= 1e-14
        assert np.max(np.abs(minus.conj().T @ turned @ minus - step.conj())) <= 1e-14
    # each half holds its code row, q = Q^T e_r, and with mix and conj(mix) the two make
    # the odd code states, |10> = i (h+ - h-)/sqrt 2 and |01> = (h+ + h-)/sqrt 2, up to
    # Q's own orthonormality, a few 1e-15 from eigh
    q = odd.paired_code
    halves = plus @ q @ odd.mix + minus @ q @ odd.mix.conj()
    assert np.max(np.abs(halves - code[:, odd.columns])) < 5e-15
    # the Kerr dwell is the same on both halves, and the sector stacks hold it
    dwell = np.diag(fock.echo_dwell(cutoff, 2))
    on_plus = plus.conj().T @ dwell @ plus
    assert np.max(np.abs(minus.conj().T @ dwell @ minus - on_plus)) <= 1e-15
    [_, (stack, _, _)] = kicked.sector_dwells(factory)
    assert np.max(np.abs(dense_sectors(stack, odd) - on_plus)) <= 1e-14


@pytest.mark.parametrize(
    "plane,cutoff,sizes,columns,rest",
    [
        (PlaneId.I, 60, (30, 30), [0, 1], []),
        (PlaneId.II, 60, (30, 30), [0, 1], []),
        (PlaneId.III, 13, (12, 12), [1, 3], [0, 2]),
        (PlaneId.III, 14, (13, 13), [1, 3], [0, 2]),
    ],
    ids=["I", "II", "III-13", "III"],
)
def test_outer_connection_lives_on_one_sector_pair(plane, cutoff, sizes, columns, rest):
    # G_o links only the two parity chains on planes I/II, and only n1 - n2 = +1
    # with -1 on plane III (|10> and |01>); |00> and |11> see no A_o at all
    factory = connection.FrameFactory(plane, cutoff)
    pair = factory.pair
    assert (pair.first.index.size, pair.second.index.size) == sizes
    assert sorted(pair.first.columns.tolist() + pair.second.columns.tolist()) == columns
    assert sorted(factory.pair_columns.tolist()) == columns
    assert factory.rest.tolist() == rest
    linked = np.zeros((factory.code_dim, factory.code_dim), dtype=bool)
    linked[np.ix_(columns, columns)] = True
    np.fill_diagonal(linked, False)
    a_outer = factory.outer_connection(-0.3, 0.1, 7)
    assert not np.any(a_outer[:, ~linked])
    assert np.all(a_outer[:, linked] != 0)
    # the SU(2) transport rests on this: A_i is exactly 0 on the pair's rows and
    # columns, and has a zero diagonal, so the rest only sees its one entry
    a_inner = factory.inner_connection
    assert not np.any(a_inner[columns, :]) and not np.any(a_inner[:, columns])
    assert not np.any(np.diag(a_inner))
    assert antihermitian_defect(factory.connection(0.1, 0.2)) == 0.0


@pytest.mark.parametrize("plane", list(PlaneId))
def test_connection_and_curvature_match_expm_of_the_generators(plane):
    cutoff = 12 if plane is PlaneId.III else 30
    outer, inner, code = plane_generators(plane, cutoff)
    factory = connection.FrameFactory(plane, cutoff)
    a_inner = code.conj().T @ inner @ code
    for u, v in [(0.0, 0.0), (0.21, 0.13), (-0.17, 0.3), (0.3, -0.2)]:
        _, i = factory.split(u, v)
        dressed = expm(i * inner) @ code
        a_outer = dressed.conj().T @ outer @ dressed
        d_inner = dressed.conj().T @ (outer @ inner - inner @ outer) @ dressed
        f_io = d_inner + a_inner @ a_outer - a_outer @ a_inner
        if plane is PlaneId.III:
            expected, f_uv = (a_inner, a_outer), f_io
        else:
            expected, f_uv = (a_outer, a_inner), -f_io
        for got, want in zip(factory.connection(u, v), expected):
            assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(factory.curvature(u, v) - f_uv)) < 1e-12


@pytest.mark.parametrize("plane", list(PlaneId))
def test_dense_budget_is_checked_before_any_allocation(monkeypatch, plane):
    def refuse(*args, **kwargs):
        raise AssertionError("a Fock operator was built")

    for name in (
        "code_states", "annihilator", "displacement_generator", "two_mode_mix_generator",
        "Propagator", "inner_sectors",
    ):
        monkeypatch.setattr(fock, name, refuse)
    loop = LoopSpec(plane, Rect(0.0, 0.1, 0.0, 0.1))
    for build in (
        lambda: connection.FrameFactory(plane, 10**7),
        lambda: connection.holonomy_path_ordered(loop, 10**7, 200),
        lambda: kicked.run_kicked(kicked.KickSchedule(loop, 128, cutoff=10**7)),
    ):
        with pytest.raises(ValueError, match="DENSE_BYTES_BUDGET"):
            build()


@pytest.mark.parametrize("plane", list(PlaneId))
def test_frame_factory_builds_no_dense_inner_generator(monkeypatch, plane):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense inner generator was built")

    # the squeezes' generators now live only in the tests, as dense references
    for name in ("squeeze_generator", "two_mode_squeeze_generator"):
        assert not hasattr(fock, name)
        monkeypatch.setattr(fock, name, refuse, raising=False)
    cutoff = 13 if plane is PlaneId.III else 30
    factory = connection.FrameFactory(plane, cutoff)
    # A_i, summed from the chains, is the dense c^dag G_i c entry for entry
    _, inner, code = plane_generators(plane, cutoff)
    assert np.array_equal(factory.inner_connection, code.conj().T @ inner @ code)


SPLIT_LOOPS = [
    pytest.param(LoopSpec(PlaneId.I, Rect(0.02, 0.2, 0.03, 0.31)), id="I-rect"),
    pytest.param(regular_polygon(PlaneId.I, 7), id="I-polygon"),
    pytest.param(LoopSpec(PlaneId.II, Rect(0.0, 0.3, 0.0, 0.25)), id="II-rect"),
    pytest.param(regular_polygon(PlaneId.II, 5), id="II-magnus-polygon"),
    pytest.param(LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)), id="III-rect"),
    pytest.param(regular_polygon(PlaneId.III, 6, (0.08, 0.08)), id="III-polygon"),
]


@pytest.mark.parametrize("loop", SPLIT_LOOPS)
def test_transport_builds_its_part_alone(monkeypatch, loop):
    # the transport, its chain-tail check, the connection and the curvature read the
    # code chains alone: no dense generator, no dense budget, no kicked block
    cutoff = ORACLE_CUTOFF[loop.plane]
    cached = connection.holonomy_path_ordered(loop, cutoff, 2000)

    def refuse(*args, **kwargs):
        raise AssertionError("the kicked part was built")

    for name in ("displacement_generator", "two_mode_mix_generator", "check_dense_budget",
                 "inner_sectors"):
        monkeypatch.setattr(fock, name, refuse)
    factories = []

    def fresh(plane, cutoff):
        factories.append(connection.FrameFactory(plane, cutoff))
        return factories[-1]

    monkeypatch.setattr(connection, "frame_factory", fresh)
    gate = connection.holonomy_path_ordered(loop, cutoff, 2000)
    assert np.array_equal(gate.matrix, cached.matrix)
    assert gate.diagnostics == cached.diagnostics
    [factory] = factories
    factory.connection(0.1, 0.2)
    factory.curvature(0.1, 0.2)
    factory.outer_connection(0.0, 0.01, 10)
    assert not {"blocks", "top_outer_vectors", "dwells"} & set(vars(factory))
    with pytest.raises(AssertionError, match="kicked part"):
        factory.blocks


@pytest.mark.parametrize("value", [math.nan, 20.5, 64.5, True])
def test_both_routes_refuse_non_integer_sizes_naming_them(value):
    # NaN kicks used to fail later as an overflow, 64.5 kicks ran, and a NaN or
    # fractional cutoff raised numpy's TypeError
    loop = SMALL_RECTS[PlaneId.I]
    builds = [
        ("kick_count", lambda: kicked.KickSchedule(loop, value, cutoff=20)),
        ("cutoff", lambda: kicked.KickSchedule(loop, 128, cutoff=value)),
        ("cutoff", lambda: connection.holonomy_path_ordered(loop, value, 2000)),
        ("steps", lambda: connection.holonomy_path_ordered(loop, 20, value)),
    ]
    for name, build in builds:
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            build()
    # numpy's integers are integers
    size = np.int64(128)
    kicked.KickSchedule(loop, size, cutoff=np.int64(20))
    connection.holonomy_path_ordered(loop, np.int64(20), size)


def test_exact_edges_work_arrays_are_bounded():
    # a plane I 60-gon at cutoff 1024: the sinc-scaled pair blocks, 512 x 512 each, are
    # taken one edge at a time, where all 60 at once raised peak RSS by 416 MB
    loop = regular_polygon(PlaneId.I, 60, (0.2, 0.2), 0.1)
    factory = frame_factory(PlaneId.I, 1024)
    assert connection.MAGNUS_BATCH // max(factory.pair.outer.shape) == 0
    tracemalloc.start()
    try:
        connection.holonomy_path_ordered(loop, 1024, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024**2


def test_transport_reaches_crot_loop_at_cutoff_128():
    # the README's figures: the chain tail of I(i) c at CROT_LOOP's corners and the
    # distance to the pi/4 gate, at cutoffs 64 and 128; and the paper-stated plane III
    # rect's distance to its area gate at 128
    stated = LoopSpec(PlaneId.III, Rect(**compiler.PAPER_STATED_RECTS["III"]["rect"]))
    corners = loops.boundary_vertices(compiler.CROT_LOOP)
    for cutoff, tail in ((64, 1.94e-4), (128, 7.8e-10)):
        factory = frame_factory(PlaneId.III, cutoff)
        inner = factory.split(*corners.T)[1]
        assert np.max(factory.chain_tail_populations(inner)) == pytest.approx(tail, rel=0.01)
    with pytest.warns(TruncationWarning):
        assert formula_distance(compiler.CROT_LOOP, 64, 2000) == pytest.approx(2.57e-7, rel=0.01)
    assert formula_distance(compiler.CROT_LOOP, 128, 2000) < 1e-14
    assert formula_distance(stated, 128, 2000) < 2e-14


def test_holonomy_degenerate_loop_is_identity():
    loop = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.05, 0.0), (0.025, 0.0))))
    gate = connection.holonomy_path_ordered(loop, 40, 128)
    assert np.linalg.norm(gate.matrix - np.eye(2)) < 1e-8


def test_holonomy_small_plane1_rect_matches_formula():
    oracle = connection.holonomy_path_ordered(CALIBRATION_RECT, ORACLE_CUTOFF[PlaneId.I], 2000)
    calibrated = connection.calibrated_code_matrix(PlaneId.I, oracle.matrix)
    sigma = loops.area(CALIBRATION_RECT).sigma
    assert sigma == pytest.approx(0.1 * (1.0 - math.exp(-0.2)), abs=1e-15)
    formula = gates.gate_from_area(gates.SIGMA1, CALIBRATION_SIGN * sigma).matrix
    assert np.linalg.norm(calibrated - formula) < 1e-3


def test_holonomy_convergence_monotone_under_doubling(stepped_sweeps):
    for plane, sweep in stepped_sweeps.items():
        results = [sweep[steps] for steps in (250, 500, 1000, 2000)]
        gaps = [np.linalg.norm(b - a) for a, b in zip(results, results[1:])]
        assert gaps[0] > gaps[1] > gaps[2], f"plane {plane.value}: {gaps}"


def test_holonomy_double_traversal_squares(stepped_sweeps):
    factory = frame_factory(PlaneId.I, ORACLE_CUTOFF[PlaneId.I])
    points = boundary_points(CALIBRATION_RECT, 1000)
    doubled = np.concatenate([points[:-1], points], axis=0)
    twice = stepped_product(factory, doubled)
    single = stepped_sweeps[PlaneId.I][1000]
    assert np.linalg.norm(twice - single @ single) < 2e-3


def test_holonomy_unitarity_defect_is_reported():
    oracle = connection.holonomy_path_ordered(CALIBRATION_RECT, ORACLE_CUTOFF[PlaneId.I], 2000)
    assert oracle.provenance == "connection_oracle"
    assert oracle.unitarity_defect < 1e-10


def test_rect_transport_is_exact_and_step_free():
    loop = SMALL_RECTS[PlaneId.III]
    coarse = connection.holonomy_path_ordered(loop, 14, 100)
    fine = connection.holonomy_path_ordered(loop, 14, 4000)
    assert np.array_equal(coarse.matrix, fine.matrix)
    assert fine.diagnostics["convergence_estimate"] == 0.0
    assert fine.diagnostics["integrator"] == "exact_edge"
    tilted = LoopSpec(PlaneId.II, Polyline(((0.0, 0.0), (0.1, 0.02), (0.04, 0.1))))
    assert connection.holonomy_path_ordered(tilted, 40, 200).diagnostics["integrator"] == "magnus4"


@pytest.mark.parametrize("plane", list(PlaneId))
def test_real_pair_connection_on_exactly_planes_1_and_3(plane):
    # a(i) over the inner range of the oracle domain: [0, 0.25] on planes I/II, [0, 0.15] on III
    factory = frame_factory(plane, ORACLE_CUTOFF[plane])
    end = 0.15 if plane is PlaneId.III else 0.25
    a = factory.pair_entries(factory.pair.outer, 0.0, end / 200, 201)
    real = np.max(np.abs(a.imag)) <= 1e-15 * np.max(np.abs(a))
    assert real == (plane is not PlaneId.II) == factory.real_controls


@pytest.mark.parametrize("plane", [PlaneId.I, PlaneId.III])
def test_tilted_transport_is_exact_on_real_control_planes(plane):
    loop = LoopSpec(plane, Polyline(((0.02, 0.01), (0.13, 0.04), (0.09, 0.12), (0.03, 0.1))))
    assert not any(run.axis_aligned for run in loops.boundary_runs(loop, 100))
    coarse = connection.holonomy_path_ordered(loop, ORACLE_CUTOFF[plane], 100)
    fine = connection.holonomy_path_ordered(loop, ORACLE_CUTOFF[plane], 4000)
    assert np.array_equal(coarse.matrix, fine.matrix)
    for gate in (coarse, fine):
        assert gate.diagnostics["convergence_estimate"] == 0.0
        assert gate.diagnostics["integrator"] == "exact_edge"


@pytest.mark.parametrize("plane", list(PlaneId))
def test_axis_aligned_edges_are_one_exponential_of_the_vertex_entry(plane):
    # the line-integral form at zero inner increment is bit for bit the constant-entry edge
    factory = frame_factory(plane, ORACLE_CUTOFF[plane])
    loop = LoopSpec(plane, Rect(0.02, 0.2, 0.03, 0.31))
    runs = loops.boundary_runs(loop, 2000)
    (p, q), _ = connection._exact_edges(factory, runs)
    for k, run in enumerate(runs):
        (outer0, inner0), (outer1, _) = factory.split(*run.start), factory.split(*run.end)
        x = -(outer1 - outer0) * factory.pair_entries(factory.pair.outer, inner0)[0]
        expected = connection._magnus_step(x, x)
        assert np.array_equal(p[k], expected[0]) and np.array_equal(q[k], expected[1])


TRANSPORT_LOOPS = [
    pytest.param(Rect(0.02, 0.2, 0.03, 0.31), id="rect"),
    pytest.param(Rect(0.1, 0.102, 0.0, 0.3), id="thin-rect"),
    pytest.param(Polyline(((0.02, 0.01), (0.13, 0.04), (0.09, 0.12), (0.03, 0.1))), id="quad"),
    # one axis-aligned edge among tilted ones
    pytest.param(Polyline(((0.0, 0.0), (0.12, 0.0), (0.1, 0.08), (0.05, 0.1))), id="mixed"),
]


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@pytest.mark.parametrize("shape", TRANSPORT_LOOPS)
@pytest.mark.parametrize("plane", list(PlaneId))
def test_batched_transport_matches_the_per_edge_reference(plane, shape):
    factory = frame_factory(plane, ORACLE_CUTOFF[plane])
    for orientation in (1, -1):
        runs = loops.boundary_runs(LoopSpec(plane, shape, orientation), 2000)
        got = connection._transport(factory, runs)
        assert np.max(np.abs(got - per_edge_transport(factory, runs))) <= 1e-14


@settings(max_examples=10, deadline=None)
@given(convex_polygons(planes=(PlaneId.II,)), st.sampled_from([1, -1]))
def test_tilted_plane2_transport_is_its_magnus_edges_bit_for_bit(loop, orientation):
    # every edge takes the unchanged Magnus path, and the batched pass only routes them
    runs = loops.boundary_runs(LoopSpec(loop.plane, loop.shape, orientation), 400)
    factory = frame_factory(PlaneId.II, 40)
    assert all(connection._stepped(factory, run) for run in runs)
    assert np.array_equal(connection._transport(factory, runs), per_edge_transport(factory, runs))


def test_magnus_error_falls_16_fold_per_doubling():
    # plane II's complex a(i) leaves the commutator term, so its tilted edges take Magnus steps
    loop = LoopSpec(PlaneId.II, Polyline(((0.05, 0.08), (0.35, 0.15), (0.17, 0.33))))
    estimates = [
        connection.holonomy_path_ordered(loop, 60, steps).diagnostics["convergence_estimate"]
        for steps in (100, 200, 400)
    ]
    assert estimates[0] >= 10.0 * estimates[1] and estimates[1] >= 10.0 * estimates[2], estimates


def test_transport_does_not_depend_on_the_magnus_batch(monkeypatch):
    loop = LoopSpec(PlaneId.II, Polyline(((0.0, 0.0), (0.12, 0.03), (0.05, 0.1))))
    steps = 2000
    batch = connection.MAGNUS_BATCH
    counts = [run.count for run in loops.boundary_runs(loop, steps)]
    assert any(count > batch and count % batch for count in counts)
    transports = []
    for size in (1, 7, batch):
        monkeypatch.setattr(connection, "MAGNUS_BATCH", size)
        transports.append(connection.holonomy_path_ordered(loop, 40, steps).matrix)
    for other in transports[:-1]:
        assert np.max(np.abs(other - transports[-1])) <= 1e-13


def test_holonomy_rejects_few_steps():
    with pytest.raises(ValueError):
        connection.holonomy_path_ordered(CALIBRATION_RECT, 40, 50)


def test_gauge_covariance_of_spectrum():
    loop = LoopSpec(PlaneId.I, Rect(0.0, 0.2, 0.0, 0.2))

    def gauge(u, v):
        return np.exp(1j * np.array([3.0 * u + v, u - 2.0 * v]))

    plain = stepped_holonomy(loop, 40, 600)
    twisted = stepped_holonomy(loop, 40, 600, gauge=gauge)
    ev_plain = np.linalg.eigvals(plain)
    ev_twisted = np.linalg.eigvals(twisted)
    # matched, not sorted: the spectrum is a conjugate pair with equal real parts, so its
    # sort_complex order is rounding noise; gauge(0, 0) = 1 fixes the gauge at the base point
    distance = np.abs(ev_plain[:, None] - ev_twisted[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert np.max(distance[rows, cols]) < 1e-6


def formula_distance(loop, cutoff, steps):
    """Frobenius distance from the calibrated transport to the area-formula gate."""
    oracle = connection.holonomy_path_ordered(loop, cutoff, steps)
    calibrated = connection.calibrated_code_matrix(loop.plane, oracle.matrix)
    return np.linalg.norm(calibrated - gates.gate_for_loop(loop).matrix)


def test_oracle_vs_formula_each_plane_small_rect():
    for plane, loop in SMALL_RECTS.items():
        assert formula_distance(loop, ORACLE_CUTOFF[plane], 2000) < 1e-2, plane


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_oracle_vs_formula_larger_rects_planes_1_and_3():
    # the plane I and plane III weights are exact properties of the dressed
    # frames, so agreement extends to coordinates up to ~0.5
    for loop, cutoff in (
        (LoopSpec(PlaneId.I, Rect(0.0, 0.4, 0.0, 0.45)), 60),
        (LoopSpec(PlaneId.III, Rect(0.0, 0.35, 0.0, 0.4)), 14),
    ):
        assert formula_distance(loop, cutoff, 1000) < 1e-2


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_plane2_weight_only_holds_near_zero_squeeze():
    # documented discrepancy: away from r1 ~ 0 the dressed-frame holonomy on
    # plane II departs from the nominal exp(-2 r1) weight; guard the finding
    assert formula_distance(LoopSpec(PlaneId.II, Rect(0.0, 0.45, 0.0, 0.5)), 60, 800) > 0.1


def test_calibration_reproduces_frozen_constants():
    cal = calibrate(cutoff=40, steps=800)
    assert cal["sign"] == CALIBRATION_SIGN
    for plane in PlaneId:
        assert np.allclose(cal["gauges"][plane], CALIBRATION_GAUGE[plane], atol=1e-12)
        assert cal["distances"][plane] < 1e-2


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(convex_polygons())
def test_transport_is_unitary_and_reverses_to_adjoint(loop):
    cutoff = 14 if loop.plane is PlaneId.III else 40
    reversed_loop = LoopSpec(loop.plane, loop.shape, -loop.orientation)
    forward = connection.holonomy_path_ordered(loop, cutoff, 200).matrix
    backward = connection.holonomy_path_ordered(reversed_loop, cutoff, 200).matrix
    identity = np.eye(loop.plane.code_dim)
    assert np.max(np.abs(forward.conj().T @ forward - identity)) < 1e-12
    assert np.max(np.abs(backward - forward.conj().T)) < 1e-12


def pair_matrix(p, q):
    return np.array([[p, q], [-np.conj(q), np.conj(p)]])


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=15, deadline=None)
@given(convex_polygons(planes=tuple(PlaneId)), st.sampled_from([1, -1]))
def test_transport_matches_the_matrix_magnus_reference(loop, orientation):
    loop = LoopSpec(loop.plane, loop.shape, orientation)
    cutoff = ORACLE_CUTOFF[loop.plane]
    got = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix
    assert np.max(np.abs(got - matrix_magnus_transport(loop, cutoff, 2000))) < 1e-12


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@pytest.mark.parametrize("plane", list(PlaneId))
def test_rect_transport_matches_the_matrix_magnus_reference(plane):
    cutoff = ORACLE_CUTOFF[plane]
    for rect in (Rect(0.0, 0.1, 0.0, 0.1), Rect(0.02, 0.2, 0.03, 0.31), Rect(0.1, 0.102, 0.0, 0.3)):
        for orientation in (1, -1):
            loop = LoopSpec(plane, rect, orientation)
            got = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix
            assert np.max(np.abs(got - matrix_magnus_transport(loop, cutoff, 2000))) < 1e-12


def magnus_omega(x1, x2):
    """Omega = (B1 + B2)/2 - sqrt(3)/12 [B1, B2] for B_j = [[0, x_j], [-conj x_j, 0]]."""
    b1, b2 = pair_matrix(0.0, x1), pair_matrix(0.0, x2)
    return 0.5 * (b1 + b2) - math.sqrt(3.0) / 12.0 * (b1 @ b2 - b2 @ b1)


@pytest.mark.parametrize("theta", [0.0, 1e-12, 1e-6, 1.0, math.pi - 1e-9, 40.0])
def test_closed_form_magnus_step_matches_expm(theta):
    # x1 = x2 has no commutator term; the other two have both parts of Omega
    for x1, x2 in [(0.3 + 0.4j, 0.3 + 0.4j), (0.7 - 0.2j, -0.1 + 0.5j), (1.0, -1j)]:
        omega = magnus_omega(x1, x2)
        a2, g2 = abs(omega[0, 1]) ** 2, abs(omega[0, 0]) ** 2
        # scaling x by s scales Omega's off-diagonal by s and its diagonal by s^2,
        # and Omega^2 = -theta^2: solve s^2 a2 + s^4 g2 = theta^2
        s2 = 2.0 * theta**2 / (math.sqrt(a2**2 + 4.0 * g2 * theta**2) + a2)
        x1, x2 = math.sqrt(s2) * x1, math.sqrt(s2) * x2
        omega = magnus_omega(x1, x2)
        assert np.allclose(omega @ omega, -(theta**2) * np.eye(2), rtol=0, atol=1e-12 * theta**2)
        got = pair_matrix(*connection._magnus_step(x1, x2))
        assert np.max(np.abs(got - expm(omega))) < 1e-14 * max(1.0, theta)


@pytest.mark.parametrize("length", [1, 2, 3, 255, 256, 257])
def test_pair_tree_product_is_the_ordered_product(length):
    rng = np.random.default_rng(length)
    x1, x2 = (rng.normal(size=(length, 2)) @ np.array([1.0, 1j]) * 0.3 for _ in range(2))
    p, q = connection._magnus_step(x1, x2)
    product = np.eye(2, dtype=complex)
    for step in zip(p, q):
        product = pair_matrix(*step) @ product
    assert np.max(np.abs(pair_matrix(*connection._tree_product(p, q)) - product)) < 1e-14


@pytest.mark.parametrize("count", [1, 2, 17, 256, 1025])
def test_sector_phases_match_a_direct_exp(count):
    # the phase of exp(-i w t) carries the rounding of its argument w t, so the
    # bound is a few units in the last place of the largest argument: 1e-14
    # while |w t| < 8, which holds for |t| < 0.08 at cutoff 60 (|w| < 101)
    factory = frame_factory(PlaneId.I, 60)
    for block in (factory.pair.first, factory.blocks[0]):
        for start, end in [(0.0, 0.08), (-0.08, 0.05), (0.3, -0.3), (0.0, 0.5)]:
            step = (end - start) / count
            arguments = np.outer(block.values, start + step * np.arange(count))
            phases = connection.phase_table(block.values, start, step, count).T
            error = np.max(np.abs(phases - np.exp(-1j * arguments)))
            largest = np.max(np.abs(arguments))
            assert error <= 6 * np.spacing(largest)
            if largest < 8.0:
                assert error < 1e-14
