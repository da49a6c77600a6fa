import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hologate import connection, fock, kicked, loops
from hologate.exceptions import AdiabaticityWarning
from hologate.kicked import KickSchedule
from hologate.loops import LoopSpec, PlaneId, Polyline, Rect

from conftest import (
    binary_power,
    convex_polygons,
    dense_sectors,
    formula_gate_in_frame,
    infidelity,
    paired_transform,
)

# extent small enough that finite-kick effects sit below 1e-12
ZERO_CONTROL_LOOP = LoopSpec(
    PlaneId.I, Polyline(((0.0, 0.0), (1e-9, 0.0), (5e-10, 0.0)))
)


@pytest.mark.parametrize("kick_count,chi,delta_t", [(16, 1.0, 0.3), (64, 2.5, math.pi / 4.0)])
def test_zero_control_schedule_is_exact_identity(kick_count, chi, delta_t):
    result = kicked.run_kicked(
        KickSchedule(ZERO_CONTROL_LOOP, kick_count, chi=chi, delta_t=delta_t, cutoff=24)
    )
    assert np.linalg.norm(result.code_map - np.eye(2)) < 1e-12
    assert result.leakage < 1e-12


def test_fidelity_trend_over_kick_doubling(kicked_sweep):
    prediction = formula_gate_in_frame(connection.CALIBRATION_RECT)
    infidelities = [infidelity(kicked_sweep[k].code_map, prediction) for k in (256, 512, 1024)]
    assert infidelities[0] >= infidelities[1] >= infidelities[2]


def test_leakage_decreases_with_kick_count(kicked_sweep):
    assert kicked_sweep[1024].leakage < kicked_sweep[256].leakage


def test_kicked_matches_connection_oracle(kicked_sweep, connection_oracle_cutoff40):
    distance = np.linalg.norm(
        kicked_sweep[1024].code_map - connection_oracle_cutoff40.matrix
    )
    assert distance < 5e-2


def test_reversed_schedule_is_dagger(kicked_sweep):
    rect = connection.CALIBRATION_RECT
    forward = kicked_sweep[1024].code_map
    backward = kicked.run_kicked(
        KickSchedule(LoopSpec(rect.plane, rect.shape, -rect.orientation), 1024, cutoff=40)
    ).code_map
    assert np.linalg.norm(backward - forward.conj().T) < 5e-3


def test_plane3_schedule_runs():
    loop = LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1))
    result = kicked.run_kicked(KickSchedule(loop, 128, cutoff=12))
    assert result.code_map.shape == (4, 4)
    assert 1.0 - infidelity(result.code_map, formula_gate_in_frame(loop)) > 0.999


@pytest.mark.parametrize("cutoff", [12, 13])
def test_plane3_code_map_is_zero_between_parity_blocks(cutoff):
    loop = LoopSpec(PlaneId.III, Polyline(((0.02, 0.01), (0.13, 0.04), (0.08, 0.12))))
    code_map = kicked.run_kicked(KickSchedule(loop, 128, cutoff=cutoff)).code_map
    even, odd = [0, 2], [1, 3]  # {|00>, |11>} and {|10>, |01>}
    assert np.all(code_map[np.ix_(even, odd)] == 0)
    assert np.all(code_map[np.ix_(odd, even)] == 0)
    assert np.linalg.norm(code_map[np.ix_(even, even)]) > 1.0


def test_zero_control_loop_has_no_leakage():
    result = kicked.run_kicked(KickSchedule(ZERO_CONTROL_LOOP, 32, cutoff=16))
    assert result.leakage < 1e-12


def test_schedule_validation():
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 8)
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 64, chi=-1.0)
    with pytest.raises(ValueError):
        KickSchedule(connection.CALIBRATION_RECT, 64, delta_t=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["chi", "delta_t"])
def test_schedule_refuses_non_finite_values(name, value):
    # nan <= 0 is False: without the check a nan dwell reached the SVD of the polar step
    rect = LoopSpec(PlaneId.I, Rect(0.0, 0.1, 0.0, 0.1))
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        KickSchedule(rect, 64, cutoff=20, **{name: value})


def test_oversized_control_increment_rejected():
    big = LoopSpec(PlaneId.I, Rect(0.0, 2.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        kicked.run_kicked(KickSchedule(big, 16, cutoff=12))


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
def test_adiabaticity_warning_on_resonant_dwell():
    # chi*dt ~ 2*pi leaves the nearest leakage level barely dephased
    loop = LoopSpec(PlaneId.I, Rect(0.0, 1.5, 0.0, 1.5))
    schedule = KickSchedule(loop, 128, chi=1.0, delta_t=2.0 * math.pi * 0.999, cutoff=14)
    with pytest.warns(AdiabaticityWarning):
        result = kicked.run_kicked(schedule)
    assert result.leakage > 0.5


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("size", [1, 7, 98])
def test_real_form_is_the_complex_product_on_rows(size, rows):
    rng = np.random.default_rng(10 * size + rows)
    matrix = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    x = rng.normal(size=(rows, size)) + 1j * rng.normal(size=(rows, size))
    # the kicked route holds complex rows as [Re | Im] and passes transposed matrices
    for m in (matrix, matrix.T):
        got = np.hstack([x.real, x.imag]) @ kicked.real_form(m)
        expected = x @ m
        assert got.shape == (rows, 2 * size)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got[:, :size] - expected.real)) <= 1e-14 * scale
        assert np.max(np.abs(got[:, size:] - expected.imag)) <= 1e-14 * scale


def test_real_forms_are_built_only_for_tilted_edges(monkeypatch):
    # fresh factories, so that what a loop builds is seen whatever ran before
    factories = {}

    def fresh(plane, cutoff):
        if (plane, cutoff) not in factories:
            factories[plane, cutoff] = connection.FrameFactory(plane, cutoff)
        return factories[plane, cutoff]

    steps, forms = [], []
    outer_step, real_form = connection.ControlBlock.outer_step, kicked.real_form

    def counted_step(self, d_outer, inner=0.0):
        step = outer_step(self, d_outer, inner)
        steps.append(step.dtype)
        return step

    def counted_form(matrix):
        forms.append(matrix.shape)
        return real_form(matrix)

    monkeypatch.setattr(connection, "frame_factory", fresh)
    monkeypatch.setattr(connection.ControlBlock, "outer_step", counted_step)
    monkeypatch.setattr(kicked, "real_form", counted_form)
    for loop, cutoff in [(connection.CALIBRATION_RECT, 24),
                         (LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1)), 12)]:
        kicked.run_kicked(KickSchedule(loop, 128, cutoff=cutoff))
    # a rect runs in Q too: one step for its two outer-direction edges, on plane I's one
    # block and plane III's two (the odd one's complex, its G_o being complex), the
    # sector stacks and the dense dwell scattered from them, and no real form
    assert steps == [np.float64] * 2 + [np.complex128] and forms == []
    lazy = ("paired_basis", "paired_outer_vectors")
    for factory in factories.values():
        assert all(name in vars(block) for block in factory.blocks for name in lazy)
        assert all(list(kept) == ["sectors", "dense"] for kept in factory.dwells.values())
    # one axis-aligned edge and two tilted ones, on plane I's one block: one real
    # step per edge, the paired dwell's real form once, and the sector stack
    factories.clear()
    steps.clear()
    triangle = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.0), (0.05, 0.1))))
    kicked.run_kicked(KickSchedule(triangle, 128, cutoff=24))
    kicked.run_kicked(KickSchedule(triangle, 128, cutoff=24))
    assert steps == [np.float64] * 6 and forms == [(24, 24)]
    [factory] = factories.values()
    assert all(sorted(kept) == ["dense", "paired", "sectors"] for kept in factory.dwells.values())
    # plane II's steps are complex, and each goes through a real form; a loop of
    # tilted edges builds the sector stacks and the dense dwell too, as the paired
    # dwell's real form is taken from them
    steps.clear()
    forms.clear()
    factories.clear()
    triangle = LoopSpec(PlaneId.II, Polyline(((0.01, 0.005), (0.1, 0.03), (0.04, 0.08))))
    kicked.run_kicked(KickSchedule(triangle, 128, cutoff=24))
    assert steps == [np.complex128] * 3 and forms == [(24, 24)] * 4
    assert all(list(kept) == ["sectors", "dense", "paired"] for factory in factories.values()
               for kept in factory.dwells.values())
    # plane III's odd block is its U = +1 half: one real form of its dwell and one of each
    # tilted edge's complex step, both padded to width x width, and a real step on the
    # even block
    steps.clear()
    forms.clear()
    factories.clear()
    triangle = LoopSpec(PlaneId.III, Polyline(((0.02, 0.01), (0.13, 0.04), (0.08, 0.12))))
    kicked.run_kicked(KickSchedule(triangle, 128, cutoff=12))
    [factory] = factories.values()
    even, odd = factory.blocks
    width = kicked._row_width(odd)
    assert (even.index.size, odd.index.size, width) == (42, 36, 36)
    assert forms == [(42, 42)] + [(width, width)] * 4
    assert steps == [np.float64] * 3 + [np.complex128] * 3
    [[_, form]] = [kept["paired"] for kept in factory.dwells.values()]
    assert form.shape == (2 * width, 2 * width)


@pytest.mark.parametrize("count", [1, 2, 31, 64, 256])
@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 40), (PlaneId.II, 40), (PlaneId.III, 14)])
def test_stacked_inner_power_is_the_dense_power(plane, cutoff, count):
    factory = connection.frame_factory(plane, cutoff)
    dwells = kicked.sector_dwells(factory, kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)
    for block, (stack, partner, rates) in zip(factory.blocks, dwells):
        to_paired = paired_transform(block)
        code = to_paired @ block.code_eig
        # the kick of an inner-direction edge: I(-0.004), then the dwell, from V
        rotation = to_paired @ (np.exp(0.004j * block.values)[:, None] * to_paired.conj().T)
        kick = dense_sectors(stack, block) @ rotation
        turns = 0.004 * rates[:, None]
        stacked = stack * np.cos(turns) + partner * np.sin(turns)
        assert np.max(np.abs(dense_sectors(stacked, block) - kick)) < 1e-14
        power = lambda part: kicked._power_apply(stacked, count, part)  # noqa: E731
        got = kicked._by_sector(power, code, block.sector_columns)
        expected = kicked._power_apply(kick, count, code)
        assert np.max(np.abs(got - expected)) < 1e-12


def random_unitaries(rng, shape):
    """A stack of Haar-like unitaries: the Q factors of complex Gaussian matrices."""
    q, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    return q


# (kick shape, state shape) of the oracle kicks: plane III's odd block and its twin, one
# column each, and the even block's sector stack at cutoff 14, plane I's one 60-state
# block and its two sectors at 60
POWER_SHAPES = [((2, 49, 49), (2, 49, 1)), ((60, 60), (60, 2)), ((7, 14, 14), (7, 14, 2)),
                ((2, 30, 30), (2, 30, 2))]


@pytest.mark.parametrize("kick_shape,state_shape", POWER_SHAPES)
def test_power_apply_matches_binary_powering(kick_shape, state_shape):
    rng = np.random.default_rng(kick_shape[-1])
    kick = random_unitaries(rng, kick_shape)
    state = random_unitaries(rng, state_shape[:-1] + state_shape[-2:-1])[..., : state_shape[-1]]
    limit = max(2, kick_shape[-1] // (2 * state_shape[-1]))
    counts = {1, limit - 1, limit, limit + 1, 2 * limit + 1, 255, 333, 2, 16, 64, 256, 512}
    for count in sorted(c for c in counts if c >= 1):
        got = kicked._power_apply(kick, count, state)
        assert np.max(np.abs(got - binary_power(kick, count, state))) <= 1e-13, count


def test_power_apply_at_a_limit_of_two_is_binary_powering():
    rng = np.random.default_rng(5)
    kick, state = random_unitaries(rng, (7, 7)), random_unitaries(rng, (7, 7))[:, :4]
    for count in (1, 2, 3, 64, 333):
        expected = binary_power(kick, count, state)
        assert np.array_equal(kicked._power_apply(kick, count, state), expected)


@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 60), (PlaneId.III, 14)])
def test_sector_dwells_live_on_the_factory_and_act_sector_by_sector(plane, cutoff):
    factory = connection.FrameFactory(plane, cutoff)
    dwells = kicked.sector_dwells(factory, kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)
    assert kicked.sector_dwells(factory, kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T) is dwells
    assert list(factory.dwells) == [(kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)]
    chi, delta_t = kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T
    dwell = fock.kerr_phases(chi, delta_t, cutoff, factory.mode_count)
    for block, (stack, partner, rates) in zip(factory.blocks, dwells):
        assert not any(kept.flags.writeable for kept in (stack, partner, rates))
        basis, pair_rates = block.paired_basis
        n = block.index.size
        # Q^dag D Q is exactly zero between sectors, and the stack is it on each sector
        reference = (basis.conj().T * dwell[block.index]) @ basis
        within = np.zeros((n, n), dtype=bool)
        for places in block.sector_columns:
            within[np.ix_(places[places < n], places[places < n])] = True
        assert not np.any(reference[~within])
        assert np.max(np.abs(dense_sectors(stack, block) - reference)) <= 1e-14
        # the stack pads with I; both columns of a pair take its rate, the rest none,
        # and the partner takes each pair's columns (a, b) as (-b, a)
        for part, other, places, rate in zip(stack, partner, block.sector_columns, rates):
            size = np.count_nonzero(places < n)
            padding = part.copy()
            padding[:size, :size] = np.eye(size)
            assert np.array_equal(padding, np.eye(part.shape[0]))
            half = size // 2
            pairs = places[: 2 * half : 2] // 2
            assert np.array_equal(rate[: 2 * half], np.repeat(pair_rates[pairs], 2))
            assert not np.any(rate[2 * half :])
            assert np.array_equal(other[:, : 2 * half : 2], -part[:, 1 : 2 * half : 2])
            assert np.array_equal(other[:, 1 : 2 * half : 2], part[:, : 2 * half : 2])
    # an outer-direction kick takes the dwell dense, scattered from the stack, kept read-only
    dense = kicked.dense_dwells(factory, chi, delta_t)
    assert kicked.dense_dwells(factory, chi, delta_t) is dense
    for block, (stack, _, _), matrix in zip(factory.blocks, dwells, dense):
        assert not matrix.flags.writeable and np.array_equal(matrix, dense_sectors(stack, block))
    # another dwell replaces the kept one: the factory holds one dwell at a time
    kicked.sector_dwells(factory, 2.0 * kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)
    assert list(factory.dwells) == [(2.0 * kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)]


def test_inner_edges_are_powered_as_sector_stacks(monkeypatch):
    shapes, outer_steps = [], []
    original, outer_step = kicked._power_apply, connection.ControlBlock.outer_step

    def counted(kick, count, state):
        shapes.append(kick.shape)
        return original(kick, count, state)

    def counted_step(self, d_outer, inner=0.0):
        outer_steps.append(d_outer)
        return outer_step(self, d_outer, inner)

    monkeypatch.setattr(kicked, "_power_apply", counted)
    monkeypatch.setattr(connection.ControlBlock, "outer_step", counted_step)
    loop = LoopSpec(PlaneId.III, Rect(0.0, 0.1, 0.0, 0.1))
    kicked.run_kicked(KickSchedule(loop, 128, cutoff=12))
    factory = connection.frame_factory(PlaneId.III, 12)
    # per parity block, in the order of the edges: along r2 (the inner control),
    # along r3, back along r2, back along r3.  Each block is its U = +1 half, whose
    # sector stack is powered along r2; along r3 the odd block's kick and its
    # conjugate twin's are powered as one stack of two
    expected = []
    stacked = [(len(block.sectors),) + (block.sector_columns.shape[1],) * 2
               for block in factory.blocks]
    dense = [(len(block.signs),) * (len(block.signs) > 1) + (block.index.size,) * 2
             for block in factory.blocks]
    assert stacked == [(6, 12, 12), (6, 11, 11)] and dense == [(42, 42), (2, 36, 36)]
    for stack, outer in zip(stacked, dense):
        expected += [stack, outer, stack, outer]
    assert shapes == expected
    assert all(len(shape) == 3 and shape[1] <= 12 for shape in shapes[::2])
    # a mixed loop: along r2, along r3, then two tilted edges.  One power per
    # axis-aligned edge per block, and an outer step only for the r3 edge and
    # the tilted ones: never outer_step(0.0) for the inner-direction edge
    shapes.clear()
    outer_steps.clear()
    corners = ((0.0, 0.0), (0.1, 0.0), (0.1, 0.08), (0.04, 0.12))
    trapezoid = LoopSpec(PlaneId.III, Polyline(corners))
    kicked.run_kicked(KickSchedule(trapezoid, 128, cutoff=12))
    assert shapes == [shape for stack, outer in zip(stacked, dense) for shape in (stack, outer)]
    assert len(outer_steps) == 3 * len(factory.blocks) and 0.0 not in outer_steps


def test_kicks_do_not_depend_on_the_phase_batch(monkeypatch):
    # tilted edges read I's phases in tables of connection.MAGNUS_BATCH kicks
    loop = LoopSpec(PlaneId.I, Polyline(((0.0, 0.0), (0.12, 0.03), (0.05, 0.1))))
    kicks = 2000
    batch = connection.MAGNUS_BATCH
    counts = [run.count for run in loops.boundary_runs(loop, kicks)]
    assert any(count > batch and count % batch for count in counts)
    results = []
    for size in (1, 7, batch):
        monkeypatch.setattr(connection, "MAGNUS_BATCH", size)
        results.append(kicked.run_kicked(KickSchedule(loop, kicks, cutoff=40)))
    for other in results[:-1]:
        assert np.max(np.abs(other.code_map - results[-1].code_map)) <= 1e-13
        assert abs(other.leakage - results[-1].leakage) <= 1e-13


# U = P i^(n1 - n2) on the odd code pair (|10>, |01>): U|10> = i|01>, U|01> = -i|10>
ODD_CODE_SWAP = np.array([[0.0, -1j], [1j, 0.0]])

U_LOOPS = [
    pytest.param(Rect(0.02, 0.16, 0.03, 0.15), id="rect"),
    pytest.param(Polyline(((0.02, 0.01), (0.13, 0.04), (0.08, 0.12), (0.03, 0.1))), id="quad"),
    pytest.param(Polyline(((0.0, 0.0), (0.1, 0.0), (0.1, 0.08), (0.04, 0.12))), id="mixed"),
]


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@pytest.mark.parametrize("shape", U_LOOPS)
@pytest.mark.parametrize("cutoff", [13, 14])
def test_odd_block_maps_commute_with_u(shape, cutoff):
    # every kick and the transport commute with U, so both routes' odd-block maps do
    odd = [1, 3]
    for orientation in (1, -1):
        loop = LoopSpec(PlaneId.III, shape, orientation)
        kicked_map = kicked.run_kicked(KickSchedule(loop, 1024, cutoff=cutoff)).code_map
        transport = connection.holonomy_path_ordered(loop, cutoff, 2000).matrix
        for code_map in (kicked_map, transport):
            pair = code_map[np.ix_(odd, odd)]
            assert np.max(np.abs(ODD_CODE_SWAP @ pair - pair @ ODD_CODE_SWAP)) <= 1e-14


@pytest.mark.parametrize("cutoff", [13, 14])
def test_twin_power_is_the_dense_power(cutoff):
    # the odd block's outer-direction kick K = D R S R^dag and its twin's, D conj(R S R^dag),
    # powered as one stack on the code row, one column each: the whole odd block's dense
    # kick, both halves side by side, powered on its code columns (kicked._kicks' mix)
    factory = connection.frame_factory(PlaneId.III, cutoff)
    _, odd = factory.blocks
    [_, dwell] = kicked.dense_dwells(factory, kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)
    q, n = odd.paired_code, odd.index.size
    start = np.vstack([q @ odd.mix, q @ odd.mix.conj()])
    for d_outer, inner in [(0.0005, 0.0), (-0.0004, 0.07), (0.0011, 0.15)]:
        step = odd.outer_step(d_outer, inner)
        kicks = np.stack([dwell @ s for s in (step, step.conj())])
        whole = np.zeros((2 * n, 2 * n), dtype=complex)
        whole[:n, :n], whole[n:, n:] = kicks
        for count in (1, 2, 23, 24, 25, 64, 279, 333, 1000):
            expected = kicked._power_apply(whole, count, start)
            halves = kicked._power_apply(kicks, count, np.stack([q, q]))
            got = np.vstack([halves[0] @ odd.mix, halves[1] @ odd.mix.conj()])
            assert np.max(np.abs(got - expected)) <= 1e-15 * (count + 1), (d_outer, count)


def test_a_rect_builds_one_unturned_outer_step_per_block(monkeypatch):
    calls = []
    outer_step = connection.ControlBlock.outer_step

    def counted_step(self, d_outer, inner=0.0):
        calls.append((id(self), inner))
        return outer_step(self, d_outer, inner)

    monkeypatch.setattr(connection.ControlBlock, "outer_step", counted_step)
    for plane, cutoff in [(PlaneId.I, 24), (PlaneId.II, 24), (PlaneId.III, 12)]:
        for orientation in (1, -1):
            calls.clear()
            loop = LoopSpec(plane, Rect(0.01, 0.12, 0.02, 0.1), orientation)
            kicked.run_kicked(KickSchedule(loop, 256, cutoff=cutoff))
            blocks = connection.frame_factory(plane, cutoff).blocks
            assert calls == [(id(block), 0.0) for block in blocks]


def whole_block_form(block, factory):
    """The dwell's 2n x 2n real form on a whole block, on a 64-byte boundary as the kept ones."""
    basis, _ = block.paired_basis
    dwell = fock.kerr_phases(kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T, factory.cutoff,
                             factory.mode_count)
    return kicked._aligned(kicked.real_form(((basis.conj().T * dwell[block.index]) @ basis).T))


@pytest.mark.filterwarnings("ignore::hologate.exceptions.TruncationWarning")
@settings(max_examples=10, deadline=None)
@given(convex_polygons(planes=tuple(PlaneId)), st.sampled_from([1, -1]))
def test_tilted_loops_take_the_tilted_kernel_alone(loop, orientation):
    # a loop with no axis-aligned edge is kick by kick from Q^dag c on every block, bit for
    # bit with no turn of the columns and no shared step; on the odd block once from its
    # code row and once from its conjugate twin's, whose imaginary row is signed -1, both
    # padded to the row width, and the code map sums the two halves through their mixes
    loop = LoopSpec(loop.plane, loop.shape, orientation)
    cutoff = 12 if loop.plane is PlaneId.III else 24
    schedule = KickSchedule(loop, 128, cutoff=cutoff)
    result = kicked.run_kicked(schedule)
    factory = connection.frame_factory(loop.plane, cutoff)
    forms = kicked.paired_dwells(factory, schedule.chi, schedule.delta_t)
    runs = loops.boundary_runs(loop, 128)
    assert not any(run.axis_aligned for run in runs)
    for block, form in zip(factory.blocks, forms):
        basis, rates = block.paired_basis
        n, width, halves = basis.shape[1], kicked._row_width(block), len(block.signs)
        turning = np.zeros(width // 2)
        turning[: rates.size] = rates
        code = np.tile(block.paired_code, halves)
        signs = np.repeat(block.signs, block.paired_code.shape[1])
        rows = np.zeros((code.shape[1], 2 * width))
        rows[:, :n], rows[:, width : width + n] = code.T.real, code.T.imag
        for run in runs:
            (outer0, inner0), (outer1, inner1) = factory.split(*run.start), factory.split(*run.end)
            step = np.pad(block.outer_step((outer0 - outer1) / run.count), (0, width - n))
            kicked._tilted_edge(rows, step, form, turning, inner0, (inner1 - inner0) / run.count,
                                run.count, np.stack([np.ones(signs.size), signs], 1).ravel())
        state, code = (rows[:, :n] + 1j * rows[:, width : width + n]).T, block.paired_code
        if halves > 1:
            mixes = (block.mix, block.mix.conj())
            state = np.vstack([part @ mix for part, mix in zip(np.split(state, 2, axis=1), mixes)])
            code = np.vstack([code @ mix for mix in mixes])
        expected = connection.polar_unitary(code.conj().T @ state)
        assert np.array_equal(result.code_map[np.ix_(block.columns, block.columns)], expected)


def unsigned_tilted_edge(rows, step, dwell_form, rates, inner0, inner_step, count):
    """The tilted kernel with no signs, each kick on broadcast rows of the phase table."""
    columns, width = rows.shape
    n = width // 2
    ahead = np.empty_like(rows)
    halves, ahead_halves = rows.reshape(2 * columns, n), ahead.reshape(2 * columns, n)
    turned = 2 * rates.size
    pairs, ahead_pairs = (part[:, :turned].view(np.complex128) for part in (halves, ahead_halves))
    if np.isrealobj(step):
        source, matrix, target = halves, step.T, ahead_halves
    else:
        source, matrix, target = rows, kicked.real_form(step.T), ahead
    for start in range(0, count, connection.MAGNUS_BATCH):
        size = min(connection.MAGNUS_BATCH, count - start)
        table = connection.phase_table(-rates, inner0 + inner_step * start, inner_step, size + 1)
        back = np.conjugate(table[1:])
        for k in range(size):
            np.multiply(pairs, table[k], out=pairs)
            np.dot(source, matrix, out=target)
            np.multiply(ahead_pairs, back[k], out=ahead_pairs)
            np.dot(ahead, dwell_form, out=rows)


@pytest.mark.parametrize("count", [40, 300])
@pytest.mark.parametrize("plane,cutoff", [(PlaneId.I, 24), (PlaneId.II, 24), (PlaneId.III, 12)])
def test_tilted_kernel_signs_are_exact(plane, cutoff, count):
    # unit signs leave the kicks bit-equal to the unsigned loop, and a column whose
    # imaginary row is signed -1 takes conj(S): bit-equal to the unsigned loop on it
    factory = connection.frame_factory(plane, cutoff)
    rng = np.random.default_rng(cutoff + count)
    for block in factory.blocks:
        basis, rates = block.paired_basis
        n = basis.shape[1]
        form = whole_block_form(block, factory)
        step = block.outer_step(0.0007)
        steps = [step] if plane is PlaneId.II else [step, step * np.exp(0.3j)]
        start = rng.normal(size=(2, 2 * n))
        for step in steps:
            signed, unsigned = start.copy(), start.copy()
            kicked._tilted_edge(signed, step, form, rates, 0.02, 0.0004, count, np.ones(4))
            unsigned_tilted_edge(unsigned, step, form, rates, 0.02, 0.0004, count)
            assert np.array_equal(signed, unsigned)
            signed, unsigned = start.copy(), start.copy()
            kicked._tilted_edge(signed[1:], step, form, rates, 0.02, 0.0004, count,
                                np.array([1.0, -1.0]))
            unsigned_tilted_edge(unsigned[1:], step.conj(), form, rates, 0.02, 0.0004, count)
            assert np.array_equal(signed, unsigned)


def test_paired_dwell_forms_start_on_64_byte_boundaries():
    # a tilted kick reads the kept real form of the dwell; off a 64-byte boundary it
    # runs slower, and a copy in the other memory order would round differently.  It is
    # scattered from the sector stacks, bit for bit the dense Q^dag D Q, and on the odd
    # block, which has a conjugate twin, padded with zeros to a multiple of 4 (at cutoff
    # 13, 42 states stay 44 wide; at 12, 36 stay 36)
    for cutoff in (12, 13):
        factory = connection.FrameFactory(PlaneId.III, cutoff)
        forms = kicked.paired_dwells(factory, kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T)
        dwell = fock.kerr_phases(kicked.DEFAULT_CHI, kicked.DEFAULT_DELTA_T, cutoff, 2)
        widths = [kicked._row_width(block) for block in factory.blocks]
        assert widths == ([42, 36] if cutoff == 12 else [49, 44])
        for block, form, width in zip(factory.blocks, forms, widths):
            basis, _ = block.paired_basis
            within = np.zeros((basis.shape[0], width))
            within[:, : basis.shape[1]] = basis
            expected = kicked.real_form(((within.conj().T * dwell[block.index]) @ within).T)
            assert form.ctypes.data % 64 == 0 and not form.flags.writeable
            assert np.array_equal(form, expected) and form.strides == expected.strides
