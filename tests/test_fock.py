import math

import numpy as np
import pytest
from scipy.linalg import expm

from hologate import fock
from hologate.exceptions import TruncationWarning
from hologate.loops import PlaneId

from conftest import (
    chain_matrix,
    component_layout,
    kerr_dwell,
    kerr_hamiltonian,
    squeeze_generator,
    top_quartile_population,
    two_mode_squeeze_generator,
)


def displacement(lam, cutoff):
    return expm(fock.displacement_generator(lam, cutoff))


def squeeze(mu, cutoff):
    return expm(squeeze_generator(mu, cutoff))


def two_mode_mix(xi, cutoff):
    return expm(fock.two_mode_mix_generator(xi, cutoff))


def two_mode_squeeze(zeta, cutoff):
    return expm(two_mode_squeeze_generator(zeta, cutoff))


def test_annihilator_smallest_cutoffs():
    a2 = fock.annihilator(2)
    assert np.array_equal(a2, np.array([[0, 1], [0, 0]], dtype=complex))
    a3 = fock.annihilator(3)
    assert a3[0, 1] == 1.0
    assert a3[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(a3) == 2


def test_annihilator_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        fock.annihilator(1)


def test_number_operator_from_ladder_product():
    a = fock.annihilator(16)
    n_diag = np.diag(a.conj().T @ a).real
    assert np.allclose(n_diag, np.arange(16), atol=1e-14)


def test_displacement_identity_at_zero():
    assert np.allclose(displacement(0.0, 20), np.eye(20), atol=1e-14)


def test_displacement_vacuum_overlap():
    # <0|D(lam)|0> = exp(-|lam|^2 / 2)
    assert abs(displacement(0.3, 40)[0, 0] - math.exp(-0.045)) < 1e-8


def test_displacement_group_inverse():
    d_plus = displacement(0.3, 40)
    d_minus = displacement(-0.3, 40)
    low = (d_plus @ d_minus)[:10, :10]
    assert np.linalg.norm(low - np.eye(10)) < 1e-10


@pytest.mark.parametrize(
    "lam1,lam2",
    [(0.3, 0.2), (0.5, -0.4), (0.2 + 0.3j, -0.1 + 0.25j)],
)
def test_displacement_composition_up_to_phase(lam1, lam2):
    # D(a) D(b) = exp(i Im(a * conj(b))) D(a + b)
    cutoff = 40
    lhs = displacement(lam1, cutoff) @ displacement(lam2, cutoff)
    phase = np.exp(1j * (lam1 * np.conj(lam2)).imag)
    rhs = phase * displacement(lam1 + lam2, cutoff)
    block = cutoff // 4
    assert np.linalg.norm(lhs[:block, :block] - rhs[:block, :block]) < 1e-6


def test_squeeze_identity_at_zero():
    assert np.allclose(squeeze(0.0, 20), np.eye(20), atol=1e-14)


def test_squeeze_vacuum_overlap():
    # <0|S(r)|0> = (cosh 2r)^(-1/2) in the no-half convention
    expected = 1.0 / math.sqrt(math.cosh(0.4))
    assert abs(squeeze(0.2, 60)[0, 0] - expected) < 1e-6


def test_squeeze_group_inverse():
    s_plus = squeeze(0.2, 60)
    s_minus = squeeze(-0.2, 60)
    low = (s_plus @ s_minus)[:10, :10]
    assert np.linalg.norm(low - np.eye(10)) < 1e-8


def test_two_mode_mix_identity_at_zero():
    assert np.allclose(two_mode_mix(0.0, 8), np.eye(64), atol=1e-14)


def test_two_mode_mix_is_balanced_beam_splitter_at_quarter_pi():
    cutoff = 20
    n = two_mode_mix(math.pi / 4.0, cutoff)
    i10 = 1 * cutoff + 0
    i01 = 0 * cutoff + 1
    assert abs(abs(n[i01, i10]) - math.sin(math.pi / 4.0)) < 1e-8


def mode_numbers(cutoff):
    """(n1, n2) of each two-mode basis state, index n1*N + n2."""
    n = np.arange(cutoff, dtype=float)
    return np.repeat(n, cutoff), np.tile(n, cutoff)


def test_two_mode_mix_conserves_total_photon_number():
    cutoff = 12
    gen = fock.two_mode_mix_generator(0.7 + 0.2j, cutoff)
    n1, n2 = mode_numbers(cutoff)
    total = np.diag(n1 + n2)
    assert np.linalg.norm(gen @ total - total @ gen) < 1e-12


def test_two_mode_squeeze_identity_at_zero():
    assert np.allclose(two_mode_squeeze(0.0, 8), np.eye(64), atol=1e-14)


def test_two_mode_squeeze_vacuum_overlap():
    assert abs(two_mode_squeeze(0.2, 30)[0, 0] - 1.0 / math.cosh(0.2)) < 1e-6


def test_two_mode_squeeze_conserves_photon_number_difference():
    cutoff = 12
    gen = two_mode_squeeze_generator(0.4 - 0.3j, cutoff)
    n1, n2 = mode_numbers(cutoff)
    diff = np.diag(n1 - n2)
    assert np.linalg.norm(gen @ diff - diff @ gen) < 1e-12


@pytest.mark.parametrize("cutoff", [3, 14])
def test_two_mode_generators_equal_their_ladder_products(cutoff):
    # built as Kronecker products; pinned bit for bit to a1 = a (x) 1, a2 = 1 (x) a
    a = fock.annihilator(cutoff)
    eye = np.eye(cutoff, dtype=complex)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    d1, d2 = a1.conj().T, a2.conj().T
    for z in (1.0, 0.7 + 0.2j, -0.4 - 0.3j):
        mix = z * (d1 @ a2) - np.conj(z) * (a1 @ d2)
        squeeze = z * (d1 @ d2) - np.conj(z) * (a1 @ a2)
        assert np.array_equal(fock.two_mode_mix_generator(z, cutoff), mix)
        assert np.array_equal(two_mode_squeeze_generator(z, cutoff), squeeze)


@pytest.mark.parametrize(
    "builder,arg",
    [
        (fock.displacement_generator, 0.4 + 0.2j),
        (squeeze_generator, 0.3 - 0.1j),
        (fock.two_mode_mix_generator, 0.5 + 0.4j),
        (two_mode_squeeze_generator, -0.2 + 0.3j),
    ],
)
def test_generators_are_skew_hermitian(builder, arg):
    gen = builder(arg, 12)
    assert np.linalg.norm(gen + gen.conj().T) < 1e-12 * np.linalg.norm(gen)


LAYOUT_CASES = [(plane, cutoff) for plane in (PlaneId.I, PlaneId.II) for cutoff in (3, 30, 60)]
LAYOUT_CASES += [(PlaneId.III, cutoff) for cutoff in (3, 13, 14)]


@pytest.mark.parametrize("plane,cutoff", LAYOUT_CASES)
def test_inner_sectors_are_the_component_search_layout(plane, cutoff):
    # the blocks and their sectors, in the order the component search over the
    # dense patterns finds them, and each chain's entries below the diagonal, one per
    # state but the top one, bit-equal to its dense slice
    reference, inner = component_layout(plane, cutoff)
    mode_count = 2 if plane is PlaneId.III else 1
    layout = fock.inner_sectors(cutoff, mode_count, 1.0j if plane is PlaneId.II else 1.0)
    assert [[index.tolist() for index, _ in sectors] for sectors in layout] == [
        [index.tolist() for index in sectors] for sectors in reference
    ]
    for index, chain in (sector for sectors in layout for sector in sectors):
        assert chain.shape == (index.size - 1,)
        assert np.array_equal(chain_matrix(chain), inner[np.ix_(index, index)])
    # at any phase, too
    phase = 0.3 - 0.7j
    dense = (two_mode_squeeze_generator if mode_count == 2 else squeeze_generator)(phase, cutoff)
    for sectors in fock.inner_sectors(cutoff, mode_count, phase):
        for index, chain in sectors:
            assert np.array_equal(chain_matrix(chain), dense[np.ix_(index, index)])


@pytest.mark.parametrize("plane,cutoff", LAYOUT_CASES)
def test_code_chains_are_the_code_holding_inner_sectors(plane, cutoff):
    # the transport's chains, formed alone, are inner_sectors' own bit for bit, in its order
    mode_count = 2 if plane is PlaneId.III else 1
    code = fock.code_states(cutoff, mode_count)
    for phase in (1.0, 1.0j, 0.3 - 0.7j):
        layout = fock.inner_sectors(cutoff, mode_count, phase)
        holding = [(index, chain) for sectors in layout for index, chain in sectors
                   if np.any(code[index])]
        chains = fock.code_chains(cutoff, mode_count, phase)
        assert len(chains) == len(holding) == (3 if mode_count == 2 else 2)
        for (index, chain), (want_index, want_chain) in zip(chains, holding):
            assert np.array_equal(index, want_index)
            assert chain.dtype == want_chain.dtype and np.array_equal(chain, want_chain)


@pytest.mark.parametrize("plane,cutoff", LAYOUT_CASES)
def test_outer_entries_are_the_dense_generator_between_two_state_sets(plane, cutoff):
    # between every two code chains, the pair's included, and between scattered states
    mode_count = 2 if plane is PlaneId.III else 1
    if mode_count == 2:
        dense = fock.two_mode_mix_generator(1.0, cutoff)
    else:
        dense = fock.displacement_generator(1.0, cutoff)
    chains = [index for index, _ in fock.code_chains(cutoff, mode_count, 1.0)]
    rng = np.random.default_rng(cutoff)
    scattered = [np.sort(rng.choice(dense.shape[0], size=dense.shape[0] // 2, replace=False))
                 for _ in range(2)]
    for rows in chains + scattered:
        for columns in chains + scattered:
            block = fock.outer_entries(rows, columns, cutoff, mode_count)
            assert block.dtype == complex
            assert np.array_equal(block, dense[np.ix_(rows, columns)])


@pytest.mark.parametrize("mode_count,largest", [(1, 8192), (2, 4096)])
def test_chain_budget_refuses_the_first_cutoff_past_it(mode_count, largest):
    # 8 complex squares of the longest code chain within 2 GiB, 16 * 8 s^2 <= 2^31:
    # s = 4096, the chain n1 = n2 of c states on two modes and a parity of
    # ceil(c / 2) states on one
    fock.check_chain_budget(largest, mode_count)
    with pytest.raises(ValueError, match="code chains.*DENSE_BYTES_BUDGET"):
        fock.check_chain_budget(largest + 1, mode_count)
    # the kicked blocks keep the dense budget, which stops at 64 on two modes
    with pytest.raises(ValueError, match="dense matrices.*DENSE_BYTES_BUDGET"):
        fock.check_dense_budget(128, 2)


def test_kerr_hamiltonian_single_mode():
    h = kerr_hamiltonian(1.0, 4)
    assert np.allclose(np.diag(h).real, [0.0, 0.0, 2.0, 6.0], atol=1e-15)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_kerr_degenerate_subspace_single_mode():
    # H_kerr vanishes on exactly the code levels 0 and 1, which the echo dwell leaves as they are
    energies = np.diag(kerr_hamiltonian(1.0, 10)).real
    assert list(np.nonzero(energies == 0.0)[0]) == [0, 1]
    assert np.array_equal(fock.echo_dwell(10)[:2], [1.0, 1.0])


def test_kerr_degenerate_subspace_two_modes():
    cutoff = 3
    energies = np.diag(kerr_hamiltonian(1.0, cutoff, 2)).real
    zero_idx = set(np.nonzero(energies == 0.0)[0])
    code_idx = {n1 * cutoff + n2 for n1 in (0, 1) for n2 in (0, 1)}
    assert zero_idx == code_idx
    assert np.all(fock.echo_dwell(cutoff, 2)[sorted(code_idx)] == 1.0)


@pytest.mark.parametrize("mode_count", [1, 2])
def test_kerr_phases_are_the_dwell_of_the_hamiltonian(mode_count):
    # the echo dwell is exactly +-1: +, +, -, -, +, +, ... per mode, the product on two
    single = [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]
    expected = single if mode_count == 1 else np.multiply.outer(single, single).ravel()
    signs = fock.echo_dwell(8, mode_count)
    assert signs.dtype == np.float64 and np.array_equal(signs, expected)
    # and it is the diagonal of expm(-i (pi/2) H_kerr); the exponential's phase rounds
    # at about 1e-16 per unit of energy, so past cutoff 4 the bound scales with it
    for cutoff in (4, 8):
        reference = np.diag(kerr_dwell(math.pi / 2.0, cutoff, mode_count))
        energies = np.diag(kerr_hamiltonian(1.0, cutoff, mode_count)).real
        scale = 1.0 if cutoff == 4 else np.maximum(energies, 1.0)
        assert np.all(np.abs(fock.echo_dwell(cutoff, mode_count) - reference) <= 1e-15 * scale)


@pytest.mark.parametrize("mode_count", [1, 2])
def test_dense_budget_rejects_the_first_cutoff_past_it(mode_count):
    entries = fock.DENSE_BYTES_BUDGET // (16 * fock.DENSE_MATRICES)
    largest = math.isqrt(entries) if mode_count == 1 else math.isqrt(math.isqrt(entries))
    fock.check_dense_budget(largest, mode_count)
    with pytest.raises(ValueError, match="DENSE_BYTES_BUDGET"):
        fock.check_dense_budget(largest + 1, mode_count)


def test_propagator_rejects_non_skew_hermitian():
    hermitian = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    with pytest.raises(ValueError, match="skew-Hermitian"):
        fock.Propagator(hermitian)


def test_propagator_rejects_non_finite():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        fock.Propagator(bad)


@pytest.mark.parametrize("lam,mu", [(0.3, 0.0), (0.0, 0.25), (0.4, 0.2)])
def test_control_unitaries_on_lower_ladder(lam, mu):
    cutoff = 60
    u = displacement(lam, cutoff) @ squeeze(mu, cutoff)
    half = cutoff // 2
    defect = (u.conj().T @ u - np.eye(cutoff))[:half, :half]
    assert np.linalg.norm(defect) < 1e-8


def test_truncation_warning_fires_when_cutoff_too_small():
    # a displaced vacuum |2.5> puts about 0.4 of its population on levels 6, 7
    cols = displacement(2.5, 8) @ fock.code_states(8)
    population = top_quartile_population(cols, 8, 1)
    assert population > 0.1
    with pytest.warns(TruncationWarning):
        fock.warn_if_truncated(population, "displacement(lam=2.5)")
