"""Truncated Fock-space representation of the bosonic control generators.

Operators are complex ndarrays.  Single-mode operators live on the levels
0..N-1; two-mode operators on the N^2-dimensional product space with basis
index n1*N + n2.  The outer generators (displacement, two-mode mix) are
dense, the mix built as Kronecker products of the single-mode ladders, or
read entry by entry between two sets of states (outer_entries).  The inner
ones (squeeze, two-mode squeeze) only as the entries below the diagonal of
their tridiagonal chains, sector by sector (inner_sectors, code_chains).
Unitaries are never built here: the routes exponentiate the skew-Hermitian
generators through their eigenpairs (Propagator's eigh of the outer one, a
real SVD per chain of the inner one, connection._sector), so they are exact
unitaries of the *truncated* generator; how faithfully they represent the
untruncated operator is monitored through the top-quartile population budget.
"""

from __future__ import annotations

import warnings

import numpy as np

from .exceptions import TruncationWarning

# Population allowed in the top quartile of Fock levels before an operator
# application stops being trusted.
TOP_QUARTILE_BUDGET = 1e-8

# Bytes of complex matrices that one frame factory's part may hold (DENSE_MATRICES
# of them, at 16 bytes an entry): cutoff**mode_count-square ones for the kicked
# blocks, ones the square of the longest code chain for the transport.
DENSE_BYTES_BUDGET = 2 * 1024**3
DENSE_MATRICES = 8

# Ordered two-mode code basis: {|00>, |10>, |11>, |01>}.
TWO_MODE_CODE_ORDER = ((0, 0), (1, 0), (1, 1), (0, 1))


def annihilator(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator a with a[n-1, n] = sqrt(n)."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)


def code_places(cutoff: int, mode_count: int = 1) -> np.ndarray:
    """The Fock indices of the code states, in code_states' column order."""
    if mode_count == 1:
        return np.array([0, 1])
    return np.array([n1 * cutoff + n2 for n1, n2 in TWO_MODE_CODE_ORDER])


def code_states(cutoff: int, mode_count: int = 1) -> np.ndarray:
    """Columns holding the code basis: {|0>, |1>} or {|00>, |10>, |11>, |01>}."""
    places = code_places(cutoff, mode_count)
    cols = np.zeros((cutoff**mode_count, places.size), dtype=complex)
    cols[places, np.arange(places.size)] = 1.0
    return cols


def top_quartile_mask(cutoff: int, mode_count: int) -> np.ndarray:
    """Boolean mask selecting basis states with any mode in its top quartile."""
    lo = (3 * cutoff) // 4
    if mode_count == 1:
        return np.arange(cutoff) >= lo
    n1 = np.repeat(np.arange(cutoff), cutoff)
    n2 = np.tile(np.arange(cutoff), cutoff)
    return (n1 >= lo) | (n2 >= lo)


def check_code_below_top_quartile(cutoff: int) -> None:
    """Reject cutoffs whose top quartile reaches the code levels 0 and 1."""
    if (3 * cutoff) // 4 < 2:
        raise ValueError(
            f"cutoff {cutoff} is too small: the code levels 0 and 1 must sit below "
            "the top quartile of Fock levels; use a cutoff of at least 3"
        )


def _check_bytes(needed: int, cutoff: int, mode_count: int, what: str) -> None:
    if needed > DENSE_BYTES_BUDGET:
        raise ValueError(
            f"cutoff {cutoff} on {mode_count} mode(s) needs about {needed:.1e} bytes of {what}, "
            f"above the budget of {DENSE_BYTES_BUDGET:.1e} (fock.DENSE_BYTES_BUDGET)"
        )


def check_dense_budget(cutoff: int, mode_count: int) -> None:
    """Reject cutoffs whose dense operators would exceed DENSE_BYTES_BUDGET, before allocating."""
    needed = DENSE_MATRICES * cutoff ** (2 * mode_count) * 16
    _check_bytes(needed, cutoff, mode_count, "dense matrices")


def check_chain_budget(cutoff: int, mode_count: int) -> None:
    """Reject cutoffs whose code chains would exceed DENSE_BYTES_BUDGET, before allocating.

    The longest code chain holds `cutoff` states on two modes (n1 = n2) and
    half of them on one.  The transport's chains' real eigenvectors and G_o
    between its pair with the pair's kept blocks peak at 5 complex matrices
    that chain's size squared (tracemalloc), within DENSE_MATRICES.
    """
    size = cutoff if mode_count == 2 else (cutoff + 1) // 2
    _check_bytes(DENSE_MATRICES * size**2 * 16, cutoff, mode_count, "code chains")


def warn_if_truncated(population: float, label: str) -> None:
    """TruncationWarning when a top-quartile population exceeds the trust budget."""
    if population > TOP_QUARTILE_BUDGET:
        warnings.warn(
            f"{label}: top-quartile population {population:.3e} exceeds "
            f"{TOP_QUARTILE_BUDGET:.0e}; raise the cutoff to trust this result",
            TruncationWarning,
            stacklevel=3,
        )


class Propagator:
    """exp(t * G) for a fixed skew-Hermitian G, as the eigenpairs of one eigh.

    G = -iH with H Hermitian, so exp(t * G) = V exp(-i t w) V^dag, with w the
    `values` and V the `vectors`, is unitary to machine precision for every t.
    """

    def __init__(self, generator: np.ndarray):
        if not np.all(np.isfinite(generator)):
            raise ValueError("generator has non-finite entries")
        if np.linalg.norm(generator + generator.conj().T) > 1e-12 * np.linalg.norm(generator):
            raise ValueError("generator is not skew-Hermitian")
        self.values, self.vectors = np.linalg.eigh(1j * generator)


def displacement_generator(lam: complex, cutoff: int) -> np.ndarray:
    """lam*a^dag - conj(lam)*a."""
    a = annihilator(cutoff)
    return lam * a.conj().T - np.conj(lam) * a


def two_mode_mix_generator(xi: complex, cutoff: int) -> np.ndarray:
    """xi*a1^dag*a2 - conj(xi)*a1*a2^dag; commutes with n1+n2.

    a1 = a (x) 1 and a2 = 1 (x) a, so a1^dag a2 = a^dag (x) a: a Kronecker
    product of the single-mode ladders, with no N^2-square matrix product.
    """
    a = annihilator(cutoff)
    adag = a.conj().T
    return xi * np.kron(adag, a) - np.conj(xi) * np.kron(a, adag)


def outer_entries(
    rows: np.ndarray, columns: np.ndarray, cutoff: int, mode_count: int
) -> np.ndarray:
    """The outer generator G_o between the Fock states `rows` and `columns`, with no dense G_o.

    G_o = a^dag - a on one mode (displacement_generator at 1) and
    a1^dag a2 - a1 a2^dag on two (two_mode_mix_generator at 1): each column
    state m links to at most two states, m + 1 and m - 1 on one mode and
    (m1 + 1, m2 - 1) and (m1 - 1, m2 + 1) on two, with the entries
    sqrt(m + 1) and -sqrt(m), or sqrt(m1 + 1) sqrt(m2) and -sqrt(m1) sqrt(m2 + 1).
    Each is formed as the dense ladders form it, a root or a product of two,
    so it is bit-equal to the dense generator's.
    """
    root = np.sqrt(np.arange(1, cutoff + 1, dtype=float))  # root[n - 1] = sqrt(n)
    if mode_count == 1:
        links = [
            (columns + 1, columns + 1 < cutoff, root[columns]),
            (columns - 1, columns >= 1, -root[columns - 1]),
        ]
    else:
        m1, m2 = np.divmod(columns, cutoff)
        links = [
            (columns + cutoff - 1, (m1 + 1 < cutoff) & (m2 >= 1), root[m1] * root[m2 - 1]),
            (columns - cutoff + 1, (m1 >= 1) & (m2 + 1 < cutoff), -(root[m1 - 1] * root[m2])),
        ]
    place = np.full(cutoff**mode_count, -1)
    place[rows] = np.arange(rows.size)
    block = np.zeros((rows.size, columns.size), dtype=complex)
    for target, valid, entry in links:
        row = place[np.where(valid, target, 0)]
        linked = valid & (row >= 0)
        block[row[linked], np.flatnonzero(linked)] = entry[linked]
    return block


def _level_sets(key: np.ndarray, index: np.ndarray) -> list[np.ndarray]:
    """`index` split by `key`, each part in index order, the parts by their lowest index."""
    values, first = np.unique(key, return_index=True)
    return [index[key == value] for value in values[np.argsort(first)]]


def _chain(first: np.ndarray, second: np.ndarray, phase: complex) -> np.ndarray:
    """G_i's entries below a chain's diagonal, from (m1, m2) at each state but the top one."""
    return phase * (np.sqrt(first + 1.0) * np.sqrt(second + 1.0)).astype(complex)


def inner_sectors(
    cutoff: int, mode_count: int, phase: complex
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """The sectors of the inner generator G_i, block by block, as (Fock indices, chain entries).

    G_i = phase K^dag - conj(phase) K, with K^dag = (a^dag)^2 on one mode (the
    squeeze) and a1^dag a2^dag on two (the two-mode squeeze).  The blocks are
    the level sets of what both controls conserve: the whole space on one
    mode, the parity of n1 + n2 on two (even block first); each holds code
    states.  A block's sectors are the level sets of G_i's own number, the
    parity of n or n1 - n2, ordered by their lowest index.  Each sector is a
    chain that K^dag climbs, an su(1,1) ladder on which G_i is tridiagonal
    with a zero diagonal, handed over as its entries below the diagonal:
    K^dag has sqrt(m1 + 1) sqrt(m2 + 1) there at the lower state, (m1, m2) =
    (n, n + 1) on one mode and (n1, n2) on two.  As a product of two roots,
    the way a^dag a^dag and the Kronecker products form it, every entry is
    bit-equal to the dense generator's; no dense G_i is built.
    """
    n = np.arange(cutoff)
    if mode_count == 1:
        first, second, block, chain = n, n + 1, np.zeros(cutoff, dtype=int), n % 2
    else:
        first, second = np.repeat(n, cutoff), np.tile(n, cutoff)
        block, chain = (first + second) % 2, first - second
    layout = []
    for part in _level_sets(block, np.arange(block.size)):
        sectors = []
        for index in _level_sets(chain[part], part):
            lower = index[:-1]
            sectors.append((index, _chain(first[lower], second[lower], phase)))
        layout.append(sectors)
    return layout


def code_chains(
    cutoff: int, mode_count: int, phase: complex
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sectors of inner_sectors that hold code states, in its order, each formed alone.

    On one mode both parity chains; on two the chains n1 - n2 = 0 (|00> and
    |11>, in the even block), then -1 (|01>) and +1 (|10>), the odd block's
    two lowest.  Their Fock indices and entries are inner_sectors' own, and
    no other chain, nor anything of the whole space's size, is formed.
    """
    n = np.arange(cutoff)
    if mode_count == 1:
        rungs = [(n[parity::2], n[parity::2] + 1, n[parity::2]) for parity in (0, 1)]
    else:  # (n1, n2) along the chain, and its Fock indices
        rungs = [(a, b, a * cutoff + b) for a, b in ((n, n), (n[:-1], n[1:]), (n[1:], n[:-1]))]
    return [(index, _chain(first[:-1], second[:-1], phase)) for first, second, index in rungs]


def swap_symmetric_half(
    sectors: list[tuple[np.ndarray, np.ndarray]], cutoff: int
) -> tuple[list[tuple[np.ndarray, np.ndarray]], tuple[np.ndarray, np.ndarray]]:
    """The U = +1 half of a parity block on two modes, as its kept sectors and the rows' partners.

    U = P i^(n1 - n2), P the swap of the two modes, commutes with the two-mode
    squeeze, the mix and the Kerr dwell, and U^2 = 1.  On either parity
    block of `sectors` (one block of inner_sectors) the n1 - n2 = d chains
    with d >= 0 (even block) or d < 0 (odd block) are a basis of the U = +1
    half: |n, n> alone on d = 0, and h = (|a, b> + i^(a - b) |b, a>)/sqrt 2
    for each |a, b> of a kept chain, held at the Fock index of |a, b>; on the
    even block i^(a - b) is (-1)^(d/2).  The squeeze's chain at -d is the
    one at d, so the kept chains are unchanged, and so are the Kerr phases
    and the top-quartile mask read at their indices.  Returns the kept
    chains and (images, phases): for each row of the kept indices laid one
    after another, the Fock index of |b, a> and i^(a - b), or its own index
    and 0 for |n, n>.
    """
    firsts = (divmod(int(index[0]), cutoff) for index, _ in sectors)
    d = [a - b for a, b in firsts]
    kept = [sector for sector, k in zip(sectors, d) if (k >= 0 if k % 2 == 0 else k < 0)]
    first, second = np.divmod(np.concatenate([index for index, _ in kept]), cutoff)
    phases = np.array([1.0, 1.0j, -1.0, -1.0j])[(first - second) % 4]
    phases[first == second] = 0.0
    return kept, (second * cutoff + first, phases)


def _kerr_energies(chi: float, cutoff: int, mode_count: int) -> np.ndarray:
    """Diagonal of the Kerr Hamiltonian chi*n(n-1) per mode, in product-basis order."""
    if chi <= 0:
        raise ValueError(f"chi must be positive, got {chi}")
    if mode_count not in (1, 2):
        raise ValueError(f"mode_count must be 1 or 2, got {mode_count}")
    n = np.arange(cutoff, dtype=float)
    single = chi * n * (n - 1.0)
    return single if mode_count == 1 else np.add.outer(single, single).reshape(-1)


def kerr_phases(chi: float, delta_t: float, cutoff: int, mode_count: int = 1) -> np.ndarray:
    """Diagonal of exp(-i*H_kerr*delta_t) as a vector, for fast dwell application."""
    return np.exp(-1j * delta_t * _kerr_energies(chi, cutoff, mode_count))
