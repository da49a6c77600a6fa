"""Truncated Fock-space representation of bosonic operators and their exponentials.

Single-mode operators live on the levels 0..N-1; two-mode operators on the
N^2-dimensional product space with basis index n1*N + n2.  All unitaries are
built by exponentiating skew-Hermitian generators, so they are exact unitaries
of the *truncated* generator; how faithfully they represent the untruncated
operator is monitored through the top-quartile population budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import TruncationWarning

# Population allowed in the top quartile of Fock levels before an operator
# application stops being trusted.
TOP_QUARTILE_BUDGET = 1e-8

# Bytes of dense complex cutoff**mode_count-square matrices that one frame
# factory may hold (DENSE_MATRICES of them, at 16 bytes an entry).
DENSE_BYTES_BUDGET = 2 * 1024**3
DENSE_MATRICES = 8

# Ordered two-mode code basis: {|00>, |10>, |11>, |01>}.
TWO_MODE_CODE_ORDER = ((0, 0), (1, 0), (1, 1), (0, 1))


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex matrix acting on a truncated Fock space.

    Parameters
    ----------
    cutoff : int
        Number of retained Fock levels per mode (levels 0..cutoff-1).
    matrix : ndarray
        Dense complex matrix of shape (cutoff**mode_count,)*2.
    mode_count : int
        1 for a single mode, 2 for the product of two modes.
    """

    cutoff: int
    matrix: np.ndarray
    mode_count: int = 1

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError(f"cutoff must be at least 2, got {self.cutoff}")
        if self.mode_count not in (1, 2):
            raise ValueError(f"mode_count must be 1 or 2, got {self.mode_count}")
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.cutoff ** self.mode_count
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match dimension {dim}")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ControlPoint:
    """Point in the eight-real-parameter control manifold.

    lambda = x + i*y (displacement), mu = r1*exp(i*theta1) (squeeze),
    zeta = r2*exp(i*theta2) (two-mode squeeze), xi = r3*exp(i*theta3)
    (two-mode mix).  Amplitudes are non-negative; phases are stored
    modulo 2*pi.
    """

    x: float = 0.0
    y: float = 0.0
    r1: float = 0.0
    theta1: float = 0.0
    r2: float = 0.0
    theta2: float = 0.0
    r3: float = 0.0
    theta3: float = 0.0

    def __post_init__(self):
        for name in ("r1", "r2", "r3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("theta1", "theta2", "theta3"):
            object.__setattr__(self, name, float(getattr(self, name)) % (2 * math.pi))


def annihilator(cutoff: int) -> TruncatedOperator:
    """Single-mode annihilation operator a with a[n-1, n] = sqrt(n)."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    mat = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
    return TruncatedOperator(cutoff, mat)


def mode_operators(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Two-mode annihilators (a1, a2) on the N^2 product space, index n1*N + n2."""
    a = annihilator(cutoff).matrix
    eye = np.eye(cutoff, dtype=complex)
    return np.kron(a, eye), np.kron(eye, a)


def code_states(cutoff: int, mode_count: int = 1) -> np.ndarray:
    """Columns holding the code basis: {|0>, |1>} or {|00>, |10>, |11>, |01>}."""
    if mode_count == 1:
        cols = np.zeros((cutoff, 2), dtype=complex)
        cols[0, 0] = 1.0
        cols[1, 1] = 1.0
        return cols
    dim = cutoff * cutoff
    cols = np.zeros((dim, 4), dtype=complex)
    for j, (n1, n2) in enumerate(TWO_MODE_CODE_ORDER):
        cols[n1 * cutoff + n2, j] = 1.0
    return cols


def _top_quartile_mask(cutoff: int, mode_count: int) -> np.ndarray:
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


def check_dense_budget(cutoff: int, mode_count: int) -> None:
    """Reject cutoffs whose dense operators would exceed DENSE_BYTES_BUDGET, before allocating."""
    needed = DENSE_MATRICES * cutoff ** (2 * mode_count) * 16
    if needed > DENSE_BYTES_BUDGET:
        raise ValueError(
            f"cutoff {cutoff} on {mode_count} mode(s) needs about {needed:.1e} bytes of dense "
            f"matrices, above the budget of {DENSE_BYTES_BUDGET:.1e} (fock.DENSE_BYTES_BUDGET)"
        )


def top_quartile_population(cols: np.ndarray, cutoff: int, mode_count: int) -> float:
    """Worst population in the top quartile of Fock levels over the columns of cols."""
    mask = _top_quartile_mask(cutoff, mode_count)
    return float(np.max(np.sum(np.abs(cols[mask, :]) ** 2, axis=0)))


def truncation_defect(op: TruncatedOperator) -> float:
    """Worst top-quartile population over the code states after applying op."""
    out = op.matrix @ code_states(op.cutoff, op.mode_count)
    return top_quartile_population(out, op.cutoff, op.mode_count)


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
    """exp(t * G) for a fixed skew-Hermitian G, through one cached eigh.

    G = -iH with H Hermitian, so exp(t * G) = V exp(-i t w) V^dag is unitary to
    machine precision for every t.
    """

    def __init__(self, generator: np.ndarray):
        if not np.all(np.isfinite(generator)):
            raise ValueError("generator has non-finite entries")
        if np.linalg.norm(generator + generator.conj().T) > 1e-12 * np.linalg.norm(generator):
            raise ValueError("generator is not skew-Hermitian")
        self.values, self.vectors = np.linalg.eigh(1j * generator)

    def matrix(self, t: float) -> np.ndarray:
        """exp(t * G) as a dense matrix."""
        return (self.vectors * np.exp(-1j * t * self.values)[None, :]) @ self.vectors.conj().T


def invariant_blocks(pattern: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    """Basis indices of the invariant blocks of a nonzero pattern that the columns touch.

    The blocks are the connected components of the pattern read as an
    undirected graph: the sectors of a number that every matrix with that
    pattern conserves, such as parity or n1 - n2.  Ordered by their first
    index that a column touches.
    """
    dim = pattern.shape[0]
    linked = pattern | pattern.T
    covered = np.zeros(dim, dtype=bool)
    blocks = []
    for seed in np.nonzero(np.any(cols != 0, axis=1))[0]:
        if covered[seed]:
            continue
        block = np.zeros(dim, dtype=bool)
        block[seed] = True
        frontier = block
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~block
            block |= frontier
        covered |= block
        blocks.append(np.nonzero(block)[0])
    return blocks


def matrix_exponential(generator: TruncatedOperator) -> TruncatedOperator:
    """exp(G) of a skew-Hermitian generator; anything else raises ValueError."""
    exp_mat = Propagator(generator.matrix).matrix(1.0)
    return TruncatedOperator(generator.cutoff, exp_mat, generator.mode_count)


def displacement_generator(lam: complex, cutoff: int) -> TruncatedOperator:
    """lam*a^dag - conj(lam)*a."""
    a = annihilator(cutoff).matrix
    return TruncatedOperator(cutoff, lam * a.conj().T - np.conj(lam) * a)


def displacement(lam: complex, cutoff: int) -> TruncatedOperator:
    """D(lam) = exp(lam*a^dag - conj(lam)*a)."""
    op = matrix_exponential(displacement_generator(lam, cutoff))
    warn_if_truncated(truncation_defect(op), f"displacement(lam={lam})")
    return op


def squeeze_generator(mu: complex, cutoff: int) -> TruncatedOperator:
    """mu*(a^dag)^2 - conj(mu)*a^2 (no 1/2 factor in this convention)."""
    a = annihilator(cutoff).matrix
    adag = a.conj().T
    return TruncatedOperator(cutoff, mu * (adag @ adag) - np.conj(mu) * (a @ a))


def squeeze(mu: complex, cutoff: int) -> TruncatedOperator:
    """S(mu) = exp(mu*(a^dag)^2 - conj(mu)*a^2)."""
    op = matrix_exponential(squeeze_generator(mu, cutoff))
    warn_if_truncated(truncation_defect(op), f"squeeze(mu={mu})")
    return op


def two_mode_mix_generator(xi: complex, cutoff: int) -> TruncatedOperator:
    """xi*a1^dag*a2 - conj(xi)*a1*a2^dag; commutes with n1+n2."""
    a1, a2 = mode_operators(cutoff)
    mat = xi * (a1.conj().T @ a2) - np.conj(xi) * (a1 @ a2.conj().T)
    return TruncatedOperator(cutoff, mat, mode_count=2)


def two_mode_mix(xi: complex, cutoff: int) -> TruncatedOperator:
    """N(xi) = exp(xi*a1^dag*a2 - conj(xi)*a1*a2^dag), a beam-splitter-like coupling."""
    op = matrix_exponential(two_mode_mix_generator(xi, cutoff))
    warn_if_truncated(truncation_defect(op), f"two_mode_mix(xi={xi})")
    return op


def two_mode_squeeze_generator(zeta: complex, cutoff: int) -> TruncatedOperator:
    """zeta*a1^dag*a2^dag - conj(zeta)*a1*a2; commutes with n1-n2."""
    a1, a2 = mode_operators(cutoff)
    mat = zeta * (a1.conj().T @ a2.conj().T) - np.conj(zeta) * (a1 @ a2)
    return TruncatedOperator(cutoff, mat, mode_count=2)


def two_mode_squeeze(zeta: complex, cutoff: int) -> TruncatedOperator:
    """M(zeta) = exp(zeta*a1^dag*a2^dag - conj(zeta)*a1*a2)."""
    op = matrix_exponential(two_mode_squeeze_generator(zeta, cutoff))
    warn_if_truncated(truncation_defect(op), f"two_mode_squeeze(zeta={zeta})")
    return op


def _kerr_energies(chi: float, cutoff: int, mode_count: int) -> np.ndarray:
    """Diagonal of the Kerr Hamiltonian chi*n(n-1) per mode, in product-basis order."""
    if chi <= 0:
        raise ValueError(f"chi must be positive, got {chi}")
    if mode_count not in (1, 2):
        raise ValueError(f"mode_count must be 1 or 2, got {mode_count}")
    n = np.arange(cutoff, dtype=float)
    single = chi * n * (n - 1.0)
    return single if mode_count == 1 else np.add.outer(single, single).reshape(-1)


def kerr_hamiltonian(chi: float, cutoff: int, mode_count: int = 1) -> TruncatedOperator:
    """Kerr Hamiltonian chi*n(n-1) per mode; zero exactly on levels 0 and 1.

    There is no cross term between the modes: the four states |00>, |01>,
    |10>, |11> must stay exactly degenerate at eigenvalue 0.
    """
    energies = _kerr_energies(chi, cutoff, mode_count).astype(complex)
    return TruncatedOperator(cutoff, np.diag(energies), mode_count)


def kerr_phases(chi: float, delta_t: float, cutoff: int, mode_count: int = 1) -> np.ndarray:
    """Diagonal of exp(-i*H_kerr*delta_t) as a vector, for fast dwell application."""
    return np.exp(-1j * delta_t * _kerr_energies(chi, cutoff, mode_count))
