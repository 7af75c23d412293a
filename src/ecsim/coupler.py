"""Two-mode linear couplers on truncated Fock space.

The Heisenberg action fixes every convention in the package: mode operators
transform by

    a -> cos(theta) a + e^{-i phi} sin(theta) b
    b -> -e^{i phi} sin(theta) a + cos(theta) b

so a two-mode coherent product |alpha, beta> maps to the coherent product with
amplitudes M(theta, phi) @ (alpha, beta).

On the N-photon sector, indexed by k = photons in mode a, the coupler is
exp(G) with G = theta (e^{-i phi} L - e^{i phi} L^T) and L = a^dag b, whose
only entries are L[k+1, k] = sqrt((k+1)(N-k)). Total photon number is
conserved, so that block is all there is. Two routes compute it and share no
code. `coupler_block` uses G = -i theta D T D^dag, where
D = diag(e^{-i phi k} i^k) and T is the real symmetric tridiagonal matrix with
zero diagonal and off-diagonal sqrt((k+1)(N-k)). T = -S^dag (2 J_y) S with
S = diag(i^k) and J_y the Schwinger generator, so its spectrum is exactly the
integers -N, -N+2, ..., N. The route diagonalises T with numpy's symmetric
eigensolver (`np.linalg.eigh`), rounds the eigenvalues to those integers and
forms U = D W diag(e^{-i theta m}) W^T D^dag (Feng, Wang, Yang & Jin, PRE 92,
043307 (2015)). `oracle_block` builds G in its own loop and exponentiates it
with scipy's `expm`, imported only when the oracle runs; it is the test
reference. Both routes start from the same sector Hamiltonian, so the sign
and phase convention is pinned separately by checks that go through
`heisenberg_matrix`: coherent covariance and the commuting diagram with the
phase-circle route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizingError, ValidationError
from .fock import BASIS_SIZE_CAP, FockVector, ModeShape, tensor, vacuum

BLOCK_PHOTON_CAP = 4096


@dataclass(frozen=True)
class CouplerParams:
    """Coupling angle theta in [0, pi/2] and relative phase phi in [0, 2 pi).

    theta = pi/4 is the 50/50 splitter. Angles outside the canonical range
    reduce to it by the symmetries U(-theta, phi) = U(theta, phi + pi) and
    2 pi periodicity; they are rejected rather than silently mapped.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2 + 1e-15:
            raise ValidationError(
                f"theta={self.theta} outside canonical range [0, pi/2]; "
                "reduce by U(-theta, phi) = U(theta, phi+pi) and 2pi periodicity"
            )
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))


@dataclass(frozen=True)
class BlockUnitary:
    """Unitary on the span of {|k, N-k>, k = 0..N}, indexed by k."""

    total_photon_number: int
    matrix: np.ndarray

    def __post_init__(self):
        N = self.total_photon_number
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (N + 1, N + 1):
            raise ValidationError("block matrix has wrong dimension")
        defect = np.abs(m.conj().T @ m - np.eye(N + 1)).max()
        if defect > 1e-10:
            raise ValidationError(f"block not unitary: defect {defect:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def heisenberg_matrix(params: CouplerParams) -> np.ndarray:
    """2x2 special-unitary matrix acting on the mode operators (det = 1)."""
    c, s = math.cos(params.theta), math.sin(params.theta)
    ep = np.exp(1j * params.phi)
    return np.array([[c, s / ep], [-s * ep, c]], dtype=np.complex128)


_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])


@lru_cache(maxsize=4096)
def _coupler_block_cached(theta: float, phi: float, N: int) -> BlockUnitary:
    k = np.arange(N + 1)
    off = np.sqrt(k[1:] * (N + 1.0 - k[1:]))
    m, W = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rotation = (W * np.exp(-1j * theta * np.rint(m))) @ W.T
    d = np.exp(-1j * phi * k) * _I_POWERS[k % 4]
    return BlockUnitary(N, d[:, None] * rotation * d.conj()[None, :])


def coupler_block(params: CouplerParams, N: int) -> BlockUnitary:
    """Sector unitary from the exact spectrum of the sector's J_y."""
    if N < 0:
        raise ValidationError("photon number must be nonnegative")
    if N > BLOCK_PHOTON_CAP:
        raise SizingError(f"sector photon number {N} exceeds cap {BLOCK_PHOTON_CAP}")
    return _coupler_block_cached(float(params.theta), float(params.phi), int(N))


def oracle_block(params: CouplerParams, N: int) -> BlockUnitary:
    """Sector unitary by exponentiating the sector Hamiltonian (test oracle)."""
    from scipy.linalg import expm  # only the oracle needs scipy

    if N < 0:
        raise ValidationError("photon number must be nonnegative")
    if N > BLOCK_PHOTON_CAP:
        raise SizingError(f"sector photon number {N} exceeds cap {BLOCK_PHOTON_CAP}")
    if N == 0:
        return BlockUnitary(0, np.ones((1, 1), dtype=np.complex128))
    G = np.zeros((N + 1, N + 1), dtype=np.complex128)
    th, ph = params.theta, params.phi
    for k in range(N + 1):
        if k + 1 <= N:
            G[k + 1, k] += th * np.exp(-1j * ph) * math.sqrt((k + 1) * (N - k))
        if k - 1 >= 0:
            G[k - 1, k] -= th * np.exp(1j * ph) * math.sqrt(k * (N - k + 1))
    return BlockUnitary(N, expm(G))


def apply_coupler(
    state: FockVector,
    mode_pair: tuple[int, int],
    params: CouplerParams,
) -> FockVector:
    """Apply the coupler to two modes, sector by sector in their joint photon
    number.

    Sectors that do not fit inside both cutoffs lose the amplitude that the
    unitary sends past a cutoff (hard truncation); within fully representable
    sectors the map is exactly unitary.
    """
    i, j = mode_pair
    K = state.shape.mode_count
    if i == j or not (0 <= i < K and 0 <= j < K):
        raise ValidationError(f"invalid mode pair {mode_pair}")
    psi = np.ascontiguousarray(np.moveaxis(state.amplitudes, (i, j), (0, 1)))
    ci, cj = psi.shape[0] - 1, psi.shape[1] - 1
    out = np.zeros(psi.shape, dtype=np.complex128)
    flat = psi.reshape(psi.shape[0], psi.shape[1], -1)
    flat_out = out.reshape(out.shape[0], out.shape[1], -1)
    for N in range(ci + cj + 1):
        ks = np.arange(max(0, N - cj), min(N, ci) + 1)
        if ks.size == 0:
            continue
        sector = flat[ks, N - ks]
        if not np.any(sector):
            continue
        U = coupler_block(params, N).matrix
        flat_out[ks, N - ks] = U[np.ix_(ks, ks)] @ sector
    return FockVector(state.shape, np.moveaxis(out, (0, 1), (i, j)))


def split_cascade(n_out: int) -> list[tuple[int, int, float]]:
    """Coupler schedule (mode_a, mode_b, theta) that sends the source operator
    of mode 0 to the equal combination (1/sqrt(n_out)) sum_k b_k.

    A balanced binary tree is used when n_out is a power of two, otherwise a
    sequential fan-out whose k-th coupler peels off a 1/n_out share. Couplers
    are ordered (target, source) so the composite source column is positive.
    """
    if n_out < 1:
        raise ValidationError("n_out must be >= 1")
    if n_out & (n_out - 1) == 0:
        cascade: list[tuple[int, int, float]] = []

        def tree(lo: int, hi: int):
            if hi - lo <= 1:
                return
            mid = (lo + hi) // 2
            cascade.append((mid, lo, math.pi / 4))
            tree(lo, mid)
            tree(mid, hi)

        tree(0, n_out)
        return cascade
    return [
        (k, 0, math.acos(math.sqrt((n_out - k) / (n_out - k + 1.0))))
        for k in range(1, n_out)
    ]


def equal_multimode_split(state: FockVector, n_out: int) -> FockVector:
    """Distribute the photons of a source mode equally over `n_out` output modes.

    The input may be a single-mode state (vacuum ancillas are added) or an
    n_out-mode state whose modes 1.. are vacuum. The contract is the composite
    Heisenberg matrix of `split_cascade`, not the cascade topology.
    """
    if n_out < 1:
        raise ValidationError("n_out must be >= 1")
    if state.shape.mode_count == 1:
        cutoff = state.shape.cutoffs[0]
        if (cutoff + 1) ** n_out > BASIS_SIZE_CAP:
            raise SizingError(
                f"splitting to {n_out} modes at cutoff {cutoff} exceeds the basis cap"
            )
        full = state
        for _ in range(n_out - 1):
            full = tensor(full, vacuum(ModeShape((cutoff,))))
    elif state.shape.mode_count == n_out:
        probs = state.probabilities()
        for mode in range(1, n_out):
            occ = state.shape.occupations(mode).reshape(state.shape.dims)
            if float(probs[occ > 0].sum()) > 1e-12:
                raise ValidationError(f"ancilla mode {mode} must be vacuum")
        full = state
    else:
        raise ValidationError("state must have one mode or exactly n_out modes")
    for a, b, theta in split_cascade(n_out):
        full = apply_coupler(full, (a, b), CouplerParams(theta, 0.0))
    return full
