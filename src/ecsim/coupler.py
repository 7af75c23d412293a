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
code. The spectral route uses G = -i theta D T D^dag, where
D = diag(e^{-i phi k} i^k) and T is the real symmetric tridiagonal matrix with
zero diagonal and off-diagonal sqrt((k+1)(N-k)). T = -S^dag (2 J_y) S with
S = diag(i^k) and J_y the Schwinger generator, so its spectrum is exactly the
integers -N, -N+2, ..., N. Neither T nor its eigenvectors depend on (theta,
phi), so each sector is factorised once: `sector_spectrum` holds those
eigenvalues and the real orthogonal W, and every (theta, phi) reads it. No
eigensolver runs. Each eigenvector obeys the three-term recursion
b_k w[k+1] = m w[k] - b_{k-1} w[k-1], b_k = sqrt((k+1)(N-k)), of the Wigner
d(pi/2) matrix (Risbo, J. Geodesy 70, 383 (1996)), run from k = 0 to the
middle row, where every column's allowed band is centred, so that it only
ever grows into that band. T commutes with the reversal k <-> N - k, which
gives the other rows: column t of ascending m has parity (-1)^(N - t), the
alternation of a persymmetric Jacobi matrix. A coupler acts only through the
sector product U v = d * (W (e^{-i theta m} * (W^T (conj(d) * v)))), d the
diagonal of D (Feng, Wang, Yang & Jin, PRE 92, 043307 (2015)): `apply_sector`
on sector vectors, `apply_coupler` on each live sector of a state,
`coupler_block` on the identity. `oracle_block` builds G from its two
off-diagonals and exponentiates it by scaling and squaring on Higham's
degree-13 Pade approximant (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)),
numpy alone and no eigensolver; it is the test reference.
Both routes start from the same sector Hamiltonian, so the sign and phase
convention is pinned separately by checks that go through
`heisenberg_matrix`: coherent covariance and the commuting diagram with the
phase-circle route.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import ValidationError
from .fock import FockVector, ModeShape, check_cells, tensor, vacuum


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
# columns or rows of W per block where a whole-matrix temporary would double
# its memory: 8 MiB of Gram rows at N = 4095
_PANEL = 256


@dataclass(frozen=True)
class SectorSpectrum:
    """T = W diag(m) W^T on the N-photon sector: eigenvalues m, the integers
    -N, -N+2, ..., N, and real orthogonal eigenvectors W. W^T W - I is checked
    _PANEL rows at a time, each from its diagonal rightwards (the matrix is
    symmetric), so no (N + 1)^2 array is formed beside W."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        W = self.eigenvectors
        defect = 0.0
        for i in range(0, W.shape[1], _PANEL):
            gram = W[:, i : i + _PANEL].T @ W[:, i:]
            gram.flat[:: gram.shape[1] + 1] -= 1.0
            # np.maximum keeps a NaN, which the test below then refuses
            defect = np.maximum(defect, np.abs(gram, out=gram).max())
        if not defect <= 1e-10:
            raise ValidationError(f"eigenvectors not orthogonal: defect {defect:.3e}")
        self.eigenvalues.setflags(write=False)
        W.setflags(write=False)


def _check_sector(N: int) -> None:
    if N < 0:
        raise ValidationError("photon number must be nonnegative")
    check_cells((N + 1) ** 2, f"sector {N} matrices")


# entries past this are scaled down by its inverse while the recursion runs
_RESCALE = 1e150
# normalised entries below this are zeroed, so that a product of two entries
# is never subnormal: subnormal products slow every matmul with W about 1.5 fold
_FLUSH = 2.0**-511


def _factorise(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Sector N's eigenvalues m = -N, -N+2, ..., N and eigenvectors W, column t
    for m[t], by one recursion over all columns at once; W is built in place.
    Rows 0 .. N // 2 run b_k W[k+1] = m W[k] - b_{k-1} W[k-1] from W[0] = 1,
    a column scaled down wherever it passes _RESCALE, and are normalised from
    the half they hold of each column's norm, a panel of rows at a time. Rows
    k > N / 2 mirror rows N - k, negated in the columns t with N - t odd, the
    ones odd under the reversal, so no parity is read from entries that may
    vanish."""
    m = np.arange(-N, N + 1.0, 2.0)
    top, h = N // 2 + 1, (N + 1) // 2
    k = np.arange(1.0, top)
    b = np.sqrt(k * (N + 1.0 - k))
    W = np.empty((N + 1, N + 1))
    W[0] = 1.0
    for j in range(top - 1):
        row = np.multiply(m, W[j], out=W[j + 1])
        if j:
            row -= b[j - 1] * W[j - 1]
        row /= b[j]
        big = np.flatnonzero(np.abs(row) > _RESCALE)
        if big.size:
            W[: j + 2, big] *= 1.0 / _RESCALE
    # each row k < h stands for itself and its mirror; an even N's middle row once
    norm2 = 2.0 * np.einsum("kt,kt->t", W[:h], W[:h])
    norm2 += W[h] ** 2 if N % 2 == 0 else 0.0
    norm = np.sqrt(norm2)
    for i in range(0, top, _PANEL):
        rows = W[i : i + _PANEL]
        rows /= norm
        rows[np.abs(rows) < _FLUSH] = 0.0
    W[top:] = W[h - 1 :: -1]
    W[top:, (N + 1) % 2 :: 2] *= -1.0
    return m, W


class _SpectrumCache(dict):
    """Sector photon number -> its spectrum, least recently read first, with
    the eigenvector cells it holds kept as a running total."""

    cells = 0

    def __setitem__(self, N, spectrum):
        self.pop(N, None)
        super().__setitem__(N, spectrum)
        self.cells += spectrum.eigenvectors.size

    def pop(self, N, *default):
        if N in self:
            self.cells -= self[N].eigenvectors.size
        return super().pop(N, *default)

    def clear(self):
        super().clear()
        self.cells = 0


_spectra = _SpectrumCache()
_spectra_lock = threading.Lock()


def sector_spectrum(N: int) -> SectorSpectrum:
    """The one factorisation of sector N that every (theta, phi) reads. Read
    spectra are kept, the least recently read dropped first while all but the
    one just read hold more than `fock.BASIS_SIZE_CAP` eigenvector cells."""
    _check_sector(N)
    N = int(N)
    with _spectra_lock:
        spectrum = _spectra.pop(N, None)
        if spectrum is None:
            spectrum = SectorSpectrum(*_factorise(N))
        _spectra[N] = spectrum
        while _spectra.cells - spectrum.eigenvectors.size > fock.BASIS_SIZE_CAP:
            _spectra.pop(next(iter(_spectra)))
    return spectrum


def _real_matmul(W: np.ndarray, z: np.ndarray) -> np.ndarray:
    """W @ z for real W and complex z (one vector per row of a stack), on each
    vector's real and imaginary parts as the two columns of a real matrix (a
    view, no copy), so W stays real. The stack is one `np.matmul` over
    (rows, len, 2) real pairs, so each row gets the product it gets alone."""
    pairs = np.ascontiguousarray(z).view(np.float64).reshape(*z.shape, 2)
    return np.matmul(W, pairs).view(np.complex128).reshape(*z.shape[:-1], W.shape[0])


def _sector_product(params: CouplerParams, N: int, vectors: np.ndarray, k0: int = 0) -> np.ndarray:
    """U[sub, sub] v for each row v of a (rows, s) stack, sub = k0 .. k0 + s - 1:
    d * (W (e^{-i theta m} * (W^T (conj(d) * v)))) on the rows sub of W and of
    the diagonal d = e^{-i phi k} i^k of D, O(N s) per row; U is never formed."""
    spectrum = sector_spectrum(N)
    k = np.arange(k0, k0 + vectors.shape[-1])
    W = spectrum.eigenvectors[k0 : k0 + k.size]
    d = np.exp(-1j * params.phi * k) * _I_POWERS[k % 4]
    inner = _real_matmul(W.T, d.conj() * vectors) * np.exp(-1j * params.theta * spectrum.eigenvalues)
    return d * _real_matmul(W, inner)


def coupler_block(params: CouplerParams, N: int) -> BlockUnitary:
    """Sector unitary from the exact spectrum of the sector's J_y: the sector
    product on the identity, whose row j is column j of U."""
    _check_sector(N)
    return BlockUnitary(N, _sector_product(params, int(N), np.eye(N + 1, dtype=np.complex128)).T)


def apply_sector(params: CouplerParams, vectors: np.ndarray) -> np.ndarray:
    """U v on the N-photon sector, N = len(v) - 1, indexed like `coupler_block`,
    for one vector v or each row of a (rows, N + 1) stack, which gets the
    numbers it gets alone. U is never formed."""
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim not in (1, 2):
        raise ValidationError("sector vectors must be one vector or a (rows, N + 1) stack")
    return _sector_product(params, v.shape[-1] - 1, np.atleast_2d(v)).reshape(v.shape)


# Higham's degree-13 Pade coefficients b_0 .. b_13 (SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005)) and the 1-norm up to which that approximant of e^A
# meets double precision
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _pade13(A: np.ndarray) -> np.ndarray:
    """The degree-13 Pade approximant of e^A, (V - U)^{-1} (V + U) with U and V
    the odd and even parts of its numerator."""
    b = _PADE13
    eye = np.eye(A.shape[0], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    return np.linalg.solve(V - U, V + U)


def _generator(params: CouplerParams, N: int) -> np.ndarray:
    """The sector generator theta (e^{-i phi} L - e^{i phi} L^T), from its two
    off-diagonals theta e^{-+i phi} sqrt((k + 1)(N - k)), k = 0 .. N - 1."""
    k = np.arange(N)
    root = np.sqrt(((k + 1) * (N - k)).astype(np.float64))
    G = np.zeros((N + 1, N + 1), dtype=np.complex128)
    G[k + 1, k] += params.theta * np.exp(-1j * params.phi) * root
    G[k, k + 1] -= params.theta * np.exp(1j * params.phi) * root
    return G


def oracle_block(params: CouplerParams, N: int) -> BlockUnitary:
    """Sector unitary by exponentiating the sector Hamiltonian (test oracle):
    scaling and squaring on the degree-13 Pade approximant, G / 2^s with
    ||G / 2^s||_1 <= _THETA13, then s squarings. No eigensolver is used."""
    _check_sector(N)
    if N == 0:
        return BlockUnitary(0, np.ones((1, 1), dtype=np.complex128))
    G = _generator(params, N)
    norm = float(np.abs(G).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
    U = _pade13(G / 2.0**s)
    for _ in range(s):
        U = U @ U
    return BlockUnitary(N, U)


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
    psi = np.moveaxis(state.amplitudes, (i, j), (0, 1))
    ci, cj = psi.shape[0] - 1, psi.shape[1] - 1
    out = np.zeros_like(psi)
    for N in range(ci + cj + 1):
        # sector N holds the cells (k, N - k) that both cutoffs keep
        k = np.arange(max(0, N - cj), min(N, ci) + 1)
        cells = psi[k, N - k]
        if cells.any():
            vectors = cells.reshape(k.size, -1).T
            out[k, N - k] = _sector_product(params, N, vectors, k[0]).T.reshape(cells.shape)
    return FockVector(state.shape, np.moveaxis(out, (0, 1), (i, j)))


def split_cascade(n_out: int) -> list[tuple[int, int, float]]:
    """Coupler schedule (mode_a, mode_b, theta) that sends the source operator
    of mode 0 to the equal combination (1/sqrt(n_out)) sum_k b_k.

    A sequential fan-out: the k-th coupler peels a 1/n_out share of the source
    off into mode k. Couplers are ordered (target, source) so the composite
    source column is positive.
    """
    if n_out < 1:
        raise ValidationError("n_out must be >= 1")
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
