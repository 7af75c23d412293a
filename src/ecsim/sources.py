"""Phase-symmetric source models: the ideal Poissonian cavity field, its
multimode output in the number-state and coherent-state decompositions, and a
phase-diffusion model of finite coherence time.

The number-state output uses the circle weight e^{-i m phi}; with the
coherent-state expansion convention used throughout (|alpha> carries
e^{+i n phi}) this is the sign that actually reproduces |m> under synthesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .circle import ECSState, PhaseGrid, sector_amplitude_stack
from .coupler import equal_multimode_split
from .errors import ValidationError
from .fock import (
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    check_cells,
    check_dense,
    check_power,
    coherent_log_amplitudes,
    poisson_pmf,
    poisson_tail,
    sector_occupations,
    zeros,
)


@dataclass(frozen=True)
class LaserSpec:
    """Ideal intracavity field: mean photon number and truncation cutoff."""

    nbar: float
    cutoff: int

    def __post_init__(self):
        if self.nbar < 0:
            raise ValidationError("nbar must be nonnegative")
        if self.cutoff < 0:
            raise ValidationError("cutoff must be nonnegative")


@dataclass(frozen=True)
class PhaseWalkSpec:
    """Discrete phase random walk across the output modes.

    Mode k carries phase phi + W_k where W_k accumulates independent Gaussian
    increments of variance `step_variance`. Zero variance reduces to the fully
    coherent equal split.
    """

    step_variance: float
    mode_count: int
    photon_number: int
    seed: int = 0

    def __post_init__(self):
        if self.step_variance < 0:
            raise ValidationError("step_variance must be nonnegative")
        if self.mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        if self.photon_number < 0:
            raise ValidationError("photon_number must be nonnegative")


def laser_density(spec: LaserSpec) -> NumberDiagonalDensity:
    """Poissonian mixture of number states; equals the phase average of the
    coherent-state projector with the same mean photon number."""
    weights = poisson_pmf(spec.nbar, np.arange(spec.cutoff + 1))
    return NumberDiagonalDensity(ModeShape((spec.cutoff,)), weights)


def multimode_output_coherent(nbar: float, phi: float, n_modes: int, cutoff: int) -> FockVector:
    """Product of n_modes coherent states with amplitude sqrt(nbar/n_modes) e^{i phi}."""
    if nbar < 0:
        raise ValidationError("nbar must be nonnegative")
    check_dense(n_modes, (cutoff + 1) ** n_modes, f"product of {n_modes} coherent modes at cutoff {cutoff}")
    alpha = math.sqrt(nbar / n_modes) * np.exp(1j * phi)
    row = coherent_log_amplitudes(np.array([alpha]), cutoff)[0]
    amps = row
    for _ in range(n_modes - 1):
        amps = np.multiply.outer(amps, row)
    return FockVector(ModeShape.uniform(n_modes, cutoff), amps)


def _trace_norm_lowrank(vecs_l, w_l, vecs_r, w_r) -> float:
    """Trace norm of sum_i w_l[i] |l_i><l_i| - sum_j w_r[j] |r_j><r_j|.

    That is V W V^dag, with the vectors as the columns of V = Q R and
    W = diag(w_l, -w_r); its nonzero eigenvalues are those of R W R^dag, so
    neither Q nor the full matrices are ever formed.
    """
    V = np.concatenate([vecs_l, vecs_r], axis=0).T  # columns are vectors
    R = np.linalg.qr(V, mode="r")
    small = (R * np.concatenate([w_l, -w_r])) @ R.conj().T
    eigs = np.linalg.eigvalsh((small + small.conj().T) / 2.0)
    return float(np.abs(eigs).sum())


@dataclass(frozen=True)
class EquivalenceReport:
    trace_distance: float
    tail_bound: float
    m_max: int


def decomposition_equivalence_check(nbar: float, n_modes: int, cutoff: int) -> EquivalenceReport:
    """Trace distance between the two decompositions of the split laser output.

    Route one mixes coupler-cascade splits of number states with Poisson
    weights; route two phase-averages coherent products on an exact grid. The
    distance is reported together with the Poisson mass necessarily dropped by
    the m <= cutoff restriction, which bounds the honest disagreement.
    """
    if nbar < 0:
        raise ValidationError("nbar must be nonnegative")
    m_max = cutoff
    # total numbers differ by at most N * cutoff: the degree of the phase average
    M = PhaseGrid.exact(n_modes * cutoff).size
    check_power(cutoff + 1, n_modes, "stacked number and coherent vectors", factor=cutoff + 1 + M)
    # the cascade keeps total photon number, so one split of sum_m |m> holds
    # the split of each |m> on its own total-number sector
    m = np.arange(m_max + 1)
    split = equal_multimode_split(FockVector(ModeShape((cutoff,)), np.ones(m.size, dtype=np.complex128)), n_modes)
    number_vecs = np.where(split.shape.total_occupation() == m[:, None], split.amplitudes.ravel(), 0.0)
    number_weights = [poisson_pmf(nbar, i) for i in range(m_max + 1)]
    coherent_vecs = []
    for phi in 2.0 * math.pi * np.arange(M) / M:
        coherent_vecs.append(multimode_output_coherent(nbar, phi, n_modes, cutoff).amplitudes.ravel())
    distance = _trace_norm_lowrank(
        number_vecs,
        np.array(number_weights),
        np.array(coherent_vecs),
        np.full(M, 1.0 / M),
    )
    tail = poisson_tail(nbar, m_max) + n_modes * poisson_tail(nbar / n_modes, cutoff)
    return EquivalenceReport(distance, tail, m_max)


@dataclass(frozen=True)
class PhaseWalkResult:
    """g1 and its standard error as N x N arrays. Only the entries marked in
    the boolean N x N `reported` were computed; the rest hold zero."""

    g1: np.ndarray
    stderr: np.ndarray
    realizations: int
    reported: np.ndarray

    def to_csv_rows(self):
        """One row per reported (k, l), in row-major order. Each row of g1 is
        read as Python numbers, whose abs is the same hypot numpy's is."""
        for k in range(self.reported.shape[0]):
            g1, stderr = self.g1[k].tolist(), self.stderr[k].tolist()
            for l in np.flatnonzero(self.reported[k]).tolist():
                yield (k, l, g1[l].real, g1[l].imag, abs(g1[l]), stderr[l])


# complex cells per realization chunk, so that the phase walk's peak memory
# does not grow with the realization count
CHUNK_CELLS = 2**13


def _lowering_maps(lower: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """b_k from the m-photon sector of N modes to the (m - 1)-photon sector
    listed by `lower` (in `sector_occupations` order) as a gather:
    (b_k psi)[j] = scale[k, j] psi[rows[k, j]], where rows[k, j] is the row of
    lower[j] + e_k in `sector_occupations(N, m)`. Both have shape
    (N, len(lower)); each b_k has one nonzero per row, so the dense
    (N, len(lower), len(upper)) matrices would be almost all zeros.

    `sector_occupations` lists tuples lexicographically, so a tuple's row is
    its rank in the combinatorial number system: the tuples that agree with n
    before mode i and hold fewer photons there number
    C(s_i + K_i, K_i) - C(s_{i+1} + K_i, K_i), with s_i = n_i + ... + n_{N-1}
    and K_i = N - 1 - i, and the rank is their sum over i."""
    N = lower.shape[1]
    # binom[s, K] = C(s + K, K) for s <= m: each row is the running sum of the one before
    binom = np.ones((m + 1, N), dtype=np.int64)
    for s in range(1, m + 1):
        np.cumsum(binom[s - 1], out=binom[s])
    K = np.arange(N - 1, -1, -1)
    tail = np.cumsum(lower[:, ::-1], axis=1)[:, ::-1]  # s_i
    after = tail - lower  # s_{i+1}
    # lower[j] + e_k adds one to s_i for i <= k: mode i's term is `keep` for
    # i > k, `own` for i = k and `shifted` for i < k
    keep = binom[tail, K] - binom[after, K]
    own = binom[tail + 1, K] - binom[after, K]
    shifted = binom[tail + 1, K] - binom[after + 1, K]
    before = np.cumsum(shifted, axis=1) - shifted
    beyond = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - keep
    return (before + own + beyond).T, np.sqrt(lower.T + 1.0)


def phase_walk_correlation(
    spec: PhaseWalkSpec, realizations: int, pairs: list[tuple[int, int]] | None = None
) -> PhaseWalkResult:
    """First-order coherence <b_k^dag b_l> / sqrt(<n_k><n_l>) of the walk,
    averaged over realizations of the phase path.

    Each realization synthesizes the multimode state exactly in its m-photon
    sector, the C(m + N - 1, m) amplitudes the circle weight e^{-i m phi}
    leaves nonzero, and takes matrix elements on it; nothing is inferred from
    the weight algebra. The realizations are taken in chunks of about
    `CHUNK_CELLS` cells: a chunk's walks come from one draw of the seeded
    generator (the same stream as one draw per realization), its sector
    amplitudes from one `circle.sector_amplitude_stack` quadrature and its
    N x N correlations from one stacked product. |g1| decays like
    exp(-step_variance |k - l| / 2) in the realization average. `pairs`
    restricts which (k, l) entries are computed and reported. No photons
    (m = 0) gives g1 = 0.
    """
    if realizations < 1:
        raise ValidationError("need at least one realization")
    N, m = spec.mode_count, spec.photon_number
    # every sector tuple has total occupation m, so the rule's grid is exact there
    grid = PhaseGrid.exact(m)
    # sized before the sectors and pair indices: the circle tables, then g1 and samples
    check_cells(grid.size * N * (m + 1), f"circle tables of {N} modes at {m} photons")
    g1 = zeros((N, N))
    samples = zeros((N * N if pairs is None else len(pairs), realizations))
    ks, ls = np.divmod(np.arange(N * N), N) if pairs is None else np.array(pairs, dtype=int).reshape(-1, 2).T
    phis = grid.points
    weight = np.exp(-1j * m * phis) / math.sqrt(poisson_pmf(float(m), m)) if m > 0 else np.ones(grid.size)
    base_amp = math.sqrt(m / N) if N > 0 else 0.0
    sector = sector_occupations(N, m)
    below = sector_occupations(N, m - 1) if m > 0 else np.zeros((0, N), dtype=np.int64)
    rows, scale = _lowering_maps(below, m)
    # grid, weight and shape for the stacked quadrature; each chunk brings its
    # own amplitudes, so this state's are zeros that are never read
    circle = ECSState((grid,), weight, tuple(range(N)), np.zeros((grid.size, N)), ModeShape.uniform(N, m))
    # cells one realization holds at once: circle tables, the quadrature's
    # (points, tuples) products, lowered vectors and correlations. A lone
    # realization is within the checks above, and circle.BLOCK_CELLS blocks
    # the products
    cells = max(grid.size * N * (m + 1), grid.size * len(sector), N * len(below), N * N)
    chunk = max(1, CHUNK_CELLS // cells)
    rng = default_rng(spec.seed)
    # abs: a variance of -0.0 has the square root -0.0, which numpy refuses as a scale
    step = abs(math.sqrt(spec.step_variance))
    for start in range(0, realizations, chunk):
        r = min(chunk, realizations - start)
        walks = np.zeros((r, N))
        np.cumsum(rng.normal(0.0, step, (r, N - 1)), axis=1, out=walks[:, 1:])
        amps = base_amp * np.exp(1j * (phis[None, :, None] + walks[:, None, :]))
        lowered = scale * sector_amplitude_stack(circle, amps, sector)[:, rows]
        corr = lowered.conj() @ lowered.transpose(0, 2, 1)
        occupancy = np.diagonal(corr, axis1=1, axis2=2).real
        denom = np.sqrt(occupancy[:, ks] * occupancy[:, ls])
        np.divide(corr[:, ks, ls], denom, out=samples[:, start : start + r].T, where=denom > 0)
    mean = samples.mean(axis=1)
    g1[ks, ls] = mean
    stderr = np.zeros((N, N))
    if realizations > 1:
        magnitude = np.hypot(mean.real, mean.imag)  # abs() of each mean alone, to the last bit
        direction = np.divide(mean, magnitude, out=np.ones_like(mean), where=magnitude > 0)
        aligned = np.real(samples / direction[:, None])
        stderr[ks, ls] = aligned.std(axis=1, ddof=1) / math.sqrt(realizations)
    reported = np.zeros((N, N), dtype=bool)
    reported[ks, ls] = True
    return PhaseWalkResult(g1, stderr, realizations, reported)
