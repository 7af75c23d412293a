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

from .circle import ECSState, PhaseGrid, ecs_sector_amplitudes
from .coupler import equal_multimode_split
from .errors import ValidationError
from .fock import (
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    basis_state,
    check_cells,
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
    check_cells((cutoff + 1) ** n_modes, f"product of {n_modes} coherent modes at cutoff {cutoff}")
    alpha = math.sqrt(nbar / n_modes) * np.exp(1j * phi)
    row = coherent_log_amplitudes(np.array([alpha]), cutoff)[0]
    amps = row
    for _ in range(n_modes - 1):
        amps = np.multiply.outer(amps, row)
    return FockVector(ModeShape.uniform(n_modes, cutoff), amps)


def _trace_norm_lowrank(vecs_l, w_l, vecs_r, w_r) -> float:
    """Trace norm of sum_i w_l[i] |l_i><l_i| - sum_j w_r[j] |r_j><r_j|.

    Works in the joint column space so the full matrices never exist.
    """
    V = np.concatenate([vecs_l, vecs_r], axis=0).T  # columns are vectors
    Q, _ = np.linalg.qr(V)
    L = Q.conj().T @ vecs_l.T
    R = Q.conj().T @ vecs_r.T
    small = (L * w_l) @ L.conj().T - (R * w_r) @ R.conj().T
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
    # exact phase average needs the grid to resolve all total-number coherences
    M = 2 * n_modes * cutoff + 3
    check_cells((cutoff + 1 + M) * (cutoff + 1) ** n_modes, "stacked number and coherent vectors")
    number_vecs = []
    number_weights = []
    for m in range(m_max + 1):
        split = equal_multimode_split(basis_state(ModeShape((cutoff,)), (m,)), n_modes)
        number_vecs.append(split.amplitudes.ravel())
        number_weights.append(poisson_pmf(nbar, m))
    coherent_vecs = []
    for phi in 2.0 * math.pi * np.arange(M) / M:
        coherent_vecs.append(multimode_output_coherent(nbar, phi, n_modes, cutoff).amplitudes.ravel())
    distance = _trace_norm_lowrank(
        np.array(number_vecs),
        np.array(number_weights),
        np.array(coherent_vecs),
        np.full(M, 1.0 / M),
    )
    tail = poisson_tail(nbar, m_max) + n_modes * poisson_tail(nbar / n_modes, cutoff)
    return EquivalenceReport(distance, tail, m_max)


@dataclass(frozen=True)
class PhaseWalkResult:
    g1: np.ndarray
    stderr: np.ndarray
    realizations: int

    def to_csv_rows(self):
        for k in range(self.g1.shape[0]):
            for l in range(self.g1.shape[1]):
                yield (k, l, self.g1[k, l].real, self.g1[k, l].imag, abs(self.g1[k, l]), self.stderr[k, l])


def _lowering_maps(upper: np.ndarray, lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b_k from the sector listed by `upper` to the sector one photon below
    it, listed by `lower`, as a gather: (b_k psi)[j] = scale[k, j] psi[rows[k, j]],
    where rows[k, j] indexes lower[j] + e_k in `upper`. Both have shape
    (modes, len(lower)); each b_k has one nonzero per row, so the dense
    (modes, len(lower), len(upper)) matrices would be almost all zeros."""
    index = {row: i for i, row in enumerate(map(tuple, upper.tolist()))}
    unit = np.eye(upper.shape[1], dtype=np.int64)
    rows = np.array([[index[row] for row in map(tuple, (lower + e).tolist())] for e in unit], dtype=np.int64)
    return rows, np.sqrt(lower.T + 1.0)


def phase_walk_correlation(
    spec: PhaseWalkSpec, realizations: int, pairs: list[tuple[int, int]] | None = None
) -> PhaseWalkResult:
    """First-order coherence <b_k^dag b_l> / sqrt(<n_k><n_l>) of the walk,
    averaged over realizations of the phase path.

    Each realization synthesizes the multimode state exactly in its m-photon
    sector, the C(m + N - 1, m) amplitudes the circle weight e^{-i m phi}
    leaves nonzero, and takes matrix elements on it; nothing is inferred from
    the weight algebra. |g1| decays like exp(-step_variance |k - l| / 2) in
    the realization average. `pairs` restricts which (k, l) entries are
    reported. No photons (m = 0) gives g1 = 0.
    """
    if realizations < 1:
        raise ValidationError("need at least one realization")
    N, m = spec.mode_count, spec.photon_number
    # sized before the grid, the sectors and the pair indices are built: the
    # circle tables, (2m + 1) points x N modes x (m + 1), then g1 and samples
    check_cells((2 * m + 1) * N * (m + 1), f"circle tables of {N} modes at {m} photons")
    g1 = zeros((N, N))
    samples = zeros((realizations, N * N if pairs is None else len(pairs)))
    rng = default_rng(spec.seed)
    ks, ls = np.divmod(np.arange(N * N), N) if pairs is None else np.array(pairs, dtype=int).reshape(-1, 2).T
    # at the sector tuples the weight e^{-i m phi} cancels the phase of every
    # term, so the integrand is constant in phi and the smallest grid the
    # alias check accepts is exact
    grid = PhaseGrid(2 * m + 1)
    phis = grid.points
    weight = np.exp(-1j * m * phis) / math.sqrt(poisson_pmf(float(m), m)) if m > 0 else np.ones(grid.size)
    shape = ModeShape.uniform(N, m)
    base_amp = math.sqrt(m / N) if N > 0 else 0.0
    sector = sector_occupations(N, m)
    below = sector_occupations(N, m - 1) if m > 0 else np.zeros((0, N), dtype=np.int64)
    rows, scale = _lowering_maps(sector, below)
    for r in range(realizations):
        walk = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(spec.step_variance), N - 1))])
        amps = base_amp * np.exp(1j * (phis[:, None] + walk[None, :]))
        ecs = ECSState((grid,), weight, tuple(range(N)), amps, shape)
        lowered = scale * ecs_sector_amplitudes(ecs, sector)[rows]
        corr = lowered.conj() @ lowered.T
        occupancy = corr.diagonal().real
        denom = np.sqrt(occupancy[ks] * occupancy[ls])
        np.divide(corr[ks, ls], denom, out=samples[r], where=denom > 0)
    stderr = np.zeros((N, N))
    for k, l, vals in zip(ks, ls, samples.T):
        mean = vals.mean()
        g1[k, l] = mean
        if realizations > 1:
            direction = mean / abs(mean) if abs(mean) > 0 else 1.0
            aligned = np.real(vals / direction)
            stderr[k, l] = float(aligned.std(ddof=1) / math.sqrt(realizations))
    return PhaseWalkResult(g1, stderr, realizations)
