"""Difference detection with a local oscillator derived from the same source.

A number-state source is split on an unbalanced coupler (relative phase fixed
at -pi/2) into a strong local-oscillator branch and a weak signal branch; the
signal passes through a phase process V = exp(i gamma n); the branches are
remixed 50/50 (again at relative phase -pi/2, which puts the V = identity
working point at the fringe extremum) and both outputs are counted. The
statistics of the count difference characterize V, not the source: the phase
reference lives entirely in the phase *difference* between the two branches.

Every stage conserves the source's n photons, so the circuit is computed in
the n-photon sector, one amplitude per |k, n - k> with k photons in the
local-oscillator mode. Both couplers act on that (n + 1)-vector through
`coupler.apply_sector`, which reads the sector's one J_y factorisation and
never forms a coupler block; a scan splits once and remixes its points in
chunks of at most `SCAN_CELLS` distribution cells, each chunk as one stack.
Only phase processes keep the state in that sector, and only they are
supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupler import CouplerParams, apply_sector
from .errors import ValidationError
from .fock import check_cells, lowering_matrix

SPLITTER_PHASE = -math.pi / 2
DEFAULT_THETA = math.acos(0.95)  # local oscillator keeps ~90% of the photons
# cells of one chunk of scan points' (points, 2n + 1) distributions, so that
# a scan's memory does not grow with its point count; the chunk's other arrays
# are about as large
SCAN_CELLS = 2**14


@dataclass(frozen=True)
class PhaseShiftProcess:
    """V = exp(i gamma n), a pure phase on the signal mode."""

    gamma: float

    def __post_init__(self):
        if not -math.inf < self.gamma < math.inf:
            raise ValidationError(f"gamma={self.gamma} must be finite")


@dataclass(frozen=True)
class HomodyneConfig:
    """Source photon number, signal process and splitter angle.

    The splitter phase is fixed at -pi/2; cos(theta) is the fraction of the
    source amplitude kept by the local oscillator.
    """

    source_photons: int
    process: PhaseShiftProcess
    splitter_theta: float = DEFAULT_THETA

    def __post_init__(self):
        if self.source_photons < 0:
            raise ValidationError("source photon number must be nonnegative")
        if not 0.0 <= self.splitter_theta <= math.pi / 2:
            raise ValidationError("splitter angle must lie in [0, pi/2]")


def quadrature_matrix(theta_q: float, cutoff: int) -> np.ndarray:
    """Hermitian matrix of (e^{i theta} a + e^{-i theta} a^dag) / sqrt(2)."""
    a = lowering_matrix(cutoff)
    return (np.exp(1j * theta_q) * a + np.exp(-1j * theta_q) * a.conj().T) / math.sqrt(2.0)


@dataclass(frozen=True)
class DifferenceStats:
    """Distribution of the count difference A - B over the two detectors."""

    values: np.ndarray
    probabilities: np.ndarray
    mean: float
    variance: float


def homodyne_difference_stats(config: HomodyneConfig) -> DifferenceStats:
    """Exact pushforward distribution of A - B for the full circuit.

    The source |n, 0> is sector index k = n; the split, the phase on the
    signal's n - k photons and the 50/50 remix act on the (n + 1)-vector, and
    outcome k is the difference A - B = 2k - n. `values` runs over -n .. n,
    so the bins of the other parity than n hold zero. This is the one-point
    case of a scan.
    """
    n = config.source_photons
    probs, means, variances = _remix(_split(config), np.array([config.process.gamma]))
    return DifferenceStats(np.arange(-n, n + 1), probs[0], float(means[0]), float(variances[0]))


def _split(config: HomodyneConfig) -> np.ndarray:
    """The source |n, 0> after the unbalanced split, as an (n + 1)-vector."""
    n = config.source_photons
    check_cells(n + 1, "homodyne source vector")
    source = np.zeros(n + 1, dtype=np.complex128)
    source[n] = 1.0
    return apply_sector(CouplerParams(config.splitter_theta, SPLITTER_PHASE), source)


def _remix(split: np.ndarray, gammas: np.ndarray):
    """The (points, 2n + 1) difference distributions, means and variances of
    the circuit with each phase process gamma in `gammas` on the signal of
    `split`. All points are remixed in one stacked `coupler.apply_sector`,
    and each gets the numbers it gets alone."""
    n = split.size - 1
    check_cells(gammas.size * (2 * n + 1), "homodyne difference distributions")
    k = np.arange(n + 1)
    signals = split * np.exp(1j * gammas[:, None] * (n - k))
    mixed = apply_sector(CouplerParams(math.pi / 4, SPLITTER_PHASE), signals)
    weights = np.abs(mixed) ** 2
    values = np.arange(-n, n + 1)
    probs = np.zeros((gammas.size, values.size))
    probs[:, 2 * k] = weights / weights.sum(axis=1, keepdims=True)
    means = (values * probs).sum(axis=1)
    variances = (values**2 * probs).sum(axis=1) - means**2
    return probs, means, variances


@dataclass(frozen=True)
class TomographyScan:
    gammas: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    recovered_offset: float
    amplitude: float


def check_tomography_scan(config: HomodyneConfig, points: int) -> None:
    """Refuse a scan of `points` grid points whose offset would be read from
    aliasing or rounding noise, before any grid or sector work."""
    if points < 3:
        raise ValidationError(f"tomography scan needs at least 3 grid points, got {points}")
    if config.source_photons < 1:
        raise ValidationError("tomography scan needs a source of at least one photon")
    if math.sin(2.0 * config.splitter_theta) <= 1e-12:
        raise ValidationError(
            f"tomography scan needs sin(2 theta) > 1e-12 so that both branches are lit, "
            f"got theta {config.splitter_theta}"
        )


def process_tomography_scan(config: HomodyneConfig, gamma_grid: np.ndarray) -> TomographyScan:
    """Sweep the phase process over gamma_grid and recover the built-in offset.

    The configured process's gamma acts as an unknown offset gamma0 so the
    scanned curve is mean(gamma) = -amp * cos(gamma + gamma0). The offset is
    read off the first Fourier component of the scanned curve, which is exact
    for a uniform full-period grid and a noiseless forward model. The fringe
    amplitude is n sin 2 theta, so a grid of fewer than 3 points, a source
    without photons or sin 2 theta <= 1e-12 raises ValidationError: the offset
    would be read from aliasing or rounding noise.
    """
    gamma0 = config.process.gamma
    gammas = np.asarray(gamma_grid, dtype=float)
    check_tomography_scan(config, gammas.size)
    # the split does not depend on gamma, so it is computed once
    split = _split(config)
    chunk = max(1, SCAN_CELLS // (2 * config.source_photons + 1))
    means = np.empty(gammas.size)
    variances = np.empty(gammas.size)
    for start in range(0, gammas.size, chunk):
        part = slice(start, start + chunk)
        _, means[part], variances[part] = _remix(split, gamma0 + gammas[part])
    harmonic = np.mean(means * np.exp(-1j * gammas)) * 2.0
    recovered = float(np.angle(-harmonic))
    return TomographyScan(gammas, means, variances, recovered, float(abs(harmonic)))
