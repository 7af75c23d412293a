"""Difference detection with a local oscillator derived from the same source.

A number-state source is split on an unbalanced coupler (relative phase fixed
at -pi/2) into a strong local-oscillator branch and a weak signal branch; the
signal passes through a phase process V = exp(i gamma n); the branches are
remixed 50/50 (again at relative phase -pi/2, which puts the V = identity
working point at the fringe extremum) and both outputs are counted. The
statistics of the count difference characterize V, not the source: the phase
reference lives entirely in the phase *difference* between the two branches.

A scan runs the circle route. The source |n, 0> is the twirl of |alpha, 0>
over the phase circle, and the couplers and the process act pointwise on the
coherent amplitudes, through `coupler.heisenberg_matrix` as
`circle.ecs_apply_coupler` applies it. At each circle point the output is the
product coherent state alpha (u, v), so each photon reaches detector A
independently with p = |u|^2 / (|u|^2 + |v|^2), whatever the point: the
count difference A - B has mean n (2p - 1) and variance 4 n p (1 - p). A scan
point costs one 2 x 2 map, and no array is sized by n.

`homodyne_difference_stats` is the sector route, the reference that shares
no code with the scan beyond `CouplerParams`. Every stage conserves the n
photons, so it works on one amplitude per |k, n - k>, k photons in the
local-oscillator mode: both couplers act on that (n + 1)-vector through
`coupler.apply_sector`, which reads the sector's J_y factorisation. Only
phase processes keep the state in that sector, and only they are supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupler import CouplerParams, apply_sector, heisenberg_matrix
from .errors import ValidationError
from .fock import check_cells, check_integer, lowering_matrix

SPLITTER_PHASE = -math.pi / 2
DEFAULT_THETA = math.acos(0.95)  # local oscillator keeps ~90% of the photons


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
        check_integer(self.source_photons, "source_photons")
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
    """Exact pushforward distribution of A - B for the full circuit, on the
    source's photon-number sector.

    The source |n, 0> is sector index k = n; the split, the phase on the
    signal's n - k photons and the 50/50 remix act on the (n + 1)-vector, and
    outcome k is the difference A - B = 2k - n. `values` runs over -n .. n,
    so the bins of the other parity than n hold zero.
    """
    n = config.source_photons
    check_cells(n + 1, "homodyne source vector")
    source = np.zeros(n + 1, dtype=np.complex128)
    source[n] = 1.0
    split = apply_sector(CouplerParams(config.splitter_theta, SPLITTER_PHASE), source)
    k = np.arange(n + 1)
    signal = split * np.exp(1j * config.process.gamma * (n - k))
    weights = np.abs(apply_sector(CouplerParams(math.pi / 4, SPLITTER_PHASE), signal)) ** 2
    values = np.arange(-n, n + 1)
    probs = np.zeros(values.size)
    probs[2 * k] = weights / weights.sum()
    mean = (values * probs).sum()
    return DifferenceStats(values, probs, float(mean), float((values**2 * probs).sum() - mean**2))


def _detector_a_probability(theta: float, gammas: np.ndarray) -> np.ndarray:
    """p = |u|^2 / (|u|^2 + |v|^2) at each process phase gamma: the source
    amplitude (1, 0) split by `heisenberg_matrix` at (theta, -pi/2), the
    signal mode's amplitude times e^{i gamma}, and the 50/50 remix to (u, v),
    elementwise on the (points,) arrays."""
    split = heisenberg_matrix(CouplerParams(theta, SPLITTER_PHASE))
    remix = heisenberg_matrix(CouplerParams(math.pi / 4, SPLITTER_PHASE))
    oscillator, signal = split[0, 0], split[1, 0] * np.exp(1j * gammas)
    a = np.abs(remix[0, 0] * oscillator + remix[0, 1] * signal) ** 2
    b = np.abs(remix[1, 0] * oscillator + remix[1, 1] * signal) ** 2
    return a / (a + b)


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
    n = config.source_photons
    gammas = np.asarray(gamma_grid, dtype=float)
    check_tomography_scan(config, gammas.size)
    p = _detector_a_probability(config.splitter_theta, config.process.gamma + gammas)
    means = n * (2.0 * p - 1.0)
    variances = 4.0 * n * p * (1.0 - p)
    harmonic = np.mean(means * np.exp(-1j * gammas)) * 2.0
    recovered = float(np.angle(-harmonic))
    return TomographyScan(gammas, means, variances, recovered, float(abs(harmonic)))
