"""Difference detection with a local oscillator derived from the same source.

A number-state source is split on an unbalanced coupler (relative phase fixed
at -pi/2) into a strong local-oscillator branch and a weak signal branch; the
signal passes through a process V; the branches are remixed 50/50 (again at
relative phase -pi/2, which puts the V = identity working point at the fringe
extremum) and both outputs are counted. The statistics of the count difference
characterize V, not the source: the phase reference lives entirely in the
phase *difference* between the two branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupler import CouplerParams, apply_coupler
from .errors import ValidationError
from .fock import FockVector, ModeShape, basis_state, lowering_matrix, tensor, vacuum
from .measurement import joint_count_distribution

SPLITTER_PHASE = -math.pi / 2
DEFAULT_THETA = math.acos(0.95)  # local oscillator keeps ~90% of the photons


@dataclass(frozen=True)
class PhaseShiftProcess:
    """V = exp(i gamma n), a pure phase on the signal mode."""

    gamma: float


@dataclass(frozen=True)
class UnitaryProcess:
    """An explicit single-mode unitary on the truncated space.

    Unitarity is validated away from the truncation boundary: the last row and
    column of V^dag V are exempt because a number-raising unitary truncated at
    the cutoff cannot be exactly unitary there.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("process matrix must be square")
        gram = m.conj().T @ m
        inner = np.abs(gram[:-1, :-1] - np.eye(m.shape[0] - 1)).max() if m.shape[0] > 1 else 0.0
        if inner > 1e-10:
            raise ValidationError(f"process matrix not unitary on the truncated space: {inner:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


ProcessSpec = PhaseShiftProcess | UnitaryProcess


@dataclass(frozen=True)
class HomodyneConfig:
    """Source photon number, splitter angle, signal process, and cutoff.

    The splitter phase is fixed at -pi/2; cos(theta) is the fraction of the
    source amplitude kept by the local oscillator.
    """

    source_photons: int
    process: ProcessSpec
    splitter_theta: float = DEFAULT_THETA
    cutoff: int | None = None

    def __post_init__(self):
        if self.source_photons < 0:
            raise ValidationError("source photon number must be nonnegative")
        if not 0.0 <= self.splitter_theta <= math.pi / 2:
            raise ValidationError("splitter angle must lie in [0, pi/2]")

    @property
    def resolved_cutoff(self) -> int:
        return self.source_photons if self.cutoff is None else self.cutoff


def split_common_source(n: int, theta: float, cutoff: int | None = None) -> FockVector:
    """Mix |n) with vacuum on the -pi/2 coupler: mode 0 is the local
    oscillator (amplitude fraction cos theta), mode 1 the pre-signal."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    cut = n if cutoff is None else cutoff
    if cut < n:
        raise ValidationError("cutoff below the source photon number")
    state = tensor(basis_state(ModeShape((cut,)), (n,)), vacuum(ModeShape((cut,))))
    return apply_coupler(state, (0, 1), CouplerParams(theta, SPLITTER_PHASE))


def apply_process(state: FockVector, mode: int, process: ProcessSpec) -> FockVector:
    if isinstance(process, PhaseShiftProcess):
        from .fock import phase_shift

        return phase_shift(state, mode, process.gamma)
    dim = state.shape.dims[mode]
    if process.matrix.shape[0] != dim:
        raise ValidationError(
            f"process matrix dimension {process.matrix.shape[0]} does not match mode dim {dim}"
        )
    amps = np.moveaxis(np.array(state.amplitudes), mode, 0)
    out = np.tensordot(process.matrix, amps, axes=(1, 0))
    return FockVector(state.shape, np.moveaxis(out, 0, mode))


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


def homodyne_difference_stats(config: HomodyneConfig, split: FockVector | None = None) -> DifferenceStats:
    """Exact pushforward distribution of A - B for the full circuit.

    `split` is the circuit's first stage, `split_common_source` of the
    config's source, splitter angle and cutoff; a scan over processes passes
    it in so the split is built once.
    """
    cut = config.resolved_cutoff
    if split is None:
        split = split_common_source(config.source_photons, config.splitter_theta, cut)
    state = apply_process(split, 1, config.process)
    state = apply_coupler(state, (0, 1), CouplerParams(math.pi / 4, SPLITTER_PHASE))
    dist = joint_count_distribution(state.normalize())
    values = np.arange(-cut, cut + 1)
    counts = np.arange(cut + 1)
    probs = np.bincount(
        (counts[:, None] - counts[None, :] + cut).ravel(),
        weights=dist.probabilities.ravel(),
        minlength=values.size,
    )
    mean = float((values * probs).sum())
    var = float((values**2 * probs).sum()) - mean**2
    return DifferenceStats(values, probs, mean, var)


@dataclass(frozen=True)
class TomographyScan:
    gammas: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    recovered_offset: float
    amplitude: float


def process_tomography_scan(config: HomodyneConfig, gamma_grid: np.ndarray) -> TomographyScan:
    """Sweep a phase process over gamma_grid and recover the built-in offset.

    The configured process must be a phase shift; its gamma acts as an
    unknown offset gamma0 so the scanned curve is mean(gamma) =
    -amp * cos(gamma + gamma0). The offset is read off the first Fourier
    component of the scanned curve, which is exact for a uniform full-period
    grid and a noiseless forward model.
    """
    if not isinstance(config.process, PhaseShiftProcess):
        raise ValidationError("tomography scan needs a phase-shift process family")
    gamma0 = config.process.gamma
    gammas = np.asarray(gamma_grid, dtype=float)
    means = np.zeros(gammas.size)
    variances = np.zeros(gammas.size)
    split = split_common_source(config.source_photons, config.splitter_theta, config.resolved_cutoff)
    for i, g in enumerate(gammas):
        stats = homodyne_difference_stats(
            HomodyneConfig(
                config.source_photons,
                PhaseShiftProcess(gamma0 + g),
                config.splitter_theta,
                config.cutoff,
            ),
            split,
        )
        means[i] = stats.mean
        variances[i] = stats.variance
    harmonic = np.mean(means * np.exp(-1j * gammas)) * 2.0
    recovered = float(np.angle(-harmonic))
    return TomographyScan(gammas, means, variances, recovered, float(abs(harmonic)))
