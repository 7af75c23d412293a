"""Phase-symmetric source models: the ideal Poissonian cavity field, the
check of its multimode output's two decompositions one total photon number
at a time, and a phase-diffusion model of finite coherence time.

The number-state output uses the circle weight e^{-i m phi}; with the
coherent-state expansion convention used throughout (|alpha> carries
e^{+i n phi}) this is the sign that actually reproduces |m> under synthesis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .circle import ECSState, PhaseGrid, sector_amplitude_stack
from .coupler import CouplerParams, apply_pair, split_cascade
from .errors import ValidationError
from .fock import (
    ModeShape,
    NumberDiagonalDensity,
    _log_factorial,
    check_cells,
    check_integer,
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
        if not 0 <= self.nbar < math.inf:
            raise ValidationError(f"nbar must be finite and nonnegative, got {self.nbar}")
        check_integer(self.cutoff, "cutoff")
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
        if not 0 <= self.step_variance < math.inf:
            raise ValidationError(f"step_variance must be finite and nonnegative, got {self.step_variance}")
        check_integer(self.mode_count, "mode_count")
        check_integer(self.photon_number, "photon_number")
        if self.mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        if self.photon_number < 0:
            raise ValidationError("photon_number must be nonnegative")


def laser_density(spec: LaserSpec) -> NumberDiagonalDensity:
    """Poissonian mixture of number states; equals the phase average of the
    coherent-state projector with the same mean photon number."""
    check_cells(spec.cutoff + 1, f"laser weights to cutoff {spec.cutoff}")
    weights = poisson_pmf(spec.nbar, np.arange(spec.cutoff + 1))
    return NumberDiagonalDensity(ModeShape((spec.cutoff,)), weights)


@dataclass(frozen=True)
class EquivalenceReport:
    trace_distance: float
    tail_bound: float
    m_max: int


def decomposition_equivalence_check(nbar: float, n_modes: int, cutoff: int) -> EquivalenceReport:
    """Trace distance between the two decompositions of the split laser output.

    Route one mixes coupler-cascade splits s_m of |m>, m <= cutoff, with
    Poisson weights p_m; route two phase-averages the product of coherent
    states sqrt(nbar / n_modes), each truncated at `cutoff`. Both conserve
    the total photon number T, so the trace norm is a sum over T. For
    T <= cutoff the block |u><u| - |w><w|, u = sqrt(p_T) s_T and w the product
    on the T-photon tuples, has the trace norm
    sqrt((|u|^2 - |w|^2)^2 + 4 |u|^2 |r|^2), r = w - (<u|w> / |u|^2) u, which
    subtracts no near-equal squares; the blocks above add the product's mass
    off those tuples. The Poisson mass the cutoff drops is reported with the
    distance, as the bound on their honest disagreement.
    """
    if not 0 <= nbar < math.inf:
        raise ValidationError(f"nbar must be finite and nonnegative, got {nbar}")
    # every tuple of n_modes modes holding at most `cutoff` photons: a slack mode holds the rest
    listing = sector_occupations(n_modes + 1, cutoff)
    occ, total = listing[:, :-1], cutoff - listing[:, -1]
    # the cascade keeps total photon number, so one split of sum_m |m, 0, ..., 0>
    # holds the split of each |m> on its m-photon tuples; with no photons
    # there is nothing to split, in any number of modes
    split = (occ[:, 0] == total).astype(np.complex128)
    for a, b, theta in split_cascade(n_modes) if cutoff else []:
        split = apply_pair(occ, split, (a, b), CouplerParams(theta))
    u = np.sqrt(poisson_pmf(nbar, np.arange(cutoff + 1)))[total] * split
    # the coherent product at phase 0, which is real, on the same tuples, as
    # e^{-nbar/2 + sum_modes d_occ}, d_k = log(alpha^k / sqrt(k!)): its amplitudes
    # and its in-cutoff mass e^{-nbar} (sum_k e^{2 d_k})^modes then round alike,
    # where a product of modes factors e^{-alpha^2/2} against a power would not
    alpha2, k = nbar / n_modes, np.arange(1, cutoff + 1)
    d = np.zeros(cutoff + 1)
    d[1:] = 0.5 * (k * math.log(alpha2) - _log_factorial(k)) if alpha2 > 0.0 else -np.inf
    log_w = d[occ].sum(axis=1) - 0.5 * nbar
    w = np.exp(log_w)
    per_total = functools.partial(np.bincount, total, minlength=cutoff + 1)
    uu, ww = per_total(np.abs(u) ** 2), per_total(np.exp(2.0 * log_w))
    uw = per_total(u.real * w) - 1j * per_total(u.imag * w)
    # where |u|^2 is subnormal the division would overflow; such a block's
    # trace norm is at most |u|^2 + |w|^2, which is taken
    normal = uu >= np.finfo(np.float64).tiny
    coef = np.divide(uw, uu, out=np.zeros_like(uw), where=normal)
    rr = per_total(np.abs(w - coef[total] * u) ** 2)
    blocks = np.where(normal, np.sqrt((uu - ww) ** 2 + 4.0 * uu * rr), uu + ww)
    # the largest term of sum_k e^{2 d_k} taken out, so that no exp overflows
    # and log1p keeps the rest's digits
    top = int(np.argmax(d))
    rest = np.exp(2.0 * (d - d[top]))
    rest[top] = 0.0
    mass = math.exp(n_modes * (2.0 * d[top] + math.log1p(float(rest.sum()))) - nbar)
    above = max(0.0, mass - float(ww.sum()))
    tail = poisson_tail(nbar, cutoff) + n_modes * poisson_tail(nbar / n_modes, cutoff)
    return EquivalenceReport(float(blocks.sum()) + above, tail, cutoff)


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


def phase_walk_correlation(
    spec: PhaseWalkSpec, realizations: int, pairs: list[tuple[int, int]] | None = None
) -> PhaseWalkResult:
    """First-order coherence <b_k^dag b_l> / sqrt(<n_k><n_l>) of the walk,
    averaged over realizations of the phase path.

    Each realization takes matrix elements of its exact m-photon state
    through the lowered vectors b_l psi, on the C(m + N - 2, m - 1) tuples of
    the (m - 1)-photon sector: b_l |alpha> = alpha_l |alpha>, so b_l psi is
    the circle quadrature with the weight e^{-i m phi} times alpha_l(phi);
    nothing is inferred from the weight algebra. The realizations are taken
    in chunks of about `CHUNK_CELLS` cells: a chunk's walks come from one
    draw of the seeded generator (the same stream as one draw per
    realization), its lowered vectors from one
    `circle.sector_amplitude_stack` quadrature and its N x N correlations
    from one stacked product. |g1| decays like
    exp(-step_variance |k - l| / 2) in the realization average. `pairs`
    restricts which (k, l) entries are computed and reported. No photons
    (m = 0) gives g1 = 0.
    """
    check_integer(realizations, "realizations")
    if realizations < 1:
        raise ValidationError("need at least one realization")
    N, m = spec.mode_count, spec.photon_number
    # the rule's grid for m photons, exact for the lowered weights' frequency -(m - 1)
    grid = PhaseGrid.exact(m)
    # sized before the sector and pair indices: the circle tables, then g1 and samples
    check_cells(grid.size * N * (m + 1), f"circle tables of {N} modes at {m} photons")
    g1 = zeros((N, N))
    samples = zeros((N * N if pairs is None else len(pairs), realizations))
    ks, ls = np.divmod(np.arange(N * N), N) if pairs is None else np.array(pairs, dtype=int).reshape(-1, 2).T
    if not ((0 <= ks) & (ks < N) & (0 <= ls) & (ls < N)).all():
        raise ValidationError(f"pairs must index modes 0..{N - 1}")
    phis = grid.points
    weight = np.exp(-1j * m * phis) / math.sqrt(poisson_pmf(float(m), m))
    below = sector_occupations(N, m - 1) if m > 0 else np.zeros((0, N), dtype=np.int64)
    # grids and shape for the stacked quadrature; each chunk brings its own
    # amplitudes and weights, so this state's are zeros that are never read
    circle = ECSState((grid,), np.zeros(grid.size), tuple(range(N)), np.zeros((grid.size, N)), ModeShape.uniform(N, m))
    # cells one realization holds at once: circle tables, the quadrature's
    # (points, tuples) products, lowered vectors and correlations. A lone
    # realization is within the checks above, and circle.BLOCK_CELLS blocks
    # the products
    cells = max(grid.size * N * (m + 1), grid.size * len(below), N * len(below), N * N)
    chunk = max(1, CHUNK_CELLS // cells)
    rng = default_rng(spec.seed)
    # abs: a variance of -0.0 has the square root -0.0, which numpy refuses as a scale
    step = abs(math.sqrt(spec.step_variance))
    for start in range(0, realizations, chunk):
        r = min(chunk, realizations - start)
        walks = np.zeros((r, N))
        np.cumsum(rng.normal(0.0, step, (r, N - 1)), axis=1, out=walks[:, 1:])
        alphas = math.sqrt(m / N) * np.exp(1j * (walks[:, :, None] + phis))  # (r, N, points)
        lowered = sector_amplitude_stack(circle, alphas.transpose(0, 2, 1), weight * alphas, below)
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
