"""Cross-module invariant suites behind `ecsim verify`.

Each check returns (measured, tolerance); a check passes when measured does
not exceed tolerance. The fast suite is sized for interactive use; the full
suite adds the large oracle sweeps and the brute-force trajectory comparison.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import circle as _circle
from .circle import ecs_apply_coupler, ecs_sector_amplitudes, ecs_to_fock, two_mode_circle
from .coupler import CouplerParams, apply_sector, coupler_block, oracle_block
from .fock import (
    DensityMatrix,
    ModeShape,
    coherent_amplitudes,
    fidelity,
    phase_shift,
    poisson_pmf,
    to_density,
    twirl,
    vector_fidelity,
)
from .measurement import exact_trajectory_leaves, sector_amplitudes, trajectory_leaves
from .sources import LaserSpec, decomposition_equivalence_check, laser_density
from .squeezing import approximation_quality


def _worst(gaps) -> float:
    """The largest gap, and at least 0.0; np.max keeps a NaN, which Python's
    max would drop, so a NaN gap fails its check."""
    return float(np.max([0.0, *gaps]))


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    seconds: float = 0.0  # wall time, filled in by run_suite

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def _random_density(shape: ModeShape, seed: int) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(3, shape.size)) + 1j * rng.normal(size=(3, shape.size))
    w = rng.random(3)
    w /= w.sum()
    ent = sum(
        wi * np.outer(v, v.conj()) / np.vdot(v, v).real for wi, v in zip(w, vecs)
    )
    return DensityMatrix(shape, ent)


def check_twirl_idempotent() -> CheckResult:
    gaps = []
    for seed in (1, 2, 3):
        rho = _random_density(ModeShape((3, 2)), seed)
        once = twirl(rho)
        gaps.append(np.abs(twirl(once).entries - once.entries).max())
    return CheckResult("twirl-idempotent", _worst(gaps), 1e-12)


def check_twirl_invariance() -> CheckResult:
    gaps = []
    for seed, delta in ((4, 0.7), (5, 2.1)):
        rho = _random_density(ModeShape((3, 2)), seed)
        # conjugate by a global phase shift of both modes
        tot = rho.shape.total_occupation()
        u = np.exp(1j * delta * tot)
        shifted = DensityMatrix(rho.shape, (u[:, None] * rho.entries) * u.conj()[None, :])
        gaps.append(np.abs(twirl(shifted).entries - twirl(rho).entries).max())
    return CheckResult("twirl-invariance", _worst(gaps), 1e-12)


def check_laser_dual_form() -> CheckResult:
    nbar, cutoff = 1.7, 30
    direct = laser_density(LaserSpec(nbar, cutoff)).to_density()
    phase_avg = twirl(to_density(coherent_amplitudes(math.sqrt(nbar), cutoff)))
    return CheckResult(
        "laser-dual-form", float(np.abs(direct.entries - phase_avg.entries).max()), 1e-12
    )


def check_oracle_agreement(n_max: int) -> CheckResult:
    """Spectral coupler blocks against the Pade oracle for N <= n_max at three
    angles. The angle is the inner loop, so each sector is factorised once."""
    gaps = []
    for N in range(n_max + 1):
        for theta in (math.pi / 8, math.pi / 4, math.pi / 3):
            params = CouplerParams(theta, 0.9)
            gaps.append(np.abs(coupler_block(params, N).matrix - oracle_block(params, N).matrix).max())
    return CheckResult(f"coupler-oracle-N{n_max}", _worst(gaps), 1e-10)


def check_hong_ou_mandel() -> CheckResult:
    U = coupler_block(CouplerParams(math.pi / 4, 0.0), 2).matrix
    return CheckResult("hong-ou-mandel-null", float(abs(U[1, 1])), 1e-12)


def check_commuting_diagram(
    n_max: int,
    thetas: Sequence[float] = (math.pi / 8, math.pi / 4, math.pi / 3),
    phis: Sequence[float] = (0.0, math.pi / 2),
) -> CheckResult:
    """Couple-then-synthesize against synthesize-then-couple on the circle
    states |n, 0> and |n, n>, n <= n_max, for every (theta, phi), compared
    on the one sector a coupler leaves them in: the N + 1 tuples (k, N - k),
    N = n + n'. The circle side reads the coupled circle state there with
    `ecs_sector_amplitudes`; the Fock side is `coupler.apply_sector` on the
    uncoupled state's amplitudes there. The uncoupled amplitudes do not
    depend on (theta, phi), so each (n, n') reads them once. Amplitude a
    route puts outside the sector is not seen here; `ecs_to_fock` against
    `apply_coupler` on the dense basis is tested separately."""
    gaps = []
    params = [CouplerParams(theta, phi) for theta in thetas for phi in phis]
    # largest case first, so a sweep too large for the size cap is refused at once
    for n in range(n_max, -1, -1):
        for nprime in sorted({0, n}, reverse=True):
            N = n + nprime
            # grids of degree N, the sector's, and the cutoffs a coupler needs
            ecs = dataclasses.replace(two_mode_circle(n, nprime), shape=ModeShape((N, N)))
            k = np.arange(N + 1)
            tuples = np.stack([k, N - k], axis=1)
            reference = ecs_sector_amplitudes(ecs, tuples)
            for coupler in params:
                via_ecs = ecs_sector_amplitudes(ecs_apply_coupler(ecs, (0, 1), coupler), tuples)
                via_fock = apply_sector(coupler, reference)
                gaps.append(1.0 - vector_fidelity(via_ecs, via_fock))
    return CheckResult(f"commuting-diagram-n{n_max}", _worst(gaps), 1e-10)


def check_quadrature_exactness() -> CheckResult:
    base = _circle.number_state_on_circle(4, cutoff=4)
    small = ecs_to_fock(base)
    grid = _circle.PhaseGrid(64)
    phis = grid.points
    big = dataclasses.replace(
        base,
        grids=(grid,),
        weight=np.exp(-4j * phis) / math.sqrt(poisson_pmf(4.0, 4)),
        amplitudes=(2.0 * np.exp(1j * phis))[:, None],
    )
    diff = float(np.abs(ecs_to_fock(big).amplitudes - small.amplitudes).max())
    return CheckResult("quadrature-grid-invariance", diff, 1e-12)


def check_decomposition_equivalence(nbar: float, modes: int, cutoff: int) -> CheckResult:
    rep = decomposition_equivalence_check(nbar, modes, cutoff)
    return CheckResult(
        f"decomposition-nbar{nbar}-N{modes}", rep.trace_distance, 1e-8 + rep.tail_bound
    )


def check_phase_shift_covariance() -> CheckResult:
    st = coherent_amplitudes(1.0, 24)
    rotated = phase_shift(st, 0, math.pi / 2)
    target = coherent_amplitudes(1.0j, 24)
    return CheckResult("phase-shift-covariance", 1.0 - fidelity(rotated, target), 1e-12)


def check_trajectory_brute_force(n_max: int, steps: int) -> CheckResult:
    """Every leaf of the phase route's outcome tree against the exact Fock
    oracle: leaf probabilities, and the conditional cavity states compared
    on the phase route's D-photon sector, one stacked comparison per D. The
    oracle's norm is its full norm, so any amplitude it holds outside that
    sector counts against it."""
    gaps = [np.zeros(1)]
    for n in range(1, n_max + 1):
        eps = 0.4
        leaves = trajectory_leaves(n, eps, steps, floor=1e-6)
        states, p_fock = exact_trajectory_leaves(n, eps, leaves.outcomes)
        gaps.append(np.abs(p_fock - leaves.probabilities))
        for D in np.unique(leaves.remaining).tolist():
            rows = np.flatnonzero((leaves.remaining == D) & (p_fock > 1e-8))
            k, sector = sector_amplitudes(n, D, leaves.weights[rows])
            embedded = np.zeros((rows.size, n + 1, n + 1), dtype=np.complex128)
            embedded[:, k, D - k] = sector
            gaps.append(1.0 - vector_fidelity(states[rows].reshape(rows.size, -1), embedded.reshape(rows.size, -1)))
    return CheckResult(f"trajectory-brute-force-n{n_max}", float(np.max(np.concatenate(gaps))), 1e-8)


def check_squeezing_monotone() -> CheckResult:
    points = approximation_quality([2, 4, 8], scale=0.2)
    gaps = [earlier.fidelity - later.fidelity for earlier, later in zip(points, points[1:])]
    return CheckResult("squeezing-fidelity-monotone", _worst(gaps), 1e-12)


def fast_suite() -> list[Callable[[], CheckResult]]:
    return [
        check_twirl_idempotent,
        check_twirl_invariance,
        check_laser_dual_form,
        check_phase_shift_covariance,
        lambda: check_oracle_agreement(20),
        check_hong_ou_mandel,
        lambda: check_commuting_diagram(4),
        check_quadrature_exactness,
        lambda: check_decomposition_equivalence(1.0, 2, 12),
        check_squeezing_monotone,
    ]


def full_suite() -> list[Callable[[], CheckResult]]:
    return fast_suite() + [
        lambda: check_oracle_agreement(60),
        lambda: check_commuting_diagram(8),
        lambda: check_decomposition_equivalence(2.0, 3, 14),
        lambda: check_trajectory_brute_force(4, 3),
    ]


def run_suite(name: str) -> list[CheckResult]:
    if name == "fast":
        checks = fast_suite()
    elif name == "full":
        checks = full_suite()
    else:
        raise ValueError(f"unknown suite {name!r}")
    results = []
    for check in checks:
        start = time.perf_counter()
        result = check()
        results.append(dataclasses.replace(result, seconds=time.perf_counter() - start))
    return results
