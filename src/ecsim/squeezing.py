"""Two-mode squeezing: the exact three-mode parametric interaction at small
pump occupation, the classical-pump idealization, and the circle
representation of a number-state pump whose pair modes ride on the pump phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import ECSState, PairFactor, PhaseGrid, ecs_to_fock
from .errors import SizingError, ValidationError
from .fock import (
    BASIS_SIZE_CAP,
    DensityMatrix,
    FockVector,
    ModeShape,
    default_cutoff,
    embed,
    fidelity,
    poisson_pmf,
    reduced_density,
)

PUMP_ORACLE_CAP = 12


def required_pair_cutoff(chi_mag: float, tail: float = 1e-8) -> int:
    """Smallest pair cutoff whose geometric Schmidt tail is below `tail`."""
    t2 = math.tanh(chi_mag) ** 2
    if t2 == 0.0:
        return 0
    if t2 == 1.0:
        raise SizingError(f"tanh^2 of squeezing {chi_mag} rounds to 1: no finite pair cutoff exists")
    k = math.log(tail * (1.0 - t2)) / math.log(t2) - 1.0
    return max(0, int(math.ceil(k)))


def two_mode_squeezed_vac(chi: complex, cutoff: int) -> FockVector:
    """Pair-correlated vacuum: exp(chi* ab - chi a^dag b^dag)|0,0>.

    Exponentiates the generator on the pair ladder |k, k>, so support off the
    diagonal is structurally zero. Rejects cutoffs whose truncation tail
    exceeds 1e-8, naming the cutoff that would suffice.
    """
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    need = required_pair_cutoff(abs(chi))
    if cutoff < need:
        raise ValidationError(
            f"truncation tail above 1e-8 at cutoff {cutoff}; need cutoff >= {need}"
        )
    ladder = pair_ladder_coefficients(chi, cutoff)
    amps = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    k = np.arange(cutoff + 1)
    amps[k, k] = ladder
    return FockVector(ModeShape((cutoff, cutoff)), amps)


def pair_ladder_coefficients(chi: complex, cutoff: int) -> np.ndarray:
    """Coefficients on |k, k> from the matrix exponential of the pair generator."""
    from scipy.linalg import expm  # loaded by the squeeze experiment and verify only

    if chi == 0:
        out = np.zeros(cutoff + 1, dtype=np.complex128)
        out[0] = 1.0
        return out
    if (cutoff + 1) ** 2 > BASIS_SIZE_CAP:
        raise SizingError(f"pair ladder generator at cutoff {cutoff} exceeds the basis cap")
    G = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    for k in range(cutoff):
        G[k + 1, k] = -chi * (k + 1)
        G[k, k + 1] = np.conj(chi) * (k + 1)
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    vec[0] = 1.0
    return expm(G) @ vec


def exact_three_mode_evolution(pump_n: int, zeta_t: complex, cutoff: int | None = None) -> FockVector:
    """Evolve |pump_n, 0, 0> under the trilinear pair-production generator.

    The interaction conserves pump-plus-pair number, so the dynamics stay in
    the (pump_n + 1)-dimensional sector spanned by |pump_n - k> |k, k>; the
    sector generator is exponentiated exactly. Serves as the ground truth for
    the classical-pump replacement.
    """
    from scipy.linalg import expm

    if pump_n < 0:
        raise ValidationError("pump photon number must be nonnegative")
    if pump_n > PUMP_ORACLE_CAP:
        raise SizingError(f"exact pump evolution capped at {PUMP_ORACLE_CAP} photons")
    pair_cut = pump_n if cutoff is None else min(cutoff, pump_n)
    G = np.zeros((pump_n + 1, pump_n + 1), dtype=np.complex128)
    for k in range(pump_n + 1):
        if k + 1 <= pump_n:
            G[k + 1, k] = -zeta_t * math.sqrt(pump_n - k) * (k + 1)
        if k - 1 >= 0:
            G[k - 1, k] = np.conj(zeta_t) * math.sqrt(pump_n - k + 1) * k
    vec = np.zeros(pump_n + 1, dtype=np.complex128)
    vec[0] = 1.0
    sector = expm(G) @ vec
    shape = ModeShape((pump_n, pair_cut, pair_cut))
    amps = np.zeros(shape.dims, dtype=np.complex128)
    for k in range(pair_cut + 1):
        amps[pump_n - k, k, k] = sector[k]
    return FockVector(shape, amps)


def pump_entangled_squeezed(n: int, zeta_t: complex, pair_cutoff: int | None = None) -> ECSState:
    """Circle representation of squeezing pumped by the number state |n>.

    Each pump phase point carries the coherent pump amplitude sqrt(n) e^{i phi}
    together with a pair state of parameter chi(phi) = sqrt(n) zeta_t e^{i phi};
    the synthesized state has definite pump-plus-pair number n.
    """
    if n < 1:
        raise ValidationError("the classical-pump replacement needs n >= 1")
    chi_mag = math.sqrt(n) * abs(zeta_t)
    pair_cut = required_pair_cutoff(chi_mag) + 2 if pair_cutoff is None else pair_cutoff
    pump_cut = default_cutoff(float(n))
    if (pump_cut + 1) * (pair_cut + 1) ** 2 > 2**24:
        raise SizingError("pump-entangled synthesis exceeds the basis cap")
    grid = PhaseGrid.for_cutoff(pump_cut)
    phis = grid.points
    weight = np.exp(-1j * n * phis) / math.sqrt(poisson_pmf(float(n), n))
    amps = (math.sqrt(n) * np.exp(1j * phis))[:, None]
    chis = math.sqrt(n) * zeta_t * np.exp(1j * phis)
    shape = ModeShape((pump_cut, pair_cut, pair_cut))
    return ECSState((grid,), weight, (0,), amps, shape, (PairFactor((1, 2), chis),))


def reduced_ab_density(state: FockVector) -> DensityMatrix:
    """Trace the pump out of a three-mode state: the pair modes keep only
    number-diagonal weights because the pump phase average kills coherences."""
    if state.shape.mode_count != 3:
        raise ValidationError("expected a pump + two-mode state")
    return reduced_density(state.normalize(), keep=(1, 2))


@dataclass(frozen=True)
class ApproximationPoint:
    pump_n: int
    fidelity: float
    norm_deficit: float


def approximation_quality(
    pump_ns: list[int], scale: float, pair_cutoff: int | None = None
) -> list[ApproximationPoint]:
    """Fidelity of the circle synthesis against the exact three-mode oracle at
    fixed sqrt(n) * |zeta_t| = scale.

    The synthesized state is renormalized before comparing; the deficit
    1 - norm^2 is reported alongside as the approximation's own diagnostic.
    """
    points = []
    for n in pump_ns:
        zeta = scale / math.sqrt(n)
        ecs = pump_entangled_squeezed(n, zeta, pair_cutoff)
        synth = ecs_to_fock(ecs)
        deficit = 1.0 - synth.norm2
        exact = exact_three_mode_evolution(n, zeta)
        target_shape = ModeShape(
            (
                max(ecs.shape.cutoffs[0], exact.shape.cutoffs[0]),
                max(ecs.shape.cutoffs[1], exact.shape.cutoffs[1]),
                max(ecs.shape.cutoffs[2], exact.shape.cutoffs[2]),
            )
        )
        fid = fidelity(embed(synth, target_shape), embed(exact, target_shape))
        points.append(ApproximationPoint(n, fid, deficit))
    return points
