"""Two-mode squeezing: the exact three-mode parametric interaction, the
classical-pump idealization, and the circle representation of a number-state
pump whose pair modes ride on the pump phase.

The interaction conserves pump-plus-pair number, so a pump of n photons stays
in its pump sector, the n + 1 amplitudes of |n - k, k, k>, k = 0..n. Both
routes are computed there: the exact one from one eigensolve of the sector
generator, the circle one by reading the circle state at the sector tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import ECSState, PairFactor, PhaseGrid, ecs_sector_amplitudes, pair_ladder
from .coupler import _I_POWERS
from .errors import SizingError, ValidationError
from .fock import FockVector, ModeShape, check_cells, poisson_pmf, zeros


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
    """Pair-correlated vacuum: exp(chi* ab - chi a^dag b^dag)|0,0> up to `cutoff`.

    The closed-form `circle.pair_ladder` fills the diagonal |k, k>, so support
    off the diagonal is structurally zero. Rejects cutoffs whose truncation
    tail exceeds 1e-8, naming the cutoff that would suffice.
    """
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    need = required_pair_cutoff(abs(chi))
    if cutoff < need:
        raise ValidationError(
            f"truncation tail above 1e-8 at cutoff {cutoff}; need cutoff >= {need}"
        )
    amps = zeros((cutoff + 1, cutoff + 1))
    k = np.arange(cutoff + 1)
    amps[k, k] = pair_ladder(chi, cutoff)[0]
    return FockVector(ModeShape((cutoff, cutoff)), amps)


def pump_sector_evolution(n: int, zeta_t: complex) -> np.ndarray:
    """Amplitudes of the evolved |n, 0, 0> on |n - k, k, k>, k = 0..n.

    The trilinear generator acts on the pump sector as G with
    G[k + 1, k] = -zeta_t sqrt(n - k) (k + 1) and G[k, k + 1] its negated
    conjugate. G = -i |zeta_t| D T D^dag, where D = diag((-i zeta_t/|zeta_t|)^k)
    and T is the real symmetric tridiagonal matrix with zero diagonal and
    off-diagonal sqrt(n - k) (k + 1). One `np.linalg.eigh` of T = W diag(m) W^T
    then gives exp(G) e_0 = D W (e^{-i |zeta_t| m} * W^T e_0), as
    `coupler.sector_spectrum` does for J_y. Serves as the ground truth for the
    classical-pump replacement.
    """
    if n < 0:
        raise ValidationError("pump photon number must be nonnegative")
    check_cells((n + 1) ** 2, f"pump sector generator of {n} photons")
    r = abs(zeta_t)
    if r == 0.0:
        return np.eye(1, n + 1, dtype=np.complex128)[0]
    k = np.arange(n + 1)
    T = np.zeros((n + 1, n + 1))
    T[k[:-1], k[1:]] = T[k[1:], k[:-1]] = np.sqrt(n - k[:-1]) * (k[:-1] + 1.0)
    m, W = np.linalg.eigh(T)
    inner = np.exp(-1j * r * m) * W[0]
    rotated = W @ inner.real + 1j * (W @ inner.imag)
    return _I_POWERS[-k % 4] * np.exp(1j * np.angle(zeta_t) * k) * rotated


def pump_entangled_squeezed(n: int, zeta_t: complex, pair_cutoff: int | None = None) -> ECSState:
    """Circle representation of squeezing pumped by the number state |n>.

    Each pump phase point carries the coherent pump amplitude sqrt(n) e^{i phi}
    together with a pair state of parameter chi(phi) = sqrt(n) zeta_t e^{i phi};
    the synthesized state has definite pump-plus-pair number n. The circle has
    pump cutoff n, since pump + pair = n, and the grid `PhaseGrid.exact` gives
    for its shape's largest total occupation, n + pair cutoff, so that
    `ecs_to_fock` reads it exactly too.
    """
    if n < 1:
        raise ValidationError("the classical-pump replacement needs n >= 1")
    chi_mag = math.sqrt(n) * abs(zeta_t)
    pair_cut = required_pair_cutoff(chi_mag) + 2 if pair_cutoff is None else pair_cutoff
    grid = PhaseGrid.exact(n + pair_cut)
    phis = grid.points
    weight = np.exp(-1j * n * phis) / math.sqrt(poisson_pmf(float(n), n))
    amps = (math.sqrt(n) * np.exp(1j * phis))[:, None]
    chis = math.sqrt(n) * zeta_t * np.exp(1j * phis)
    shape = ModeShape((n, pair_cut, pair_cut))
    return ECSState((grid,), weight, (0,), amps, shape, (PairFactor((1, 2), chis),))


@dataclass(frozen=True)
class ApproximationPoint:
    pump_n: int
    fidelity: float
    norm_deficit: float


def approximation_quality(
    pump_ns: list[int], scale: float, pair_cutoff: int | None = None
) -> list[ApproximationPoint]:
    """Fidelity of the circle synthesis against the exact three-mode evolution
    at fixed sqrt(n) * |zeta_t| = scale.

    Both states are read on the pump sector only: the circle state at its
    tuples |n - k, k, k>, k up to the pair cutoff, where all of its content
    lies. The synthesized state is renormalized before comparing; the deficit
    1 - norm^2 is reported alongside as the approximation's own diagnostic.
    Each pump is sized, by its circle table, before its eigensolve or any
    table is built.
    """
    points = []
    for n in pump_ns:
        pair_cut = required_pair_cutoff(scale) + 2 if pair_cutoff is None else pair_cutoff
        # the circle table is the largest array; the n + 1 square eigensolve is smaller
        check_cells(PhaseGrid.exact(n + pair_cut).size * (n + 1), f"pump circle tables at {n} photons")
        zeta = scale / math.sqrt(n)
        k = np.arange(min(n, pair_cut) + 1)
        synth = ecs_sector_amplitudes(pump_entangled_squeezed(n, zeta, pair_cut), np.stack([n - k, k, k], axis=1))
        exact = pump_sector_evolution(n, zeta)
        norm2 = float(np.vdot(synth, synth).real)
        fid = float(abs(np.vdot(synth, exact[k])) ** 2 / (norm2 * np.vdot(exact, exact).real))
        points.append(ApproximationPoint(n, fid, 1.0 - norm2))
    return points
