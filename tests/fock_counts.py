"""Born-rule count statistics of truncated Fock states, used by the tests as
plain references: dense sums over |amplitude|^2, no phase-circle code. Also
the pair-ladder reference, a Taylor series of the pair generator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ecsim.errors import ValidationError
from ecsim.fock import DensityMatrix, FockVector
from fock_helpers import reduced_density


@dataclass(frozen=True)
class CountDistribution:
    """Probabilities over per-mode count tuples for a subset of modes."""

    modes: tuple[int, ...]
    dims: tuple[int, ...]
    probabilities: np.ndarray

    def prob(self, counts: tuple[int, ...]) -> float:
        return float(self.probabilities[tuple(counts)])

    def total(self) -> float:
        return float(self.probabilities.sum())

    def marginal(self, keep_positions: tuple[int, ...]) -> "CountDistribution":
        """Marginal over a subset of the measured modes (positions into `modes`)."""
        drop = tuple(i for i in range(len(self.modes)) if i not in keep_positions)
        probs = self.probabilities.sum(axis=drop) if drop else self.probabilities
        return CountDistribution(
            tuple(self.modes[i] for i in keep_positions),
            tuple(self.dims[i] for i in keep_positions),
            probs,
        )


def joint_count_distribution(state: FockVector, modes: tuple[int, ...] | None = None) -> CountDistribution:
    """Born-rule distribution of photon counts on the listed modes."""
    if abs(state.norm2 - 1.0) > 1e-9:
        raise ValidationError(f"state norm^2 = {state.norm2} is not 1 within 1e-9")
    K = state.shape.mode_count
    modes = tuple(range(K)) if modes is None else tuple(modes)
    if len(set(modes)) != len(modes) or any(m < 0 or m >= K for m in modes):
        raise ValidationError(f"invalid mode subset {modes}")
    others = tuple(m for m in range(K) if m not in modes)
    probs = np.abs(state.amplitudes) ** 2
    if others:
        probs = probs.sum(axis=others)
        # sum over `others` leaves axes ordered by original index; reorder to `modes`
        kept_sorted = tuple(m for m in range(K) if m in modes)
        perm = [kept_sorted.index(m) for m in modes]
        probs = np.transpose(probs, perm)
    dims = tuple(state.shape.dims[m] for m in modes)
    return CountDistribution(modes, dims, probs)


def total_number_distribution(state: FockVector, modes: tuple[int, ...] | None = None) -> np.ndarray:
    """Distribution of the summed photon number over `modes` (default all)."""
    K = state.shape.mode_count
    modes = tuple(range(K)) if modes is None else tuple(modes)
    tot = state.shape.total_occupation(modes)
    probs = state.probabilities().ravel()
    out = np.zeros(int(tot.max()) + 1)
    np.add.at(out, tot, probs)
    return out


def reduced_ab_density(state: FockVector) -> DensityMatrix:
    """Trace the pump out of a three-mode state: the pair modes keep only
    number-diagonal weights because the pump phase average kills coherences."""
    if state.shape.mode_count != 3:
        raise ValidationError("expected a pump + two-mode state")
    return reduced_density(state.normalize(), keep=(1, 2))


def taylor_pair_state(chi: complex, cutoff: int, order: int = 60) -> np.ndarray:
    """sum_j G^j v / j! on the pair ladder |k, k>, k = 0..cutoff, with G the
    generator chi* ab - chi a^dag b^dag truncated at `cutoff` and v = |0, 0>."""
    G = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(cutoff):
        G[k + 1, k] = -chi * (k + 1)
        G[k, k + 1] = np.conj(chi) * (k + 1)
    vec = np.zeros(cutoff + 1, dtype=complex)
    vec[0] = 1.0
    total = vec.copy()
    term = vec.copy()
    for j in range(1, order + 1):
        term = G @ term / j
        total = total + term
        if np.linalg.norm(term) < 1e-18:
            break
    return total
