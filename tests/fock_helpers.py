"""Dense truncated-Fock helpers that only the tests use: cutoffs for a
Poisson source, zero-padding, partial traces, number-diagonal reads,
projective count collapse, the interference weight's phase-pair magnitude
table, the trajectory's full phase-pair table, the trajectory's walked
branches and its Fock oracle, both keyed by outcome sequence, the detection
recursion that collapses the trajectory weight on one outcome, the squeezing
pump sector in the dense three-mode basis, and the laser check's dense
reference: the coupler-cascade split of a state, the multimode coherent
product and the trace norm."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ecsim import circle
from ecsim.coupler import CouplerParams, apply_coupler, split_cascade
from ecsim.errors import ValidationError
from ecsim.fock import (
    DensityMatrix,
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    check_cells,
    check_dense,
    coherent_log_amplitudes,
    tensor,
    vacuum,
    zeros,
)
from ecsim.measurement import TrajectoryState, exact_trajectory_leaves, trajectory_leaves
from ecsim.squeezing import pump_sector_evolution


def default_cutoff(nbar: float) -> int:
    """Per-mode cutoff that keeps the Poisson tail of a mean-nbar source negligible."""
    return int(math.ceil(nbar + 10.0 * math.sqrt(max(nbar, 0.0)) + 10.0))


def embed(state: FockVector, shape: ModeShape) -> FockVector:
    """Zero-pad a state into a larger shape with the same mode count."""
    if shape.mode_count != state.shape.mode_count:
        raise ValidationError("embed requires equal mode counts")
    if any(cn < co for cn, co in zip(shape.cutoffs, state.shape.cutoffs)):
        raise ValidationError("target cutoffs must dominate the source cutoffs")
    amps = zeros(shape.dims)
    amps[tuple(slice(0, d) for d in state.shape.dims)] = state.amplitudes
    return FockVector(shape, amps)


def reduced_density(state: FockVector, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace of |state><state| keeping the listed modes.

    Contracts the pure state directly so the full density matrix is never
    materialized.
    """
    keep = tuple(keep)
    K = state.shape.mode_count
    if any(m < 0 or m >= K for m in keep) or len(set(keep)) != len(keep):
        raise ValidationError(f"invalid mode subset {keep}")
    drop = tuple(m for m in range(K) if m not in keep)
    psi = np.moveaxis(state.amplitudes, keep + drop, range(K))
    kdims = tuple(state.shape.dims[m] for m in keep)
    psi = psi.reshape(int(np.prod(kdims)), -1)
    check_cells(len(psi) ** 2, f"density matrix of dimension {len(psi)}")
    rho = psi @ psi.conj().T
    return DensityMatrix(ModeShape(tuple(state.shape.cutoffs[m] for m in keep)), rho)


def from_density(rho: DensityMatrix, atol: float = 1e-12) -> NumberDiagonalDensity:
    """The number-diagonal density of rho, which must have no off-diagonal
    entry larger than atol."""
    off = rho.entries - np.diag(np.diag(rho.entries))
    if np.abs(off).max() > atol:
        raise ValidationError("density has off-diagonal entries; not number diagonal")
    return NumberDiagonalDensity(rho.shape, np.real(np.diag(rho.entries)).reshape(rho.shape.dims))


def project_counts(
    state: FockVector, modes: tuple[int, ...], counts: tuple[int, ...]
) -> tuple[FockVector | None, float]:
    """Project the listed modes onto definite counts.

    Returns the renormalized state of the unmeasured modes together with the
    outcome probability; a zero-probability outcome returns (None, 0.0)
    rather than dividing by zero.
    """
    K = state.shape.mode_count
    modes = tuple(modes)
    counts = tuple(int(c) for c in counts)
    if len(modes) != len(counts):
        raise ValidationError("modes and counts must have equal length")
    if len(modes) >= K:
        raise ValidationError("at least one mode must remain unmeasured")
    for m, c in zip(modes, counts):
        if not 0 <= c <= state.shape.cutoffs[m]:
            raise ValidationError(f"count {c} outside cutoff of mode {m}")
    index: list = [slice(None)] * K
    for m, c in zip(modes, counts):
        index[m] = c
    sub = state.amplitudes[tuple(index)]
    prob = float(np.sum(np.abs(sub) ** 2))
    if prob == 0.0:
        return None, 0.0
    keep = tuple(m for m in range(K) if m not in modes)
    shape = ModeShape(tuple(state.shape.cutoffs[m] for m in keep))
    return FockVector(shape, sub / math.sqrt(prob)), prob


def conditional_table(weight: circle.ConditionalWeight) -> np.ndarray:
    """|C(phi, phi')| / e^{log_peak} on the weight's M-point grid: entry
    (j, k) is the weight's row at delta = phi_j - phi_k, read through
    `circle._log_weight_row` at call time."""
    M = weight.grid.size
    check_cells(M * M, f"weight table on a {M}-point grid")
    row = circle._log_weight_row(weight.A, weight.B, weight.eps, weight.n, weight.grid.points)
    l = np.arange(M)
    return np.exp(row - weight.log_peak)[(l[:, None] - l[None, :]) % M]


def weight_table(traj: TrajectoryState, grid_points: int | None = None) -> np.ndarray:
    """Materialize the trajectory's w(phi, phi') on a uniform grid (complex table)."""
    n = traj.n
    M = grid_points or max(64, 4 * n + 4)
    if M < 2 * n + 1:
        raise ValidationError(f"grid must resolve frequencies up to {n}; need M >= {2*n+1}")
    check_cells(M * M, f"weight table on a {M}-point grid")
    l = np.arange(M)
    # h(psi_l) = sum_f1 weight[f1 + n] e^{i f1 psi_l} at psi_l = 2 pi l / M; w = e^{-i D phi'} h(phi - phi')
    h = np.fft.ifft(traj.weight, M) * M * np.exp(-2j * math.pi * ((n * l) % M) / M)
    phase_b = np.exp(-2j * math.pi * ((traj.remaining * l) % M) / M)  # e^{-i D phi'}
    return h[(l[:, None] - l[None, :]) % M] * phase_b[None, :]


def trajectory_branches(n: int, eps_step: float, depth: int, floor: float):
    """The leaves of `measurement.trajectory_leaves`, one (outcomes,
    probability, TrajectoryState) per branch, outcomes a tuple of (a, b)
    pairs."""
    leaves = trajectory_leaves(n, eps_step, depth, floor)
    totals = leaves.outcomes.sum(axis=1)
    rows = zip(leaves.outcomes.tolist(), totals.tolist(), leaves.probabilities.tolist(), leaves.overflow_bounds.tolist())
    for row, (path, (a, b), p, bound) in enumerate(rows):
        yield tuple(map(tuple, path)), p, TrajectoryState(
            n, eps_step, leaves.weights[row], 2 * n - a - b, leaves.radius2, (a, b), depth, bound
        )


def collapsed_weight(weight: np.ndarray, r2: float, eps_step: float, a: int, b: int, p: float) -> np.ndarray:
    """The trajectory weight after a step that counts (a, b) with probability
    p, by the detection recursion applied one photon at a time over all
    2n + 1 columns: u_{a+1,0} = -c/sqrt(a+1) (x + 1) u_{a,0}, then
    u_{a,b+1} = c/sqrt(b+1) (x - 1) u_{a,b}, from u_{0,0} = e^{-eps r^2} weight
    with c = sqrt(eps r^2 / 2), and u_{a,b} / sqrt(p). x raises the frequency
    f1 by one, a shift of the vector by one entry."""

    def times(u: np.ndarray, sign: float) -> np.ndarray:  # (x + sign) u
        return np.concatenate(([0.0], u[:-1])) + sign * u

    c = math.sqrt(eps_step * r2 / 2.0)
    u = math.exp(-eps_step * r2) * weight
    for k in range(1, a + 1):
        u = (-c / math.sqrt(k)) * times(u, 1.0)
    for k in range(1, b + 1):
        u = (c / math.sqrt(k)) * times(u, -1.0)
    return u / math.sqrt(p)


def exact_trajectory_branches(
    n: int, eps_step: float, branches: Iterable[Sequence[tuple[int, int]]]
) -> dict[tuple[tuple[int, int], ...], tuple[FockVector | None, float]]:
    """`measurement.exact_trajectory_leaves` keyed by outcomes: {outcomes:
    (conditional cavity state, branch probability)} for every branch in
    `branches` and every prefix of one, keyed as a tuple of (a, b) int pairs.
    The prefixes of each length go to the oracle together; a child does not
    depend on which branches share its level, so each prefix gets the numbers
    it gets in any other call. A branch that passes through an impossible
    outcome maps to (None, 0.0)."""
    prefixes = {
        tuple((int(a), int(b)) for a, b in seq[:depth]) for seq in branches for depth in range(len(seq) + 1)
    }
    shape = ModeShape((n, n))
    results = {}
    for depth in sorted({len(seq) for seq in prefixes}):
        level = sorted(seq for seq in prefixes if len(seq) == depth)
        states, probs = exact_trajectory_leaves(n, eps_step, np.array(level, dtype=np.int64).reshape(len(level), depth, 2))
        for seq, state, p in zip(level, states, probs.tolist()):
            results[seq] = (FockVector(shape, state), p) if p > 0.0 else (None, 0.0)
    return results


def exact_three_mode_evolution(pump_n: int, zeta_t: complex, cutoff: int | None = None) -> FockVector:
    """`squeezing.pump_sector_evolution` embedded in the dense three-mode
    basis, pump cutoff pump_n and pair cutoffs `cutoff` (default pump_n)."""
    pair_cut = pump_n if cutoff is None else min(cutoff, pump_n)
    shape = ModeShape((pump_n, pair_cut, pair_cut))
    amps = zeros(shape.dims)
    k = np.arange(pair_cut + 1)
    amps[pump_n - k, k, k] = pump_sector_evolution(pump_n, zeta_t)[k]
    return FockVector(shape, amps)


def equal_multimode_split(state: FockVector, n_out: int) -> FockVector:
    """Distribute the photons of a source mode equally over `n_out` output modes.

    The input may be a single-mode state (vacuum ancillas are added) or an
    n_out-mode state whose modes 1.. are vacuum. The contract is the composite
    Heisenberg matrix of `split_cascade`, not the cascade topology.
    """
    if n_out < 1:
        raise ValidationError("n_out must be >= 1")
    if state.shape.mode_count == 1:
        cutoff = state.shape.cutoffs[0]
        full = state
        for _ in range(n_out - 1):
            full = tensor(full, vacuum(ModeShape((cutoff,))))
    elif state.shape.mode_count == n_out:
        probs = state.probabilities()
        for mode in range(1, n_out):
            occ = state.shape.occupations(mode).reshape(state.shape.dims)
            if float(probs[occ > 0].sum()) > 1e-12:
                raise ValidationError(f"ancilla mode {mode} must be vacuum")
        full = state
    else:
        raise ValidationError("state must have one mode or exactly n_out modes")
    for a, b, theta in split_cascade(n_out):
        full = apply_coupler(full, (a, b), CouplerParams(theta, 0.0))
    return full


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


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(matrix, compute_uv=False).sum())
