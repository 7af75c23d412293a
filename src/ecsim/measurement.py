"""Photon counting: exact count distributions, projective collapse, and the
seeded repeated-detection trajectory that phase-locks two independent
number-state cavities.

Trajectory internals
--------------------
The two-cavity phase-pair weight w(phi, phi') stays a trigonometric
polynomial throughout a run: it starts as e^{-i n (phi + phi')} and every
detection multiplies it by a polynomial in e^{i phi}, e^{i phi'}. The total
photon number is definite, so every nonzero Fourier coefficient lies on the
anti-diagonal f1 + f2 = -D, with D = 2n - detected photons remaining in the
cavities. The trajectory stores that anti-diagonal as one vector
`weight[f1 + n]` of length 2n + 1, plus D; grids only appear when a table,
profile or fringe is exported. On the vector e^{i phi} is a shift by one and
e^{i phi'} the identity, so a detection at A or B multiplies by (x + 1) or
(x - 1). Detection probabilities reduce to quadratic forms of the vector
against the coherent-overlap kernel

    K(phi1 - phi2) = exp(-rho^2 + rho^2 e^{i(phi1 - phi2)})
                   = sum_j  e^{-rho^2} rho^{2j} / j!  e^{i j (phi1 - phi2)},

which is diagonal in frequency: Q = sum_j lam_j lam_{D-j} |weight[n - j]|^2.
One step kernel enumerates each outcome shell a + b = s as a single
(s + 1, 2n + 1) array (cut to the columns it can reach), with the detection
constants c / sqrt(a + 1) and c / sqrt(b + 1) folded into the recursion so
that every row's quadratic form is its Born probability. Sampling is therefore exact Born-rule sampling (see
docs/trajectory_notes.md for the derivation and tests against the brute-force
Fock pipeline). Memory is capped by the deepest shell array, SHELL_CELL_CAP
complex cells, rather than by a (2n + 1)^2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, ifft
from numpy.random import default_rng

from .coupler import CouplerParams, apply_coupler
from .errors import NumericsError, SizingError, ValidationError
from .fock import FockVector, ModeShape, poisson_pmf, tensor, vacuum

RNG_NAME = "numpy-pcg64"
STEP_TAIL_TOLERANCE = 1e-10
FRINGE_BRANCHES = ("full", "positive")
# complex cells of the deepest outcome shell, (s + 1) x (2n + 1): 32 MiB
SHELL_CELL_CAP = 2**21



# ---------------------------------------------------------------------------
# Exact Born-rule bookkeeping on truncated states
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Trajectory in the phase representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepRecord:
    step: int
    counts: tuple[int, int]
    probability: float


@dataclass(frozen=True)
class DetectionRecord:
    """Per-step counts with probabilities and the PRNG identity for replay."""

    steps: tuple[StepRecord, ...]
    seed: int
    rng_name: str = RNG_NAME

    @property
    def totals(self) -> tuple[int, int]:
        a = sum(s.counts[0] for s in self.steps)
        b = sum(s.counts[1] for s in self.steps)
        return a, b

    def to_json_dict(self) -> dict:
        return {
            "rng": self.rng_name,
            "seed": self.seed,
            "steps": [
                {"step": s.step, "counts": list(s.counts), "probability": s.probability}
                for s in self.steps
            ],
            "totals": list(self.totals),
        }


def _times(u: np.ndarray, sign: float) -> np.ndarray:
    """(x + sign) u along the last axis; x raises the frequency f1 by one."""
    out = sign * u
    out[..., 1:] += u[..., :-1]
    return out


def _quadform(rows: np.ndarray, n: int, remaining: int, lam: np.ndarray) -> np.ndarray:
    """sum_j lam_j lam_{D-j} |v[n - j]|^2 for each row v, with D = remaining.
    Rows may be cut short on the right where v is zero."""
    J = min(remaining, n)
    seg = rows[..., n - J : n + 1]  # seg[..., J - j] = v[n - j]
    kern = (lam[J::-1] * lam[remaining - J : remaining + 1])[: seg.shape[-1]]
    return (seg.real**2 + seg.imag**2) @ kern


def _pair(index: int) -> tuple[int, int]:
    """Outcome (a, b) at `index` of the order (0,0), (1,0), (0,1), (2,0), (1,1), ..."""
    s = (math.isqrt(8 * index + 1) - 1) // 2
    i = index - s * (s + 1) // 2
    return s - i, i


def _deepest_shell(remaining: int, eps: float) -> int:
    """Last outcome shell a + b = s a step needs to enumerate.

    The total count of a step is Binomial(remaining, eps) whatever the
    weight, so by Bernstein's inequality the shells beyond this one carry
    less than 1e-13 of the step's probability.
    """
    mean, var, log_tail = remaining * eps, remaining * eps * (1.0 - eps), math.log(1e13)
    spread = log_tail / 3.0 + math.sqrt(log_tail**2 / 9.0 + 2.0 * log_tail * var)
    return min(remaining, math.ceil(mean + spread))


def _start(n: int, eps: float) -> np.ndarray:
    """Initial weight e^{-i n (phi + phi')}, scaled so that Q(v; n, 2n) = 1.

    Checks first that the deepest outcome shell, reached at the first step
    where the remaining total is largest, fits SHELL_CELL_CAP.
    """
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps_step must lie in (0, 1)")
    cells = (_deepest_shell(2 * n, eps) + 1) * (2 * n + 1)
    if cells > SHELL_CELL_CAP:
        raise SizingError(
            f"trajectory n={n}, eps_step={eps}: outcome shells reach {cells} cells, cap {SHELL_CELL_CAP}"
        )
    v = np.zeros(2 * n + 1, dtype=np.complex128)
    v[0] = 1.0 / poisson_pmf(float(n), n)
    return v


def _step(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> tuple[np.ndarray, float]:
    """Exact Born probabilities of one step's count pairs, in `_pair` order.

    `v` is scaled so that Q(v; r^2, remaining) = 1. Shell a + b = s is one
    (s + 1, width) array, width <= 2n + 1 the columns the shells can reach,
    whose row i holds u_{s-i, i}, built by
        u_{a+1,0} = -c/sqrt(a+1) (x + 1) u_{a,0},
        u_{a,b+1} =  c/sqrt(b+1) (x - 1) u_{a,b},
    c = sqrt(eps r^2 / 2), from u_{0,0} = e^{-eps r^2} v, so that
    P(a, b) = Q(u_{a,b}; rho^2, remaining - s) with rho^2 = (1 - eps) r^2.
    Stops once the enumerated outcomes carry all but 1e-12 of the
    probability, or at the shell `_deepest_shell` bounds; the leftover tail
    then measures the rounding of the probabilities, which at n in the
    thousands reaches a few 1e-12. Returns (probabilities, tail).
    """
    last = _deepest_shell(remaining, eps)
    # v vanishes above f1 = detected - n, and the shells reach `last` higher
    width = min(v.size, 2 * n - remaining + last + 1)
    c = math.sqrt(eps * r2 / 2.0)
    lam = poisson_pmf((1.0 - eps) * r2, np.arange(remaining + 1))
    shell = math.exp(-eps * r2) * v[None, :width]
    probs = []
    covered = 0.0
    s = 0
    while True:
        p = _quadform(shell, n, remaining - s, lam)
        probs.append(p)
        covered += float(p.sum())
        tail = max(0.0, 1.0 - covered)
        if tail < 1e-12 or s >= last:
            return np.concatenate(probs), tail
        s += 1
        nxt = np.empty((s + 1, width), dtype=np.complex128)
        nxt[0] = (-c / math.sqrt(s)) * _times(shell[0], 1.0)
        nxt[1:] = (c / np.sqrt(np.arange(1.0, s + 1)))[:, None] * _times(shell, -1.0)
        shell = nxt


def _collapse(v: np.ndarray, r2: float, eps: float, a: int, b: int, p: float) -> np.ndarray:
    """u_{a,b} of `_step` rebuilt by the same recursion and divided by sqrt(P),
    so that Q = 1 at the next step's radius and remaining total."""
    c = math.sqrt(eps * r2 / 2.0)
    u = math.exp(-eps * r2) * v
    for k in range(1, a + 1):
        u = (-c / math.sqrt(k)) * _times(u, 1.0)
    for k in range(1, b + 1):
        u = (c / math.sqrt(k)) * _times(u, -1.0)
    return u / math.sqrt(p)


def _psi_samples(weight: np.ndarray, n: int, M: int) -> np.ndarray:
    """h(psi_l) = sum_f1 weight[f1 + n] e^{i f1 psi_l} at psi_l = 2 pi l / M;
    w(phi, phi') = e^{-i D phi'} h(phi - phi'). Needs M >= 2n + 1."""
    l = np.arange(M)
    return ifft(weight, M) * M * np.exp(-2j * math.pi * ((n * l) % M) / M)


@dataclass(frozen=True)
class TrajectoryState:
    """Phase-pair weight of the two cavities on its frequency anti-diagonal,
    plus the per-cavity coherent radius (uniform across phase points by
    construction).

    `weight[f1 + n]` is the coefficient of e^{i f1 phi + i f2 phi'} with
    f2 = -remaining - f1, where `remaining` = 2n - detected is the cavities'
    definite total photon number; every other coefficient is zero.
    """

    n: int
    eps_step: float
    weight: np.ndarray
    remaining: int
    radius2: float
    counts: tuple[int, int]
    steps_done: int
    overflow_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.weight.shape != (2 * self.n + 1,):
            raise ValidationError(f"weight must have shape ({2 * self.n + 1},), got {self.weight.shape}")
        if not 0 <= self.remaining <= 2 * self.n:
            raise ValidationError(f"remaining must lie in [0, {2 * self.n}], got {self.remaining}")

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius2)

    def weight_table(self, grid_points: int | None = None) -> np.ndarray:
        """Materialize w(phi, phi') on a uniform grid (complex table)."""
        n = self.n
        M = grid_points or max(64, 4 * n + 4)
        if M < 2 * n + 1:
            raise ValidationError(f"grid must resolve frequencies up to {n}; need M >= {2*n+1}")
        h = _psi_samples(self.weight, n, M)
        l = np.arange(M)
        phase_b = np.exp(-2j * math.pi * ((self.remaining * l) % M) / M)  # e^{-i D phi'}
        return h[(l[:, None] - l[None, :]) % M] * phase_b[None, :]

    def delta_profile(self, points: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """|w| against the half phase difference Delta, normalized to unit peak.

        The weight's modulus depends on (phi, phi') only through Delta, so the
        slice phi = Delta, phi' = -Delta captures it:
        w = sum_m weight[m] e^{i (2 m - 2n + D) Delta}. On the grid
        Delta_k = -pi/2 + pi (k + 1/2) / P, e^{2 i m Delta_k} is
        (-1)^m e^{i pi m / P} e^{2 pi i m k / P}, one inverse FFT of length P
        after folding m modulo P.
        """
        if points < 1:
            raise ValidationError(f"points must be positive, got {points}")
        deltas = -math.pi / 2 + math.pi * (np.arange(points) + 0.5) / points
        m = np.arange(self.weight.size)
        g = self.weight * (1 - 2 * (m & 1)) * np.exp(1j * math.pi * (m % (2 * points)) / points)
        g = np.concatenate([g, np.zeros(-g.size % points)]).reshape(-1, points).sum(axis=0)
        mag = np.abs(ifft(g))
        peak = mag.max()
        return deltas, mag / peak if peak > 0 else mag

    def cavity_state(self, cutoff: int | None = None) -> FockVector:
        """Synthesize the conditional two-cavity Fock state from the weight.

        <k, D - k | psi> is proportional to w_hat(-k, -(D - k)) / sqrt(k! (D - k)!).
        The coherent radius only scales the whole sector, so the Poisson
        factors use radius^2 = D / 2, which keeps them clear of underflow.
        """
        n, D = self.n, self.remaining
        cut = n if cutoff is None else min(cutoff, n)
        k = np.arange(max(0, D - cut), min(D, cut) + 1)
        amps = np.zeros((cut + 1, cut + 1), dtype=np.complex128)
        radial = np.sqrt(poisson_pmf(D / 2.0, k) * poisson_pmf(D / 2.0, D - k))
        amps[k, D - k] = radial * self.weight[n - k]
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise NumericsError("trajectory weight produced a null cavity state")
        return FockVector(ModeShape((cut, cut)), amps / norm)


def run_interference_trajectory(
    n: int, eps_step: float, steps: int, seed: int, stop_after_detections: int | None = None
) -> tuple[DetectionRecord, TrajectoryState]:
    """Repeatedly leak both cavities, mix the outputs 50/50, and count photons.

    Starts from n photons in each of two independent cavities with a uniform
    phase-pair weight; every detection multiplies the weight by the
    conditional coherent-overlap factor, concentrating it near
    Delta = +/- arctan(sqrt(B/A)) of the accumulated counts. If
    `stop_after_detections` is given the run ends at the first step whose
    cumulative count reaches it (useful for scanning fringes while the
    cavities still hold light).
    """
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    v = _start(n, eps_step)
    rng = default_rng(seed)
    remaining = 2 * n
    r2 = float(n)
    records: list[StepRecord] = []
    worst_tail = 0.0
    for step in range(steps):
        probs, tail = _step(v, n, remaining, r2, eps_step)
        worst_tail = max(worst_tail, tail)
        if tail >= STEP_TAIL_TOLERANCE:
            raise NumericsError(
                f"step {step}: unenumerated outcome probability {tail:.2e} "
                f"exceeds {STEP_TAIL_TOLERANCE}"
            )
        pick = int(rng.choice(len(probs), p=probs / probs.sum()))
        a, b = _pair(pick)
        v = _collapse(v, r2, eps_step, a, b, probs[pick])
        remaining -= a + b
        r2 *= 1.0 - eps_step
        records.append(StepRecord(step, (a, b), float(probs[pick])))
        if stop_after_detections is not None and 2 * n - remaining >= stop_after_detections:
            break
    totals = (
        sum(r.counts[0] for r in records),
        sum(r.counts[1] for r in records),
    )
    traj = TrajectoryState(n, eps_step, v, remaining, r2, totals, len(records), worst_tail)
    return DetectionRecord(tuple(records), seed), traj


def trajectory_branches(n: int, eps_step: float, depth: int, floor: float):
    """Walk the outcome tree of the first `depth` steps once, depth first in
    the sampler's outcome order, pruning every branch whose probability falls
    below `floor`. Yields (outcomes, probability, TrajectoryState) per branch.
    """
    v0 = _start(n, eps_step)

    def walk(v, remaining, r2, outcomes, prob, worst_tail):
        if len(outcomes) == depth:
            totals = (sum(o[0] for o in outcomes), sum(o[1] for o in outcomes))
            yield outcomes, prob, TrajectoryState(
                n, eps_step, v, remaining, r2, totals, depth, worst_tail
            )
            return
        probs, tail = _step(v, n, remaining, r2, eps_step)
        for index, p in enumerate(probs.tolist()):
            if prob * p < floor:
                continue
            a, b = _pair(index)
            yield from walk(
                _collapse(v, r2, eps_step, a, b, p),
                remaining - a - b,
                r2 * (1.0 - eps_step),
                outcomes + ((a, b),),
                prob * p,
                max(worst_tail, tail),
            )

    yield from walk(v0, 2 * n, float(n), (), 1.0, 0.0)


# ---------------------------------------------------------------------------
# Fringe scan of the residual cavities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FringeScan:
    gammas: np.ndarray
    intensity: np.ndarray
    visibility: float


def fringe_scan(
    traj: TrajectoryState, gamma_grid: np.ndarray, branch: str = "full"
) -> FringeScan:
    """Expected counts at one detector after a relative phase shift gamma and a
    50/50 mix of the residual cavity modes.

    The exact curve is sinusoidal in gamma. With `branch="full"` the scan uses
    the whole weight; because detections leave the weight symmetric in
    +/- Delta, the two mirrored components produce mirrored fringes whose sum
    suppresses the visibility by |cos 2*Delta_peak|. `branch="positive"`
    restricts the weight to Delta > 0 (conditioning on which cavity leads in
    phase), giving the single-branch pattern a subsequent experiment run
    displays once the branches are macroscopically distinct. The restriction
    is a mask on the difference phi - phi', so the masked weight stays on the
    same anti-diagonal: it is sampled on M = max(256, 8n + 8) points of
    phi - phi', masked to Delta in (0, pi/2) and transformed back.
    """
    if branch not in FRINGE_BRANCHES:
        raise ValidationError(f"unknown branch {branch!r}")
    gammas = np.asarray(gamma_grid, dtype=float)
    n, D = traj.n, traj.remaining
    if branch == "full":
        u = np.zeros(D + 1, dtype=np.complex128)  # u_j = w_hat(-j, -(D - j))
        J = min(D, n)
        u[: J + 1] = traj.weight[n - J : n + 1][::-1]
    else:
        M = max(256, 8 * n + 8)
        h = _psi_samples(traj.weight, n, M)
        h[0] = 0.0
        h[M // 2 :] = 0.0
        u = (fft(h) / M)[-np.arange(D + 1) % M]
    lam = poisson_pmf(traj.radius2, np.arange(D + 1))
    mod2 = u.real**2 + u.imag**2
    norm = float(lam @ (mod2 * lam[::-1]))
    kern = lam[:-1] * lam[-2::-1]  # lam_j lam_{D-1-j}
    t_dc = float(kern @ (mod2[1:] + mod2[:-1]))
    s1 = complex(kern @ (u[:-1] * np.conj(u[1:])))
    if norm <= 0:
        raise NumericsError("weight has no norm; cannot scan")
    intensity = (traj.radius2 / 2.0) * (t_dc + 2.0 * np.real(np.exp(1j * gammas) * s1)) / norm
    visibility = 0.0 if t_dc == 0.0 else 2.0 * abs(s1) / t_dc
    return FringeScan(gammas, intensity, float(visibility))


# ---------------------------------------------------------------------------
# Brute-force reference pipeline (small instances)
# ---------------------------------------------------------------------------


def exact_trajectory_branch(
    n: int, eps_step: float, outcomes: list[tuple[int, int]]
) -> tuple[FockVector | None, float]:
    """Exact-Fock evolution of the two-cavity experiment along a fixed branch
    of count outcomes. Returns the conditional cavity state and the branch
    probability. Small n only; used to validate the phase representation.
    """
    theta = math.acos(math.sqrt(1.0 - eps_step))
    cav = tensor(
        FockVector(ModeShape((n,)), _number_column(n)),
        FockVector(ModeShape((n,)), _number_column(n)),
    )
    prob = 1.0
    remaining = 2 * n
    for (a, b) in outcomes:
        out_cut = remaining
        psi = tensor(tensor(cav, vacuum(ModeShape((out_cut,)))), vacuum(ModeShape((out_cut,))))
        psi = apply_coupler(psi, (0, 2), CouplerParams(theta, 0.0))
        psi = apply_coupler(psi, (1, 3), CouplerParams(theta, 0.0))
        psi = apply_coupler(psi, (2, 3), CouplerParams(math.pi / 4, 0.0))
        if a > out_cut or b > out_cut:
            return None, 0.0
        cav_new, p = project_counts(psi, (2, 3), (a, b))
        prob *= p
        if cav_new is None:
            return None, 0.0
        cav = cav_new
        remaining -= a + b
    return cav, prob


def _number_column(n: int) -> np.ndarray:
    col = np.zeros(n + 1, dtype=np.complex128)
    col[n] = 1.0
    return col
