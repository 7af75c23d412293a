"""Photon counting: the seeded repeated-detection trajectory that phase-locks
two independent number-state cavities, and its brute-force Fock oracle.

Trajectory internals
--------------------
The two-cavity phase-pair weight w(phi, phi') stays a trigonometric
polynomial throughout a run: it starts as e^{-i n (phi + phi')} and every
detection multiplies it by a polynomial in e^{i phi}, e^{i phi'}. The total
photon number is definite, so every nonzero Fourier coefficient lies on the
anti-diagonal f1 + f2 = -D, with D = 2n - detected photons remaining in the
cavities. The trajectory stores that anti-diagonal as one vector
`weight[f1 + n]` of length 2n + 1, plus D; grids only appear when a
profile or fringe is exported. On the vector e^{i phi} is a shift by one and
e^{i phi'} the identity, so a detection at A or B multiplies by (x + 1) or
(x - 1). Detection probabilities reduce to quadratic forms of the vector
against the coherent-overlap kernel

    K(phi1 - phi2) = exp(-rho^2 + rho^2 e^{i(phi1 - phi2)})
                   = sum_j  e^{-rho^2} rho^{2j} / j!  e^{i j (phi1 - phi2)},

which is diagonal in frequency: Q = sum_j lam_j lam_{D-j} |weight[n - j]|^2.
One shell recursion, `_shells`, builds each outcome shell a + b = s as a
single (s + 1, 2n + 1) array (cut to the columns it can reach), with the
detection constants c / sqrt(a + 1) and c / sqrt(b + 1) folded in so that
every row's quadratic form is its Born probability. The total count of a
step is Binomial(D, eps) whatever the weight, so every shell built is checked
against its binomial weight. The sampler draws one uniform number and reads
shells only until their cumulative probability passes it, a few shells near
s = eps D; a draw within DRAW_MARGIN of an outcome edge enumerates the step
in full instead. Either way it picks the outcome `Generator.choice` picks
from the full enumeration with the same draw, so sampling is exact Born-rule
sampling and seeded records do not depend on how far a step reads (see
docs/trajectory_notes.md for the derivation and tests against the
brute-force Fock pipeline). Memory is capped by the deepest shell array,
SHELL_CELL_CAP complex cells, rather than by a (2n + 1)^2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.fft import fft, ifft
from numpy.random import default_rng

from .coupler import CouplerParams, apply_coupler
from .errors import NumericsError, SizingError, ValidationError
from .fock import FockVector, ModeShape, basis_state, check_cells, poisson_pmf, zeros

RNG_NAME = "numpy-pcg64"
STEP_TAIL_TOLERANCE = 1e-10
# distance a uniform draw must keep from the cumulative edges of its outcome
# for the shells read so far to decide it, 1e4 times STEP_TAIL_TOLERANCE
DRAW_MARGIN = 1e-6
FRINGE_BRANCHES = ("full", "positive")
# complex cells of the deepest outcome shell, (s + 1) x (2n + 1): 32 MiB
SHELL_CELL_CAP = 2**21



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


def _shells(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Exact Born probabilities of one step's count pairs, one outcome shell
    a + b = s at a time, in `_pair` order, for one weight vector `v` or for
    each row of a stack of them that share `remaining` and `r2`.

    `v` is scaled so that Q(v; r^2, remaining) = 1. Shell s is one
    (..., s + 1, width) array, width <= 2n + 1 the columns the shells can
    reach, whose row i holds u_{s-i, i}, built by
        u_{a+1,0} = -c/sqrt(a+1) (x + 1) u_{a,0},
        u_{a,b+1} =  c/sqrt(b+1) (x - 1) u_{a,b},
    c = sqrt(eps r^2 / 2), from u_{0,0} = e^{-eps r^2} v, so that
    P(a, b) = Q(u_{a,b}; rho^2, remaining - s) with rho^2 = (1 - eps) r^2.
    Every operation acts on each vector alone, so a row of a stack gets the
    numbers it gets alone. The step's total count is Binomial(remaining, eps)
    whatever the weight, so each shell must sum to its binomial weight: a
    shell that misses it by more than STEP_TAIL_TOLERANCE in any row raises
    NumericsError. Yields (probabilities of shell s, |sum - binomial weight|
    per vector) up to the shell `_deepest_shell` bounds; callers stop reading
    when they have what they need.
    """
    last = _deepest_shell(remaining, eps)
    # v vanishes above f1 = detected - n, and the shells reach `last` higher
    width = min(v.shape[-1], 2 * n - remaining + last + 1)
    c = math.sqrt(eps * r2 / 2.0)
    lam = poisson_pmf((1.0 - eps) * r2, np.arange(remaining + 1))
    shell = math.exp(-eps * r2) * v[..., None, :width]
    log_weight, log_odds = remaining * math.log1p(-eps), math.log(eps / (1.0 - eps))
    s = 0
    while True:
        p = _quadform(shell, n, remaining - s, lam)
        total = p.sum(axis=-1)
        deviation = abs(total - math.exp(log_weight))
        # the worst row decides (max and argmax pick a NaN first); one vector needs no reduction
        worst = deviation.max() if deviation.shape else deviation
        if not worst <= STEP_TAIL_TOLERANCE:
            raise NumericsError(
                f"outcome shell a + b = {s} of {remaining} photons sums to {np.ravel(total)[np.argmax(deviation)]:.12g}, "
                f"{worst:.2e} off its binomial weight (tolerance {STEP_TAIL_TOLERANCE})"
            )
        yield p, deviation
        if s >= last:
            return
        s += 1
        log_weight += log_odds + math.log((remaining - s + 1) / s)
        nxt = np.empty(shell.shape[:-2] + (s + 1, width), dtype=np.complex128)
        nxt[..., 0, :] = (-c / math.sqrt(s)) * _times(shell[..., 0, :], 1.0)
        nxt[..., 1:, :] = (c / np.sqrt(np.arange(1.0, s + 1)))[:, None] * _times(shell, -1.0)
        shell = nxt


def _step(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Every outcome of one step, for one weight vector or each row of a
    stack: (probabilities in `_pair` order, worst deviation of a shell it
    read from its binomial weight), with the leading axes of `v`.

    Each vector reads `_shells` until its enumerated outcomes carry all but
    1e-12 of the probability, or to the last shell; the leftover tail then
    measures the rounding of the probabilities, which at n in the thousands
    reaches a few 1e-12, and a tail of STEP_TAIL_TOLERANCE or more in any
    row raises NumericsError. A stack reads as deep as its deepest row, and
    a row's outcomes past its own last shell are 0.
    """
    lead = v.shape[:-1]
    probs, worst, covered, live = [], np.zeros(lead), np.zeros(lead), np.ones(lead, dtype=bool)
    for p, deviation in _shells(v, n, remaining, r2, eps):
        probs.append(np.where(live[..., None], p, 0.0))
        worst = np.where(live, np.maximum(worst, deviation), worst)
        covered = np.where(live, covered + p.sum(axis=-1), covered)
        live &= 1.0 - covered >= 1e-12
        if not live.any():
            break
    tail = float(np.max(np.maximum(0.0, 1.0 - covered)))
    if tail >= STEP_TAIL_TOLERANCE:
        raise NumericsError(f"unenumerated outcome probability {tail:.2e} exceeds {STEP_TAIL_TOLERANCE}")
    return np.concatenate(probs, axis=-1), worst


def _choice_index(p: np.ndarray, u: float) -> int:
    """The index `Generator.choice(p.size, p=p / p.sum())` returns when its
    one uniform draw is `u`: numpy's own cumulative-sum steps, replayed."""
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _draw(v: np.ndarray, n: int, remaining: int, r2: float, eps: float, u: float) -> tuple[int, float, float]:
    """The outcome `_choice_index` picks from the full `_step` enumeration
    for the uniform draw `u`, reading shells only up to the drawn one.

    The partial cumulative sums differ from the normalized full ones by
    about |sum(p) - 1|, far below DRAW_MARGIN, so a `u` more than
    DRAW_MARGIN from both edges of its outcome picks the same outcome;
    otherwise the step is enumerated in full and `_choice_index` decides.
    Returns (index, probability, worst deviation of the shells built).
    """
    worst, below, offset = 0.0, 0.0, 0
    for p, deviation in _shells(v, n, remaining, r2, eps):
        worst = max(worst, float(deviation))
        edges = below + p.cumsum()
        k = int(edges.searchsorted(u, side="right"))
        if k < p.size:
            if min(u - (edges[k - 1] if k else below), edges[k] - u) > DRAW_MARGIN:
                return offset + k, float(p[k]), worst
            break
        below, offset = float(edges[-1]), offset + p.size
    probs, deviation = _step(v, n, remaining, r2, eps)
    pick = _choice_index(probs, u)
    return pick, float(probs[pick]), max(worst, float(deviation))


def _collapse(v: np.ndarray, r2: float, eps: float, a: int, b: int, p) -> np.ndarray:
    """u_{a,b} of `_shells` rebuilt by the same recursion and divided by sqrt(P),
    so that Q = 1 at the next step's radius and remaining total. `v` may be a
    stack of vectors, each with its own P."""
    c = math.sqrt(eps * r2 / 2.0)
    u = math.exp(-eps * r2) * v
    for k in range(1, a + 1):
        u = (-c / math.sqrt(k)) * _times(u, 1.0)
    for k in range(1, b + 1):
        u = (c / math.sqrt(k)) * _times(u, -1.0)
    # one vector takes its P as a number, a stack one P per row
    return u / (np.sqrt(p)[:, None] if isinstance(p, np.ndarray) else math.sqrt(p))


def _psi_samples(weight: np.ndarray, n: int, M: int) -> np.ndarray:
    """h(psi_l) = sum_f1 weight[f1 + n] e^{i f1 psi_l} at psi_l = 2 pi l / M;
    w(phi, phi') = e^{-i D phi'} h(phi - phi'). Needs M >= 2n + 1."""
    l = np.arange(M)
    return ifft(weight, M) * M * np.exp(-2j * math.pi * ((n * l) % M) / M)


def sector_amplitudes(
    n: int, remaining: int, weights: np.ndarray, cutoff: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The conditional two-cavity state of one weight vector, or of each row
    of a stack, on its D-photon sector, D = remaining, unnormalised: the
    photon numbers k of cavity A that both cutoffs (default n) admit, and
    <k, D - k | psi> up to one common factor per vector at each.

    <k, D - k | psi> is proportional to w_hat(-k, -(D - k)) / sqrt(k! (D - k)!).
    The coherent radius only scales the whole sector, so the Poisson
    factors use radius^2 = D / 2, which keeps them clear of underflow; a
    stack shares them.
    """
    cut = n if cutoff is None else min(cutoff, n)
    k = np.arange(max(0, remaining - cut), min(remaining, cut) + 1)
    # k and D - k run over the same range, reversed
    table = poisson_pmf(remaining / 2.0, k)
    return k, np.sqrt(table * table[::-1]) * weights[..., n - k]


@dataclass(frozen=True)
class TrajectoryState:
    """Phase-pair weight of the two cavities on its frequency anti-diagonal,
    plus the per-cavity coherent radius (uniform across phase points by
    construction).

    `weight[f1 + n]` is the coefficient of e^{i f1 phi + i f2 phi'} with
    f2 = -remaining - f1, where `remaining` = 2n - detected is the cavities'
    definite total photon number; every other coefficient is zero.
    `overflow_bound` is the largest deviation of an outcome shell's summed
    probability from its Binomial(remaining, eps) weight over the shells the
    steps built, a measure of the probabilities' rounding.
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
        check_cells(points, f"profile of {points} points")
        deltas = -math.pi / 2 + math.pi * (np.arange(points) + 0.5) / points
        m = np.arange(self.weight.size)
        g = self.weight * (1 - 2 * (m & 1)) * np.exp(1j * math.pi * (m % (2 * points)) / points)
        g = np.concatenate([g, np.zeros(-g.size % points)]).reshape(-1, points).sum(axis=0)
        mag = np.abs(ifft(g))
        peak = mag.max()
        return deltas, mag / peak if peak > 0 else mag

    def sector_amplitudes(self, cutoff: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The conditional two-cavity state on its D-photon sector,
        unnormalised (`sector_amplitudes` of this weight)."""
        return sector_amplitudes(self.n, self.remaining, self.weight, cutoff)

    def cavity_state(self, cutoff: int | None = None) -> FockVector:
        """The conditional two-cavity Fock state: `sector_amplitudes` in a
        dense (cutoff + 1)^2 array, normalised."""
        n, D = self.n, self.remaining
        cut = n if cutoff is None else min(cutoff, n)
        amps = zeros((cut + 1, cut + 1))
        k, sector = self.sector_amplitudes(cutoff)
        amps[k, D - k] = sector
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
    check_cells(steps, "trajectory step records")
    v = _start(n, eps_step)
    rng = default_rng(seed)
    remaining = 2 * n
    r2 = float(n)
    records: list[StepRecord] = []
    worst = 0.0
    for step in range(steps):
        pick, p, deviation = _draw(v, n, remaining, r2, eps_step, rng.random())
        worst = max(worst, deviation)
        a, b = _pair(pick)
        v = _collapse(v, r2, eps_step, a, b, p)
        remaining -= a + b
        r2 *= 1.0 - eps_step
        records.append(StepRecord(step, (a, b), p))
        if stop_after_detections is not None and 2 * n - remaining >= stop_after_detections:
            break
    totals = (
        sum(r.counts[0] for r in records),
        sum(r.counts[1] for r in records),
    )
    traj = TrajectoryState(n, eps_step, v, remaining, r2, totals, len(records), worst)
    return DetectionRecord(tuple(records), seed), traj


def trajectory_branches(n: int, eps_step: float, depth: int, floor: float):
    """Walk the outcome tree of the first `depth` steps, pruning every branch
    whose probability falls below `floor` > 0. Yields (outcomes, probability,
    TrajectoryState) per branch, depth first in the sampler's outcome order.

    The tree is walked one level at a time. The live branches of a level are
    grouped by their remaining photon number D, which with the level fixes
    every parameter of a step, and each group takes one stacked `_step`; the
    kept children of each outcome (a, b) come from one stacked `_collapse`.
    Each row gets the numbers it gets alone, and the children are ordered by
    parent, then outcome, so the leaves come out as a depth-first walk gives
    them.
    """
    if not floor > 0.0:
        raise ValidationError(f"floor must be positive, got {floor}")
    # every outcome a step can read: the shells up to the first step's deepest
    last = _deepest_shell(2 * n, eps_step)
    pairs = [_pair(i) for i in range((last + 1) * (last + 2) // 2)]
    table = np.array(pairs, dtype=np.int64)
    weights, prob, worst = _start(n, eps_step)[None], np.ones(1), np.zeros(1)
    paths = np.zeros((1, 0), dtype=np.int64)  # outcome indices in `_pair` order
    counts = np.zeros((1, 2), dtype=np.int64)
    r2 = float(n)
    for _ in range(depth):
        remaining = 2 * n - counts.sum(axis=1)
        parent, index, p, child_worst = [], [], [], []
        for D in sorted(set(remaining.tolist())):
            rows = np.flatnonzero(remaining == D)
            probs, deviation = _step(weights[rows], n, D, r2, eps_step)
            kept, i = np.nonzero(prob[rows, None] * probs >= floor)
            parent.append(rows[kept])
            index.append(i)
            p.append(probs[kept, i])
            child_worst.append(np.maximum(worst[rows], deviation)[kept])
        if not parent:
            return
        order = np.lexsort((np.concatenate(index), np.concatenate(parent)))
        parent, index, p, worst = (np.concatenate(x)[order] for x in (parent, index, p, child_worst))
        children = np.empty((index.size, weights.shape[1]), dtype=np.complex128)
        for i in sorted(set(index.tolist())):
            sel = np.flatnonzero(index == i)
            children[sel] = _collapse(weights[parent[sel]], r2, eps_step, *pairs[i], p[sel])
        weights, prob = children, prob[parent] * p
        paths, counts = np.column_stack([paths[parent], index]), counts[parent] + table[index]
        r2 *= 1.0 - eps_step
    rows = zip(paths.tolist(), prob.tolist(), counts.tolist(), worst.tolist())
    for row, (path, p, (a, b), bound) in enumerate(rows):
        yield tuple(map(pairs.__getitem__, path)), p, TrajectoryState(
            n, eps_step, weights[row], 2 * n - a - b, r2, (a, b), depth, bound
        )


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


def _detection_kraus(n: int, eps_step: float) -> np.ndarray:
    """Kraus operators of one detection step on two cavities of cutoff n.

    K_ab = <a, b|_AB U_mix U_B U_A |., 0, 0>: each cavity leaks through a
    coupler of angle arccos(sqrt(1 - eps)) into its vacuum output mode, and
    the outputs meet a 50/50 coupler. All (n + 1)^2 cavity basis states go
    through the same three `apply_coupler` calls at once, each tagged by two
    reference modes that no coupler touches. Outputs have cutoff 2n, so every
    sector fits both cutoffs of each coupler and nothing is truncated.
    Returns the table as a ((n + 1)^2, (n + 1)^2 (2n + 1)^2) matrix whose row
    j, reshaped to (n + 1)^2 x (2n + 1)^2, holds K_ab |j> in column
    a (2n + 1) + b.
    """
    cav = (n + 1) ** 2
    check_cells(cav * cav * (2 * n + 1) ** 2, f"Kraus table of a detection step at n = {n}")
    shape = ModeShape((n, n, n, n, 2 * n, 2 * n))
    amps = np.zeros(shape.dims, dtype=np.complex128)
    k = np.arange(n + 1)
    amps[k[:, None], k[None, :], k[:, None], k[None, :], 0, 0] = 1.0
    psi = FockVector(shape, amps)
    theta = math.acos(math.sqrt(1.0 - eps_step))
    for pair, angle in (((2, 4), theta), ((3, 5), theta), ((4, 5), math.pi / 4)):
        psi = apply_coupler(psi, pair, CouplerParams(angle, 0.0))
    return psi.amplitudes.reshape(cav, -1)


def exact_trajectory_branches(
    n: int, eps_step: float, branches: Iterable[Sequence[tuple[int, int]]]
) -> dict[tuple[tuple[int, int], ...], tuple[FockVector | None, float]]:
    """Exact-Fock evolution of the two-cavity experiment along fixed branches
    of count outcomes. Small n only; used to validate the phase representation.

    Returns {outcomes: (conditional cavity state, branch probability)} for
    every branch in `branches` and every prefix of one, keyed by the outcomes
    as a tuple of (a, b) int pairs. Every step applies the same Kraus
    operators K_ab (`_detection_kraus`), built once per call and kept by no
    cache. The branches are merged into their prefix tree and walked one
    level at a time: the parents of a level that ask for outcome (a, b) take
    one stacked product against K_ab, each parent a (1, cav) @ K_ab of its
    own, so a child does not depend on which branches share its level. A
    child's squared norm is its outcome's probability. A branch that passes
    through an impossible outcome (more counts than photons left, or a
    probability of exactly 0.0) maps to (None, 0.0).
    """
    tree: dict = {}
    for outcomes in branches:
        node = tree
        for a, b in outcomes:
            if a < 0 or b < 0:
                raise ValidationError(f"counts must be nonnegative, got {(a, b)}")
            node = node.setdefault((int(a), int(b)), {})
    side, cav = 2 * n + 1, (n + 1) ** 2
    kraus = _detection_kraus(n, eps_step).reshape(cav, cav, side, side)
    shape = ModeShape((n, n))
    start = basis_state(shape, (n, n))
    results = {(): (start, 1.0)}
    # (prefix, subtree, photons left, probability, normalised cavity amplitudes or None)
    level = [((), tree, 2 * n, 1.0, start.amplitudes.ravel())]
    while level:
        nxt, asked = [], {}
        for prefix, node, remaining, probability, state in level:
            for (a, b), child in node.items():
                entry = (prefix + ((a, b),), child, remaining - a - b, probability)
                if state is None or a + b > remaining:
                    nxt.append(entry + (None,))
                    results[entry[0]] = (None, 0.0)
                else:
                    asked.setdefault((a, b), []).append((entry, state))
        for (a, b), rows in asked.items():
            columns = np.matmul(np.stack([state for _, state in rows])[:, None, :], kraus[:, :, a, b])[:, 0]
            ps = np.sum(columns.real**2 + columns.imag**2, axis=-1)
            states = np.divide(columns, np.sqrt(ps)[:, None], out=np.zeros_like(columns), where=ps[:, None] > 0.0)
            for ((prefix, child, remaining, probability), _), state, p in zip(rows, states, ps.tolist()):
                state = state if p > 0.0 else None
                nxt.append((prefix, child, remaining, probability * p, state))
                results[prefix] = (None if state is None else FockVector(shape, state.reshape(shape.dims)), probability * p)
        level = nxt
    return results
