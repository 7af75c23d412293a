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
every row's quadratic form is its Born probability; the row of the outcome
drawn, over sqrt(P), is the next weight. The total count of a step is
Binomial(D, eps) whatever the weight, so every shell built is checked
against its binomial weight. The sampler draws one uniform number u and
reads shells in `_pair` order only until their running probability passes
it, a few shells near s = eps D: one inverse-CDF pass, exact Born-rule
sampling. Seeded records can differ from `Generator.choice` on the full
enumeration only where u lies within rounding (about 1e-12) of an outcome
edge (see docs/trajectory_notes.md for the derivation and tests against the
brute-force Fock pipeline). Memory is capped by the deepest shell array,
SHELL_CELL_CAP complex cells, rather than by a (2n + 1)^2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from numpy.fft import fft, ifft
from numpy.random import default_rng

from .circle import _delta_grid
from .coupler import CouplerParams, apply_coupler
from .errors import NumericsError, SizingError, ValidationError
from .fock import FockVector, ModeShape, check_cells, poisson_pmf, zeros

RNG_NAME = "numpy-pcg64"
STEP_TAIL_TOLERANCE = 1e-10
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
    per vector, the shell's rows u) up to the shell `_deepest_shell` bounds;
    callers stop reading when they have what they need. Each shell is a new
    array, which later shells leave as it is.
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
        yield p, deviation, shell
        if s >= last:
            return
        s += 1
        log_weight += log_odds + math.log((remaining - s + 1) / s)
        nxt = np.empty(shell.shape[:-2] + (s + 1, width), dtype=np.complex128)
        nxt[..., 0, :] = (-c / math.sqrt(s)) * _times(shell[..., 0, :], 1.0)
        nxt[..., 1:, :] = (c / np.sqrt(np.arange(1.0, s + 1)))[:, None] * _times(shell, -1.0)
        shell = nxt


def _step(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every outcome of one step, for one weight vector or each row of a
    stack: (probabilities in `_pair` order, worst deviation of a shell it
    read from its binomial weight, each outcome's row u of `_shells` in one
    (..., outcomes, width) array), with the leading axes of `v`.

    Each vector reads `_shells` until its enumerated outcomes carry all but
    1e-12 of the probability, or to the last shell; the leftover tail then
    measures the rounding of the probabilities, which at n in the thousands
    reaches a few 1e-12, and a tail of STEP_TAIL_TOLERANCE or more in any
    row raises NumericsError. A stack reads as deep as its deepest row, and
    a row's outcomes past its own last shell are 0.
    """
    lead = v.shape[:-1]
    probs, rows, worst, covered, live = [], [], np.zeros(lead), np.zeros(lead), np.ones(lead, dtype=bool)
    for p, deviation, shell in _shells(v, n, remaining, r2, eps):
        probs.append(np.where(live[..., None], p, 0.0))
        rows.append(shell)
        worst = np.where(live, np.maximum(worst, deviation), worst)
        covered = np.where(live, covered + p.sum(axis=-1), covered)
        live &= 1.0 - covered >= 1e-12
        if not live.any():
            break
    tail = float(np.max(np.maximum(0.0, 1.0 - covered)))
    if tail >= STEP_TAIL_TOLERANCE:
        raise NumericsError(f"unenumerated outcome probability {tail:.2e} exceeds {STEP_TAIL_TOLERANCE}")
    probs, width = np.concatenate(probs, axis=-1), rows[0].shape[-1]
    check_cells(probs.size * width, f"{probs.size} outcome rows of {width} columns")  # before they are joined
    return probs, worst, np.concatenate(rows, axis=-2)


def _draw(v: np.ndarray, n: int, remaining: int, r2: float, eps: float, u: float) -> tuple[int, float, float, np.ndarray]:
    """One inverse-CDF read of a step: the first outcome, in `_pair` order,
    whose running Born probability passes the uniform draw `u`, reading
    shells only up to it. The probabilities read can fall short of one by
    their rounding, about 1e-12 at most; a `u` past them all picks the last
    outcome that raised the running probability, which is nonzero. Returns
    (index, probability, worst deviation of the shells built, its row u)."""
    worst, below, offset = 0.0, 0.0, 0
    for p, deviation, shell in _shells(v, n, remaining, r2, eps):
        worst = max(worst, float(deviation))
        edges = below + p.cumsum()
        k = int(edges.searchsorted(u, side="right"))
        if k < p.size:
            return offset + k, float(p[k]), worst, shell[k]
        if edges[-1] > below:  # the shell raised the running probability
            last = p, edges, offset, shell
        below, offset = float(edges[-1]), offset + p.size
    p, edges, offset, shell = last
    k = int(edges.searchsorted(edges[-1]))  # the first outcome at the top edge
    return offset + k, float(p[k]), worst, shell[k]


def _collapse(rows: np.ndarray, n: int, p) -> np.ndarray:
    """The weight after a step: the outcome's row u of `_shells` divided by
    sqrt(P) and padded with zeros to 2n + 1 columns, so that Q = 1 at the next
    step's radius and remaining total. `rows` may be a stack, one P per row."""
    out = np.zeros(rows.shape[:-1] + (2 * n + 1,), dtype=np.complex128)
    out[..., : rows.shape[-1]] = rows / np.sqrt(p)[..., None]
    return out


def _positive_coefficients(weight: np.ndarray, n: int, remaining: int) -> np.ndarray:
    """u_k = w_hat(-k, -(D - k)) of the weight times the indicator of Delta in
    (0, pi/2), k = 0..D, D = remaining: sum_f1 weight[f1 + n] c(f1 + k), where
    c(0) = 1/2, c(d) = i / (pi d) at odd d and 0 at other even d are the
    indicator's Fourier coefficients in phi - phi'. One FFT product at the
    first power of two >= 2n + D + 1, a length at which no term wraps round."""
    d = np.arange(-n, n + remaining + 1)
    odd = d % 2 == 1
    c = np.zeros(d.size, dtype=np.complex128)
    c[n] = 0.5  # d = 0
    c[odd] = 1j / (math.pi * d[odd])
    size = 1 << (d.size - 1).bit_length()
    return ifft(fft(c, size) * ifft(weight, size))[: remaining + 1] * size


def _sector_factors(remaining: int, k: np.ndarray) -> np.ndarray:
    """sqrt(lam_k lam_{D-k}) at radius^2 = D / 2, D = remaining, for a range of
    k symmetric about D / 2. Times w_hat(-k, -(D - k)) this is <k, D - k | psi>
    up to one factor: the radius only scales the whole sector, and D / 2 keeps
    the factors clear of underflow."""
    table = poisson_pmf(remaining / 2.0, k)
    return np.sqrt(table * table[::-1])


def sector_amplitudes(n: int, remaining: int, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The conditional two-cavity state of one weight vector, or of each row
    of a stack, on its D-photon sector, D = remaining, unnormalised: the
    photon numbers k of cavity A with both k and D - k at most n, and
    <k, D - k | psi> up to one common factor per vector at each
    (`_sector_factors` times w_hat(-k, -(D - k))); a stack shares the factors.
    """
    k = np.arange(max(0, remaining - n), min(remaining, n) + 1)
    return k, _sector_factors(remaining, k) * weights[..., n - k]


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

    def delta_profile(self, points: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """|w| against the half phase difference Delta, normalized to unit peak.

        The weight's modulus depends on (phi, phi') only through Delta, so the
        slice phi = Delta, phi' = -Delta captures it:
        w = sum_m weight[m] e^{i (2 m - 2n + D) Delta}. On the grid
        Delta_k = -pi/2 + pi (k + 1/2) / P, e^{2 i m Delta_k} is
        (-1)^m e^{i pi m / P} e^{2 pi i m k / P}, one inverse FFT of length P
        after folding m modulo P.
        """
        deltas = _delta_grid(points)
        m = np.arange(self.weight.size)
        g = self.weight * (1 - 2 * (m & 1)) * np.exp(1j * math.pi * (m % (2 * points)) / points)
        g = np.concatenate([g, np.zeros(-g.size % points)]).reshape(-1, points).sum(axis=0)
        mag = np.abs(ifft(g))
        peak = mag.max()
        return deltas, mag / peak if peak > 0 else mag

    def cavity_state(self) -> FockVector:
        """The conditional two-cavity Fock state: `sector_amplitudes` in a
        dense (n + 1)^2 array, normalised."""
        n, D = self.n, self.remaining
        amps = zeros((n + 1, n + 1))
        k, sector = sector_amplitudes(n, D, self.weight)
        amps[k, D - k] = sector
        norm = np.linalg.norm(amps)
        if norm == 0.0:
            raise NumericsError("trajectory weight produced a null cavity state")
        return FockVector(ModeShape((n, n)), amps / norm)


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
        pick, p, deviation, row = _draw(v, n, remaining, r2, eps_step, rng.random())
        worst = max(worst, deviation)
        a, b = _pair(pick)
        v = _collapse(row, n, p)
        remaining -= a + b
        r2 *= 1.0 - eps_step
        records.append(StepRecord(step, (a, b), p))
        if stop_after_detections is not None and 2 * n - remaining >= stop_after_detections:
            break
    record = DetectionRecord(tuple(records), seed)
    return record, TrajectoryState(n, eps_step, v, remaining, r2, record.totals, len(records), worst)


class TrajectoryLeaves(NamedTuple):
    """The leaves of a walked outcome tree, one row each, in the order a
    depth-first walk in the sampler's outcome order meets them."""

    outcomes: np.ndarray  # (leaves, depth, 2) int: the counts (a, b) of each step
    probabilities: np.ndarray  # (leaves,)
    weights: np.ndarray  # (leaves, 2n + 1): `TrajectoryState.weight`
    remaining: np.ndarray  # (leaves,) int: photons left in the cavities, D
    overflow_bounds: np.ndarray  # (leaves,): `TrajectoryState.overflow_bound`
    radius2: float  # every leaf's, after `depth` steps


def trajectory_leaves(n: int, eps_step: float, depth: int, floor: float) -> TrajectoryLeaves:
    """Walk the outcome tree of the first `depth` steps, pruning every branch
    whose probability falls below `floor` > 0, and return its leaves as
    arrays.

    The tree is walked one level at a time. The live branches of a level are
    grouped by their remaining photon number D, which with the level fixes
    every parameter of a step, and each group takes one stacked `_step`,
    whose rows give the group's kept children in one `_collapse`. Each row
    gets the numbers it gets alone, and the children are ordered by parent,
    then outcome, so the leaves come out as a depth-first walk gives them.
    """
    if not floor > 0.0:
        raise ValidationError(f"floor must be positive, got {floor}")
    # every outcome a step can read: the shells up to the first step's deepest
    last = _deepest_shell(2 * n, eps_step)
    table = np.array([_pair(i) for i in range((last + 1) * (last + 2) // 2)], dtype=np.int64)
    weights, prob, worst = _start(n, eps_step)[None], np.ones(1), np.zeros(1)
    paths = np.zeros((1, 0), dtype=np.int64)  # outcome indices in `_pair` order
    remaining = np.full(1, 2 * n)
    r2 = float(n)
    for _ in range(depth):
        parent, index, p, child_worst, children = [], [], [], [], []
        for D in sorted(set(remaining.tolist())):
            rows = np.flatnonzero(remaining == D)
            probs, deviation, u = _step(weights[rows], n, D, r2, eps_step)
            kept, i = np.nonzero(prob[rows, None] * probs >= floor)
            parent.append(rows[kept])
            index.append(i)
            p.append(probs[kept, i])
            child_worst.append(np.maximum(worst[rows], deviation)[kept])
            children.append(_collapse(u[kept, i], n, probs[kept, i]))
        if not parent:
            break
        order = np.lexsort((np.concatenate(index), np.concatenate(parent)))
        parent, index, p, worst, weights = (np.concatenate(x)[order] for x in (parent, index, p, child_worst, children))
        prob = prob[parent] * p
        paths, remaining = np.column_stack([paths[parent], index]), remaining[parent] - table[index].sum(axis=1)
        r2 *= 1.0 - eps_step
    return TrajectoryLeaves(table[paths], prob, weights, remaining, worst, r2)


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
    50/50 mix of the residual cavity modes: c = (a + e^{i gamma} b) / sqrt(2),
    cavity B taking e^{i gamma n_B} before the coupler theta = pi/4, phi = 0
    (Heisenberg matrix first row (1, 1) / sqrt(2)). On the normalised D-photon
    state psi_k = <k, D - k | psi> the curve is the exact sinusoid

        <c^dag c>(gamma) = D / 2 + Re(e^{i gamma} S),
        S = <a^dag b> = sum_k sqrt((k + 1)(D - k)) psi_k conj(psi_{k+1}),

    of visibility 2 |S| / D (0 at D = 0). With `branch="full"` psi is
    `sector_amplitudes`; because detections leave the weight symmetric in
    +/- Delta, the two mirrored components produce mirrored fringes whose
    sum suppresses the visibility by |cos 2*Delta_peak|. `branch="positive"`
    restricts the weight to Delta > 0 (conditioning on which cavity leads in
    phase), giving the single-branch pattern a subsequent experiment run
    displays once the branches are macroscopically distinct. The restriction
    is the indicator of Delta in (0, pi/2), a function of phi - phi' alone,
    so the masked weight stays on the same anti-diagonal; its coefficients
    come exactly from the indicator's closed-form Fourier coefficients
    (`_positive_coefficients`) and take the factors of `sector_amplitudes`.
    A visibility rounded past 1 by at most 1e-12 reads 1; one further past
    raises NumericsError.
    """
    if branch not in FRINGE_BRANCHES:
        raise ValidationError(f"unknown branch {branch!r}")
    gammas = np.asarray(gamma_grid, dtype=float)
    n, D = traj.n, traj.remaining
    if branch == "full":
        k, psi = sector_amplitudes(n, D, traj.weight)
    else:
        k = np.arange(D + 1)
        psi = _sector_factors(D, k) * _positive_coefficients(traj.weight, n, D)
    norm = float(np.vdot(psi, psi).real)
    if not norm > 0.0:
        raise NumericsError("weight has no norm; cannot scan")
    s = complex(np.sqrt((k[:-1] + 1.0) * (D - k[:-1])) @ (psi[:-1] * np.conj(psi[1:]))) / norm
    intensity = D / 2.0 + np.real(np.exp(1j * gammas) * s)
    visibility = 0.0 if D == 0 else 2.0 * abs(s) / D
    if visibility > 1.0 + 1e-12:  # |S| <= (<n_a> + <n_b>) / 2 = D / 2: only rounding passes 1
        raise NumericsError(f"fringe visibility {visibility:.17g} exceeds 1 beyond rounding")
    return FringeScan(gammas, intensity, min(visibility, 1.0))


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


def exact_trajectory_leaves(n: int, eps_step: float, outcomes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact-Fock evolution of the two-cavity experiment along fixed branches
    of count outcomes. Small n only; used to validate the phase representation.

    `outcomes` holds one branch per row, a (leaves, depth, 2) integer array of
    the counts (a, b) of each step (`TrajectoryLeaves.outcomes`). Returns each
    leaf's normalised conditional cavity state, a (leaves, n + 1, n + 1)
    array, and its probability, in leaf order. Every step applies the same
    Kraus operators K_ab (`_detection_kraus`), built once per call and kept
    by no cache. The leaves' unique prefixes are walked one level at a time:
    the parents of a level that ask for outcome (a, b) take one stacked
    product against K_ab, each parent a (1, cav) @ K_ab of its own, so a child
    does not depend on which branches share its level. A child's squared norm
    is its outcome's probability. A branch that passes through an impossible
    outcome (more counts than photons left, or a probability of exactly 0.0)
    gets a zero state and probability 0.0.
    """
    counts = np.asarray(outcomes)
    if counts.ndim != 3 or counts.shape[2] != 2 or not np.issubdtype(counts.dtype, np.integer):
        raise ValidationError(f"outcomes must be a (leaves, depth, 2) integer array, got {counts.dtype} {counts.shape}")
    if (counts < 0).any():
        raise ValidationError("counts must be nonnegative")
    side, cav = 2 * n + 1, (n + 1) ** 2
    kraus = _detection_kraus(n, eps_step).reshape(cav, cav, side, side)
    # the level's prefixes: normalised cavity amplitudes, probability, photons left
    states = np.zeros((1, cav), dtype=np.complex128)
    states[0, n * (n + 1) + n] = 1.0  # |n, n>
    prob, remaining = np.ones(1), np.full(1, 2 * n)
    # outcome (a, b) as the code a (side + 1) + b, a count past 2n as side
    base = side + 1
    codes = np.minimum(counts, side) @ np.array([base, 1])
    node = np.zeros(counts.shape[0], dtype=np.int64)  # each leaf's prefix at the level
    for step in range(counts.shape[1]):
        unique, node = np.unique(node * base**2 + codes[:, step], return_inverse=True)
        parent, code = np.divmod(unique, base**2)
        remaining = remaining[parent] - code // base - code % base
        live = (remaining >= 0) & (prob[parent] > 0.0)
        children, child_prob = np.zeros((parent.size, cav), dtype=np.complex128), np.zeros(parent.size)
        for c in np.unique(code[live]).tolist():
            sel = np.flatnonzero(live & (code == c))
            columns = np.matmul(states[parent[sel]][:, None, :], kraus[:, :, c // base, c % base])[:, 0]
            ps = np.sum(columns.real**2 + columns.imag**2, axis=-1)
            children[sel] = np.divide(columns, np.sqrt(ps)[:, None], out=np.zeros_like(columns), where=ps[:, None] > 0.0)
            child_prob[sel] = prob[parent[sel]] * ps
        states, prob = children, child_prob
    return states[node].reshape(-1, n + 1, n + 1), prob[node]
