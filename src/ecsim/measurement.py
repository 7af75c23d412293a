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


def _shells(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> Iterator[tuple[np.ndarray, float]]:
    """Exact Born probabilities of one step's count pairs, one outcome shell
    a + b = s at a time, in `_pair` order.

    `v` is scaled so that Q(v; r^2, remaining) = 1. Shell s is one
    (s + 1, width) array, width <= 2n + 1 the columns the shells can reach,
    whose row i holds u_{s-i, i}, built by
        u_{a+1,0} = -c/sqrt(a+1) (x + 1) u_{a,0},
        u_{a,b+1} =  c/sqrt(b+1) (x - 1) u_{a,b},
    c = sqrt(eps r^2 / 2), from u_{0,0} = e^{-eps r^2} v, so that
    P(a, b) = Q(u_{a,b}; rho^2, remaining - s) with rho^2 = (1 - eps) r^2.
    The step's total count is Binomial(remaining, eps) whatever the weight,
    so each shell must sum to its binomial weight: a shell that misses it by
    more than STEP_TAIL_TOLERANCE raises NumericsError. Yields
    (probabilities of shell s, |sum - binomial weight|) up to the shell
    `_deepest_shell` bounds; callers stop reading when they have what they
    need.
    """
    last = _deepest_shell(remaining, eps)
    # v vanishes above f1 = detected - n, and the shells reach `last` higher
    width = min(v.size, 2 * n - remaining + last + 1)
    c = math.sqrt(eps * r2 / 2.0)
    lam = poisson_pmf((1.0 - eps) * r2, np.arange(remaining + 1))
    shell = math.exp(-eps * r2) * v[None, :width]
    log_weight, log_odds = remaining * math.log1p(-eps), math.log(eps / (1.0 - eps))
    s = 0
    while True:
        p = _quadform(shell, n, remaining - s, lam)
        total = float(p.sum())
        deviation = abs(total - math.exp(log_weight))
        if not deviation <= STEP_TAIL_TOLERANCE:
            raise NumericsError(
                f"outcome shell a + b = {s} of {remaining} photons sums to {total:.12g}, "
                f"{deviation:.2e} off its binomial weight (tolerance {STEP_TAIL_TOLERANCE})"
            )
        yield p, deviation
        if s >= last:
            return
        s += 1
        log_weight += log_odds + math.log((remaining - s + 1) / s)
        nxt = np.empty((s + 1, width), dtype=np.complex128)
        nxt[0] = (-c / math.sqrt(s)) * _times(shell[0], 1.0)
        nxt[1:] = (c / np.sqrt(np.arange(1.0, s + 1)))[:, None] * _times(shell, -1.0)
        shell = nxt


def _step(v: np.ndarray, n: int, remaining: int, r2: float, eps: float) -> tuple[np.ndarray, float]:
    """Every outcome of one step: (probabilities in `_pair` order, worst
    shell deviation from its binomial weight).

    Reads `_shells` until the enumerated outcomes carry all but 1e-12 of the
    probability, or to the last shell; the leftover tail then measures the
    rounding of the probabilities, which at n in the thousands reaches a few
    1e-12, and a tail of STEP_TAIL_TOLERANCE or more raises NumericsError.
    """
    probs, worst, covered = [], 0.0, 0.0
    for p, deviation in _shells(v, n, remaining, r2, eps):
        probs.append(p)
        worst = max(worst, deviation)
        covered += float(p.sum())
        if 1.0 - covered < 1e-12:
            break
    tail = max(0.0, 1.0 - covered)
    if tail >= STEP_TAIL_TOLERANCE:
        raise NumericsError(f"unenumerated outcome probability {tail:.2e} exceeds {STEP_TAIL_TOLERANCE}")
    return np.concatenate(probs), worst


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
        worst = max(worst, deviation)
        edges = below + p.cumsum()
        k = int(edges.searchsorted(u, side="right"))
        if k < p.size:
            if min(u - (edges[k - 1] if k else below), edges[k] - u) > DRAW_MARGIN:
                return offset + k, float(p[k]), worst
            break
        below, offset = float(edges[-1]), offset + p.size
    probs, deviation = _step(v, n, remaining, r2, eps)
    pick = _choice_index(probs, u)
    return pick, float(probs[pick]), max(worst, deviation)


def _collapse(v: np.ndarray, r2: float, eps: float, a: int, b: int, p: float) -> np.ndarray:
    """u_{a,b} of `_shells` rebuilt by the same recursion and divided by sqrt(P),
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
        """The conditional two-cavity state on its D-photon sector, unnormalised:
        the photon numbers k of cavity A that both cutoffs (default n) admit,
        and <k, D - k | psi> up to one common factor at each.

        <k, D - k | psi> is proportional to w_hat(-k, -(D - k)) / sqrt(k! (D - k)!).
        The coherent radius only scales the whole sector, so the Poisson
        factors use radius^2 = D / 2, which keeps them clear of underflow.
        """
        n, D = self.n, self.remaining
        cut = n if cutoff is None else min(cutoff, n)
        k = np.arange(max(0, D - cut), min(D, cut) + 1)
        # k and D - k run over the same range, reversed
        table = poisson_pmf(D / 2.0, k)
        return k, np.sqrt(table * table[::-1]) * self.weight[n - k]

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
    """Walk the outcome tree of the first `depth` steps once, depth first in
    the sampler's outcome order, pruning every branch whose probability falls
    below `floor`. Yields (outcomes, probability, TrajectoryState) per branch.
    """
    v0 = _start(n, eps_step)

    def walk(v, remaining, r2, outcomes, prob, worst):
        if len(outcomes) == depth:
            totals = (sum(o[0] for o in outcomes), sum(o[1] for o in outcomes))
            yield outcomes, prob, TrajectoryState(
                n, eps_step, v, remaining, r2, totals, depth, worst
            )
            return
        probs, deviation = _step(v, n, remaining, r2, eps_step)
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
                max(worst, deviation),
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
    cache. The branches are merged into their prefix tree and walked depth
    first; each parent takes one matmul against the table, which gives every
    outcome's unnormalised child as a column, whose squared norm is the
    outcome's probability. A branch that passes through an impossible outcome
    (more counts than photons left, or a probability of exactly 0.0) maps to
    (None, 0.0).
    """
    tree: dict = {}
    for outcomes in branches:
        node = tree
        for a, b in outcomes:
            if a < 0 or b < 0:
                raise ValidationError(f"counts must be nonnegative, got {(a, b)}")
            node = node.setdefault((int(a), int(b)), {})
    side = 2 * n + 1
    kraus = _detection_kraus(n, eps_step)
    shape = ModeShape((n, n))
    results = {}

    def walk(node, prefix, cavities, probability, remaining):
        results[prefix] = (cavities, probability)
        if cavities is not None and node:
            children = (cavities.amplitudes.ravel() @ kraus).reshape(-1, side * side)
        for (a, b), child in node.items():
            state, p = None, 0.0
            if cavities is not None and a + b <= remaining:
                column = children[:, a * side + b]
                p = float(np.sum(column.real**2 + column.imag**2))
                if p > 0.0:
                    state = FockVector(shape, (column / math.sqrt(p)).reshape(shape.dims))
            walk(child, prefix + ((a, b),), state, probability * p, remaining - a - b)

    walk(tree, (), basis_state(shape, (n, n)), 1.0, 2 * n)
    return results
