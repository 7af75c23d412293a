"""Phase-circle synthesis of number states from coherent states.

A number state is written as a uniform superposition of coherent states on a
circle in phase space, weighted by e^{-i n phi}. On a uniform M-point grid the
circle integral is a discrete quadrature that is *exact* for every integrand
whose phase dependence is a trigonometric polynomial of degree below M, and
`PhaseGrid.exact` sizes every grid by that rule. Linear couplers then act
pointwise on the coherent amplitudes, which is what makes the representation
worth having: it turns sector-by-sector unitaries into 2x2 matrix algebra on
the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from . import coupler as _coupler
from .errors import ValidationError
from .fock import FockVector, ModeShape, _unit_phase, check_cells, coherent_log_amplitudes, poisson_pmf, zeros

# complex cells (16 MiB) per block of the grid tables, sector products and
# weight row, so their temporaries stay small beside the arrays they fill
BLOCK_CELLS = 2**20


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform phases 2 pi k / M with quadrature weight 1/M per point."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("grid needs at least one point")
        check_cells(self.size, f"phase grid of {self.size} points")

    @property
    def points(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.size) / self.size

    @staticmethod
    def exact(degree: int) -> "PhaseGrid":
        """degree + 1 points, the fewest exact up to trigonometric degree `degree`."""
        return PhaseGrid(degree + 1)


@dataclass(frozen=True)
class PairFactor:
    """Two-mode squeezed-vacuum factor with a grid-dependent parameter chi.

    Used by the parametric-pump model, where one grid point carries a
    coherent pump amplitude together with a pair-correlated state of two
    other modes.
    """

    modes: tuple[int, int]
    chi: np.ndarray  # complex, one value per grid point (grid product shape)


@dataclass(frozen=True)
class ECSState:
    """Weight function on a product of phase grids plus per-point mode content.

    `amplitudes[..., m]` is the coherent amplitude of the m-th coherent mode
    (listed in `coherent_modes`) at each grid point. Modes covered by
    `pair_factors` carry squeezed-pair content instead. `shape` is the
    truncated Fock target used by `ecs_to_fock`.
    """

    grids: tuple[PhaseGrid, ...]
    weight: np.ndarray
    coherent_modes: tuple[int, ...]
    amplitudes: np.ndarray
    shape: ModeShape
    pair_factors: tuple[PairFactor, ...] = ()

    def __post_init__(self):
        gshape = tuple(g.size for g in self.grids)
        w = np.asarray(self.weight, dtype=np.complex128)
        if w.shape != gshape:
            raise ValidationError(f"weight shape {w.shape} does not match grids {gshape}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != gshape + (len(self.coherent_modes),):
            raise ValidationError("amplitude table shape does not match grids and modes")
        covered = list(self.coherent_modes)
        for pf in self.pair_factors:
            covered.extend(pf.modes)
            if np.asarray(pf.chi).shape != gshape:
                raise ValidationError("pair factor chi table shape does not match grids")
        if sorted(covered) != list(range(self.shape.mode_count)):
            raise ValidationError(
                f"modes {sorted(covered)} do not cover shape with {self.shape.mode_count} modes"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.grids)


def number_state_on_circle(n: int, m_radius: int | None = None, cutoff: int | None = None) -> ECSState:
    """Single-mode circle representation of |n).

    The circle radius sqrt(m) defaults to m = n; any positive integer radius
    represents the same state, which tests use to confirm representation
    independence. n = 0 with radius 0 degenerates to the vacuum point.
    """
    if n < 0:
        raise ValidationError("photon number must be nonnegative")
    m = n if m_radius is None else int(m_radius)
    if m == 0 and n > 0:
        raise ValidationError(f"radius 0 circle has no {n}-photon content")
    if m < 0:
        raise ValidationError("circle radius index must be nonnegative")
    cut = n if cutoff is None else int(cutoff)
    if cut < n:
        raise ValidationError("cutoff below the represented photon number")
    grid = PhaseGrid.exact(cut)
    phis = grid.points
    weight = np.exp(-1j * n * phis) / math.sqrt(poisson_pmf(float(m), n))
    amps = (math.sqrt(m) * np.exp(1j * phis))[:, None]
    return ECSState((grid,), weight, (0,), amps, ModeShape((cut,)))


def two_mode_circle(n: int, n_prime: int, cutoffs: int | tuple[int, int] | None = None) -> ECSState:
    """Product of two single-mode circles (radii sqrt(n), sqrt(n_prime)).

    The product carries no entanglement; it only becomes entangled after a
    coupler acts. Choose cutoffs of n + n_prime per mode when a coupler will
    follow, since the joint sector spreads over both modes.
    """
    if n < 0 or n_prime < 0:
        raise ValidationError("photon numbers must be nonnegative")
    if cutoffs is None:
        cutoffs = (n, n_prime)
    if isinstance(cutoffs, int):
        cutoffs = (cutoffs, cutoffs)
    c1, c2 = cutoffs
    if c1 < n or c2 < n_prime:
        raise ValidationError("cutoffs below the represented photon numbers")
    g1 = g2 = PhaseGrid.exact(c1 + c2)  # total occupations up to c1 + c2
    amps = zeros((g1.size, g2.size, 2))  # the largest array here, so sized first
    p1, p2 = g1.points, g2.points
    norm = math.sqrt(poisson_pmf(float(n), n) * poisson_pmf(float(n_prime), n_prime))
    weight = np.exp(-1j * n * p1)[:, None] * np.exp(-1j * n_prime * p2)[None, :] / norm
    amps[:, :, 0] = math.sqrt(n) * np.exp(1j * p1)[:, None]
    amps[:, :, 1] = math.sqrt(n_prime) * np.exp(1j * p2)[None, :]
    return ECSState((g1, g2), weight, (0, 1), amps, ModeShape((c1, c2)))


def ecs_apply_coupler(ecs: ECSState, mode_pair: tuple[int, int], params: _coupler.CouplerParams) -> ECSState:
    """Map the coherent amplitudes of two modes by the Heisenberg matrix,
    pointwise on the grid. The weight is untouched."""
    i, j = mode_pair
    try:
        ai = ecs.coherent_modes.index(i)
        aj = ecs.coherent_modes.index(j)
    except ValueError:
        raise ValidationError(f"modes {mode_pair} are not both coherent modes") from None
    M = _coupler.heisenberg_matrix(params)
    amps = np.array(ecs.amplitudes)
    new_i = M[0, 0] * amps[..., ai] + M[0, 1] * amps[..., aj]
    new_j = M[1, 0] * amps[..., ai] + M[1, 1] * amps[..., aj]
    amps[..., ai] = new_i
    amps[..., aj] = new_j
    return ECSState(ecs.grids, ecs.weight, ecs.coherent_modes, amps, ecs.shape, ecs.pair_factors)


def pair_ladder(chis: complex | np.ndarray, cutoff: int) -> np.ndarray:
    """Two-mode squeezed-vacuum coefficients on |k, k), k = 0..cutoff, one row
    per parameter chi: (-chi/|chi| tanh|chi|)^k / cosh|chi|, the closed form of
    exp(chi* ab - chi a^dag b^dag)|0, 0) read up to `cutoff`."""
    chis = np.asarray(chis, dtype=np.complex128).ravel()
    check_cells(chis.size * (cutoff + 1), f"pair ladder of {chis.size} x {cutoff + 1}")
    r = np.abs(chis)
    k = np.arange(cutoff + 1)
    return (_unit_phase(-chis)[:, None] ** k) * (np.tanh(r)[:, None] ** k) / np.cosh(r)[:, None]


def _quadrature_inputs(ecs: ECSState, occ: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The Fock expansions of every coherent amplitude, shape
    (R, P, coherent modes, largest occupation + 1), for reading the tuples
    `occ`. The phase degree at a tuple is its coherent occupations plus, per
    pair factor, the smaller of its modes' occupations; grids too small for
    the largest are refused. `stack` holds R amplitude tables like
    `ecs.amplitudes` that share its grids. Each mode slices its own cutoff's
    columns, which no other cutoff changes."""
    columns = occ[:, list(ecs.coherent_modes)]
    pairs = [np.minimum(occ[:, i], occ[:, j]) for i, j in (pf.modes for pf in ecs.pair_factors)]
    degree = int((columns.sum(axis=1) + sum(pairs)).max(initial=0))
    required = PhaseGrid.exact(degree).size
    for g in ecs.grids:
        if g.size < required:
            raise ValidationError(
                f"grid of {g.size} points aliases content of total occupation {degree}; "
                f"need M >= {required}"
            )
    P = int(np.prod(ecs.grid_shape))
    modes = len(ecs.coherent_modes)
    cut = int(columns.max(initial=0))
    R = stack.shape[0]
    check_cells(R * P * modes * (cut + 1), f"circle tables ({R} x {P} points, {modes} modes, cutoff {cut})")
    alphas = stack.reshape(R * P * modes)
    tables = np.empty((alphas.size, cut + 1), dtype=np.complex128)
    step = max(1, BLOCK_CELLS // (cut + 1))
    for start in range(0, len(alphas), step):
        tables[start : start + step] = coherent_log_amplitudes(alphas[start : start + step], cut)
    return tables.reshape(R, P, modes, cut + 1)


def ecs_to_fock(ecs: ECSState) -> FockVector:
    """Synthesize the truncated Fock vector `ecs.shape` by discrete quadrature,
    exact (to rounding) on the grids `PhaseGrid.exact` gives for the shape's
    largest total occupation or larger ones; smaller grids are refused.
    """
    shape = ecs.shape
    (coherent,) = _quadrature_inputs(ecs, np.array([shape.cutoffs]), ecs.amplitudes[None])
    P = coherent.shape[0]
    weight_flat = ecs.weight.ravel() * (1.0 / P)

    # one operand per factor: (mode tuple, table of shape (P, dims...))
    operands: list[tuple[tuple[int, ...], np.ndarray]] = [
        ((mode,), coherent[:, pos, : shape.dims[mode]]) for pos, mode in enumerate(ecs.coherent_modes)
    ]
    for pf in ecs.pair_factors:
        # squeezed-vacuum amplitudes per grid point, the ladder on the diagonal k = l
        i, j = pf.modes
        block = zeros((P, shape.dims[i], shape.dims[j]))
        k = np.arange(min(shape.dims[i], shape.dims[j]))
        block[:, k, k] = pair_ladder(pf.chi, k[-1])
        operands.append(((i, j), block))
    operands.sort(key=lambda item: item[0][0])
    mode_order: list[int] = [m for modes, _ in operands for m in modes]

    # fold into two halves so no (P, full-basis) intermediate is materialized
    tables = [arr.reshape(P, -1) for _, arr in operands]
    sizes = [t.shape[1] for t in tables]
    split = 1
    best = None
    for s in range(1, len(tables) + 1):
        left = int(np.prod(sizes[:s]))
        right = int(np.prod(sizes[s:])) if s < len(tables) else 1
        cost = max(left, right)
        if best is None or cost < best:
            best, split = cost, s
    check_cells(max(shape.size, P * best), f"synthesis of {shape.dims} on {P} points")  # output, widest fold
    def fold(parts: list[np.ndarray], seed: np.ndarray) -> np.ndarray:
        acc = seed
        for t in parts:
            acc = (acc[:, :, None] * t[:, None, :]).reshape(P, -1)
        return acc

    left = fold(tables[:split], weight_flat[:, None])
    if split < len(tables):
        right = fold(tables[split:], np.ones((P, 1), dtype=np.complex128))
        flat = (left.T @ right).reshape(-1)
    else:
        flat = left.sum(axis=0)
    dims_in_order = tuple(shape.dims[m] for m in mode_order)
    tensorized = flat.reshape(dims_in_order)
    # axis i currently holds mode mode_order[i]; send it to position mode_order[i]
    tensorized = np.moveaxis(tensorized, range(len(mode_order)), mode_order)
    return FockVector(shape, tensorized)


def ecs_sector_amplitudes(ecs: ECSState, occupations: np.ndarray) -> np.ndarray:
    """The amplitudes of `ecs_to_fock(ecs)` at the given occupation tuples only.

    `occupations` has one row per tuple and one column per mode, such as the
    rows of `fock.sector_occupations`. The quadrature is the same as in
    `ecs_to_fock`, so a state confined to one total photon number (a circle
    weight e^{-i m phi}) is fully given by its C(m + N - 1, m) sector
    amplitudes instead of (m + 1)^N. This is the one-table, one-weight case
    of `sector_amplitude_stack`.
    """
    return sector_amplitude_stack(ecs, ecs.amplitudes[None], ecs.weight[None, None], occupations)[0, 0]


def sector_amplitude_stack(ecs: ECSState, amplitudes: np.ndarray, weights: np.ndarray, occupations: np.ndarray) -> np.ndarray:
    """`ecs_sector_amplitudes` for a stack of R amplitude tables, W weights each.

    `amplitudes` has shape (R, grid..., coherent modes): R tables like
    `ecs.amplitudes` that share its grids, pair factors and shape, and
    `weights` has shape (R, W, grid...): W weight functions per table. Of
    `ecs` only those, its modes and the shape of its amplitude table are read,
    not its amplitudes or weight. Returns the (R, W, tuples) sector
    amplitudes. The grid rule sizes the grids by the tuples alone: that is
    exact where each weight holds phase frequencies -(M - 1) to 0 only on its
    M-point grid, as e^{-i m phi} does for m < M, and e^{-i m phi} times one
    amplitude e^{i phi} for 0 < m <= M.
    Each tuple's per-mode factors are multiplied one mode at a time into an
    (R, P, tuples) block, so no (R, P, tuples, modes) array is formed. A pair
    factor contributes `pair_ladder`[k] where both of its modes hold k, and 0
    where they differ. A block and the factor gathered into it hold at most
    `BLOCK_CELLS` cells between them unless one tuple alone needs more.
    """
    occ = np.asarray(occupations)
    if occ.ndim != 2 or occ.shape[1] != ecs.shape.mode_count:
        raise ValidationError(f"occupations need shape (tuples, {ecs.shape.mode_count}), got {occ.shape}")
    if occ.size and (occ.min() < 0 or np.any(occ.max(axis=0) > np.array(ecs.shape.cutoffs))):
        raise ValidationError(f"occupations outside cutoffs {ecs.shape.cutoffs}")
    stack = np.asarray(amplitudes, dtype=np.complex128)
    if stack.shape[1:] != ecs.amplitudes.shape:
        raise ValidationError(f"amplitude stack needs shape (R, *{ecs.amplitudes.shape}), got {stack.shape}")
    weights = np.asarray(weights, dtype=np.complex128)
    if weights.ndim != stack.ndim or weights.shape[:1] + weights.shape[2:] != stack.shape[:-1]:
        raise ValidationError(f"weights need shape ({stack.shape[0]}, W, *{ecs.grid_shape}), got {weights.shape}")
    tables = _quadrature_inputs(ecs, occ, stack)
    R, P, modes = tables.shape[:3]
    W = weights.shape[1]
    columns = occ[:, list(ecs.coherent_modes)]  # (tuples, modes) in table order
    check_cells(R * W * max(len(columns), P), f"sector amplitudes ({R} x {W} weights, {len(columns)} tuples, {P} points)")
    weight_flat = weights.reshape(R, W, P) * (1.0 / P)
    # per pair factor: its ladder up to the highest rung a tuple reads, with a
    # zero column after it, and each tuple's column in that table
    ladders = []
    for pf in ecs.pair_factors:
        i, j = pf.modes
        top = int(occ[occ[:, i] == occ[:, j], i].max(initial=0))
        ladder = zeros((P, top + 2))
        ladder[:, :-1] = pair_ladder(pf.chi, top)
        ladders.append((ladder, np.where(occ[:, i] == occ[:, j], occ[:, i], top + 1)))
    step = max(1, BLOCK_CELLS // (2 * R * P))  # tuples per block
    out = np.empty((R, W, len(columns)), dtype=np.complex128)
    for start in range(0, len(columns), step):
        block = columns[start : start + step]
        acc = tables[:, :, 0, block[:, 0]]
        for pos in range(1, modes):
            acc *= tables[:, :, pos, block[:, pos]]
        for ladder, rungs in ladders:
            acc *= ladder[:, rungs[start : start + step]]
        out[:, :, start : start + step] = weight_flat @ acc
    return out


# ---------------------------------------------------------------------------
# Conditional weight after photocounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalWeight:
    """Weight factor C(phi, phi') after detecting counts (A, B). Its magnitude
    depends on the phases only through delta = phi - phi'; `log_peak` is its
    largest log over the `grid` differences, kept in log space because the
    detection-probability prefactor underflows for large counts."""

    A: int
    B: int
    eps: float
    n: int
    grid: PhaseGrid
    log_peak: float


def _log_weight_row(A: int, B: int, eps: float, n: int, deltas: np.ndarray) -> np.ndarray:
    """log |C| at the differences `deltas`: C is e^{i (A + B) phi'} times a function of
    delta, with alpha_a = s e^{i phi'} (1 + e^{i delta}), alpha_b = s e^{i phi'} (1 - e^{i delta})."""
    unit = np.exp(1j * deltas)
    scale = math.sqrt(eps * n / 2.0)
    log_mag = np.full(deltas.shape, -eps * n - 0.5 * (lgamma(A + 1) + lgamma(B + 1)))
    with np.errstate(divide="ignore"):
        if A > 0:
            log_mag += A * np.log(np.abs(scale * (1.0 + unit)))
        if B > 0:
            log_mag += B * np.log(np.abs(scale * (1.0 - unit)))
    return log_mag


def conditional_weight(A: int, B: int, eps: float, n: int, grid: int = 1024) -> ConditionalWeight:
    """Exact coherent-overlap weight for counts (A, B) from two leaking
    cavities of n photons each, mixed 50/50, with output coupling eps: the peak
    of its log magnitude on the differences 2 pi k / grid, `BLOCK_CELLS` at a time."""
    if A < 0 or B < 0:
        raise ValidationError("counts must be nonnegative")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"eps must lie in (0, 1), got {eps}")
    check_cells(grid, f"weight row on a {grid}-point grid")
    log_peak = -math.inf
    for start in range(0, grid, BLOCK_CELLS):
        deltas = 2.0 * math.pi * np.arange(start, min(start + BLOCK_CELLS, grid)) / grid
        row = _log_weight_row(A, B, eps, n, deltas)
        if A > 0 and grid % 2 == 0 and 0 <= grid // 2 - start < row.size:
            row[grid // 2 - start] = -math.inf  # 1 + e^{i pi} rounds to 1.2e-16i, not 0
        log_peak = max(log_peak, float(row.max()))
    return ConditionalWeight(A, B, eps, n, PhaseGrid(grid), log_peak)


def _delta_grid(points: int) -> np.ndarray:
    """Delta_k = -pi/2 + pi (k + 1/2) / P, k < P: the grid of both routes' profiles."""
    if points < 1:
        raise ValidationError(f"points must be positive, got {points}")
    check_cells(points, f"profile of {points} points")
    return -math.pi / 2 + math.pi * (np.arange(points) + 0.5) / points


def delta_profile(weight: ConditionalWeight, points: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Normalized |C| as a function of the half difference Delta in (-pi/2, pi/2]."""
    deltas = _delta_grid(points)
    return deltas, profile_magnitude(weight.A, weight.B, deltas)


def profile_magnitude(A: int, B: int, deltas: np.ndarray) -> np.ndarray:
    """|cos Delta|^A |sin Delta|^B normalized to unit peak, or zeros where
    every point is zero."""
    logs = np.zeros_like(np.asarray(deltas, dtype=float))
    with np.errstate(divide="ignore"):
        if A > 0:
            logs += A * np.log(np.abs(np.cos(deltas)))
        if B > 0:
            logs += B * np.log(np.abs(np.sin(deltas)))
    top = logs.max()
    # exp(-inf) is 0; where every point is zero there is no peak to scale by
    return np.exp(logs - top) if top > -math.inf else np.zeros_like(logs)


def peak_locations(A: int, B: int) -> tuple[float, float]:
    """The two maxima of |C| in Delta, at +/- arctan(sqrt(B/A)).

    A = 0 is the limiting case with peaks at +/- pi/2; A = B = 0 has no
    modulation and is rejected.
    """
    if A < 0 or B < 0:
        raise ValidationError("counts must be nonnegative")
    if A == 0 and B == 0:
        raise ValidationError("no counts recorded; the weight has no peaks")
    if A == 0:
        bar = math.pi / 2
    else:
        bar = math.atan(math.sqrt(B / A))
    return (-bar, bar)


def refine_peak(A: int, B: int, delta0: float) -> float:
    """One Newton step on d/dDelta log(|cos|^A |sin|^B) from a grid argmax."""
    t = math.tan(delta0)
    if t == 0.0 or not math.isfinite(t):
        return delta0
    g1 = -A * t + B / t
    g2 = -A / math.cos(delta0) ** 2 - B / math.sin(delta0) ** 2
    if g2 == 0.0:
        return delta0
    return delta0 - g1 / g2


@dataclass(frozen=True)
class WidthFit:
    """Gaussian fit of a weight peak.

    `sigma` is the standard deviation in the *full* phase difference
    phi - phi' (twice the half-difference coordinate), the variable in which
    sigma * sqrt(A + B) tends to sqrt(2) for large counts. `center` is the
    peak position as a half difference.
    """

    sigma: float
    center: float
    residual: float
    ok: bool


def width_fit(
    weight: ConditionalWeight | tuple[np.ndarray, np.ndarray],
    A: int | None = None,
    B: int | None = None,
    min_counts: int = 16,
) -> WidthFit:
    """Least-squares Gaussian fit of log |C| around the positive peak.

    Requires A + B >= min_counts (default 16, the asymptotic regime; callers
    comparing widths across count levels may lower it explicitly). The result
    carries a warning flag instead of failing when the quadratic fit leaves a
    large residual.
    """
    if isinstance(weight, ConditionalWeight):
        A, B = weight.A, weight.B
        deltas, mag = delta_profile(weight, points=4096)
    else:
        deltas, mag = weight
        if A is None or B is None:
            raise ValidationError("profile fits need the realized counts A and B")
    N = A + B
    if N < min_counts:
        raise ValidationError(f"width fit needs A + B >= {min_counts} (asymptotic regime), got {N}")
    positive = deltas > 0 if A and B else np.abs(deltas) >= 0
    grid_center = deltas[positive][np.argmax(mag[positive])]
    center = refine_peak(A, B, grid_center) if (A and B) else peak_locations(A, B)[1]
    peak_val = np.interp(center, deltas, mag)
    window = (mag >= peak_val * math.exp(-2.0)) & (np.abs(deltas - center) < math.pi / 4)
    if A and B:
        window &= deltas > 0
    x = 2.0 * (deltas[window] - center)  # full-difference coordinate
    y = np.log(mag[window] / peak_val)
    xx = x * x
    # a line needs 2 distinct abscissae: a window of 1 point, or of 2 points
    # at +-x, is unfitted, as a slope >= 0 is
    coeffs = np.polyfit(xx, y, 1) if xx.size and xx.max() > xx.min() else None
    if coeffs is None or coeffs[0] >= 0:
        return WidthFit(math.inf, center, math.inf, False)
    sigma = math.sqrt(-1.0 / (2.0 * coeffs[0]))
    fitted = coeffs[0] * x * x + coeffs[1]
    residual = float(np.max(np.abs(fitted - y)))
    return WidthFit(sigma, float(center), residual, residual <= 0.1)
