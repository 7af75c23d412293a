"""Truncated multimode Fock spaces: state vectors, densities, phase shifts and
the phase-averaging (twirl) map, plus the Poisson utilities everything else
builds on.

All values are immutable after construction and every operation is a pure
function of its inputs, so objects can be shared freely across threads.
Amplitudes are stored row-major over the occupation tuple (n_1, ..., n_K).

The package's one size rule is `check_cells`: no array whose size depends on
the input exceeds BASIS_SIZE_CAP cells. Each such allocation passes the cells
it takes, before taking them, directly or through `zeros`; a dense state also
passes its mode count to `check_dense`, because numpy arrays hold at most 64
axes. A `ModeShape` only describes a basis, of any number of modes, so a
sector route is sized by its sector, not (cutoff + 1)^N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations
from typing import Sequence

import numpy as np

from .errors import SizingError, ValidationError

# cells of the largest array the package allocates for any input
BASIS_SIZE_CAP = 2**24
# largest log-factorial table kept in memory (8 MiB)
LOG_FACTORIAL_TABLE_CAP = 2**20


def check_cells(cells: int, what: str = "array") -> None:
    """Raise SizingError if an array of `cells` entries would exceed BASIS_SIZE_CAP."""
    if cells > BASIS_SIZE_CAP:
        # counts such as 2^(10^6) have too many digits to print
        count = cells if cells < 2**64 else f"over 2^{int(cells).bit_length() - 1}"
        raise SizingError(f"{what}: {count} cells exceed the cap of {BASIS_SIZE_CAP}")


def check_power(base: int, exponent: int, what: str, factor: int = 1) -> None:
    """`check_cells` for factor * base ** exponent, compared by its base-2
    logarithm before it is formed: (cutoff + 1) ** modes at 10^15 modes has
    too many digits to ever finish forming."""
    if factor > 0 and base > 0:
        bits = math.log2(factor) + exponent * math.log2(base)
        if bits >= 64:
            raise SizingError(f"{what}: over 2^{math.floor(bits)} cells exceed the cap of {BASIS_SIZE_CAP}")
    check_cells(factor * base**exponent, what)


def check_dense(axes: int, cells: int, what: str = "array") -> None:
    """`check_cells` for a dense array of `axes` axes, one per mode of a
    state; numpy arrays hold at most 64 axes, so more raise SizingError too."""
    if axes > 64:
        raise SizingError(f"{what}: {axes} axes exceed the 64 of a dense array")
    check_cells(cells, what)


def zeros(dims: tuple[int, ...]) -> np.ndarray:
    """Complex zeros of shape `dims`, once `check_dense` has admitted them."""
    check_dense(len(dims), math.prod(dims), f"array {tuple(dims)}")
    return np.zeros(dims, dtype=np.complex128)


@dataclass(frozen=True)
class ModeShape:
    """Mode count and inclusive per-mode photon-number cutoffs.

    `dims` (cutoff + 1 per mode) and `size` (their product) are derived once
    at construction; they take no part in equality, hashing or repr.
    """

    cutoffs: tuple[int, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cutoffs = tuple(map(int, self.cutoffs))
        object.__setattr__(self, "cutoffs", cutoffs)
        if len(cutoffs) < 1:
            raise ValidationError("a state needs at least one mode")
        if min(cutoffs) < 0:
            raise ValidationError(f"cutoffs must be nonnegative, got {cutoffs}")
        dims = tuple(c + 1 for c in cutoffs)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "size", math.prod(dims))

    @classmethod
    def uniform(cls, mode_count: int, cutoff: int) -> "ModeShape":
        if mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        return cls((int(cutoff),) * int(mode_count))

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    def occupations(self, mode: int) -> np.ndarray:
        """Occupation number of `mode` for every flattened basis index: the
        index's row-major digit for that mode, without an array of one axis
        per mode, so shapes of any mode count are read alike."""
        mode = range(self.mode_count)[mode]
        return np.arange(self.size) // math.prod(self.dims[mode + 1 :]) % self.dims[mode]

    def total_occupation(self, modes: Sequence[int] | None = None) -> np.ndarray:
        """Total photon number over `modes` (default all) per flattened index."""
        modes = range(self.mode_count) if modes is None else modes
        total = np.zeros(self.size, dtype=int)
        for mode in modes:
            total += self.occupations(mode)
        return total


def sector_occupations(mode_count: int, total: int) -> np.ndarray:
    """Occupation tuples of `mode_count` modes holding `total` photons in all.

    Shape (C(total + mode_count - 1, total), mode_count), rows in row-major
    (lexicographic) order. Each row is a placement of mode_count - 1 bars
    among total + mode_count - 1 slots; the gaps between bars are the counts.
    """
    if mode_count < 1:
        raise ValidationError("mode_count must be >= 1")
    if total < 0:
        raise ValidationError("photon number must be nonnegative")
    slots, rows = total + mode_count - 1, math.comb(total + mode_count - 1, total)
    check_cells(rows * mode_count, f"{total}-photon sector of {mode_count} modes")
    placements = chain.from_iterable(combinations(range(slots), mode_count - 1))
    bars = np.fromiter(placements, np.int64, rows * (mode_count - 1)).reshape(rows, mode_count - 1)
    ends = np.ones((rows, 1), dtype=np.int64)
    return np.diff(np.hstack([-ends, bars, slots * ends]), axis=1) - 1


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockVector:
    """Complex amplitude tensor over a truncated multimode number basis."""

    shape: ModeShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != self.shape.dims:
            raise ValidationError(
                f"amplitude tensor shape {amps.shape} does not match mode dims {self.shape.dims}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def normalize(self) -> "FockVector":
        n2 = self.norm2
        if n2 == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return FockVector(self.shape, self.amplitudes / math.sqrt(n2))

    def probabilities(self) -> np.ndarray:
        """Born-rule weights per occupation tuple (not renormalized)."""
        return np.abs(self.amplitudes) ** 2


def vacuum(shape: ModeShape) -> FockVector:
    amps = zeros(shape.dims)
    amps[(0,) * shape.mode_count] = 1.0
    return FockVector(shape, amps)


def basis_state(shape: ModeShape, occupation: Sequence[int]) -> FockVector:
    occ = tuple(int(n) for n in occupation)
    if len(occ) != shape.mode_count:
        raise ValidationError("occupation length does not match mode count")
    if any(n < 0 or n > c for n, c in zip(occ, shape.cutoffs)):
        raise ValidationError(f"occupation {occ} outside cutoffs {shape.cutoffs}")
    amps = zeros(shape.dims)
    amps[occ] = 1.0
    return FockVector(shape, amps)


@lru_cache(maxsize=None)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.fromiter((math.lgamma(k + 1.0) for k in range(size)), np.float64, size)
    table.setflags(write=False)
    return table


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! for an array of nonnegative integers, read from a cached table
    whose size is the next power of two above max(n); numbers beyond the
    table cap get the same math.lgamma values one by one."""
    top = int(n.max(initial=0))
    if top < LOG_FACTORIAL_TABLE_CAP:
        return _log_factorial_table(1 << top.bit_length())[n]
    return np.vectorize(lambda k: math.lgamma(k + 1.0), otypes=[np.float64])(n)


def poisson_pmf(nbar: float, n) -> float | np.ndarray:
    """Poisson weight e^{-nbar} nbar^n / n!, computed in log space.

    `n` may be a scalar or an integer array. nbar = 0 gives the vacuum
    distribution (with 0^0 = 1).
    """
    n_arr = np.asarray(n)
    if nbar < 0 or n_arr.min(initial=0) < 0:
        raise ValidationError(f"nbar and photon numbers must be nonnegative, got nbar = {nbar}")
    if nbar == 0.0:
        out = (n_arr == 0).astype(np.float64)
    else:
        out = np.exp(n_arr * math.log(nbar) - nbar - _log_factorial(n_arr))
    return out if out.ndim else float(out)


def poisson_tail(nbar: float, cutoff: int) -> float:
    """Upper bound on the probability mass above `cutoff` for a Poisson(nbar)."""
    ns = np.arange(cutoff + 1)
    return float(max(0.0, 1.0 - poisson_pmf(nbar, ns).sum()))


def coherent_log_amplitudes(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """Row p of the result is the Fock expansion of amplitude alphas[p].

    Vectorized over a flat array of amplitudes; used by the circle synthesis.
    Entry (p, k) is e^{-|alpha|^2/2} |alpha|^k / sqrt(k!) times u^k, with
    u = alpha / |alpha| (u = 0 at alpha = 0, which leaves the vacuum row).
    The magnitude is one real exp of its logarithm, so |alpha|^2 in the
    thousands neither overflows nor underflows. The phase u^k is a running
    product over the (cutoff + 1, P) table, built by doubling: with rows
    0..s-1 filled, rows s..2s-1 are those rows times u^s, one contiguous
    multiply per step, so no complex exponential is taken. Against
    e^{k log alpha - |alpha|^2/2 - log(k!)/2} the relative error per entry is
    at most 3.1e-16 times the size of that exponent's terms, measured for
    |alpha|^2 from 1e-3 to 4000 in all four quadrants up to k = 4096; u^k
    amplifies the rounding of u k-fold on any route, the reference's included.
    """
    alphas = np.asarray(alphas, dtype=np.complex128).ravel()
    mags = np.abs(alphas)
    safe = np.where(mags == 0.0, 1.0, mags)
    out = np.empty((cutoff + 1, alphas.size), dtype=np.complex128)
    out[0] = 1.0
    # complex division multiplies by 1 / |alpha|, which overflows for a
    # subnormal |alpha|: those alphas are scaled by 2^64 first, which is exact
    # and leaves alpha/|alpha|; every other alpha is divided as it is
    big = np.where(safe < np.finfo(np.float64).tiny, 2.0**64, 1.0)
    unit = (alphas * big) / (safe * big)
    filled = 1
    while filled <= cutoff:
        step = min(filled, cutoff + 1 - filled)
        np.multiply(out[:step], out[filled - 1] * unit, out=out[filled : filled + step])
        filled += step
    k = np.arange(cutoff + 1)
    logmag = np.multiply.outer(k, np.log(safe))
    logmag -= 0.5 * mags**2
    logmag -= 0.5 * _log_factorial(k)[:, None]
    out *= np.exp(logmag)
    return out.T


def coherent_amplitudes(alpha: complex, cutoff: int) -> FockVector:
    """Single-mode coherent state truncated at `cutoff`.

    The amplitude on |n) is e^{-|alpha|^2/2} alpha^n / sqrt(n!); the missing
    norm equals the Poisson tail beyond the cutoff.
    """
    if cutoff < 0:
        raise ValidationError("cutoff must be nonnegative")
    row = coherent_log_amplitudes(np.array([alpha]), cutoff)[0]
    return FockVector(ModeShape((cutoff,)), row)


def phase_shift(state: FockVector, mode: int, delta: float) -> FockVector:
    """Multiply each amplitude by e^{i delta n_mode}. Exactly norm preserving."""
    if not 0 <= mode < state.shape.mode_count:
        raise ValidationError(f"mode {mode} out of range")
    n = np.arange(state.shape.dims[mode])
    factor = np.exp(1j * delta * n)
    shape = [1] * state.shape.mode_count
    shape[mode] = -1
    return FockVector(state.shape, state.amplitudes * factor.reshape(shape))


def tensor(a: FockVector, b: FockVector) -> FockVector:
    shape = ModeShape(a.shape.cutoffs + b.shape.cutoffs)
    check_dense(shape.mode_count, shape.size, f"product state {shape.dims}")
    return FockVector(shape, np.multiply.outer(a.amplitudes, b.amplitudes))


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> over the common truncated basis."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 / (||a||^2 ||b||^2): the overlap of the normalized inputs."""
    overlap = inner(a, b)
    norms = a.norm2 * b.norm2
    if norms == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return float(abs(overlap) ** 2 / norms)


def vector_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`fidelity` of raw amplitude vectors: one value per pair of vectors
    along the last axis, leading axes broadcast."""
    norms = np.sum(np.abs(a) ** 2, axis=-1) * np.sum(np.abs(b) ** 2, axis=-1)
    if np.any(norms == 0.0):
        raise ValidationError("cannot normalize the zero vector")
    return np.abs(np.sum(a.conj() * b, axis=-1)) ** 2 / norms


@dataclass(frozen=True)
class DensityMatrix:
    """Complex matrix over the flattened multimode number basis."""

    shape: ModeShape
    entries: np.ndarray

    def __post_init__(self):
        check_cells(self.shape.size**2, f"density matrix of dimension {self.shape.size}")
        ent = np.asarray(self.entries, dtype=np.complex128)
        if ent.shape != (self.shape.size, self.shape.size):
            raise ValidationError("entries must be a square matrix over the flattened basis")
        object.__setattr__(self, "entries", _readonly(ent))

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.entries - self.entries.conj().T).max())


def to_density(state: FockVector) -> DensityMatrix:
    vec = state.amplitudes.ravel()
    check_cells(vec.size**2, f"density matrix of dimension {vec.size}")
    return DensityMatrix(state.shape, np.outer(vec, vec.conj()))


def twirl(rho: DensityMatrix, modes: Sequence[int] | None = None) -> DensityMatrix:
    """Phase average of rho over a uniform U(1) shift of the given modes.

    The average of P(delta) rho P(delta)^dagger over delta kills every entry
    connecting basis states whose total occupation over the twirled modes
    differs, so it is applied exactly as a mask rather than by numerical
    integration. Idempotent and trace preserving by construction.
    """
    if rho.hermiticity_defect() > 1e-10:
        raise ValidationError("twirl requires a Hermitian input")
    tot = rho.shape.total_occupation(modes)
    mask = tot[:, None] == tot[None, :]
    return DensityMatrix(rho.shape, rho.entries * mask)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(matrix, compute_uv=False).sum())


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    if a.shape != b.shape:
        raise ValidationError("shape mismatch in trace_distance")
    return trace_norm(a.entries - b.entries)


@dataclass(frozen=True)
class NumberDiagonalDensity:
    """Probability weights over multimode number states: rho = sum p_n |n)(n|."""

    shape: ModeShape
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != self.shape.dims:
            raise ValidationError("weights shape does not match mode dims")
        if w.min() < -1e-12:
            raise ValidationError(f"negative weight {w.min():.3e}")
        if w.sum() > 1.0 + 1e-12:
            raise ValidationError(f"weights sum to {w.sum()} > 1")
        object.__setattr__(self, "weights", _readonly(np.clip(w, 0.0, None)))

    def to_density(self) -> DensityMatrix:
        check_cells(self.shape.size**2, f"density matrix of dimension {self.shape.size}")
        return DensityMatrix(self.shape, np.diag(self.weights.ravel()).astype(np.complex128))


def lowering_matrix(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on the truncated space."""
    a = zeros((cutoff + 1, cutoff + 1))
    n = np.arange(1, cutoff + 1)
    a[n - 1, n] = np.sqrt(n)
    return a


# ---------------------------------------------------------------------------
# JSON envelope: {kind, shape, data}; complex data interleaved re/im with 17
# significant decimal digits.
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _interleave(values: np.ndarray) -> list[str]:
    flat = np.asarray(values, dtype=np.complex128).ravel()
    out = []
    for z in flat:
        out.append(_fmt(z.real))
        out.append(_fmt(z.imag))
    return out


def to_json_dict(obj) -> dict:
    if isinstance(obj, FockVector):
        return {"kind": "fock_vector", "shape": list(obj.shape.cutoffs), "data": _interleave(obj.amplitudes)}
    if isinstance(obj, DensityMatrix):
        return {"kind": "density_matrix", "shape": list(obj.shape.cutoffs), "data": _interleave(obj.entries)}
    if isinstance(obj, NumberDiagonalDensity):
        return {"kind": "number_diagonal", "shape": list(obj.shape.cutoffs),
                "data": [_fmt(w) for w in obj.weights.ravel()]}
    raise ValidationError(f"cannot serialize {type(obj).__name__}")


def from_json_dict(payload: dict):
    if not {"kind", "shape", "data"} <= payload.keys():
        raise ValidationError(f"serialized state needs kind, shape and data, got {sorted(payload)}")
    kind, data = payload["kind"], payload["data"]
    shape = ModeShape(tuple(int(c) for c in payload["shape"]))
    # real numbers the envelope must hold: complex data is interleaved re/im
    numbers = {"number_diagonal": shape.size, "fock_vector": 2 * shape.size, "density_matrix": 2 * shape.size**2}
    if kind not in numbers:
        raise ValidationError(f"unknown serialized kind {kind!r}")
    if len(data) != numbers[kind]:
        raise ValidationError(f"{kind} of cutoffs {shape.cutoffs} needs {numbers[kind]} numbers, got {len(data)}")
    vals = np.array([float(x) for x in data])
    if kind == "number_diagonal":
        return NumberDiagonalDensity(shape, vals.reshape(shape.dims))
    cplx = vals[0::2] + 1j * vals[1::2]
    if kind == "fock_vector":
        return FockVector(shape, cplx.reshape(shape.dims))
    return DensityMatrix(shape, cplx.reshape(shape.size, shape.size))


def dumps(obj) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True)


def loads(text: str):
    return from_json_dict(json.loads(text))
