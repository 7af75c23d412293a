"""Truncated multimode Fock spaces: state vectors, densities, phase shifts and
the phase-averaging (twirl) map, plus the Poisson utilities everything else
builds on.

All values are immutable after construction and every operation is a pure
function of its inputs, so objects can be shared freely across threads.
Amplitudes are stored row-major over the occupation tuple (n_1, ..., n_K).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import SizingError, ValidationError

# Hard cap on the number of stored amplitudes of any state vector; density
# matrices are capped so their entry count stays under the same bound.
BASIS_SIZE_CAP = 2**24
DENSITY_DIM_CAP = 2**12
# largest log-factorial table kept in memory (8 MiB)
LOG_FACTORIAL_TABLE_CAP = 2**20


def default_cutoff(nbar: float) -> int:
    """Per-mode cutoff that keeps the Poisson tail of a mean-nbar source negligible."""
    return int(math.ceil(nbar + 10.0 * math.sqrt(max(nbar, 0.0)) + 10.0))


@dataclass(frozen=True)
class ModeShape:
    """Mode count and inclusive per-mode photon-number cutoffs."""

    cutoffs: tuple[int, ...]

    def __post_init__(self):
        cutoffs = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "cutoffs", cutoffs)
        if len(cutoffs) < 1:
            raise ValidationError("a state needs at least one mode")
        if any(c < 0 for c in cutoffs):
            raise ValidationError(f"cutoffs must be nonnegative, got {cutoffs}")
        if self.size > BASIS_SIZE_CAP:
            raise SizingError(
                f"basis size {self.size} exceeds cap {BASIS_SIZE_CAP}; "
                f"reduce cutoffs or mode count (dims={self.dims})"
            )

    @classmethod
    def uniform(cls, mode_count: int, cutoff: int) -> "ModeShape":
        if mode_count < 1:
            raise ValidationError("mode_count must be >= 1")
        return cls((int(cutoff),) * int(mode_count))

    @property
    def mode_count(self) -> int:
        return len(self.cutoffs)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims, dtype=np.int64))

    def occupations(self, mode: int) -> np.ndarray:
        """Occupation number of `mode` for every flattened basis index."""
        grids = np.indices(self.dims).reshape(self.mode_count, -1)
        return grids[mode]

    def total_occupation(self, modes: Sequence[int] | None = None) -> np.ndarray:
        """Total photon number over `modes` (default all) per flattened index."""
        modes = range(self.mode_count) if modes is None else modes
        grids = np.indices(self.dims).reshape(self.mode_count, -1)
        return grids[list(modes)].sum(axis=0)


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
    slots = total + mode_count - 1
    placements = list(combinations(range(slots), mode_count - 1))
    bars = np.array(placements, dtype=np.int64).reshape(len(placements), mode_count - 1)
    ends = np.ones((len(bars), 1), dtype=np.int64)
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
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def normalize(self) -> "FockVector":
        n2 = self.norm2
        if n2 == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return FockVector(self.shape, self.amplitudes / math.sqrt(n2))

    def probabilities(self) -> np.ndarray:
        """Born-rule weights per occupation tuple (not renormalized)."""
        return np.abs(self.amplitudes) ** 2


def vacuum(shape: ModeShape) -> FockVector:
    amps = np.zeros(shape.dims, dtype=np.complex128)
    amps[(0,) * shape.mode_count] = 1.0
    return FockVector(shape, amps)


def basis_state(shape: ModeShape, occupation: Sequence[int]) -> FockVector:
    occ = tuple(int(n) for n in occupation)
    if len(occ) != shape.mode_count:
        raise ValidationError("occupation length does not match mode count")
    if any(n < 0 or n > c for n, c in zip(occ, shape.cutoffs)):
        raise ValidationError(f"occupation {occ} outside cutoffs {shape.cutoffs}")
    amps = np.zeros(shape.dims, dtype=np.complex128)
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
    """
    alphas = np.asarray(alphas, dtype=np.complex128).ravel()
    n = np.arange(cutoff + 1)
    mags = np.abs(alphas)
    out = np.zeros((alphas.size, cutoff + 1), dtype=np.complex128)
    zero = mags == 0.0
    out[zero, 0] = 1.0
    if np.any(~zero):
        m = mags[~zero, None]
        logmag = -0.5 * m**2 + n[None, :] * np.log(m) - 0.5 * _log_factorial(n)[None, :]
        phases = np.angle(alphas[~zero])[:, None] * n[None, :]
        out[~zero] = np.exp(logmag + 1j * phases)
    return out


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
    return FockVector(shape, np.multiply.outer(a.amplitudes, b.amplitudes))


def inner(a: FockVector, b: FockVector) -> complex:
    """<a|b> over the common truncated basis."""
    if a.shape != b.shape:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def fidelity(a: FockVector, b: FockVector) -> float:
    """|<a|b>|^2 for normalized inputs (inputs are normalized internally)."""
    ov = inner(a.normalize(), b.normalize())
    return float(abs(ov) ** 2)


def embed(state: FockVector, shape: ModeShape) -> FockVector:
    """Zero-pad a state into a larger shape with the same mode count."""
    if shape.mode_count != state.shape.mode_count:
        raise ValidationError("embed requires equal mode counts")
    if any(cn < co for cn, co in zip(shape.cutoffs, state.shape.cutoffs)):
        raise ValidationError("target cutoffs must dominate the source cutoffs")
    amps = np.zeros(shape.dims, dtype=np.complex128)
    amps[tuple(slice(0, d) for d in state.shape.dims)] = state.amplitudes
    return FockVector(shape, amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Complex matrix over the flattened multimode number basis."""

    shape: ModeShape
    entries: np.ndarray

    def __post_init__(self):
        if self.shape.size > DENSITY_DIM_CAP:
            raise SizingError(
                f"density matrix dimension {self.shape.size} exceeds cap {DENSITY_DIM_CAP}"
            )
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
    return DensityMatrix(state.shape, np.outer(vec, vec.conj()))


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
    rho = psi @ psi.conj().T
    return DensityMatrix(ModeShape(tuple(state.shape.cutoffs[m] for m in keep)), rho)


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
        return DensityMatrix(self.shape, np.diag(self.weights.ravel()).astype(np.complex128))

    @classmethod
    def from_density(cls, rho: DensityMatrix, atol: float = 1e-12) -> "NumberDiagonalDensity":
        off = rho.entries - np.diag(np.diag(rho.entries))
        if np.abs(off).max() > atol:
            raise ValidationError("density has off-diagonal entries; not number diagonal")
        return cls(rho.shape, np.real(np.diag(rho.entries)).reshape(rho.shape.dims))


def lowering_matrix(cutoff: int) -> np.ndarray:
    """Single-mode annihilation operator on the truncated space."""
    a = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
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
    kind = payload.get("kind")
    shape = ModeShape(tuple(int(c) for c in payload["shape"]))
    data = payload["data"]
    if kind == "number_diagonal":
        w = np.array([float(x) for x in data]).reshape(shape.dims)
        return NumberDiagonalDensity(shape, w)
    vals = np.array([float(x) for x in data])
    cplx = vals[0::2] + 1j * vals[1::2]
    if kind == "fock_vector":
        return FockVector(shape, cplx.reshape(shape.dims))
    if kind == "density_matrix":
        return DensityMatrix(shape, cplx.reshape(shape.size, shape.size))
    raise ValidationError(f"unknown serialized kind {kind!r}")


def dumps(obj) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True)


def loads(text: str):
    return from_json_dict(json.loads(text))
