import math
from itertools import combinations_with_replacement
from typing import Sequence

import numpy as np
import pytest

from ecsim import fock
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import (
    DensityMatrix,
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    basis_state,
    coherent_amplitudes,
    fidelity,
    inner,
    lowering_matrix,
    phase_shift,
    poisson_pmf,
    sector_occupations,
    tensor,
    to_density,
    twirl,
    vacuum,
    vector_fidelity,
)
from ecsim.sources import multimode_output_coherent
from fock_helpers import default_cutoff, embed, from_density, reduced_density

RNG = np.random.default_rng(20231015)
# relative gap of the Poisson and coherent weights to a gammaln reference, per
# unit of the exponent's term sizes: measured at most 3.0e-16 for n <= 4096,
# and 3.1e-16 for complex coherent amplitudes against a cmath reference
LOG_WEIGHT_RTOL = 6e-16


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reference partial trace of a density matrix over the complement of
    `keep`, one axis pair at a time; `reduced_density` is checked against it."""
    keep = tuple(keep)
    K = rho.shape.mode_count
    if any(m < 0 or m >= K for m in keep) or len(set(keep)) != len(keep):
        raise ValidationError(f"invalid mode subset {keep}")
    dims = rho.shape.dims
    tensor_form = rho.entries.reshape(dims + dims)
    drop = [m for m in range(K) if m not in keep]
    for count, m in enumerate(sorted(drop)):
        axis = m - count  # axes shrink as we trace
        tensor_form = np.trace(tensor_form, axis1=axis, axis2=axis + (K - count))
    kdims = tuple(dims[m] for m in keep)
    # remaining axes are ordered by original mode index; reorder to `keep`
    remaining = tuple(sorted(keep))
    perm = [remaining.index(m) for m in keep]
    nk = len(keep)
    tensor_form = np.transpose(tensor_form, axes=perm + [nk + p for p in perm])
    size = int(np.prod(kdims))
    out = tensor_form.reshape(size, size)
    return DensityMatrix(ModeShape(tuple(rho.shape.cutoffs[m] for m in keep)), out)


def random_state(shape: ModeShape, rng=RNG) -> FockVector:
    amps = rng.normal(size=shape.dims) + 1j * rng.normal(size=shape.dims)
    return FockVector(shape, amps).normalize()


def random_density(shape: ModeShape, rank=3, rng=RNG) -> DensityMatrix:
    vecs = rng.normal(size=(rank, shape.size)) + 1j * rng.normal(size=(rank, shape.size))
    w = rng.random(rank)
    w /= w.sum()
    ent = sum(wi * np.outer(v, v.conj()) / np.vdot(v, v).real for wi, v in zip(w, vecs))
    return DensityMatrix(shape, ent)


class TestModeShape:
    def test_dims_and_size(self):
        s = ModeShape((3, 2))
        assert s.mode_count == 2
        assert s.dims == (4, 3)
        assert s.size == 12

    def test_derived_fields_stay_out_of_identity(self):
        # dims and size are stored at construction; equality, hashing, repr,
        # replace and pickling still see the cutoffs alone
        import dataclasses
        import pickle

        s = ModeShape((3, 2))
        assert s == ModeShape([3, 2]) and s != ModeShape((2, 3))
        assert hash(s) == hash(ModeShape([3, 2])) == hash(((3, 2),))
        assert repr(s) == "ModeShape(cutoffs=(3, 2))"
        grown = dataclasses.replace(s, cutoffs=(5, 2, 1))
        assert (grown.dims, grown.size) == ((6, 3, 2), 36)
        copy = pickle.loads(pickle.dumps(s))
        assert copy == s and hash(copy) == hash(s) and (copy.dims, copy.size) == (s.dims, s.size)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.size = 1

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            ModeShape((-1,))

    def test_size_cap_enforced(self):
        with pytest.raises(SizingError):
            vacuum(ModeShape.uniform(9, 7))  # 8^9 > 2^24

    def test_dense_arrays_past_64_modes_refused(self):
        # a shape describes any number of modes (the phase walk's reach 4096),
        # but a dense array holds at most 64 axes: one cell over 65 modes is
        # refused like an array over the cap, not left to numpy
        assert ModeShape((0,) * 4096).size == 1
        assert vacuum(ModeShape((0,) * 64)).amplitudes.ndim == 64
        calls = [
            lambda: fock.zeros((1,) * 65),
            lambda: vacuum(ModeShape((0,) * 65)),
            lambda: tensor(vacuum(ModeShape((0,) * 64)), vacuum(ModeShape((0,)))),
            lambda: multimode_output_coherent(0.5, 0.0, 65, 0),
        ]
        for call in calls:
            with pytest.raises(SizingError, match="65 axes exceed the 64"):
                call()

    @pytest.mark.parametrize("cutoffs", [(0,), (3,), (2, 3), (1, 0, 2), (3, 2, 4, 1), (1, 0) * 10, (0,) * 63])
    def test_occupations_are_the_index_grid(self, cutoffs):
        # reference: numpy's index grid, which takes one axis per mode plus one
        shape = ModeShape(cutoffs)
        grids = np.indices(shape.dims).reshape(shape.mode_count, -1)
        for mode in range(-1, shape.mode_count):
            occ = shape.occupations(mode)
            assert occ.dtype == grids.dtype and np.array_equal(occ, grids[mode])
        for modes in (None, [], [0], list(range(0, shape.mode_count, 2))):
            every = range(shape.mode_count) if modes is None else modes
            total = shape.total_occupation(modes)
            assert total.dtype == grids.dtype and np.array_equal(total, grids[list(every)].sum(axis=0))

    def test_occupations_of_64_modes(self):
        shape = ModeShape((0,) * 63 + (2,))
        assert shape.total_occupation().tolist() == [0, 1, 2]
        assert shape.occupations(0).tolist() == [0, 0, 0] and shape.occupations(63).tolist() == [0, 1, 2]
        assert ModeShape((0,) * 64).total_occupation().tolist() == [0]

    @pytest.mark.parametrize("modes,total", [(1, 0), (1, 3), (3, 0), (3, 2), (4, 3), (11, 2)])
    def test_sector_occupations_list_the_sector(self, modes, total):
        # reference: the dense basis tuples of that total, in row-major order
        shape = ModeShape.uniform(modes, total)
        dense = np.argwhere(shape.total_occupation().reshape(shape.dims) == total)
        occ = sector_occupations(modes, total)
        assert occ.shape == (math.comb(total + modes - 1, total), modes)
        assert np.array_equal(occ, dense)

    @pytest.mark.parametrize("modes,total", [(1, 0), (1, 5), (5, 0), (4, 3), (11, 2), (20, 3)])
    def test_sector_occupations_match_itertools(self, modes, total):
        # reference: each multiset of `total` mode labels, counted per mode;
        # combinations_with_replacement lists them in reverse row-major order
        multisets = combinations_with_replacement(range(modes), total)
        ref = [np.bincount(labels, minlength=modes) for labels in multisets]
        occ = sector_occupations(modes, total)
        assert occ.dtype == np.int64
        assert np.array_equal(occ, np.array(ref[::-1], dtype=np.int64).reshape(-1, modes))

    def test_sector_occupations_reject_bad_arguments(self):
        with pytest.raises(ValidationError):
            sector_occupations(0, 2)
        with pytest.raises(ValidationError):
            sector_occupations(3, -1)


class TestPoisson:
    def test_trivial_values(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(1.0, 1) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_mean_and_variance_at_64(self):
        nbar = 64.0
        cutoff = default_cutoff(nbar)
        n = np.arange(cutoff + 1)
        pmf = poisson_pmf(nbar, n)
        mean = float((n * pmf).sum())
        var = float((n**2 * pmf).sum()) - mean**2
        assert mean == pytest.approx(nbar, abs=1e-9)
        assert var == pytest.approx(nbar, abs=1e-9)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValidationError):
            poisson_pmf(-0.5, 0)

    @pytest.mark.parametrize("nbar", [0.3, 2.0, 17.5])
    def test_mass_below_cutoff(self, nbar):
        cutoff = default_cutoff(nbar)
        total = poisson_pmf(nbar, np.arange(cutoff + 1)).sum()
        assert total >= 1.0 - 1e-12

    @pytest.mark.parametrize("nbar", [0.3, 64.0, 4000.0])
    def test_log_factorial_matches_gammaln(self, nbar):
        # scipy's gammaln is an independent log n!. A weight's relative error
        # is the absolute error of its exponent, which scales with the size
        # of the exponent's terms.
        from scipy.special import gammaln

        n = np.arange(4097)
        log_fact = gammaln(n + 1.0)
        exponent = n * math.log(nbar) - nbar - log_fact
        tol = LOG_WEIGHT_RTOL * (1.0 + nbar + n * abs(math.log(nbar)) + log_fact)
        for got, ref in [
            (poisson_pmf(nbar, n), np.exp(exponent)),
            (fock.coherent_log_amplitudes(np.array([math.sqrt(nbar)]), 4096)[0], np.exp(0.5 * exponent)),
        ]:
            normal = ref > 1e-290
            assert np.all(np.abs(got - ref)[normal] <= tol[normal] * ref[normal])
            assert np.all(np.abs(got[~normal]) <= 1e-289)

    def test_scalar_and_array_agree(self):
        n = np.arange(60)
        table = poisson_pmf(7.5, n)
        singles = [poisson_pmf(7.5, int(k)) for k in n]
        assert all(type(p) is float for p in singles)
        assert np.array_equal(np.array(singles), table)

    def test_numbers_beyond_the_table_cap(self):
        # the table and the entry-by-entry path give the same values
        big = fock.LOG_FACTORIAL_TABLE_CAP
        small = np.arange(50)
        assert np.array_equal(fock._log_factorial(np.append(small, big))[:-1], fock._log_factorial(small))
        # Stirling: the Poisson weight at its mean is 1 / sqrt(2 pi nbar) to O(1/nbar)
        n = 4 * big
        assert poisson_pmf(float(n), n) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi * n), rel=1e-6)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValidationError):
            poisson_pmf(1.0, np.array([2, -1]))


class TestCoherent:
    def test_vacuum(self):
        st = coherent_amplitudes(0.0, 5)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.allclose(st.amplitudes, expected)

    def test_unit_amplitude_single_photon_weight(self):
        st = coherent_amplitudes(1.0, 10)
        assert abs(st.amplitudes[1]) ** 2 == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_norm_matches_poisson_sum(self):
        alpha = math.sqrt(2.0) * np.exp(1j * math.pi / 3)
        st = coherent_amplitudes(alpha, 12)
        expected = poisson_pmf(2.0, np.arange(13)).sum()
        assert st.norm2 == pytest.approx(float(expected), abs=1e-14)

    def test_complex_amplitudes_match_cmath(self):
        # an independent reference for the phase as well as the magnitude:
        # e^{k log alpha - |alpha|^2/2 - log(k!)/2} term by term, for amplitudes
        # in all four quadrants with |alpha|^2 from 1e-3 to 4000 and exact
        # zeros mixed into the same batch
        import cmath

        cutoff = 4096
        radii = [math.sqrt(1e-3), 0.3, 1.0, math.sqrt(7.0), 10.0, 30.0, math.sqrt(4000.0)]
        alphas = [0j]
        for quadrant in range(4):
            alphas += [cmath.rect(r, math.pi / 7 + quadrant * math.pi / 2 + 0.1 * r) for r in radii]
            alphas.append(0j)
        got = fock.coherent_log_amplitudes(np.array(alphas), cutoff)
        k = np.arange(cutoff + 1)
        log_fact = np.array([math.lgamma(j + 1.0) for j in k])
        for row, alpha in zip(got, alphas):
            if alpha == 0:
                assert row[0] == 1.0 and not np.any(row[1:])
                continue
            log_alpha = cmath.log(alpha)
            ref = np.array(
                [cmath.exp(j * log_alpha - abs(alpha) ** 2 / 2 - log_fact[j] / 2) for j in k]
            )
            tol = LOG_WEIGHT_RTOL * (1.0 + k * abs(log_alpha) + abs(alpha) ** 2 / 2 + log_fact / 2)
            normal = np.abs(ref) > 1e-290
            assert np.all(np.abs(row - ref)[normal] <= tol[normal] * np.abs(ref)[normal])
            assert np.all(np.abs(row[~normal]) <= 1e-289)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_amplitudes_keep_their_phase(self):
        # 1 / |alpha| overflows below the smallest normal double; the rows
        # are 1, alpha, then underflow, with no NaN and no warning
        alphas = np.array([5e-324, 1e-310, 3e-320 * (1 + 1j), -2e-315j, 0.5, 0.0])
        got = fock.coherent_log_amplitudes(alphas, 3)
        assert np.array_equal(got[:4, :2], np.stack([np.ones(4), alphas[:4]], axis=1))
        assert not np.any(got[:4, 2:])
        assert np.array_equal(got[4:], fock.coherent_log_amplitudes(alphas[4:], 3))

    def test_tensor_matches_product(self):
        a = coherent_amplitudes(0.7 + 0.2j, 6)
        b = coherent_amplitudes(-0.3 + 0.9j, 5)
        prod = tensor(a, b)
        direct = np.multiply.outer(a.amplitudes, b.amplitudes)
        assert np.allclose(prod.amplitudes, direct, atol=1e-15)


class TestPhaseShift:
    def test_identity_at_zero(self):
        st = basis_state(ModeShape((5,)), (3,))
        assert np.allclose(phase_shift(st, 0, 0.0).amplitudes, st.amplitudes)

    def test_coherent_rotation(self):
        st = coherent_amplitudes(1.0, 24)
        rotated = phase_shift(st, 0, math.pi / 2)
        target = coherent_amplitudes(1.0j, 24)
        assert fidelity(rotated, target) >= 1.0 - 1e-12

    def test_number_state_global_phase(self):
        st = basis_state(ModeShape((4,)), (2,))
        delta = 0.813
        shifted = phase_shift(st, 0, delta)
        assert shifted.amplitudes[2] == pytest.approx(np.exp(2j * delta), abs=1e-15)
        assert np.allclose(to_density(shifted).entries, to_density(st).entries)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_norm_preserved_to_rounding(self, seed):
        st = random_state(ModeShape((4, 3)), np.random.default_rng(seed))
        assert phase_shift(st, 1, 2.3).norm2 == pytest.approx(st.norm2, abs=1e-15)


class TestLinearAlgebra:
    def test_inner_orthonormal(self):
        s = ModeShape((4,))
        for n in range(5):
            for m in range(5):
                ov = inner(basis_state(s, (n,)), basis_state(s, (m,)))
                assert ov == pytest.approx(1.0 if n == m else 0.0, abs=1e-15)

    def test_fidelity_ignores_scale(self):
        rng = np.random.default_rng(5)
        s = ModeShape((2, 3))
        a = FockVector(s, rng.normal(size=s.dims) + 1j * rng.normal(size=s.dims))
        b = FockVector(s, rng.normal(size=s.dims) + 1j * rng.normal(size=s.dims))
        unit = abs(inner(a.normalize(), b.normalize())) ** 2
        assert fidelity(a, b) == pytest.approx(unit, rel=1e-14)
        assert fidelity(FockVector(s, 3j * a.amplitudes), a) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValidationError):
            fidelity(a, FockVector(s, np.zeros(s.dims)))

    def test_vector_fidelity_is_fidelity_per_row(self):
        rng = np.random.default_rng(6)
        s = ModeShape((2, 3))
        a = rng.normal(size=(4, s.size)) + 1j * rng.normal(size=(4, s.size))
        b = rng.normal(size=(4, s.size)) + 1j * rng.normal(size=(4, s.size))
        rows = vector_fidelity(a, b)
        assert rows.shape == (4,)
        for ai, bi, value in zip(a, b, rows):
            lone = fidelity(FockVector(s, ai.reshape(s.dims)), FockVector(s, bi.reshape(s.dims)))
            assert value == pytest.approx(lone, rel=1e-14)
        assert vector_fidelity(a[0], 2j * a[0]) == pytest.approx(1.0, abs=1e-15)
        b[2] = 0.0
        with pytest.raises(ValidationError):
            vector_fidelity(a, b)

    def test_partial_trace_bell_like(self):
        s = ModeShape((1, 1))
        psi = FockVector(s, np.array([[0, 1], [1, 0]], dtype=complex) / math.sqrt(2))
        rho = partial_trace(to_density(psi), keep=(0,))
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-14)

    def test_partial_trace_preserves_trace(self):
        rho = random_density(ModeShape((2, 2, 1)))
        red = partial_trace(rho, keep=(0, 2))
        assert red.trace == pytest.approx(rho.trace, abs=1e-12)

    def test_reduced_density_matches_partial_trace(self):
        st = random_state(ModeShape((2, 2, 2)))
        a = reduced_density(st, keep=(1, 2))
        b = partial_trace(to_density(st), keep=(1, 2))
        assert np.allclose(a.entries, b.entries, atol=1e-13)

    def test_embed_preserves_content(self):
        st = coherent_amplitudes(0.8, 5)
        big = embed(st, ModeShape((9,)))
        assert np.allclose(big.amplitudes[:6], st.amplitudes)
        assert np.allclose(big.amplitudes[6:], 0.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            inner(vacuum(ModeShape((2,))), vacuum(ModeShape((3,))))


class TestTwirl:
    def test_number_state_fixed(self):
        rho = to_density(basis_state(ModeShape((4,)), (3,)))
        assert np.allclose(twirl(rho).entries, rho.entries, atol=0.0)

    def test_coherent_becomes_poisson_mixture(self):
        nbar = 1.7
        st = coherent_amplitudes(math.sqrt(nbar), 20)
        rho = twirl(to_density(st))
        diag = from_density(rho)
        assert np.allclose(diag.weights, poisson_pmf(nbar, np.arange(21)), atol=1e-14)

    def test_plus_state_off_diagonals_killed(self):
        s = ModeShape((1,))
        psi = FockVector(s, np.array([1.0, 1.0]) / math.sqrt(2))
        rho = twirl(to_density(psi))
        assert np.allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_idempotent(self, seed):
        rho = random_density(ModeShape((3, 2)), rng=np.random.default_rng(seed))
        once = twirl(rho)
        twice = twirl(once)
        assert np.abs(twice.entries - once.entries).max() <= 1e-12
        assert once.trace == pytest.approx(rho.trace, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.3, 1.9, 5.5])
    def test_invariance_under_prior_shift(self, delta):
        rng = np.random.default_rng(int(delta * 100))
        st = random_state(ModeShape((3, 2)), rng)
        shifted = phase_shift(phase_shift(st, 0, delta), 1, delta)
        lhs = twirl(to_density(shifted))
        rhs = twirl(to_density(st))
        assert np.abs(lhs.entries - rhs.entries).max() <= 1e-12

    def test_subset_twirl_masks_only_those_modes(self):
        s = ModeShape((1, 1))
        psi = FockVector(s, np.array([[1.0, 1.0], [1.0, 1.0]]) / 2.0)
        rho = twirl(to_density(psi), modes=(0,))
        ent = rho.entries.reshape(2, 2, 2, 2)
        # coherence between n0=0 and n0=1 must vanish; within fixed n0 it survives
        assert ent[0, 0, 1, 0] == 0.0
        assert abs(ent[0, 0, 0, 1]) > 0.1

    def test_non_hermitian_rejected(self):
        s = ModeShape((1,))
        bad = DensityMatrix(s, np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        with pytest.raises(ValidationError):
            twirl(bad)


class TestCommutator:
    @pytest.mark.parametrize("cutoff", [8, 16])
    def test_quadrature_commutator_inside_boundary(self, cutoff):
        # p is the canonical conjugate of q, i.e. the quadrature at angle
        # -pi/2 in the (e^{i theta} a + e^{-i theta} a^dag) convention.
        a = lowering_matrix(cutoff)
        q = (a + a.conj().T) / math.sqrt(2)
        p = (-1j * a + 1j * a.conj().T) / math.sqrt(2)
        comm = q @ p - p @ q
        rng = np.random.default_rng(cutoff)
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[: cutoff - 1] = rng.normal(size=cutoff - 1) + 1j * rng.normal(size=cutoff - 1)
        amps /= np.linalg.norm(amps)
        val = amps.conj() @ comm @ amps
        assert val == pytest.approx(1j, abs=1e-9)


class TestSerialization:
    def test_fock_vector_roundtrip(self):
        st = random_state(ModeShape((3, 2)))
        back = fock.loads(fock.dumps(st))
        assert back.shape == st.shape
        assert np.allclose(back.amplitudes, st.amplitudes, atol=1e-16)

    def test_density_roundtrip(self):
        rho = random_density(ModeShape((2, 1)))
        back = fock.loads(fock.dumps(rho))
        assert np.allclose(back.entries, rho.entries, atol=1e-16)

    def test_diagonal_roundtrip(self):
        w = poisson_pmf(1.2, np.arange(9))
        d = NumberDiagonalDensity(ModeShape((8,)), w)
        back = fock.loads(fock.dumps(d))
        assert np.allclose(back.weights, d.weights, atol=0.0)

    def test_dumps_is_deterministic(self):
        st = coherent_amplitudes(0.3 + 0.1j, 6)
        assert fock.dumps(st) == fock.dumps(coherent_amplitudes(0.3 + 0.1j, 6))

    @pytest.mark.parametrize(
        "edit",
        [
            {"kind": None},
            {"shape": None},
            {"data": None},
            {"data": ["0.5"] * 5},
            {"kind": "density_matrix"},
            {"kind": "number_diagonal"},
            {"shape": [2**20] * 4},
        ],
        ids=[
            "no-kind", "no-shape", "no-data", "short-data",
            "vector-data-as-density", "complex-data-as-weights", "huge-shape",
        ],
    )
    def test_malformed_envelope_rejected(self, edit):
        # a None value drops the key; every other case mismatches data and shape
        payload = {**fock.to_json_dict(vacuum(ModeShape((1, 1)))), **edit}
        payload = {key: value for key, value in payload.items() if value is not None}
        with pytest.raises(ValidationError):
            fock.from_json_dict(payload)
