import math

import numpy as np
import pytest

from ecsim import fock
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import (
    DensityMatrix,
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    RadialP,
    basis_state,
    coherent_amplitudes,
    embed,
    fidelity,
    inner,
    lowering_matrix,
    p_n_from_radial_P,
    partial_trace,
    phase_shift,
    poisson_pmf,
    reduced_density,
    sector_occupations,
    tensor,
    to_density,
    twirl,
    vacuum,
)

RNG = np.random.default_rng(20231015)


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

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValidationError):
            ModeShape((-1,))

    def test_size_cap_enforced(self):
        with pytest.raises(SizingError):
            ModeShape.uniform(9, 7)  # 8^9 > 2^24

    @pytest.mark.parametrize("modes,total", [(1, 0), (1, 3), (3, 0), (3, 2), (4, 3), (11, 2)])
    def test_sector_occupations_list_the_sector(self, modes, total):
        # reference: the dense basis tuples of that total, in row-major order
        shape = ModeShape.uniform(modes, total)
        dense = np.argwhere(shape.total_occupation().reshape(shape.dims) == total)
        occ = sector_occupations(modes, total)
        assert occ.shape == (math.comb(total + modes - 1, total), modes)
        assert np.array_equal(occ, dense)

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
        cutoff = fock.default_cutoff(nbar)
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
        cutoff = fock.default_cutoff(nbar)
        total = poisson_pmf(nbar, np.arange(cutoff + 1)).sum()
        assert total >= 1.0 - 1e-12


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
        diag = NumberDiagonalDensity.from_density(rho)
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


class TestRadialP:
    @staticmethod
    def _bump(center: float, width: float) -> RadialP:
        # Gaussian bump with total integral 1/2, the normalization that makes
        # the induced number weights sum to one.
        norm = 0.5 / (width * math.sqrt(2.0 * math.pi))

        def f(nbar: float) -> float:
            return norm * math.exp(-0.5 * ((nbar - center) / width) ** 2)

        return RadialP(f, upper=center + 12 * width)

    def test_narrow_bump_approaches_poisson(self):
        nbar0 = 4.0
        for n in (0, 2, 4, 7):
            val = p_n_from_radial_P(self._bump(nbar0, 0.01), n)
            assert val == pytest.approx(poisson_pmf(nbar0, n), rel=2e-4)

    def test_weights_sum_to_one(self):
        p = self._bump(3.0, 0.4)
        total = sum(p_n_from_radial_P(p, n) for n in range(40))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_vacuum_concentration(self):
        val = p_n_from_radial_P(self._bump(0.0, 0.005), 0)
        # half of the bump mass sits below nbar=0 and is cut off
        assert val == pytest.approx(0.5, rel=1e-2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            RadialP(lambda x: -1.0, upper=2.0)


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
