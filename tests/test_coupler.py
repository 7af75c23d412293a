import math

import numpy as np
import pytest

from ecsim.coupler import (
    BlockUnitary,
    CouplerParams,
    apply_coupler,
    coupler_block,
    equal_multimode_split,
    heisenberg_matrix,
    oracle_block,
    split_cascade,
)
from ecsim.errors import ValidationError
from ecsim.fock import (
    FockVector,
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    poisson_tail,
    tensor,
    vacuum,
)


def cascade_matrix(cascade: list[tuple[int, int, float]], n_modes: int) -> np.ndarray:
    """Composite Heisenberg matrix of a coupler schedule (later couplers on the
    left): the contract `split_cascade` is checked against."""
    M = np.eye(n_modes, dtype=np.complex128)
    for a, b, theta in cascade:
        step = np.eye(n_modes, dtype=np.complex128)
        two = heisenberg_matrix(CouplerParams(theta, 0.0))
        step[a, a], step[a, b] = two[0, 0], two[0, 1]
        step[b, a], step[b, b] = two[1, 0], two[1, 1]
        M = step @ M
    return M


def coherent_pair(alpha, beta, cutoff):
    return tensor(coherent_amplitudes(alpha, cutoff), coherent_amplitudes(beta, cutoff))


class TestHeisenbergMatrix:
    def test_identity_at_zero(self):
        M = heisenberg_matrix(CouplerParams(0.0, 1.3))
        assert np.allclose(M, np.eye(2), atol=0.0)

    def test_balanced_splitter(self):
        M = heisenberg_matrix(CouplerParams(math.pi / 4, 0.0))
        r = 1.0 / math.sqrt(2)
        assert np.allclose(M, [[r, r], [-r, r]], atol=1e-15)

    def test_special_unitary(self):
        M = heisenberg_matrix(CouplerParams(math.pi / 3, math.pi / 2))
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(M.conj().T @ M, np.eye(2), atol=1e-15)

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            CouplerParams(2.0, 0.0)


class TestBlocks:
    def test_vacuum_sector_trivial(self):
        assert coupler_block(CouplerParams(0.9, 0.4), 0).matrix[0, 0] == 1.0

    def test_single_photon_row(self):
        p = CouplerParams(math.pi / 4, 0.0)
        U = coupler_block(p, 1).matrix
        # |1,0> is k=1; amplitudes cos on |1,0>, -sin on |0,1>
        assert U[1, 1] == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
        assert U[0, 1] == pytest.approx(-math.sin(math.pi / 4), abs=1e-14)

    def test_hong_ou_mandel_null(self):
        U = coupler_block(CouplerParams(math.pi / 4, 0.0), 2).matrix
        assert abs(U[1, 1]) <= 1e-12

    def test_full_swap_sign(self):
        U = oracle_block(CouplerParams(math.pi / 2, 0.0), 1).matrix
        # |1,0> (k=1) -> -|0,1>
        assert U[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert abs(U[1, 1]) <= 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 3, 1.4, math.pi / 2])
    @pytest.mark.parametrize("N", [1, 2, 7, 25, 60, 240])
    def test_block_matches_oracle(self, theta, N):
        p = CouplerParams(theta, 0.7)
        diff = np.abs(coupler_block(p, N).matrix - oracle_block(p, N).matrix).max()
        assert diff <= 1e-10

    def test_oracle_unitarity_defect(self):
        U = oracle_block(CouplerParams(math.pi / 4, 0.0), 4).matrix
        assert np.abs(U.conj().T @ U - np.eye(5)).max() <= 1e-12

    def test_nonunitary_block_rejected(self):
        with pytest.raises(ValidationError):
            BlockUnitary(1, np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestApplyCoupler:
    def test_vacuum_fixed(self):
        st = vacuum(ModeShape((3, 3)))
        out = apply_coupler(st, (0, 1), CouplerParams(0.77, 0.3))
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-14)

    def test_hong_ou_mandel_output(self):
        st = basis_state(ModeShape((2, 2)), (1, 1))
        out = apply_coupler(st, (0, 1), CouplerParams(math.pi / 4, 0.0))
        expect = np.zeros((3, 3), dtype=complex)
        expect[2, 0] = 1.0 / math.sqrt(2)
        expect[0, 2] = -1.0 / math.sqrt(2)
        assert np.allclose(out.amplitudes, expect, atol=1e-12)

    @pytest.mark.parametrize("theta,phi", [(0.3, 0.0), (math.pi / 4, 1.1), (1.2, 4.0)])
    def test_coherent_covariance(self, theta, phi):
        alpha, beta = 1.1 + 0.3j, -0.4 + 0.8j
        cutoff = 18
        params = CouplerParams(theta, phi)
        out = apply_coupler(coherent_pair(alpha, beta, cutoff), (0, 1), params)
        ap, bp = heisenberg_matrix(params) @ np.array([alpha, beta])
        target = coherent_pair(ap, bp, cutoff)
        tail = poisson_tail(abs(alpha) ** 2, cutoff) + poisson_tail(abs(beta) ** 2, cutoff)
        assert fidelity(out, target) >= 1.0 - 2 * tail - 1e-12

    def test_unitarity_on_contained_sectors(self):
        rng = np.random.default_rng(7)
        shape = ModeShape((6, 6))
        amps = np.zeros(shape.dims, dtype=complex)
        # support only where every joint sector fits inside both cutoffs
        for k in range(4):
            for l in range(4 - k):
                amps[k, l] = rng.normal() + 1j * rng.normal()
        st = FockVector(shape, amps).normalize()
        out = apply_coupler(st, (0, 1), CouplerParams(0.9, 2.2))
        assert out.norm2 == pytest.approx(1.0, abs=1e-12)

    def test_total_photon_number_conserved(self):
        rng = np.random.default_rng(11)
        shape = ModeShape((5, 5))
        amps = rng.normal(size=shape.dims) + 1j * rng.normal(size=shape.dims)
        for k in range(6):
            for l in range(6):
                if k + l > 5:
                    amps[k, l] = 0.0
        st = FockVector(shape, amps).normalize()
        out = apply_coupler(st, (0, 1), CouplerParams(1.1, 0.6))
        tot_in = np.zeros(11)
        tot_out = np.zeros(11)
        for k in range(6):
            for l in range(6):
                tot_in[k + l] += abs(st.amplitudes[k, l]) ** 2
                tot_out[k + l] += abs(out.amplitudes[k, l]) ** 2
        assert np.allclose(tot_in, tot_out, atol=1e-13)

    def test_composition_one_parameter_subgroup(self):
        st = basis_state(ModeShape((4, 4)), (2, 1))
        phi = 0.9
        t1, t2 = math.pi / 8, math.pi / 6
        once = apply_coupler(st, (0, 1), CouplerParams(t1 + t2, phi))
        twice = apply_coupler(
            apply_coupler(st, (0, 1), CouplerParams(t1, phi)), (0, 1), CouplerParams(t2, phi)
        )
        assert np.abs(once.amplitudes - twice.amplitudes).max() <= 1e-10

    def test_third_mode_untouched(self):
        st = tensor(basis_state(ModeShape((2, 2)), (1, 1)), basis_state(ModeShape((3,)), (2,)))
        out = apply_coupler(st, (0, 1), CouplerParams(math.pi / 4, 0.0))
        # mode 2 stays |2>
        marg = np.sum(out.probabilities(), axis=(0, 1))
        assert marg[2] == pytest.approx(1.0, abs=1e-12)

    def test_same_mode_pair_rejected(self):
        with pytest.raises(ValidationError):
            apply_coupler(vacuum(ModeShape((1, 1))), (0, 0), CouplerParams(0.1))


class TestEqualSplit:
    @pytest.mark.parametrize("n_out", [1, 2, 3, 4, 5, 7, 8])
    def test_cascade_column_is_uniform(self, n_out):
        M = cascade_matrix(split_cascade(n_out), n_out)
        col = M[:, 0]
        assert np.allclose(col, np.full(n_out, 1.0 / math.sqrt(n_out)), atol=1e-12)
        assert np.allclose(M.conj().T @ M, np.eye(n_out), atol=1e-12)

    def test_coherent_splits_to_product(self):
        alpha = 0.9 + 0.4j
        cutoff = 12
        out = equal_multimode_split(coherent_amplitudes(alpha, cutoff), 2)
        target = coherent_pair(alpha / math.sqrt(2), alpha / math.sqrt(2), cutoff)
        tail = poisson_tail(abs(alpha) ** 2, cutoff)
        assert fidelity(out, target) >= 1.0 - 2 * tail - 1e-12

    def test_single_photon_spreads_evenly(self):
        out = equal_multimode_split(basis_state(ModeShape((1,)), (1,)), 3)
        probs = out.probabilities()
        assert probs[1, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert probs[0, 1, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert probs[0, 0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_vacuum_splits_to_vacuum(self):
        out = equal_multimode_split(vacuum(ModeShape((2,))), 4)
        assert out.probabilities()[(0, 0, 0, 0)] == pytest.approx(1.0, abs=1e-14)

    def test_occupied_ancilla_rejected(self):
        st = tensor(basis_state(ModeShape((2,)), (1,)), basis_state(ModeShape((2,)), (1,)))
        with pytest.raises(ValidationError):
            equal_multimode_split(st, 2)
