import math

import numpy as np
import pytest

from ecsim.circle import ecs_to_fock
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import basis_state, fidelity, twirl
from ecsim.measurement import joint_count_distribution, total_number_distribution
from ecsim.squeezing import (
    approximation_quality,
    exact_three_mode_evolution,
    pair_ladder_coefficients,
    pump_entangled_squeezed,
    reduced_ab_density,
    required_pair_cutoff,
    two_mode_squeezed_vac,
)


def taylor_pair_state(chi: complex, cutoff: int, order: int = 60) -> np.ndarray:
    """Independent series oracle: sum_j G^j v / j! on the pair ladder."""
    G = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for k in range(cutoff):
        G[k + 1, k] = -chi * (k + 1)
        G[k, k + 1] = np.conj(chi) * (k + 1)
    vec = np.zeros(cutoff + 1, dtype=complex)
    vec[0] = 1.0
    total = vec.copy()
    term = vec.copy()
    for j in range(1, order + 1):
        term = G @ term / j
        total = total + term
        if np.linalg.norm(term) < 1e-18:
            break
    return total


class TestTwoModeSqueezedVac:
    def test_zero_parameter_is_vacuum(self):
        st = two_mode_squeezed_vac(0.0, 4)
        assert st.probabilities()[(0, 0)] == pytest.approx(1.0, abs=1e-14)

    def test_pair_support_only(self):
        st = two_mode_squeezed_vac(0.3 * np.exp(0.4j), 8)
        probs = st.probabilities()
        off = probs - np.diag(np.diag(probs))
        assert np.abs(off).max() == 0.0

    @pytest.mark.parametrize("chi", [0.1, 0.2 * np.exp(1.1j), 0.35j])
    def test_matches_taylor_oracle(self, chi):
        cutoff = 12
        st = two_mode_squeezed_vac(chi, cutoff)
        oracle = taylor_pair_state(chi, cutoff)
        ladder = np.array([st.amplitudes[k, k] for k in range(cutoff + 1)])
        assert np.abs(ladder - oracle).max() <= 1e-10

    def test_geometric_schmidt_ladder(self):
        st = two_mode_squeezed_vac(0.2, 10)
        c = np.array([st.amplitudes[k, k] for k in range(11)])
        r1, r2 = abs(c[1] / c[0]), abs(c[2] / c[1])
        assert abs(r1 - r2) <= 1e-6
        assert r1 == pytest.approx(math.tanh(0.2), abs=1e-10)

    def test_equal_mode_marginals(self):
        st = two_mode_squeezed_vac(0.4, 12).normalize()
        dist = joint_count_distribution(st)
        a = dist.probabilities.sum(axis=1)
        b = dist.probabilities.sum(axis=0)
        assert np.abs(a - b).max() == 0.0

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="need cutoff >="):
            two_mode_squeezed_vac(0.9, 2)


class TestExactThreeMode:
    def test_vacuum_pump_frozen(self):
        st = exact_three_mode_evolution(0, 0.3)
        assert st.probabilities()[(0, 0, 0)] == pytest.approx(1.0, abs=1e-14)

    def test_first_order_amplitude(self):
        zt = 0.01
        st = exact_three_mode_evolution(1, zt)
        assert st.amplitudes[0, 1, 1] == pytest.approx(-zt, abs=zt**3 * 2)

    def test_unitary(self):
        st = exact_three_mode_evolution(5, 0.2 * np.exp(0.7j))
        assert st.norm2 == pytest.approx(1.0, abs=1e-12)

    def test_conserved_charges(self):
        st = exact_three_mode_evolution(4, 0.25)
        # pump + signal photon number is fixed at the initial pump number
        dist = joint_count_distribution(st, (0, 1))
        for c in range(st.shape.dims[0]):
            for a in range(st.shape.dims[1]):
                if c + a != 4 and dist.probabilities[c, a] > 0:
                    pytest.fail(f"charge violated at pump={c}, a={a}")
        dist_b = joint_count_distribution(st, (0, 2))
        for c in range(st.shape.dims[0]):
            for b in range(st.shape.dims[2]):
                if c + b != 4 and dist_b.probabilities[c, b] > 0:
                    pytest.fail("pump + idler charge violated")

    def test_pump_cap(self):
        with pytest.raises(SizingError):
            exact_three_mode_evolution(40, 0.1)


class TestPumpEntangled:
    def test_zero_coupling_reduces_to_circle(self):
        ecs = pump_entangled_squeezed(3, 0.0, pair_cutoff=2)
        st = ecs_to_fock(ecs).normalize()
        target = basis_state(st.shape, (3, 0, 0))
        assert fidelity(st, target) >= 1.0 - 1e-10

    def test_definite_total_charge(self):
        n = 4
        ecs = pump_entangled_squeezed(n, 0.05, pair_cutoff=3)
        st = ecs_to_fock(ecs).normalize()
        # pump + pair count (pump occupancy + one pair mode) is exactly n
        tot = total_number_distribution(st, (0, 1))
        assert tot[n] == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_improves_with_pump_size(self):
        points = approximation_quality([2, 4, 8], scale=0.2)
        fids = [p.fidelity for p in points]
        assert fids == sorted(fids)
        assert fids[-1] >= 0.99

    def test_norm_deficit_reported(self):
        points = approximation_quality([4], scale=0.2)
        assert 0.0 <= points[0].norm_deficit < 0.2


class TestReducedDensity:
    def test_zero_coupling_vacuum_projector(self):
        st = ecs_to_fock(pump_entangled_squeezed(3, 0.0, pair_cutoff=2))
        rho = reduced_ab_density(st)
        assert rho.entries[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(rho.entries).sum() == pytest.approx(1.0, abs=1e-9)

    def test_pair_coherences_vanish(self):
        st = ecs_to_fock(pump_entangled_squeezed(6, 0.1, pair_cutoff=4))
        rho = reduced_ab_density(st)
        dims = rho.shape.dims
        ent = rho.entries.reshape(dims + dims)
        assert abs(ent[1, 1, 0, 0]) <= 1e-12
        assert abs(ent[2, 2, 1, 1]) <= 1e-12

    def test_twirl_invariant(self):
        st = ecs_to_fock(pump_entangled_squeezed(5, 0.08, pair_cutoff=4))
        rho = reduced_ab_density(st)
        assert np.abs(twirl(rho).entries - rho.entries).max() <= 1e-12

    def test_weights_match_idealized_ladder(self):
        n = 12
        scale = 0.2
        st = ecs_to_fock(pump_entangled_squeezed(n, scale / math.sqrt(n)))
        rho = reduced_ab_density(st)
        dims = rho.shape.dims[0]
        w = np.array([rho.entries.reshape((dims,) * 4)[k, k, k, k].real for k in range(3)])
        ladder = np.abs(pair_ladder_coefficients(scale, 4)) ** 2
        assert w[1] / w[0] == pytest.approx(ladder[1] / ladder[0], abs=1e-2)
        assert w[2] / w[1] == pytest.approx(ladder[2] / ladder[1], abs=1e-2)


class TestCutoffSizing:
    def test_required_cutoff_monotone(self):
        assert required_pair_cutoff(0.1) <= required_pair_cutoff(0.5) <= required_pair_cutoff(1.2)

    def test_tail_below_threshold(self):
        chi = 0.6
        cut = required_pair_cutoff(chi)
        lad = np.abs(pair_ladder_coefficients(chi, cut + 30)) ** 2
        assert lad[cut + 1 :].sum() <= 1e-8

    @pytest.mark.parametrize("chi", [19.1, 20.0, -25.0])
    def test_no_finite_cutoff_is_a_sizing_error(self, chi):
        # tanh^2 rounds to 1 for |chi| above about 19.06: the Schmidt tail never shrinks
        with pytest.raises(SizingError):
            required_pair_cutoff(chi)
