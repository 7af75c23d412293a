import math

import numpy as np
import pytest

from ecsim import circle, squeezing
from ecsim.circle import ecs_to_fock, pair_ladder
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import ModeShape, basis_state, fidelity, twirl
from ecsim.squeezing import (
    approximation_quality,
    pump_entangled_squeezed,
    pump_sector_evolution,
    required_pair_cutoff,
    two_mode_squeezed_vac,
)
from fock_counts import joint_count_distribution, reduced_ab_density, taylor_pair_state, total_number_distribution
from fock_helpers import embed, exact_three_mode_evolution


def expm_pump_sector(n: int, zeta: complex) -> np.ndarray:
    """Reference for the pump sector: scipy's `expm` of the dense sector
    generator, built entry by entry, applied to |n, 0, 0>."""
    from scipy.linalg import expm

    G = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n):
        G[k + 1, k] = -zeta * math.sqrt(n - k) * (k + 1)
        G[k, k + 1] = np.conj(zeta) * math.sqrt(n - k) * (k + 1)
    return expm(G)[:, 0]


def infidelity_rate(scale: float = 0.2) -> tuple[float, list[float]]:
    """Log-log slope of 1 - F between pumps 100 and 1000, and n^2 (1 - F) at
    each. A pair cutoff of 20 puts the Schmidt tail far below 1 - F."""
    pumps = [100, 1000]
    gaps = [1.0 - p.fidelity for p in approximation_quality(pumps, scale, pair_cutoff=20)]
    slope = math.log(gaps[1] / gaps[0]) / math.log(pumps[1] / pumps[0])
    return slope, [n * n * gap for n, gap in zip(pumps, gaps)]


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
        # the closed form holds the untruncated state's rungs, so the series
        # runs on a ladder 40 rungs longer, where truncation is below 1e-16
        cutoff = 12
        st = two_mode_squeezed_vac(chi, cutoff)
        oracle = taylor_pair_state(chi, cutoff + 40)[: cutoff + 1]
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

    def test_pump_cap(self, monkeypatch):
        # the one size rule: a 4097-square sector generator or a 257^3 dense
        # embedding passes 2^24 cells, and is refused before any eigensolve
        def refuse(matrix):
            raise AssertionError("eigensolve ran")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        with pytest.raises(SizingError, match="cap"):
            pump_sector_evolution(4096, 0.1)
        with pytest.raises(SizingError, match="cap"):
            exact_three_mode_evolution(256, 0.1)

    def test_pump_cap_refused_before_synthesis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("synthesis ran")

        monkeypatch.setattr(squeezing, "pump_entangled_squeezed", refuse)
        monkeypatch.setattr(squeezing, "ecs_sector_amplitudes", refuse)
        monkeypatch.setattr(squeezing, "pump_sector_evolution", refuse)
        # the (n + 8)(n + 1) circle table (pair cutoff 7) first passes 2^24
        # cells at n = 4092
        with pytest.raises(SizingError, match="cap"):
            approximation_quality([4092], 0.2)

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.3 * np.exp(0.7j), 0.05j, -0.2])
    def test_sector_matches_expm(self, zeta):
        worst = max(np.abs(pump_sector_evolution(n, zeta) - expm_pump_sector(n, zeta)).max() for n in range(13))
        assert worst <= 1e-14

    def test_dense_embedding_is_the_sector(self):
        sector = pump_sector_evolution(6, 0.2)
        st = exact_three_mode_evolution(6, 0.2, cutoff=4)
        k = np.arange(5)
        assert np.array_equal(st.amplitudes[6 - k, k, k], sector[:5])
        assert np.count_nonzero(st.amplitudes) == 5


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

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_sector_reading_matches_dense_synthesis(self, n):
        zeta = 0.2 / math.sqrt(n)
        synth = ecs_to_fock(pump_entangled_squeezed(n, zeta))
        exact = exact_three_mode_evolution(n, zeta)
        pair_cut = max(synth.shape.cutoffs[1], n)
        shape = ModeShape((n, pair_cut, pair_cut))
        point = approximation_quality([n], 0.2)[0]
        assert abs(point.fidelity - fidelity(embed(synth, shape), embed(exact, shape))) <= 1e-13
        assert abs(point.norm_deficit - (1.0 - synth.norm2)) <= 1e-14

    def test_infidelity_falls_as_inverse_square_of_pump(self):
        # measured: slope -1.9991, n^2 (1 - F) = 3.2376e-5 at n = 100 and
        # 3.2444e-5 at n = 1000. The bounds allow 5x the measured departure
        # of the slope from -2 and 1 % on the constant
        slope, constants = infidelity_rate()
        assert abs(slope + 2.0) <= 5e-3
        assert all(abs(c - 3.241e-5) <= 0.01 * 3.241e-5 for c in constants)

    def test_rate_catches_flipped_pair_phase(self, monkeypatch):
        # mutation canary: the ladder's pair phase flipped (unit = chi / r)
        # leaves every pair weight and so criterion 9 as they were, with
        # fidelities near 0.855 rising in n; the rate does not fall
        good = circle.pair_ladder
        monkeypatch.setattr(circle, "pair_ladder", lambda chis, cutoff: good(-np.asarray(chis), cutoff))
        fids = [p.fidelity for p in approximation_quality([2, 4, 8, 12], 0.2)]
        assert fids == sorted(fids)
        slope, _ = infidelity_rate()
        assert abs(slope + 2.0) > 5e-3


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
        ladder = np.abs(taylor_pair_state(scale, 4)) ** 2
        assert w[1] / w[0] == pytest.approx(ladder[1] / ladder[0], abs=1e-2)
        assert w[2] / w[1] == pytest.approx(ladder[2] / ladder[1], abs=1e-2)


class TestCutoffSizing:
    def test_required_cutoff_monotone(self):
        assert required_pair_cutoff(0.1) <= required_pair_cutoff(0.5) <= required_pair_cutoff(1.2)

    def test_tail_below_threshold(self):
        chi = 0.6
        cut = required_pair_cutoff(chi)
        lad = np.abs(pair_ladder(chi, cut + 30)[0]) ** 2
        assert lad[cut + 1 :].sum() <= 1e-8

    @pytest.mark.parametrize("chi", [19.1, 20.0, -25.0])
    def test_no_finite_cutoff_is_a_sizing_error(self, chi):
        # tanh^2 rounds to 1 for |chi| above about 19.06: the Schmidt tail never shrinks
        with pytest.raises(SizingError):
            required_pair_cutoff(chi)
