import dataclasses
import math

import numpy as np
import pytest

from ecsim import circle, coupler, verify
from ecsim.circle import (
    ECSState,
    PhaseGrid,
    conditional_weight,
    delta_profile,
    ecs_apply_coupler,
    ecs_sector_amplitudes,
    sector_amplitude_stack,
    ecs_to_fock,
    number_state_on_circle,
    peak_locations,
    profile_magnitude,
    two_mode_circle,
    width_fit,
)
from ecsim.coupler import CouplerParams, apply_coupler
from ecsim.errors import ValidationError
from ecsim.fock import ModeShape, basis_state, fidelity, poisson_pmf, sector_occupations
from ecsim.measurement import run_interference_trajectory
from ecsim.squeezing import pump_entangled_squeezed
from fock_helpers import conditional_table


def schmidt_coefficients(state):
    matrix = state.amplitudes.reshape(state.shape.dims[0], -1)
    return np.linalg.svd(matrix, compute_uv=False)


class TestCircleSynthesis:
    def test_vacuum_point(self):
        st = ecs_to_fock(number_state_on_circle(0, 0, cutoff=3))
        assert fidelity(st, basis_state(ModeShape((3,)), (0,))) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_reproduces_number_state(self, n):
        st = ecs_to_fock(number_state_on_circle(n, cutoff=n + 4))
        target = basis_state(ModeShape((n + 4,)), (n,))
        assert fidelity(st, target) >= 1.0 - 1e-10
        assert st.norm2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", [2, 5, 9])
    def test_radius_independence(self, m):
        st = ecs_to_fock(number_state_on_circle(2, m_radius=m, cutoff=6))
        assert fidelity(st, basis_state(ModeShape((6,)), (2,))) >= 1.0 - 1e-10

    def test_zero_radius_with_photons_rejected(self):
        with pytest.raises(ValidationError):
            number_state_on_circle(2, m_radius=0)

    def test_grid_size_invariance(self):
        base = number_state_on_circle(4, cutoff=4)
        small = ecs_to_fock(base)
        big_grid = PhaseGrid(64)
        phis = big_grid.points
        big = dataclasses.replace(
            base,
            grids=(big_grid,),
            weight=np.exp(-4j * phis) / math.sqrt(float(np.exp(-4) * 4.0**4 / 24.0)),
            amplitudes=(2.0 * np.exp(1j * phis))[:, None],
        )
        assert np.abs(ecs_to_fock(big).amplitudes - small.amplitudes).max() <= 1e-12

    def test_rule_one_point_short_fails_verify(self, monkeypatch):
        # mutation canary: with degree points, not degree + 1, the rule sizes
        # every grid and the refusal alike, so only a larger grid catches it
        monkeypatch.setattr(PhaseGrid, "exact", staticmethod(lambda degree: PhaseGrid(degree)))
        result = verify.check_quadrature_exactness()
        assert number_state_on_circle(4, cutoff=4).grid_shape == (4,)
        assert not result.passed and result.measured > 0.1

    def test_undersized_grid_rejected(self):
        st = number_state_on_circle(3, cutoff=3)
        bad = dataclasses.replace(st, shape=ModeShape((12,)))
        with pytest.raises(ValidationError, match="need M >="):
            ecs_to_fock(bad)

    def test_zero_weight_gives_zero_vector(self):
        st = number_state_on_circle(2)
        zeroed = dataclasses.replace(st, weight=np.zeros_like(st.weight))
        assert ecs_to_fock(zeroed).norm2 == 0.0


class TestTwoModeCircle:
    def test_product_with_vacuum(self):
        st = ecs_to_fock(two_mode_circle(1, 0, cutoffs=(3, 3)))
        assert fidelity(st, basis_state(ModeShape((3, 3)), (1, 0))) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_diagonal_pairs(self, n):
        st = ecs_to_fock(two_mode_circle(n, n, cutoffs=(n, n)))
        assert fidelity(st, basis_state(ModeShape((n, n)), (n, n))) >= 1.0 - 1e-10

    def test_product_state_has_schmidt_rank_one(self):
        st = ecs_to_fock(two_mode_circle(2, 3, cutoffs=(3, 4)))
        sv = schmidt_coefficients(st.normalize())
        assert sv[0] == pytest.approx(1.0, abs=1e-10)
        assert sv[1] <= 1e-10


class TestCommutingDiagram:
    @pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 4, math.pi / 3])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 2])
    def test_coupler_commutes_with_synthesis(self, theta, phi):
        params = CouplerParams(theta, phi)
        for n, nprime in [(1, 0), (2, 1), (3, 3)]:
            cut = n + nprime
            ecs = two_mode_circle(n, nprime, cutoffs=(cut, cut))
            via_ecs = ecs_to_fock(ecs_apply_coupler(ecs, (0, 1), params))
            via_fock = apply_coupler(ecs_to_fock(ecs), (0, 1), params)
            assert fidelity(via_ecs, via_fock) >= 1.0 - 1e-10

    def test_check_reads_the_coupled_sector_alone(self, monkeypatch):
        # the verify check runs neither dense route; the test above keeps
        # the dense comparison
        def refuse(*args):
            raise AssertionError("a dense route ran")

        for module, name in ((verify, "ecs_to_fock"), (circle, "ecs_to_fock"), (coupler, "apply_coupler")):
            monkeypatch.setattr(module, name, refuse)
        result = verify.check_commuting_diagram(4)
        assert result.passed and type(result.measured) is float

    def test_identity_coupler_is_noop(self):
        ecs = two_mode_circle(2, 1, cutoffs=(3, 3))
        out = ecs_apply_coupler(ecs, (0, 1), CouplerParams(0.0, 0.0))
        assert np.allclose(out.amplitudes, ecs.amplitudes, atol=0.0)

    def test_coupled_circles_become_entangled(self):
        for n in (1, 2):
            ecs = two_mode_circle(n, n, cutoffs=(2 * n, 2 * n))
            out = ecs_to_fock(ecs_apply_coupler(ecs, (0, 1), CouplerParams(math.pi / 4, 0.0)))
            sv = schmidt_coefficients(out.normalize())
            probs = sv**2 / (sv**2).sum()
            entropy = -np.sum(probs[probs > 1e-14] * np.log(probs[probs > 1e-14]))
            assert entropy > 0.1

    def test_definite_total_photon_number(self):
        ecs = two_mode_circle(2, 3, cutoffs=(5, 5))
        out = ecs_to_fock(ecs_apply_coupler(ecs, (0, 1), CouplerParams(0.6, 1.0)))
        probs = out.probabilities()
        for k in range(6):
            for l in range(6):
                if k + l != 5:
                    # off-sector amplitudes cancel in the quadrature; only
                    # float rounding (~1e-18 in amplitude) survives
                    assert probs[k, l] <= 1e-30


def walked_sector_state(modes: int, photons: int, seed: int) -> ECSState:
    """m photons split over the modes with random per-mode phases: circle
    weight e^{-i m phi} on a 2 N m + 3 point grid, as in the phase walk."""
    grid = PhaseGrid(2 * modes * photons + 3)
    phis = grid.points
    walk = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, modes)
    weight = np.exp(-1j * photons * phis) / math.sqrt(poisson_pmf(float(photons), photons))
    amps = math.sqrt(photons / modes) * np.exp(1j * (phis[:, None] + walk[None, :]))
    return ECSState((grid,), weight, tuple(range(modes)), amps, ModeShape.uniform(modes, photons))


class TestSectorSynthesis:
    @pytest.mark.parametrize("modes,photons", [(1, 0), (1, 3), (3, 2), (4, 3), (11, 2)])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_dense_synthesis(self, modes, photons, seed):
        ecs = walked_sector_state(modes, photons, seed)
        dense = np.array(ecs_to_fock(ecs).amplitudes)
        occ = sector_occupations(modes, photons)
        sector = ecs_sector_amplitudes(ecs, occ)
        assert np.abs(sector - dense[tuple(occ.T)]).max() <= 1e-14
        dense[tuple(occ.T)] = 0.0
        assert np.sum(np.abs(dense) ** 2) <= 1e-24

    def test_blocked_evaluation_matches(self, monkeypatch):
        # tiny blocks: one sector tuple and 16 grid-table rows per block
        ecs = walked_sector_state(4, 3, 5)
        occ = sector_occupations(4, 3)
        whole = ecs_sector_amplitudes(ecs, occ)
        dense = ecs_to_fock(ecs).amplitudes
        monkeypatch.setattr(circle, "BLOCK_CELLS", 64)
        assert np.abs(ecs_sector_amplitudes(ecs, occ) - whole).max() <= 1e-15
        assert np.abs(ecs_to_fock(ecs).amplitudes - dense).max() <= 1e-15

    @pytest.mark.parametrize("block_cells", [circle.BLOCK_CELLS, 64])
    def test_stack_matches_each_table(self, monkeypatch, block_cells):
        # five walked tables on one grid, each read under its own weight and
        # under the first table's; with 64-cell blocks a block holds less
        # than one tuple across the stack
        states = [walked_sector_state(4, 3, seed) for seed in range(5)]
        occ = sector_occupations(4, 3)
        monkeypatch.setattr(circle, "BLOCK_CELLS", block_cells)
        other = 0.5j * states[0].weight
        weights = np.array([[s.weight, other] for s in states])
        stacked = sector_amplitude_stack(states[0], np.array([s.amplitudes for s in states]), weights, occ)
        assert stacked.shape == (5, 2, len(occ))
        for rows, ecs in zip(stacked, states):
            assert np.abs(rows[0] - ecs_sector_amplitudes(ecs, occ)).max() <= 1e-15
            assert np.abs(rows[1] - ecs_sector_amplitudes(dataclasses.replace(ecs, weight=other), occ)).max() <= 1e-15

    @pytest.mark.parametrize("modes,photons,seed", [(1, 3, 0), (3, 2, 4), (4, 3, 5), (11, 2, 1)])
    def test_weight_times_amplitude_lowers(self, modes, photons, seed):
        # b_l |alpha> = alpha_l |alpha>: the weight times alpha_l(phi), read on
        # the (m - 1)-photon tuples s, gives sqrt(s_l + 1) psi_{s + e_l} of the
        # dense synthesis
        ecs = walked_sector_state(modes, photons, seed)
        dense = ecs_to_fock(ecs).amplitudes
        below = sector_occupations(modes, photons - 1)
        lowered = sector_amplitude_stack(ecs, ecs.amplitudes[None], (ecs.weight * ecs.amplitudes.T)[None], below)[0]
        for l, row in enumerate(lowered):
            raised = below + np.eye(modes, dtype=int)[l]
            assert np.abs(row - np.sqrt(below[:, l] + 1.0) * dense[tuple(raised.T)]).max() <= 1e-14

    def test_stack_shape_rejected(self):
        ecs = walked_sector_state(3, 2, 1)
        occ = sector_occupations(3, 2)
        with pytest.raises(ValidationError, match="amplitude stack"):
            sector_amplitude_stack(ecs, ecs.amplitudes, ecs.weight[None, None], occ)
        for weights in (ecs.weight[None], ecs.weight[None, None, :-1], np.stack([ecs.weight[None]] * 2)):
            with pytest.raises(ValidationError, match="weights"):
                sector_amplitude_stack(ecs, ecs.amplitudes[None], weights, occ)

    @pytest.mark.parametrize("block_cells", [circle.BLOCK_CELLS, 64])
    def test_pair_factors_read_at_their_ladder(self, monkeypatch, block_cells):
        # every tuple of the dense basis, k != l included, where the pair
        # factor contributes 0
        ecs = pump_entangled_squeezed(3, 0.3 * np.exp(0.4j), pair_cutoff=4)
        dense = ecs_to_fock(ecs).amplitudes
        occ = np.indices(dense.shape).reshape(3, -1).T
        monkeypatch.setattr(circle, "BLOCK_CELLS", block_cells)
        assert np.abs(ecs_sector_amplitudes(ecs, occ) - dense.ravel()).max() <= 1e-15

    @pytest.mark.parametrize("occ", [[[3, 0, 0]], [[-1, 2, 0]], [[1, 1]]])
    def test_occupations_outside_shape_rejected(self, occ):
        with pytest.raises(ValidationError):
            ecs_sector_amplitudes(walked_sector_state(3, 2, 1), np.array(occ))


class TestConditionalWeight:
    def test_single_count_modulation(self):
        w = conditional_weight(1, 0, eps=0.2, n=5, grid=256)
        deltas, mag = delta_profile(w, points=512)
        assert abs(deltas[np.argmax(mag)]) <= math.pi / 512 * 1.5
        expected = profile_magnitude(1, 0, deltas)
        assert np.abs(mag - expected).max() <= 1e-12

    def test_magnitude_depends_only_on_delta(self):
        w = conditional_weight(3, 2, eps=0.3, n=6, grid=128)
        mag = conditional_table(w)
        rolled = np.roll(np.roll(mag, 5, axis=0), 5, axis=1)
        assert np.abs(mag - rolled).max() <= 1e-10

    def test_table_matches_analytic_modulation(self):
        A, B = 4, 1
        w = conditional_weight(A, B, eps=0.1, n=50, grid=256)
        phis = w.grid.points
        deltas = (phis[:, None] - phis[None, :]) / 2.0
        expected = profile_magnitude(A, B, deltas.ravel()).reshape(deltas.shape)
        got = conditional_table(w)
        got /= got.max()
        assert np.abs(got - expected).max() <= 1e-10

    def test_symmetry_under_delta_flip(self):
        w = conditional_weight(5, 2, eps=0.25, n=8, grid=128)
        mag = conditional_table(w)
        assert np.abs(mag - mag.T).max() <= 1e-12

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            conditional_weight(1, 1, eps=1.0, n=4)

    @pytest.mark.parametrize("A, B, grid", [
        (16, 4, 1000), (3, 0, 2), (0, 5, 2), (200, 7, 4096), (16, 4, 1024), (10**7, 3, 1024), (1, 1, 4), (64, 64, 4097),
    ])
    def test_row_blocks_keep_the_peak(self, monkeypatch, A, B, grid):
        whole = conditional_weight(A, B, eps=0.2, n=400, grid=grid).log_peak
        # where some grid point is nonzero the zero set at delta = pi moves no
        # peak: log_peak is the maximum of the whole row, bit for bit
        row = circle._log_weight_row(A, B, 0.2, 400, PhaseGrid(grid).points)
        assert math.isfinite(whole) and whole == float(row.max())
        monkeypatch.setattr(circle, "BLOCK_CELLS", 7)
        assert conditional_weight(A, B, eps=0.2, n=400, grid=grid).log_peak == whole

    @pytest.mark.parametrize("A, B", [(1, 1), (2, 1)])
    def test_field_zero_at_both_points_of_grid_two(self, A, B):
        # delta = 0 zeroes alpha_b and delta = pi alpha_a, where 1 + e^{i pi}
        # rounds to 1.2e-16i: the weight vanishes on the whole grid
        assert conditional_weight(A, B, eps=0.2, n=4, grid=2).log_peak == -math.inf

    @pytest.mark.parametrize("A, B", [(0, 3), (2, 3)])
    def test_profile_with_no_nonzero_point_is_zero(self, A, B):
        # the one point of a one-point profile is Delta = 0, where |sin Delta|^B = 0
        deltas, mag = delta_profile(conditional_weight(A, B, eps=0.2, n=4), points=1)
        assert deltas.tolist() == [0.0] and mag.tolist() == [0.0]

    @pytest.mark.parametrize("points", [0, -3])
    def test_profile_without_points_rejected_by_both_routes(self, points):
        with pytest.raises(ValidationError, match="points must be positive"):
            delta_profile(conditional_weight(1, 1, eps=0.2, n=4), points=points)
        traj = run_interference_trajectory(4, 0.1, 2, seed=0)[1]
        with pytest.raises(ValidationError, match="points must be positive"):
            traj.delta_profile(points)

    def test_equal_counts_peak_at_quarter_pi(self):
        w = conditional_weight(3, 3, eps=0.2, n=30, grid=512)
        deltas, mag = delta_profile(w, points=2048)
        peak = abs(deltas[np.argmax(mag)])
        assert peak == pytest.approx(math.pi / 4, abs=math.pi / 2048 * 2)

    def test_peak_prefactor_identity(self):
        # max of |cos|^A |sin|^B equals sqrt(A^A B^B / N^N)
        for A, B in [(3, 5), (10, 4)]:
            bar = peak_locations(A, B)[1]
            val = abs(math.cos(bar)) ** A * abs(math.sin(bar)) ** B
            N = A + B
            expected = math.sqrt(A**A * B**B / N**N)
            assert val == pytest.approx(expected, rel=1e-12)


class TestPeaksAndWidths:
    def test_peak_locations_cases(self):
        assert peak_locations(1, 1) == pytest.approx((-math.pi / 4, math.pi / 4))
        assert peak_locations(1, 0) == (0.0, 0.0)
        assert peak_locations(0, 1) == pytest.approx((-math.pi / 2, math.pi / 2))
        with pytest.raises(ValidationError):
            peak_locations(0, 0)

    def test_argmax_matches_formula(self):
        w = conditional_weight(4, 1, eps=0.1, n=50, grid=1024)
        deltas, mag = delta_profile(w, points=1024)
        peak = abs(deltas[np.argmax(mag)])
        assert peak == pytest.approx(math.atan(math.sqrt(1 / 4)), abs=math.pi / 1024 * 1.5)

    def test_width_scaling_constant(self):
        fit = width_fit(conditional_weight(64, 64, eps=0.2, n=400))
        assert fit.sigma == pytest.approx(math.sqrt(2.0 / 128.0), rel=0.10)
        assert fit.ok

    def test_width_ratio_between_count_levels(self):
        f16 = width_fit(conditional_weight(8, 8, eps=0.2, n=100))
        f256 = width_fit(conditional_weight(128, 128, eps=0.2, n=800))
        assert f16.sigma / f256.sigma == pytest.approx(4.0, rel=0.15)

    def test_small_count_fit_with_explicit_override(self):
        fit = width_fit(conditional_weight(4, 4, eps=0.2, n=40), min_counts=8)
        assert fit.sigma == pytest.approx(math.sqrt(2.0 / 8.0), rel=0.2)

    # 10^7 counts against 3 leave one point in the window; 10^15 against 0
    # leave two at +-x, one abscissa of x^2: neither fits a line or warns
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("A, B", [(10**7, 3), (10**15, 0)])
    def test_window_of_one_abscissa_unfitted(self, A, B):
        fit = width_fit(conditional_weight(A, B, eps=0.5, n=5))
        assert fit.sigma == math.inf and not fit.ok

    def test_low_count_regime_guarded(self):
        with pytest.raises(ValidationError):
            width_fit(conditional_weight(1, 1, eps=0.2, n=10))

    def test_large_count_gaussian_shape(self):
        # normalized |C| vs exp(-N x^2 / 4) in the full-difference variable x
        A = B = 64
        N = A + B
        center = peak_locations(A, B)[1]
        fit = width_fit(conditional_weight(A, B, eps=0.2, n=400))
        deltas = np.linspace(center - fit.sigma, center + fit.sigma, 401)
        mag = profile_magnitude(A, B, deltas)
        mag /= mag.max()
        x = 2.0 * (deltas - center)
        gauss = np.exp(-N * x**2 / 4.0)
        assert np.abs(mag - gauss).max() <= 0.05

    def test_width_fit_on_raw_profile(self):
        deltas = np.linspace(0.01, math.pi / 2 - 0.01, 2000)
        mag = profile_magnitude(20, 12, deltas)
        fit = width_fit((deltas, mag), A=20, B=12)
        assert fit.sigma == pytest.approx(math.sqrt(2.0 / 32.0), rel=0.12)
