import math
import time
from itertools import product

import numpy as np
import pytest

from ecsim.circle import peak_locations, profile_magnitude, width_fit
from ecsim.coupler import CouplerParams, apply_coupler
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import (
    FockVector,
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    tensor,
)
from ecsim.measurement import (
    TrajectoryState,
    exact_trajectory_branch,
    fringe_scan,
    joint_count_distribution,
    project_counts,
    run_interference_trajectory,
    total_number_distribution,
    trajectory_branches,
)


class TestCountDistribution:
    def test_single_photon_deterministic(self):
        st = basis_state(ModeShape((2, 2)), (1, 0))
        dist = joint_count_distribution(st)
        assert dist.prob((1, 0)) == 1.0
        assert dist.total() == pytest.approx(1.0, abs=1e-12)

    def test_hong_ou_mandel_counts(self):
        st = apply_coupler(
            basis_state(ModeShape((2, 2)), (1, 1)), (0, 1), CouplerParams(math.pi / 4, 0.0)
        )
        dist = joint_count_distribution(st)
        assert dist.prob((2, 0)) == pytest.approx(0.5, abs=1e-12)
        assert dist.prob((0, 2)) == pytest.approx(0.5, abs=1e-12)
        assert dist.prob((1, 1)) <= 1e-12

    def test_coherent_outputs_product_poisson(self):
        alpha, beta = 0.9, 0.5j
        cutoff = 14
        st = apply_coupler(
            tensor(coherent_amplitudes(alpha, cutoff), coherent_amplitudes(beta, cutoff)),
            (0, 1),
            CouplerParams(math.pi / 4, 0.0),
        ).normalize()
        dist = joint_count_distribution(st)
        from ecsim.coupler import heisenberg_matrix
        from ecsim.fock import poisson_pmf

        ap, bp = heisenberg_matrix(CouplerParams(math.pi / 4, 0.0)) @ np.array([alpha, beta])
        expect = np.outer(
            poisson_pmf(abs(ap) ** 2, np.arange(cutoff + 1)),
            poisson_pmf(abs(bp) ** 2, np.arange(cutoff + 1)),
        )
        tv = 0.5 * np.abs(dist.probabilities - expect).sum()
        assert tv <= 1e-6

    def test_marginal_consistency(self):
        rng = np.random.default_rng(3)
        shape = ModeShape((2, 3, 2))
        amps = rng.normal(size=shape.dims) + 1j * rng.normal(size=shape.dims)
        st = FockVector(shape, amps).normalize()
        joint = joint_count_distribution(st, (0, 2))
        direct = joint_count_distribution(st, (2,))
        assert np.allclose(joint.marginal((1,)).probabilities, direct.probabilities, atol=1e-13)

    def test_unnormalized_rejected(self):
        st = FockVector(ModeShape((1,)), np.array([0.5, 0.0]))
        with pytest.raises(ValidationError):
            joint_count_distribution(st)


class TestProjectCounts:
    def test_trivial_projection(self):
        st = basis_state(ModeShape((2, 2)), (1, 0))
        rest, p = project_counts(st, (0,), (1,))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rest, basis_state(ModeShape((2,)), (0,))) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability_flagged(self):
        st = basis_state(ModeShape((2, 2)), (1, 0))
        rest, p = project_counts(st, (0,), (0,))
        assert rest is None and p == 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        shape = ModeShape((3, 2, 2))
        st = FockVector(shape, rng.normal(size=shape.dims) + 1j * rng.normal(size=shape.dims)).normalize()
        total = 0.0
        for c in range(4):
            _, p = project_counts(st, (0,), (c,))
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_match_with_distribution(self):
        rng = np.random.default_rng(8)
        shape = ModeShape((2, 2, 3))
        st = FockVector(shape, rng.normal(size=shape.dims) + 1j * rng.normal(size=shape.dims)).normalize()
        dist = joint_count_distribution(st, (0, 1))
        _, p = project_counts(st, (0, 1), (1, 0))
        assert p == pytest.approx(dist.prob((1, 0)), abs=1e-12)

    def test_residual_definite_total_number(self):
        # two cavities of 4 photons leak half their light; counting (1, 1) in
        # the outputs leaves exactly 6 photons split over cavities + nothing
        n, eps = 4, 0.5
        branch, p = exact_trajectory_branch(n, eps, [(1, 1)])
        assert p > 0
        tot = total_number_distribution(branch)
        assert tot[6] == pytest.approx(1.0, abs=1e-10)


class TestTrajectory:
    def test_zero_steps_uniform_weight(self):
        record, traj = run_interference_trajectory(3, 0.1, 0, seed=1)
        assert record.steps == ()
        table = traj.weight_table(32)
        assert np.abs(np.abs(table) - np.abs(table[0, 0])).max() <= 1e-12

    def test_record_reproducible(self):
        r1, _ = run_interference_trajectory(6, 0.1, 30, seed=42)
        r2, _ = run_interference_trajectory(6, 0.1, 30, seed=42)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_total_counts_bounded_by_photons(self):
        record, traj = run_interference_trajectory(4, 0.3, 40, seed=7)
        a, b = record.totals
        assert a + b <= 8
        assert traj.overflow_bound < 1e-10

    def test_weight_symmetric_in_delta(self):
        _, traj = run_interference_trajectory(5, 0.2, 25, seed=11)
        table = np.abs(traj.weight_table(64))
        assert np.abs(table - table.T).max() <= 1e-9 * table.max()

    def test_weight_modulus_matches_realized_counts(self):
        record, traj = run_interference_trajectory(8, 0.15, 60, seed=3)
        a, b = record.totals
        if a == 0 or b == 0:
            pytest.skip("degenerate draw")
        deltas, mag = traj.delta_profile(512)
        expect = profile_magnitude(a, b, deltas)
        assert np.abs(mag - expect).max() <= 1e-8

    def test_peaks_near_formula(self):
        record, traj = run_interference_trajectory(20, 0.05, 200, seed=5)
        a, b = record.totals
        deltas, mag = traj.delta_profile(2048)
        peak = abs(deltas[np.argmax(mag)])
        assert peak == pytest.approx(peak_locations(a, b)[1], abs=math.pi / 1024)

    def test_branch_probabilities_form_distribution(self):
        # chain rule over the first two steps of a small instance
        n, eps = 2, 0.4
        total = 0.0
        for a1, b1 in product(range(5), repeat=2):
            _, p = exact_trajectory_branch(n, eps, [(a1, b1)])
            total += p
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_mean_width_constant_over_seeds(self):
        # fitted sigma * sqrt(N) across 100 seeded runs sits near sqrt(2);
        # runs locked at the |cos| or |sin| boundary fit wider (their log
        # curvature is N, not 2N), which the upper band edge absorbs
        values = []
        for seed in range(100):
            record, traj = run_interference_trajectory(20, 0.05, 200, seed=seed)
            a, b = record.totals
            if a + b < 16:
                continue
            fit = width_fit(traj.delta_profile(2048), A=a, B=b)
            values.append(fit.sigma * math.sqrt(a + b))
        assert len(values) >= 95
        mean = sum(values) / len(values)
        assert 1.2 <= mean <= 1.7

    def test_width_shrinks_with_detections(self):
        # same seed, increasing step counts: cumulative counts grow and the
        # fitted peak width falls like 1/sqrt(N)
        sigmas = {}
        for steps in (12, 40, 200):
            record, traj = run_interference_trajectory(20, 0.05, steps, seed=9)
            a, b = record.totals
            if a + b >= 16:
                sigmas[a + b] = width_fit(traj.delta_profile(2048), A=a, B=b).sigma
        counts = sorted(sigmas)
        assert len(counts) >= 2 and counts[0] < counts[-1]
        for small, big in zip(counts, counts[1:]):
            assert sigmas[big] <= sigmas[small] * 1.05


    def test_steps_done_counts_executed_steps(self):
        # a run ended early by stop_after_detections reports the steps it ran
        record, traj = run_interference_trajectory(
            64, 0.03, 400, seed=1, stop_after_detections=100
        )
        assert len(record.steps) < 400
        assert traj.steps_done == len(record.steps)

    def test_large_n_runs_on_the_anti_diagonal(self):
        start = time.perf_counter()
        record, traj = run_interference_trajectory(2000, 0.01, 5, seed=0)
        assert time.perf_counter() - start < 10.0
        a, b = record.totals
        assert traj.remaining == 4000 - a - b
        assert traj.overflow_bound < 1e-10
        deltas, mag = traj.delta_profile(2048)
        expect = profile_magnitude(a, b, deltas)
        assert np.abs(mag - expect / expect.max()).max() <= 1e-8

    def test_shell_footprint_cap(self):
        # the cap is checked before the first step: at eps = 0.01 the deepest
        # shell of n = 5000 fits (189 x 10001 cells), that of n = 6000 does not
        _, traj = run_interference_trajectory(5000, 0.01, 0, seed=0)
        assert traj.weight.shape == (10001,)
        for n, eps in [(6000, 0.01), (10**6, 0.5)]:
            with pytest.raises(SizingError):
                run_interference_trajectory(n, eps, 1, seed=0)


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n,eps", [(1, 0.5), (2, 0.4), (3, 0.35)])
    def test_phase_matches_fock_over_branches(self, n, eps):
        # compare conditional states and probabilities over all two-step
        # branches with nonnegligible probability
        checked = 0
        for seq, p_phase, traj in trajectory_branches(n, eps, 2, floor=1e-8):
            fock_state, p_fock = exact_trajectory_branch(n, eps, seq)
            phase_state = traj.cavity_state()
            assert p_phase == pytest.approx(p_fock, abs=1e-12)
            if p_fock > 1e-10:
                assert fidelity(fock_state, phase_state) >= 1.0 - 1e-8
                checked += 1
        assert checked >= 5


class TestFringeScan:
    def test_uniform_weight_flat(self):
        _, traj = run_interference_trajectory(6, 0.1, 0, seed=0)
        scan = fringe_scan(traj, np.linspace(0, 2 * math.pi, 32))
        assert scan.visibility <= 0.01
        assert np.ptp(scan.intensity) <= 1e-10 * max(scan.intensity.max(), 1e-300)

    def test_delta_locked_weight_high_visibility(self):
        # weight concentrated at a single Delta, within one total-number
        # sector (remaining photons = n), like a fully collapsed branch
        n = 12
        dbar = 0.3
        weight = np.zeros(2 * n + 1, dtype=np.complex128)
        half = n // 2
        for d in range(-half, half + 1):
            f1 = -half - d  # f2 = -half + d, so f1 + f2 = -n
            weight[f1 + n] = np.exp(-0.02 * d * d) * np.exp(2j * d * dbar)
        traj = TrajectoryState(n, 0.1, weight, n, float(n), (0, 0), 0)
        scan = fringe_scan(traj, np.linspace(0, 2 * math.pi, 64))
        assert scan.visibility >= 1.0 - 2.0 / n

    def test_sinusoidal_curve(self):
        _, traj = run_interference_trajectory(8, 0.2, 10, seed=21)
        gammas = np.linspace(0, 2 * math.pi, 128, endpoint=False)
        scan = fringe_scan(traj, gammas, branch="positive")
        # exact sinusoid: residual of a single-harmonic fit is rounding-level
        c = np.fft.fft(scan.intensity)
        recon = (c[0] + c[1] * np.exp(2j * math.pi * np.arange(128) / 128)
                 + c[-1] * np.exp(-2j * math.pi * np.arange(128) / 128)) / 128
        assert np.abs(scan.intensity - recon.real).max() <= 1e-8 * np.abs(scan.intensity).max()

    def test_phase_locked_visibility_after_many_counts(self):
        # scan while the cavities still hold light: stop once 50 photons
        # have been counted out of 80
        _, traj = run_interference_trajectory(
            40, 0.05, 400, seed=13, stop_after_detections=50
        )
        scan = fringe_scan(traj, np.linspace(0, 2 * math.pi, 64), branch="positive")
        assert scan.visibility >= 0.9

    @pytest.mark.parametrize("n,eps,steps,seed", [(8, 0.2, 10, 21), (12, 0.05, 15, 4), (12, 0.1, 12, 4), (6, 0.3, 0, 2)])
    def test_positive_branch_matches_grid_reference(self, n, eps, steps, seed):
        _, traj = run_interference_trajectory(n, eps, steps, seed=seed)
        gammas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        scan = fringe_scan(traj, gammas, branch="positive")
        expect = _positive_fringe_on_grid(traj, gammas)
        assert np.abs(scan.intensity - expect).max() <= 1e-12 * np.abs(expect).max()


def _positive_fringe_on_grid(traj, gammas):
    """Positive-branch fringe from the M x M phase-pair grid: synthesize
    w(phi, phi') by direct summation, zero it outside Delta in (0, pi/2),
    take its 2-D Fourier coefficients and form the kernel sums of
    docs/trajectory_notes.md over the full coefficient table."""
    n, D = traj.n, traj.remaining
    M = max(256, 8 * n + 8)
    phis = 2.0 * math.pi * np.arange(M) / M
    f1 = np.arange(-n, n + 1)
    f2 = -D - f1
    table = np.einsum("f,if,jf->ij", traj.weight, np.exp(1j * np.outer(phis, f1)),
                      np.exp(1j * np.outer(phis, f2)))
    lag = (np.arange(M)[:, None] - np.arange(M)[None, :]) % M
    table = np.where((lag > 0) & (lag < M // 2), table, 0.0)
    coeffs = np.fft.fft2(table) / (M * M)
    F = M // 2 - 1
    j = np.arange(F + 1)
    W = coeffs[np.ix_(-j % M, -j % M)]  # W[j, j'] = w_hat(-j, -j')
    rho2 = traj.radius2
    lam = np.exp(-rho2 + j * math.log(rho2) - np.array([math.lgamma(k + 1.0) for k in j]))
    Wa = np.zeros_like(W)  # w_hat(-1-j, -j')
    Wa[:F] = W[1:]
    Wb = np.zeros_like(W)  # w_hat(-j, -1-j')
    Wb[:, :F] = W[:, 1:]
    norm = lam @ np.abs(W) ** 2 @ lam
    t_dc = lam @ np.abs(Wa) ** 2 @ lam + lam @ np.abs(Wb) ** 2 @ lam
    s1 = lam @ (Wb * np.conj(Wa)) @ lam
    return (rho2 / 2.0) * (t_dc + 2.0 * np.real(np.exp(1j * gammas) * s1)) / norm
