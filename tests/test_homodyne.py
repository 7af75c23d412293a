import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

import ecsim.coupler as coupler_mod
import ecsim.homodyne as homodyne_mod
from ecsim.circle import ecs_apply_coupler, ecs_to_fock, two_mode_circle
from ecsim.coupler import CouplerParams, apply_coupler
from ecsim.errors import ValidationError
from ecsim.fock import (
    FockVector,
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    phase_shift,
    poisson_tail,
    tensor,
    vacuum,
)
from ecsim.homodyne import (
    SPLITTER_PHASE,
    HomodyneConfig,
    PhaseShiftProcess,
    homodyne_difference_stats,
    process_tomography_scan,
    quadrature_matrix,
)
from fock_counts import joint_count_distribution


def split_common_source(n: int, theta: float, cutoff: int | None = None) -> FockVector:
    """Dense reference for the circuit's first stage: |n) mixed with vacuum on
    the -pi/2 coupler; mode 0 is the local oscillator (amplitude fraction
    cos theta), mode 1 the pre-signal."""
    cut = n if cutoff is None else cutoff
    state = tensor(basis_state(ModeShape((cut,)), (n,)), vacuum(ModeShape((cut,))))
    return apply_coupler(state, (0, 1), CouplerParams(theta, SPLITTER_PHASE))


class TestSplitCommonSource:
    def test_vacuum_source(self):
        st = split_common_source(0, math.pi / 3, cutoff=2)
        assert st.probabilities()[(0, 0)] == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_amplitudes(self):
        st = split_common_source(1, math.pi / 3, cutoff=1)
        # cos(pi/3) on |1,0> and +i sin(pi/3) on |0,1> at phase -pi/2
        assert st.amplitudes[1, 0] == pytest.approx(0.5, abs=1e-12)
        assert st.amplitudes[0, 1] == pytest.approx(1j * math.sin(math.pi / 3), abs=1e-12)

    @pytest.mark.parametrize("n,theta", [(3, 0.4), (6, math.pi / 4)])
    def test_signal_marginal_is_binomial(self, n, theta):
        st = split_common_source(n, theta)
        dist = joint_count_distribution(st, (1,))
        expect = binom.pmf(np.arange(n + 1), n, math.sin(theta) ** 2)
        assert np.abs(dist.probabilities - expect).max() <= 1e-10

    def test_matches_circle_synthesis(self):
        n, theta = 4, 0.9
        params = CouplerParams(theta, -math.pi / 2)
        ecs = ecs_apply_coupler(two_mode_circle(n, 0, cutoffs=(n, n)), (0, 1), params)
        assert fidelity(ecs_to_fock(ecs), split_common_source(n, theta)) >= 1.0 - 1e-10


class TestQuadratureMatrix:
    def test_coherent_mean(self):
        alpha = 0.8 + 0.5j
        cutoff = 25
        st = coherent_amplitudes(alpha, cutoff).normalize()
        q = quadrature_matrix(0.0, cutoff)
        mean = np.real(st.amplitudes.conj() @ q @ st.amplitudes)
        tail = poisson_tail(abs(alpha) ** 2, cutoff - 1)
        assert mean == pytest.approx(math.sqrt(2) * alpha.real, abs=20 * math.sqrt(tail) + 1e-9)

    def test_coherent_variance_is_half(self):
        alpha = 1.1
        cutoff = 30
        st = coherent_amplitudes(alpha, cutoff).normalize()
        q = quadrature_matrix(0.3, cutoff)
        mean = np.real(st.amplitudes.conj() @ q @ st.amplitudes)
        second = np.real(st.amplitudes.conj() @ q @ q @ st.amplitudes)
        assert second - mean**2 == pytest.approx(0.5, abs=1e-8)

    def test_number_state_mean_zero(self):
        cutoff = 6
        q = quadrature_matrix(1.2, cutoff)
        for n in range(cutoff + 1):
            assert abs(q[n, n]) == 0.0

    def test_hermitian(self):
        q = quadrature_matrix(0.7, 9)
        assert np.abs(q - q.conj().T).max() <= 1e-15


class TestProcesses:
    def test_ecs_pointwise_process_agrees_with_fock(self):
        # the -pi/2 split then a phase on either branch, two routes
        n, theta, gamma = 4, 0.7, 1.1
        params = CouplerParams(theta, -math.pi / 2)
        for mode in (0, 1):
            ecs = ecs_apply_coupler(two_mode_circle(n, 0, cutoffs=(n, n)), (0, 1), params)
            shifted = ecs.amplitudes.copy()
            shifted[..., mode] *= np.exp(1j * gamma)
            ecs2 = dataclasses.replace(ecs, amplitudes=shifted)
            fock_route = phase_shift(split_common_source(n, theta), mode, gamma)
            assert fidelity(ecs_to_fock(ecs2), fock_route) >= 1.0 - 1e-10


class TestDifferenceStats:
    def test_vacuum_gives_zero_difference(self):
        stats = homodyne_difference_stats(HomodyneConfig(0, PhaseShiftProcess(0.3)))
        assert stats.probabilities[stats.values == 0][0] == pytest.approx(1.0, abs=1e-12)
        assert stats.mean == pytest.approx(0.0, abs=1e-12)

    def test_counts_conserve_source_photons(self):
        n = 5
        config = HomodyneConfig(n, PhaseShiftProcess(0.4))
        state = split_common_source(n, config.splitter_theta)
        state = phase_shift(state, 1, config.process.gamma)
        state = apply_coupler(state, (0, 1), CouplerParams(math.pi / 4, SPLITTER_PHASE))
        dist = joint_count_distribution(state.normalize())
        pushforward = np.zeros(2 * n + 1)
        for a in range(n + 1):
            for b in range(n + 1):
                if a + b != n:
                    assert dist.probabilities[a, b] <= 1e-24
                pushforward[a - b + n] += dist.probabilities[a, b]
        # the dense route and the sector route round differently, so they
        # agree to a few ulps rather than bit for bit
        assert np.abs(homodyne_difference_stats(config).probabilities - pushforward).max() <= 1e-15

    def test_matches_independent_photon_binomial(self):
        assert _binomial_deviation() <= 1e-12

    def test_binomial_check_catches_wrong_coupling_angle(self, monkeypatch):
        # mutation canary: the shared sector factorisation with its eigenvalues
        # scaled by 0.9 turns every coupler angle into 0.9 theta, still unitary
        coupler_mod.sector_spectrum.cache_clear()
        good = coupler_mod.sector_spectrum

        def scaled(N):
            spectrum = good(N)
            return coupler_mod.SectorSpectrum(0.9 * spectrum.eigenvalues, spectrum.eigenvectors)

        monkeypatch.setattr(coupler_mod, "sector_spectrum", scaled)
        assert _binomial_deviation() > 1e-3

    def test_identity_process_is_extremal(self):
        n = 6
        config = lambda g: HomodyneConfig(n, PhaseShiftProcess(g))
        mean0 = abs(homodyne_difference_stats(config(0.0)).mean)
        for g in np.linspace(0.2, math.pi, 9):
            assert abs(homodyne_difference_stats(config(g)).mean) <= mean0 + 1e-12

    def test_pi_phase_flips_sign(self):
        n = 4
        m0 = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(0.0))).mean
        mpi = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(math.pi))).mean
        assert mpi == pytest.approx(-m0, abs=1e-10)
        assert abs(m0) > 0.1

    def test_mean_is_sinusoidal_in_gamma(self):
        n = 5
        gammas = np.linspace(0.0, 2 * math.pi, 24, endpoint=False)
        means = np.array(
            [homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(g))).mean for g in gammas]
        )
        # residual of the best cosine fit, as a fraction of total power (R^2)
        c = np.fft.fft(means)
        recon = (c[0] + c[1] * np.exp(2j * math.pi * np.arange(24) / 24)
                 + c[-1] * np.exp(-2j * math.pi * np.arange(24) / 24)).real / 24
        ss_res = np.sum((means - recon) ** 2)
        ss_tot = np.sum((means - means.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot >= 0.99

    def test_gamma_flip_invariance(self):
        # with the -pi/2 mixer the response is even in gamma: the full
        # difference distribution is invariant under gamma -> -gamma
        n = 4
        plus = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(0.7)))
        minus = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(-0.7)))
        assert np.abs(plus.probabilities - minus.probabilities).max() <= 1e-10

    def test_detector_swap_pairs_with_reflected_gamma(self):
        # swapping the detectors mirrors the curve about gamma = pi/2:
        # P_{pi - gamma}(d) = P_gamma(-d)
        n = 4
        g = 0.7
        ref = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(math.pi - g)))
        direct = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(g)))
        assert np.abs(ref.probabilities - direct.probabilities[::-1]).max() <= 1e-10


class TestTomographyScan:
    GRID = np.linspace(0, 2 * math.pi, 24, endpoint=False)

    def test_scan_reads_no_sector(self, monkeypatch):
        # the scan maps each point's coherent amplitudes by 2 x 2 matrices:
        # no sector is factorised or read
        factorised, reads = counted_spectra(monkeypatch)
        process_tomography_scan(HomodyneConfig(37, PhaseShiftProcess(0.2)), self.GRID)
        assert factorised == [] and reads == []

    def test_scan_materialises_no_block(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a coupler block was formed")

        monkeypatch.setattr(coupler_mod, "BlockUnitary", refuse)
        process_tomography_scan(HomodyneConfig(37, PhaseShiftProcess(0.2)), self.GRID)

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_offset_recovery(self, offset):
        config = HomodyneConfig(5, PhaseShiftProcess(offset))
        grid = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        scan = process_tomography_scan(config, grid)
        assert _wrapped_distance(scan.recovered_offset, offset) <= 0.02

    def test_scan_matches_sector_route(self):
        # measured worst gaps: 1.1e-15 n in the mean (n = 200) and 5.6e-16 n^2
        # in the variance (n = 1; 3.7e-16 n^2 at n = 1000), so both bounds
        # leave 9-fold headroom
        mean_gap, variance_gap = _cross_route_gaps((1, 5, 40, 200, 1000, 2000))
        assert mean_gap <= 1e-14 and variance_gap <= 5e-15

    @pytest.mark.parametrize("mutation", ["flipped mixing sign", "coupling angle 0.9 theta", "dropped process phase"])
    def test_cross_route_check_catches(self, monkeypatch, mutation):
        # mutation canaries on the scan's route alone: the mean gaps read
        # 1.0 n, 0.19 n and 2.0 n. A conjugated, transposed or phi-negated
        # Heisenberg matrix is no canary: the response is even in gamma, so
        # the gaps stay at their unmutated 5.6e-16 n, and the commuting
        # diagram pins that convention instead
        good_matrix, good_probability = homodyne_mod.heisenberg_matrix, homodyne_mod._detector_a_probability

        def flipped(params):
            m = np.array(good_matrix(params))
            m[0, 1] = -m[0, 1]
            return m

        if mutation == "flipped mixing sign":
            monkeypatch.setattr(homodyne_mod, "heisenberg_matrix", flipped)
        elif mutation == "coupling angle 0.9 theta":
            scaled = lambda params: good_matrix(CouplerParams(0.9 * params.theta, params.phi))
            monkeypatch.setattr(homodyne_mod, "heisenberg_matrix", scaled)
        else:
            dropped = lambda theta, gammas: good_probability(theta, 0.0 * gammas)
            monkeypatch.setattr(homodyne_mod, "_detector_a_probability", dropped)
        mean_gap, variance_gap = _cross_route_gaps((1, 5, 40))
        assert mean_gap > 1e-2 or variance_gap > 1e-2

    def test_scan_memory_does_not_grow_with_points(self):
        # the scan holds a few (points,) arrays and nothing sized by n
        grid = 2 * math.pi * np.arange(4000) / 4000
        config = HomodyneConfig(100, PhaseShiftProcess(0.4))
        tracemalloc.start()
        try:
            process_tomography_scan(config, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"scan peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize(
        "n,theta,points",
        [
            (5, 0.0, 24),  # signal branch dark: sin 2 theta = 0
            (5, math.pi / 2, 24),  # oscillator branch dark: sin 2 theta = 1.2e-16
            (0, math.acos(0.95), 24),  # no photon to make a fringe
            (5, math.acos(0.95), 0),
            (5, math.acos(0.95), 1),
            (5, math.acos(0.95), 2),  # the first harmonic aliases onto the mean
        ],
    )
    def test_degenerate_scan_rejected(self, n, theta, points):
        grid = 2 * math.pi * np.arange(points) / points
        with pytest.raises(ValidationError):
            process_tomography_scan(HomodyneConfig(n, PhaseShiftProcess(1.0), theta), grid)

    def test_smallest_scan_recovers_offset(self):
        grid = 2 * math.pi * np.arange(3) / 3
        scan = process_tomography_scan(HomodyneConfig(1, PhaseShiftProcess(1.0)), grid)
        assert _wrapped_distance(scan.recovered_offset, 1.0) <= 1e-12

    def test_source_independence(self):
        offset = 0.45
        grid = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        r1 = process_tomography_scan(HomodyneConfig(4, PhaseShiftProcess(offset)), grid)
        r2 = process_tomography_scan(HomodyneConfig(8, PhaseShiftProcess(offset)), grid)
        assert _wrapped_distance(r1.recovered_offset, r2.recovered_offset) <= 0.02


def counted_spectra(monkeypatch):
    """From an empty spectrum cache on, the sectors factorised and the
    sectors read, in order."""
    coupler_mod.sector_spectrum.cache_clear()
    factorise, read = coupler_mod._factorise, coupler_mod.sector_spectrum
    factorised, reads = [], []

    def counted_factorise(N):
        factorised.append(N)
        return factorise(N)

    def counted_read(N):
        reads.append(N)
        return read(N)

    monkeypatch.setattr(coupler_mod, "_factorise", counted_factorise)
    monkeypatch.setattr(coupler_mod, "sector_spectrum", counted_read)
    return factorised, reads


def _cross_route_gaps(ns) -> tuple[float, float]:
    """Largest gaps between a 24-point scan and `homodyne_difference_stats`
    at each of its points, over the source numbers `ns` and three splitter
    angles: the mean's gap over n and the variance's gap over n^2."""
    grid = 2 * math.pi * np.arange(24) / 24
    mean_gap = variance_gap = 0.0
    for n in ns:
        for theta in (0.3, math.acos(0.95), math.pi / 4):
            scan = process_tomography_scan(HomodyneConfig(n, PhaseShiftProcess(0.3), theta), grid)
            alone = [homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(0.3 + g), theta)) for g in grid]
            # np.maximum keeps a NaN, which the bounds then refuse
            mean_gap = np.maximum(mean_gap, np.abs(scan.means - [s.mean for s in alone]).max() / n)
            variance_gap = np.maximum(variance_gap, np.abs(scan.variances - [s.variance for s in alone]).max() / n**2)
    return float(mean_gap), float(variance_gap)


def _binomial_deviation() -> float:
    """Largest gap between `homodyne_difference_stats` and a closed form that
    shares no code with the coupler: each source photon reaches detector A
    independently with p = (1 - sin 2 theta cos gamma) / 2, so
    P(A - B = 2a - n) = binom.pmf(a, n, p).

    The distribution does not see the coupler's phase convention: a dropped
    or negated phi, a transposed block or reversed rows leave it unchanged to
    about 2e-15. The commuting-diagram and coherent-covariance checks pin the
    convention instead."""
    worst = 0.0
    for n in (0, 1, 5, 40, 200):
        a = np.arange(n + 1)
        for theta in (0.3, math.acos(0.95), math.pi / 4):
            for gamma in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
                stats = homodyne_difference_stats(HomodyneConfig(n, PhaseShiftProcess(gamma), theta))
                p = (1.0 - math.sin(2 * theta) * math.cos(gamma)) / 2.0
                worst = max(worst, np.abs(stats.probabilities[2 * a] - binom.pmf(a, n, p)).max())
    return worst


def _wrapped_distance(a, b):
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)
