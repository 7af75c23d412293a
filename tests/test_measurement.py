import builtins
import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest

from ecsim import coupler, measurement, verify
from ecsim.circle import peak_locations, profile_magnitude, width_fit
from ecsim.coupler import CouplerParams, apply_coupler, heisenberg_matrix
from ecsim.errors import NumericsError, SizingError, ValidationError
from ecsim.fock import (
    FockVector,
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    phase_shift,
    tensor,
    vacuum,
)
from ecsim.measurement import (
    FRINGE_BRANCHES,
    TrajectoryState,
    fringe_scan,
    run_interference_trajectory,
)
from ecsim.verify import check_trajectory_brute_force
from fock_counts import joint_count_distribution, total_number_distribution
from fock_helpers import (
    collapsed_weight,
    embed,
    exact_trajectory_branches,
    project_counts,
    trajectory_branches,
    weight_table,
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
        branch, p = exact_trajectory_branches(n, eps, [[(1, 1)]])[((1, 1),)]
        assert p > 0
        tot = total_number_distribution(branch)
        assert tot[6] == pytest.approx(1.0, abs=1e-10)


class TestTrajectory:
    def test_zero_steps_uniform_weight(self):
        record, traj = run_interference_trajectory(3, 0.1, 0, seed=1)
        assert record.steps == ()
        table = weight_table(traj, 32)
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
        table = np.abs(weight_table(traj, 64))
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
        branches = [((a1, b1),) for a1, b1 in product(range(5), repeat=2)]
        fock = exact_trajectory_branches(n, eps, branches)
        total = 0.0
        for seq in branches:
            total += fock[seq][1]
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


def _choice_run(n, eps, steps, seed, stop_after_detections=None):
    """The trajectory as a plain loop: every step enumerated in full by
    `_step` and drawn by numpy's own `Generator.choice`. Returns the
    (counts, probability) records and the final weight."""
    v = measurement._start(n, eps)
    rng = np.random.default_rng(seed)
    remaining, r2, records = 2 * n, float(n), []
    for _ in range(steps):
        probs, _, rows = measurement._step(v, n, remaining, r2, eps)
        pick = int(rng.choice(len(probs), p=probs / probs.sum()))
        a, b = measurement._pair(pick)
        v = measurement._collapse(rows[pick], n, probs[pick])
        remaining -= a + b
        r2 *= 1.0 - eps
        records.append(((a, b), float(probs[pick])))
        if stop_after_detections is not None and 2 * n - remaining >= stop_after_detections:
            break
    return records, v


class TestStepSampler:
    """The sampler reads shells only up to the drawn one, in one inverse-CDF
    pass; it can differ from `Generator.choice` on the full enumeration only
    where the draw lies within rounding of an outcome edge, which none of
    these seeded runs meets."""

    def assert_same_run(self, n, eps, steps, seed, stop_after_detections=None):
        record, traj = run_interference_trajectory(n, eps, steps, seed, stop_after_detections)
        records, weight = _choice_run(n, eps, steps, seed, stop_after_detections)
        assert [(s.counts, s.probability) for s in record.steps] == records
        assert traj.weight.tobytes() == weight.tobytes()
        assert traj.overflow_bound < 1e-10
        return len(records)

    def test_criterion_six_seeds_match_full_enumeration(self):
        # criterion 6's runs, whose configuration the benchmark's shallow runs share
        for seed in range(100):
            self.assert_same_run(20, 0.05, 200, seed)

    def test_deep_bench_config_matches_full_enumeration(self):
        for seed in (0, 1, 7, 2024):
            self.assert_same_run(64, 0.03, 400, seed, stop_after_detections=100)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
    def test_coarse_steps_match_full_enumeration(self, eps):
        for n, seed in [(3, 1), (8, 2), (30, 3)]:
            self.assert_same_run(n, eps, 40, seed)

    def test_large_n_matches_full_enumeration(self):
        self.assert_same_run(2000, 0.01, 5, seed=0)

    def test_draw_past_every_outcome_picks_a_possible_one(self, monkeypatch):
        # probabilities 1e-11 short stay inside the shells' binomial check, so
        # the last uniform draw below one lies past every outcome read; the
        # far tail, set to 0, makes the last outcomes read impossible ones
        good = measurement._quadform

        def short(*args):
            p = good(*args) * (1.0 - 1e-11)
            return np.where(p < 1e-20, 0.0, p)

        monkeypatch.setattr(measurement, "_quadform", short)
        u = np.nextafter(1.0, 0.0)
        for n, eps in [(20, 0.05), (64, 0.03), (8, 0.4), (0, 0.3)]:
            v, r2 = measurement._start(n, eps), float(n)
            probs, _, _ = measurement._step(v, n, 2 * n, r2, eps)
            assert probs.sum() < u
            pick, p, worst, row = measurement._draw(v, n, 2 * n, r2, eps, u)
            assert p == probs[pick] > 0.0 and worst < 1e-10
            assert np.isfinite(measurement._collapse(row, n, p)).all()

    def test_scaled_probabilities_raise(self, monkeypatch):
        # probabilities 1e-7 too large still leave no unenumerated tail; the
        # per-shell binomial check catches them
        good = measurement._quadform
        monkeypatch.setattr(measurement, "_quadform", lambda *args: good(*args) * (1.0 + 1e-7))
        with pytest.raises(NumericsError, match="binomial weight"):
            run_interference_trajectory(20, 0.05, 200, seed=0)

    def test_lost_precision_raises(self):
        # at a mean count of 120 per step the deep shells' rounding swamps
        # them: the first step's probabilities sum to 1.15, which a check on
        # the leftover mass alone passes
        with pytest.raises(NumericsError, match="binomial weight"):
            run_interference_trajectory(200, 0.3, 5, seed=0)
        with pytest.raises(NumericsError, match="binomial weight"):
            list(trajectory_branches(200, 0.3, 1, floor=1e-6))


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n,eps", [(1, 0.5), (2, 0.4), (3, 0.35)])
    def test_phase_matches_fock_over_branches(self, n, eps):
        # compare conditional states and probabilities over all two-step
        # branches with nonnegligible probability
        checked = 0
        branches = list(trajectory_branches(n, eps, 2, floor=1e-8))
        fock = exact_trajectory_branches(n, eps, [seq for seq, _, _ in branches])
        for seq, p_phase, traj in branches:
            fock_state, p_fock = fock[seq]
            phase_state = traj.cavity_state()
            assert p_phase == pytest.approx(p_fock, abs=1e-12)
            if p_fock > 1e-10:
                assert fidelity(fock_state, phase_state) >= 1.0 - 1e-8
                checked += 1
        assert checked >= 5


class TestDeeperBruteForce:
    def test_four_steps_match_fock(self):
        # criterion 7's bounds, one step deeper than criterion 7 and verify go
        worst_fid = worst_dp = 0.0
        coverage = []
        for n, eps, floor in [(1, 0.5, 1e-10), (2, 0.4, 1e-9), (3, 0.4, 1e-8)]:
            total = 0.0
            branches = list(trajectory_branches(n, eps, 4, floor))
            fock = exact_trajectory_branches(n, eps, [seq for seq, _, _ in branches])
            for seq, p_phase, traj in branches:
                fock_state, p_fock = fock[seq]
                worst_dp = max(worst_dp, abs(p_fock - p_phase))
                total += p_fock
                if p_fock > 1e-9:
                    worst_fid = max(worst_fid, 1.0 - fidelity(fock_state, traj.cavity_state()))
            coverage.append(total)
        assert worst_fid <= 1e-8
        assert worst_dp <= 1e-12
        assert min(coverage) >= 1.0 - 1e-6


class TestSectorAmplitudes:
    """`cavity_state` is `sector_amplitudes` in a dense array, normalised by
    that array's norm, bit for bit: the state `cavity_state.json` records."""

    @staticmethod
    def check(traj):
        n, D = traj.n, traj.remaining
        k, sector = measurement.sector_amplitudes(n, D, traj.weight)
        assert k.tolist() == list(range(max(0, D - n), min(D, n) + 1))
        dense = np.zeros((n + 1, n + 1), dtype=np.complex128)
        dense[k, D - k] = sector
        state = traj.cavity_state().amplitudes
        assert state[k, D - k].tobytes() == (sector / np.linalg.norm(dense)).tobytes()
        outside = state.copy()
        outside[k, D - k] = 0.0
        assert not outside.any()

    @pytest.mark.parametrize("n,eps,steps,stop", [(2, 0.3, 5, None), (20, 0.05, 200, None), (64, 0.03, 400, 100)])
    def test_seeded_runs(self, n, eps, steps, stop):
        for seed in range(5):
            self.check(run_interference_trajectory(n, eps, steps, seed, stop_after_detections=stop)[1])

    def test_branch_leaves(self):
        for n in (1, 2, 3, 4):
            for _, _, traj in trajectory_branches(n, 0.4, 3, floor=1e-6):
                self.check(traj)


class TestWalkerMatchesSampler:
    """The level walker stacks branches that the sampler steps one at a
    time, both collapsing onto the rows `_shells` builds: a seeded run whose
    outcomes the walker keeps must end on that leaf's numbers, bit for bit."""

    def test_seeded_runs_land_on_their_leaves(self):
        matched = 0
        for n in (1, 2, 3, 4):
            leaves = {seq: (p, traj) for seq, p, traj in trajectory_branches(n, 0.4, 3, floor=1e-6)}
            for seed in range(60):
                record, run = run_interference_trajectory(n, 0.4, 3, seed)
                seq = tuple(s.counts for s in record.steps)
                if seq not in leaves:
                    continue
                p, traj = leaves[seq]
                product = 1.0
                for step in record.steps:
                    product *= step.probability
                assert product == p
                assert run.weight.tobytes() == traj.weight.tobytes()
                assert (run.remaining, run.radius2, run.counts) == (traj.remaining, traj.radius2, traj.counts)
                matched += 1
        assert matched >= 200

    def test_floor_must_be_positive(self):
        # a stacked step pads each row's unread outcomes with 0, which only a
        # positive floor prunes
        with pytest.raises(ValidationError, match="floor"):
            list(trajectory_branches(2, 0.4, 1, floor=0.0))


class TestCollapseReference:
    """Every weight the sampler and the walker step to equals, by value, the
    detection recursion of `fock_helpers.collapsed_weight` applied to the
    weight before the step with the counts and probability drawn. Padding
    writes +0.0 where the recursion can leave -0.0, so bytes may differ."""

    @staticmethod
    def sampled_steps(monkeypatch, n, eps, steps, seed, stop=None):
        """(weight, radius^2) before each step of a seeded run, the run's
        steps and its final weight."""
        seen, good = [], measurement._draw

        def draw(v, n, remaining, r2, eps, u):
            seen.append((v, r2))
            return good(v, n, remaining, r2, eps, u)

        monkeypatch.setattr(measurement, "_draw", draw)
        record, traj = run_interference_trajectory(n, eps, steps, seed, stop_after_detections=stop)
        return seen, record.steps, traj.weight

    @pytest.mark.parametrize(
        "n,eps,steps,seeds,stop",
        [(20, 0.05, 200, range(10), None), (64, 0.03, 400, (0, 1, 7, 2024), 100), (2000, 0.01, 5, (0,), None)],
    )
    def test_sampler_steps_match_the_recursion(self, monkeypatch, n, eps, steps, seeds, stop):
        for seed in seeds:
            seen, records, final = self.sampled_steps(monkeypatch, n, eps, steps, seed, stop)
            after = [v for v, _ in seen[1:]] + [final]
            assert len(after) == len(records) > 0
            for (v, r2), step, nxt in zip(seen, records, after):
                assert np.array_equal(nxt, collapsed_weight(v, r2, eps, *step.counts, step.probability))

    def test_walker_leaves_match_the_recursion(self):
        eps, depth, checked = 0.4, 3, 0
        for n in (1, 2, 3, 4):
            leaves = measurement.trajectory_leaves(n, eps, depth, floor=1e-6)
            weights = {(): measurement._start(n, eps)}  # by outcome prefix
            for path, weight in zip(leaves.outcomes.tolist(), leaves.weights):
                r2 = float(n)
                for level, (a, b) in enumerate(path):
                    prefix = tuple(map(tuple, path[: level + 1]))
                    if prefix not in weights:
                        v = weights[prefix[:-1]]
                        remaining = 2 * n - sum(map(sum, prefix[:-1]))
                        probs = measurement._step(v, n, remaining, r2, eps)[0]
                        p = float(probs[(a + b) * (a + b + 1) // 2 + b])  # (a, b) in `_pair` order
                        weights[prefix] = collapsed_weight(v, r2, eps, a, b, p)
                    r2 *= 1.0 - eps
                assert np.array_equal(weight, weights[tuple(map(tuple, path))])
                checked += 1
        assert checked == 3172  # the leaves `check_trajectory_brute_force(4, 3)` compares


class TestBruteForceMutations:
    """The brute-force check must fail when either route it compares is
    corrupted: the phase-route kernel or the coupler under the Fock oracle."""

    def test_swapped_collapse_counts_detected(self, monkeypatch):
        # each outcome (a, b) keeps its probability but collapses onto the row of (b, a)
        good = measurement._shells
        monkeypatch.setattr(
            measurement, "_shells", lambda *args: ((p, d, shell[..., ::-1, :]) for p, d, shell in good(*args))
        )
        assert not check_trajectory_brute_force(2, 2).passed

    def test_flipped_detector_sign_detected(self, monkeypatch):
        good = measurement._times
        monkeypatch.setattr(measurement, "_times", lambda u, sign: good(u, -sign))
        assert not check_trajectory_brute_force(2, 2).passed

    def test_corrupted_coupler_detected(self, monkeypatch):
        # negated eigenvalues: every coupler the inverse rotation U(-theta)
        coupler.sector_spectrum.cache_clear()
        good = coupler.sector_spectrum
        monkeypatch.setattr(
            coupler, "sector_spectrum", lambda N: coupler.SectorSpectrum(-good(N).eigenvalues, good(N).eigenvectors)
        )
        assert not check_trajectory_brute_force(2, 2).passed

    def test_oracle_amplitude_outside_the_sector_detected(self, monkeypatch):
        # the check reads the oracle on the phase route's sector only, but
        # divides by the oracle's full norm
        good = verify.exact_trajectory_leaves

        def leaky(n, eps, outcomes):
            states, probs = good(n, eps, outcomes)
            states = states.copy()
            for leaf, D in enumerate((2 * n - outcomes.sum(axis=(1, 2))).tolist()):
                states[leaf][(0, 1) if D == 0 else (0, 0)] += 1e-3
            return states, probs

        monkeypatch.setattr(verify, "exact_trajectory_leaves", leaky)
        assert not check_trajectory_brute_force(2, 2).passed


class TestBruteForceCoverage:
    def test_check_compares_every_leaf(self, monkeypatch):
        # the oracle is asked for exactly the walker's leaves, in leaf order,
        # and every leaf's state takes part in one fidelity comparison
        asked, compared = [], []
        good, fidelities = verify.exact_trajectory_leaves, verify.vector_fidelity

        def spy(n, eps, outcomes):
            asked.append((n, outcomes))
            return good(n, eps, outcomes)

        def counted(a, b):
            compared.append(len(a))
            return fidelities(a, b)

        monkeypatch.setattr(verify, "exact_trajectory_leaves", spy)
        monkeypatch.setattr(verify, "vector_fidelity", counted)
        assert check_trajectory_brute_force(4, 3).passed
        assert [n for n, _ in asked] == [1, 2, 3, 4]
        total = 0
        for n, outcomes in asked:
            walked = [seq for seq, _, _ in trajectory_branches(n, 0.4, 3, floor=1e-6)]
            assert outcomes.tolist() == [[list(pair) for pair in seq] for seq in walked]
            total += len(walked)
        assert total == sum(compared) == 3172


def _kraus_completeness_defect(n, eps):
    """max |sum_ab K_ab^dag K_ab - I| over the cavity space, K_ab read from
    the detection step's table as K[ab][out, in]."""
    cav = (n + 1) ** 2
    K = measurement._detection_kraus(n, eps).reshape(cav, cav, -1).transpose(2, 1, 0)
    return np.abs(np.einsum("kij,kil->jl", K.conj(), K) - np.eye(cav)).max()


class TestDetectionKraus:
    @pytest.mark.parametrize("eps", [0.35, 0.4, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_complete_on_cavity_space(self, n, eps):
        assert _kraus_completeness_defect(n, eps) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_output_cutoff_n_breaks_completeness(self, monkeypatch, n):
        # output modes cut at n instead of 2n truncate the 50/50 coupler's
        # sectors above n photons, so the step loses probability
        truncated = lambda cutoffs: ModeShape(tuple(min(c, n) for c in cutoffs))
        monkeypatch.setattr(measurement, "ModeShape", truncated)
        assert _kraus_completeness_defect(n, 0.4) > 1e-13


def _oracle_uncached(n, eps, outcomes):
    """The Fock oracle for one branch, without a prefix tree: the whole dense
    prefix is rebuilt for the one branch."""
    theta = math.acos(math.sqrt(1.0 - eps))
    cav = tensor(basis_state(ModeShape((n,)), (n,)), basis_state(ModeShape((n,)), (n,)))
    prob, remaining = 1.0, 2 * n
    for a, b in outcomes:
        if a > remaining or b > remaining:
            return None, 0.0
        out = vacuum(ModeShape((remaining,)))
        psi = tensor(tensor(cav, out), out)
        psi = apply_coupler(psi, (0, 2), CouplerParams(theta, 0.0))
        psi = apply_coupler(psi, (1, 3), CouplerParams(theta, 0.0))
        psi = apply_coupler(psi, (2, 3), CouplerParams(math.pi / 4, 0.0))
        cav, p = project_counts(psi, (2, 3), (a, b))
        if cav is None:
            return None, 0.0
        prob, remaining = prob * p, remaining - a - b
    return cav, prob


class TestOracleTree:
    N, EPS = 3, 0.4
    # the Kraus-table walk against the per-branch dense pipeline: at N = 3,
    # eps = 0.4, depth 3 the gaps measure 1.6e-15 relative in probability and
    # 6.6e-16 in amplitude; the bounds are about 100 times those
    P_RTOL, AMP_TOL = 2e-13, 7e-14

    def test_any_order_matches_single_branch_oracle(self):
        # bit for bit, whatever the order of the list, with duplicates and with
        # a prefix asked for next to its extension; and within rounding of the
        # single-branch oracle
        branches = [seq for seq, _, _ in trajectory_branches(self.N, self.EPS, 3, floor=1e-8)]
        first = exact_trajectory_branches(self.N, self.EPS, branches)
        for seq, (state, p) in first.items():
            state_ref, p_ref = _oracle_uncached(self.N, self.EPS, seq)
            assert abs(p - p_ref) <= self.P_RTOL * p_ref
            assert state.shape == state_ref.shape
            assert np.abs(state.amplitudes - state_ref.amplitudes).max() <= self.AMP_TOL
        shuffled = list(branches)
        np.random.default_rng(4).shuffle(shuffled)
        with_prefixes = [part for seq in branches[::5] for part in (seq[:2], seq)]
        orders = [branches[::-1], shuffled, branches + branches[::7], with_prefixes]
        for order in orders:
            got = exact_trajectory_branches(self.N, self.EPS, order)
            assert set(got) == {seq[:depth] for seq in order for depth in range(len(seq) + 1)}
            for seq, (state, p) in got.items():
                state_first, p_first = first[seq]
                assert p == p_first
                assert np.array_equal(state.amplitudes, state_first.amplitudes)

    def test_impossible_outcomes_and_descendants_return_none(self):
        n = 2
        dead = [
            ((2, 1), (0, 2)),  # more counts than the one photon left
            ((2, 1), (0, 2), (0, 0)),
            ((5, 0),),
            ((5, 0), (0, 0)),
            ((2, 1), (1, 1)),  # one photon left, one count at each detector
            ((2, 1), (1, 1), (0, 0)),
        ]
        got = exact_trajectory_branches(n, self.EPS, dead)
        for seq in dead:
            assert got[seq] == (None, 0.0)
        state, p = got[((2, 1),)]
        state_ref, p_ref = _oracle_uncached(n, self.EPS, [(2, 1)])
        assert p > 0.0 and abs(p - p_ref) <= self.P_RTOL * p_ref
        assert np.abs(state.amplitudes - state_ref.amplitudes).max() <= self.AMP_TOL

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            exact_trajectory_branches(2, self.EPS, [((1, -1),)])

    @pytest.mark.parametrize("outcomes", [np.zeros((3, 2), dtype=np.int64), np.zeros((3, 1, 2)), np.zeros((3, 1, 3), dtype=np.int64)])
    def test_outcomes_must_be_a_leaves_depth_pair_integer_array(self, outcomes):
        with pytest.raises(ValidationError, match="integer array"):
            measurement.exact_trajectory_leaves(2, self.EPS, outcomes)

    def test_concurrent_calls_match_serial(self):
        # the oracle keeps no state between calls, so threads cannot corrupt
        # each other's branches
        def oracle(n, eps):
            seqs = [seq for seq, _, _ in trajectory_branches(n, eps, 3, floor=1e-6)]
            return {seq: (p, None if state is None else state.amplitudes.tobytes())
                    for seq, (state, p) in exact_trajectory_branches(n, eps, seqs).items()}

        jobs = [
            (check_trajectory_brute_force, (3, 3)),
            (check_trajectory_brute_force, (3, 3)),
            (oracle, (3, 0.4)),
            (oracle, (2, 0.3)),
        ]
        serial = [fn(*args) for fn, args in jobs]
        assert serial[0].passed
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                for first in (0, 2):
                    futures = [pool.submit(fn, *args) for fn, args in jobs[first : first + 2]]
                    assert [future.result(timeout=120) for future in futures] == serial[first : first + 2]
        finally:
            sys.setswitchinterval(interval)


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

    def test_visibility_rounded_past_one_reads_one(self):
        # D = 1: 2 |S| / D rounds to 1.0000000000000002 on the positive branch
        _, traj = run_interference_trajectory(8, 0.2, 10, seed=21)
        assert traj.remaining == 1
        assert fringe_scan(traj, np.zeros(1), branch="positive").visibility == 1.0

    def test_visibility_past_one_beyond_rounding_refused(self, monkeypatch):
        # S scaled past D / 2 by 1e-9, which no rounding explains
        _, traj = run_interference_trajectory(8, 0.2, 10, seed=21)
        monkeypatch.setattr(measurement, "complex", lambda value: (1.0 + 1e-9) * builtins.complex(value), raising=False)
        with pytest.raises(NumericsError, match="exceeds 1"):
            fringe_scan(traj, np.zeros(1), branch="positive")

    def test_phase_locked_visibility_after_many_counts(self):
        # scan while the cavities still hold light: stop once 50 photons
        # have been counted out of 80
        _, traj = run_interference_trajectory(
            40, 0.05, 400, seed=13, stop_after_detections=50
        )
        scan = fringe_scan(traj, np.linspace(0, 2 * math.pi, 64), branch="positive")
        assert scan.visibility >= 0.9

    def test_every_photon_detected(self):
        # the run counts all four photons: the cavities are left in |0, 0>
        # and the detector sees exactly nothing on either branch
        record, traj = run_interference_trajectory(2, 0.9, 20, seed=3)
        assert record.totals == (4, 0) and traj.remaining == 0
        gammas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        for branch in FRINGE_BRANCHES:
            scan = fringe_scan(traj, gammas, branch=branch)
            assert np.all(scan.intensity == 0.0) and scan.visibility == 0.0
        state = traj.cavity_state()
        assert state.norm2 == pytest.approx(1.0, abs=1e-15)
        assert abs(state.amplitudes[0, 0]) == pytest.approx(1.0, abs=1e-15)

    # the configs of the earlier sampled-mask test, an early and a coarse run,
    # D = 0, and the benchmark's deep trajectory config
    @pytest.mark.parametrize("n,eps,steps,seed,stop", [
        (8, 0.2, 10, 21, None), (12, 0.05, 15, 4, None), (12, 0.1, 12, 4, None), (6, 0.3, 0, 2, None),
        (20, 0.05, 40, 2, None), (4, 0.3, 3, 0, None), (2, 0.9, 20, 3, None), (64, 0.03, 400, 0, 100),
    ])
    def test_positive_branch_matches_quadrature(self, n, eps, steps, seed, stop):
        _, traj = run_interference_trajectory(n, eps, steps, seed=seed, stop_after_detections=stop)
        gammas = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        scan = fringe_scan(traj, gammas, branch="positive")
        expect = _positive_fringe_by_quadrature(traj, gammas)
        assert np.abs(scan.intensity - expect).max() <= 1e-12 * np.abs(expect).max()

    # D = 0, 7 > n = 6, 1, 7 and 29 photons left
    @pytest.mark.parametrize("n,eps,steps,seed", [(2, 0.9, 20, 3), (6, 0.1, 3, 5), (8, 0.2, 10, 21), (12, 0.05, 15, 4), (20, 0.05, 5, 7)])
    def test_full_branch_matches_dense_fock_route(self, n, eps, steps, seed):
        # the exported cavity state through the dense route: cavity B takes
        # e^{i gamma n_B}, then a 50/50 coupler whose Heisenberg matrix has
        # first row (1, 1) / sqrt(2), so that mode 0 counts (a + e^{i gamma} b) / sqrt(2)
        _, traj = run_interference_trajectory(n, eps, steps, seed=seed)
        D = traj.remaining
        params = CouplerParams(math.pi / 4, 0.0)
        assert np.abs(heisenberg_matrix(params)[0] - math.sqrt(0.5)).max() <= 1e-15
        c = max(n, D)  # sector D fits both cutoffs, so the coupler truncates nothing
        state = embed(traj.cavity_state(), ModeShape((c, c)))
        gammas = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        dense = []
        for gamma in gammas:
            out = apply_coupler(phase_shift(state, 1, gamma), (0, 1), params)
            dense.append(float(np.arange(c + 1) @ np.sum(np.abs(out.amplitudes) ** 2, axis=1)))
        scan = fringe_scan(traj, gammas)
        assert np.abs(scan.intensity - dense).max() <= 1e-12 * D

    def test_fringe_reads_no_radius(self):
        # the benchmark's deep trajectory config at seed 7, 28 photons left:
        # the coherent radius only scales the state, and the scan reads none
        _, traj = run_interference_trajectory(64, 0.03, 400, seed=7, stop_after_detections=100)
        assert traj.remaining == 28
        gammas = 2.0 * math.pi * np.arange(64) / 64
        tiny = dataclasses.replace(traj, radius2=1e-30)
        for branch in FRINGE_BRANCHES:
            scan, other = fringe_scan(traj, gammas, branch=branch), fringe_scan(tiny, gammas, branch=branch)
            assert scan.intensity.tobytes() == other.intensity.tobytes() and scan.visibility == other.visibility


def _positive_fringe_by_quadrature(traj, gammas):
    """Positive-branch fringe from the continuous mask: the coefficients
    u_j = (1 / 2 pi) int_0^pi h(psi) e^{i j psi} dpsi of the weight kept on
    Delta = psi / 2 in (0, pi/2), h(psi) = sum_f1 weight[f1 + n] e^{i f1 psi},
    by Gauss-Legendre quadrature, then the kernel sums of
    docs/trajectory_notes.md in lambda_j at the run's radius."""
    n, D, rho2 = traj.n, traj.remaining, traj.radius2
    x, w = np.polynomial.legendre.leggauss(3 * (2 * n + D) + 200)
    psis, w = math.pi * (x + 1.0) / 2.0, math.pi * w / 2.0
    h = np.exp(1j * np.outer(psis, np.arange(-n, n + 1))) @ traj.weight
    j = np.arange(D + 1)
    u = (w * h) @ np.exp(1j * np.outer(psis, j)) / (2.0 * math.pi)
    lam = np.exp(j * math.log(rho2) - rho2 - np.array([math.lgamma(k + 1.0) for k in j]))
    norm = np.sum(lam * lam[::-1] * np.abs(u) ** 2)
    s = rho2 * np.sum(lam[:-1] * lam[-2::-1] * u[:-1] * np.conj(u[1:])) / norm
    return D / 2.0 + np.real(np.exp(1j * gammas) * s)
