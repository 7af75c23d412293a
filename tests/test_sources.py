import math

import numpy as np
import pytest

from ecsim.coupler import CouplerParams
from ecsim.errors import ValidationError
from ecsim.fock import (
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    lowering_matrix,
    poisson_pmf,
    to_density,
    twirl,
)
from ecsim import sources
from ecsim.circle import ECSState, PhaseGrid, ecs_to_fock, number_state_on_circle, two_mode_circle
from ecsim.fock import sector_occupations
from ecsim.sources import (
    LaserSpec,
    PhaseWalkSpec,
    decomposition_equivalence_check,
    laser_density,
    phase_walk_correlation,
)
from ecsim.homodyne import HomodyneConfig, PhaseShiftProcess
from ecsim.verify import check_decomposition_equivalence
from fock_counts import total_number_distribution
from fock_helpers import equal_multimode_split, grid_sum_amplitudes, multimode_output_coherent, trace_norm


def multimode_output_number(m: int, n_modes: int, grid: PhaseGrid | None = None) -> ECSState:
    """Circle representation of m photons split equally over n_modes: every
    grid point carries sqrt(m / n_modes) e^{i phi} in each mode, and the
    weight e^{-i m phi} selects the m-photon sector. The cascade split of |m>
    is the independent route it is checked against. The grid defaults to the
    rule's, exact up to total occupation n_modes * m."""
    grid = PhaseGrid.exact(n_modes * m) if grid is None else grid
    phis = grid.points
    weight = np.exp(-1j * m * phis) / math.sqrt(poisson_pmf(float(m), m))
    amps = np.repeat(math.sqrt(m / n_modes) * np.exp(1j * phis)[:, None], n_modes, axis=1)
    return ECSState((grid,), weight, tuple(range(n_modes)), amps, ModeShape.uniform(n_modes, m))


def dense_phase_walk(spec, realizations, pairs):
    """Reference walk on the full (m+1)^N tensor: the same seeded phase path,
    the plain grid sum at every tuple and b_k applied along each mode axis."""
    N, m = spec.mode_count, spec.photon_number
    rng = np.random.default_rng(spec.seed)
    grid = PhaseGrid(2 * N * m + 3)
    phis = grid.points
    weight = np.exp(-1j * m * phis) / math.sqrt(poisson_pmf(float(m), m)) if m > 0 else np.ones(grid.size)
    samples = np.zeros((realizations, len(pairs)), dtype=complex)
    for r in range(realizations):
        walk = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(spec.step_variance), N - 1))])
        amps = math.sqrt(m / N) * np.exp(1j * (phis[:, None] + walk[None, :]))
        shape = ModeShape.uniform(N, m)
        occ = np.indices(shape.dims).reshape(N, -1).T
        psi = grid_sum_amplitudes(ECSState((grid,), weight, tuple(range(N)), amps, shape), occ).reshape(shape.dims)
        low = [np.moveaxis(np.tensordot(lowering_matrix(m), psi, axes=([1], [k])), 0, k) for k in range(N)]
        for i, (k, l) in enumerate(pairs):
            denom = math.sqrt(np.vdot(low[k], low[k]).real * np.vdot(low[l], low[l]).real)
            samples[r, i] = np.vdot(low[k], low[l]) / denom if denom > 0 else 0.0
    g1 = np.zeros((N, N), dtype=complex)
    stderr = np.zeros((N, N))
    for (k, l), vals in zip(pairs, samples.T):
        g1[k, l] = vals.mean()
        if realizations > 1:
            direction = g1[k, l] / abs(g1[k, l]) if abs(g1[k, l]) > 0 else 1.0
            stderr[k, l] = np.real(vals / direction).std(ddof=1) / math.sqrt(realizations)
    return g1, stderr


def walk_closed_form(spec, realizations):
    """g1 and stderr from the seeded walk alone, one normal draw of N - 1
    increments per realization: for m photons split equally over the modes
    each realization's g1[k, l] is exactly e^{i (W_l - W_k)}."""
    N = spec.mode_count
    rng = np.random.default_rng(spec.seed)
    walks = np.array(
        [np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(spec.step_variance), N - 1))])
         for _ in range(realizations)]
    )
    phases = np.exp(1j * (walks[:, None, :] - walks[:, :, None]))
    g1 = phases.mean(axis=0)
    stderr = np.zeros((N, N))
    for k in range(N):
        for l in range(N):
            direction = g1[k, l] / abs(g1[k, l]) if abs(g1[k, l]) > 0 else 1.0
            stderr[k, l] = np.real(phases[:, k, l] / direction).std(ddof=1) / math.sqrt(realizations)
    return g1, stderr


# (modes, photons, seed, realizations, chunk budget): each budget splits the
# realizations into at least 3 chunks, the last one short where it can be
WALK_CASES = [(2, 2, 9, 7, 60), (4, 2, 1, 13, 180), (3, 5, 4, 5, 252), (6, 3, 2, 10, 378), (11, 2, 7, 11, 605)]


def walk_deviation(monkeypatch, modes, photons, seed, realizations, budget):
    """Largest g1 and stderr differences between the walk, taken in chunks of
    the given cell budget, and its closed form."""
    chunks = []
    stack = sources.sector_amplitude_stack
    monkeypatch.setattr(sources, "CHUNK_CELLS", budget)
    monkeypatch.setattr(
        sources, "sector_amplitude_stack", lambda ecs, amps, *rest: chunks.append(len(amps)) or stack(ecs, amps, *rest)
    )
    spec = PhaseWalkSpec(0.3, modes, photons, seed=seed)
    res = phase_walk_correlation(spec, realizations)
    assert len(chunks) >= 3 and max(chunks) > 1 and sum(chunks) == realizations
    g1, stderr = walk_closed_form(spec, realizations)
    return np.abs(res.g1 - g1).max(), np.abs(res.stderr - stderr).max()


class TestLaserDensity:
    def test_vacuum(self):
        d = laser_density(LaserSpec(0.0, 5))
        assert d.weights[0] == 1.0
        assert d.weights[1:].sum() == 0.0

    def test_poisson_weights(self):
        d = laser_density(LaserSpec(4.0, 40))
        assert d.weights[4] == pytest.approx(math.exp(-4) * 4.0**4 / 24.0, rel=1e-12)

    def test_equals_twirled_coherent_projector(self):
        nbar, cutoff = 2.3, 30
        rho = twirl(to_density(coherent_amplitudes(math.sqrt(nbar), cutoff)))
        direct = laser_density(LaserSpec(nbar, cutoff)).to_density()
        assert np.abs(rho.entries - direct.entries).max() <= 1e-12


class TestMultimodeNumber:
    def test_vacuum_case(self):
        st = ecs_to_fock(multimode_output_number(0, 3))
        assert st.probabilities()[(0, 0, 0)] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m,n_modes", [(1, 2), (2, 2), (3, 3), (2, 4)])
    def test_matches_cascade_split(self, m, n_modes):
        synth = ecs_to_fock(multimode_output_number(m, n_modes))
        split = equal_multimode_split(basis_state(ModeShape((m,)), (m,)), n_modes)
        assert fidelity(synth, split) >= 1.0 - 1e-10

    def test_definite_total_photon_number(self):
        st = ecs_to_fock(multimode_output_number(3, 3))
        tot = total_number_distribution(st.normalize())
        assert tot[3] == pytest.approx(1.0, abs=1e-10)
        assert tot[:3].max() <= 1e-20

    def test_grid_below_total_occupation_refused(self):
        # 4 modes of cutoff 2 hold total occupations up to 8; the 5 points of
        # 2 cutoff + 1 leave 0.022 of amplitude outside the 2-photon sector
        with pytest.raises(ValidationError, match="need M >="):
            ecs_to_fock(multimode_output_number(2, 4, PhaseGrid(5)))

    def test_rule_grid_matches_larger_grid(self):
        st = ecs_to_fock(multimode_output_number(2, 4))
        large = ecs_to_fock(multimode_output_number(2, 4, PhaseGrid(2 * 4 * 2 + 3)))
        assert multimode_output_number(2, 4).grid_shape == (9,)
        assert np.abs(st.amplitudes - large.amplitudes).max() <= 1e-12
        off_sector = st.shape.total_occupation() != 2
        assert np.abs(st.amplitudes.ravel()[off_sector]).max() <= 1e-15

    def test_laser_output_two_photons_two_modes(self):
        st = ecs_to_fock(multimode_output_number(2, 2))
        tot = total_number_distribution(st.normalize())
        assert tot[2] == pytest.approx(1.0, abs=1e-10)


class TestMultimodeCoherent:
    def test_single_mode_reduction(self):
        st = multimode_output_coherent(1.5, 0.4, 1, 16)
        target = coherent_amplitudes(math.sqrt(1.5) * np.exp(0.4j), 16)
        assert fidelity(st, target) == pytest.approx(1.0, abs=1e-12)

    def test_mode_marginals(self):
        st = multimode_output_coherent(2.0, 0.0, 2, 14).normalize()
        marg = np.sum(st.probabilities(), axis=1)
        expect = poisson_pmf(1.0, np.arange(15))
        assert np.abs(marg - expect / expect.sum() * marg.sum()).max() <= 1e-10

    def test_twirl_then_split_equals_split_then_twirl(self):
        nbar, cutoff = 1.0, 8
        # split then twirl: truncated product coherent state, all-modes twirl
        # (kept unnormalized so both routes truncate identically)
        split = multimode_output_coherent(nbar, 0.0, 2, cutoff)
        rho_a = twirl(to_density(split))
        # twirl then split: Poisson mixture of split number states
        ent = sum(
            poisson_pmf(nbar, m)
            * np.outer(
                (v := equal_multimode_split(basis_state(ModeShape((cutoff,)), (m,)), 2)).amplitudes.ravel(),
                v.amplitudes.ravel().conj(),
            )
            for m in range(cutoff + 1)
        )
        # the mixture route stops at m = cutoff while the truncated coherent
        # product retains partial sectors above it; compare where both exist
        tot = rho_a.shape.total_occupation()
        inside = (tot[:, None] <= cutoff) & (tot[None, :] <= cutoff)
        diff = np.abs(rho_a.entries - ent)
        assert diff[inside].max() <= 1e-12
        from ecsim.fock import poisson_tail

        assert diff[~inside].max() <= poisson_tail(nbar, cutoff)


GOOD_PAIR, GOOD_CASCADE = sources.apply_pair, sources.split_cascade
# corruptions of the check's routes: (name in sources, replacement)
ROUTE_CANARIES = {
    "reversed-pair": ("apply_pair", lambda occ, amps, pair, params: GOOD_PAIR(occ, amps, pair[::-1], params)),
    "fifty-fifty-cascade": ("split_cascade", lambda n: [(a, b, math.pi / 4) for a, b, _ in GOOD_CASCADE(n)]),
    "shifted-poisson": ("poisson_pmf", lambda nbar, n: poisson_pmf(nbar, n + 1)),
    "coupler-phase-pi": ("CouplerParams", lambda theta: CouplerParams(theta, math.pi)),
}


class TestDecompositionEquivalence:
    def test_vacuum_exact(self):
        rep = decomposition_equivalence_check(0.0, 2, 4)
        assert rep.trace_distance <= 1e-12

    def test_many_modes_at_cutoff_zero_read_the_vacuum_on_both_routes(self):
        # both routes are the vacuum here, whose distance is 0: the product's
        # amplitudes and its in-cutoff mass must round alike over a million modes
        assert decomposition_equivalence_check(1.0, 10**6, 0).trace_distance <= 1e-15

    @pytest.mark.parametrize("nbar,n_modes,cutoff", [(1.0, 2, 12), (2.0, 3, 14)])
    def test_decompositions_agree(self, nbar, n_modes, cutoff):
        rep = decomposition_equivalence_check(nbar, n_modes, cutoff)
        assert rep.trace_distance <= 1e-8 + rep.tail_bound

    @pytest.mark.parametrize("n_modes,cutoff", [(1, 3), (2, 6), (3, 5), (4, 3)])
    def test_one_cascade_splits_every_number_state(self, monkeypatch, n_modes, cutoff):
        # the check splits sum_m |m> once on the tuples of total <= cutoff and
        # reads each |m> back from its m-photon tuples: at those tuples the
        # amplitudes equal the dense split of each |m> alone
        splits, good = [], sources.apply_pair

        def recorded(occ, *rest):
            splits.append((occ, good(occ, *rest)))
            return splits[-1][1]

        monkeypatch.setattr(sources, "apply_pair", recorded)
        decomposition_equivalence_check(1.0, n_modes, cutoff)
        assert len(splits) == n_modes - 1
        # one mode has no coupler: its split is the listing's |m> itself
        occ, split = splits[-1] if splits else (sector_occupations(2, cutoff)[:, :-1], np.ones(cutoff + 1))
        total = occ.sum(axis=1)
        for m in range(cutoff + 1):
            dense = equal_multimode_split(basis_state(ModeShape((cutoff,)), (m,)), n_modes).amplitudes
            assert np.array_equal(split[total == m], dense[tuple(occ[total == m].T)])

    @pytest.mark.parametrize(
        "nbar,n_modes,cutoff",
        [(1.0, 2, 12), (2.0, 2, 11), (0.0, 2, 4), (1.0, 3, 5), (1.0, 1, 3), (1.0, 4, 2), (0.5, 3, 4), (3.0, 2, 9)],
    )
    def test_matches_the_dense_reference(self, nbar, n_modes, cutoff):
        # the dense reference: the Poisson mixture of each |m> split alone
        # against the twirled coherent product, (cutoff + 1)^modes square
        # matrices whose difference has its trace norm from an SVD. The gaps
        # measured at most 2.8e-16 on these configs; the bound leaves 7-fold
        # headroom
        rho = sum(
            poisson_pmf(nbar, m)
            * to_density(equal_multimode_split(basis_state(ModeShape((cutoff,)), (m,)), n_modes)).entries
            for m in range(cutoff + 1)
        )
        product = twirl(to_density(multimode_output_coherent(nbar, 0.0, n_modes, cutoff)))
        dense = trace_norm(rho - product.entries)
        assert abs(decomposition_equivalence_check(nbar, n_modes, cutoff).trace_distance - dense) <= 2e-15

    @pytest.mark.parametrize("name", sorted(ROUTE_CANARIES))
    def test_corrupted_route_fails_the_check(self, monkeypatch, name):
        # each corruption moves the distance to 0.4 or more, against a tolerance of 1.39e-8
        monkeypatch.setattr(sources, *ROUTE_CANARIES[name])
        result = check_decomposition_equivalence(2.0, 3, 14)
        assert not result.passed and result.measured > 0.1


class TestPhaseWalk:
    def test_zero_variance_fully_coherent(self):
        spec = PhaseWalkSpec(0.0, 4, 2, seed=1)
        res = phase_walk_correlation(spec, realizations=3)
        assert np.abs(np.abs(res.g1) - 1.0).max() <= 1e-9

    def test_unit_diagonal_and_hermitian(self):
        spec = PhaseWalkSpec(0.2, 4, 2, seed=5)
        res = phase_walk_correlation(spec, realizations=20)
        assert np.abs(np.diag(res.g1) - 1.0).max() <= 1e-12
        assert np.abs(res.g1 - res.g1.conj().T).max() <= 1e-12

    def test_gaussian_decay_at_lag(self):
        # analytic oracle: averaging e^{i(W_l - W_k)} over Gaussian increments
        # gives exp(-variance |k - l| / 2)
        spec = PhaseWalkSpec(0.25, 5, 2, seed=7)
        res = phase_walk_correlation(spec, realizations=400, pairs=[(0, 4)])
        expect = math.exp(-0.25 * 4 / 2.0)
        assert abs(abs(res.g1[0, 4]) - expect) <= 3.5 * res.stderr[0, 4]

    def test_single_realization_unit_modulus(self):
        # per realization the normalized correlation is a pure phase
        spec = PhaseWalkSpec(0.5, 3, 2, seed=2)
        res = phase_walk_correlation(spec, realizations=1)
        assert np.abs(np.abs(res.g1) - 1.0).max() <= 1e-9

    @pytest.mark.parametrize(
        "variance,modes,photons,realizations,pairs",
        [
            (0.3, 3, 2, 6, None),
            (0.2, 4, 3, 4, [(0, 3), (1, 2), (0, 0)]),
            (0.5, 2, 0, 3, None),
            (0.1, 1, 2, 2, None),
            (0.4, 5, 1, 5, [(4, 0), (2, 2)]),
        ],
    )
    def test_matches_dense_reference(self, variance, modes, photons, realizations, pairs):
        spec = PhaseWalkSpec(variance, modes, photons, seed=11)
        if pairs is None:
            pairs = [(k, l) for k in range(modes) for l in range(modes)]
        res = phase_walk_correlation(spec, realizations, pairs=pairs)
        g1, stderr = dense_phase_walk(spec, realizations, pairs)
        assert np.abs(res.g1 - g1).max() <= 1e-12
        assert np.abs(res.stderr - stderr).max() <= 1e-12
        if photons == 0:
            assert not res.g1.any()

    def test_negative_zero_variance_runs_as_zero(self):
        # sqrt(-0.0) is -0.0, which numpy refuses as a normal scale
        got = phase_walk_correlation(PhaseWalkSpec(-0.0, 4, 1, 0), 2)
        want = phase_walk_correlation(PhaseWalkSpec(0.0, 4, 1, 0), 2)
        assert np.array_equal(got.g1, want.g1) and np.array_equal(got.stderr, want.stderr)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValidationError):
            PhaseWalkSpec(-0.1, 2, 1)

    @pytest.mark.parametrize("pairs", [[(0, 3)], [(3, 0)], [(0, -1)], [(-3, 1)], [(1, 1), (0, 5)]])
    def test_pairs_outside_the_modes_refused(self, pairs):
        # -1 would read mode 2 by numpy's negative indexing, 3 past the end
        with pytest.raises(ValidationError, match="pairs"):
            phase_walk_correlation(PhaseWalkSpec(0.1, 3, 1), 2, pairs=pairs)

    @pytest.mark.parametrize("modes,photons,seed,realizations,budget", WALK_CASES)
    def test_every_chunk_matches_walk_closed_form(self, monkeypatch, modes, photons, seed, realizations, budget):
        g1_error, stderr_error = walk_deviation(monkeypatch, modes, photons, seed, realizations, budget)
        assert g1_error <= 1e-12 and stderr_error <= 1e-12

    @pytest.mark.parametrize("modes,photons,seed,realizations,budget", WALK_CASES)
    def test_closed_form_catches_conjugated_lowering(self, monkeypatch, modes, photons, seed, realizations, budget):
        # mutation canary: b_l |alpha> read as conj(alpha_l) |alpha>, the
        # lowering factor of the walk's weights conjugated. The per-realization
        # closed form must catch it in every case; criterion 10 catches it
        # too (|g1| 0.5504 against 0.6065, outside 3 SE = 0.0307).
        stack = sources.sector_amplitude_stack
        monkeypatch.setattr(
            sources,
            "sector_amplitude_stack",
            lambda ecs, amps, weights, occ: stack(ecs, amps, weights * (amps.conj() / amps).transpose(0, 2, 1), occ),
        )
        g1_error, _ = walk_deviation(monkeypatch, modes, photons, seed, realizations, budget)
        assert g1_error > 1e-3

    def test_csv_rows_are_the_reported_pairs(self):
        res = phase_walk_correlation(PhaseWalkSpec(0.2, 4, 2, seed=3), 3, pairs=[(2, 0), (0, 3), (2, 0), (1, 1)])
        rows = list(res.to_csv_rows())
        assert [(k, l) for k, l, *_ in rows] == [(0, 3), (1, 1), (2, 0)]
        k, l, re, im, mag, se = rows[2]
        assert (re, im, mag, se) == (res.g1[2, 0].real, res.g1[2, 0].imag, abs(res.g1[2, 0]), res.stderr[2, 0])
        full = phase_walk_correlation(PhaseWalkSpec(0.2, 3, 2, seed=3), 2)
        assert [(k, l) for k, l, *_ in full.to_csv_rows()] == [(k, l) for k in range(3) for l in range(3)]


# (site, call with one nonfinite parameter x): each must raise ValidationError
NONFINITE = [
    ("CouplerParams phi", lambda x: CouplerParams(0.5, x)),
    ("LaserSpec nbar", lambda x: LaserSpec(x, 3)),
    ("PhaseWalkSpec step_variance", lambda x: PhaseWalkSpec(x, 2, 1)),
    ("poisson_pmf nbar", lambda x: poisson_pmf(x, 2)),
    ("decomposition nbar", lambda x: decomposition_equivalence_check(x, 2, 3)),
    ("PhaseShiftProcess gamma", lambda x: PhaseShiftProcess(x)),
    ("coherent_amplitudes alpha", lambda x: coherent_amplitudes(x, 3)),
    ("coherent_amplitudes imaginary part", lambda x: coherent_amplitudes(complex(0.0, x), 3)),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site, call", NONFINITE, ids=[site for site, _ in NONFINITE])
def test_nonfinite_parameters_refused(site, call, value):
    with pytest.raises(ValidationError, match="finite"):
        call(value)


# (site, call with one count x): each must raise ValidationError for a count
# that is not an integer, before it reaches a table lookup or an allocation
NONINTEGER = [
    ("LaserSpec cutoff", lambda x: LaserSpec(1.0, x)),
    ("PhaseWalkSpec mode_count", lambda x: PhaseWalkSpec(0.1, x, 1)),
    ("PhaseWalkSpec photon_number", lambda x: PhaseWalkSpec(0.1, 3, x)),
    ("phase_walk_correlation realizations", lambda x: phase_walk_correlation(PhaseWalkSpec(0.1, 3, 1), x)),
    ("poisson_pmf n", lambda x: poisson_pmf(1.0, x)),
    ("poisson_pmf n array", lambda x: poisson_pmf(1.0, [0, x])),
    ("HomodyneConfig source_photons", lambda x: HomodyneConfig(x, PhaseShiftProcess(0.0))),
    ("number_state_on_circle n", lambda x: number_state_on_circle(x)),
    ("number_state_on_circle m_radius", lambda x: number_state_on_circle(2, m_radius=x)),
    ("number_state_on_circle cutoff", lambda x: number_state_on_circle(2, cutoff=x)),
    ("two_mode_circle n", lambda x: two_mode_circle(x, 1)),
    ("two_mode_circle n_prime", lambda x: two_mode_circle(1, x)),
    ("two_mode_circle cutoffs", lambda x: two_mode_circle(1, 1, cutoffs=x)),
    ("two_mode_circle cutoff pair", lambda x: two_mode_circle(1, 1, cutoffs=(4, x))),
]


@pytest.mark.parametrize("value", [2.5, 3.0, math.nan, math.inf], ids=["2.5", "3.0", "nan", "inf"])
@pytest.mark.parametrize("site, call", NONINTEGER, ids=[site for site, _ in NONINTEGER])
def test_noninteger_counts_refused(site, call, value):
    with pytest.raises(ValidationError, match="integer"):
        call(value)
