import inspect
import math
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import ecsim.coupler as coupler_mod
import ecsim.fock as fock_mod
from ecsim.coupler import (
    BlockUnitary,
    CouplerParams,
    apply_coupler,
    apply_sector,
    coupler_block,
    equal_multimode_split,
    heisenberg_matrix,
    oracle_block,
    sector_spectrum,
    split_cascade,
)
from ecsim.errors import SizingError, ValidationError
from ecsim.fock import (
    BASIS_SIZE_CAP,
    FockVector,
    ModeShape,
    basis_state,
    coherent_amplitudes,
    fidelity,
    poisson_tail,
    tensor,
    vacuum,
)
from ecsim.verify import check_commuting_diagram, check_oracle_agreement


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


def scipy_expm_block(params: CouplerParams, N: int) -> np.ndarray:
    """Reference for the oracle: scipy's `expm` of the sector generator
    theta (e^{-i phi} L - e^{i phi} L^T), built from its two off-diagonals."""
    from scipy.linalg import expm

    k = np.arange(N)
    off = params.theta * np.sqrt((k + 1.0) * (N - k))
    return expm(np.diag(np.exp(-1j * params.phi) * off, -1) - np.diag(np.exp(1j * params.phi) * off, 1))


def loop_generator(params: CouplerParams, N: int) -> np.ndarray:
    """The oracle's sector generator built entry by entry: the reference its
    array-built generator must equal bit for bit."""
    G = np.zeros((N + 1, N + 1), dtype=np.complex128)
    th, ph = params.theta, params.phi
    for k in range(N + 1):
        if k + 1 <= N:
            G[k + 1, k] += th * np.exp(-1j * ph) * math.sqrt((k + 1) * (N - k))
        if k - 1 >= 0:
            G[k - 1, k] -= th * np.exp(1j * ph) * math.sqrt(k * (N - k + 1))
    return G


class TestPadeOracle:
    @pytest.mark.parametrize("N", [0, 1, 2, 7, 25, 60, 240, 1000])
    def test_generator_equals_the_loop_bit_for_bit(self, N):
        # bytes, so that the sign of every zero counts too
        for theta in (0.0, math.pi / 8, math.pi / 4, 1.4, math.pi / 2):
            for phi in (0.0, 0.7, math.pi, 4.0):
                p = CouplerParams(theta, phi)
                assert coupler_mod._generator(p, N).tobytes() == loop_generator(p, N).tobytes()

    @pytest.mark.parametrize("N", [0, 1, 2, 7, 25, 60, 120, 200, 240])
    def test_oracle_matches_scipy_expm(self, N):
        for theta in (math.pi / 8, math.pi / 4, math.pi / 3, 1.4, math.pi / 2):
            for phi in (0.0, 0.7, 4.0):
                p = CouplerParams(theta, phi)
                assert np.abs(oracle_block(p, N).matrix - scipy_expm_block(p, N)).max() <= 1e-13

    def test_dropped_squaring_detected(self, monkeypatch):
        # scaled for s + 1 squarings but squared s times: the oracle gives e^{G/2}
        good = coupler_mod._pade13
        monkeypatch.setattr(coupler_mod, "_pade13", lambda A: good(A / 2.0))
        assert not check_oracle_agreement(20).passed

    def test_perturbed_pade_coefficient_detected(self, monkeypatch):
        b = list(coupler_mod._PADE13)
        b[7] *= 1.0 + 1e-6
        monkeypatch.setattr(coupler_mod, "_PADE13", tuple(b))
        assert not check_oracle_agreement(20).passed


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


class TestSectorSpectrum:
    @pytest.mark.parametrize("N", [0, 1, 2, 5, 60, 200])
    def test_apply_sector_matches_block(self, N):
        # against the expm oracle: `coupler_block` is the sector product itself
        rng = np.random.default_rng(N)
        for theta in (0.3, math.pi / 4, math.pi / 2):
            for phi in (0.0, 4.0):
                params = CouplerParams(theta, phi)
                v = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
                assert np.abs(apply_sector(params, v) - oracle_block(params, N).matrix @ v).max() <= 1e-13

    @pytest.mark.parametrize("N", [0, 1, 7, 200])
    def test_stacked_rows_equal_lone_vectors(self, N):
        rng = np.random.default_rng(N)
        params = CouplerParams(0.7, 2.0)
        stack = rng.normal(size=(5, N + 1)) + 1j * rng.normal(size=(5, N + 1))
        rows = apply_sector(params, stack)
        assert all(np.array_equal(row, apply_sector(params, v)) for row, v in zip(rows, stack))

    @pytest.mark.parametrize("N", [0, 1, 6, 61])
    def test_eigenvalues_are_the_j_y_integers(self, N):
        assert np.array_equal(sector_spectrum(N).eigenvalues, np.arange(-N, N + 1, 2))

    def test_non_orthogonal_eigenvectors_rejected(self, monkeypatch, fresh_spectra):
        # mutation canary: one column of the recursion's W scaled by 1 + 1e-8
        # puts 2e-8 on the diagonal of W^T W - I; the spectrum is refused
        # before any block or sector vector reads it
        mutate(monkeypatch, "_factorise", "return m, W", "W[:, 1] *= 1.0 + 1e-8\n    return m, W")
        with pytest.raises(ValidationError, match="orthogonal"):
            sector_spectrum(7)
        with pytest.raises(ValidationError, match="orthogonal"):
            apply_sector(CouplerParams(0.4), np.ones(8))

    @pytest.mark.parametrize("column", [0, 511, 512, 600])
    def test_each_gram_panel_checked(self, column, monkeypatch, fresh_spectra):
        # sector 600's 601 columns span three panels, the last one partial
        assert 2 * coupler_mod._PANEL < 601 < 3 * coupler_mod._PANEL
        mutate(monkeypatch, "_factorise", "return m, W", f"W[:, {column}] *= 1.0 + 1e-8\n    return m, W")
        with pytest.raises(ValidationError, match="orthogonal"):
            sector_spectrum(600)

    def test_nan_eigenvectors_rejected(self, monkeypatch, fresh_spectra):
        mutate(monkeypatch, "_factorise", "return m, W", "W[-1, -1] = np.nan\n    return m, W")
        with pytest.raises(ValidationError, match="orthogonal"):
            sector_spectrum(300)

    def test_sizing_checked_before_any_eigensolve(self, monkeypatch):
        def refuse(N):
            raise AssertionError("factorisation ran")

        # the smallest sector whose (N + 1)^2 matrices exceed the one size rule
        N = math.isqrt(BASIS_SIZE_CAP)
        monkeypatch.setattr(coupler_mod, "_factorise", refuse)
        with pytest.raises(SizingError, match="cap"):
            sector_spectrum(N)
        with pytest.raises(SizingError, match="cap"):
            coupler_block(CouplerParams(0.4), N)
        with pytest.raises(SizingError, match="cap"):
            apply_sector(CouplerParams(0.4), np.zeros(N + 1))

    # a vector of no entries, a three-dimensional array, a stack of empty rows
    @pytest.mark.parametrize("vector", [np.zeros(0), np.zeros((2, 2, 2)), np.zeros((2, 0))])
    def test_malformed_sector_vector_rejected(self, vector):
        with pytest.raises(ValidationError):
            apply_sector(CouplerParams(0.4), vector)


def dense_spectrum(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference factorisation: one `np.linalg.eigh` of the whole (N + 1)^2
    tridiagonal T, eigenvalues rounded to the integers."""
    k = np.arange(N + 1)
    off = np.sqrt(k[1:] * (N + 1.0 - k[1:]))
    m, W = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return np.rint(m), W


def rotation(m: np.ndarray, W: np.ndarray, theta: float) -> np.ndarray:
    """W diag(e^{-i theta m}) W^T, the sector unitary before the phases D."""
    z = np.exp(-1j * theta * m)
    return W @ (z.real[:, None] * W.T) + 1j * (W @ (z.imag[:, None] * W.T))


def spectrum_errors(N: int) -> tuple[float, float, float]:
    """Sector N's spectrum, factorised afresh: |W^T W - I|, the residual
    |T W - W diag(m)| and the largest gap of W diag(e^{-i theta m}) W^T to
    the dense reference's over three angles. Eigenvalues must be exact."""
    coupler_mod._spectra.clear()
    spectrum = sector_spectrum(N)
    m, W = spectrum.eigenvalues, spectrum.eigenvectors
    assert np.array_equal(m, np.arange(-N, N + 1, 2))
    k = np.arange(1, N + 1)
    off = np.sqrt(k * (N + 1.0 - k))[:, None]
    TW = np.zeros_like(W)
    TW[:-1] += off * W[1:]
    TW[1:] += off * W[:-1]
    mr, Wr = dense_spectrum(N)
    gap = max(np.abs(rotation(m, W, t) - rotation(mr, Wr, t)).max() for t in (0.3, math.pi / 4, 1.4))
    return float(np.abs(W.T @ W - np.eye(N + 1)).max()), float(np.abs(TW - W * m).max()), float(gap)


EPS = np.finfo(np.float64).eps


@pytest.fixture
def fresh_spectra():
    """An empty spectrum cache before and after, so that a corrupted
    factorisation cached by a test serves no later one."""
    coupler_mod._spectra.clear()
    yield
    coupler_mod._spectra.clear()


def mutate(monkeypatch, name: str, old: str, new: str) -> None:
    """Replace coupler.<name> by a copy whose source has `old`, which occurs
    exactly once, replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(coupler_mod, name)))
    assert source.count(old) == 1
    namespace = dict(vars(coupler_mod))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(coupler_mod, name, namespace[name])


class TestHalfSizeFactorisation:
    # measured: |W^T W - I| <= 7.4e-15, residual <= 5.3e-13 and gap to the
    # dense reference <= 1.5e-14 at N = 1000; the odd sectors have the
    # largest residuals, 1.56e-12 at N = 1001; at N = 200 they are 2.4e-15,
    # 8.3e-14 and 5.0e-15
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 7, 8, 60, 61, 200, 201, 1000, 1001])
    def test_against_the_dense_reference(self, N, fresh_spectra):
        orthogonality, residual, gap = spectrum_errors(N)
        assert orthogonality <= (4 + N / 4) * EPS
        assert residual <= 8 * (N + 1) * EPS
        assert gap <= (8 + N / 4) * EPS

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 7, 8, 60, 61, 200, 201, 1000])
    def test_no_eigensolver_runs(self, N, monkeypatch, fresh_spectra):
        def refuse(*args, **kwargs):
            raise AssertionError("eigensolver ran")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert np.array_equal(sector_spectrum(N).eigenvalues, np.arange(-N, N + 1, 2))

    def test_dropped_reversal_sign_detected(self, monkeypatch, fresh_spectra):
        # without the parity sign every column is even under the reversal,
        # N + 1 columns in a space of N // 2 + 1 dimensions: W is refused
        mutate(monkeypatch, "_factorise", "W[top:, (N + 1) % 2 :: 2] *= -1.0", "pass")
        for N in (7, 8):
            with pytest.raises(ValidationError, match="orthogonal"):
                spectrum_errors(N)
        coupler_mod._spectra.clear()
        with pytest.raises(ValidationError, match="orthogonal"):
            check_oracle_agreement(20)

    def test_wrong_coupling_detected(self, monkeypatch, fresh_spectra):
        # b_k = sqrt((k + 1)(N + 1 - k)), sector N + 1's coupling, gives
        # vectors that are neither eigenvectors of T nor orthogonal
        mutate(monkeypatch, "_factorise", "b = np.sqrt(k * (N + 1.0 - k))", "b = np.sqrt(k * (N + 2.0 - k))")
        for N in (7, 8):
            with pytest.raises(ValidationError, match="orthogonal"):
                spectrum_errors(N)
        coupler_mod._spectra.clear()
        with pytest.raises(ValidationError, match="orthogonal"):
            check_oracle_agreement(20)


@pytest.fixture
def factorised(monkeypatch):
    """The sector photon numbers factorised from here on, in order, starting
    from an empty spectrum cache."""
    coupler_mod._spectra.clear()
    good, sectors = coupler_mod._factorise, []

    def counted(N):
        sectors.append(N)
        return good(N)

    monkeypatch.setattr(coupler_mod, "_factorise", counted)
    return sectors


def cached_cells_before_newest():
    """Eigenvector cells the spectrum cache holds apart from its newest entry."""
    return sum(s.eigenvectors.size for s in list(coupler_mod._spectra.values())[:-1])


class TestSpectrumCache:
    def test_sweep_factorises_each_sector_once(self, factorised):
        # sectors 0 .. 32 of the cutoff-16 pairs, each read by six couplers
        check_commuting_diagram(8)
        assert sorted(factorised) == list(range(33))

    def test_least_recently_read_dropped_past_the_cap(self, monkeypatch, factorised):
        # 16 + 25 + 36 + 169 cells fit 200 beside the newest; reading sector
        # 13 (196 cells) drops the oldest until the rest fit, and a reread
        # moves a spectrum to the newest place without factorising it again
        monkeypatch.setattr(fock_mod, "BASIS_SIZE_CAP", 200)
        for N in (3, 4, 5, 12):
            sector_spectrum(N)
        assert list(coupler_mod._spectra) == [3, 4, 5, 12]
        sector_spectrum(13)
        assert list(coupler_mod._spectra) == [12, 13]
        sector_spectrum(12)
        assert list(coupler_mod._spectra) == [13, 12]
        assert factorised == [3, 4, 5, 12, 13]

    def test_cached_cells_never_exceed_the_cap_beside_the_newest(self, monkeypatch, factorised):
        monkeypatch.setattr(fock_mod, "BASIS_SIZE_CAP", 200)
        # sector 13 is the largest under the cap: 14^2 = 196 cells
        for N in np.random.default_rng(3).integers(0, 14, size=300).tolist():
            spectrum = sector_spectrum(N)
            assert coupler_mod._spectra[N] is spectrum and list(coupler_mod._spectra)[-1] == N
            assert cached_cells_before_newest() <= 200

    def test_running_cell_total_matches_the_cache(self, monkeypatch, factorised):
        # the eviction reads a running total instead of summing every entry
        monkeypatch.setattr(fock_mod, "BASIS_SIZE_CAP", 200)
        for N in np.random.default_rng(5).integers(0, 14, size=200).tolist():
            sector_spectrum(N)
            assert coupler_mod._spectra.cells == sum(s.eigenvectors.size for s in coupler_mod._spectra.values())
        coupler_mod._spectra.clear()
        assert coupler_mod._spectra.cells == 0

    def test_concurrent_reads_keep_the_bound(self, monkeypatch, factorised):
        # eight threads on two cores, switching every microsecond, read and
        # evict in one cache (sector 5 alone fills the 36-cell cap); each read
        # returns its own sector's spectrum. Without the cache's lock this
        # test failed in 3 of 5 runs ("dictionary changed size during
        # iteration")
        monkeypatch.setattr(fock_mod, "BASIS_SIZE_CAP", 36)

        def reads(seed):
            for N in np.random.default_rng(seed).integers(0, 6, size=1000).tolist():
                assert np.array_equal(sector_spectrum(N).eigenvalues, np.arange(-N, N + 1, 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(reads, seed) for seed in range(8)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert cached_cells_before_newest() <= 36


def dense_pair_unitary(params, ci, cj):
    """Two-mode unitary on the (ci + 1)(cj + 1) Kronecker basis, index
    k (cj + 1) + l, from the expm oracle blocks; sectors that do not fit
    both cutoffs are cut to the rows and columns that do."""
    U = np.zeros(((ci + 1) * (cj + 1),) * 2, dtype=complex)
    for N in range(ci + cj + 1):
        block = oracle_block(params, N).matrix
        ks = [k for k in range(N + 1) if k <= ci and N - k <= cj]
        for k in ks:
            for kk in ks:
                U[k * (cj + 1) + N - k, kk * (cj + 1) + N - kk] = block[k, kk]
    return U


def dense_apply(state, pair, params):
    i, j = pair
    psi = np.moveaxis(state.amplitudes, (i, j), (0, 1))
    ci, cj = psi.shape[0] - 1, psi.shape[1] - 1
    out = dense_pair_unitary(params, ci, cj) @ psi.reshape((ci + 1) * (cj + 1), -1)
    return np.moveaxis(out.reshape(psi.shape), (0, 1), (i, j))


def random_amplitudes(cutoffs, seed):
    rng = np.random.default_rng(seed)
    dims = [c + 1 for c in cutoffs]
    return rng.normal(size=dims) + 1j * rng.normal(size=dims)


class TestApplyCouplerDenseReference:
    PARAMS = CouplerParams(0.83, 2.4)

    def check(self, amps, cutoffs, pair):
        st = FockVector(ModeShape(cutoffs), amps)
        out = apply_coupler(st, pair, self.PARAMS)
        assert np.abs(out.amplitudes - dense_apply(st, pair, self.PARAMS)).max() <= 1e-12

    @pytest.mark.parametrize(
        "cutoffs,pair",
        [((4, 2), (0, 1)), ((4, 0), (0, 1)), ((0, 3), (1, 0)), ((2, 5, 0), (2, 1)), ((3, 1, 2), (0, 2))],
    )
    def test_mixed_cutoffs(self, cutoffs, pair):
        self.check(random_amplitudes(cutoffs, 1), cutoffs, pair)

    @pytest.mark.parametrize("pair", [(3, 1), (1, 3), (0, 3), (2, 0)])
    def test_reversed_and_non_adjacent_pairs(self, pair):
        cutoffs = (2, 3, 1, 4)
        self.check(random_amplitudes(cutoffs, 2), cutoffs, pair)

    def test_single_sector_state(self):
        # the homodyne shape: both modes at cutoff n, support on k + l = n only
        n = 12
        amps = np.zeros((n + 1, n + 1), dtype=complex)
        k = np.arange(n + 1)
        amps[k, n - k] = random_amplitudes((n,), 3)
        self.check(amps, (n, n), (0, 1))

    def test_zero_sector_between_live_ones(self):
        cutoffs = (3, 4, 1)
        amps = random_amplitudes(cutoffs, 4)
        totals = np.add.outer(np.arange(4), np.arange(5))
        amps[totals == 3] = 0.0
        st = FockVector(ModeShape(cutoffs), amps)
        out = apply_coupler(st, (0, 1), self.PARAMS)
        assert np.all(out.amplitudes[totals == 3] == 0.0)
        assert np.any(out.amplitudes[totals == 2]) and np.any(out.amplitudes[totals == 4])
        self.check(amps, cutoffs, (0, 1))


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

    def test_vacuum_of_64_modes_splits_to_vacuum(self):
        # the ancilla check reads per-mode occupations of a 64-axis state
        out = equal_multimode_split(vacuum(ModeShape((0,) * 64)), 64)
        assert out.shape.mode_count == 64 and out.amplitudes.ravel().tolist() == [1.0]

    def test_occupied_ancilla_rejected(self):
        st = tensor(basis_state(ModeShape((2,)), (1,)), basis_state(ModeShape((2,)), (1,)))
        with pytest.raises(ValidationError):
            equal_multimode_split(st, 2)
