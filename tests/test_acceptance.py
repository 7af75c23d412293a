"""Acceptance suite: one test per release criterion, each printing a PASS line
with the measured value so the gate is auditable from the pytest -s output.
"""

import math
import time

import numpy as np
import pytest

from ecsim import circle
from ecsim.circle import (
    conditional_weight,
    ecs_to_fock,
    peak_locations,
    width_fit,
)
from ecsim.coupler import CouplerParams, coupler_block, oracle_block
from ecsim.fock import (
    DensityMatrix,
    ModeShape,
    coherent_amplitudes,
    fidelity,
    to_density,
    twirl,
)
from ecsim.measurement import (
    fringe_scan,
    run_interference_trajectory,
)
from ecsim.sources import (
    LaserSpec,
    PhaseWalkSpec,
    decomposition_equivalence_check,
    laser_density,
    phase_walk_correlation,
)
from ecsim.squeezing import approximation_quality, pump_entangled_squeezed
from ecsim.verify import check_commuting_diagram
from fock_counts import reduced_ab_density, taylor_pair_state
from fock_helpers import conditional_table, exact_trajectory_branches, trajectory_branches


def report(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_peak_locations():
    start = time.time()
    grid = 1024
    worst = 0.0
    for A, B in [(1, 1), (4, 1), (16, 4), (64, 64), (1, 4)]:
        w = conditional_weight(A, B, eps=0.1, n=max(4 * (A + B), 20), grid=grid)
        mag = conditional_table(w)
        j, k = np.unravel_index(int(np.argmax(mag)), mag.shape)
        phis = w.grid.points
        delta = abs(((phis[j] - phis[k] + math.pi) % (2.0 * math.pi) - math.pi) / 2.0)
        target = peak_locations(A, B)[1]
        err = abs(delta - target)
        worst = max(worst, err)
        assert err <= math.pi / grid
    runtime = time.time() - start
    assert runtime < 1.0
    report(1, f"tabulated peaks at +/-arctan(sqrt(B/A)), worst error {worst:.2e} rad "
              f"<= grid spacing {math.pi/grid:.2e} ({runtime:.2f}s)")


def _swapped_counts(row):
    return lambda A, B, eps, n, deltas: row(B, A, eps, n, deltas)


def _same_sign_fields(row):
    # alpha_b = s (1 + e^{i delta}): |C| goes as |1 + e^{i delta}|^(A + B),
    # the row of A + B counts in mode a up to a constant
    return lambda A, B, eps, n, deltas: row(A + B, 0, eps, n, deltas)


@pytest.mark.parametrize("mutation", [_swapped_counts, _same_sign_fields])
def test_criterion_1_catches_weight_row_mutations(monkeypatch, mutation):
    # mutation canaries: criterion 1's peak comparison, on the mutated row,
    # misses the peak at both (4, 1) and (16, 4)
    grid = 1024
    monkeypatch.setattr(circle, "_log_weight_row", mutation(circle._log_weight_row))
    for A, B in [(4, 1), (16, 4)]:
        w = conditional_weight(A, B, eps=0.1, n=max(4 * (A + B), 20), grid=grid)
        mag = conditional_table(w)
        j, k = np.unravel_index(int(np.argmax(mag)), mag.shape)
        phis = w.grid.points
        delta = abs(((phis[j] - phis[k] + math.pi) % (2.0 * math.pi) - math.pi) / 2.0)
        assert abs(delta - peak_locations(A, B)[1]) > math.pi / grid


def test_criterion_2_width_scaling():
    start = time.time()
    lo, hi = math.sqrt(2) * 0.9, math.sqrt(2) * 1.1
    measured = {}
    for N in (32, 128, 512):
        A = N // 2
        fit = width_fit(conditional_weight(A, A, eps=0.2, n=2 * N))
        value = fit.sigma * math.sqrt(N)
        measured[N] = value
        assert lo <= value <= hi
    f4 = width_fit(conditional_weight(4, 4, eps=0.2, n=40), min_counts=8)
    f64 = width_fit(conditional_weight(64, 64, eps=0.2, n=400))
    ratio = f4.sigma / f64.sigma
    assert abs(ratio - 4.0) <= 0.15 * 4.0
    runtime = time.time() - start
    assert runtime < 5.0
    report(2, "sigma*sqrt(N) = " + ", ".join(f"{v:.3f}" for v in measured.values())
              + f" in [{lo:.3f}, {hi:.3f}]; narrowing ratio {ratio:.2f} ~ 4 ({runtime:.2f}s)")


def test_criterion_3_commuting_diagram():
    start = time.time()
    worst = check_commuting_diagram(8).measured
    assert worst <= 1e-10
    runtime = time.time() - start
    assert runtime < 10.0
    report(3, f"circle-then-couple vs couple-then-circle, worst infidelity {worst:.2e} "
              f"<= 1e-10 for n <= 8 ({runtime:.2f}s)")


def test_criterion_4_oracle_agreement():
    start = time.time()
    worst = 0.0
    # the angle is the inner loop, so each sector is factorised once
    for N in range(61):
        for theta in (math.pi / 4, math.pi / 3):
            params = CouplerParams(theta, 0.9)
            diff = np.abs(coupler_block(params, N).matrix - oracle_block(params, N).matrix).max()
            worst = max(worst, float(diff))
    assert worst <= 1e-10
    hom = abs(coupler_block(CouplerParams(math.pi / 4, 0.0), 2).matrix[1, 1])
    assert hom <= 1e-12
    runtime = time.time() - start
    assert runtime < 5.0
    report(4, f"J_y-spectrum vs exponential blocks, worst entry diff {worst:.2e} <= 1e-10 "
              f"for N <= 60; coincidence null {hom:.2e} <= 1e-12 ({runtime:.2f}s)")


def test_criterion_5_source_decomposition():
    start = time.time()
    results = []
    for nbar, modes, cutoff in [(1.0, 2, 12), (1.0, 3, 12), (2.0, 2, 14), (2.0, 3, 14)]:
        rep = decomposition_equivalence_check(nbar, modes, cutoff)
        assert rep.trace_distance <= 1e-8 + rep.tail_bound
        results.append(f"nbar={nbar},N={modes}: {rep.trace_distance:.1e}<=1e-8+{rep.tail_bound:.1e}")
    runtime = time.time() - start
    assert runtime < 30.0
    report(5, "; ".join(results) + f" ({runtime:.2f}s)")


def test_criterion_6_trajectory_phase_locking():
    start = time.time()
    hits = 0
    runs = 100
    for seed in range(runs):
        record, traj = run_interference_trajectory(20, 0.05, 200, seed=seed)
        a, b = record.totals
        deltas, mag = traj.delta_profile(2048)
        # two-peaked and symmetric in Delta
        assert np.abs(mag - mag[::-1]).max() <= 1e-9
        peak = abs(deltas[int(np.argmax(mag))])
        target = peak_locations(a, b)[1] if (a + b) else 0.0
        if a > 0 and b > 0 and a + b >= 16:
            sigma = width_fit((deltas, mag), A=a, B=b).sigma
        else:
            sigma = 0.1
        if abs(peak - target) <= 2.0 * sigma:
            hits += 1
    assert hits >= 95
    # separate deeper run for the fringe visibility clause: n = 64 supplies
    # well over 100 detections while the cavities still hold light
    record, traj = run_interference_trajectory(64, 0.03, 400, seed=1, stop_after_detections=100)
    assert sum(record.totals) >= 100
    scan = fringe_scan(traj, np.linspace(0, 2 * math.pi, 64), branch="positive")
    assert scan.visibility >= 0.9
    _, control = run_interference_trajectory(6, 0.1, 0, seed=0)
    control_scan = fringe_scan(control, np.linspace(0, 2 * math.pi, 64))
    assert control_scan.visibility <= 0.01
    runtime = time.time() - start
    assert runtime < 300.0
    report(6, f"{hits}/100 runs peaked within 2 sigma of arctan(sqrt(B/A)); "
              f"visibility {scan.visibility:.3f} >= 0.9 at >= 100 counts; "
              f"control visibility {control_scan.visibility:.1e} <= 0.01 ({runtime:.1f}s)")


def test_criterion_7_trajectory_brute_force():
    start = time.time()
    worst_fid = 0.0
    worst_dp = 0.0
    coverage = {}
    branches_checked = 0
    for n, eps, floor in [(1, 0.5, 1e-10), (2, 0.4, 1e-9), (3, 0.4, 1e-8), (4, 0.35, 1e-7)]:
        total_p = 0.0
        branches = list(trajectory_branches(n, eps, 3, floor))
        fock = exact_trajectory_branches(n, eps, [seq for seq, _, _ in branches])
        for seq, p_phase, traj in branches:
            fock_state, p_fock = fock[seq]
            phase_state = traj.cavity_state()
            worst_dp = max(worst_dp, abs(p_fock - p_phase))
            total_p += p_fock
            branches_checked += 1
            if p_fock > 1e-9:
                worst_fid = max(worst_fid, 1.0 - fidelity(fock_state, phase_state))
        coverage[n] = total_p
    assert worst_fid <= 1e-8
    assert worst_dp <= 1e-12
    assert min(coverage.values()) >= 1.0 - 1e-6
    runtime = time.time() - start
    assert runtime < 120.0
    report(7, f"{branches_checked} three-step branches, n <= 4: worst infidelity "
              f"{worst_fid:.2e} <= 1e-8, worst probability gap {worst_dp:.2e}, "
              f"branch coverage >= {min(coverage.values()):.8f} ({runtime:.1f}s)")


def test_criterion_8_superselection_compliance():
    start = time.time()
    rng = np.random.default_rng(2023)
    worst_idem, worst_inv = 0.0, 0.0
    shape = ModeShape((3, 2))
    for _ in range(3):
        vecs = rng.normal(size=(3, shape.size)) + 1j * rng.normal(size=(3, shape.size))
        wts = rng.random(3)
        wts /= wts.sum()
        ent = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(wts, vecs))
        rho = DensityMatrix(shape, ent)
        once = twirl(rho)
        worst_idem = max(worst_idem, float(np.abs(twirl(once).entries - once.entries).max()))
        delta = rng.uniform(0, 2 * math.pi)
        tot = shape.total_occupation()
        u = np.exp(1j * delta * tot)
        shifted = DensityMatrix(shape, (u[:, None] * rho.entries) * u.conj()[None, :])
        worst_inv = max(worst_inv, float(np.abs(twirl(shifted).entries - twirl(rho).entries).max()))
    assert worst_idem <= 1e-12 and worst_inv <= 1e-12
    nbar, cutoff = 2.5, 32
    dual = float(
        np.abs(
            laser_density(LaserSpec(nbar, cutoff)).to_density().entries
            - twirl(to_density(coherent_amplitudes(math.sqrt(nbar), cutoff))).entries
        ).max()
    )
    assert dual <= 1e-12
    st = ecs_to_fock(pump_entangled_squeezed(6, 0.08, pair_cutoff=4))
    rho_ab = reduced_ab_density(st)
    reduced_inv = float(np.abs(twirl(rho_ab).entries - rho_ab.entries).max())
    assert reduced_inv <= 1e-12
    runtime = time.time() - start
    assert runtime < 5.0
    report(8, f"twirl idempotence {worst_idem:.1e}, invariance {worst_inv:.1e}, "
              f"laser dual form {dual:.1e}, reduced pair state invariance "
              f"{reduced_inv:.1e}, all <= 1e-12 ({runtime:.2f}s)")


def test_criterion_9_squeezing_approximation():
    start = time.time()
    scale = 0.2
    points = approximation_quality([2, 4, 8, 12], scale)
    fids = [p.fidelity for p in points]
    for earlier, later in zip(fids, fids[1:]):
        assert later >= earlier - 1e-12
    st = ecs_to_fock(pump_entangled_squeezed(12, scale / math.sqrt(12)))
    rho = reduced_ab_density(st)
    dim = rho.shape.dims[0]
    ent = rho.entries.reshape((dim,) * 4)
    w = np.array([ent[k, k, k, k].real for k in range(3)])
    ladder = np.abs(taylor_pair_state(scale, 4)) ** 2
    err1 = abs(w[1] / w[0] - ladder[1] / ladder[0])
    err2 = abs(w[2] / w[1] - ladder[2] / ladder[1])
    assert err1 <= 1e-2 and err2 <= 1e-2
    runtime = time.time() - start
    assert runtime < 60.0
    report(9, "fidelity vs pump size monotone: "
              + ", ".join(f"{f:.6f}" for f in fids)
              + f"; pair-weight ratio errors {err1:.1e}, {err2:.1e} <= 1e-2 ({runtime:.1f}s)")


def test_criterion_10_phase_walk_coherence():
    start = time.time()
    spec = PhaseWalkSpec(step_variance=0.1, mode_count=11, photon_number=2, seed=7)
    res = phase_walk_correlation(spec, realizations=2000, pairs=[(0, 10)])
    measured = abs(res.g1[0, 10])
    expected = math.exp(-0.5)
    se = res.stderr[0, 10]
    assert abs(measured - expected) <= 3.0 * se
    runtime = time.time() - start
    assert runtime < 120.0
    report(10, f"|g1| at lag 10 = {measured:.4f} vs exp(-1/2) = {expected:.4f}, "
               f"|diff| = {abs(measured-expected):.4f} <= 3 SE = {3*se:.4f} ({runtime:.1f}s)")
