"""The one size rule: every array whose size depends on the input is refused
with SizingError before it is allocated, not after."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ecsim.circle import (
    ECSState,
    PhaseGrid,
    conditional_weight,
    delta_profile,
    ecs_sector_amplitudes,
    ecs_to_fock,
    number_state_on_circle,
    pair_ladder,
    sector_amplitude_stack,
    two_mode_circle,
)
from ecsim.errors import SizingError
from ecsim.fock import (
    BASIS_SIZE_CAP,
    DensityMatrix,
    ModeShape,
    NumberDiagonalDensity,
    basis_state,
    check_cells,
    coherent_amplitudes,
    lowering_matrix,
    poisson_tail,
    sector_occupations,
    tensor,
    to_density,
    vacuum,
)
from ecsim.homodyne import HomodyneConfig, PhaseShiftProcess, homodyne_difference_stats
from ecsim.measurement import run_interference_trajectory
from ecsim.sources import (
    LaserSpec,
    PhaseWalkSpec,
    decomposition_equivalence_check,
    laser_density,
    phase_walk_correlation,
)
from ecsim.squeezing import (
    approximation_quality,
    pump_sector_evolution,
    two_mode_squeezed_vac,
)
from ecsim.verify import check_commuting_diagram
from fock_helpers import embed, reduced_density, weight_table

MIB = 2**20


def _split_circle(m: int, modes: int) -> ECSState:
    """m photons spread over `modes` coherent modes on one small circle."""
    grid = PhaseGrid.exact(modes * m)
    amps = np.repeat(np.exp(1j * grid.points)[:, None], modes, axis=1)
    return ECSState((grid,), np.ones(grid.size), tuple(range(modes)), amps, ModeShape.uniform(modes, m))


_circle3 = number_state_on_circle(3)  # 4 grid points, cutoff 3
_split4 = _split_circle(3, 4)  # 13 grid points, 20 three-photon tuples


def _circle3_stack(tables: int, weights: int) -> np.ndarray:
    """`_circle3` read at |3) under `weights` weights for each of `tables`
    tables, all broadcast views of its own."""
    amps = np.broadcast_to(_circle3.amplitudes, (tables, 4, 1))
    return sector_amplitude_stack(_circle3, amps, np.broadcast_to(_circle3.weight, (tables, weights, 4)), np.array([[3]]))


def _trajectory(n: int):
    return run_interference_trajectory(n, 0.01, 0, seed=0)[1]


# (site, call): each call asks one allocation site for more than 2^24 cells
OVER_CAP = [
    ("vacuum", lambda: vacuum(ModeShape.uniform(9, 7))),
    ("basis_state", lambda: basis_state(ModeShape.uniform(9, 7), (0,) * 9)),
    ("embed", lambda: embed(vacuum(ModeShape((1,) * 9)), ModeShape.uniform(9, 7))),
    ("tensor", lambda: tensor(vacuum(ModeShape((4095,))), vacuum(ModeShape((4096,))))),
    ("lowering_matrix", lambda: lowering_matrix(4096)),
    ("sector_occupations", lambda: sector_occupations(20, 30)),
    ("to_density", lambda: to_density(vacuum(ModeShape((4096,))))),
    ("reduced_density", lambda: reduced_density(vacuum(ModeShape((4096, 1))), (0,))),
    ("NumberDiagonalDensity", lambda: NumberDiagonalDensity(ModeShape((4096,)), np.zeros(4097)).to_density()),
    ("DensityMatrix", lambda: DensityMatrix(ModeShape((4096,)), np.zeros((1, 1)))),
    ("pair ladder", lambda: pair_ladder(0.1, 2**24)),
    ("two_mode_squeezed_vac", lambda: two_mode_squeezed_vac(0.1, 4096)),
    ("pump sector", lambda: pump_sector_evolution(4096, 0.1)),
    # (n + 8)(n + 1) circle cells (pair cutoff 7) first pass 2^24 at n = 4092
    ("squeeze pump circle", lambda: approximation_quality([4092], 0.2)),
    ("circle tables", lambda: ecs_to_fock(number_state_on_circle(4096))),
    ("sector circle tables", lambda: ecs_sector_amplitudes(number_state_on_circle(4096), np.array([[4096]]))),
    ("sector table stack", lambda: _circle3_stack(2**22, 1)),
    # 2^10 tables x 20 tuples and 2^20 weights x 13 points are within the
    # cap; 2^10 weights per table take the (R, W, tuples) output past it
    ("sector stack output", lambda: sector_amplitude_stack(
        _split4, np.broadcast_to(_split4.amplitudes, (2**10, 13, 4)),
        np.broadcast_to(_split4.weight, (2**10, 2**10, 13)), sector_occupations(4, 3))),
    # 2^23 weights at 1 tuple: the output is within the cap, the scaled 4-point weights are not
    ("sector stack weights", lambda: _circle3_stack(2**11, 2**12)),
    ("synthesis output", lambda: ecs_to_fock(_split_circle(7, 9))),
    ("conditional weight", lambda: conditional_weight(1, 1, 0.1, 4, grid=2**24 + 1)),
    ("cavity_state", lambda: _trajectory(4100).cavity_state()),
    ("weight_table", lambda: weight_table(_trajectory(4), 4097)),
    ("decomposition vectors", lambda: decomposition_equivalence_check(1.0, 3, 1000)),
    ("phase-walk samples", lambda: phase_walk_correlation(PhaseWalkSpec(0.1, 2, 1), 2**23)),
    ("phase-walk g1", lambda: phase_walk_correlation(PhaseWalkSpec(0.1, 4097, 0), 1)),
    ("phase-walk tables, 1 mode", lambda: phase_walk_correlation(PhaseWalkSpec(0.1, 1, 2**24), 1)),
    ("phase-walk tables, 2 modes", lambda: phase_walk_correlation(PhaseWalkSpec(0.1, 2, 2**21), 1)),
    ("two_mode_circle", lambda: two_mode_circle(0, 0, cutoffs=1448)),
    ("commuting-diagram sweep", lambda: check_commuting_diagram(128)),
    ("commuting-diagram circles", lambda: check_commuting_diagram(10**9)),
    ("circle delta_profile", lambda: delta_profile(conditional_weight(1, 1, 0.1, 4, grid=16), points=2**24 + 1)),
    ("trajectory delta_profile", lambda: _trajectory(4).delta_profile(2**24 + 1)),
    ("homodyne source", lambda: homodyne_difference_stats(HomodyneConfig(2**24, PhaseShiftProcess(0.0)))),
    ("phase grid", lambda: number_state_on_circle(2**28)),
    ("coherent amplitudes", lambda: coherent_amplitudes(1.0, 2**28)),
    ("laser_density", lambda: laser_density(LaserSpec(1.0, 2**28))),
    ("poisson_tail", lambda: poisson_tail(1.0, 2**28)),
    ("occupations", lambda: ModeShape.uniform(30, 3).occupations(0)),
]


@pytest.mark.parametrize("site, call", OVER_CAP, ids=[site for site, _ in OVER_CAP])
def test_over_cap_refused_before_allocation(site, call):
    tracemalloc.start()
    try:
        with pytest.raises(SizingError, match="cap"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * MIB, f"{site} allocated {peak / MIB:.0f} MiB before refusing"


def test_cap_is_inclusive():
    check_cells(BASIS_SIZE_CAP)
    with pytest.raises(SizingError):
        check_cells(BASIS_SIZE_CAP + 1)


def test_huge_sector_refused_before_its_binomial_is_formed():
    # math.comb takes 40 s at a million modes and photons: the row count is
    # bounded below before it is formed. A child runs the call with a time
    # limit, so a call that forms the number fails here instead of hanging
    import ecsim

    code = (
        "import sys\n"
        "from ecsim.errors import SizingError\n"
        "from ecsim.fock import sector_occupations\n"
        "try:\n"
        "    sector_occupations(int(sys.argv[1]), int(sys.argv[2]))\n"
        "except SizingError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ecsim.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, "1000000", "1000000"], env=env, capture_output=True, text=True, timeout=20
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("1000000-photon sector of 1000000 modes: over 2^")


def test_huge_count_is_reported_by_its_bits():
    # 2^(10^6) has more digits than int-to-str conversion allows
    with pytest.raises(SizingError, match=r"over 2\^1000000 cells"):
        check_cells(2**1_000_000)


def test_sector_route_sized_by_its_sector():
    # 8 photons in 12 modes: 9^12 dense amplitudes, C(19, 8) in the sector
    spec = PhaseWalkSpec(0.3, 12, 8, seed=5)
    res = phase_walk_correlation(spec, 1)
    rng = np.random.default_rng(5)
    walk = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(0.3), 11))])
    # each realization's g1 is the phase factor of the walk difference
    want = np.exp(1j * (walk[None, :] - walk[:, None]))
    assert np.abs(np.abs(res.g1) - 1.0).max() <= 1e-12
    assert np.abs(res.g1 - want).max() <= 1e-12
