"""Number-conserving quantum optics on truncated Fock spaces.

Number states are represented as phase-circle superpositions of coherent
states, so linear couplers act pointwise on phases while an exact truncated
Fock pipeline cross-checks every result.
"""

import os as _os
from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# BLAS reads its thread count once, when numpy is first imported below
if _os.environ.get("ECSIM_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["ECSIM_THREADS"])

from .circle import (
    ConditionalWeight,
    ECSState,
    PhaseGrid,
    conditional_weight,
    delta_profile,
    ecs_apply_coupler,
    ecs_sector_amplitudes,
    ecs_to_fock,
    number_state_on_circle,
    peak_locations,
    two_mode_circle,
    width_fit,
)
from .coupler import (
    BlockUnitary,
    CouplerParams,
    apply_coupler,
    coupler_block,
    heisenberg_matrix,
    oracle_block,
)
from .errors import ConfigError, NumericsError, SizingError, ValidationError
from .fock import (
    DensityMatrix,
    FockVector,
    ModeShape,
    NumberDiagonalDensity,
    basis_state,
    coherent_amplitudes,
    fidelity,
    inner,
    phase_shift,
    poisson_pmf,
    sector_occupations,
    tensor,
    to_density,
    twirl,
    vacuum,
)
from .homodyne import (
    HomodyneConfig,
    PhaseShiftProcess,
    homodyne_difference_stats,
    process_tomography_scan,
    quadrature_matrix,
)
from .measurement import (
    DetectionRecord,
    TrajectoryState,
    fringe_scan,
    run_interference_trajectory,
)
from .sources import (
    LaserSpec,
    PhaseWalkSpec,
    decomposition_equivalence_check,
    laser_density,
    phase_walk_correlation,
)
from .squeezing import (
    pump_entangled_squeezed,
    two_mode_squeezed_vac,
)

# public names only: the submodules imported above are attributes too
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
