"""Evolutionary-equation toolkit for linear thermoelasticity.

Assembles rational material laws for the named thermoelastic model
families, certifies the positivity hypotheses behind causal well-posedness,
and solves the resulting space-time systems on a staggered 1-d grid with an
independent spectral reference solver for verification.
"""

from .errors import (
    ConfigError,
    InputError,
    OracleRejectionError,
    PoleProximityError,
    RealizationError,
    SingularSystemError,
    ThermoevoError,
)
from .evolution import (
    BACKWARD_EULER,
    TRAPEZOIDAL,
    EvolutionProblem,
    Trajectory,
    causality_test,
    energy_functional,
    solution_bound_check,
    solve,
    step_implicit,
)
from .forcing import Forcing, assemble_forcing, time_grid
from .models import (
    MaterialLaw,
    ModelFamily,
    ModelSpec,
    assemble_material_law,
    canonical_spec,
    compute_entropy,
    pattern_table,
    recover_theta,
    zero_pattern,
)
from .oracle import compare, spectral_solve
from .rational import (
    RationalFunction,
    StateSpaceRealization,
    realize_state_space,
)
from .signals import (
    WeightedSignal,
    antiderivative,
    weighted_norm,
)
from .spatial import (
    DiscreteSpatialOperator,
    Grid1D,
    build_operators,
    mode_decomposition,
)
from .wellposed import (
    WellPosednessReport,
    Witness,
    check_condition_rho,
    check_symbol_boundary,
    certify_wellposedness,
)

__version__ = "0.1.0"
