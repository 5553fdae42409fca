"""Synthesis and rigorous verification of CPA contraction metrics for
time-periodic ODEs via semidefinite optimization."""

__version__ = "0.1.0"

from .systems import (  # noqa: F401
    DerivativeBounds,
    SystemDefinition,
    parse_system,
)
from .triangulation import (  # noqa: F401
    ScalingMatrix,
    SimplicialComplex,
    build_complex,
    check_complex,
    simplex_geometry,
)
from .cpa import CPAMetric  # noqa: F401
from .assembly import (  # noqa: F401
    SDPProblem,
    VariableMap,
    assemble,
    export_sdpa,
)
from .solver import SolverSettings, Solution, certify, solve  # noqa: F401
from .verify import (  # noqa: F401
    VerificationReport,
    boundary_flow_check,
    verify_contraction_sampled,
    verify_interpolation_bound,
)
from .orbits import (  # noqa: F401
    FloquetResult,
    Trajectory,
    contraction_probe,
    find_periodic_orbit,
    integrate,
    monodromy,
)
