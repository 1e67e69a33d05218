"""Alternating minimisation over nonlinear approximation spaces.

Quadratic energies J(u) = 0.5 a(u,u) - ell(u) are minimised over classes
{ sum_k w_k phi_k(xi) } with linear coefficients w and constrained
nonlinear parameters xi: exact or inexact linear solves alternate with
mirror-descent steps on xi, and every convergence inequality the method
guarantees can be checked numerically through the certificate engine.
"""

from .assembly import (
    AssembledSystem,
    ConsistencyReport,
    assemble,
    check_consistency,
    quadratic_energy,
)
from .basis import (
    FreeKnotHats,
    GaussianBumps,
    IndicatorPair,
    NonlinearDomain,
    SyntheticAmplitude,
    realisation,
)
from .certify import (
    AnalyticPointsOracle,
    AnalyticSphereOracle,
    CertificateEntry,
    CertificateReport,
    GridSearchOracle,
    cea_certificate,
    decrease_certificate,
    delta_star,
    directional_convexity_probe,
    energy_monotonicity_certificate,
    global_rate_certificate,
    global_step_certificate,
    lambda_max_certificate,
    lambda_max_entry,
    local_rate_certificate,
    minimiser_grid_oracle,
    quasi_stationarity_level,
    spd_certificate,
    surrogate_certificate,
)
from .config import ExperimentConfig, compile_expression, load_config, parse_config
from .errors import (
    ConfigError,
    DerivativeUnavailableError,
    DomainViolationError,
    NonFiniteValueError,
    NonlinRitzError,
    NumericalError,
    SpdViolationError,
)
from .optimizer import (
    ConstantGamma,
    IterateRecord,
    LipschitzAdaptive,
    RunRecord,
    StoppingCriteria,
    estimate_lipschitz_L,
    hoelder_to_lipschitz,
    reduced_energy,
    reduced_gradient,
    replay,
    run,
)
from .updates import (
    DiagonalGeometry,
    EuclideanGeometry,
    Frozen,
    FullSolveCG,
    SteepestDescent,
    decrease_check,
    gradient_mapping,
    make_gradients,
    prox_optimality_residual,
    prox_step,
    update_linear,
)
from .variational import (
    DiffusionReaction1D,
    Field,
    L2Approx,
    ProblemConstants,
    QuadratureRule,
    bilinear,
    energy,
    integrate,
    linear_form,
)

__version__ = "0.1.0"
