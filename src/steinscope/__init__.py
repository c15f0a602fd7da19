"""steinscope: exact symbolic tools for polynomial Stein operators.

The package turns a polynomial Stein operator into the linear ODE satisfied
by the characteristic function of any fixed point, classifies the asymptotic
branches of that ODE, and decides whether moment/regularity side conditions
make the operator characterising.  Supporting pieces: exact target-law moment
oracles with samplers, exact and Monte-Carlo operator verification, a
one-dimensional Malliavin Gamma calculus on Wiener chaos, and nullspace-based
discovery of operators from moment sequences.
"""

from .algebra import (
    QI,
    GaussianRationalPoly,
    RationalPoly,
    gaussian_moment,
    hermite_to_monomial,
)
from .operators import (
    BadParameter,
    CfOde,
    MomentRecurrence,
    NotInImage,
    SteinOperator,
    UnknownOperator,
    catalog_get,
    catalog_names,
    moment_recurrence,
    psi_inverse,
    psi_transform,
    stirling2,
)
from .asymptotics import (
    AsymptoticBranch,
    CorrectionNotLinear,
    NoBalance,
    NotRegularSingular,
    SingularityClass,
    Verdict,
    characterisation_verdict,
    classify_branch,
    classify_singularity,
    dominant_balance,
    indicial_roots,
    power_correction,
    verdict_for_ode,
)
from .distributions import (
    NoExactOracle,
    TargetDistribution,
    cumulant,
    get_target,
    hermite_poly_moment,
    target_names,
)
from .verification import (
    ResidualReport,
    check_moment_recurrence,
    mc_stein_residual,
)
from .malliavin import (
    ChaosElement,
    NotPureChaos,
    check_cumulant_formula,
    check_gamma_characterisation,
    check_linverse_square,
    gamma_r,
    hermite_product,
    L_inverse,
    malliavin_D,
)
from .discovery import (
    DiscoveryProblem,
    OracleTooShort,
    canonicalise,
    find_stein_operators,
)

__version__ = "0.1.0"

__all__ = [
    "QI",
    "RationalPoly",
    "GaussianRationalPoly",
    "hermite_to_monomial",
    "hermite_product",
    "gaussian_moment",
    "SteinOperator",
    "CfOde",
    "MomentRecurrence",
    "psi_transform",
    "psi_inverse",
    "moment_recurrence",
    "catalog_get",
    "catalog_names",
    "stirling2",
    "NotInImage",
    "UnknownOperator",
    "BadParameter",
    "SingularityClass",
    "AsymptoticBranch",
    "Verdict",
    "classify_singularity",
    "indicial_roots",
    "dominant_balance",
    "power_correction",
    "classify_branch",
    "characterisation_verdict",
    "verdict_for_ode",
    "NotRegularSingular",
    "NoBalance",
    "CorrectionNotLinear",
    "TargetDistribution",
    "get_target",
    "target_names",
    "hermite_poly_moment",
    "cumulant",
    "NoExactOracle",
    "ResidualReport",
    "check_moment_recurrence",
    "mc_stein_residual",
    "ChaosElement",
    "malliavin_D",
    "L_inverse",
    "gamma_r",
    "check_cumulant_formula",
    "check_linverse_square",
    "check_gamma_characterisation",
    "NotPureChaos",
    "DiscoveryProblem",
    "find_stein_operators",
    "canonicalise",
    "OracleTooShort",
]
