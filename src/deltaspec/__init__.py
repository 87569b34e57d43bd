"""deltaspec: a numerical laboratory for measure perturbations of elliptic operators.

The package builds discrete approximations of singular measures (self-similar
sets, segments, box boundaries), couples them as delta-type potentials or
Robin densities to finite-difference Neumann operators, evaluates the exact
algebraic identities relating perturbed and unperturbed inverses, and measures
eigenvalue decay orders and Weyl-type coefficients of the resulting
resolvent differences.
"""

from .errors import NumericalError, PositivityError, ValidationError
from .measures import (
    AhlforsReport,
    DiscreteMeasure,
    Similitude,
    boundary_measure,
    estimate_ahlfors_constants,
    ifs_measure,
    segment_measure,
    solve_moran_dimension,
    union_measure,
)
from .weights import Perturbation, lp_theta_norm
from .elliptic import (
    CoefficientField,
    Grid,
    OperatorMatrix,
    assemble_neumann,
    assemble_robin,
    inverse_power,
    lebesgue_measure,
)
from .birman_schwinger import (
    BSOperator,
    RestrictionMatrix,
    bs_atom_gram,
    bs_operator,
    positivity_margin,
    restriction_matrix,
)
from .resolvents import (
    ResolventReport,
    perturbed_inverse,
    power_difference,
    resolvent_difference,
    two_weight_difference,
)
from .spectra import (
    KyFanReport,
    LogPeriodicReport,
    PowerLawFit,
    SpectrumReport,
    fit_power_law,
    kyfan_check,
    log_periodic_residual,
    spectrum,
    weyl_density,
    weyl_prediction,
)

__version__ = "0.1.0"

__all__ = [
    "AhlforsReport",
    "BSOperator",
    "CoefficientField",
    "DiscreteMeasure",
    "Grid",
    "KyFanReport",
    "LogPeriodicReport",
    "NumericalError",
    "OperatorMatrix",
    "Perturbation",
    "PositivityError",
    "PowerLawFit",
    "ResolventReport",
    "RestrictionMatrix",
    "Similitude",
    "SpectrumReport",
    "ValidationError",
    "assemble_neumann",
    "assemble_robin",
    "boundary_measure",
    "bs_atom_gram",
    "bs_operator",
    "estimate_ahlfors_constants",
    "fit_power_law",
    "ifs_measure",
    "inverse_power",
    "kyfan_check",
    "lebesgue_measure",
    "log_periodic_residual",
    "lp_theta_norm",
    "perturbed_inverse",
    "positivity_margin",
    "power_difference",
    "resolvent_difference",
    "restriction_matrix",
    "segment_measure",
    "solve_moran_dimension",
    "spectrum",
    "two_weight_difference",
    "union_measure",
    "weyl_density",
    "weyl_prediction",
]
