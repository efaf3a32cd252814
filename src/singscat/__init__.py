"""singscat: scattering off singular power-law potentials.

Solves the connection problem between the near-singularity and far-field
wave bases of u'' + J(r) u = 0 for potentials with a lambda * r^(-p)
core (p >= 2), extracts reflection/transmission amplitudes through a
current-conserving transfer matrix, exposes the reduced S-matrix as a
single Blaschke factor on the unit disk of boundary-condition parameters
Omega, and reconstructs absorptive (|Omega| < 1) values from the unitary
boundary family by Cauchy averaging.
"""

from .bases import (
    BasisSample,
    choose_r_max_start,
    choose_r_min,
    eval_asymptotic,
    eval_singularity,
)
from .connect import (
    OMEGA_INFINITY,
    ScatteringCoefficients,
    SMatrixMap,
    TransferMatrix,
    TransferResiduals,
    blaschke_params,
    s_matrix,
    s_matrix_inverse,
    scattering_coefficients,
    transfer_matrix,
)
from .currents import current, wronskian
from .disk import (
    MobiusFit,
    UnitaryFamilySample,
    absorption_average,
    cauchy_reconstruct,
    fit_mobius,
    reconstruction_error_estimate,
)
from .integrate import StateVector, StepStats, Trajectory, propagate
from .model import (
    ExtraPotential,
    GaussianBarrier,
    InversePower,
    ProblemConfig,
    ValidatedConfig,
    invariant_callable,
    validate,
)
from .oracle import IspExactResult, isp_exact

__version__ = "0.1.0"

__all__ = [
    "BasisSample",
    "ExtraPotential",
    "GaussianBarrier",
    "InversePower",
    "IspExactResult",
    "MobiusFit",
    "OMEGA_INFINITY",
    "ProblemConfig",
    "ScatteringCoefficients",
    "SMatrixMap",
    "StateVector",
    "StepStats",
    "Trajectory",
    "TransferMatrix",
    "TransferResiduals",
    "UnitaryFamilySample",
    "ValidatedConfig",
    "absorption_average",
    "blaschke_params",
    "cauchy_reconstruct",
    "choose_r_max_start",
    "choose_r_min",
    "current",
    "eval_asymptotic",
    "eval_singularity",
    "fit_mobius",
    "invariant_callable",
    "isp_exact",
    "propagate",
    "reconstruction_error_estimate",
    "s_matrix",
    "s_matrix_inverse",
    "scattering_coefficients",
    "transfer_matrix",
    "validate",
    "wronskian",
]
