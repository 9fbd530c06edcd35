"""Function-on-function regression with differential operators.

Estimates an unknown differential operator linking paired functional data
by kernel ridge regression in an operator reproducing kernel Hilbert
space, selects the penalty by generalized cross-validation, and checks
parametric operator families with a wild-bootstrap lack-of-fit test.
"""

from .basis import (
    BasisSystem,
    DataSet,
    FuncVec,
    composite_gauss_legendre,
    evaluate,
    l2_inner,
    make_cosine_basis,
    project,
)
from .errors import (
    DataError,
    DegenerateDesignError,
    DiffregError,
    GcvDegenerateError,
    SingularSystemError,
)
from .gof import (
    GofResult,
    ParamFamily,
    ParametricFit,
    bootstrap_multipliers,
    bootstrap_test,
    fit_parametric,
    wild_multipliers,
)
from .kernels import (
    KernelMatrices,
    KernelSpec,
    LinearOpSpec,
    assemble,
    first_derivative,
    identity_op,
    load_kernel_matrices,
    neg_laplacian,
    neg_laplacian_minus_const,
    save_kernel_matrices,
    scaled_neg_laplacian,
)
from .regress import (
    FitResult,
    RidgeSystem,
    SweepResult,
    fit,
    gcv_sweep,
    predict,
    spectrum_diag,
)
from .sim import (
    McReport,
    SimConfig,
    calibrate_sigma,
    ess,
    gen_dataset,
    mc_kernels,
    replication_dataset,
    run_mc,
    run_mc_cells,
    true_multipliers,
    tss,
)

__version__ = "0.1.0"

__all__ = [
    "BasisSystem",
    "DataError",
    "DataSet",
    "DegenerateDesignError",
    "DiffregError",
    "FitResult",
    "FuncVec",
    "GcvDegenerateError",
    "GofResult",
    "KernelMatrices",
    "KernelSpec",
    "LinearOpSpec",
    "McReport",
    "ParamFamily",
    "ParametricFit",
    "RidgeSystem",
    "SimConfig",
    "SingularSystemError",
    "SweepResult",
    "assemble",
    "bootstrap_multipliers",
    "bootstrap_test",
    "calibrate_sigma",
    "composite_gauss_legendre",
    "ess",
    "evaluate",
    "first_derivative",
    "fit",
    "fit_parametric",
    "gcv_sweep",
    "gen_dataset",
    "identity_op",
    "l2_inner",
    "load_kernel_matrices",
    "make_cosine_basis",
    "mc_kernels",
    "neg_laplacian",
    "neg_laplacian_minus_const",
    "predict",
    "project",
    "replication_dataset",
    "run_mc",
    "run_mc_cells",
    "save_kernel_matrices",
    "scaled_neg_laplacian",
    "spectrum_diag",
    "tss",
    "true_multipliers",
    "wild_multipliers",
]
