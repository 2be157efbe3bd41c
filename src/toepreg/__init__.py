"""Fast solvers for Tikhonov-regularized Toeplitz least squares."""

from .extension import AssembledSystem, assemble, opt_extend
from .nufft import NufftConfig, run_nufft
from .solver import (
    CGConfig,
    NormalOperator,
    SolveReport,
    apply_normal_operator,
    cg_solve,
    dense_oracle,
    solve_tikhonov,
)
from .tanint import (
    SingularSystemError,
    TanIntDiagnostics,
    extract_solution,
    rec_tan_int,
)
from .toeplitz import (
    HermitianToeplitzSpec,
    ProblemSpec,
    ToeplitzSpec,
    adjoint_spec,
    materialize,
    toeplitz_adjoint_matvec,
    toeplitz_matvec,
)

__version__ = "0.1.0"

__all__ = [
    "AssembledSystem",
    "assemble",
    "opt_extend",
    "NufftConfig",
    "run_nufft",
    "CGConfig",
    "NormalOperator",
    "SolveReport",
    "apply_normal_operator",
    "cg_solve",
    "dense_oracle",
    "solve_tikhonov",
    "SingularSystemError",
    "TanIntDiagnostics",
    "extract_solution",
    "rec_tan_int",
    "HermitianToeplitzSpec",
    "ProblemSpec",
    "ToeplitzSpec",
    "adjoint_spec",
    "materialize",
    "toeplitz_adjoint_matvec",
    "toeplitz_matvec",
    "__version__",
]
