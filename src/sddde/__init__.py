"""Local bifurcation analysis for DDEs with discrete state-dependent delays."""

from .errors import (
    ConvergenceError,
    DegenerateEigenvalueError,
    DelayRangeError,
    ModelError,
    NumericalError,
    ResonanceError,
    SdddeError,
)
from .histfun import ExpPoly, combine, poly_multiply, sup_norm
from .model import Model, load_model, parse_expr, parse_model, to_text
from .derivs import DerivSettings, directional_derivative, multilinear_form
from .spectral import (
    EigenData,
    Linearization,
    RootSettings,
    char_matrix,
    char_matrix_deriv,
    characteristic_roots,
    eigenfunction,
    hopf_eigendata,
    linearize,
    resolvent_apply,
    spectral_projection,
)
from .normalform import (
    HopfNF,
    fold_coefficient,
    hopf_h2,
    hopf_l1,
)
from .continuation import (
    BranchPoint,
    HopfCurvePoint,
    StepSettings,
    continue_branch,
    continue_hopf_curve,
    solve_equilibrium,
)
from .ivp import Trajectory, simulate

__version__ = "0.1.0"

__all__ = [
    "BranchPoint",
    "ConvergenceError",
    "DegenerateEigenvalueError",
    "DelayRangeError",
    "DerivSettings",
    "EigenData",
    "ExpPoly",
    "HopfCurvePoint",
    "HopfNF",
    "Linearization",
    "Model",
    "ModelError",
    "NumericalError",
    "ResonanceError",
    "RootSettings",
    "SdddeError",
    "StepSettings",
    "Trajectory",
    "char_matrix",
    "char_matrix_deriv",
    "characteristic_roots",
    "combine",
    "continue_branch",
    "continue_hopf_curve",
    "directional_derivative",
    "eigenfunction",
    "fold_coefficient",
    "hopf_eigendata",
    "hopf_h2",
    "hopf_l1",
    "linearize",
    "load_model",
    "multilinear_form",
    "parse_expr",
    "parse_model",
    "poly_multiply",
    "resolvent_apply",
    "simulate",
    "solve_equilibrium",
    "spectral_projection",
    "sup_norm",
    "to_text",
]
