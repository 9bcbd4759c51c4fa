"""Quadratic-embedding system identification.

Learns models of the form dz = A (z kron z) + B z + C for a lifted state
z = phi(x), recovers the governing equations through x = G z, and ships
SINDy and gEDMD baselines, the data-rich limit of the fitting system with a
Monte Carlo study of convergence to it, and a PCA pipeline for
high-dimensional snapshot data.
"""

from .approx import BoxQuadrature, convergence_study, limit_gram_system
from .baselines import (
    GedmdModel, SindyModel, gedmd_fit, koopman_eigenfunctions, sindy_fit,
)
from .dictionary import (
    AugmentedBasis, ConfigurationError, Dictionary, augment, feature_map,
    feature_matrix, full_state_matrix, jacobian, load_dictionary,
    save_dictionary,
)
from .dynamics import (
    IntegrationBlowupError, Trajectory, TrainingSet, VectorField,
    exact_derivatives, finite_diff_derivatives, load_training, rk4_integrate,
    sample_trajectory, sample_uniform, save_training,
)
from .expr import (
    EvaluationDomainError, Expr, ExpressionSyntaxError, evaluate, gradient,
    parse, render,
)
from .fitting import (
    assemble_gram, build_data_matrices, fit, loss, solve_row,
    stationarity_gap,
)
from .model import (
    QuadraticModel, extract_rhs, extract_rhs_many, hurwitz_margin,
    kron_squared, load_model, save_model, simulate, sparsity_report,
    symmetrize,
)
from .reduction import (
    PcaBasis, pca_fit, project, reconstruct, reduced_identification_pipeline,
    synthetic_lift_data,
)

__version__ = "0.1.0"
