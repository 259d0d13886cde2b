"""Rank-constrained support matrix machine with the Heaviside (0/1) loss.

Train a matrix-shaped linear classifier by proximal alternating minimization
with closed-form block updates, check stationarity residuals, and reproduce
the noise-robustness experiment protocol.
"""

from .errors import DataError, HlsmmError, InvalidArgumentError, NumericalError
from .linalg import SvdFactors, project_rank, svd
from .model import (
    Dataset,
    Hyperparams,
    ModelState,
    SolverTrace,
    StepPolicy,
    decision_scores,
    heaviside_count,
    margin_residuals,
    predict,
    predict_batch,
    prox_heaviside,
)
from .solver import FitResult, fit, grad_h, penalized_objective
from .kkt import KktReport, completed_kkt_report, kkt_report, z_stationarity
from .data import (
    DatasetManifest,
    add_gaussian_noise,
    add_salt_pepper_noise,
    load_csv,
    load_smm1,
    make_lowrank_separable,
    normalize_per_sample,
    save_smm1,
    split,
    standardize_features,
)
from .experiments import (
    HyperparamGrid,
    Metrics,
    SweepResult,
    SweepRow,
    evaluate,
    export_convergence_trace,
    export_weight_heatmap,
    grid_search,
    grid_search_cv,
    noise_sweep,
    sensitivity_grid,
)
from .modelfile import LoadedModel, load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "DataError", "HlsmmError", "InvalidArgumentError", "NumericalError",
    "SvdFactors", "project_rank", "svd",
    "Dataset", "Hyperparams", "ModelState", "SolverTrace",
    "StepPolicy", "decision_scores", "heaviside_count", "margin_residuals",
    "penalized_objective", "predict", "predict_batch", "prox_heaviside",
    "FitResult", "fit", "grad_h",
    "KktReport", "completed_kkt_report", "kkt_report", "z_stationarity",
    "DatasetManifest", "add_gaussian_noise", "add_salt_pepper_noise",
    "load_csv", "load_smm1", "make_lowrank_separable", "normalize_per_sample",
    "save_smm1", "split", "standardize_features",
    "HyperparamGrid", "Metrics", "SweepResult", "SweepRow", "evaluate",
    "export_convergence_trace", "export_weight_heatmap", "grid_search",
    "grid_search_cv", "noise_sweep", "sensitivity_grid",
    "LoadedModel", "load_model", "save_model",
    "__version__",
]
