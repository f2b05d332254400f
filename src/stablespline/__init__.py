"""Outlier-robust identification of linear SISO systems.

Finite impulse responses are estimated from input/output records under a
stable spline Gaussian prior, either by empirical-Bayes marginal
likelihood under Gaussian noise (SS-ML) or by a Gibbs sampler that models
Laplacian noise as a scale mixture of Gaussians (SS-GS).  A Monte Carlo
benchmark harness compares the two at configurable scale.
"""

__version__ = "0.1.0"

from .benchmark import (
    ExperimentConfig,
    InputKind,
    RunResult,
    TransferFunction,
    generate_input,
    generate_system,
    impulse_response,
    run_experiment,
    summarize,
)
from .distributions import RngHandle, sample_noise_mixture
from .errors import ConfigError, NumericError
from .gibbs import (
    GibbsChain,
    GibbsConfig,
    QuantileReport,
    conditional_g,
    conditional_lambda,
    conditional_tau,
    quantile_diagnostics,
    run_gibbs,
)
from .kernels import (
    KernelOrder,
    KernelSpec,
    build_kernel,
    kernel_factor,
    kernel_quadratic_form,
)
from .model import Dataset, Hyperparameters, build_regressor, fit_score
from .posterior import posterior_moments
from .ssml import SsmlResult, posterior_mean, run_ssml

__all__ = [
    "__version__",
    "ConfigError",
    "NumericError",
    "Dataset",
    "Hyperparameters",
    "build_regressor",
    "fit_score",
    "KernelOrder",
    "KernelSpec",
    "build_kernel",
    "kernel_factor",
    "kernel_quadratic_form",
    "RngHandle",
    "sample_noise_mixture",
    "SsmlResult",
    "posterior_mean",
    "posterior_moments",
    "run_ssml",
    "GibbsConfig",
    "GibbsChain",
    "QuantileReport",
    "conditional_tau",
    "conditional_lambda",
    "conditional_g",
    "run_gibbs",
    "quantile_diagnostics",
    "InputKind",
    "TransferFunction",
    "ExperimentConfig",
    "RunResult",
    "generate_system",
    "impulse_response",
    "generate_input",
    "run_experiment",
    "summarize",
]
