"""Bayesian last-changepoint probabilities with a GLR baseline and benchmark."""

from .gaussian_stats import EstimationMode, PrefixStats
from .glr import GlrConfig, GlrState, glr_decision
from .harness import (
    DetectorKind,
    DetectorParams,
    ScenarioSpec,
    SweepResult,
    TrialRecord,
    interpolate_at_alpha,
    sigma_sweep,
    threshold_sweep,
    trimmed_mean_delay,
)
from .kernel import (
    CppConfig,
    CppState,
    PosteriorMatrix,
    ProbabilityVector,
    SingleCpModel,
    jacobi_step,
)

__all__ = [
    "CppConfig",
    "CppState",
    "DetectorKind",
    "DetectorParams",
    "EstimationMode",
    "GlrConfig",
    "GlrState",
    "PosteriorMatrix",
    "PrefixStats",
    "ProbabilityVector",
    "ScenarioSpec",
    "SingleCpModel",
    "SweepResult",
    "TrialRecord",
    "glr_decision",
    "interpolate_at_alpha",
    "jacobi_step",
    "sigma_sweep",
    "threshold_sweep",
    "trimmed_mean_delay",
]

__version__ = "0.1.0"
