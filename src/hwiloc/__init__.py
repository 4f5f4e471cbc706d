"""Uplink localization under residual hardware impairments.

Simulates an OFDM uplink to a uniform linear array, distorts it with
residual transmitter/receiver impairments (phase noise, carrier frequency
offset, mutual coupling, amplifier nonlinearity), runs matched and
mismatched maximum-likelihood position estimators against it, and computes
the corresponding theoretical bounds: the Cramer-Rao bound of either
model and the misspecified bound of the clean-model estimator on impaired
data. A CLI drives seeded sweeps and Monte-Carlo trials to CSV.

Both receiver chains are one link model, :class:`ProjectionModel`; the
estimators and bounds take it. The submodules hold the lower-level pieces.
"""

from .bounds import BoundsReport, crb_m1_numeric, crb_m2_report, fim, lb_report, pseudo_true
from .config_io import (
    SWEEP_AXES,
    ExperimentSpec,
    parse_config_text,
    resolve_spec,
    spec_to_text,
)
from .estimation import Estimate, EstimatorConfig, NumericError, mle_m1, mmle_m2
from .harness import rows_to_csv, run_bounds_sweep, run_estimator_trials
from .impairments import ImpairmentConfig, ImpairmentRealization, sample_realization
from .model import (
    SPEED_OF_LIGHT,
    ChannelParams,
    ConfigError,
    PilotBlock,
    SystemConfig,
    geometric_params,
    noise_std,
)
from .observation import ProjectionModel, mu_m1, observe
from .validation import validate_build

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ChannelParams",
    "ConfigError",
    "Estimate",
    "EstimatorConfig",
    "ExperimentSpec",
    "ImpairmentConfig",
    "ImpairmentRealization",
    "NumericError",
    "PilotBlock",
    "ProjectionModel",
    "SPEED_OF_LIGHT",
    "SWEEP_AXES",
    "SystemConfig",
    "crb_m1_numeric",
    "crb_m2_report",
    "fim",
    "geometric_params",
    "lb_report",
    "mle_m1",
    "mmle_m2",
    "mu_m1",
    "noise_std",
    "observe",
    "parse_config_text",
    "pseudo_true",
    "resolve_spec",
    "rows_to_csv",
    "run_bounds_sweep",
    "run_estimator_trials",
    "sample_realization",
    "spec_to_text",
    "validate_build",
]
