"""Tempered-posterior sampling with Adam-driven Metropolis chains.

Core pieces: a rank-one inflated Gaussian proposal (prolate), loss oracles
with minibatch estimates, Metropolis samplers around Adam updates plus MALA
and optimizer baselines, chain orchestration with thinning and ensemble
prediction, and verification diagnostics (detailed balance, TV decay,
acceptance scans).
"""

__version__ = "0.1.0"

from .chain import ChainRecord, ChainSchedule, EnsembleSummary, ensemble_predict, run_chain
from .config import ConfigError, RunConfig
from .losses import (
    BananaLoss,
    GibbsTarget,
    LossOracle,
    MlpClassificationLoss,
    PriorBox,
    QuadraticLoss,
    banana_target,
    make_batches,
    mlp_target,
    quadratic_target,
)
from .mlp import MicroMlp, two_moons
from .prolate import ProlateCovariance
from .samplers import (
    AdamParams,
    ChainState,
    CorrectionParams,
    Momenta,
    ProposalParams,
    SghmcParams,
    StepInfo,
    adam_momentum_update,
    adam_step,
    adam_update_vector,
    adammcmc_log_alpha,
    adammcmc_step,
    mala_step,
    sgd_step,
    sghmc_step,
)

__all__ = [
    "AdamParams",
    "BananaLoss",
    "ChainRecord",
    "ChainSchedule",
    "ChainState",
    "ConfigError",
    "CorrectionParams",
    "EnsembleSummary",
    "GibbsTarget",
    "LossOracle",
    "MicroMlp",
    "MlpClassificationLoss",
    "Momenta",
    "PriorBox",
    "ProposalParams",
    "QuadraticLoss",
    "RunConfig",
    "SghmcParams",
    "StepInfo",
    "adam_momentum_update",
    "adam_step",
    "adam_update_vector",
    "adammcmc_log_alpha",
    "adammcmc_step",
    "banana_target",
    "ensemble_predict",
    "make_batches",
    "mala_step",
    "mlp_target",
    "quadratic_target",
    "run_chain",
    "sgd_step",
    "sghmc_step",
    "two_moons",
]
