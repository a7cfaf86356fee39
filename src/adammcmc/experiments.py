"""Wiring from a RunConfig to targets, step closures and finished chains.

One SeedSequence per run spawns three independent streams (proposals,
minibatch shuffling, initialization), so a full-batch chain and a minibatch
chain with the same seed see identical proposal noise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chain import (
    ChainRecord,
    ChainSchedule,
    EnsembleSummary,
    NumericalAbort,
    ensemble_predict,
    run_chain,
)
from .config import ConfigError, RunConfig
from .losses import (
    BatchStream,
    GibbsTarget,
    banana_target,
    mlp_target,
    noisy_quadratic_target,
    quadratic_target,
)
from .mlp import MicroMlp, load_dataset_csv, two_moons
from .samplers import (
    AdamParams,
    ChainState,
    CorrectionParams,
    ProposalParams,
    SghmcParams,
    _evaluate,
    adam_step,
    adammcmc_rows_step,
    adammcmc_step,
    mala_step,
    sgd_step,
    sghmc_step,
)


@dataclass
class Experiment:
    """Everything a run needs, assembled from one config."""

    config: RunConfig
    target: GibbsTarget
    schedule: ChainSchedule
    ap: AdamParams
    pp: ProposalParams
    cp: CorrectionParams | None
    net: MicroMlp | None = None
    test_inputs: np.ndarray | None = None
    test_labels: np.ndarray | None = None


@dataclass
class ExperimentResult:
    experiment: Experiment
    summary: EnsembleSummary
    record: ChainRecord


def correction_params(config: RunConfig) -> CorrectionParams | None:
    """The momentum variances of the full correction, None for the unit one:
    s_l^2 = rho_l^2 / (1 - beta_l^2) when rho1, rho2 are set, else s_sq."""
    if config.correction == "unit":
        return None
    if config.rho1 is None:  # validate sets rho1 and rho2 together
        return CorrectionParams(config.s_sq, config.s_sq)
    return CorrectionParams(
        config.rho1**2 / (1.0 - config.beta1**2), config.rho2**2 / (1.0 - config.beta2**2)
    )


def build_experiment(config: RunConfig) -> Experiment:
    """Instantiate a config's target (and dataset, for the classifier) and records."""
    config.validate()
    net = test_x = test_y = None
    if config.target == "quadratic":
        target = quadratic_target(config.dim, config.lam, config.prior_half_width)
    elif config.target == "noisy_quadratic":
        target = noisy_quadratic_target(config.dim, config.lam, config.prior_half_width)
    elif config.target == "banana":
        target = banana_target(config.dim, config.lam, config.prior_half_width)
    else:
        net = MicroMlp()
        if config.dataset:
            try:
                train_x, train_y = load_dataset_csv(config.dataset)
            except (OSError, ValueError) as exc:
                raise ConfigError("dataset", str(exc)) from None
            test_x, test_y = train_x, train_y
        else:
            train_x, train_y, test_x, test_y = two_moons()
        target = mlp_target(net, train_x, train_y, config.lam, config.prior_half_width)
    schedule = ChainSchedule(config.steps, config.burn_in, config.gap, config.n_samples)
    sigma_dir = target.dim / 100.0 if config.sigma_dir is None else float(config.sigma_dir)
    return Experiment(
        config=config,
        target=target,
        schedule=schedule,
        ap=AdamParams(config.gamma, config.beta1, config.beta2, config.delta),
        pp=ProposalParams(config.sigma, sigma_dir),
        cp=correction_params(config),
        net=net,
        test_inputs=test_x,
        test_labels=test_y,
    )


def initial_state(experiment: Experiment, init_rng, chain_rng) -> ChainState:
    """Starting point: He-initialized classifier weights or a small random
    vector for the analytic targets."""
    cfg = experiment.config
    if cfg.target == "mlp":
        theta0 = experiment.net.init_params(init_rng)
    else:
        theta0 = 0.1 * init_rng.standard_normal(cfg.dim)
    state = ChainState.init(theta0, chain_rng)
    state.current = _evaluate(experiment.target, state.theta, None)
    if not np.isfinite(state.current.loss):
        raise NumericalAbort(f"initial loss is not finite: {state.current.loss}")
    return state


def make_step_fn(experiment: Experiment, batches: BatchStream):
    """Bind the configured sampler into a ChainState -> (state, info) closure.

    Within one step the same minibatch feeds the proposal gradient and both
    loss evaluations of the accept test; batches are resampled across steps.
    A full-batch step passes batch=None and leaves the stream alone.
    """
    cfg = experiment.config
    target = experiment.target
    oracle = target.oracle
    ap, pp, cp = experiment.ap, experiment.pp, experiment.cp
    full = batches.batch_size == 0

    if cfg.sampler == "adammcmc":

        def step(state):
            return adammcmc_step(state, target, ap, pp, cp, batch=None if full else batches.next())

    elif cfg.sampler == "mala":

        def step(state):
            batch = None if full else batches.next()
            return mala_step(state, target, cfg.gamma, cfg.sigma, batch=batch)

    elif cfg.sampler == "adam":

        def step(state):
            return adam_step(state, oracle, ap, batch=None if full else batches.next())

    elif cfg.sampler == "sgd":

        def step(state):
            return sgd_step(state, oracle, cfg.gamma, batch=None if full else batches.next())

    else:  # sghmc
        sp = SghmcParams(cfg.gamma, cfg.friction, cfg.noise_scale)

        def step(state):
            return sghmc_step(state, oracle, sp, batch=None if full else batches.next())

    return step


def seed_chain(experiment: Experiment, batch_size: int):
    """A chain's (initial state, minibatch stream): the config seed's
    SeedSequence spawns the proposal, minibatch and initialization streams."""
    chain_seq, batch_seq, init_seq = np.random.SeedSequence(experiment.config.seed).spawn(3)
    state0 = initial_state(
        experiment, np.random.default_rng(init_seq), np.random.default_rng(chain_seq)
    )
    n_points = experiment.target.oracle.n_points
    return state0, BatchStream(n_points, batch_size, np.random.default_rng(batch_seq))


def start_chain(experiment: Experiment, batch_size: int):
    """A chain's (initial state, step function), seeded by seed_chain."""
    state0, batches = seed_chain(experiment, batch_size)
    return state0, make_step_fn(experiment, batches)


def run_experiment(config: RunConfig) -> ExperimentResult:
    """Build, initialize and run one chain as described by the config."""
    experiment = build_experiment(config)
    state0, step_fn = start_chain(experiment, config.batch_size)
    summary, record = run_chain(step_fn, state0, experiment.schedule)
    return ExperimentResult(experiment, summary, record)


# the config fields in which chains that run in lockstep may differ
ROW_FIELDS = ("sigma", "sigma_dir", "beta1", "beta2", "lam", "seed")


def run_experiments(configs: list[RunConfig]) -> list[ExperimentResult]:
    """run_experiment for each config, with the same results.

    Two or more adammcmc configs that differ only in ROW_FIELDS run in
    lockstep as (C, P) arrays, which spreads numpy's per-call cost over the
    chains; other configs run one after another.  Errors are the ones the
    chains raise one after another: a non-finite initial loss raises after
    the chains before it have run, and a diverged chain raises for the
    first one in config order.
    """
    if len(configs) < 2 or configs[0].sampler != "adammcmc":
        return [run_experiment(config) for config in configs]
    shared = [{k: v for k, v in vars(c).items() if k not in ROW_FIELDS} for c in configs]
    if any(other != shared[0] for other in shared):
        raise ValueError(f"lockstep configs may differ only in {ROW_FIELDS}")
    experiments = [build_experiment(config) for config in configs]
    starts, abort = [], None
    for experiment in experiments:
        try:
            starts.append(seed_chain(experiment, configs[0].batch_size))
        except NumericalAbort as exc:
            abort = exc
            break
    results = []
    if starts:
        state0, step_fn = _lockstep(experiments[: len(starts)], starts)
        chains = run_chain(step_fn, state0, experiments[0].schedule)
        results = [ExperimentResult(e, *chain) for e, chain in zip(experiments, chains)]
    if abort is not None:
        raise abort
    return results


def _lockstep(experiments: list[Experiment], starts):
    """The (initial state, step function) of seeded adammcmc chains that
    share a target and batch size, stepping in lockstep on their records
    with the fields that differ across chains stacked into columns."""
    states, streams = zip(*starts)

    def stacked(name, *fields, shape=(-1,)):
        records = [getattr(e, name) for e in experiments]
        if records[0] is None:  # the unit correction
            return None
        return replace(records[0], **{
            f: np.array([getattr(r, f) for r in records], float).reshape(shape) for f in fields
        })

    target, ap = stacked("target", "lam"), stacked("ap", "beta1", "beta2", shape=(-1, 1))
    pp, cp = stacked("pp", "sigma", "sigma_dir"), stacked("cp", "s1_sq", "s2_sq")
    if streams[0].batch_size == 0:
        def step(state):
            return adammcmc_rows_step(state, target, ap, pp, cp)
    else:  # one stream cuts the chains' equal-length batches as (C, B) arrays
        batches = BatchStream(streams[0].n, streams[0].batch_size, [s.rng for s in streams])

        def step(state):
            return adammcmc_rows_step(state, target, ap, pp, cp, batches.next())
    return ChainState.stack(states), step


def ensemble_test_accuracy(result: ExperimentResult) -> tuple[float, np.ndarray | None]:
    """Held-out accuracy of the posterior-mean prediction and the per-input
    spread there (None below two samples), from one ensemble prediction."""
    exp = result.experiment
    if exp.net is None:
        raise ValueError("test accuracy is only defined for the classifier target")
    mean_probs, spread = ensemble_predict(result.summary.samples, exp.net, exp.test_inputs)
    return float((mean_probs.argmax(axis=1) == exp.test_labels).mean()), spread
