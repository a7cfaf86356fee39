"""Minibatches: a lockstep group's (C, B) batches are the batches each
chain's own stream cuts, and a minibatch step gathers its batch once."""

import numpy as np
import pytest

from adammcmc import experiments
from adammcmc.chain import run_chain
from adammcmc.config import RunConfig
from adammcmc.experiments import _lockstep, build_experiment, seed_chain, start_chain
from adammcmc.losses import BatchStream, GibbsTarget, NoisyQuadraticLoss, PriorBox

N_POINTS = 400


@pytest.mark.parametrize("batch_size", [32, 48])  # 48 leaves a short last batch of 16
def test_lockstep_rows_are_each_chains_own_batches(batch_size):
    seeds = [3, 1, 4, 15, 9]
    rows = BatchStream(N_POINTS, batch_size, [np.random.default_rng(s) for s in seeds])
    alone = [BatchStream(N_POINTS, batch_size, np.random.default_rng(s)) for s in seeds]
    per_epoch = -(-N_POINTS // batch_size)
    for _ in range(3 * per_epoch):
        got = rows.next()
        want = np.array([stream.next() for stream in alone])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch_size", [0, N_POINTS, N_POINTS + 1])
def test_full_batch_rows_stream_gives_none_and_draws_nothing(batch_size):
    rngs = [np.random.default_rng(s) for s in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    stream = BatchStream(N_POINTS, batch_size, rngs)
    assert all(stream.next() is None for _ in range(5))
    assert [rng.bit_generator.state for rng in rngs] == before


class CountingNoisy(NoisyQuadraticLoss):
    """The noisy quadratic, counting the batches it gathers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gathers = 0

    def batch(self, indices):
        self.gathers += 1
        return super().batch(indices)


@pytest.fixture
def counting(monkeypatch):
    def target(dim, lam, half_width):
        return GibbsTarget(CountingNoisy(dim), lam, PriorBox(half_width))

    monkeypatch.setattr(experiments, "noisy_quadratic_target", target)


BASE = RunConfig(target="noisy_quadratic", dim=4, sigma=0.5, sigma_dir=1.0, steps=40, burn_in=10,
                 gap=5, n_samples=6, gamma=0.05, beta1=0.9, beta2=0.9)


@pytest.mark.parametrize("sampler", ["adammcmc", "mala", "adam", "sgd", "sghmc"])
@pytest.mark.parametrize("batch_size", [0, 32])
def test_one_chain_step_gathers_its_batch_once(counting, sampler, batch_size):
    experiment = build_experiment(BASE.replace(sampler=sampler, batch_size=batch_size))
    state0, step_fn = start_chain(experiment, batch_size)
    run_chain(step_fn, state0, experiment.schedule)
    assert experiment.target.oracle.gathers == (BASE.steps if batch_size else 0)


@pytest.mark.parametrize("batch_size", [0, 32])
def test_lockstep_step_gathers_its_batch_once(counting, batch_size):
    built = [build_experiment(BASE.replace(batch_size=batch_size, sigma=s, seed=seed))
             for s in (0.3, 0.6) for seed in range(3)]
    state0, step_fn = _lockstep(built, [seed_chain(e, batch_size) for e in built])
    run_chain(step_fn, state0, built[0].schedule)
    assert built[0].target.oracle.gathers == (BASE.steps if batch_size else 0)
