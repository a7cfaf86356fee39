"""Chains in lockstep: run_chain over a ChainState.stack state and
adammcmc_rows_step gives every chain the bytes run_chain gives it alone, on
every target, scan parameter and correction, and scan_acceptance's groups
raise the errors the chains raise one after another."""

import math
import multiprocessing
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adammcmc import experiments
from adammcmc.chain import NumericalAbort, run_chain, save_samples_csv
from adammcmc.config import RunConfig
from adammcmc.diagnostics import (
    SCAN_FIELDS,
    SCAN_PARAMS,
    _scan_group,
    apply_scan_value,
    scan_acceptance,
)
from adammcmc.experiments import _lockstep, build_experiment, run_experiment, seed_chain
from adammcmc.losses import (
    GibbsTarget,
    LossOracle,
    NoisyQuadraticLoss,
    PriorBox,
    QuadraticLoss,
)
from adammcmc.mlp import save_dataset_csv, two_moons
from adammcmc.prolate import _safe_norm, _safe_norm_rows
from adammcmc.samplers import (
    AdamParams,
    ChainState,
    Evaluation,
    ProposalParams,
    adammcmc_rows_step,
    adammcmc_step,
)

COLUMNS = ("loss", "log_alpha", "accepted", "theta_norm", "u_norm")
SHORT = dict(steps=40, burn_in=10, gap=5, n_samples=6, gamma=0.05, beta1=0.9, beta2=0.9)


@pytest.fixture(scope="module")
def tiny_moons(tmp_path_factory):
    """A 40-point two-moons CSV: the MLP target at a fraction of a sweep."""
    path = tmp_path_factory.mktemp("moons") / "moons.csv"
    x, y, _, _ = two_moons(n_train=40, n_test=1)
    save_dataset_csv(path, x, y)
    return str(path)


def base_config(target, dataset, batch_size, correction, rho):
    """A short config of each target; the noisy quadratic's 400 points leave
    a short last batch of 16 at batch size 48, the quadratic's 100 one of 10
    at 30."""
    if target == "mlp":
        cfg = RunConfig(target="mlp", dataset=dataset, sigma=0.01, sigma_dir=20.0, **SHORT)
        cfg = cfg.replace(gamma=0.001, batch_size=16 if batch_size else 0)
    elif target == "noisy_quadratic":
        cfg = RunConfig(target=target, dim=4, sigma=0.5, sigma_dir=1.0, batch_size=48, **SHORT)
    else:
        dim = 3 if target == "banana" else 2
        cfg = RunConfig(target=target, dim=dim, sigma=0.5, sigma_dir=1.0, batch_size=batch_size,
                        **SHORT)
    cfg = cfg.replace(correction=correction)
    return cfg.replace(rho1=0.1, rho2=0.2) if rho else cfg


VALUES = {
    "sigma": st.sampled_from([0.05, 0.3, 0.5, 1.5]),
    "sigma_dir": st.sampled_from([0.0, 0.5, 3.0]),
    "beta": st.sampled_from([0.0, 0.5, 0.9, 0.999]),
    "lambda": st.sampled_from([0.2, 1.0, 4.0]),
}


@st.composite
def scans(draw):
    target = draw(st.sampled_from(["quadratic", "banana", "mlp", "noisy_quadratic"]))
    param = draw(st.sampled_from(SCAN_PARAMS))
    n_chains = draw(st.integers(1, 6))
    values = draw(st.lists(VALUES[param], min_size=n_chains, max_size=n_chains))
    seeds = draw(st.lists(st.integers(0, 99), min_size=n_chains, max_size=n_chains))
    batch_size = draw(st.sampled_from([0, 30]))
    correction = draw(st.sampled_from(["unit", "full"]))
    return target, param, list(zip(values, seeds)), batch_size, correction, draw(st.booleans())


def scan_tasks(dataset, target, param, chains, batch_size, correction, rho):
    base = base_config(target, dataset, batch_size, correction, rho)
    if target == "mlp" and param == "sigma":
        chains = [(0.02 * value, seed) for value, seed in chains]  # sigma is per weight
    return [(apply_scan_value(base, param, v).replace(seed=s), param, v) for v, s in chains]


def row_bytes(row):
    floats = (row.value, row.mean_acceptance, row.metric)
    return (row.param, row.seed, row.metric_name, struct.pack("3d", *floats))


def test_every_scan_parameter_is_a_row_field():
    # scan_acceptance runs each group's chains through run_experiments, which
    # raises for configs that differ outside ROW_FIELDS; the draws below
    # cover only today's scan parameters
    scanned = {field for fields in SCAN_FIELDS.values() for field in fields}
    assert scanned | {"seed"} <= set(experiments.ROW_FIELDS)


class TestBitIdentity:
    @settings(max_examples=40)
    @given(scan=scans())
    @example(scan=("quadratic", "sigma_dir", [(0.0, 1), (3.0, 2), (0.0, 3)], 0, "unit", False))
    @example(scan=("noisy_quadratic", "sigma_dir", [(0.5, 4), (0.0, 5)], 0, "full", True))
    @example(scan=("mlp", "beta", [(0.5, 0), (0.9, 1)], 0, "unit", False))
    @example(scan=("mlp", "lambda", [(1.0, 0), (4.0, 1), (0.2, 2)], 30, "full", False))
    @example(scan=("banana", "lambda", [(0.2, 7)], 30, "full", True))
    def test_rows_match_the_chains_run_alone(self, tiny_moons, scan):
        tasks = scan_tasks(tiny_moons, *scan)
        configs = [config for config, _, _ in tasks]
        built = [build_experiment(config) for config in configs]
        state0, step_fn = _lockstep(built, [seed_chain(e, configs[0].batch_size) for e in built])
        lockstep = run_chain(step_fn, state0, built[0].schedule)
        for config, (summary, record) in zip(configs, lockstep):
            alone = run_experiment(config)
            for name in COLUMNS:
                got, want = getattr(record, name), getattr(alone.record, name)
                assert got.tobytes() == want.tobytes(), name
            assert record.step_seconds is None
            assert record.n_boundary_rejects == alone.record.n_boundary_rejects
            assert summary.samples.tobytes() == alone.summary.samples.tobytes()
        # a group of one runs its chain through run_experiment
        rows = _scan_group(tasks)
        assert [row_bytes(r) for r in rows] == [row_bytes(_scan_group([t])[0]) for t in tasks]

    @pytest.mark.parametrize("sigma_dir", [0.0, 2.0])
    def test_zero_update_vector_row_matches_its_chain(self, sigma_dir):
        # theta = 0 on the quadratic with zero momenta has a zero gradient and
        # so an exactly zero update vector; the row step's mask must give its
        # reverse ratio 0, as adammcmc_step's branch does, and warn nothing
        target = GibbsTarget(QuadraticLoss(3), 1.0, PriorBox(10.0))
        starts = [np.zeros(3), np.array([0.4, -1.2, 0.7])]
        ap, pp = AdamParams(0.05, 0.9, 0.99), ProposalParams(0.3, sigma_dir)
        rows_target = GibbsTarget(target.oracle, np.full(2, target.lam), target.prior)
        rows_ap = AdamParams(
            ap.gamma, np.full((2, 1), ap.beta1), np.full((2, 1), ap.beta2), ap.delta
        )
        rows_pp = ProposalParams(np.full(2, pp.sigma), np.full(2, pp.sigma_dir))

        def evaluated(seed):
            state = ChainState.init(starts[seed], seed)
            loss, grad_fn = target.oracle.evaluate(state.theta, None)
            state.current = Evaluation(loss, target.prior.contains(state.theta), True, grad_fn)
            return state

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, info = adammcmc_rows_step(ChainState.stack([evaluated(0), evaluated(1)]),
                                            rows_target, rows_ap, rows_pp)
            alone = [adammcmc_step(evaluated(seed), target, ap, pp) for seed in (0, 1)]
        for c, (state, want) in enumerate(alone):
            assert rows.theta[c].tobytes() == state.theta.tobytes()
            assert rows.momenta.m1[c].tobytes() == state.momenta.m1.tobytes()
            assert rows.momenta.m2[c].tobytes() == state.momenta.m2.tobytes()
            for name in ("accepted", "log_alpha", "loss", "u_norm", "proposal_in_prior"):
                got = np.float64(getattr(info, name)[c]).tobytes()
                assert got == np.float64(getattr(want, name)).tobytes(), name
        # the zero row proposes tau = sigma * z and accepts on the loss alone
        tau = pp.sigma * np.random.default_rng(0).standard_normal(3)
        assert info.u_norm[0] == 0.0
        assert info.log_alpha[0] == -target.lam * target.oracle.evaluate(tau, None)[0]

    @settings(max_examples=60)
    @given(
        oracle=st.sampled_from(["quadratic", "noisy"]),
        n_chains=st.integers(1, 6),
        batch=st.sampled_from([None, 1, 7, 32]),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
    )
    def test_evaluate_rows_overrides_match_the_row_loop(self, oracle, n_chains, batch, seed, scale):
        rng = np.random.default_rng(seed)
        loss = QuadraticLoss(5) if oracle == "quadratic" else NoisyQuadraticLoss(5, n_points=60)
        thetas = scale * rng.standard_normal((n_chains, 5))
        indices = None
        if batch is not None:
            shuffled = rng.permuted(np.tile(np.arange(60), (n_chains, 1)), axis=1)
            indices = np.sort(shuffled[:, :batch])
        # the override reads one batch() of the (C, B) indices, the row loop
        # one batch() a row
        got, want = None, None
        if indices is not None:
            got, want = loss.batch(indices), [loss.batch(row) for row in indices]
        got_losses, got_grads = loss.evaluate_rows(thetas, got)
        want_losses, want_grads = LossOracle.evaluate_rows(loss, thetas, want)
        assert got_losses.tobytes() == want_losses.tobytes()
        assert got_grads().tobytes() == want_grads().tobytes()
        rows = np.flatnonzero(rng.random(n_chains) < 0.5)
        assert got_grads(rows).tobytes() == want_grads(rows).tobytes()

    def test_row_loop_rejects_a_batch_count_that_differs_from_the_rows(self):
        # the noisy oracle's batch() of (C, B) indices is one 1-tuple, not one
        # batch a row: the row loop must not evaluate only its first row
        loss = NoisyQuadraticLoss(5, n_points=60)
        idx = np.arange(24).reshape(3, 8)
        with pytest.raises(ValueError):
            LossOracle.evaluate_rows(loss, np.zeros((3, 5)), loss.batch(idx))


def pool_jobs():
    # the patched oracle below reaches pool workers only through fork
    return [1, 2] if multiprocessing.get_start_method() == "fork" else [1]


class Brittle(QuadraticLoss):
    """The quadratic with non-finite losses: on the full data left of
    theta_0 = full_below, and on any batch holding point 0 right of
    theta_0 = batch_above.  A chain accepts a point on a batch without
    point 0, re-evaluates it on one with it and logs an infinite loss."""

    full_below = -math.inf
    batch_above = math.inf

    def evaluate(self, theta, indices):
        loss, grad = super().evaluate(theta, indices)
        if indices is None and theta[0] < self.full_below:
            loss = math.inf
        if indices is not None and 0 in indices and theta[0] > self.batch_above:
            loss = math.inf
        return loss, grad

    evaluate_rows = LossOracle.evaluate_rows


@pytest.fixture
def brittle(monkeypatch):
    def target(dim, lam, half_width):
        return GibbsTarget(Brittle(dim), lam, PriorBox(half_width))

    monkeypatch.setattr(experiments, "quadratic_target", target)
    return Brittle


def first_error(tasks) -> str:
    """The message of the first error the chains raise one after another."""
    for config, _, _ in tasks:
        try:
            run_experiment(config)
        except NumericalAbort as exc:
            return str(exc)
    raise AssertionError("no chain raised")


def csv_bytes(result, out):
    """The record.csv + samples.csv bytes that `adammcmc run` writes."""
    out.mkdir()
    result.record.to_csv(out / "record.csv")
    save_samples_csv(out / "samples.csv", result.summary.samples)
    return (out / "record.csv").read_bytes() + (out / "samples.csv").read_bytes()


class TestSigmaDirDefault:
    """An unset sigma_dir is dim / 100, built once into the experiment's
    ProposalParams, for one chain and for each row of a lockstep group."""

    UNSET = RunConfig(target="noisy_quadratic", dim=4, sigma=0.5, batch_size=48, **SHORT)

    def test_one_chain(self, tmp_path):
        def run(sigma_dir):
            config = self.UNSET.replace(sigma_dir=sigma_dir)
            return csv_bytes(run_experiment(config), tmp_path / str(sigma_dir))

        unset = run(None)
        assert unset == run(0.04)
        assert unset != run(0.0)

    def test_lockstep_group(self, tmp_path):
        def group(sigma_dir):
            return [(self.UNSET.replace(sigma=s, seed=seed, sigma_dir=sigma_dir), "sigma", s)
                    for s, seed in ((0.5, 1), (0.3, 2))]

        unset, explicit = group(None), group(0.04)
        results = experiments.run_experiments([config for config, _, _ in unset])
        wants = experiments.run_experiments([config for config, _, _ in explicit])
        for c, (got, want) in enumerate(zip(results, wants)):
            assert csv_bytes(got, tmp_path / f"unset{c}") == csv_bytes(want, tmp_path / f"set{c}")
        assert [row_bytes(r) for r in _scan_group(unset)] == [
            row_bytes(r) for r in _scan_group(explicit)
        ]


BRITTLE_SCAN = RunConfig(target="quadratic", dim=2, sigma=0.5, sigma_dir=1.0, batch_size=10,
                         **SHORT).replace(steps=200, burn_in=100, gap=10, n_samples=10)


class TestErrors:
    @pytest.mark.parametrize("jobs", pool_jobs())
    @pytest.mark.parametrize(
        "full_below, batch_above, fragment",
        [
            (-math.inf, 1.5, "chain diverged at step"),
            (-0.03, math.inf, "initial loss is not finite"),  # seed 3's theta_0 is -0.036
            (-0.03, 1.2, "chain diverged at step"),  # the second chain, before seed 3 starts
            (-0.03, 2.0, "initial loss is not finite"),  # before a later chain diverges
        ],
    )
    def test_group_raises_the_first_chains_error(
        self, brittle, monkeypatch, jobs, full_below, batch_above, fragment
    ):
        monkeypatch.setattr(brittle, "full_below", full_below)
        monkeypatch.setattr(brittle, "batch_above", batch_above)
        grid = [0.3, 0.6, 1.2]
        tasks = [(apply_scan_value(BRITTLE_SCAN, "sigma", v).replace(seed=BRITTLE_SCAN.seed + r),
                  "sigma", v) for v in grid for r in range(4)]
        want = first_error(tasks)
        assert fragment in want
        # the first chain runs clean, so the error is some later chain's
        run_experiment(tasks[0][0])
        with np.errstate(all="ignore"), pytest.raises(NumericalAbort, match=re.escape(want)):
            scan_acceptance(BRITTLE_SCAN, "sigma", grid, n_replicates=3, jobs=jobs)

    def test_configs_differing_outside_the_row_fields_raise(self):
        configs = [BRITTLE_SCAN, BRITTLE_SCAN.replace(seed=4, gamma=0.01)]
        with pytest.raises(ValueError, match="may differ only in"):
            experiments.run_experiments(configs)

    def test_row_norms_are_safe_norms_and_warn_nothing(self):
        x = np.array([
            [1e200, 1e200], [1e-200, -1e-200], [0.0, 0.0], [3.0, 4.0],
            [math.nan, 1.0], [math.inf, 1.0], [1e300, -1e300], [5e-324, 0.0],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _safe_norm_rows(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.array([_safe_norm(row) for row in x])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overflowing_update_vector_rows_match_serial(self, jobs):
        # gamma = 1e200 puts |u|^2 past the float range: the norm takes the
        # guarded path, and every proposal lands outside the prior box
        config = BRITTLE_SCAN.replace(gamma=1e200, batch_size=0)
        rows = scan_acceptance(config, "sigma", [0.3, 0.6], n_replicates=1, jobs=jobs)
        with np.errstate(all="ignore"):  # the one-chain adam drift still warns
            alone = [_scan_group([(config.replace(sigma=v, seed=config.seed + r), "sigma", v)])[0]
                     for v in (0.3, 0.6) for r in range(2)]
        assert [row_bytes(r) for r in rows] == [row_bytes(r) for r in alone]
        assert all(r.mean_acceptance == 0.0 for r in rows)

    # warning filters reach pool workers only through fork, as the patched oracle does
    @pytest.mark.parametrize("jobs", pool_jobs())
    @pytest.mark.parametrize(
        "target, batch_size", [("quadratic", 0), ("noisy_quadratic", 32), ("banana", 0)]
    )
    def test_overflowing_proposals_warn_nothing(self, jobs, target, batch_size):
        # the row step evaluates each proposal inside its np.errstate block,
        # so a loss that overflows is rejected without a warning
        config = BRITTLE_SCAN.replace(target=target, gamma=1e200, batch_size=batch_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = scan_acceptance(config, "sigma", [0.3, 0.6], n_replicates=1, jobs=jobs)
        assert all(r.mean_acceptance == 0.0 for r in rows)
