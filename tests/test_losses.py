"""Loss oracles: finite-difference gradients, unbiased batching, Gibbs targets."""

import numpy as np
import pytest

from adammcmc.config import RunConfig
from adammcmc.experiments import run_experiment
from adammcmc.losses import (
    BananaLoss,
    BatchStream,
    GibbsTarget,
    MlpClassificationLoss,
    NoisyQuadraticLoss,
    PriorBox,
    QuadraticLoss,
    make_batches,
    quadratic_target,
)
from adammcmc.mlp import (
    MicroMlp,
    load_dataset_csv,
    ood_inputs,
    save_dataset_csv,
    two_moons,
)


def central_diff_grad(fn, theta, rel_step=1e-4, mask_fn=None):
    """Independent finite-difference oracle for gradients.

    Coordinates whose perturbation window straddles a ReLU kink (detected by
    mask_fn changing between theta-h and theta+h) are marked invalid: central
    differences are not a valid oracle across a nondifferentiability.
    """
    g = np.zeros_like(theta)
    valid = np.ones(theta.size, dtype=bool)
    for i in range(theta.size):
        h = rel_step * (1.0 + abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
        if mask_fn is not None and not np.array_equal(mask_fn(up), mask_fn(dn)):
            valid[i] = False
    return g, valid


def relu_mask(oracle, theta):
    """Activation pattern of every hidden unit over the whole dataset."""
    if not hasattr(oracle, "net"):
        return np.zeros(1)
    h = oracle.inputs
    masks = []
    for w, b in oracle.net.unpack(theta)[:-1]:
        z = h @ w + b
        masks.append((z > 0.0).ravel())
        h = np.maximum(z, 0.0)
    return np.concatenate(masks)


def make_oracles():
    net = MicroMlp((2, 8, 8, 2))
    x, y, _, _ = two_moons(n_train=64, n_test=8, seed=3)
    return [
        QuadraticLoss(5),
        NoisyQuadraticLoss(3, n_points=50),
        BananaLoss(4, curvature=5.0),
        MlpClassificationLoss(net, x, y),
    ]


class TestGradients:
    @pytest.mark.parametrize("oracle", make_oracles(), ids=lambda o: type(o).__name__)
    def test_matches_finite_differences(self, oracle):
        rng = np.random.default_rng(42)
        n_skipped = 0
        for _ in range(10):
            theta = rng.standard_normal(oracle.dim)
            fd, valid = central_diff_grad(
                oracle.eval, theta, mask_fn=lambda t: relu_mask(oracle, t)
            )
            # cold: the last evaluation was at a perturbed point
            got = oracle.grad(theta)
            np.testing.assert_allclose(got[valid], fd[valid], rtol=1e-5, atol=1e-7)
            # warm: the gradient right after an evaluation at the same point
            oracle.eval(theta)
            warm = oracle.grad(theta)
            np.testing.assert_allclose(warm[valid], fd[valid], rtol=1e-5, atol=1e-7)
            np.testing.assert_array_equal(warm, got)
            n_skipped += int((~valid).sum())
        # kink crossings must stay rare or the check is vacuous
        assert n_skipped <= oracle.dim


class TestBatching:
    def test_single_full_batch(self):
        rng = np.random.default_rng(0)
        batches = make_batches(10, 10, rng)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.arange(10))

    def test_partition_sizes_and_cover(self):
        rng = np.random.default_rng(1)
        batches = make_batches(10, 3, rng)
        assert sorted(len(b) for b in batches) == [1, 3, 3, 3]
        union = np.concatenate(batches)
        assert len(union) == 10
        np.testing.assert_array_equal(np.sort(union), np.arange(10))

    def test_batch_size_out_of_range(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            make_batches(10, 0, rng)
        with pytest.raises(ValueError):
            make_batches(10, 11, rng)

    def test_reshuffled_each_epoch(self):
        stream = BatchStream(50, 7, np.random.default_rng(5))
        epoch1 = [stream.next() for _ in range(8)]
        epoch2 = [stream.next() for _ in range(8)]
        assert not all(
            np.array_equal(a, b) for a, b in zip(epoch1, epoch2)
        )

    def test_full_batch_stream_is_rng_silent(self):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        stream = BatchStream(100, 0, rng)
        assert all(stream.next() is None for _ in range(5))
        assert rng.bit_generator.state == before

    def test_weighted_batch_mean_equals_full_loss(self):
        net = MicroMlp((2, 6, 2))
        x, y, _, _ = two_moons(n_train=37, n_test=8, seed=11)
        oracle = MlpClassificationLoss(net, x, y)
        rng = np.random.default_rng(3)
        theta = oracle.check_theta(net.init_params(rng))
        batches = make_batches(oracle.n_points, 5, rng)
        weighted = sum(len(b) * oracle.eval_batch(theta, b) for b in batches)
        assert weighted / oracle.n_points == pytest.approx(
            oracle.eval(theta), rel=1e-10
        )

    def test_full_indices_bitwise_equal_to_eval(self):
        net = MicroMlp((2, 6, 2))
        x, y, _, _ = two_moons(n_train=24, n_test=8, seed=13)
        oracle = MlpClassificationLoss(net, x, y)
        theta = net.init_params(np.random.default_rng(1))
        assert oracle.eval_batch(theta, np.arange(24)) == oracle.eval(theta)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts hidden-layer sweeps of every MicroMlp while the test runs."""
    count = [0]
    original = MicroMlp._hidden

    def counted(self, layers, inputs):
        count[0] += 1
        return original(self, layers, inputs)

    monkeypatch.setattr(MicroMlp, "_hidden", counted)
    return count


class TestMlpForwardMemo:
    """eval_batch keeps its forward pass for a grad_batch at the same point."""

    @staticmethod
    def make_case():
        net = MicroMlp((2, 8, 8, 2))
        x, y, _, _ = two_moons(n_train=64, n_test=8, seed=3)
        rng = np.random.default_rng(7)
        return net, MlpClassificationLoss(net, x, y), x, y, rng

    @staticmethod
    def fresh_grad(net, x, y, theta, indices):
        rows = slice(None) if indices is None else indices
        return net.loss_and_grad(theta, x[rows], y[rows])[1]

    @pytest.mark.parametrize("indices", [None, np.array([1, 4, 9, 10, 33, 50])])
    def test_warm_gradient_is_bitwise_fresh(self, indices, sweeps):
        net, oracle, x, y, rng = self.make_case()
        theta = net.init_params(rng)
        oracle.eval_batch(theta, indices)
        before = sweeps[0]
        got = oracle.grad_batch(theta, indices)
        assert sweeps[0] == before  # served from the kept forward pass
        np.testing.assert_array_equal(got, self.fresh_grad(net, x, y, theta, indices))

    def test_other_theta_is_recomputed(self):
        net, oracle, x, y, rng = self.make_case()
        theta1, theta2 = net.init_params(rng), net.init_params(rng)
        oracle.eval(theta1)
        got = oracle.grad(theta2)
        np.testing.assert_array_equal(got, self.fresh_grad(net, x, y, theta2, None))
        assert not np.array_equal(got, self.fresh_grad(net, x, y, theta1, None))

    def test_theta_mutated_in_place_is_recomputed(self):
        net, oracle, x, y, rng = self.make_case()
        theta = net.init_params(rng)
        before = self.fresh_grad(net, x, y, theta, None)
        oracle.eval(theta)
        theta += 0.1 * rng.standard_normal(theta.size)
        got = oracle.grad(theta)
        np.testing.assert_array_equal(got, self.fresh_grad(net, x, y, theta, None))
        assert not np.array_equal(got, before)

    def test_kept_pass_is_released_with_its_theta(self):
        # a retained oracle must not pin the activations of a dead point
        net, oracle, x, y, rng = self.make_case()
        theta = net.init_params(rng)
        oracle.eval(theta)
        assert oracle._memo is not None
        del theta
        assert oracle._memo is None

    @pytest.mark.parametrize(
        "first, second",
        [(np.array([0, 1, 2, 3]), np.array([0, 1, 2, 5])), (np.array([0, 1, 2, 3]), None),
         (None, np.arange(32))],
        ids=["other-batch", "batch-then-full", "full-then-batch"],
    )
    def test_other_indices_are_recomputed(self, first, second):
        net, oracle, x, y, rng = self.make_case()
        theta = net.init_params(rng)
        oracle.eval_batch(theta, first)
        got = oracle.grad_batch(theta, second)
        np.testing.assert_array_equal(got, self.fresh_grad(net, x, y, theta, second))

    @pytest.mark.parametrize("batch_size", [0, 32])
    def test_one_sweep_per_evaluation_in_a_chain(self, batch_size, sweeps, monkeypatch):
        calls = {"eval_batch": 0, "grad_batch": 0}
        for name in calls:
            original = getattr(MlpClassificationLoss, name)

            def counted(self, theta, indices, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, theta, indices)

            monkeypatch.setattr(MlpClassificationLoss, name, counted)
        config = RunConfig(
            target="mlp", sampler="adammcmc", gamma=1e-3, sigma=0.01, sigma_dir=20.0,
            steps=50, burn_in=40, gap=5, n_samples=2, batch_size=batch_size,
        )
        result = run_experiment(config)
        assert result.record.acceptance_rate > 0.5
        # every gradient the chain takes follows an evaluation at its point,
        # so only evaluations sweep forward
        assert calls["grad_batch"] > 0.5 * config.steps
        assert sweeps[0] == calls["eval_batch"]


class TestNoisyQuadratic:
    def test_full_loss_is_shifted_quadratic(self):
        oracle = NoisyQuadraticLoss(4, n_points=200, seed=9)
        c_bar = oracle.center_mean
        spread = 0.5 * float(np.mean(np.sum((oracle.centers - c_bar) ** 2, axis=1)))
        rng = np.random.default_rng(1)
        for _ in range(5):
            theta = rng.standard_normal(4)
            expect = 0.5 * float((theta - c_bar) @ (theta - c_bar)) + spread
            assert oracle.eval(theta) == pytest.approx(expect, rel=1e-12)

    def test_batch_estimates_are_noisy_but_unbiased(self):
        oracle = NoisyQuadraticLoss(4, n_points=120, seed=9)
        theta = np.ones(4)
        rng = np.random.default_rng(2)
        batches = make_batches(120, 30, rng)
        values = [oracle.eval_batch(theta, b) for b in batches]
        assert np.std(values) > 0.0
        weighted = sum(len(b) * v for b, v in zip(batches, values)) / 120
        assert weighted == pytest.approx(oracle.eval(theta), rel=1e-10)


class TestPriorAndTarget:
    def test_prior_box_membership(self):
        box = PriorBox(2.0)
        assert box.contains(np.array([2.0, -2.0]))
        assert not box.contains(np.array([2.0001, 0.0]))

    def test_log_density_outside_box(self):
        target = quadratic_target(3, lam=2.0, half_width=1.0)
        assert target.log_unnorm(np.array([0.5, 0.5, 0.5])) == pytest.approx(
            -2.0 * 0.375
        )
        assert target.log_unnorm(np.array([1.5, 0.0, 0.0])) == -np.inf

    def test_quadratic_target_scaling(self):
        # lam=4 posterior has per-coordinate std 0.5 (far from the box edge).
        target = quadratic_target(2, lam=4.0, half_width=10.0)
        assert target.lam == 4.0
        theta = np.array([0.3, -0.4])
        assert target.log_unnorm(theta) == pytest.approx(-4.0 * 0.125)

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_target(0)
        with pytest.raises(ValueError):
            PriorBox(0.0)
        with pytest.raises(ValueError):
            GibbsTarget(QuadraticLoss(2), 0.0, PriorBox(1.0))
        with pytest.raises(ValueError):
            BananaLoss(1)


class TestMicroMlp:
    def test_zero_params_give_uniform_probs(self):
        net = MicroMlp()
        probs = net.forward(np.zeros(net.n_params), np.random.default_rng(0).standard_normal((20, 2)))
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_rows_are_probability_vectors(self):
        net = MicroMlp()
        rng = np.random.default_rng(8)
        theta = net.init_params(rng) * 3.0
        probs = net.forward(theta, rng.standard_normal((100, 2)))
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_param_count(self):
        net = MicroMlp((2, 16, 16, 2))
        assert net.n_params == (2 * 16 + 16) + (16 * 16 + 16) + (16 * 2 + 2)

    def test_loss_finite_for_extreme_params(self):
        net = MicroMlp((2, 4, 2))
        theta = np.full(net.n_params, 200.0)
        x = np.array([[1.0, -1.0], [0.5, 2.0]])
        assert np.isfinite(net.loss(theta, x, np.array([0, 1])))

    def test_forward_deterministic(self):
        net = MicroMlp()
        rng = np.random.default_rng(4)
        theta = net.init_params(rng)
        x = rng.standard_normal((10, 2))
        np.testing.assert_array_equal(net.forward(theta, x), net.forward(theta, x))

    def test_dimension_mismatch(self):
        net = MicroMlp()
        with pytest.raises(ValueError):
            net.forward(np.zeros(net.n_params - 1), np.zeros((1, 2)))


class TestDataset:
    def test_fixed_seed_reproducible(self):
        a = two_moons(n_train=100, n_test=50)
        b = two_moons(n_train=100, n_test=50)
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_shapes_and_label_balance(self):
        x, y, xt, yt = two_moons()
        assert x.shape == (2000, 2) and xt.shape == (2000, 2)
        assert set(np.unique(y)) == {0, 1}
        assert abs(y.mean() - 0.5) < 0.02

    def test_csv_roundtrip(self, tmp_path):
        x, y, _, _ = two_moons(n_train=50, n_test=10)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, x, y)
        x2, y2 = load_dataset_csv(path)
        np.testing.assert_array_equal(x, x2)
        np.testing.assert_array_equal(y, y2)

    def test_ood_inputs_are_far_from_support(self):
        x, _, _, _ = two_moons()
        ood = ood_inputs(n=100)
        # every band point sits well above the highest training point
        assert ood[:, 1].min() > x[:, 1].max() + 1.0
