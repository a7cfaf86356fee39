"""Loss oracles: finite-difference gradients, unbiased batching, Gibbs targets."""

import functools
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    Activations,
    MicroMlp,
    load_dataset_csv,
    ood_inputs,
    save_dataset_csv,
    two_moons,
)
from adammcmc.samplers import Evaluation


def loss_and_grad(net, theta, inputs, labels):
    """The classifier's loss and gradient through the pair its oracle runs."""
    loss, saved = net.loss_forward(theta, inputs, labels)
    return loss, net.loss_backward(saved)


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
        for batch_size in (0, 100, 101):  # a batch of n or more is full batch too
            rng = np.random.default_rng(9)
            before = rng.bit_generator.state
            stream = BatchStream(100, batch_size, rng)
            assert all(stream.next() is None for _ in range(5)), batch_size
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
        # the batch path on arange(n) gathers a copy of every row; the
        # full-data path reads the stored arrays (the noisy oracle's
        # gradient reads its stored center mean)
        rng = np.random.default_rng(1)
        for oracle in make_oracles():
            theta = rng.standard_normal(oracle.dim)
            loss, grad_fn = oracle.evaluate(theta, oracle.batch(np.arange(oracle.n_points)))
            assert loss == oracle.eval(theta)
            np.testing.assert_array_equal(grad_fn(), oracle.grad(theta))


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
    """evaluate keeps its forward pass for the gradient at the same point."""

    @staticmethod
    def make_case():
        net = MicroMlp((2, 8, 8, 2))
        x, y, _, _ = two_moons(n_train=64, n_test=8, seed=3)
        rng = np.random.default_rng(7)
        return net, MlpClassificationLoss(net, x, y), x, y, rng

    @staticmethod
    def fresh(net, x, y, theta, indices):
        rows = slice(None) if indices is None else indices
        return loss_and_grad(net, theta, x[rows], y[rows])

    @pytest.mark.parametrize("indices", [None, np.array([1, 4, 9, 10, 33, 50])])
    def test_warm_gradient_is_bitwise_fresh(self, indices, sweeps):
        net, oracle, x, y, rng = self.make_case()
        theta = net.init_params(rng)
        loss, grad_fn = oracle.evaluate(theta, None if indices is None else oracle.batch(indices))
        before = sweeps[0]
        got = grad_fn()
        assert sweeps[0] == before  # served from the kept forward pass
        fresh_loss, fresh_grad = self.fresh(net, x, y, theta, indices)
        assert loss == fresh_loss
        np.testing.assert_array_equal(got, fresh_grad)

    def test_evaluation_runs_backward_once(self, monkeypatch):
        net, oracle, x, y, rng = self.make_case()
        calls = []
        backward = MicroMlp.loss_backward

        def counted(self, saved):
            calls.append(saved)
            return backward(self, saved)

        monkeypatch.setattr(MicroMlp, "loss_backward", counted)
        theta = net.init_params(rng)
        loss, grad_fn = oracle.evaluate(theta, None)
        evaluation = Evaluation(loss, True, True, grad_fn)
        assert calls == []
        first = evaluation.grad()
        assert evaluation.grad() is first and evaluation.grad() is first
        assert len(calls) == 1

    def test_grad_releases_the_forward_activations(self):
        # a kept Evaluation (the chain's current point) must not pin the
        # forward pass's activations once its gradient is cached
        net, oracle, x, y, rng = self.make_case()
        loss, grad_fn = oracle.evaluate(net.init_params(rng), None)
        (saved,) = [
            c.cell_contents for c in grad_fn.__closure__
            if isinstance(c.cell_contents, Activations)
        ]
        logits = weakref.ref(saved.logits)
        evaluation = Evaluation(loss, True, True, grad_fn)
        del saved, grad_fn
        assert logits() is not None
        first = evaluation.grad()
        assert logits() is None
        assert evaluation.grad() is first

    @pytest.mark.parametrize("batch_size", [0, 32])
    def test_one_sweep_per_evaluation_in_a_chain(self, batch_size, sweeps, monkeypatch):
        calls = {"evaluate": 0, "loss_backward": 0}
        for owner, name in ((MlpClassificationLoss, "evaluate"), (MicroMlp, "loss_backward")):
            original = getattr(owner, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(owner, name, counted)
        config = RunConfig(
            target="mlp", sampler="adammcmc", gamma=1e-3, sigma=0.01, sigma_dir=20.0,
            steps=50, burn_in=40, gap=5, n_samples=2, batch_size=batch_size,
        )
        result = run_experiment(config)
        assert result.record.acceptance_rate > 0.5
        # every gradient the chain takes back-propagates from an evaluation
        # at its point, so only evaluations sweep forward
        assert calls["loss_backward"] > 0.5 * config.steps
        assert sweeps[0] == calls["evaluate"]


def separate_formulas(oracle, theta, indices):
    """Each built-in oracle's loss and gradient as two separate formulas, the
    way they were written before one `evaluate` computed both."""
    rows = slice(None) if indices is None else indices
    if isinstance(oracle, QuadraticLoss):
        return 0.5 * float(theta @ theta), theta.copy()
    if isinstance(oracle, NoisyQuadraticLoss):
        c = oracle.centers[rows]
        diff = theta[None, :] - c
        return 0.5 * float(np.mean(np.sum(diff * diff, axis=1))), theta - c.mean(axis=0)
    if isinstance(oracle, BananaLoss):
        head, tail = theta[:-1], theta[1:]
        loss = float(
            np.sum((1.0 - head) ** 2) + oracle.curvature * np.sum((tail - head**2) ** 2)
        )
        g = np.zeros_like(theta)
        resid = tail - head**2
        g[:-1] += -2.0 * (1.0 - head) - 4.0 * oracle.curvature * head * resid
        g[1:] += 2.0 * oracle.curvature * resid
        return loss, g
    x, y = oracle.inputs[rows], oracle.labels[rows]
    return loss_and_grad(oracle.net, theta, x, y)


@functools.cache
def builtin_oracle(name, dim):
    """A built-in oracle on 64 points; dim sets the MLP's hidden width."""
    if name == "quadratic":
        return QuadraticLoss(dim, n_points=64)
    if name == "noisy_quadratic":
        return NoisyQuadraticLoss(dim, n_points=64, seed=dim)
    if name == "banana":
        return BananaLoss(dim + 1, curvature=7.5, n_points=64)
    x, y, _, _ = two_moons(n_train=64, n_test=8, seed=dim)
    return MlpClassificationLoss(MicroMlp((2, dim, 2)), x, y)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["quadratic", "noisy_quadratic", "banana", "mlp"]),
    dim=st.integers(1, 6),
    batch_size=st.sampled_from([0, 1, 7, 64]),
    data=st.data(),
)
def test_evaluate_equals_separate_calls(name, dim, batch_size, data):
    oracle = builtin_oracle(name, dim)
    theta = np.array(
        data.draw(st.lists(st.floats(-10.0, 10.0), min_size=oracle.dim, max_size=oracle.dim))
    )
    batch = None
    if batch_size:
        rows = st.sets(st.integers(0, oracle.n_points - 1), min_size=batch_size, max_size=batch_size)
        rows = data.draw(rows)
        batch = np.array(sorted(rows))
    want_loss, want_grad = separate_formulas(oracle, theta, batch)
    loss, grad_fn = oracle.evaluate(theta, None if batch is None else oracle.batch(batch))
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad_fn().tobytes() == want_grad.tobytes()
    assert oracle.eval_batch(theta, batch) == loss
    np.testing.assert_array_equal(oracle.grad_batch(theta, batch), want_grad)


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
        assert box.contains(np.array([-2.0, 0.0]))
        assert not box.contains(np.array([2.0001, 0.0]))
        assert not box.contains(np.array([0.0, np.nextafter(-2.0, -3.0)]))
        assert not box.contains(np.array([0.0, -np.inf]))
        assert not box.contains(np.array([np.nan, 0.0]))
        assert not box.contains(np.array([0.0, np.nan]))
        # (C, P) rows: one answer a row, each the row's own
        rows = np.array([
            [2.0, -2.0], [0.0, np.nextafter(2.0, 3.0)], [np.nan, 0.0], [0.0, -np.inf], [0.5, 1.0],
        ])
        inside = box.contains(rows)
        assert inside.shape == (5,)
        assert inside.tolist() == [box.contains(row) for row in rows]
        assert inside.tolist() == [True, False, False, False, True]

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
        with pytest.raises(ValueError, match="lam must be positive"):  # one chain's column
            GibbsTarget(QuadraticLoss(2), np.array([1.0, 0.0]), PriorBox(1.0))
        with pytest.raises(ValueError, match=r"shape \(3,\), expected \(2,\)"):
            QuadraticLoss(2).check_theta(np.zeros(3))
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
        assert np.isfinite(net.loss_forward(theta, x, np.array([0, 1]))[0])

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
        with pytest.raises(ValueError, match="input and an output layer"):
            MicroMlp((2,))


def reference_hidden(net, theta, inputs):
    layers = net.unpack(theta)
    hs = [np.atleast_2d(np.asarray(inputs, dtype=float))]
    for w, b in layers[:-1]:
        hs.append(np.maximum(hs[-1] @ w + b, 0.0))
    w, b = layers[-1]
    return layers, hs, hs[-1] @ w + b


def reference_probs(net, theta, inputs):
    """`MicroMlp.forward` by its first formulas: numpy row reductions."""
    z = reference_hidden(net, theta, inputs)[2]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def reference_loss_and_grad(net, theta, inputs, labels):
    """`loss_and_grad` by its first formulas: numpy row and column
    reductions and a fresh array for every intermediate."""
    layers, hs, logits = reference_hidden(net, theta, inputs)
    zmax = logits.max(axis=1)
    lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
    rows = np.arange(logits.shape[0])
    loss = float(np.mean(lse - logits[rows, labels]))
    dz = np.exp(logits - lse[:, None])
    dz[rows, labels] -= 1.0
    dz /= logits.shape[0]
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        grads[i] = np.concatenate([(hs[i].T @ dz).ravel(), dz.sum(axis=0)])
        if i > 0:
            dz = (dz @ layers[i][0].T) * (hs[i] > 0.0)
    return loss, np.concatenate(grads)


class TestSweepBits:
    """The sweep's column-wise reductions and in-place temporaries give the
    bytes of the references' row reductions and fresh arrays.

    Hidden widths start at 2: numpy sums a single column pairwise, while
    einsum, like `.sum(axis=0)` on two columns or more, adds row by row.
    """

    @settings(max_examples=150)
    @given(
        hidden=st.lists(st.integers(2, 24), max_size=3),
        n=st.integers(1, 300),
        scale=st.sampled_from([1.0, 50.0]),
        seed=st.integers(0, 2**16),
    )
    def test_loss_grad_and_probs_match_reference(self, hidden, n, scale, seed):
        net = MicroMlp((2, *hidden, 2))
        rng = np.random.default_rng(seed)
        theta = net.init_params(rng) * scale  # x50 saturates the logits
        x = rng.standard_normal((n, 2))
        y = rng.integers(0, 2, n)
        loss, grad = reference_loss_and_grad(net, theta, x, y)
        got_loss, got_grad = loss_and_grad(net, theta, x, y)
        assert got_loss == loss
        np.testing.assert_array_equal(got_grad, grad)
        assert got_grad.tobytes() == grad.tobytes()  # signed zeros included
        assert net.forward(theta, x).tobytes() == reference_probs(net, theta, x).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_full_batch_at_the_chains_size_matches_reference(self, scale):
        # the size the MLP chain runs: 2-16-16-2 on two-moons at n=2000
        net = MicroMlp()
        x, y, _, _ = two_moons(n_train=2000, n_test=1)
        theta = net.init_params(np.random.default_rng(11)) * scale
        loss, grad = reference_loss_and_grad(net, theta, x, y)
        got_loss, got_grad = loss_and_grad(net, theta, x, y)
        assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
        assert got_grad.tobytes() == grad.tobytes()  # signed zeros included
        assert net.forward(theta, x).tobytes() == reference_probs(net, theta, x).tobytes()

    def test_oracle_evaluate_matches_reference(self):
        # what a chain step calls: the oracle's evaluate on a batch() of a
        # minibatch and on the full data, then the gradient callable
        net = MicroMlp()
        x, y, _, _ = two_moons(n_train=2000, n_test=1)
        oracle = MlpClassificationLoss(net, x, y)
        rng = np.random.default_rng(12)
        theta = net.init_params(rng)
        rows = np.sort(rng.choice(2000, 200, replace=False))
        gathered = oracle.batch(rows)
        assert type(gathered) is tuple
        for data, (xs, ys) in ((gathered, (x[rows], y[rows])), (None, (x, y))):
            loss, grad_fn = oracle.evaluate(theta, data)
            ref_loss, ref_grad = reference_loss_and_grad(net, theta, xs, ys)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad_fn().tobytes() == ref_grad.tobytes()

    @settings(max_examples=150)
    @given(rows=st.integers(1, 400), cols=st.integers(2, 40), seed=st.integers(0, 2**16))
    def test_einsum_column_sum_is_sum_axis_0(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-5, 5, (rows, cols))
        assert np.einsum("ij->j", a).tobytes() == a.sum(axis=0).tobytes()

    @pytest.mark.parametrize("bad_label", [-1, 2])
    def test_oracle_rejects_labels_outside_the_output(self, bad_label):
        # the sweep reads each row's label through a flat index, which an
        # out-of-range label would point into a neighbouring row
        with pytest.raises(ValueError, match="labels"):
            MlpClassificationLoss(MicroMlp((2, 4, 2)), np.zeros((2, 2)), np.array([0, bad_label]))

    def test_oracle_rejects_unequal_point_counts(self):
        with pytest.raises(ValueError, match="number of points"):
            MlpClassificationLoss(MicroMlp((2, 4, 2)), np.zeros((3, 2)), np.array([0, 1]))

    def test_sweep_peak_memory_below_reference(self):
        # a count of bytes, which host load cannot move: 2-16-16-2 at n=2000
        net = MicroMlp()
        x, y, _, _ = two_moons(n_train=2000, n_test=1)
        theta = net.init_params(np.random.default_rng(0))

        def peak(fn):
            fn()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ours = peak(lambda: loss_and_grad(net, theta, x, y))
        reference = peak(lambda: reference_loss_and_grad(net, theta, x, y))
        assert ours <= 0.85 * reference, (ours, reference)


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

    def test_csv_cells_are_float_reprs(self, tmp_path):
        x, y, _, _ = two_moons(n_train=50, n_test=10)
        path = tmp_path / "data.csv"
        save_dataset_csv(path, x, y)
        rows = [f"{float(a)!r},{float(b)!r},{int(lab)}" for (a, b), lab in zip(x, y)]
        assert path.read_bytes() == "\r\n".join(["x1,x2,label"] + rows + [""]).encode()

    def test_generated_data_digest(self):
        # the noisy quadratic's centres, the default two-moons split and the
        # out-of-support band: the bytes every chain and criterion starts from
        digest = hashlib.sha256()
        for array in (NoisyQuadraticLoss(16).centers, *two_moons(), ood_inputs(400)):
            digest.update(array.tobytes())
        assert digest.hexdigest() == (
            "b008a15fa42822e7bb3e46e25776a5a7f6a8fdcf75073c8312e7738f2ac9b161"
        )

    def test_ood_inputs_are_far_from_support(self):
        x, _, _, _ = two_moons()
        ood = ood_inputs(n=100)
        # every band point sits well above the highest training point
        assert ood[:, 1].min() > x[:, 1].max() + 1.0
