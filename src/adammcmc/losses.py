"""Loss oracles and tempered targets.

A loss oracle exposes value and gradient of an empirical loss, full-batch or
on an index subset (the subset mean is an unbiased estimator of the full
loss).  A GibbsTarget combines an oracle with an inverse temperature and a
box-shaped uniform prior into the unnormalized density exp(-lam * loss) on
the box.
"""

from __future__ import annotations

import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .mlp import MicroMlp


class LossOracle(ABC):
    """Loss value + gradient provider with minibatch estimates.

    `eval`/`grad` are the full-data versions; `eval_batch`/`grad_batch`
    average over an index subset only.  Passing `indices=None` means the full
    dataset: the stored arrays are used as they are, uncopied, and give the
    same bits as the batch path on arange(n_points), so batch_size = n
    reproduces full evaluations bit for bit.
    """

    dim: int
    n_points: int

    def __init__(self, dim: int, n_points: int):
        self.dim = int(dim)
        self.n_points = int(n_points)

    @abstractmethod
    def eval_batch(self, theta: np.ndarray, indices) -> float: ...

    @abstractmethod
    def grad_batch(self, theta: np.ndarray, indices) -> np.ndarray: ...

    def eval(self, theta: np.ndarray) -> float:
        return self.eval_batch(theta, None)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.grad_batch(theta, None)

    @staticmethod
    def _rows(data: np.ndarray, indices) -> np.ndarray:
        """The rows of `data` a batch averages over: `data` itself for None."""
        return data if indices is None else data[np.asarray(indices)]

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return theta


class QuadraticLoss(LossOracle):
    """L(theta) = |theta|^2 / 2, identical for every data point."""

    def __init__(self, dim: int, n_points: int = 100):
        super().__init__(dim, n_points)

    def eval_batch(self, theta, indices):
        theta = self.check_theta(theta)
        return 0.5 * float(theta @ theta)

    def grad_batch(self, theta, indices):
        return self.check_theta(theta).copy()


class NoisyQuadraticLoss(LossOracle):
    """Per-point quadratic losses |theta - c_i|^2 / 2 with random centers.

    The full loss is |theta - c_bar|^2 / 2 plus a constant, so the Gibbs
    posterior stays an exactly known (truncated) Gaussian around the center
    mean, while batch estimates carry genuine subsampling noise.  This is the
    analytic stand-in for studying the stochastic accept test.
    """

    def __init__(self, dim: int, n_points: int = 400, center_scale: float = 1.0, seed: int = 1234):
        super().__init__(dim, n_points)
        rng = np.random.default_rng(seed)
        self.centers = center_scale * rng.standard_normal((n_points, dim))
        self.center_mean = self.centers.mean(axis=0)

    def eval_batch(self, theta, indices):
        theta = self.check_theta(theta)
        c = self._rows(self.centers, indices)
        diff = theta[None, :] - c
        return 0.5 * float(np.mean(np.sum(diff * diff, axis=1)))

    def grad_batch(self, theta, indices):
        theta = self.check_theta(theta)
        c = self._rows(self.centers, indices)
        return theta - c.mean(axis=0)


class BananaLoss(LossOracle):
    """Rosenbrock-type valley, a non-Gaussian sanity target.

    L(theta) = sum_i [ (1 - theta_i)^2 + curvature * (theta_{i+1} - theta_i^2)^2 ],
    identical for every data point.
    """

    def __init__(self, dim: int, curvature: float = 10.0, n_points: int = 100):
        if dim < 2:
            raise ValueError("banana loss needs dim >= 2")
        super().__init__(dim, n_points)
        self.curvature = float(curvature)

    def eval_batch(self, theta, indices):
        theta = self.check_theta(theta)
        head, tail = theta[:-1], theta[1:]
        return float(
            np.sum((1.0 - head) ** 2) + self.curvature * np.sum((tail - head**2) ** 2)
        )

    def grad_batch(self, theta, indices):
        theta = self.check_theta(theta)
        g = np.zeros_like(theta)
        head, tail = theta[:-1], theta[1:]
        resid = tail - head**2
        g[:-1] += -2.0 * (1.0 - head) - 4.0 * self.curvature * head * resid
        g[1:] += 2.0 * self.curvature * resid
        return g


class MlpClassificationLoss(LossOracle):
    """Mean cross entropy of a MicroMlp on a fixed labeled dataset.

    `eval_batch` keeps its forward pass; a `grad_batch` at a bitwise-equal
    theta with the same indices back-propagates from it instead of sweeping
    forward again.  A chain evaluates the proposal, then, once accepted, takes
    the gradient there on the next step, so that gradient costs only the
    backward half.  The kept pass lives only as long as the theta array it
    was computed for: a rejected proposal or a finished chain releases it.
    """

    def __init__(self, net: MicroMlp, inputs: np.ndarray, labels: np.ndarray):
        # C order, like the fancy-indexed copies batches see, so full-batch
        # products read the same layout and give the same bits
        inputs = np.ascontiguousarray(inputs, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError("inputs and labels disagree on the number of points")
        super().__init__(net.n_params, inputs.shape[0])
        self.net = net
        self.inputs = inputs
        self.labels = labels
        # (weakref to theta, theta bytes, indices copy, Activations) of the last eval_batch
        self._memo = None

    def _batch(self, indices):
        return self._rows(self.inputs, indices), self._rows(self.labels, indices)

    def eval_batch(self, theta, indices):
        theta = self.check_theta(theta)
        loss, saved = self.net.loss_forward(theta, *self._batch(indices))
        kept = None if indices is None else np.array(indices)
        self._memo = (weakref.ref(theta, self._forget), theta.tobytes(), kept, saved)
        return loss

    def _forget(self, ref):
        memo = self._memo
        if memo is not None and memo[0] is ref:
            self._memo = None

    def grad_batch(self, theta, indices):
        theta = self.check_theta(theta)
        memo = self._memo  # read once: an interleaved eval_batch can only cause a miss
        if memo is not None:
            _, key, kept, saved = memo
            if key == theta.tobytes() and _same_rows(kept, indices):
                return self.net.loss_backward(theta, saved)
        _, g = self.net.loss_and_grad(theta, *self._batch(indices))
        return g


def _same_rows(kept, indices) -> bool:
    if kept is None or indices is None:
        return kept is None and indices is None
    return np.array_equal(kept, indices)


def make_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Disjoint cover of range(n) in random order; last batch may be short.

    Indices inside each batch are sorted so that batch evaluation order is
    deterministic and batch_size = n reduces to the full-data path exactly.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    perm = rng.permutation(n)
    return [np.sort(perm[i : i + batch_size]) for i in range(0, n, batch_size)]


class BatchStream:
    """Cycles through reshuffled epochs of minibatches from its own RNG.

    batch_size in (0, None) or >= n means full-batch mode: next() yields None
    and the stream never touches its generator, so full and minibatch runs
    share identical proposal RNG streams.
    """

    def __init__(self, n: int, batch_size, rng: np.random.Generator):
        self.n = int(n)
        self.batch_size = int(batch_size) if batch_size else 0
        if self.batch_size >= self.n:
            self.batch_size = 0
        self.rng = rng
        self._queue: list[np.ndarray] = []

    @property
    def full_batch(self) -> bool:
        return self.batch_size == 0

    def next(self):
        if self.full_batch:
            return None
        if not self._queue:
            self._queue = make_batches(self.n, self.batch_size, self.rng)
        return self._queue.pop(0)


@dataclass(frozen=True)
class PriorBox:
    """Uniform prior on the hypercube [-half_width, half_width]^P."""

    half_width: float

    def __post_init__(self):
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=float)
        return bool(np.all(np.abs(theta) <= self.half_width))


@dataclass(frozen=True)
class GibbsTarget:
    """Tempered target exp(-lam * L_n(theta)) restricted to a prior box."""

    oracle: LossOracle
    lam: float
    prior: PriorBox

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")

    @property
    def dim(self) -> int:
        return self.oracle.dim

    def log_unnorm(self, theta: np.ndarray) -> float:
        """Unnormalized log density: -lam * L_n inside the box, -inf outside."""
        if not self.prior.contains(theta):
            return -np.inf
        return -self.lam * self.oracle.eval(theta)


def quadratic_target(dim: int, lam: float = 1.0, half_width: float = 100.0, n_points: int = 100) -> GibbsTarget:
    """Gibbs target for |theta|^2/2: a centered Gaussian with std lam^{-1/2},
    truncated to the prior box."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return GibbsTarget(QuadraticLoss(dim, n_points), lam, PriorBox(half_width))


def banana_target(dim: int = 2, lam: float = 1.0, half_width: float = 100.0, curvature: float = 10.0, n_points: int = 100) -> GibbsTarget:
    return GibbsTarget(BananaLoss(dim, curvature, n_points), lam, PriorBox(half_width))


def noisy_quadratic_target(
    dim: int,
    lam: float = 1.0,
    half_width: float = 100.0,
    n_points: int = 400,
    center_scale: float = 1.0,
    seed: int = 1234,
) -> GibbsTarget:
    """Gaussian posterior around the mean of random per-point centers; batch
    evaluations of the loss are genuinely noisy."""
    oracle = NoisyQuadraticLoss(dim, n_points, center_scale, seed)
    return GibbsTarget(oracle, lam, PriorBox(half_width))


def mlp_target(net: MicroMlp, inputs, labels, lam: float = 1.0, half_width: float = 100.0) -> GibbsTarget:
    return GibbsTarget(MlpClassificationLoss(net, inputs, labels), lam, PriorBox(half_width))
