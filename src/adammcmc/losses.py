"""Loss oracles and tempered targets.

A loss oracle exposes value and gradient of an empirical loss, full-batch or
on an index subset (the subset mean is an unbiased estimator of the full
loss).  A GibbsTarget combines an oracle with an inverse temperature and a
box-shaped uniform prior into the unnormalized density exp(-lam * loss) on
the box.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .mlp import MicroMlp


class Gathered(tuple):
    """The data rows of a minibatch, as an oracle's batch() gathers them for
    evaluate and evaluate_rows; a tuple, so building one runs no Python code."""


class LossOracle(ABC):
    """Loss value + gradient provider with minibatch estimates.

    `evaluate` is the one method an oracle defines: it returns a point's
    loss and a zero-argument callable for its gradient on the same data.
    `eval_batch`/`grad_batch` take either half of it, and `eval`/`grad` are
    their full-data versions.  A batch averages over an index subset only.
    Passing `indices=None` means the full dataset: the stored arrays are
    used as they are, uncopied, and give the same bits as the batch path on
    arange(n_points), so batch_size = n reproduces full evaluations bit for
    bit.

    A step that evaluates two points on one batch gathers it once:
    `batch(indices)` returns a handle that evaluate (for a 1-D index array)
    and evaluate_rows (for a (C, B) one) take in place of the indices, with
    the bits the indices give.  An oracle without data rows returns the
    indices themselves; one with data returns them gathered, as a Gathered.
    """

    dim: int
    n_points: int

    def __init__(self, dim: int, n_points: int):
        self.dim = int(dim)
        self.n_points = int(n_points)

    @abstractmethod
    def evaluate(self, theta: np.ndarray, indices) -> tuple[float, Callable[[], np.ndarray]]:
        """The loss at theta on the batch, and a callable for the gradient there."""

    def batch(self, indices):
        """The handle of a 1-D or (C, B) index array that evaluate or
        evaluate_rows takes in its place: the indices themselves here."""
        return indices

    def evaluate_rows(self, thetas: np.ndarray, indices):
        """evaluate on each row of a (C, P) thetas, each row on its row of a
        (C, B) indices (or of their batch() handle, one handle a row), or all
        on the full data when indices is None: the (C,) losses, and a
        callable for the gradients of the rows it is given as an index array
        (all rows when None).  This loop over evaluate is the reference each
        override matches bit for bit."""
        batches = [None] * len(thetas) if indices is None else indices
        out = [self.evaluate(theta, batch) for theta, batch in zip(thetas, batches)]
        fns = [fn for _, fn in out]
        return np.array([loss for loss, _ in out]), lambda rows=None: np.array(
            [fns[c]() for c in (range(len(fns)) if rows is None else rows)]
        )

    def eval_batch(self, theta: np.ndarray, indices) -> float:
        return self.evaluate(theta, indices)[0]

    def grad_batch(self, theta: np.ndarray, indices) -> np.ndarray:
        return self.evaluate(theta, indices)[1]()

    def eval(self, theta: np.ndarray) -> float:
        return self.eval_batch(theta, None)

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.grad_batch(theta, None)

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.dim,):
            raise ValueError(f"theta has shape {theta.shape}, expected ({self.dim},)")
        return theta


class QuadraticLoss(LossOracle):
    """L(theta) = |theta|^2 / 2, identical for every data point."""

    def __init__(self, dim: int, n_points: int = 100):
        super().__init__(dim, n_points)

    def evaluate(self, theta, indices):
        theta = self.check_theta(theta)
        return 0.5 * float(theta @ theta), theta.copy

    def evaluate_rows(self, thetas, indices):
        # np.vecdot is each row's theta @ theta
        return 0.5 * np.vecdot(thetas, thetas), lambda rows=None: (
            thetas.copy() if rows is None else thetas[rows]
        )


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

    def batch(self, indices):
        # a (C, B) index array gathers as (B, C, P), so that each chain's
        # batch mean is a reduction over the leading axis, as for one chain;
        # take copies the rows that fancy indexing would, in less time
        return Gathered((self.centers.take(np.asarray(indices).T, axis=0),))

    def evaluate(self, theta, indices):
        # the loss and the gradient share one gather of the batch rows; each
        # mean is np.mean's own arithmetic (a pairwise add.reduce, then one
        # true divide by the count) without its Python wrappers
        theta = self.check_theta(theta)
        if indices is None:
            rows = self.centers
        else:
            rows = (indices if type(indices) is Gathered else self.batch(indices))[0]
        n = rows.shape[0]
        sq = theta - rows
        sq *= sq
        loss = 0.5 * float(np.add.reduce(np.add.reduce(sq, axis=1)) / n)
        if indices is None:
            return loss, lambda: theta - self.center_mean
        return loss, lambda: theta - np.add.reduce(rows, axis=0) / n

    def evaluate_rows(self, thetas, indices):
        # evaluate's reductions, for all chains from one (B, C, P) gather of
        # their batch rows; the (B, C) squared distances are summed as (C, B)
        # rows, pairwise along each batch as evaluate sums its (B,) ones
        if indices is None:
            rows = self.centers[:, None]
        else:
            rows = (indices if type(indices) is Gathered else self.batch(indices))[0]
        n = rows.shape[0]
        sq = thetas - rows
        sq *= sq
        sq = np.ascontiguousarray(np.add.reduce(sq, axis=2).T)
        losses = 0.5 * (np.add.reduce(sq, axis=1) / n)

        def grads(sel=None):
            at = thetas if sel is None else thetas[sel]
            if indices is None:
                return at - self.center_mean
            return at - np.add.reduce(rows if sel is None else rows[:, sel], axis=0) / n

        return losses, grads


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

    def evaluate(self, theta, indices):
        theta = self.check_theta(theta)
        head = theta[:-1]
        resid = theta[1:] - head**2
        loss = float(np.sum((1.0 - head) ** 2) + self.curvature * np.sum(resid**2))

        def grad():
            g = np.zeros_like(theta)
            g[:-1] += -2.0 * (1.0 - head) - 4.0 * self.curvature * head * resid
            g[1:] += 2.0 * self.curvature * resid
            return g

        return loss, grad


class MlpClassificationLoss(LossOracle):
    """Mean cross entropy of a MicroMlp on a fixed labeled dataset.

    `evaluate` runs the forward sweep and returns a gradient callable that
    holds its activations, so the gradient costs only the backward sweep.
    """

    def __init__(self, net: MicroMlp, inputs: np.ndarray, labels: np.ndarray):
        # C order, like the fancy-indexed copies batches see, so full-batch
        # products read the same layout and give the same bits
        inputs = np.ascontiguousarray(inputs, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError("inputs and labels disagree on the number of points")
        n_classes = net.layer_sizes[-1]
        if labels.size and not (labels.min() >= 0 and labels.max() < n_classes):
            raise ValueError(f"labels must lie in [0, {n_classes})")
        super().__init__(net.n_params, inputs.shape[0])
        self.net = net
        self.inputs = inputs
        self.labels = labels

    def batch(self, indices):
        indices = np.asarray(indices)
        if indices.ndim == 2:  # one handle a row, for evaluate_rows' loop
            return [self.batch(row) for row in indices]
        return Gathered((self.inputs[indices], self.labels[indices]))

    def evaluate(self, theta, indices):
        theta = self.check_theta(theta)
        if indices is None:
            data = self.inputs, self.labels
        else:
            data = indices if type(indices) is Gathered else self.batch(indices)
        loss, saved = self.net.loss_forward(theta, *data)
        return loss, lambda: self.net.loss_backward(theta, saved)


def make_batches(n: int, batch_size: int, rng):
    """Disjoint cover of range(n) in random order; last batch may be short.

    Indices inside each batch are sorted so that batch evaluation order is
    deterministic and batch_size = n reduces to the full-data path exactly.
    rng may be a list of C generators, one per chain in lockstep: the epoch
    is then one (C, n) array, row c generator c's permutation, and each
    batch a (C, B) column slice whose row c is what generator c alone cuts.
    """
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must be in [1, {n}], got {batch_size}")
    if isinstance(rng, list):
        perm = np.array([r.permutation(n) for r in rng])
    else:
        perm = rng.permutation(n)
    batches = [perm[..., i : i + batch_size] for i in range(0, n, batch_size)]
    for batch in batches:
        batch.sort()  # in place, along each row: the batches are disjoint slices of perm
    return batches


class BatchStream:
    """Cycles through reshuffled epochs of minibatches from its own RNG, or
    from a list of C generators as (C, B) batches (see make_batches).

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

    def next(self):
        if self.batch_size == 0:
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

    def contains(self, theta: np.ndarray):
        """Whether every entry lies in the box, over the last axis: a bool for
        one P-vector, a (C,) bool array for (C, P) rows; NaN lies outside."""
        return np.maximum.reduce(np.abs(theta), axis=-1) <= self.half_width


@dataclass(frozen=True)
class GibbsTarget:
    """Tempered target exp(-lam * L_n(theta)) restricted to a prior box; C
    chains in lockstep hold a (C,) array of their lam on one oracle and box."""

    oracle: LossOracle
    lam: float | np.ndarray
    prior: PriorBox

    def __post_init__(self):
        if not np.all(self.lam > 0.0):
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
