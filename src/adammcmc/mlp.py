"""Small dense ReLU classifier with a self-contained backward pass.

The network is deliberately tiny (default 2-16-16-2) and its parameters live
in one flat vector, so samplers can treat it like any other loss surface.
The gradient is a hand-written reverse sweep over the fixed architecture;
no autodiff framework involved.  The forward half (`loss_forward`) returns
the activations the reverse sweep needs, so a caller that has evaluated the
loss can take the gradient at the same point without a second forward pass.
"""

from __future__ import annotations

import csv
from typing import NamedTuple

import numpy as np


class Activations(NamedTuple):
    """What one forward sweep keeps for the backward sweep."""

    hidden: list[np.ndarray]  # [inputs, h_1, ..., h_L]
    logits: np.ndarray
    lse: np.ndarray  # log-sum-exp of each logits row
    labels: np.ndarray


class MicroMlp:
    """Fully-connected ReLU network with softmax output, flat parameter vector."""

    def __init__(self, layer_sizes=(2, 16, 16, 2)):
        if len(layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        self.shapes = [
            (a, b) for a, b in zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        ]

    @property
    def n_params(self) -> int:
        return sum((a + 1) * b for a, b in self.shapes)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """He-scaled random weights, zero biases."""
        chunks = []
        for a, b in self.shapes:
            chunks.append(rng.standard_normal((a, b)).ravel() * np.sqrt(2.0 / a))
            chunks.append(np.zeros(b))
        return np.concatenate(chunks)

    def unpack(self, theta: np.ndarray):
        """Split the flat vector into (W, b) pairs; views, no copies."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise ValueError(
                f"parameter vector has {theta.shape}, expected ({self.n_params},)"
            )
        layers = []
        pos = 0
        for a, b in self.shapes:
            w = theta[pos : pos + a * b].reshape(a, b)
            pos += a * b
            bias = theta[pos : pos + b]
            pos += b
            layers.append((w, bias))
        return layers

    def _hidden(self, layers, inputs: np.ndarray) -> list[np.ndarray]:
        """The hidden-layer sweep: [inputs, h_1, ..., h_L], h_k = relu(h_{k-1} W + b)."""
        hs = [np.atleast_2d(np.asarray(inputs, dtype=float))]
        for w, b in layers[:-1]:
            hs.append(np.maximum(hs[-1] @ w + b, 0.0))
        return hs

    def logits(self, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        layers = self.unpack(theta)
        w, b = layers[-1]
        return self._hidden(layers, inputs)[-1] @ w + b

    def forward(self, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probabilities, one row per input (log-sum-exp stabilized)."""
        z = self.logits(theta, inputs)
        z = z - z.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)

    def loss(self, theta: np.ndarray, inputs: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross entropy over the batch."""
        return self.loss_forward(theta, inputs, labels)[0]

    def loss_forward(self, theta, inputs, labels) -> tuple[float, Activations]:
        """Mean cross entropy plus the activations `loss_backward` needs."""
        layers = self.unpack(theta)
        hs = self._hidden(layers, inputs)
        labels = np.asarray(labels, dtype=int)
        w, b = layers[-1]
        logits = hs[-1] @ w + b
        zmax = logits.max(axis=1)
        lse = zmax + np.log(np.exp(logits - zmax[:, None]).sum(axis=1))
        loss = float(np.mean(lse - logits[np.arange(logits.shape[0]), labels]))
        return loss, Activations(hs, logits, lse, labels)

    def loss_backward(self, theta, saved: Activations) -> np.ndarray:
        """Gradient of the mean cross entropy w.r.t. the flat parameters,
        back-propagated from the activations `loss_forward` saved at theta."""
        layers = self.unpack(theta)
        hs, labels = saved.hidden, saved.labels
        n = hs[0].shape[0]
        dz = np.exp(saved.logits - saved.lse[:, None])
        dz[np.arange(n), labels] -= 1.0
        dz /= n

        grads = [None] * len(layers)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            dw = hs[i].T @ dz
            db = dz.sum(axis=0)
            grads[i] = (dw, db)
            if i > 0:
                # relu(z) > 0 exactly when z > 0 (NaN included)
                dz = (dz @ w.T) * (hs[i] > 0.0)

        return np.concatenate([np.concatenate([dw.ravel(), db]) for dw, db in grads])

    def loss_and_grad(self, theta, inputs, labels):
        """Mean cross entropy and its gradient w.r.t. the flat parameters."""
        loss, saved = self.loss_forward(theta, inputs, labels)
        return loss, self.loss_backward(theta, saved)


def two_moons(n_train=2000, n_test=2000, noise=0.15, seed=20240517):
    """Two interleaved noisy half circles, fixed seed by default.

    Returns (x_train, y_train, x_test, y_test) with 2-D inputs and 0/1 labels.
    """
    rng = np.random.default_rng(seed)

    def make(n):
        n_outer = n // 2
        n_inner = n - n_outer
        t_out = rng.uniform(0.0, np.pi, n_outer)
        t_in = rng.uniform(0.0, np.pi, n_inner)
        outer = np.column_stack([np.cos(t_out), np.sin(t_out)])
        inner = np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)])
        x = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
        y = np.concatenate([np.zeros(n_outer, dtype=int), np.ones(n_inner, dtype=int)])
        perm = rng.permutation(n)
        return x[perm], y[perm]

    x_train, y_train = make(n_train)
    x_test, y_test = make(n_test)
    return x_train, y_train, x_test, y_test


def ood_inputs(n=500, seed=20240518):
    """Inputs well above the two-moons support (a band with no training data).

    Very distant inputs saturate the logits of every ensemble member and the
    prediction spread collapses to zero there; this band is far from the
    support but still in the region where member predictions react.
    """
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.uniform(-0.5, 3.0, n), rng.uniform(2.8, 4.5, n)]
    )


def save_dataset_csv(path, inputs, labels):
    """Write rows of (x1, x2, label)."""
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=int)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "label"])
        for (x1, x2), lab in zip(inputs, labels):
            writer.writerow([repr(float(x1)), repr(float(x2)), int(lab)])


def load_dataset_csv(path):
    """Read rows of (x1, x2, label); inverse of save_dataset_csv."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["x1", "x2", "label"]:
            raise ValueError(f"unexpected dataset header: {header}")
        for row in reader:
            xs.append([float(row[0]), float(row[1])])
            ys.append(int(row[2]))
    return np.array(xs), np.array(ys, dtype=int)
