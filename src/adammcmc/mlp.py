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
import math
from typing import NamedTuple

import numpy as np


class Activations(NamedTuple):
    """What one forward sweep keeps for the backward sweep."""

    layers: list[tuple[np.ndarray, np.ndarray]]  # (W, b) views into theta
    hidden: list[np.ndarray]  # [inputs, h_1, ..., h_L]
    logits: np.ndarray
    lse: np.ndarray  # log-sum-exp of each logits row
    label_index: np.ndarray  # flat position of each row's label in logits


def _shifted_exp(logits: np.ndarray):
    """Row max m of the logits, exp(logits - m) and its row sums.

    Built column by column: numpy broadcasts a narrow row against an array,
    or reduces along it, in one short inner loop per row, while a
    whole-column operation is one long loop.  The bits are those of the
    row-wise forms: an elementwise operation and a max are exact in any
    order, and numpy sums a row narrower than 8 entries left to right, as
    the running column sum does; this package's output width is 2.
    """
    zmax = logits[:, 0].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(zmax, logits[:, j], out=zmax)
    e = _minus_column(logits, zmax)
    np.exp(e, out=e)
    total = e[:, 0].copy()
    for j in range(1, logits.shape[1]):
        total += e[:, j]
    return zmax, e, total


def _minus_column(a: np.ndarray, col: np.ndarray) -> np.ndarray:
    """A fresh `a - col[:, None]`, one column of `a` at a time."""
    out = np.empty_like(a)
    for j in range(a.shape[1]):
        np.subtract(a[:, j], col, out=out[:, j])
    return out


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
        x = np.asarray(inputs, dtype=float)
        hs = [x if x.ndim == 2 else np.atleast_2d(x)]
        for w, b in layers[:-1]:
            z = hs[-1] @ w
            z += b
            hs.append(np.maximum(z, 0.0, out=z))
        return hs

    def _output(self, layers, hs) -> np.ndarray:
        """The output layer's logits h_L W + b, the bias added column by column."""
        w, b = layers[-1]
        z = hs[-1] @ w
        for j in range(z.shape[1]):
            z[:, j] += b[j]
        return z

    def forward(self, theta: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Class probabilities, one row per input (log-sum-exp stabilized)."""
        layers = self.unpack(theta)
        _, e, total = _shifted_exp(self._output(layers, self._hidden(layers, inputs)))
        for j in range(e.shape[1]):
            e[:, j] /= total
        return e

    def loss_forward(self, theta, inputs, labels) -> tuple[float, Activations]:
        """Mean cross entropy plus the activations `loss_backward` needs.

        Each label must index an output column: 0 <= label < output width.
        """
        layers = self.unpack(theta)
        hs = self._hidden(layers, inputs)
        labels = np.asarray(labels, dtype=int)
        logits = self._output(layers, hs)
        zmax, _, lse = _shifted_exp(logits)
        np.log(lse, out=lse)
        lse += zmax
        n, width = logits.shape
        label_index = np.arange(n) * width + labels
        # np.mean's own arithmetic (a pairwise sum, then / n) without its wrappers
        loss = float(np.add.reduce(lse - logits.ravel()[label_index]) / n)
        return loss, Activations(layers, hs, logits, lse, label_index)

    def loss_backward(self, theta, saved: Activations) -> np.ndarray:
        """Gradient of the mean cross entropy w.r.t. the flat parameters,
        back-propagated from the activations `loss_forward` saved at theta.

        Each layer's dW and db are written straight into their place in one
        flat gradient."""
        layers, hs = saved.layers, saved.hidden
        n = hs[0].shape[0]
        dz = _minus_column(saved.logits, saved.lse)
        np.exp(dz, out=dz)
        dz.ravel()[saved.label_index] -= 1.0
        dz /= n

        grad = np.empty(self.n_params)
        grads = self.unpack(grad)  # (dW, db) views, laid out as theta's (W, b)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            dw, db = grads[i]
            np.matmul(hs[i].T, dz, out=dw)
            # the column sums of dz, in the same order and bits as
            # dz.sum(axis=0) for two columns or more, at a third of its cost
            np.einsum("ij->j", dz, out=db)
            if i > 0:
                dz = dz @ w.T
                # relu(z) > 0 exactly when z > 0 (NaN included)
                dz *= hs[i] > 0.0
        return grad


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
        writer.writerows(row + [lab] for row, lab in zip(inputs.tolist(), labels.tolist()))


def load_dataset_csv(path):
    """Read rows of (x1, x2, label); inverse of save_dataset_csv.

    A bad header, a short, non-numeric or non-finite row, a label other than
    0 or 1, or no rows raise ValueError.
    """
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != ["x1", "x2", "label"]:
            raise ValueError(f"unexpected dataset header: {header}")
        for row in reader:
            try:
                x1, x2, label = float(row[0]), float(row[1]), int(row[2])
            except (IndexError, ValueError):
                label = None
            if label not in (0, 1) or not (math.isfinite(x1) and math.isfinite(x2)):
                raise ValueError(
                    f"line {reader.line_num}: expected finite x1, x2 and a 0/1 label, got {row}"
                )
            xs.append([x1, x2])
            ys.append(label)
    if not xs:
        raise ValueError("dataset has no rows")
    return np.array(xs), np.array(ys, dtype=int)
