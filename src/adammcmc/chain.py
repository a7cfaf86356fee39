"""Chain orchestration: burn-in, thinning, sample retention, per-step records
and ensemble prediction with quantile spread."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .mlp import MicroMlp
from .samplers import ChainState, StepInfo


class NumericalAbort(RuntimeError):
    """The chain reached a state no step can recover from."""


@dataclass(frozen=True)
class ChainSchedule:
    """Total step budget plus burn-in b, gap c and sample count N.

    Samples are retained at steps b + i*c for i = 1..N, so the budget must
    satisfy b + N*c <= total_steps.
    """

    total_steps: int
    burn_in: int
    gap: int
    n_samples: int

    def __post_init__(self):
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.gap < 1:
            raise ValueError(f"gap must be >= 1, got {self.gap}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.burn_in + self.n_samples * self.gap > self.total_steps:
            raise ValueError(
                f"schedule does not fit: burn_in + n_samples * gap = "
                f"{self.burn_in + self.n_samples * self.gap} > total_steps = "
                f"{self.total_steps}"
            )

    @property
    def sample_steps(self) -> list[int]:
        return [self.burn_in + i * self.gap for i in range(1, self.n_samples + 1)]


CSV_COLUMNS = ("step", "loss", "log_alpha", "accepted", "theta_norm", "u_norm")


@dataclass
class ChainRecord:
    """Per-step log of a chain run.

    Every record's steps are 1..n, so `step` is derived, not stored.  The
    CSV serialization has the fixed columns (step, loss, log_alpha,
    accepted, theta_norm, u_norm); wall-clock timings stay in memory only,
    as float32, so records are byte-stable across reruns.  Records of
    chains run in lockstep (run_chains) carry step_seconds=None, because
    one lockstep step times all C chains at once.  Every CSV in
    the package is written from Python floats and ints, and csv writes a
    Python float as its repr: the shortest text that reads back to the same
    double, so a written file loads back bit for bit.
    """

    loss: np.ndarray
    log_alpha: np.ndarray
    accepted: np.ndarray
    theta_norm: np.ndarray
    u_norm: np.ndarray
    step_seconds: np.ndarray | None = None
    n_boundary_rejects: int = 0

    @property
    def step(self) -> np.ndarray:
        return np.arange(1, self.loss.size + 1)

    @property
    def acceptance_rate(self) -> float:
        if self.accepted.size == 0:
            return 0.0
        return float(self.accepted.mean())

    def to_csv(self, path) -> None:
        columns = (self.step, self.loss, self.log_alpha, self.accepted.astype(int),
                   self.theta_norm, self.u_norm)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(zip(*(c.tolist() for c in columns)))

    @classmethod
    def from_csv(cls, path) -> "ChainRecord":
        width = len(CSV_COLUMNS)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected record header: {header}")
            rows = []
            for row in reader:
                if len(row) != width:
                    raise ValueError(
                        f"line {reader.line_num}: expected {width} fields, got {len(row)}"
                    )
                rows.append(row)
        step, loss, log_alpha, accepted, theta_norm, u_norm = list(zip(*rows)) or [()] * width
        if not np.array_equal(np.array(step, dtype=int), np.arange(1, len(step) + 1)):
            raise ValueError("record steps must run 1..n")
        return cls(
            loss=np.array(loss, dtype=float),
            log_alpha=np.array(log_alpha, dtype=float),
            accepted=np.array(accepted, dtype=int).astype(bool),
            theta_norm=np.array(theta_norm, dtype=float),
            u_norm=np.array(u_norm, dtype=float),
        )


@dataclass
class EnsembleSummary:
    """Thinned parameter samples and the steps they were taken at."""

    samples: np.ndarray  # (N, P)
    sample_steps: list[int]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def run_chain(step_fn, state0: ChainState, schedule: ChainSchedule):
    """Drive a step function for total_steps steps, retaining thinned samples.

    step_fn maps ChainState -> (ChainState, StepInfo).  Returns
    (EnsembleSummary, ChainRecord); oracle hard errors propagate, soft
    numerical rejects are already folded into the infos by the samplers.
    Raises NumericalAbort, naming the first bad step, when a position norm
    or a logged loss is not finite.
    """
    n = schedule.total_steps
    record = ChainRecord(
        loss=np.empty(n),
        log_alpha=np.empty(n),
        accepted=np.zeros(n, dtype=bool),
        theta_norm=np.empty(n),
        u_norm=np.empty(n),
        step_seconds=np.empty(n, dtype=np.float32),
    )
    wanted = set(schedule.sample_steps)
    samples = np.empty((schedule.n_samples, state0.theta.size))
    state = state0
    kept = 0
    boundary = 0
    for k in range(1, n + 1):
        t0 = time.perf_counter()
        state, info = step_fn(state)
        record.step_seconds[k - 1] = time.perf_counter() - t0
        i = k - 1
        record.loss[i] = info.loss
        record.log_alpha[i] = info.log_alpha
        record.accepted[i] = info.accepted
        theta = state.theta
        record.theta_norm[i] = math.sqrt(float(theta @ theta))  # np.linalg.norm's arithmetic
        record.u_norm[i] = info.u_norm
        if not info.proposal_in_prior:
            boundary += 1
        if k in wanted:
            samples[kept] = state.theta
            kept += 1
    record.n_boundary_rejects = boundary
    _check_finite(record)
    summary = EnsembleSummary(samples=samples, sample_steps=schedule.sample_steps)
    return summary, record


def _check_finite(record: ChainRecord) -> None:
    bad = ~(np.isfinite(record.theta_norm) & np.isfinite(record.loss))
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalAbort(
            f"chain diverged at step {i + 1}: |theta| = {float(record.theta_norm[i])}, "
            f"loss = {float(record.loss[i])}"
        )


def run_chains(step_fn, state0: ChainState, schedule: ChainSchedule):
    """run_chain for C chains in lockstep: state0 is a ChainState.stack
    state, and step_fn returns StepInfos of (C,) arrays.  Returns each
    chain's (EnsembleSummary, ChainRecord) as run_chain returns it, the
    records without step_seconds.  Raises run_chain's NumericalAbort for
    the first row that diverged.
    """
    n = schedule.total_steps
    c, p = state0.theta.shape
    loss, log_alpha, theta_norm, u_norm = (np.empty((n, c)) for _ in range(4))
    accepted = np.zeros((n, c), dtype=bool)
    boundary = np.zeros(c, dtype=int)
    wanted = set(schedule.sample_steps)
    samples = np.empty((c, schedule.n_samples, p))
    state = state0
    kept = 0
    for i in range(n):
        state, info = step_fn(state)
        loss[i] = info.loss
        log_alpha[i] = info.log_alpha
        accepted[i] = info.accepted
        theta_norm[i] = np.sqrt(np.vecdot(state.theta, state.theta))  # run_chain's dot, row by row
        u_norm[i] = info.u_norm
        boundary += ~info.proposal_in_prior
        if i + 1 in wanted:
            samples[:, kept] = state.theta
            kept += 1
    columns = (loss, log_alpha, accepted, theta_norm, u_norm)
    out = []
    for j in range(c):
        record = ChainRecord(
            *(np.ascontiguousarray(a[:, j]) for a in columns), n_boundary_rejects=int(boundary[j])
        )
        _check_finite(record)
        out.append((EnsembleSummary(samples[j], schedule.sample_steps), record))
    return out


def ensemble_predict(samples: np.ndarray, net: MicroMlp, inputs: np.ndarray):
    """Posterior-mean class probabilities and per-input quantile spread.

    Returns (mean_probs, spread): mean_probs is the arithmetic mean of the
    member probability rows; spread is the 75%-25% interquartile distance of
    the class-1 probability across ensemble members (linear-interpolation
    quantiles).  With fewer than two samples the spread is undefined and
    returned as None.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    member_probs = np.stack([net.forward(theta, inputs) for theta in samples])
    mean_probs = member_probs.mean(axis=0)
    if samples.shape[0] < 2:
        return mean_probs, None
    class1 = member_probs[:, :, 1]
    q75, q25 = np.percentile(class1, [75.0, 25.0], axis=0)
    return mean_probs, q75 - q25


def save_samples_csv(path, samples: np.ndarray) -> None:
    """One row of P full-precision floats per retained sample."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(np.atleast_2d(samples).tolist())


def load_samples_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array(list(csv.reader(fh)), dtype=float)
