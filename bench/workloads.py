"""The benchmark's workloads: closed-loop jobs, output checks and metrics.

Every workload is a closed loop: a job (one chain, or one acceptance scan)
starts only when the previous one has returned, and jobs repeat until the
next one would overrun the measuring window.  Inputs derive from the
workload seed only: job i of seed s runs chain seed 1000 * s + i (scans use
1000 * s + 4 * i and its three follow-ups).

quadratic_p2   README example chain on the 2-D quadratic.  The oracle is a
               few percent of a step, so interpreter overhead in samplers,
               prolate and chain dominates.
mlp_p354       One full-batch MicroMlp 2-16-16-2 chain on two-moons at
               criterion 7's high-acceptance point.  The oracle is ~90% of a
               step, so oracle work shows and sampler-side changes read flat.
scan_noisy_p16 scan_acceptance over sigma x 4 seeds with jobs=2 on the
               minibatch noisy quadratic (criterion 9 setting).  Many short
               chains load per-chain setup, the process pool and the
               uncached minibatch oracle path.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adammcmc.chain import ensemble_predict, run_chain, save_samples_csv
from adammcmc.config import RunConfig
from adammcmc.diagnostics import (
    apply_scan_value,
    scan_acceptance,
    scan_rows_to_csv,
    scan_rows_to_long_csv,
    truncated_gaussian_variance,
)
from adammcmc.experiments import build_experiment, initial_state, make_step_fn
from adammcmc.losses import BatchStream

from ess import bulk_ess, mcse_mean, split_rhat
from tracing import Tracer

QUADRATIC = RunConfig(
    target="quadratic", dim=2, sampler="adammcmc", lam=1.0, gamma=0.01, sigma=0.3,
    sigma_dir=10.0, beta1=0.99, beta2=0.99, steps=20_000, burn_in=10_000, gap=1_000,
    n_samples=10,
)
MLP = RunConfig(
    target="mlp", sampler="adammcmc", lam=1.0, gamma=1e-3, sigma=0.01, sigma_dir=20.0,
    beta1=0.99, beta2=0.99, steps=2_000, burn_in=1_000, gap=100, n_samples=10,
)
NOISY = RunConfig(
    target="noisy_quadratic", dim=16, sampler="adammcmc", lam=0.5, gamma=0.01, sigma=0.7,
    sigma_dir=2.0, beta1=0.99, beta2=0.99, batch_size=32, steps=1_000, burn_in=500,
    gap=50, n_samples=10,
)
# Four octaves ending at criterion 9's sigma = 0.7.  At sigma = 2.8 a P=16
# proposal raises the tempered loss by ~30 nats and a chain accepts nothing;
# at 1.4 acceptance is 0.005-0.09, so some 1000-step chains accept nothing.
SCAN_GRID = (0.0875, 0.175, 0.35, 0.7)
SCAN_REPLICATES = 3
SCAN_JOBS = 2
SCAN_CHAINS = len(SCAN_GRID) * (1 + SCAN_REPLICATES)

# Pooled over a run's chains; 40-member ensembles of untrained (He-init)
# networks reach at most 0.77 over 20 draws, trained chains 0.83-0.93.
MLP_ACCURACY_FLOOR = 0.8
QUADRATIC_CHECK_SE = 5.0  # allowed |variance error| in batch-means standard errors


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


@dataclass
class ChainRun:
    """One chain driven the way `adammcmc run` drives it, with timings."""

    config: RunConfig
    experiment: object
    summary: object
    record: object
    build_s: float
    setup_s: float
    sampling_s: float
    write_s: float = 0.0
    write_bytes: int = 0
    wall_s: float = 0.0
    digest: str = ""

    @property
    def steps(self) -> int:
        return int(self.record.step.size)

    @property
    def bookkeeping_s(self) -> float:
        return self.sampling_s - float(self.record.step_seconds.sum())

    def post_burn_in(self, values) -> np.ndarray:
        return np.asarray(values)[self.config.burn_in :]


def run_one_chain(config: RunConfig, out_dir: Path | None, tracer: Tracer | None = None) -> ChainRun:
    """build_experiment -> initial_state -> make_step_fn -> run_chain, then
    record.csv and samples.csv when out_dir is given.  Only run_chain is
    traced."""
    t0 = time.perf_counter()
    experiment = build_experiment(config)
    t_build = time.perf_counter()
    chain_seq, batch_seq, init_seq = np.random.SeedSequence(config.seed).spawn(3)
    state0 = initial_state(
        experiment, np.random.default_rng(init_seq), np.random.default_rng(chain_seq)
    )
    oracle = experiment.target.oracle
    batches = BatchStream(oracle.n_points, config.batch_size, np.random.default_rng(batch_seq))
    step_fn = make_step_fn(experiment, batches)
    t_setup = time.perf_counter()
    with tracer.installed(oracle) if tracer is not None else nullcontext():
        summary, record = run_chain(step_fn, state0, experiment.schedule)
    t_run = time.perf_counter()
    run = ChainRun(
        config, experiment, summary, record,
        build_s=t_build - t0, setup_s=t_setup - t0, sampling_s=t_run - t_setup,
    )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        record.to_csv(out_dir / "record.csv")
        save_samples_csv(out_dir / "samples.csv", summary.samples)
        t_written = time.perf_counter()
        blob = (out_dir / "record.csv").read_bytes() + (out_dir / "samples.csv").read_bytes()
        run.write_s = t_written - t_run
        run.write_bytes = len(blob)
        run.digest = hashlib.sha256(blob).hexdigest()[:16]
        run.wall_s = t_written - t0
    else:
        run.wall_s = t_run - t0
    return run


def chain_is_finite(run: ChainRun) -> bool:
    return bool(
        np.isfinite(run.record.loss).all()
        and np.isfinite(run.record.theta_norm).all()
        and np.isfinite(run.summary.samples).all()
    )


def quadratic_check(run: ChainRun) -> tuple[bool, dict]:
    """The record holds |theta| per step, so the per-coordinate variance is
    checked as its coordinate average: mean |theta|^2 / P after burn-in
    against truncated_gaussian_variance, within QUADRATIC_CHECK_SE
    batch-means standard errors."""
    cfg = run.config
    per_coord = run.post_burn_in(run.record.theta_norm) ** 2 / cfg.dim
    truth = truncated_gaussian_variance(cfg.lam, cfg.prior_half_width)
    z = (per_coord.mean() - truth) / mcse_mean(per_coord)
    return bool(abs(z) <= QUADRATIC_CHECK_SE), {"variance_z": round(float(z), 3)}


def ensemble_accuracy(runs: list[ChainRun]) -> float:
    """Accuracy of the mean prediction of every retained sample of the runs."""
    experiment = runs[0].experiment
    samples = np.concatenate([r.summary.samples for r in runs])
    mean_probs, _ = ensemble_predict(samples, experiment.net, experiment.test_inputs)
    return float((mean_probs.argmax(axis=1) == experiment.test_labels).mean())


def mlp_chain_detail(run: ChainRun) -> tuple[bool, dict]:
    """At lam = 1 on the mean loss the tempered posterior barely prefers a
    good classifier, and about one chain in twenty drifts to a degenerate one
    within 2000 steps; a single chain's accuracy is reported, not checked."""
    return True, {"test_accuracy": ensemble_accuracy([run])}


def mlp_ensemble_check(runs: list[ChainRun]) -> tuple[bool, dict]:
    accuracy = ensemble_accuracy(runs)
    return accuracy >= MLP_ACCURACY_FLOOR, {"ensemble_test_accuracy": accuracy}


@dataclass(frozen=True)
class SingleChain:
    """A workload of one chain per job."""

    config: RunConfig
    check: object  # ChainRun -> (passed, detail)
    block_steps: int  # steps per block of the throughput median
    with_ess: bool
    run_check: object = None  # list[ChainRun] -> (passed, detail), over a run's chains


SINGLE_CHAIN = {
    "quadratic_p2": SingleChain(QUADRATIC, quadratic_check, block_steps=1000, with_ess=True),
    "mlp_p354": SingleChain(
        MLP, mlp_chain_detail, block_steps=100, with_ess=False, run_check=mlp_ensemble_check
    ),
}


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    consistent: bool = True  # cross-checks between paths that must agree
    metrics: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.consistent


def closed_loop(seconds: float, job) -> None:
    """Run job(i) for i = 0, 1, ... until the next one would overrun; at
    least two jobs, so a run pools more than one chain seed."""
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        job(i)
        i += 1
        now = time.perf_counter()
        if i >= 2 and now - start + (now - t0) > seconds:
            return


def pooled_ess(runs: list[ChainRun]) -> dict:
    """Smaller of the post-burn-in bulk ESS of loss and |theta|, pooled over
    the chains, with split-R-hat of both."""
    loss = np.stack([r.post_burn_in(r.record.loss) for r in runs])
    norm = np.stack([r.post_burn_in(r.record.theta_norm) for r in runs])
    return {
        "ess": min(bulk_ess(loss), bulk_ess(norm)),
        "rhat": max(split_rhat(loss), split_rhat(norm)),
        "draws": loss.size,
    }


def step_percentiles(runs: list[ChainRun]) -> dict:
    step_us = np.concatenate([r.record.step_seconds for r in runs]) * 1e6
    p50, p99 = np.percentile(step_us, [50.0, 99.0])
    return {
        "step_us_p50": _metric(p50, "us"),
        "step_us_p99": _metric(p99, "us"),
        "step_samples": _metric(step_us.size, "count"),
    }


# ---------------------------------------------------------------------------
# single-chain workloads: quadratic_p2, mlp_p354
# ---------------------------------------------------------------------------


def _checked_chain(out: Outcome, config, out_dir, check, label, tracer=None):
    """Run one chain and count it; returns the run, or None if it failed."""
    out.attempted += 1
    try:
        run = run_one_chain(config, out_dir, tracer)
    except Exception as exc:  # a chain that raises is a failed chain
        out.failed += 1
        out.lines.append(("chain", {"seed": config.seed, "mode": label, "error": repr(exc)}))
        return None
    finite = chain_is_finite(run)
    passed, detail = check(run) if finite else (False, {})
    ok = finite and passed
    out.failed += not ok
    out.lines.append(
        ("chain", {"seed": config.seed, "mode": label, "digest": run.digest, "ok": ok,
                   "acceptance": run.record.acceptance_rate, **detail})
    )
    return run if ok else None


def _run_check(out: Outcome, spec: SingleChain, runs: list[ChainRun]) -> None:
    """Apply the workload check over all of a run's chains; if it fails,
    every one of them has failed."""
    if spec.run_check is None or not runs:
        return
    passed, detail = spec.run_check(runs)
    out.report.update(detail)
    if not passed:
        out.failed += len(runs)


def block_seconds(runs: list[ChainRun], block_steps: int) -> np.ndarray:
    """Sampling seconds of consecutive block_steps-step blocks of every
    chain, each chain's run_chain bookkeeping spread evenly over its steps."""
    blocks = []
    for r in runs:
        per_step = r.record.step_seconds + r.bookkeeping_s / r.steps
        usable = per_step.size // block_steps * block_steps
        blocks.append(per_step[:usable].reshape(-1, block_steps).sum(axis=1))
    return np.concatenate(blocks)


def single_chain_untraced(spec: SingleChain, seed, seconds, out_root):
    """One chain per job.  Returns the outcome and the median pre-run_chain
    setup seconds (None if every chain failed)."""
    out = Outcome()
    runs: list[ChainRun] = []

    def job(i):
        config = spec.config.replace(seed=1000 * seed + i)
        run = _checked_chain(out, config, out_root / "chain", spec.check, "untraced")
        if run is not None:
            runs.append(run)

    closed_loop(seconds, job)
    _run_check(out, spec, runs)
    if not runs:
        return out, None
    steps = sum(r.steps for r in runs)
    steps_per_s = spec.block_steps / float(np.median(block_seconds(runs, spec.block_steps)))
    out.metrics = {
        "chain_steps_per_s": _metric(steps_per_s, "1/s"),
        "wall_s": _metric(statistics.median(r.wall_s for r in runs), "s"),
    }
    out.report.update(step_percentiles(runs))
    out.report["chains"] = _metric(len(runs), "count")
    out.report["first_digest"] = runs[0].digest
    if spec.with_ess:
        pooled = pooled_ess(runs)
        out.report["ess_per_s"] = _metric(pooled["ess"] / steps * steps_per_s, "1/s")
        out.report["ess_pooled"] = _metric(pooled["ess"], "count")
        out.report["split_rhat"] = _metric(pooled["rhat"], "ratio")
    return out, statistics.median(r.setup_s for r in runs)


def single_chain_traced(spec: SingleChain, seed, seconds, out_root):
    """Each job runs one seed untraced and traced (alternating which goes
    first); the pair must give the same output digest."""
    out = Outcome()
    tracer = Tracer()
    plain: list[ChainRun] = []
    traced: list[ChainRun] = []

    def job(i):
        config = spec.config.replace(seed=1000 * seed + i)
        order = [False, True] if i % 2 == 0 else [True, False]
        pair = {}
        for with_trace in order:
            label = "traced" if with_trace else "untraced"
            pair[label] = _checked_chain(
                out, config, out_root / label, spec.check, label, tracer if with_trace else None
            )
        if pair["untraced"] is not None and pair["traced"] is not None:
            plain.append(pair["untraced"])
            traced.append(pair["traced"])
            if pair["untraced"].digest != pair["traced"].digest:
                out.consistent = False

    closed_loop(seconds, job)
    _run_check(out, spec, plain + traced)
    tracer.write_spans(out_root / "spans.jsonl")
    if not traced:
        return out
    plain_s = sum(r.sampling_s for r in plain)
    traced_s = sum(r.sampling_s for r in traced)
    out.metrics = layer_metrics(tracer, traced, traced_s, plain_s)
    out.metrics.update(
        {
            "chain.write_s": _metric(statistics.median(r.write_s for r in traced), "s"),
            "chain.write_bytes": _metric(statistics.median(r.write_bytes for r in traced), "B"),
            "experiments.build_s": _metric(
                statistics.median(r.build_s for r in plain + traced), "s"
            ),
            "diagnostics.scan_wall_s": _metric(statistics.median(r.wall_s for r in plain), "s"),
            "diagnostics.chains": _metric(1, "count"),
            "diagnostics.parallel_efficiency": _metric(
                plain_s / sum(r.wall_s for r in plain), "frac"
            ),
        }
    )
    out.report["self_sum_within_overhead"] = self_sum_within_overhead(out.metrics)
    return out


# ---------------------------------------------------------------------------
# scan_noisy_p16
# ---------------------------------------------------------------------------


def _write_scan(rows, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    scan_rows_to_csv(rows, out_dir / "scan.csv")
    scan_rows_to_long_csv(rows, out_dir / "scan_long.csv")
    write_s = time.perf_counter() - t0
    blob = (out_dir / "scan.csv").read_bytes() + (out_dir / "scan_long.csv").read_bytes()
    return write_s, len(blob), hashlib.sha256(blob).hexdigest()[:16]


def _checked_scan(out: Outcome, config: RunConfig, jobs: int, out_dir: Path | None):
    """One scan_acceptance call, counted per chain, with scan.csv and
    scan_long.csv written when out_dir is given.  Returns (rows, seconds,
    log line); rows is None when the scan raised."""
    out.attempted += SCAN_CHAINS
    t0 = time.perf_counter()
    try:
        rows = scan_acceptance(config, "sigma", SCAN_GRID, n_replicates=SCAN_REPLICATES, jobs=jobs)
    except Exception as exc:  # the pool re-raises a chain's exception
        out.failed += SCAN_CHAINS
        line = {"seed": config.seed, "jobs": jobs, "error": repr(exc)}
        out.lines.append(("scan", line))
        return None, time.perf_counter() - t0, line
    elapsed = time.perf_counter() - t0
    bad = [
        (r.value, r.seed) for r in rows
        if not (0.0 < r.mean_acceptance <= 1.0 and np.isfinite(r.metric))
    ]
    out.failed += len(bad) + (SCAN_CHAINS - len(rows))
    line = {"seed": config.seed, "jobs": jobs, "seconds": round(elapsed, 3), "bad_rows": bad}
    if out_dir is not None:
        write_s, nbytes, digest = _write_scan(rows, out_dir)
        line.update(digest=digest, write_s=write_s, write_bytes=nbytes)
    out.lines.append(("scan", line))
    return rows, elapsed, line


def _scan_config(seed: int, job: int) -> RunConfig:
    # scan_acceptance runs seeds config.seed .. config.seed + SCAN_REPLICATES
    return NOISY.replace(seed=1000 * seed + (1 + SCAN_REPLICATES) * job)


def scan_untraced(seed, seconds, out_root):
    """One scan_acceptance(jobs=2) per job.  Returns the outcome and the
    median setup seconds before the scan call (None if every scan failed)."""
    out = Outcome()
    walls, samplings = [], []
    setups = []

    def job(i):
        t0 = time.perf_counter()
        config = _scan_config(seed, i)
        setups.append(time.perf_counter() - t0)
        rows, elapsed, _ = _checked_scan(out, config, SCAN_JOBS, out_root)
        if rows is not None:
            walls.append(time.perf_counter() - t0)
            samplings.append(elapsed)

    closed_loop(seconds, job)
    if not walls:
        return out, None
    out.metrics = {
        "chain_steps_per_s": _metric(SCAN_CHAINS * NOISY.steps / statistics.median(samplings), "1/s"),
        "wall_s": _metric(statistics.median(walls), "s"),
    }
    out.report["scans"] = _metric(len(walls), "count")
    return out, statistics.median(setups)


def _replay_scan(out: Outcome, config: RunConfig, rows, tracer: Tracer) -> list[ChainRun]:
    """Serial in-process replay of a scan's chains, traced; each replayed
    chain must reproduce its scan row bit for bit."""
    truth = truncated_gaussian_variance(config.lam, config.prior_half_width)
    by_key = {(r.value, r.seed): r for r in rows}
    runs = []
    for value in SCAN_GRID:
        for r in range(1 + SCAN_REPLICATES):
            chain_cfg = apply_scan_value(config, "sigma", value).replace(seed=config.seed + r)
            out.attempted += 1
            run = run_one_chain(chain_cfg, None, tracer)
            sample_var = run.summary.samples.var(axis=0, ddof=1)
            metric = float(np.abs(sample_var - truth).mean())
            row = by_key.get((float(value), chain_cfg.seed))
            same = (
                row is not None
                and row.mean_acceptance == run.record.acceptance_rate
                and row.metric == metric
            )
            ok = chain_is_finite(run) and 0.0 < run.record.acceptance_rate <= 1.0
            out.failed += not ok
            out.consistent = out.consistent and same
            runs.append(run)
    return runs


def scan_traced(seed, seconds, out_root):
    """Each job runs the scan at jobs=2 and at jobs=1, then replays its
    chains serially under the tracer."""
    out = Outcome()
    tracer = Tracer()
    replayed: list[ChainRun] = []
    wall2, wall1, replay_s, writes = [], [], [], []

    def job(i):
        config = _scan_config(seed, i)
        rows2, s2, line2 = _checked_scan(out, config, SCAN_JOBS, out_root / "jobs2")
        rows1, s1, _ = _checked_scan(out, config, 1, None)
        if rows2 is None or rows1 is None:
            return
        if [vars(r) for r in rows1] != [vars(r) for r in rows2]:
            out.consistent = False
        t0 = time.perf_counter()
        replayed.extend(_replay_scan(out, config, rows2, tracer))
        replay_s.append(time.perf_counter() - t0)
        wall2.append(s2)
        wall1.append(s1)
        writes.append(line2)

    closed_loop(seconds, job)
    tracer.write_spans(out_root / "spans.jsonl")
    if not replayed:
        return out
    # the untraced serial reference is the jobs=1 scan, which also pays
    # per-chain setup and metrics, so the traced side is the whole replay
    out.metrics = layer_metrics(tracer, replayed, sum(replay_s), sum(wall1))
    out.metrics.update(
        {
            "chain.write_s": _metric(statistics.median(w["write_s"] for w in writes), "s"),
            "chain.write_bytes": _metric(statistics.median(w["write_bytes"] for w in writes), "B"),
            "experiments.build_s": _metric(statistics.median(r.build_s for r in replayed), "s"),
            "diagnostics.scan_wall_s": _metric(statistics.median(wall2), "s"),
            "diagnostics.chains": _metric(SCAN_CHAINS, "count"),
            "diagnostics.parallel_efficiency": _metric(
                sum(wall1) / (SCAN_JOBS * sum(wall2)), "frac"
            ),
        }
    )
    out.report["self_sum_within_overhead"] = self_sum_within_overhead(out.metrics)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, runs: list[ChainRun], traced_s: float, plain_s: float) -> dict:
    """Per-step layer costs of the traced chains, plus the tracing overhead
    traced_s / plain_s - 1 for the same steps run untraced."""
    steps = sum(r.steps for r in runs)

    def per_step_us(name):
        return _metric(tracer.inclusive_s(name) * 1e6 / steps, "us/step")

    def per_step_calls(name):
        return _metric(tracer.calls(name) / steps, "calls/step")

    accepted = sum(int(r.record.accepted.sum()) for r in runs)
    pooled = pooled_ess(runs)
    bookkeeping = sum(r.bookkeeping_s for r in runs)
    return {
        "prolate.log_density_calls": per_step_calls("prolate.log_density"),
        "prolate.log_density_us": per_step_us("prolate.log_density"),
        "prolate.sample_us": per_step_us("prolate.sample"),
        "prolate.log_det_calls": per_step_calls("prolate.log_det"),
        "samplers.momentum_us": per_step_us("samplers.momentum"),
        "samplers.update_vector_us": per_step_us("samplers.update_vector"),
        "samplers.accept_us": per_step_us("samplers.accept"),
        "samplers.self_us": _metric(tracer.self_s("samplers.step") * 1e6 / steps, "us/step"),
        "samplers.accept_ratio": _metric(accepted / steps, "frac"),
        "samplers.ess_per_kstep": _metric(1000.0 * pooled["ess"] / pooled["draws"], "1/kstep"),
        "samplers.boundary_rejects": _metric(sum(r.record.n_boundary_rejects for r in runs), "count"),
        "samplers.nonfinite_rejects": _metric(tracer.nonfinite_rejects, "count"),
        "losses.forward_calls": per_step_calls("losses.forward"),
        "losses.forward_us": per_step_us("losses.forward"),
        "losses.backward_calls": per_step_calls("losses.backward"),
        "losses.backward_us": per_step_us("losses.backward"),
        "losses.batch_next_us": per_step_us("losses.batch_next"),
        "chain.bookkeeping_us": _metric(bookkeeping * 1e6 / steps, "us/step"),
        "trace.overhead_frac": _metric(traced_s / plain_s - 1.0, "frac"),
        "trace.self_sum_us": _metric(
            (tracer.total_self_s() + bookkeeping) * 1e6 / steps, "us/step"
        ),
        "trace.untraced_step_us": _metric(plain_s * 1e6 / steps, "us/step"),
    }


def self_sum_within_overhead(metrics: dict) -> bool:
    """Every span's self time plus run_chain bookkeeping adds up to the
    untraced step time, give or take the tracing overhead."""
    self_sum = metrics["trace.self_sum_us"]["value"]
    plain = metrics["trace.untraced_step_us"]["value"]
    return abs(self_sum - plain) <= abs(metrics["trace.overhead_frac"]["value"]) * plain
