"""Verification instruments: gridded 1-D target masses and a TV trace,
a detailed-balance checker driven against dense linear algebra, acceptance
scans over hyperparameter grids, and the full-vs-stochastic accept-test
comparison."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .chain import ChainRecord, ChainSchedule, run_chain
from .config import ConfigError, RunConfig
from .experiments import (
    build_experiment,
    ensemble_test_accuracy,
    make_step_fn,
    run_experiments,
    start_chain,
)
from .losses import BatchStream, GibbsTarget
from .prolate import ProlateCovariance
from .samplers import (
    AdamParams,
    ChainState,
    CorrectionParams,
    Momenta,
    ProposalParams,
    adam_update_vector,
    adammcmc_log_alpha,
)

# ---------------------------------------------------------------------------
# Gridded masses, total variation distance and closed-form variances
# ---------------------------------------------------------------------------


def grid_masses(target: GibbsTarget, bounds, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell edges and normalized cell masses of a 1-D target: exp(-lam * L)
    at the centers of resolution cells on bounds = (lo, hi), normalized by a
    max-shifted log-sum-exp."""
    if target.dim != 1:
        raise ValueError(f"grids support 1-D targets only, got dim {target.dim}")
    lo, hi = bounds
    edges = np.linspace(lo, hi, resolution + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    logs = np.array([target.log_unnorm(np.array([c])) for c in centers])
    shift = logs.max()
    return edges, np.exp(logs - (shift + np.log(np.exp(logs - shift).sum())))


def tv_trace(samples: np.ndarray, grid, checkpoints) -> list[tuple[int, float]]:
    """TV distance between the grid = (edges, masses) and the empirical cell
    masses of samples[:k], at each checkpoint k.  Counts are divided by the
    number of samples taken, so samples outside the grid lose their mass."""
    edges, masses = grid
    if masses.size != edges.size - 1:
        raise ValueError(f"grid mismatch: {masses.size} masses for {edges.size} edges")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"samples must be a flat array, got shape {samples.shape}")
    rows = []
    for k in checkpoints:
        taken = samples[: int(k)]
        if taken.size < 2:
            raise ValueError(f"need at least 2 samples, got {taken.size} at checkpoint {k}")
        counts, _ = np.histogram(taken, bins=edges)
        rows.append((int(k), 0.5 * float(np.abs(counts / taken.size - masses).sum())))
    return rows


def truncated_gaussian_variance(lam: float, half_width: float) -> float:
    """Per-coordinate variance of exp(-lam x^2 / 2) on [-R, R], in closed form.

    With a = R sqrt(lam) it is (1 - 2 a phi(a) / erf(a / sqrt 2)) / lam, which
    is exactly 1 / lam once phi(a) underflows.  Below a = 1 that difference
    cancels (to ~1e-11 relative near a = 1e-2), so there the variance is the
    ratio of the Taylor series of the integrals of z^2 exp(-z^2 / 2) and of
    exp(-z^2 / 2) over [0, a], whose terms fall below 1e-24 by k = 20.
    """
    a = half_width * math.sqrt(lam)
    if a < 1.0:
        num = den = 0.0
        term = 1.0
        for k in range(20):
            den += term / (2 * k + 1)
            num += term / (2 * k + 3)
            term *= -0.5 * a * a / (k + 1)
        return half_width * half_width * num / den
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return (1.0 - 2.0 * a * phi / math.erf(a / math.sqrt(2.0))) / lam


def banana_variance(lam: float, curvature: float) -> np.ndarray:
    """Per-coordinate variance of the 2-D banana posterior, in closed form.

    With s^2 = 1 / (2 lam) and c the curvature, x ~ N(1, s^2) and
    y | x ~ N(x^2, 1 / (2 lam c)), so Var x = s^2 and
    Var y = 4 s^2 + 2 s^4 + 1 / (2 lam c).  The prior box is ignored: at the
    default half-width 100 it moves Var y by about 0.5% at lam = 0.1 and by
    less than 1e-8 (relative) at lam >= 0.3.
    """
    s_sq = 0.5 / lam
    return np.array([s_sq, 4.0 * s_sq + 2.0 * s_sq * s_sq + 0.5 / (lam * curvature)])


# ---------------------------------------------------------------------------
# Detailed balance
# ---------------------------------------------------------------------------


BALANCE_STEP = 5  # the Adam step count k of the trial update vectors
BALANCE_POINT_SCALE = 1.5  # standard deviation of the trial points theta, tau


def _dense_gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """Dense multivariate normal log pdf via slogdet and solve (oracle path)."""
    diff = x - mean
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    quad = float(diff @ np.linalg.solve(cov, diff))
    return -0.5 * (diff.size * np.log(2.0 * np.pi) + logdet + quad)


def _log_invariant_density(
    target: GibbsTarget,
    theta: np.ndarray,
    m: Momenta,
    cp: CorrectionParams,
) -> float:
    """Stationary density of the augmented (theta, momenta) chain:
    tempered target times Gaussian momentum factors centered at the gradient
    and its square, with cp's variances s_1^2, s_2^2."""
    grad = target.oracle.grad(theta)
    eye = np.eye(theta.size)
    value = target.log_unnorm(theta)
    value += _dense_gaussian_logpdf(m.m1, grad, cp.s1_sq * eye)
    value += _dense_gaussian_logpdf(m.m2, grad**2, cp.s2_sq * eye)
    return value


def detailed_balance_violations(
    target: GibbsTarget,
    ap: AdamParams,
    pp: ProposalParams,
    cp: CorrectionParams | None,
    n_trials: int,
    rng: np.random.Generator,
    density_cp: CorrectionParams | None = None,
) -> np.ndarray:
    """Relative gap of alpha * q1 * f between both transition directions,
    at trial points drawn with scale BALANCE_POINT_SCALE and update vectors
    at step BALANCE_STEP.

    The acceptance alpha comes from the samplers' O(P) log-acceptance path,
    while q1 and f are evaluated with dense linear algebra, so a bug in the
    rank-one determinant/inverse shows up instead of cancelling.  density_cp
    pins the momentum variances of the invariant density f (and of the trial
    draws) independently of the acceptance's correction cp, which makes
    unit-vs-full comparisons on identical trials possible; it defaults to cp.
    f needs variances, so the two cannot both be None (the unit correction).
    """
    cp_density = density_cp or cp
    if cp_density is None:
        raise ValueError("the invariant density needs momentum variances: pass a cp or density_cp")
    dim = target.dim
    out = np.empty(n_trials)
    for trial in range(n_trials):
        theta = BALANCE_POINT_SCALE * rng.standard_normal(dim)
        tau = BALANCE_POINT_SCALE * rng.standard_normal(dim)
        grad = target.oracle.grad(theta)
        m_tilde = Momenta(
            grad + np.sqrt(cp_density.s1_sq) * rng.standard_normal(dim),
            grad**2 + np.sqrt(cp_density.s2_sq) * rng.standard_normal(dim),
        )
        u = adam_update_vector(m_tilde, BALANCE_STEP, ap)
        cov = ProlateCovariance(pp.sigma, pp.sigma_dir, u).dense()

        log_alpha_fwd = adammcmc_log_alpha(target, theta, tau, m_tilde, BALANCE_STEP, ap, pp, cp)
        log_alpha_bwd = adammcmc_log_alpha(target, tau, theta, m_tilde, BALANCE_STEP, ap, pp, cp)
        log_q_fwd = _dense_gaussian_logpdf(tau, theta - u, cov)
        log_q_bwd = _dense_gaussian_logpdf(theta, tau - u, cov)
        log_f_theta = _log_invariant_density(target, theta, m_tilde, cp_density)
        log_f_tau = _log_invariant_density(target, tau, m_tilde, cp_density)

        lhs = log_alpha_fwd + log_q_fwd + log_f_theta
        rhs = log_alpha_bwd + log_q_bwd + log_f_tau
        with np.errstate(over="ignore"):  # gross violations may overflow expm1
            out[trial] = abs(np.expm1(lhs - rhs))
    return out


# ---------------------------------------------------------------------------
# Acceptance scans
# ---------------------------------------------------------------------------

SCAN_FIELDS = {  # each scanned hyperparameter and the config fields it sets
    "sigma": ("sigma",), "sigma_dir": ("sigma_dir",), "beta": ("beta1", "beta2"), "lambda": ("lam",)
}
SCAN_PARAMS = tuple(SCAN_FIELDS)


@dataclass
class ScanRow:
    param: str
    value: float
    seed: int
    mean_acceptance: float
    metric: float
    metric_name: str


def apply_scan_value(config: RunConfig, param: str, value: float) -> RunConfig:
    """Override one scanned hyperparameter; 'beta' sets both momenta decays."""
    if param not in SCAN_FIELDS:
        raise ConfigError("param", f"unknown scan parameter {param!r}; choose from {SCAN_PARAMS}")
    return config.replace(**dict.fromkeys(SCAN_FIELDS[param], float(value)))


def _scan_metric(result) -> tuple[float, str]:
    cfg = result.experiment.config
    if cfg.target == "mlp":
        return ensemble_test_accuracy(result)[0], "test_accuracy"
    if cfg.target in ("quadratic", "noisy_quadratic"):
        # center shifts leave the per-coordinate truncated variance unchanged
        truth = truncated_gaussian_variance(cfg.lam, cfg.prior_half_width)
    elif cfg.target == "banana" and cfg.dim == 2:
        truth = banana_variance(cfg.lam, result.experiment.target.oracle.curvature)
    else:
        return float("nan"), "none"
    sample_var = result.summary.samples.var(axis=0, ddof=1)
    return float(np.abs(sample_var - truth).mean()), "variance_error"


def _scan_group(tasks) -> list[ScanRow]:
    """The rows of a contiguous share of a scan's (config, param, value)
    tasks, its chains run by run_experiments."""
    results = run_experiments([config for config, _, _ in tasks])
    return [
        ScanRow(param, float(value), config.seed, result.record.acceptance_rate,
                *_scan_metric(result))
        for (config, param, value), result in zip(tasks, results)
    ]


def scan_acceptance(
    config: RunConfig,
    param: str,
    grid,
    n_replicates: int = 3,
    jobs: int = 1,
) -> list[ScanRow]:
    """One desk-scale chain per (grid value, seed): mean acceptance plus a
    quality metric.  Seeds are the config seed and n_replicates follow-ups.
    The chains split into min(jobs, chains) contiguous groups, one per
    worker process when jobs > 1, and each group's adammcmc chains run in
    lockstep (run_experiments); every row is the one its chain gives alone."""
    grid = list(grid)
    if not grid:
        raise ConfigError("grid", "scan grid is empty")
    if n_replicates < 0:
        raise ConfigError("replicates", f"must be >= 0, got {n_replicates}")
    if jobs < 1:
        raise ConfigError("jobs", f"must be >= 1, got {jobs}")
    seeds = [config.seed + r for r in range(1 + n_replicates)]
    # every config is built and validated here, before any chain runs: a bad
    # grid value raises ConfigError in this process, never in a pool worker
    tasks = [
        (apply_scan_value(config, param, value).replace(seed=seed), param, value)
        for value in grid
        for seed in seeds
    ]
    if jobs == 1:
        return _scan_group(tasks)
    # a pool loads multiprocessing; serial scans never import it
    from concurrent.futures import ProcessPoolExecutor

    n = min(jobs, len(tasks))
    cuts = [len(tasks) * g // n for g in range(n + 1)]
    with ProcessPoolExecutor(max_workers=n) as pool:
        groups = pool.map(_scan_group, [tasks[a:b] for a, b in zip(cuts, cuts[1:])])
        return [row for rows in groups for row in rows]


def scan_rows_to_csv(rows: list[ScanRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "mean_acceptance", "metric", "metric_name"])
        writer.writerows(
            (r.param, r.value, r.seed, r.mean_acceptance, r.metric, r.metric_name) for r in rows
        )


def scan_rows_to_long_csv(rows: list[ScanRow], path) -> None:
    """Plot-ready long format: one (param, value, seed, quantity, value) row
    per recorded quantity."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "quantity", "quantity_value"])
        for r in rows:
            writer.writerow((r.param, r.value, r.seed, "mean_acceptance", r.mean_acceptance))
            writer.writerow((r.param, r.value, r.seed, r.metric_name, r.metric))


# ---------------------------------------------------------------------------
# Full vs stochastic accept test
# ---------------------------------------------------------------------------


@dataclass
class MhComparison:
    """The comparison-phase records of the full and the stochastic chain."""

    full_record: ChainRecord
    stochastic_record: ChainRecord

    def summary_dict(self) -> dict:
        """Mean acceptance and loss mean/variance of each chain."""
        stats = {}
        for label, record in (("full", self.full_record), ("stochastic", self.stochastic_record)):
            stats[f"{label}_acceptance"] = record.acceptance_rate
            stats[f"{label}_loss_mean"] = float(record.loss.mean())
            stats[f"{label}_loss_var"] = float(record.loss.var(ddof=1))
        return stats


def compare_full_vs_stochastic_mh(config: RunConfig, batch_size: int) -> MhComparison:
    """Run matched chains with the full accept test and the batch-based one.

    The stochastic chain burns in first; both variants then start from its
    end state with identical fresh RNG streams, so the comparison happens in
    the same region of parameter space (cold-started pairs drift into
    different basins and the acceptance comparison becomes meaningless).
    A batch_size outside [1, n_points) or fewer than 2 steps after burn-in
    raise ConfigError before any chain runs: a batch that covers the data
    would make both chains full-batch, and one step has no loss variance.
    """
    experiment = build_experiment(config)
    n_points = experiment.target.oracle.n_points
    if not 1 <= batch_size < n_points:
        raise ConfigError(
            "batch_size", f"compare-mh needs a minibatch in [1, {n_points}), got {batch_size}"
        )
    compare_steps = config.steps - config.burn_in
    if compare_steps < 2:
        raise ConfigError(
            "steps", f"compare-mh needs at least 2 steps after burn_in, got {compare_steps}"
        )
    # hand-rolled because run_chain keeps the samples and record, not the end state
    warm, warm_fn = start_chain(experiment, batch_size)
    for _ in range(config.burn_in):
        warm, _ = warm_fn(warm)

    schedule = ChainSchedule(compare_steps, 0, max(1, compare_steps // 2), 1)
    records = {}
    for label, bsize in (("full", 0), ("stochastic", batch_size)):
        cmp_seq = np.random.SeedSequence(config.seed + 1).spawn(2)
        rng = np.random.default_rng(cmp_seq[0])
        state = ChainState(warm.theta, warm.momenta, warm.step, warm.current, rng)
        batches = BatchStream(n_points, bsize, np.random.default_rng(cmp_seq[1]))
        _, records[label] = run_chain(make_step_fn(experiment, batches), state, schedule)
    return MhComparison(records["full"], records["stochastic"])
