"""Verification instruments: gridded target densities and TV distance,
a detailed-balance checker driven against dense linear algebra, acceptance
scans over hyperparameter grids, and the full-vs-stochastic accept-test
comparison."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .chain import ChainRecord, ChainSchedule, run_chain
from .config import ConfigError, RunConfig
from .experiments import (
    build_experiment,
    ensemble_test_accuracy,
    make_step_fn,
    run_experiment,
    start_chain,
)
from .losses import BatchStream, GibbsTarget
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
# Gridded densities and total variation distance
# ---------------------------------------------------------------------------


@dataclass
class GridDensity:
    """Normalized cell masses of a density on a regular 1D or 2D grid."""

    edges: tuple[np.ndarray, ...]
    log_mass: np.ndarray

    @classmethod
    def from_target(cls, target: GibbsTarget, bounds, resolution: int) -> "GridDensity":
        """Evaluate exp(-lam * L) at the centers of resolution cells per
        dimension and normalize via log-sum-exp; bounds is a (lo, hi) pair
        per dimension."""
        if len(bounds) not in (1, 2):
            raise ValueError("grids support 1 or 2 dimensions only")
        edges = tuple(np.linspace(lo, hi, resolution + 1) for lo, hi in bounds)
        centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
        logs = np.array(
            [target.log_unnorm(np.array(point)) for point in itertools.product(*centers)]
        ).reshape([c.size for c in centers])
        from scipy.special import logsumexp  # kept off the import path of the sampler

        log_mass = logs - logsumexp(logs)
        return cls(edges=edges, log_mass=log_mass)

    @property
    def masses(self) -> np.ndarray:
        return np.exp(self.log_mass)

    def histogram_masses(self, samples: np.ndarray) -> np.ndarray:
        """Empirical cell masses of samples on this grid, normalized by the
        total sample count (out-of-range samples lose their mass)."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.shape[1] != len(self.edges):
            raise ValueError("sample dimension does not match the grid")
        counts, _ = np.histogramdd(samples, bins=self.edges)
        return counts / samples.shape[0]


def tv_distance(empirical: np.ndarray, target: GridDensity) -> float:
    """Half the L1 distance between empirical cell masses and the target."""
    empirical = np.asarray(empirical, dtype=float)
    if empirical.shape != target.log_mass.shape:
        raise ValueError(
            f"grid mismatch: empirical {empirical.shape} vs target {target.log_mass.shape}"
        )
    return 0.5 * float(np.abs(empirical - target.masses).sum())


def tv_to_target(samples: np.ndarray, target: GridDensity, min_samples: int = 1000) -> float:
    """Bin samples on the target's grid and return the TV distance."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {n}")
    return tv_distance(target.histogram_masses(samples), target)


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


def grid_moments(grid: GridDensity):
    """Mean and per-coordinate variance of a gridded density (cell centers)."""
    masses = grid.masses
    centers = [0.5 * (e[:-1] + e[1:]) for e in grid.edges]
    coords = np.meshgrid(*centers, indexing="ij")
    mean = np.array([float(np.sum(masses * c)) for c in coords])
    var = np.array([float(np.sum(masses * (c - m) ** 2)) for c, m in zip(coords, mean)])
    return mean, var


def tv_trace(samples: np.ndarray, target: GridDensity, checkpoints) -> list[tuple[int, float]]:
    """TV distance of the empirical distribution up to each checkpoint step."""
    samples = np.asarray(samples, dtype=float)
    rows = []
    for k in checkpoints:
        rows.append((int(k), tv_to_target(samples[: int(k)], target, min_samples=2)))
    return rows


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


def _iso_gaussian_logpdf(x: np.ndarray, mean: np.ndarray, var: float) -> float:
    diff = x - mean
    return -0.5 * (
        diff.size * np.log(2.0 * np.pi * var) + float(diff @ diff) / var
    )


def _log_invariant_density(
    target: GibbsTarget,
    theta: np.ndarray,
    m: Momenta,
    ap: AdamParams,
    cp: CorrectionParams,
) -> float:
    """Stationary density of the augmented (theta, momenta) chain:
    tempered target times Gaussian momentum factors centered at the gradient
    and its square, with variances s_l^2 = rho_l^2 / (1 - beta_l^2)."""
    grad = target.oracle.grad(theta)
    value = target.log_unnorm(theta)
    value += _iso_gaussian_logpdf(m.m1, grad, cp.s_sq(1, ap))
    value += _iso_gaussian_logpdf(m.m2, grad**2, cp.s_sq(2, ap))
    return value


def detailed_balance_violations(
    target: GibbsTarget,
    ap: AdamParams,
    pp: ProposalParams,
    cp: CorrectionParams,
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
    draws) independently of the acceptance mode, which makes unit-vs-full
    comparisons on identical trials possible; it defaults to cp in full mode.
    """
    if density_cp is not None:
        cp_density = density_cp
    elif cp.mode == "full":
        cp_density = cp
    else:
        cp_density = CorrectionParams.full_from_s2(1e-4, ap)  # f needs variances
    dim = target.dim
    out = np.empty(n_trials)
    for trial in range(n_trials):
        theta = BALANCE_POINT_SCALE * rng.standard_normal(dim)
        tau = BALANCE_POINT_SCALE * rng.standard_normal(dim)
        grad = target.oracle.grad(theta)
        m_tilde = Momenta(
            grad + np.sqrt(cp_density.s_sq(1, ap)) * rng.standard_normal(dim),
            grad**2 + np.sqrt(cp_density.s_sq(2, ap)) * rng.standard_normal(dim),
        )
        u = adam_update_vector(m_tilde, BALANCE_STEP, ap)
        cov = pp.sigma**2 * np.eye(dim) + pp.sigma_dir**2 * np.outer(u, u)

        log_alpha_fwd = adammcmc_log_alpha(target, theta, tau, m_tilde, BALANCE_STEP, ap, pp, cp)
        log_alpha_bwd = adammcmc_log_alpha(target, tau, theta, m_tilde, BALANCE_STEP, ap, pp, cp)
        log_q_fwd = _dense_gaussian_logpdf(tau, theta - u, cov)
        log_q_bwd = _dense_gaussian_logpdf(theta, tau - u, cov)
        log_f_theta = _log_invariant_density(target, theta, m_tilde, ap, cp_density)
        log_f_tau = _log_invariant_density(target, tau, m_tilde, ap, cp_density)

        lhs = log_alpha_fwd + log_q_fwd + log_f_theta
        rhs = log_alpha_bwd + log_q_bwd + log_f_tau
        with np.errstate(over="ignore"):  # gross violations may overflow expm1
            out[trial] = abs(np.expm1(lhs - rhs))
    return out


# ---------------------------------------------------------------------------
# Acceptance scans
# ---------------------------------------------------------------------------

SCAN_PARAMS = ("sigma", "sigma_dir", "beta", "lambda")


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
    if param == "sigma":
        return config.replace(sigma=float(value))
    if param == "sigma_dir":
        return config.replace(sigma_dir=float(value))
    if param == "beta":
        return config.replace(beta1=float(value), beta2=float(value))
    if param == "lambda":
        return config.replace(lam=float(value))
    raise ValueError(f"unknown scan parameter {param!r}; choose from {SCAN_PARAMS}")


def _scan_metric(result) -> tuple[float, str]:
    cfg = result.experiment.config
    if cfg.target == "mlp":
        return ensemble_test_accuracy(result)[0], "test_accuracy"
    if cfg.target in ("quadratic", "noisy_quadratic"):
        # center shifts leave the per-coordinate truncated variance unchanged
        truth = truncated_gaussian_variance(cfg.lam, cfg.prior_half_width)
        sample_var = result.summary.samples.var(axis=0, ddof=1)
        return float(np.abs(sample_var - truth).mean()), "variance_error"
    if cfg.target == "banana" and cfg.dim == 2:
        grid = GridDensity.from_target(
            result.experiment.target, bounds=[(-3.0, 4.0), (-2.0, 12.0)], resolution=160
        )
        _, grid_var = grid_moments(grid)
        sample_var = result.summary.samples.var(axis=0, ddof=1)
        return float(np.abs(sample_var - grid_var).mean()), "variance_error"
    return float("nan"), "none"


def _scan_one(args) -> ScanRow:
    config, param, value = args
    result = run_experiment(config)
    metric, metric_name = _scan_metric(result)
    return ScanRow(
        param=param,
        value=float(value),
        seed=config.seed,
        mean_acceptance=result.record.acceptance_rate,
        metric=metric,
        metric_name=metric_name,
    )


def scan_acceptance(
    config: RunConfig,
    param: str,
    grid,
    n_replicates: int = 3,
    jobs: int = 1,
) -> list[ScanRow]:
    """One desk-scale chain per (grid value, seed): mean acceptance plus a
    quality metric.  Seeds are the config seed and n_replicates follow-ups."""
    grid = list(grid)
    if not grid:
        raise ConfigError("grid", "scan grid is empty")
    if param not in SCAN_PARAMS:
        raise ConfigError("param", f"must be one of {SCAN_PARAMS}, got {param!r}")
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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            rows = list(pool.map(_scan_one, tasks))
    else:
        rows = [_scan_one(task) for task in tasks]
    return rows


def scan_rows_to_csv(rows: list[ScanRow], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "mean_acceptance", "metric", "metric_name"])
        for row in rows:
            writer.writerow(
                [
                    row.param,
                    repr(row.value),
                    row.seed,
                    repr(row.mean_acceptance),
                    repr(row.metric),
                    row.metric_name,
                ]
            )


def scan_rows_to_long_csv(rows: list[ScanRow], path) -> None:
    """Plot-ready long format: one (param, value, seed, quantity, value) row
    per recorded quantity."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["param", "value", "seed", "quantity", "quantity_value"])
        for row in rows:
            writer.writerow(
                [row.param, repr(row.value), row.seed, "mean_acceptance", repr(row.mean_acceptance)]
            )
            writer.writerow(
                [row.param, repr(row.value), row.seed, row.metric_name, repr(row.metric)]
            )


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
    A batch_size outside [1, n_points) raises ConfigError before any chain
    runs: a batch that covers the data would make both chains full-batch.
    """
    experiment = build_experiment(config)
    n_points = experiment.target.oracle.n_points
    if not 1 <= batch_size < n_points:
        raise ConfigError(
            "batch_size", f"compare-mh needs a minibatch in [1, {n_points}), got {batch_size}"
        )
    # hand-rolled because run_chain keeps the samples and record, not the end state
    warm, warm_fn = start_chain(experiment, batch_size)
    for _ in range(config.burn_in):
        warm, _ = warm_fn(warm)

    compare_steps = config.steps - config.burn_in
    schedule = ChainSchedule(compare_steps, 0, max(1, compare_steps // 2), 1)
    records = {}
    for label, bsize in (("full", 0), ("stochastic", batch_size)):
        cmp_seq = np.random.SeedSequence(config.seed + 1).spawn(2)
        rng = np.random.default_rng(cmp_seq[0])
        state = ChainState(warm.theta, warm.momenta, warm.step, warm.current, rng)
        batches = BatchStream(n_points, bsize, np.random.default_rng(cmp_seq[1]))
        _, records[label] = run_chain(make_step_fn(experiment, batches), state, schedule)
    return MhComparison(records["full"], records["stochastic"])
