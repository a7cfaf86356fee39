"""One-shot verification suite: every release gate in one place.

Each criterion is a function returning (passed, detail).  `run_verification`
executes them, prints one PASS/FAIL line per criterion and optionally writes
a JSON report.  The quick subset runs the fast criteria at full strength and
skips the long chain-based ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import cli
from .chain import ChainSchedule, ensemble_predict, run_chain
from .config import RunConfig
from .diagnostics import (
    GridDensity,
    compare_full_vs_stochastic_mh,
    detailed_balance_violations,
    truncated_gaussian_variance,
    tv_trace,
)
from .losses import mlp_target, quadratic_target
from .mlp import MicroMlp, ood_inputs, two_moons
from .prolate import ProlateCovariance
from .samplers import (
    AdamParams,
    ChainState,
    CorrectionParams,
    ProposalParams,
    adammcmc_step,
    mala_step,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def batch_means_se(series: np.ndarray, n_batches: int = 100) -> float:
    """Standard error of the mean of a correlated series via batch means."""
    m = series.size // n_batches
    if m < 1:
        return float(series.std(ddof=1) / np.sqrt(series.size))
    means = series[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    return float(means.std(ddof=1) / np.sqrt(n_batches))


def _adammcmc_chain(target, ap, pp, theta0, rng, schedule):
    """run_chain over the unit-correction adammcmc step from theta0."""
    return run_chain(
        lambda s: adammcmc_step(s, target, ap, pp), ChainState.init(theta0, rng), schedule
    )


# ---------------------------------------------------------------------------
# 1. rank-one linear algebra vs dense oracles
# ---------------------------------------------------------------------------


def dense_logdet_highprec(matrix: np.ndarray) -> float:
    """Log determinant of an SPD matrix by LU elimination in extended
    precision.  Plain float64 factorizations carry ~1e-10 relative error at
    condition numbers around 1e7, which would drown the tolerance this
    oracle has to resolve.
    """
    a = np.array(matrix, dtype=np.longdouble)
    n = a.shape[0]
    logdet = np.longdouble(0.0)
    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
        pivot = a[k, k]
        logdet += np.log(np.abs(pivot))
        if k + 1 < n:
            factors = a[k + 1 :, k] / pivot
            a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
    return float(logdet)


def criterion_rank1_linalg():
    rng = np.random.default_rng(2024)
    worst_det, worst_quad = 0.0, 0.0
    for _ in range(500):
        dim = int(rng.integers(1, 65))
        sigma = float(rng.uniform(0.1, 5.0))
        sigma_dir = 0.0 if rng.uniform() < 0.1 else float(rng.uniform(0.0, 10.0))
        d = rng.standard_normal(dim)
        cov = ProlateCovariance(sigma, sigma_dir, d)

        dense_logdet = dense_logdet_highprec(cov.dense())
        worst_det = max(worst_det, abs(np.expm1(cov.log_det() - dense_logdet)))

        x = rng.standard_normal(dim)
        dense_quad = float(x @ np.linalg.solve(cov.dense(), x))
        worst_quad = max(worst_quad, abs(cov.inv_quad_form(x) - dense_quad) / dense_quad)
    passed = worst_det < 1e-10 and worst_quad < 1e-8
    return passed, (
        f"500 instances, worst determinant rel err {worst_det:.2e} (< 1e-10), "
        f"worst quadratic-form rel err {worst_quad:.2e} (< 1e-8)"
    )


# ---------------------------------------------------------------------------
# 2. proposal sampling moments
# ---------------------------------------------------------------------------


def criterion_proposal_sampling():
    rng = np.random.default_rng(17)
    dim, n = 8, 100_000
    d = rng.standard_normal(dim)
    cov = ProlateCovariance(0.9, 1.4, d)
    mean = rng.standard_normal(dim)
    draws = np.array([cov.sample(mean, rng) for _ in range(n)])
    sigma_true = cov.dense()

    emp = np.cov(draws.T)
    se_entry = np.sqrt(
        (np.outer(np.diag(sigma_true), np.diag(sigma_true)) + sigma_true**2) / n
    )
    cov_dev = np.abs(emp - sigma_true) / se_entry
    cov_ok = bool(np.all(cov_dev < 4.0))

    nd2 = float(d @ d)
    var_true = 0.9**2 * nd2 + 1.4**2 * nd2**2
    proj_var = (draws @ d).var(ddof=1)
    se_dir = var_true * np.sqrt(2.0 / (n - 1))
    dir_dev = abs(proj_var - var_true) / se_dir
    dir_ok = dir_dev < 3.0

    v = np.zeros(dim)
    v[0], v[1] = d[1], -d[0]  # orthogonal to d
    var_orth = 0.9**2 * float(v @ v)
    orth_dev = abs((draws @ v).var(ddof=1) - var_orth) / (var_orth * np.sqrt(2.0 / (n - 1)))
    orth_ok = orth_dev < 3.0

    passed = cov_ok and dir_ok and orth_ok
    return passed, (
        f"1e5 draws (P=8): max covariance deviation {cov_dev.max():.2f} SE (< 4), "
        f"update-direction variance {dir_dev:.2f} SE, orthogonal {orth_dev:.2f} SE (< 3)"
    )


# ---------------------------------------------------------------------------
# 3. detailed balance of the exact-correction acceptance
# ---------------------------------------------------------------------------


def criterion_detailed_balance():
    target = quadratic_target(2, lam=1.0, half_width=10.0)
    ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
    pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
    cp = CorrectionParams.full_from_s2(1e-2, ap)
    violation = detailed_balance_violations(
        target, ap, pp, cp, n_trials=200, rng=np.random.default_rng(12)
    ).max()
    return violation < 1e-8, (
        f"max relative violation {violation:.2e} over 200 random triples (< 1e-8)"
    )


# ---------------------------------------------------------------------------
# 4. posterior moments on the 2D quadratic target
# ---------------------------------------------------------------------------


def criterion_posterior_moments():
    target = quadratic_target(2, lam=1.0, half_width=10.0)
    ap = AdamParams(gamma=1e-2, beta1=0.99, beta2=0.99)
    pp = ProposalParams(sigma=0.3, sigma_dir=10.0)
    summary, record = _adammcmc_chain(  # keeps the position after every step
        target, ap, pp, np.zeros(2), 42, ChainSchedule(200_000, 0, 1, 200_000)
    )
    acc = record.acceptance_rate
    tail = summary.samples[20_000:]
    truth = truncated_gaussian_variance(1.0, 10.0)

    details = []
    passed = True
    for dim in range(2):
        x = tail[:, dim]
        se_mean = batch_means_se(x)
        mean_ok = abs(x.mean()) < 3.0 * se_mean
        centered_sq = (x - x.mean()) ** 2
        se_var = batch_means_se(centered_sq)
        var_ok = abs(x.var() - truth) < 3.0 * se_var
        passed = passed and mean_ok and var_ok
        details.append(
            f"coord {dim}: |mean| {abs(x.mean()):.4f} vs 3SE {3 * se_mean:.4f}, "
            f"|var-{truth:.4f}| {abs(x.var() - truth):.4f} vs 3SE {3 * se_var:.4f}"
        )
    return passed, f"2e5 steps, acceptance {acc:.3f}; " + "; ".join(details)


# ---------------------------------------------------------------------------
# 5. total-variation decay to the gridded 1D target
# ---------------------------------------------------------------------------


def criterion_tv_convergence():
    target = quadratic_target(1, lam=1.0, half_width=10.0)
    grid = GridDensity.from_target(target, bounds=[(-5.0, 5.0)], resolution=32)
    ap = AdamParams(gamma=1e-3, beta1=0.99, beta2=0.99)
    pp = ProposalParams(sigma=0.5, sigma_dir=5.0)
    summary, _ = _adammcmc_chain(
        target, ap, pp, np.zeros(1), 7, ChainSchedule(100_000, 0, 1, 100_000)
    )
    rows = tv_trace(summary.samples[:, 0], grid, checkpoints=[100, 1_000, 10_000, 100_000])
    tvs = [tv for _, tv in rows]
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    passed = decreasing and tvs[-1] < 0.05
    trace = ", ".join(f"k={k}: {tv:.4f}" for k, tv in rows)
    return passed, f"TV trace [{trace}]; decreasing={decreasing}, final < 0.05"


# ---------------------------------------------------------------------------
# 6. degenerate configuration reproduces MALA decisions
# ---------------------------------------------------------------------------


def criterion_mala_equivalence():
    target = quadratic_target(2, lam=1.0)
    gamma, sigma, steps, seed = 0.02, 0.5, 10_000, 77
    ap = AdamParams(gamma=gamma, beta1=0.0, beta2=0.0)
    pp = ProposalParams(sigma=sigma, sigma_dir=0.0)
    schedule = ChainSchedule(steps, 0, 1, steps)  # keeps the position after every step

    def chain(step_fn):
        return run_chain(step_fn, ChainState.init(np.array([2.0, -1.0]), seed), schedule)

    summary_a, record_a = chain(lambda s: mala_step(s, target, gamma, sigma))
    summary_b, record_b = chain(lambda s: adammcmc_step(s, target, ap, pp, drift="gradient"))
    if not np.array_equal(record_a.accepted, record_b.accepted):
        return False, "acceptance decisions diverged"
    if not np.array_equal(summary_a.samples, summary_b.samples):
        return False, "trajectories diverged"
    la, lb = record_a.log_alpha, record_b.log_alpha
    ratio = np.isfinite(la) & (la != 0.0)
    worst_rel = float(np.max(np.abs(lb[ratio] - la[ratio]) / np.abs(la[ratio]), initial=0.0))
    passed = worst_rel < 1e-12
    return passed, (
        f"1e4 steps: decisions and states bit-identical, worst acceptance-ratio "
        f"rel diff {worst_rel:.2e} (< 1e-12)"
    )


# ---------------------------------------------------------------------------
# 7. acceptance-rate trends on the classifier
# ---------------------------------------------------------------------------


def criterion_acceptance_trends():
    net = MicroMlp()
    x, y, _, _ = two_moons()
    target = mlp_target(net, x, y, lam=1.0)
    ap = AdamParams(gamma=1e-3, beta1=0.99, beta2=0.99)

    def acceptance(pp):
        rng = np.random.default_rng(0)
        theta0 = net.init_params(rng)
        _, record = _adammcmc_chain(target, ap, pp, theta0, rng, ChainSchedule(2_000, 0, 1, 1))
        return record.acceptance_rate

    # (a) small sigma: acceptance rises in sigma_dir, then collapses
    sigma_small = 0.05 * 2.0  # 5% of the default noise level
    dir_grid = [0.0, 10.0, 100.0, 1_000.0, 10_000.0]
    acc_dir = [acceptance(ProposalParams(sigma_small, sd)) for sd in dir_grid]
    peak = int(np.argmax(acc_dir))
    collapse = peak < len(dir_grid) - 1 and acc_dir[-1] < 0.5 * acc_dir[peak]
    rising = acc_dir[: peak + 1]
    if len(rising) >= 3:
        from scipy.stats import spearmanr  # kept off the import path of the sampler

        rho = float(spearmanr(dir_grid[: peak + 1], rising).statistic)
    else:
        rho = 1.0 if len(rising) == 2 and rising[1] > rising[0] else 0.0
    trend_a = rho > 0.8 and collapse

    # (b) without directional noise: interior acceptance maximum in sigma;
    # with directional noise: acceptance >= 0.9 as sigma -> 0
    sigma_grid = [0.01, 0.05, 0.2, 1.0, 5.0]
    acc_iso = [acceptance(ProposalParams(s, 0.0)) for s in sigma_grid]
    interior = int(np.argmax(acc_iso))
    trend_b1 = 0 < interior < len(sigma_grid) - 1

    acc_low = acceptance(ProposalParams(0.01, 20.0))
    trend_b2 = acc_low >= 0.9

    passed = trend_a and trend_b1 and trend_b2
    return passed, (
        f"(a) acceptance over sigma_dir grid {[round(a, 3) for a in acc_dir]}: "
        f"Spearman {rho:.2f} on rising segment (> 0.8), collapse after peak={collapse}; "
        f"(b) over sigma grid {[round(a, 3) for a in acc_iso]}: interior max at "
        f"index {interior}; acceptance {acc_low:.3f} at sigma=0.01 with "
        f"directional noise (>= 0.9)"
    )


# ---------------------------------------------------------------------------
# 8. posterior-spread monotonicity and OOD gap
# ---------------------------------------------------------------------------


SPREAD_SCHEDULE = ChainSchedule(4_000, 1_500, 250, 10)


def _spread_run(target, net, test_inputs, ood, sigma, seed):
    """Median in-dist and OOD spread of one chain's ensemble, plus the
    chain's accepted steps after burn-in and its number of distinct members.
    The ensemble is SPREAD_SCHEDULE's 10 members, at steps 1750, 2000, ..., 4000.
    """
    ap = AdamParams(gamma=1e-2, beta1=0.99, beta2=0.99)
    pp = ProposalParams(sigma=sigma, sigma_dir=net.n_params / 100.0)
    rng = np.random.default_rng(seed)
    theta0 = net.init_params(rng)
    summary, record = _adammcmc_chain(target, ap, pp, theta0, rng, SPREAD_SCHEDULE)
    samples = summary.samples
    accepted = int(record.accepted[SPREAD_SCHEDULE.burn_in :].sum())
    distinct = len(np.unique(samples, axis=0))
    _, spread_in = ensemble_predict(samples, net, test_inputs)
    _, spread_ood = ensemble_predict(samples, net, ood)
    return float(np.median(spread_in)), float(np.median(spread_ood)), accepted, distinct


def criterion_spread_monotonicity():
    net = MicroMlp()
    x, y, x_test, _ = two_moons()
    target = mlp_target(net, x, y, lam=1.0)
    ood = ood_inputs(400)
    sigma_grid = [1.0, 2.0, 4.0, 7.0]
    seeds = [0, 1, 2]

    med_in = np.empty((len(seeds), len(sigma_grid)))
    med_ood = np.empty_like(med_in)
    accepted = np.zeros(len(sigma_grid), dtype=int)
    distinct = np.zeros(len(sigma_grid), dtype=int)
    for i, seed in enumerate(seeds):
        for j, sigma in enumerate(sigma_grid):
            med_in[i, j], med_ood[i, j], acc, dist = _spread_run(
                target, net, x_test, ood, sigma, seed
            )
            accepted[j] += acc
            distinct[j] += dist

    mean_in = med_in.mean(axis=0)
    noise = med_in.std(axis=0, ddof=1).max()
    inversions = sum(
        1
        for j in range(len(sigma_grid) - 1)
        if mean_in[j + 1] < mean_in[j] - 2.0 * noise
    )
    monotone_ok = inversions <= 1

    gap_idx = sigma_grid.index(2.0)
    ood_gap_ok = med_ood[:, gap_idx].mean() > med_in[:, gap_idx].mean()

    passed = monotone_ok and ood_gap_ok
    post_burn = len(seeds) * (SPREAD_SCHEDULE.total_steps - SPREAD_SCHEDULE.burn_in)
    chain_stats = "; ".join(
        f"sigma={s:g}: acceptance {a / post_burn:.4f} ({a}/{post_burn}), "
        f"distinct members {d}/{len(seeds) * SPREAD_SCHEDULE.n_samples}"
        for s, a, d in zip(sigma_grid, accepted, distinct)
    )
    return passed, (
        f"median in-dist spread over sigma {sigma_grid}: "
        f"{[float(f'{v:.3g}') for v in mean_in]} ({inversions} hard inversions, <= 1 ok); "
        f"OOD vs in-dist at sigma=2: {med_ood[:, gap_idx].mean():.3g} vs "
        f"{med_in[:, gap_idx].mean():.3g} (must be greater); "
        f"post-burn-in chains pooled over seeds {seeds}: [{chain_stats}]"
    )


# ---------------------------------------------------------------------------
# 9. stochastic vs full accept test
# ---------------------------------------------------------------------------


def criterion_stochastic_vs_full():
    config = RunConfig(
        target="noisy_quadratic",
        dim=16,
        sampler="adammcmc",
        lam=0.5,
        gamma=1e-2,
        sigma=0.7,
        sigma_dir=2.0,
        beta1=0.99,
        beta2=0.99,
        steps=200_000,
        burn_in=4_000,
        gap=100,
        n_samples=10,
        seed=0,
    )
    comparison = compare_full_vs_stochastic_mh(config, batch_size=32)
    s = comparison.summary_dict()
    acc_ok = s["full_acceptance"] <= s["stochastic_acceptance"]
    mean_rel = abs(s["full_loss_mean"] - s["stochastic_loss_mean"]) / abs(
        s["full_loss_mean"]
    )
    var_rel = abs(s["full_loss_var"] - s["stochastic_loss_var"]) / abs(
        s["full_loss_var"]
    )
    passed = acc_ok and mean_rel < 0.10 and var_rel < 0.10
    return passed, (
        f"acceptance full {s['full_acceptance']:.4f} <= stochastic "
        f"{s['stochastic_acceptance']:.4f}: {acc_ok}; loss mean rel diff "
        f"{mean_rel:.3f}, var rel diff {var_rel:.3f} (both < 0.10)"
    )


# ---------------------------------------------------------------------------
# 10. determinism of run outputs
# ---------------------------------------------------------------------------


def criterion_determinism():
    import tempfile
    from pathlib import Path

    configs = [
        RunConfig(
            target="quadratic", dim=2, sampler="adammcmc", sigma=0.5, sigma_dir=1.0,
            gamma=0.05, beta1=0.9, beta2=0.9, steps=300, burn_in=100, gap=20,
            n_samples=10, seed=3,
        ),
        RunConfig(
            target="noisy_quadratic", dim=4, sampler="adammcmc", sigma=0.5,
            sigma_dir=1.0, gamma=0.05, beta1=0.9, beta2=0.9, steps=300, burn_in=100,
            gap=20, n_samples=10, batch_size=32, seed=5,
        ),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for idx, config in enumerate(configs):
            cfg_path = tmp / f"config{idx}.json"
            config.save(cfg_path)
            blobs = []
            for rep in ("a", "b"):
                out = tmp / f"{idx}{rep}"
                code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
                if code != 0:
                    return False, f"run exited with {code}"
                blobs.append(
                    (out / "record.csv").read_bytes()
                    + (out / "samples.csv").read_bytes()
                )
            if blobs[0] != blobs[1]:
                return False, f"outputs differ for config {idx}"
    return True, "record.csv and samples.csv byte-identical across reruns (2 configs)"


CRITERIA = [
    ("1 rank-one linear algebra", criterion_rank1_linalg, True),
    ("2 proposal sampling moments", criterion_proposal_sampling, True),
    ("3 detailed balance", criterion_detailed_balance, True),
    ("4 posterior moments (2D quadratic)", criterion_posterior_moments, False),
    ("5 TV convergence (1D)", criterion_tv_convergence, False),
    ("6 MALA equivalence", criterion_mala_equivalence, True),
    ("7 acceptance trends (classifier)", criterion_acceptance_trends, False),
    ("8 posterior-spread monotonicity", criterion_spread_monotonicity, False),
    ("9 stochastic vs full accept test", criterion_stochastic_vs_full, False),
    ("10 determinism", criterion_determinism, True),
]


def run_verification(quick: bool = False, out_dir=None):
    """Execute the acceptance criteria, print one line each, return results."""
    results = []
    for name, fn, in_quick in CRITERIA:
        if quick and not in_quick:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(name, bool(passed), detail, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name} ({elapsed:.1f}s): {detail}")

    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        cli.write_json(
            out_dir / "verify_report.json",
            [
                {"name": r.name, "passed": r.passed, "detail": r.detail,
                 "seconds": round(r.seconds, 2)}
                for r in results
            ],
        )
    return results
