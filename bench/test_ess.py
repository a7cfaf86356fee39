"""Checks of the benchmark's ESS helper against AR(1) series, whose
integrated autocorrelation time (1 + phi) / (1 - phi) is known exactly.

Run with: python -m pytest bench/test_ess.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ess import bulk_ess, mcse_mean, split_rhat  # noqa: E402


def ar1(phi, chains, draws, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws))
    x = np.empty((chains, draws))
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, draws):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


def test_bulk_ess_matches_ar1_autocorrelation_time():
    phi, chains, draws = 0.6, 4, 20_000
    expected = chains * draws * (1.0 - phi) / (1.0 + phi)
    for seed in range(3):
        x = ar1(phi, chains, draws, seed)
        assert abs(bulk_ess(x) / expected - 1.0) < 0.1
        assert split_rhat(x) < 1.01


def test_mcse_matches_ar1_long_run_variance():
    phi, chains, draws = 0.6, 4, 20_000
    x = ar1(phi, chains, draws, 7)
    # long-run variance of AR(1): sigma^2 / (1 - phi)^2 with unit innovations
    expected = np.sqrt(1.0 / (1.0 - phi) ** 2 / (chains * draws))
    assert abs(mcse_mean(x) / expected - 1.0) < 0.2


def test_independent_draws_have_full_ess():
    x = np.random.default_rng(3).standard_normal((4, 5_000))
    assert abs(bulk_ess(x) / x.size - 1.0) < 0.1


def test_unmixed_chains_are_flagged():
    x = ar1(0.6, 4, 5_000, 11) + np.arange(4)[:, None]
    assert split_rhat(x) > 1.1
    assert bulk_ess(x) < 0.05 * x.size
