"""Rank-normalized bulk ESS, split-R-hat and MCSE of the mean.

Follows Vehtari, Gelman, Simpson, Carpenter and Buerkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC", Bayesian Analysis 16(2).  Draws are given
as a (chains, draws) array; a flat array is one chain.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from adammcmc.verify import batch_means_se


def _as_chains(draws) -> np.ndarray:
    x = np.asarray(draws, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] < 4:
        raise ValueError(f"need (chains, draws) with at least 4 draws, got shape {x.shape}")
    return x


def split_chains(draws) -> np.ndarray:
    """Each chain becomes its first and its last half (middle draw dropped
    when the length is odd)."""
    x = _as_chains(draws)
    half = x.shape[1] // 2
    return np.concatenate([x[:, :half], x[:, -half:]])


def rank_normalize(chains: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (Blom offsets 3/8, 1/4)."""
    ranks = rankdata(chains, method="average").reshape(chains.shape)
    return ndtri((ranks - 0.375) / (chains.size + 0.25))


def _rhat(chains: np.ndarray) -> float:
    n = chains.shape[1]
    within = chains.var(axis=1, ddof=1).mean()
    between_over_n = chains.mean(axis=1).var(ddof=1)
    return float(np.sqrt(((n - 1) / n * within + between_over_n) / within))


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS with Geyer's initial monotone sequence estimator."""
    m, n = chains.shape
    centered = chains - chains.mean(axis=1, keepdims=True)
    nfft = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centered, nfft, axis=1)
    acov = np.fft.irfft(spectrum * np.conj(spectrum), nfft, axis=1)[:, :n] / n
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return float("nan")
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    tau = -1.0 + 2.0 * np.minimum.accumulate(pairs).sum()
    total = m * n
    return float(total / max(tau, 1.0 / np.log10(total)))


def bulk_ess(draws) -> float:
    """Rank-normalized split-chain ESS of the bulk of the distribution."""
    return _ess(rank_normalize(split_chains(draws)))


def split_rhat(draws) -> float:
    """Rank-normalized split-R-hat: the worse of the bulk and the folded
    (tail) statistic."""
    chains = split_chains(draws)
    folded = np.abs(chains - np.median(chains))
    return max(_rhat(rank_normalize(chains)), _rhat(rank_normalize(folded)))


def mcse_mean(draws, n_batches: int = 25) -> float:
    """Monte Carlo standard error of the pooled mean: batch means per chain,
    combined over equally long chains."""
    chains = _as_chains(draws)
    per_chain = [batch_means_se(c, n_batches) for c in chains]
    return float(np.sqrt(np.sum(np.square(per_chain))) / chains.shape[0])
