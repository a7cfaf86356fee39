"""Rank-one inflated ("prolate") Gaussian proposals.

The proposal covariance is sigma^2 * I + sigma_dir^2 * d d^T for an update
direction d: isotropic noise plus extra variance along d, which stretches the
proposal cloud into a cigar along the optimizer step.  Determinant, inverse
quadratic form, log-density and sampling are all O(P) and never materialize
the P x P matrix.  The functions take the geometry as trusted (sigma,
sigma_dir, d, norm = _safe_norm(d)); ProlateCovariance is their checked view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _safe_norm(x: np.ndarray) -> float:
    """Euclidean norm that survives entries near the float64 overflow and
    underflow edges, where squaring them would overflow or flush to zero.

    x . x in [1e-290, 1e290] puts every entry in [1e-150, 1e150] (P < 1e10),
    where the norm is sqrt(x . x), np.linalg.norm's arithmetic to the bit.
    np.vdot is x @ x's dot without the status check, so overflow warns nothing."""
    s = float(np.vdot(x, x))
    if 1e-290 <= s <= 1e290:
        return math.sqrt(s)
    m = float(np.abs(x).max()) if x.size else 0.0
    if 1e-150 <= m <= 1e150:
        return math.sqrt(s)
    if m == 0.0 or not math.isfinite(m):
        return m
    scaled = x / m
    return m * math.sqrt(float(scaled @ scaled))


def _safe_norm_rows(x: np.ndarray) -> np.ndarray:
    """_safe_norm of each row of a (C, P) array, to the bit: np.vecdot is
    np.vdot's dot row by row, and a row outside the window takes the
    guarded path.  Warns nothing, as _safe_norm does."""
    with np.errstate(over="ignore"):
        s = np.vecdot(x, x)
    norm = np.sqrt(s)
    if s.min() >= 1e-290 and s.max() <= 1e290:  # False for a NaN row too
        return norm
    for c in np.flatnonzero(~((s >= 1e-290) & (s <= 1e290))):
        norm[c] = _safe_norm(x[c])
    return norm


def sample(sigma, sigma_dir, d, mean: np.ndarray, rng) -> np.ndarray:
    """Draw mean + sigma*z + sigma_dir*xi*d, z ~ N(0, I), xi ~ N(0, 1).

    The directional scalar xi is drawn only when sigma_dir > 0, so the
    isotropic mode consumes exactly the same RNG stream as a plain
    Gaussian random walk.
    """
    out = mean + sigma * rng.standard_normal(d.size)
    if sigma_dir > 0.0:
        xi = rng.standard_normal()
        out += sigma_dir * xi * d
    return out


def log_det(sigma, sigma_dir, d, norm) -> float:
    """Log determinant via the rank-one determinant identity,
    2 P log(sigma) + log(1 + t), the log(1 + t) term assembled in log
    space so that a huge |d| cannot overflow it."""
    total = 2.0 * d.shape[0] * np.log(sigma)
    if sigma_dir != 0.0 and norm != 0.0:
        log_r = 2.0 * (np.log(sigma_dir) + np.log(norm) - np.log(sigma))
        total = total + np.logaddexp(0.0, log_r)
    return float(total)


def log_reverse_ratio(sigma, sigma_dir, d, norm, x: np.ndarray):
    """log N(theta; tau - d, Sigma) - log N(tau; theta - d, Sigma) at
    x = tau - theta: the reverse over the forward density of two
    proposals that step against d and share this covariance.

    Their log-determinants cancel, and Sherman-Morrison gives
    Sigma^{-1} d = d / (sigma^2 + sigma_dir^2 |d|^2), so the ratio is
    2 <x, d_hat> / (sigma^2 / |d| + sigma_dir^2 |d|), each term scaled
    by |d| on its own so that neither a tiny nor a huge d overflows it.
    It takes 0 < |d| < inf, and the callers supply the ratio 0 at d = 0.
    (..., P) rows of d and x with (...,) sigma, sigma_dir and norm give one
    ratio a row, each with the 1-D dot's bits (np.vecdot).
    """
    along = np.vecdot(x, d / (norm if d.ndim == 1 else norm[..., None]))
    return 2.0 * along / (sigma * (sigma / norm) + sigma_dir * (sigma_dir * norm))


def inv_quad_form(sigma, sigma_dir, d, norm, x: np.ndarray) -> float:
    """x^T Sigma^{-1} x via the rank-one inverse: two dot products.

    |x|^2/sigma^2 - (<d_hat, x>^2/sigma^2) * t/(1+t).
    """
    # shrink = t / (1 + t) with t = (sigma_dir |d| / sigma)^2 is 0 without
    # a stretch and 1 past the overflow edge of t
    shrink = 0.0
    if sigma_dir != 0.0 and norm != 0.0:
        r = sigma_dir * norm / sigma
        # float ** raises OverflowError past r ~ 1.3e154; from r = 1e150
        # on, 1/t is below the resolution of 1.0 and shrink is 1 anyway
        t = r**2 if r < 1e150 else np.inf
        shrink = 1.0 / (1.0 + 1.0 / t) if t > 0.0 else 0.0
    xx = float(x @ x)
    dx = float(d @ x) if shrink else 0.0
    if not (math.isfinite(xx) and math.isfinite(dx)):
        m = float(np.max(np.abs(x)))
        if 0.0 < m < math.inf:
            # x's squares overflow (and along a huge d the difference below
            # cancels the offset across d): |x_perp|^2 / sigma^2 + <d_hat, x>^2
            # / (sigma^2 + sigma_dir^2 |d|^2), each term scaled by m on its own
            xs, along = x / m, 0.0
            if shrink:
                d_hat = d / norm
                along = float(d_hat @ xs)
                xs = xs - along * d_hat
                along *= m / math.hypot(sigma, sigma_dir * norm)
            perp = m * (_safe_norm(xs) / sigma)
            return perp * perp + along * along
    s2 = sigma * sigma
    iso = xx / s2
    if shrink == 0.0:
        return iso
    cos_comp = dx / norm
    return iso - (cos_comp * cos_comp / s2) * shrink


def log_density(sigma, sigma_dir, d, norm, mean: np.ndarray, x: np.ndarray) -> float:
    """Gaussian log pdf of x under N(mean, Sigma)."""
    quad = inv_quad_form(sigma, sigma_dir, d, norm, x - mean)
    return -0.5 * (d.shape[0] * LOG_2PI + log_det(sigma, sigma_dir, d, norm) + quad)


@dataclass(frozen=True)
class ProlateCovariance:
    """Implicit covariance sigma^2 I_P + sigma_dir^2 d d^T.

    sigma_dir = 0 is a valid mode and reduces every operation to the
    isotropic case.  The view checks its fields and computes |d| (kept as
    `norm`) once; each method is the module function of the same name.
    """

    sigma: float
    sigma_dir: float
    direction: np.ndarray

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.sigma_dir >= 0.0:
            raise ValueError(f"sigma_dir must be non-negative, got {self.sigma_dir}")
        d = np.asarray(self.direction, dtype=float)
        if d.ndim != 1:
            raise ValueError("direction must be a flat vector")
        # frozen: bypass __setattr__
        self.__dict__.update(direction=d, norm=_safe_norm(d))

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def _flat(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        if a.shape != self.direction.shape:
            raise ValueError(f"dimension mismatch: {a.shape} against d's {self.direction.shape}")
        return a

    def log_det(self) -> float:
        return log_det(self.sigma, self.sigma_dir, self.direction, self.norm)

    def inv_quad_form(self, x: np.ndarray) -> float:
        return inv_quad_form(self.sigma, self.sigma_dir, self.direction, self.norm, self._flat(x))

    def log_density(self, mean: np.ndarray, x: np.ndarray) -> float:
        mean, x = self._flat(mean), self._flat(x)
        return log_density(self.sigma, self.sigma_dir, self.direction, self.norm, mean, x)

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return sample(self.sigma, self.sigma_dir, self.direction, mean, rng)

    def dense(self) -> np.ndarray:
        """Materialize Sigma for small P (testing and dense oracles only)."""
        d = self.direction
        return self.sigma**2 * np.eye(self.dim) + self.sigma_dir**2 * np.outer(d, d)
