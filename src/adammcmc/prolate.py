"""Rank-one inflated ("prolate") Gaussian proposals.

The proposal covariance is sigma^2 * I + sigma_dir^2 * d d^T for an update
direction d: isotropic noise plus extra variance along d, which stretches the
proposal cloud into a cigar along the optimizer step.  Determinant, inverse
quadratic form, log-density and sampling are all O(P) and never materialize
the P x P matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def _safe_norm(x: np.ndarray) -> float:
    """Euclidean norm that survives entries near the float64 overflow and
    underflow edges, where squaring them would overflow or flush to zero.

    With every entry in range it is sqrt(x . x), np.linalg.norm's arithmetic
    to the bit without its wrapper."""
    m = float(np.abs(x).max()) if x.size else 0.0
    if 1e-150 <= m <= 1e150:
        return math.sqrt(float(x @ x))
    if m == 0.0 or not math.isfinite(m):
        return m
    scaled = x / m
    return m * math.sqrt(float(scaled @ scaled))


@dataclass(frozen=True)
class ProlateCovariance:
    """Implicit covariance sigma^2 I_P + sigma_dir^2 d d^T.

    sigma_dir = 0 is a valid mode and reduces every operation to the
    isotropic case.  The covariance is frozen, so |d| (kept as `norm`) is
    computed once, at construction.
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

    def log_det(self) -> float:
        """Log determinant via the rank-one determinant identity,
        2 P log(sigma) + log(1 + t), the log(1 + t) term assembled in log
        space so that a huge |d| cannot overflow it."""
        log_det = 2.0 * self.dim * np.log(self.sigma)
        if self.sigma_dir != 0.0 and self.norm != 0.0:
            log_r = 2.0 * (np.log(self.sigma_dir) + np.log(self.norm) - np.log(self.sigma))
            log_det = log_det + np.logaddexp(0.0, log_r)
        return float(log_det)

    def log_reverse_ratio(self, x: np.ndarray) -> float:
        """log N(theta; tau - d, Sigma) - log N(tau; theta - d, Sigma) at
        x = tau - theta: the reverse over the forward density of two
        proposals that step against d and share this covariance.

        Their log-determinants cancel, and Sherman-Morrison gives
        Sigma^{-1} d = d / (sigma^2 + sigma_dir^2 |d|^2), so the ratio is
        2 <x, d_hat> / (sigma^2 / |d| + sigma_dir^2 |d|), each term scaled
        by |d| on its own so that neither a tiny nor a huge d overflows it;
        0 when d = 0.
        """
        norm = self.norm
        if not 0.0 < norm < math.inf:
            return 0.0
        along = float(x @ (self.direction / norm))
        return 2.0 * along / (
            self.sigma * (self.sigma / norm) + self.sigma_dir * (self.sigma_dir * norm)
        )

    def inv_quad_form(self, x: np.ndarray) -> float:
        """x^T Sigma^{-1} x via the rank-one inverse: two dot products.

        |x|^2/sigma^2 - (<d_hat, x>^2/sigma^2) * t/(1+t).
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.direction.shape:
            raise ValueError(
                f"dimension mismatch: x has shape {x.shape}, "
                f"direction has shape {self.direction.shape}"
            )
        # shrink = t / (1 + t) with t = (sigma_dir |d| / sigma)^2 is 0 without
        # a stretch and 1 past the overflow edge of t
        shrink = 0.0
        if self.sigma_dir != 0.0 and self.norm != 0.0:
            r = self.sigma_dir * self.norm / self.sigma
            # float ** raises OverflowError past r ~ 1.3e154; from r = 1e150
            # on, 1/t is below the resolution of 1.0 and shrink is 1 anyway
            t = r**2 if r < 1e150 else np.inf
            shrink = 1.0 / (1.0 + 1.0 / t) if t > 0.0 else 0.0
        xx = float(x @ x)
        dx = float(self.direction @ x) if shrink else 0.0
        if not (math.isfinite(xx) and math.isfinite(dx)):
            m = float(np.max(np.abs(x)))
            if 0.0 < m < math.inf:
                return self._rescaled_form(x / m, m, shrink)
        s2 = self.sigma * self.sigma
        iso = xx / s2
        if shrink == 0.0:
            return iso
        cos_comp = dx / self.norm
        return iso - (cos_comp * cos_comp / s2) * shrink

    def _rescaled_form(self, xs: np.ndarray, m: float, shrink: float) -> float:
        """The form of x = m * xs (max |xs| = 1) when x's squares overflow.

        |x_perp|^2 / sigma^2 + <d_hat, x>^2 / (sigma^2 + sigma_dir^2 |d|^2),
        each term scaled by m on its own: inv_quad_form's difference of two
        squares overflows here, and along a huge d it would also cancel away
        the offset across d.
        """
        along = 0.0
        if shrink:
            d_hat = self.direction / self.norm
            along = float(d_hat @ xs)
            xs = xs - along * d_hat
            along *= m / math.hypot(self.sigma, self.sigma_dir * self.norm)
        perp = m * (_safe_norm(xs) / self.sigma)
        return perp * perp + along * along

    def log_density(self, mean: np.ndarray, x: np.ndarray) -> float:
        """Gaussian log pdf of x under N(mean, Sigma)."""
        mean = np.asarray(mean, dtype=float)
        x = np.asarray(x, dtype=float)
        if mean.shape != self.direction.shape or x.shape != self.direction.shape:
            raise ValueError("dimension mismatch between mean, x and direction")
        quad = self.inv_quad_form(x - mean)
        return -0.5 * (self.dim * LOG_2PI + self.log_det() + quad)

    def sample(self, mean: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw mean + sigma*z + sigma_dir*xi*d, z ~ N(0, I), xi ~ N(0, 1).

        The directional scalar xi is drawn only when sigma_dir > 0, so the
        isotropic mode consumes exactly the same RNG stream as a plain
        Gaussian random walk.
        """
        out = mean + self.sigma * rng.standard_normal(self.direction.size)
        if self.sigma_dir > 0.0:
            xi = rng.standard_normal()
            out += self.sigma_dir * xi * self.direction
        return out

    def dense(self) -> np.ndarray:
        """Materialize Sigma for small P (testing and dense oracles only)."""
        d = self.direction
        return self.sigma**2 * np.eye(self.dim) + self.sigma_dir**2 * np.outer(d, d)
