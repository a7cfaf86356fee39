"""Markov-chain step functions: Metropolis-adjusted Langevin, the
Adam-driven Metropolis chain with prolate proposals, and plain optimizer
baselines (Adam, SGD, friction-leapfrog sgHMC).

Every step consumes a ChainState and returns (new_state, StepInfo).  Steps
are pure transformations given the caller-owned RNG inside the state, so
independent chains can run concurrently.  Proposal RNG draw order is fixed:
one standard-normal P-vector, one directional scalar only when sigma_dir > 0,
then one uniform for the accept test.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .losses import GibbsTarget, LossOracle
from . import prolate
from .prolate import LOG_2PI, _safe_norm


@dataclass(frozen=True)
class AdamParams:
    """Learning rate, momentum decays and the denominator offset; C chains in
    lockstep hold their decays as (C, 1) columns and share gamma and delta."""

    gamma: float = 1e-3
    beta1: float | np.ndarray = 0.99
    beta2: float | np.ndarray = 0.99
    delta: float = 1e-8

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        betas = np.array([self.beta1, self.beta2])
        if not np.all((0.0 <= betas) & (betas < 1.0)):
            raise ValueError("beta1, beta2 must lie in [0, 1)")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    def bias(self, t: int):
        """The bias-correction denominators 1 - beta1**t, 1 - beta2**t: two floats, or
        (C, 1) columns of one Python float ** int a chain (numpy's power rounds some apart)."""
        if type(self.beta1) is not np.ndarray:  # isinstance would add a profiled call a step
            return 1.0 - self.beta1**t, 1.0 - self.beta2**t
        betas = zip(self.beta1.tolist(), self.beta2.tolist())
        bias = np.array([(1.0 - b1**t, 1.0 - b2**t) for (b1,), (b2,) in betas])
        return bias[:, :1], bias[:, 1:]


@dataclass(frozen=True)
class ProposalParams:
    """Isotropic and directional noise levels of the proposal ((C,) arrays in lockstep)."""

    sigma: float | np.ndarray
    sigma_dir: float | np.ndarray = 0.0

    def __post_init__(self):
        if not np.all(self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not np.all(self.sigma_dir >= 0.0):
            raise ValueError(f"sigma_dir must be non-negative, got {self.sigma_dir}")


@dataclass(frozen=True)
class CorrectionParams:
    """Variances s_1^2, s_2^2 of the momentum densities, which the full
    momentum-density correction of the acceptance needs; None in their place
    is the unit correction (factor 1), the practical algorithm.  For C
    chains in lockstep, each is a (C,) array."""

    s1_sq: float | np.ndarray
    s2_sq: float | np.ndarray

    def __post_init__(self):
        if not np.all((self.s1_sq > 0.0) & (self.s2_sq > 0.0)):
            raise ValueError(f"s1_sq, s2_sq must be positive, got {self.s1_sq}, {self.s2_sq}")


@dataclass(frozen=True)
class Momenta:
    """First and second Adam moment vectors."""

    m1: np.ndarray
    m2: np.ndarray

    @classmethod
    def zeros(cls, dim: int) -> "Momenta":
        return cls(np.zeros(dim), np.zeros(dim))


@dataclass(slots=True)
class Evaluation:
    """What a chain knows about one point: its loss, whether it lies in the
    prior box, whether it was taken on the full data (a minibatch evaluation
    is valid for its batch only), and its gradient on the same data, computed
    by the oracle's callable on the first grad() and kept."""

    loss: float
    inside: bool
    full: bool
    grad_fn: Callable[[], np.ndarray] | None
    _grad: np.ndarray | None = None

    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = self.grad_fn()
            self.grad_fn = None  # the callable may hold the oracle's activations
        return self._grad


@dataclass
class ChainState:
    """One chain's position, momenta, step counter, current-point evaluation
    and RNG.  The state of C chains in lockstep (see stack) holds (C, P)
    positions and momenta, an Evaluation of (C,) losses and prior flags, and
    the list of the C chains' generators."""

    theta: np.ndarray
    momenta: Momenta
    step: int
    current: Evaluation | None
    rng: np.random.Generator

    @classmethod
    def init(cls, theta0: np.ndarray, rng) -> "ChainState":
        theta0 = np.asarray(theta0, dtype=float)
        return cls(theta0.copy(), Momenta.zeros(theta0.size), 0, None, np.random.default_rng(rng))

    @classmethod
    def stack(cls, states: list["ChainState"]) -> "ChainState":
        """C evaluated one-chain states at one step as one lockstep state,
        each current gradient taken when first asked for."""
        cur = [s.current for s in states]
        current = Evaluation(
            np.array([e.loss for e in cur]), np.array([e.inside for e in cur]), cur[0].full,
            lambda: np.array([e.grad() for e in cur]),
        )
        momenta = Momenta(
            np.array([s.momenta.m1 for s in states]), np.array([s.momenta.m2 for s in states])
        )
        theta = np.array([s.theta for s in states])
        return cls(theta, momenta, states[0].step, current, [s.rng for s in states])


@dataclass(slots=True)
class StepInfo:
    """Per-step log payload: what happened and at what acceptance level."""

    accepted: bool
    log_alpha: float
    loss: float
    u_norm: float
    proposal_in_prior: bool = True


def adam_momentum_update(m: Momenta, grad: np.ndarray, p: AdamParams) -> Momenta:
    """Exponential moving averages of the gradient and its elementwise square."""
    if grad.shape != m.m1.shape:
        raise ValueError("gradient and momenta dimensions differ")
    return Momenta(
        p.beta1 * m.m1 + (1.0 - p.beta1) * grad,
        p.beta2 * m.m2 + (1.0 - p.beta2) * grad * grad,
    )


def adam_update_vector(m: Momenta, k: int, p: AdamParams) -> np.ndarray:
    """Bias-corrected Adam step for chain step k (correction exponent k + 1)
    of one chain, or of C chains' (C, P) rows with p's (C, 1) decay columns.

    The second moment enters through its entrywise absolute value, so the
    formula stays defined for randomized momenta with negative entries.
    """
    bias1, bias2 = p.bias(k + 1)
    m2_hat = np.abs(m.m2) / bias2
    return p.gamma * (m.m1 / bias1) / (np.sqrt(m2_hat) + p.delta)


def log_correction(
    m_next: Momenta, grad_theta: np.ndarray, grad_tau: np.ndarray, cp: CorrectionParams
) -> float:
    """Log of the momentum-density acceptance correction.

    sum over l of (|m_l - g(theta)^l|^2 - |m_l - g(tau)^l|^2) / (2 s_l^2)
    with g^1 the gradient and g^2 its elementwise square.
    """
    total = 0.0
    for m_l, power, s_sq in ((m_next.m1, 1, cp.s1_sq), (m_next.m2, 2, cp.s2_sq)):
        d_tau = m_l - grad_tau**power
        d_theta = m_l - grad_theta**power
        total += (np.vecdot(d_theta, d_theta) - np.vecdot(d_tau, d_tau)) / (2.0 * s_sq)
    return total


def _finish_log_alpha(
    lam: float, loss_cur: float, loss_prop: float, in_cur: bool, in_prop: bool,
    log_fwd: float, log_bwd: float, log_c: float,
) -> float:
    """Assemble log acceptance in log space; never returns NaN.

    Proposals outside the prior box or with non-finite loss are hard rejects.
    A zero-density current state with an in-box proposal is always accepted
    (the only consistent escape); both densities zero rejects (0/0 = 0).
    """
    if not in_prop or not math.isfinite(loss_prop):
        return -math.inf
    if not in_cur:
        return 0.0
    delta = -lam * (loss_prop - loss_cur) + (log_bwd - log_fwd) + log_c
    if math.isnan(delta):
        return -math.inf
    return min(0.0, delta)


def _iso_log_density(mean: np.ndarray, sigma: float, x: np.ndarray) -> float:
    """Log pdf of N(mean, sigma^2 I); the plain-MALA proposal density."""
    diff = x - mean
    dim = diff.shape[0]
    return -0.5 * (dim * (LOG_2PI + 2.0 * np.log(sigma)) + float(diff @ diff) / sigma**2)


def _evaluate(target: GibbsTarget, x: np.ndarray, batch) -> Evaluation:
    """Evaluate a new point on this step's data."""
    loss, grad_fn = target.oracle.evaluate(x, batch)
    return Evaluation(loss, target.prior.contains(x), batch is None, grad_fn)


def _current(state: ChainState, target: GibbsTarget, batch) -> Evaluation:
    """The current point's evaluation on this step's data.

    Loss and gradient carry over only from a full-data evaluation to a
    full-data step; prior membership always carries over.
    """
    cur, theta = state.current, state.theta
    if cur is None:
        return _evaluate(target, theta, batch)
    if batch is not None or not cur.full:
        loss, grad_fn = target.oracle.evaluate(theta, batch)
        return Evaluation(loss, cur.inside, batch is None, grad_fn)
    return cur


def _accept_or_stay(
    state: ChainState, tau: np.ndarray, cur: Evaluation, prop: Evaluation,
    momenta: Momenta, log_alpha: float, u_norm: float,
):
    """The Metropolis test's last draw: one uniform keeps the proposal tau or
    the current point, each with its evaluation; u_norm is the drift's norm.
    The test is strict: a uniform of 0.0 (log -inf) cannot pass a hard reject."""
    accepted = bool(np.log(state.rng.random()) < log_alpha)
    new_theta, new = (tau, prop) if accepted else (state.theta, cur)
    new_state = ChainState(new_theta, momenta, state.step + 1, new, state.rng)
    info = StepInfo(accepted, float(log_alpha), float(new.loss), u_norm, prop.inside)
    return new_state, info


def mala_step(state: ChainState, target: GibbsTarget, gamma: float, sigma: float, batch=None):
    """One Metropolis-adjusted Langevin step with isotropic noise.

    Proposes around the gradient-descent point theta - gamma * grad, accepts
    with the tempered loss ratio times the reverse/forward density ratio and
    the prior-box indicator.  Loss and gradient are evaluated at both the
    current point and the proposal.
    """
    theta = state.theta
    if batch is not None:
        batch = target.oracle.batch(batch)
    cur = _current(state, target, batch)

    u = gamma * cur.grad()
    mean_fwd = theta - u
    z = state.rng.standard_normal(theta.size)
    tau = mean_fwd + sigma * z

    log_fwd = _iso_log_density(mean_fwd, sigma, tau)
    with np.errstate(invalid="ignore", over="ignore"):
        prop = _evaluate(target, tau, batch)
        mean_bwd = tau - gamma * prop.grad()
        log_bwd = _iso_log_density(mean_bwd, sigma, theta)

    log_alpha = _finish_log_alpha(
        target.lam, cur.loss, prop.loss, cur.inside, prop.inside, log_fwd, log_bwd, 0.0
    )
    return _accept_or_stay(state, tau, cur, prop, state.momenta, log_alpha, _safe_norm(u))


def adammcmc_step(
    state: ChainState, target: GibbsTarget, ap: AdamParams, pp: ProposalParams,
    cp: CorrectionParams | None = None, batch=None, drift: str = "adam",
):
    """One Metropolis step around an Adam update with a prolate proposal.

    drift "adam" (the full algorithm): momenta are refreshed from the current
    gradient, the update vector u centers the proposal at theta - u and
    stretches its covariance along u, and the backward density reuses the
    same u and covariance.  Momenta advance whether or not the proposal is
    accepted.  cp holds the momentum variances of the full correction; None
    is the unit correction.

    drift "gradient" drops the momenta from the geometry: the offset and
    stretch direction are gamma * grad, recomputed at each density's own
    center, which reduces the step to Langevin sampling with directional
    noise (and to plain MALA when sigma_dir = 0).
    """
    if drift not in ("adam", "gradient"):
        raise ValueError(f"drift must be 'adam' or 'gradient', got {drift!r}")
    theta = state.theta
    if batch is not None:
        batch = target.oracle.batch(batch)
    cur = _current(state, target, batch)

    m_next = adam_momentum_update(state.momenta, cur.grad(), ap)
    u = adam_update_vector(m_next, state.step, ap) if drift == "adam" else ap.gamma * cur.grad()
    norm = _safe_norm(u)
    tau = prolate.sample(pp.sigma, pp.sigma_dir, u, theta - u, state.rng)

    if drift == "adam":
        prop, v, v_norm = _evaluate(target, tau, batch), u, norm
    else:  # the proposal ignores the momenta, so the correction is unit
        with np.errstate(invalid="ignore", over="ignore"):
            prop = _evaluate(target, tau, batch)
            v = ap.gamma * prop.grad()
            v_norm = _safe_norm(v)
        cp = None
    log_alpha = _adam_log_alpha(
        target.lam, pp, u, norm, v, v_norm, theta, tau, cur, prop, m_next, cp
    )
    return _accept_or_stay(state, tau, cur, prop, m_next, log_alpha, norm)


def _adam_log_alpha(
    lam: float, pp: ProposalParams, u: np.ndarray, norm: float, v: np.ndarray, v_norm: float,
    theta: np.ndarray, tau: np.ndarray, cur: Evaluation, prop: Evaluation,
    m_next: Momenta, cp: CorrectionParams | None,
) -> float:
    """Log acceptance of the move theta -> tau, for both drifts.

    The one assembly of this acceptance, run by adammcmc_step on its batch
    evaluations and by adammcmc_log_alpha on full-batch ones.  Each
    proposal stretches along its drift, given with its norm: forward around
    theta - u, backward around tau - v.  The adam drift passes u twice, and
    then the density ratio is the shared covariance's closed form; only their
    difference enters, as log_bwd against log_fwd = 0.  The gradients are
    taken only for the full correction (cp not None).
    """
    sigma, sigma_dir = pp.sigma, pp.sigma_dir
    log_fwd = log_bwd = log_c = 0.0
    if v is not u:
        log_fwd = prolate.log_density(sigma, sigma_dir, u, norm, theta - u, tau)
        with np.errstate(invalid="ignore", over="ignore"):
            log_bwd = prolate.log_density(sigma, sigma_dir, v, v_norm, tau - v, theta)
    elif 0.0 < norm < math.inf:  # the ratio is 0 at u = 0
        log_bwd = prolate.log_reverse_ratio(sigma, sigma_dir, u, norm, tau - theta)
    if cp is not None:
        with np.errstate(invalid="ignore", over="ignore"):
            log_c = float(log_correction(m_next, cur.grad(), prop.grad(), cp))
    return _finish_log_alpha(
        lam, cur.loss, prop.loss, cur.inside, prop.inside, log_fwd, log_bwd, log_c
    )


def adammcmc_log_alpha(
    target: GibbsTarget, theta: np.ndarray, tau: np.ndarray, m_next: Momenta, k: int,
    ap: AdamParams, pp: ProposalParams, cp: CorrectionParams | None,
) -> float:
    """Log acceptance for proposing tau from (theta, m_next) at step k.

    Evaluates full-batch and runs the acceptance adammcmc_step runs; this is
    the hook the detailed-balance diagnostics drive in both directions.
    """
    theta = np.asarray(theta, dtype=float)
    tau = np.asarray(tau, dtype=float)
    u = adam_update_vector(m_next, k, ap)
    norm = _safe_norm(u)
    return _adam_log_alpha(
        target.lam, pp, u, norm, u, norm, theta, tau, _evaluate(target, theta, None),
        _evaluate(target, tau, None), m_next, cp,
    )


def adammcmc_rows_step(
    state: ChainState, target: GibbsTarget, ap: AdamParams, pp: ProposalParams,
    cp: CorrectionParams | None = None, batch=None,
):
    """adammcmc_step's adam drift for C chains in lockstep, one chain a row.

    state is a ChainState.stack state and batch a (C, B) index array or
    None, gathered once for both evaluations, and the records hold the
    chains' knobs as columns (see _lockstep).  Each row gets the bits
    adammcmc_step gives its chain: each chain draws from its own generator
    in the one-chain order, the rows go through that step's formulas, and
    only the control flow differs: the branches of _safe_norm, the u = 0
    guard and _finish_log_alpha become masks.  Returns the new state and a
    StepInfo of (C,) arrays.  A rejected proposal's gradient is taken only
    for the full correction.
    """
    theta, cur = state.theta, state.current
    c, p = theta.shape
    oracle = target.oracle
    if batch is not None:
        batch = oracle.batch(batch)
        loss, grad_fn = oracle.evaluate_rows(theta, batch)
        cur = Evaluation(loss, cur.inside, False, grad_fn)
    g = cur.grad()
    m_next = adam_momentum_update(state.momenta, g, ap)
    u = adam_update_vector(m_next, state.step, ap)
    norm = prolate._safe_norm_rows(u)

    # per chain: P normals, the directional one only when sigma_dir > 0, then
    # the accept test's uniform.  An unstretched row keeps its directional
    # normal at 0 and adds 0 * u, which keeps tau's bits but for a -0.0 entry
    # (made 0.0) and a non-finite u (a row rejected either way)
    z = np.zeros((c, p + 1))
    uniforms = []
    for rng, row, extra in zip(state.rng, z, (pp.sigma_dir > 0.0).tolist()):
        rng.standard_normal(out=row[: p + extra])
        uniforms.append(rng.random())
    log_u = np.log(uniforms)
    tau = (theta - u) + pp.sigma[:, None] * z[:, :p]
    tau += (pp.sigma_dir * z[:, p])[:, None] * u

    loss_p, grad_p = oracle.evaluate_rows(tau, batch)
    in_p = target.prior.contains(tau)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = prolate.log_reverse_ratio(pp.sigma, pp.sigma_dir, u, norm, tau - theta)
        log_bwd = np.where((norm > 0.0) & (norm < math.inf), ratio, 0.0)
        log_c = 0.0
        if cp is not None:
            g_tau = grad_p()
            log_c = log_correction(m_next, g, g_tau, cp)
        delta = -target.lam * (loss_p - cur.loss) + log_bwd + log_c
    # _finish_log_alpha: min(0.0, delta) keeps 0.0 for delta = -0.0
    log_alpha = np.where(delta < 0.0, delta, np.where(np.isnan(delta), -np.inf, 0.0))
    log_alpha = np.where(cur.inside, log_alpha, 0.0)
    log_alpha[~(in_p & np.isfinite(loss_p))] = -np.inf

    accepted = log_u < log_alpha  # strict, as in _accept_or_stay
    new_loss = np.where(accepted, loss_p, cur.loss)
    new_inside = np.where(accepted, in_p, cur.inside)
    if batch is not None:
        new = Evaluation(new_loss, new_inside, False, None)
    elif cp is not None:
        new = Evaluation(new_loss, new_inside, True, None, np.where(accepted[:, None], g_tau, g))
    else:
        new = Evaluation(new_loss, new_inside, True, lambda: _take_rows(g, accepted, grad_p))
    theta_next = np.where(accepted[:, None], tau, theta)
    new_state = ChainState(theta_next, m_next, state.step + 1, new, state.rng)
    return new_state, StepInfo(accepted, log_alpha, new_loss, norm, in_p)


def _take_rows(g: np.ndarray, rows: np.ndarray, grad_rows) -> np.ndarray:
    """g with the masked rows replaced by grad_rows' gradients there."""
    g = g.copy()
    sel = np.flatnonzero(rows)
    if sel.size:
        g[sel] = grad_rows(sel)
    return g


def _optimizer_step(state: ChainState, oracle: LossOracle, batch, move):
    """The optimizer baselines' shared step: evaluate at theta, apply
    move(grad) -> (delta, momenta) as theta + delta, and log the pre-move
    loss, where the gradient was taken (the usual training-curve convention)."""
    if batch is not None:
        batch = oracle.batch(batch)
    loss, grad_fn = oracle.evaluate(state.theta, batch)
    delta, momenta = move(grad_fn())
    new_state = ChainState(state.theta + delta, momenta, state.step + 1, None, state.rng)
    return new_state, StepInfo(True, 0.0, float(loss), _safe_norm(delta))


def adam_step(state: ChainState, oracle: LossOracle, ap: AdamParams, batch=None):
    """Deterministic Adam: theta - u with refreshed momenta."""

    def move(grad):
        m_next = adam_momentum_update(state.momenta, grad, ap)
        return -adam_update_vector(m_next, state.step, ap), m_next

    return _optimizer_step(state, oracle, batch, move)


def sgd_step(state: ChainState, oracle: LossOracle, gamma: float, batch=None):
    """Plain gradient descent: theta - gamma * grad."""
    return _optimizer_step(state, oracle, batch, lambda grad: (-gamma * grad, state.momenta))


@dataclass(frozen=True)
class SghmcParams:
    """Friction-leapfrog baseline knobs."""

    gamma: float = 1e-3
    friction: float = 0.05
    noise_scale: float = 1.0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if not 0.0 <= self.friction <= 1.0:
            raise ValueError("friction must lie in [0, 1]")
        if not self.noise_scale >= 0.0:
            raise ValueError("noise_scale must be non-negative")


def sghmc_step(state: ChainState, oracle: LossOracle, sp: SghmcParams, batch=None):
    """One friction-leapfrog update with injected noise.

    The auxiliary velocity lives in the first momentum slot of the state:
    v' = (1 - friction) v - gamma * grad + noise_scale * sqrt(2 friction gamma) * zeta,
    theta' = theta + v'.
    """

    def move(grad):
        v = state.momenta.m1
        zeta = state.rng.standard_normal(v.size)
        noise = sp.noise_scale * np.sqrt(2.0 * sp.friction * sp.gamma) * zeta
        v_next = (1.0 - sp.friction) * v - sp.gamma * grad + noise
        return v_next, Momenta(v_next, state.momenta.m2)

    return _optimizer_step(state, oracle, batch, move)
