"""Sampler steps against hand arithmetic, reference implementations and stubs."""

import cProfile
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adammcmc import samplers
from adammcmc.chain import run_chain
from adammcmc.config import RunConfig
from adammcmc.diagnostics import BALANCE_POINT_SCALE, _dense_gaussian_logpdf
from adammcmc.experiments import _lockstep, build_experiment, seed_chain, start_chain
from adammcmc.losses import (
    BananaLoss,
    GibbsTarget,
    LossOracle,
    PriorBox,
    banana_target,
    make_batches,
    noisy_quadratic_target,
    quadratic_target,
)
from adammcmc.prolate import ProlateCovariance
from adammcmc.samplers import (
    AdamParams,
    ChainState,
    CorrectionParams,
    Evaluation,
    Momenta,
    ProposalParams,
    SghmcParams,
    _finish_log_alpha,
    adam_momentum_update,
    adam_step,
    adam_update_vector,
    adammcmc_log_alpha,
    adammcmc_step,
    log_correction,
    mala_step,
    sgd_step,
    sghmc_step,
)


class StubRng:
    """Deterministic stand-in for a Generator: fixed normals and uniform."""

    def __init__(self, normal_vec, normal_scalar=0.0, uniform_value=0.5):
        self.normal_vec = np.asarray(normal_vec, dtype=float)
        self.normal_scalar = float(normal_scalar)
        self.uniform_value = float(uniform_value)

    def standard_normal(self, size=None):
        if size is None:
            return self.normal_scalar
        return self.normal_vec.copy()

    def random(self):
        return self.uniform_value


class ReferenceAdam:
    """Independent textbook Adam used as an oracle."""

    def __init__(self, lr, b1, b2, eps):
        self.lr, self.b1, self.b2, self.eps = lr, b1, b2, eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, theta, g):
        if self.m is None:
            self.m = np.zeros_like(theta)
            self.v = np.zeros_like(theta)
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return theta - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestMomentumUpdate:
    def test_zero_stays_zero(self):
        p = AdamParams()
        m = adam_momentum_update(Momenta.zeros(3), np.zeros(3), p)
        np.testing.assert_array_equal(m.m1, 0.0)
        np.testing.assert_array_equal(m.m2, 0.0)

    def test_beta1_zero_is_memoryless(self):
        p = AdamParams(beta1=0.0, beta2=0.5)
        g = np.array([1.5, -2.0])
        m = adam_momentum_update(Momenta(np.array([9.0, 9.0]), np.zeros(2)), g, p)
        np.testing.assert_array_equal(m.m1, g)

    def test_hand_arithmetic(self):
        # 0.99 * 1 + 0.01 * g and 0.99 * 1 + 0.01 * g^2 per coordinate
        p = AdamParams(beta1=0.99, beta2=0.99)
        m = adam_momentum_update(
            Momenta(np.ones(2), np.ones(2)), np.array([2.0, 4.0]), p
        )
        np.testing.assert_allclose(m.m1, [1.01, 1.03], rtol=1e-15)
        np.testing.assert_allclose(m.m2, [1.03, 1.15], rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            adam_momentum_update(Momenta.zeros(2), np.zeros(3), AdamParams())

    def test_m2_stays_nonnegative(self):
        rng = np.random.default_rng(0)
        p = AdamParams(beta1=0.7, beta2=0.9)
        m = Momenta.zeros(5)
        for _ in range(50):
            m = adam_momentum_update(m, rng.standard_normal(5) * 10, p)
            assert np.all(m.m2 >= 0.0)


class TestUpdateVector:
    def test_zero_numerator(self):
        u = adam_update_vector(Momenta(np.zeros(4), np.ones(4)), 3, AdamParams())
        np.testing.assert_array_equal(u, 0.0)

    def test_sign_sgd_limit(self):
        # beta1 = beta2 = 0, delta -> 0: u approaches gamma * sign(g)
        g = np.array([2.0, -4.0, 0.5])
        p = AdamParams(gamma=0.25, beta1=0.0, beta2=0.0, delta=1e-300)
        m = adam_momentum_update(Momenta.zeros(3), g, p)
        u = adam_update_vector(m, 0, p)
        np.testing.assert_allclose(u, 0.25 * np.sign(g), rtol=1e-14)

    def test_single_step_matches_reference_adam(self):
        p = AdamParams(gamma=1e-3, beta1=0.99, beta2=0.99, delta=1e-8)
        g = np.array([2.0, 4.0])
        m = adam_momentum_update(Momenta.zeros(2), g, p)
        u = adam_update_vector(m, 0, p)
        ref = ReferenceAdam(1e-3, 0.99, 0.99, 1e-8)
        theta_ref = ref.step(np.zeros(2), g)
        np.testing.assert_allclose(-u, theta_ref, atol=1e-12)

    def test_trajectory_matches_reference_adam(self):
        # 100 deterministic Adam steps on the quadratic loss
        target = quadratic_target(3)
        p = AdamParams(gamma=0.05, beta1=0.9, beta2=0.999, delta=1e-8)
        state = ChainState.init(np.array([1.0, -2.0, 0.5]), 0)
        ref = ReferenceAdam(0.05, 0.9, 0.999, 1e-8)
        theta_ref = np.array([1.0, -2.0, 0.5])
        for _ in range(100):
            state, _ = adam_step(state, target.oracle, p)
            theta_ref = ref.step(theta_ref, theta_ref.copy())
            np.testing.assert_allclose(state.theta, theta_ref, atol=1e-10)

    def test_rows_are_each_chains_own_vector_to_the_byte(self):
        # a Python float ** int per chain: numpy's power rounds 1 - beta**t
        # differently at some t in this range (beta = 0.99 at t = 3, 22, 31;
        # beta = 0.999 at t = 7, 23)
        betas = [(0.99, 0.99), (0.99, 0.999), (0.999, 0.99), (0.999, 0.999)]
        rows_ap = AdamParams(
            1e-2, np.array([[b1] for b1, _ in betas]), np.array([[b2] for _, b2 in betas]), 1e-8
        )
        rng = np.random.default_rng(11)
        m = Momenta(rng.standard_normal((4, 6)), rng.random((4, 6)))
        for k in range(500):  # t = k + 1 = 1 ... 500
            rows = adam_update_vector(m, k, rows_ap)
            for c, (b1, b2) in enumerate(betas):
                want = adam_update_vector(Momenta(m.m1[c], m.m2[c]), k, AdamParams(1e-2, b1, b2, 1e-8))
                assert rows[c].tobytes() == want.tobytes(), (k, b1, b2)

    def test_bounded_by_gamma_ratio(self):
        rng = np.random.default_rng(5)
        p = AdamParams(gamma=1e-2, beta1=0.99, beta2=0.99)
        m = Momenta.zeros(8)
        for k in range(30):
            m = adam_momentum_update(m, rng.standard_normal(8) * 100, p)
            u = adam_update_vector(m, k, p)
            assert np.all(np.isfinite(u))


class TestOptimizerSteps:
    def test_adam_zero_gradient_keeps_theta(self):
        target = quadratic_target(2)
        state = ChainState.init(np.zeros(2), 0)
        new, info = adam_step(state, target.oracle, AdamParams())
        np.testing.assert_array_equal(new.theta, 0.0)
        assert info.accepted

    def test_sgd_linear_contraction(self):
        target = quadratic_target(1)
        state = ChainState.init(np.array([1.0]), 0)
        new, _ = sgd_step(state, target.oracle, gamma=0.1)
        assert new.theta[0] == pytest.approx(0.9, rel=1e-15)

    def test_sgd_logs_huge_step_norm(self):
        # |delta| = sqrt(2) 1e200: squaring an entry overflows (so does the loss)
        target = quadratic_target(2)
        state = ChainState.init(np.array([1e200, -1e200]), 0)
        with np.errstate(over="ignore"):
            new, info = sgd_step(state, target.oracle, gamma=1.0)
        np.testing.assert_array_equal(new.theta, 0.0)
        assert info.u_norm == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)

    def test_sghmc_runs_and_moves(self):
        target = quadratic_target(4)
        state = ChainState.init(np.ones(4), 7)
        sp = SghmcParams(gamma=1e-2, friction=0.1, noise_scale=1.0)
        for _ in range(50):
            state, info = sghmc_step(state, target.oracle, sp)
        assert np.all(np.isfinite(state.theta))
        assert not np.array_equal(state.theta, np.ones(4))


class TestMalaStep:
    def test_forced_identity_proposal_accepts(self):
        # gamma=0 and z=0 force tau = theta: symmetric ratio, alpha = 1
        target = quadratic_target(2)
        state = ChainState.init(np.array([0.3, -0.7]), 0)
        state.rng = StubRng(np.zeros(2))
        new, info = mala_step(state, target, gamma=0.0, sigma=0.5)
        assert info.log_alpha == 0.0
        assert info.accepted
        np.testing.assert_array_equal(new.theta, state.theta)

    def test_proposal_outside_box_rejected(self):
        target = quadratic_target(2, half_width=0.5)
        state = ChainState.init(np.array([0.4, 0.0]), 0)
        state.rng = StubRng(np.array([10.0, 0.0]), uniform_value=1e-300)
        new, info = mala_step(state, target, gamma=0.0, sigma=1.0)
        assert info.log_alpha == -np.inf
        assert not info.accepted
        assert not info.proposal_in_prior
        np.testing.assert_array_equal(new.theta, np.array([0.4, 0.0]))

    def test_matches_scripted_mala_oracle(self):
        # Independent straight-line MALA on the 1D standard-normal target.
        lam, gamma, sigma, steps = 1.0, 0.05, 0.6, 40_000

        def scripted_mala(seed):
            rng = np.random.default_rng(seed)
            theta = 0.0
            accepts = 0
            samples = np.empty(steps)
            for i in range(steps):
                grad = theta
                prop = theta - gamma * grad + sigma * rng.standard_normal()
                log_fwd = -0.5 * (prop - (theta - gamma * grad)) ** 2 / sigma**2
                log_bwd = -0.5 * (theta - (prop - gamma * prop)) ** 2 / sigma**2
                log_a = min(
                    0.0, -lam * (prop**2 / 2 - theta**2 / 2) + log_bwd - log_fwd
                )
                if np.log(rng.uniform()) <= log_a:
                    theta = prop
                    accepts += 1
                samples[i] = theta
            return accepts / steps, samples[2000:].var()

        acc_ref, var_ref = scripted_mala(123)

        target = quadratic_target(1, lam=lam, half_width=50.0)
        state = ChainState.init(np.zeros(1), np.random.default_rng(456))
        accepts = 0
        samples = np.empty(steps)
        for i in range(steps):
            state, info = mala_step(state, target, gamma=gamma, sigma=sigma)
            accepts += info.accepted
            samples[i] = state.theta[0]
        acc = accepts / steps
        var = samples[2000:].var()

        # ~3 sigma Monte Carlo agreement (correlated chains: generous floor)
        assert abs(acc - acc_ref) < 0.02
        assert abs(var - var_ref) < 0.06
        assert abs(var - 1.0) < 0.06


class TestAdamMcmcStep:
    def test_forced_identity_proposal_accepts(self):
        # Stub the noise so tau = theta: shared mean offset makes the
        # forward/backward densities identical and alpha exactly 1.
        target = quadratic_target(2)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.3, sigma_dir=2.0)
        theta0 = np.array([1.0, -0.5])
        m_next = adam_momentum_update(Momenta.zeros(2), theta0, ap)
        u = adam_update_vector(m_next, 0, ap)

        state = ChainState.init(theta0, 0)
        state.rng = StubRng(u / pp.sigma, normal_scalar=0.0)
        new, info = adammcmc_step(state, target, ap, pp)
        assert info.log_alpha == 0.0
        assert info.accepted
        np.testing.assert_allclose(new.theta, theta0, atol=1e-15)

    def test_random_walk_reduction(self):
        # sigma_dir=0, beta=0, delta enormous: u ~ 0, so the acceptance is
        # the plain tempered loss ratio of a symmetric random walk.
        target = quadratic_target(2, lam=2.5)
        ap = AdamParams(gamma=1e-3, beta1=0.0, beta2=0.0, delta=1e12)
        pp = ProposalParams(sigma=0.8, sigma_dir=0.0)
        state = ChainState.init(np.array([0.2, 0.1]), 3)
        for _ in range(200):
            theta_before = state.theta.copy()
            loss_before = target.oracle.eval(theta_before)
            state, info = adammcmc_step(state, target, ap, pp)
            theta_after = state.theta if info.accepted else None
            if info.accepted:
                expected = min(
                    0.0, -2.5 * (target.oracle.eval(theta_after) - loss_before)
                )
                assert info.log_alpha == pytest.approx(expected, abs=1e-6)

    def test_momenta_advance_on_reject(self):
        target = quadratic_target(2, lam=1.0)
        ap = AdamParams(gamma=0.1, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=80.0, sigma_dir=0.0)  # nearly always rejected
        state = ChainState.init(np.array([0.5, -0.3]), 11)
        saw_reject = False
        for _ in range(50):
            prev_theta = state.theta.copy()
            prev_m1 = state.momenta.m1.copy()
            state, info = adammcmc_step(state, target, ap, pp)
            if not info.accepted:
                saw_reject = True
                np.testing.assert_array_equal(state.theta, prev_theta)
                assert not np.array_equal(state.momenta.m1, prev_m1)
        assert saw_reject

    def test_alpha_in_unit_interval_and_no_nan(self):
        target = quadratic_target(3, lam=4.0)
        ap = AdamParams(gamma=0.02, beta1=0.95, beta2=0.95)
        pp = ProposalParams(sigma=1.5, sigma_dir=5.0)
        cp = CorrectionParams(1e-3, 1e-3)
        state = ChainState.init(np.array([1.0, 2.0, -1.0]), 13)
        for _ in range(300):
            state, info = adammcmc_step(state, target, ap, pp, cp)
            assert info.log_alpha <= 0.0
            assert not np.isnan(info.log_alpha)

    def test_nonfinite_proposal_loss_rejected(self):
        class ExplodingLoss(LossOracle):
            def __init__(self):
                super().__init__(dim=1, n_points=1)

            def evaluate(self, theta, indices):
                loss = float("inf") if abs(theta[0]) > 1.0 else float(theta[0] ** 2)
                return loss, lambda: 2.0 * np.asarray(theta)

        target = GibbsTarget(ExplodingLoss(), 1.0, PriorBox(100.0))
        state = ChainState.init(np.array([0.9]), 0)
        state.rng = StubRng(np.array([50.0]), uniform_value=1e-300)
        ap = AdamParams(gamma=1e-3)
        pp = ProposalParams(sigma=1.0, sigma_dir=0.0)
        new, info = adammcmc_step(state, target, ap, pp)
        assert not info.accepted
        assert info.log_alpha == -np.inf
        np.testing.assert_array_equal(new.theta, np.array([0.9]))

    def test_zero_over_zero_rejects(self):
        # both current state and proposal outside the box: 0/0 = 0
        target = quadratic_target(1, half_width=0.5)
        state = ChainState.init(np.array([0.9]), 0)  # outside the box
        state.rng = StubRng(np.array([100.0]), uniform_value=1e-300)
        new, info = adammcmc_step(
            state, target, AdamParams(), ProposalParams(sigma=1.0)
        )
        assert not info.accepted
        assert info.log_alpha == -np.inf

    def test_degenerate_config_equals_mala_bitwise(self):
        # drift="gradient", sigma_dir=0 must reproduce mala_step decisions
        # on a shared RNG stream, with matching acceptance ratios.
        target = quadratic_target(2, lam=1.0)
        gamma, sigma, steps, seed = 0.02, 0.5, 2000, 77

        state_a = ChainState.init(np.array([2.0, -1.0]), seed)
        state_b = ChainState.init(np.array([2.0, -1.0]), seed)
        ap = AdamParams(gamma=gamma, beta1=0.0, beta2=0.0)
        pp = ProposalParams(sigma=sigma, sigma_dir=0.0)

        for _ in range(steps):
            state_a, info_a = mala_step(state_a, target, gamma, sigma)
            state_b, info_b = adammcmc_step(
                state_b, target, ap, pp, drift="gradient"
            )
            assert info_a.accepted == info_b.accepted
            np.testing.assert_array_equal(state_a.theta, state_b.theta)
            if np.isfinite(info_a.log_alpha) and info_a.log_alpha != 0.0:
                assert info_b.log_alpha == pytest.approx(
                    info_a.log_alpha, rel=1e-12
                )
            else:
                assert info_b.log_alpha == info_a.log_alpha

    def test_loss_shift_leaves_alpha_bit_identical(self):
        # Adding a constant to the loss must not change any acceptance value.
        # Losses are quantized so the constant shift is exact in float64.
        class QuantizedQuadratic(LossOracle):
            def __init__(self, offset=0.0):
                super().__init__(dim=2, n_points=1)
                self.offset = offset

            def evaluate(self, theta, indices):
                theta = np.asarray(theta, dtype=float)
                raw = 0.5 * float(theta @ theta)
                return np.floor(raw * 4096.0) / 4096.0 + self.offset, theta.copy

        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.4, sigma_dir=1.0)
        logs = []
        for offset in (0.0, 256.0):
            target = GibbsTarget(QuantizedQuadratic(offset), 1.0, PriorBox(100.0))
            state = ChainState.init(np.array([0.7, -0.2]), 31)
            vals = []
            for _ in range(500):
                state, info = adammcmc_step(state, target, ap, pp)
                vals.append(info.log_alpha)
            logs.append(vals)
        assert logs[0] == logs[1]

    def test_full_batch_indices_equal_none(self):
        # batch = arange(n) must behave exactly like the full-batch path.
        target = quadratic_target(2)
        n = target.oracle.n_points
        ap = AdamParams(gamma=0.01, beta1=0.5, beta2=0.5)
        pp = ProposalParams(sigma=0.5, sigma_dir=1.0)
        s1 = ChainState.init(np.array([1.0, 1.0]), 5)
        s2 = ChainState.init(np.array([1.0, 1.0]), 5)
        for _ in range(100):
            s1, i1 = adammcmc_step(s1, target, ap, pp, batch=None)
            s2, i2 = adammcmc_step(s2, target, ap, pp, batch=np.arange(n))
            np.testing.assert_array_equal(s1.theta, s2.theta)
            assert i1.log_alpha == i2.log_alpha

    def test_seed_and_generator_start_identical_chains(self):
        # init keeps a Generator it is given and seeds a new one from a seed
        target = quadratic_target(2)
        ap = AdamParams(gamma=0.01, beta1=0.5, beta2=0.5)
        pp = ProposalParams(sigma=0.5, sigma_dir=1.0)
        rng = np.random.default_rng(9)
        from_rng = ChainState.init(np.array([1.0, -1.0]), rng)
        assert from_rng.rng is rng
        from_seed = ChainState.init(np.array([1.0, -1.0]), 9)
        for _ in range(50):
            from_rng, info_rng = adammcmc_step(from_rng, target, ap, pp)
            from_seed, info_seed = adammcmc_step(from_seed, target, ap, pp)
            np.testing.assert_array_equal(from_rng.theta, from_seed.theta)
            assert info_rng == info_seed


class TestCorrectionTerm:
    def test_equal_gradients_give_unity(self):
        cp = CorrectionParams(1e-4, 1e-4)
        g = np.array([0.3, -0.2])
        m = Momenta(np.array([0.1, 0.1]), np.array([0.2, 0.3]))
        assert log_correction(m, g, g, cp) == 0.0

    def test_momenta_at_proposal_gradients_give_at_least_one(self):
        cp = CorrectionParams(1e-4, 1e-4)
        g_tau = np.array([0.3, -0.2])
        g_theta = np.array([0.1, 0.4])
        m = Momenta(g_tau, g_tau**2)
        assert log_correction(m, g_theta, g_tau, cp) >= 0.0

    def test_matches_direct_formula(self):
        # independent arithmetic evaluation on a small random instance
        rng = np.random.default_rng(3)
        cp = CorrectionParams(0.05**2 / (1 - 0.8**2), 0.02**2 / (1 - 0.95**2))
        m = Momenta(rng.standard_normal(3), rng.standard_normal(3))
        g_theta = rng.standard_normal(3)
        g_tau = rng.standard_normal(3)

        expected = 0.0
        for m_l, rho, beta, power in (
            (m.m1, 0.05, 0.8, 1),
            (m.m2, 0.02, 0.95, 2),
        ):
            s_sq = rho**2 / (1 - beta**2)
            expected += -np.sum((m_l - g_tau**power) ** 2) / (2 * s_sq)
            expected += np.sum((m_l - g_theta**power) ** 2) / (2 * s_sq)
        got = log_correction(m, g_theta, g_tau, cp)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unit_correction_never_evaluates_it(self, monkeypatch):
        import adammcmc.samplers as samplers_mod

        def forbidden(*args):
            raise AssertionError("log_correction called with cp=None")

        monkeypatch.setattr(samplers_mod, "log_correction", forbidden)
        target = quadratic_target(2)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.3, sigma_dir=1.5)
        state = ChainState.init(np.array([0.8, -0.6]), 0)
        for drift in ("adam", "gradient"):
            for _ in range(20):
                state, _ = adammcmc_step(state, target, ap, pp, None, drift=drift)


class TestLogAlphaHook:
    def test_trivial_self_transition(self):
        target = quadratic_target(2)
        ap = AdamParams()
        pp = ProposalParams(sigma=0.5, sigma_dir=1.0)
        cp = CorrectionParams(1e-2, 1e-2)
        theta = np.array([0.4, -0.1])
        m = Momenta(np.array([0.2, 0.0]), np.array([0.1, 0.05]))
        assert adammcmc_log_alpha(target, theta, theta, m, 4, ap, pp, cp) == 0.0

    def test_consistent_with_step_formula(self):
        # The hook must reproduce the in-step acceptance on a forced
        # proposal bit for bit, in unit and in full correction mode.
        target = quadratic_target(2, lam=2.0)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.3, sigma_dir=1.5)
        theta0 = np.array([0.8, -0.6])
        z = np.array([0.7, -1.1])
        xi = 0.4

        m_next = adam_momentum_update(Momenta.zeros(2), theta0, ap)
        u = adam_update_vector(m_next, 0, ap)
        tau = theta0 - u + pp.sigma * z + pp.sigma_dir * xi * u

        for cp in (None, CorrectionParams(1e-2, 1e-2)):
            state = ChainState.init(theta0, 0)
            state.rng = StubRng(z, normal_scalar=xi)
            _, info = adammcmc_step(state, target, ap, pp, cp)
            hook = adammcmc_log_alpha(target, theta0, tau, m_next, 0, ap, pp, cp)
            assert np.isfinite(hook) and hook < 0.0
            assert info.log_alpha == hook


class TestFinishLogAlpha:
    @settings(max_examples=300)
    @given(
        lam=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        loss_cur=st.floats(),
        loss_prop=st.floats(),
        in_cur=st.booleans(),
        in_prop=st.booleans(),
        log_fwd=st.floats(),
        log_bwd=st.floats(),
        log_c=st.floats(),
    )
    def test_never_nan_never_above_zero(
        self, lam, loss_cur, loss_prop, in_cur, in_prop, log_fwd, log_bwd, log_c
    ):
        with np.errstate(all="ignore"):
            log_alpha = _finish_log_alpha(
                lam, loss_cur, loss_prop, in_cur, in_prop, log_fwd, log_bwd, log_c
            )
        assert not np.isnan(log_alpha)
        assert log_alpha <= 0.0


class TestParamValidation:
    def test_adam_params(self):
        with pytest.raises(ValueError):
            AdamParams(gamma=0.0)
        with pytest.raises(ValueError):
            AdamParams(beta1=1.0)
        with pytest.raises(ValueError, match="beta1, beta2"):  # one chain's column
            AdamParams(beta1=np.full((2, 1), 0.9), beta2=np.array([[0.9], [1.0]]))
        with pytest.raises(ValueError):
            AdamParams(delta=0.0)

    def test_proposal_params(self):
        with pytest.raises(ValueError):
            ProposalParams(sigma=0.0)
        with pytest.raises(ValueError):
            ProposalParams(sigma=1.0, sigma_dir=-1.0)
        with pytest.raises(ValueError, match="sigma_dir"):
            ProposalParams(sigma=1.0, sigma_dir=np.nan)
        with pytest.raises(ValueError, match="sigma must be positive"):  # one chain's column
            ProposalParams(sigma=np.array([0.5, np.nan]), sigma_dir=np.zeros(2))

    def test_prolate_covariance_nan_sigma_dir(self):
        with pytest.raises(ValueError, match="sigma_dir"):
            ProlateCovariance(1.0, np.nan, np.ones(2))

    def test_unknown_drift(self):
        target = quadratic_target(2)
        state = ChainState.init(np.zeros(2), 0)
        with pytest.raises(ValueError, match="drift must be 'adam' or 'gradient'"):
            adammcmc_step(state, target, AdamParams(), ProposalParams(1.0), drift="momentum")

    @pytest.mark.parametrize(
        "fields, rule",
        [
            (dict(gamma=0.0), "gamma"),
            (dict(gamma=np.nan), "gamma"),
            (dict(friction=-0.1), "friction"),
            (dict(friction=1.5), "friction"),
            (dict(friction=np.nan), "friction"),
            (dict(noise_scale=-1.0), "noise_scale"),
            (dict(noise_scale=np.nan), "noise_scale"),
        ],
    )
    def test_sghmc_params(self, fields, rule):
        with pytest.raises(ValueError, match=rule):
            SghmcParams(**fields)

    def test_correction_params(self):
        for s1_sq, s2_sq in ((0.0, 0.1), (-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan),
                             (np.ones(2), np.array([1.0, np.nan]))):
            with pytest.raises(ValueError):
                CorrectionParams(s1_sq, s2_sq)
        cp = CorrectionParams(1e-4, 2e-4)
        assert (cp.s1_sq, cp.s2_sq) == (1e-4, 2e-4)


METROPOLIS_STEPS = ["adam", "adam_full", "gradient", "mala"]


def metropolis_step(name: str, sigma: float):
    """One of the Metropolis steps the chains run, as step(state, target, batch)."""
    if name == "mala":
        return lambda s, t, b: mala_step(s, t, 0.05, sigma, batch=b)
    ap = AdamParams(0.05, 0.9, 0.9)
    pp = ProposalParams(sigma, 2.0)
    cp = CorrectionParams(1e-2, 1e-2) if name == "adam_full" else None
    drift = "gradient" if name == "gradient" else "adam"
    return lambda s, t, b: adammcmc_step(s, t, ap, pp, cp, batch=b, drift=drift)


class TestCurrentEvaluation:
    """The state carries the current point's evaluation from step to step."""

    @pytest.mark.parametrize("name", METROPOLIS_STEPS)
    def test_one_prior_check_per_full_batch_step(self, name, monkeypatch):
        step = metropolis_step(name, 0.3)
        target = noisy_quadratic_target(3)
        state, _ = step(ChainState.init(np.array([0.3, -0.2, 0.1]), 4), target, None)
        calls = []
        contains = PriorBox.contains

        def counting(box, theta):
            calls.append(theta)
            return contains(box, theta)

        monkeypatch.setattr(PriorBox, "contains", counting)
        for _ in range(20):
            before = len(calls)
            state, info = step(state, target, None)
            assert len(calls) == before + 1  # the proposal only
            if info.accepted:
                assert calls[-1] is state.theta

    @pytest.mark.parametrize("name", METROPOLIS_STEPS)
    def test_minibatch_step_evaluates_both_points_on_its_batch(self, name):
        step = metropolis_step(name, 0.3)
        target = noisy_quadratic_target(3)
        oracle = target.oracle
        calls = []
        evaluate = oracle.evaluate

        def counting(theta, indices):
            calls.append(indices)
            return evaluate(theta, indices)

        oracle.evaluate = counting
        state = ChainState.init(np.array([0.3, -0.2, 0.1]), 4)
        batches = make_batches(oracle.n_points, 32, np.random.default_rng(0))
        for batch in batches[:10]:
            calls.clear()
            state, _ = step(state, target, batch)
            # both evaluations take the one handle the step gathered
            assert len(calls) == 2 and calls[0] is calls[1]
            assert calls[0][0].tobytes() == oracle.centers[batch].tobytes()
            assert not state.current.full

    @settings(max_examples=60)
    @given(
        name=st.sampled_from(METROPOLIS_STEPS),
        dim=st.integers(1, 3),
        half_width=st.floats(0.2, 3.0),
        sigma=st.floats(0.01, 3.0),
        start_scale=st.floats(0.0, 3.0),
        batch_size=st.sampled_from([0, 7, 64]),
        seeded=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_carried_evaluation_matches_a_fresh_one(
        self, name, dim, half_width, sigma, start_scale, batch_size, seeded, seed
    ):
        rng = np.random.default_rng(seed)
        target = noisy_quadratic_target(dim, half_width=half_width, n_points=64)
        oracle = target.oracle
        state = ChainState.init(start_scale * rng.standard_normal(dim), rng)
        if seeded:  # as initial_state seeds it: full-data loss, gradient on first use
            loss, grad_fn = oracle.evaluate(state.theta, None)
            state.current = Evaluation(loss, target.prior.contains(state.theta), True, grad_fn)
        step = metropolis_step(name, sigma)
        for _ in range(8):
            batch = None
            if batch_size and rng.uniform() < 0.7:  # minibatch chains mix in full steps
                batch = np.sort(rng.choice(oracle.n_points, batch_size, replace=False))
            state, info = step(state, target, batch)
            cur = state.current
            assert not np.isnan(info.log_alpha)
            assert cur.inside == target.prior.contains(state.theta)
            assert cur.full == (batch is None)
            if batch is None:
                assert cur.loss == oracle.eval(state.theta)
                np.testing.assert_array_equal(cur.grad(), oracle.grad(state.theta))


class TestGradientDrift:
    """drift="gradient" runs the adam drift's acceptance with a backward
    covariance stretched along gamma * grad(tau)."""

    def test_chain_digest(self):
        # theta and log_alpha bytes of 200 steps, pinned before the gradient
        # drift shared the adam drift's acceptance; numpy 2.4.6 on x86-64
        target = quadratic_target(2, lam=1.0, half_width=10.0)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.3, sigma_dir=3.0)
        state = ChainState.init(np.array([1.5, -1.0]), np.random.default_rng(5))
        digest = hashlib.sha256()
        for _ in range(200):
            state, info = adammcmc_step(state, target, ap, pp, drift="gradient")
            digest.update(state.theta.tobytes())
            digest.update(np.float64(info.log_alpha).tobytes())
        assert digest.hexdigest() == "337299f143eded0d38ffb566128eb15a849cde140a52d052cb67cc4a2bcd4d2c"

    @pytest.mark.parametrize("make_target", [quadratic_target, banana_target])
    def test_detailed_balance_against_dense_densities(self, make_target):
        # pi(theta) q(tau | theta) alpha(theta -> tau) is symmetric in
        # (theta, tau), each proposal density dense N(x - u(x), sigma^2 I +
        # sigma_dir^2 u(x) u(x)^T) with u(x) = gamma * grad L(x).  A reference
        # whose backward covariance is stretched along gamma * grad L(theta)
        # instead of gamma * grad L(tau) fails: its worst violation is ~1e13
        # on the quadratic and inf on the banana.
        target = make_target(2, lam=1.0, half_width=10.0)
        ap = AdamParams(gamma=0.05)
        pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
        rng = np.random.default_rng(12)

        def step_to(x, y, xi):
            """x -> y as the gradient-drift step draws it: the proposal
            forced through its normals, the log acceptance and log q(y | x)."""
            u = ap.gamma * target.oracle.grad(x)
            z = (y - x + u - pp.sigma_dir * xi * u) / pp.sigma
            y = x - u + pp.sigma * z  # the proposal exactly as sample() forms it
            y += pp.sigma_dir * xi * u
            state = ChainState.init(x, 0)
            state.rng = StubRng(z, normal_scalar=xi)
            _, info = adammcmc_step(state, target, ap, pp, drift="gradient")
            cov = pp.sigma**2 * np.eye(2) + pp.sigma_dir**2 * np.outer(u, u)
            return y, info.log_alpha + _dense_gaussian_logpdf(y, x - u, cov)

        worst = 0.0
        for _ in range(200):
            theta = BALANCE_POINT_SCALE * rng.standard_normal(2)
            tau = BALANCE_POINT_SCALE * rng.standard_normal(2)
            xi_fwd, xi_bwd = rng.standard_normal(2)
            tau, fwd = step_to(theta, tau, xi_fwd)
            _, bwd = step_to(tau, theta, xi_bwd)
            lhs = target.log_unnorm(theta) + fwd
            rhs = target.log_unnorm(tau) + bwd
            worst = max(worst, abs(np.expm1(lhs - rhs)))
        assert worst < 1e-8  # criterion 3's bound

    def test_overflowing_stretch_rejects(self):
        # gamma * grad at (1e60, 1e60) is ~1e181: (sigma_dir |u| / sigma)^2
        # overflows, and the proposal lands outside the prior box
        target = banana_target(2)
        state = ChainState.init(np.array([1e60, 1e60]), np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"):
            new, info = adammcmc_step(
                state, target, AdamParams(gamma=1.0), ProposalParams(0.5, 1.0),
                drift="gradient",
            )
        assert not info.accepted
        assert info.log_alpha == -np.inf
        np.testing.assert_array_equal(new.theta, state.theta)
        # u = grad ~ (4e181, -2e121): the first entry alone sets the norm
        u = target.oracle.grad(state.theta)
        assert info.u_norm == pytest.approx(abs(u[0]), rel=1e-15)


def exact_draws(target: GibbsTarget, n: int, rng) -> np.ndarray:
    """n exact draws from a P=2 quadratic or banana Gibbs target, rejected
    into the prior box: for the banana x ~ N(1, 1/(2 lam)) and
    y | x ~ N(x^2, 1/(2 lam c)), c the curvature."""
    lam, half_width = target.lam, target.prior.half_width
    out = np.empty((0, 2))
    while len(out) < n:
        if isinstance(target.oracle, BananaLoss):
            x = 1.0 + rng.standard_normal(n) / np.sqrt(2.0 * lam)
            y = x**2 + rng.standard_normal(n) / np.sqrt(2.0 * lam * target.oracle.curvature)
            cand = np.column_stack([x, y])
        else:
            cand = rng.standard_normal((n, 2)) / np.sqrt(lam)
        out = np.concatenate([out, cand[np.abs(cand).max(axis=1) <= half_width]])
    return out[:n]


def exact_start_z(step, target: GibbsTarget, n_chains: int = 20_000, seed: int = 3) -> np.ndarray:
    """z-scores of one step from n_chains exact starts against the target.

    Per coordinate: the two-sample z of mean and variance against as many
    fresh exact draws, and the paired z of the change in x and x^2 from start
    to end.  An exact kernel leaves the target unchanged, so every z is
    standard normal; the paired ones see small biases, because a step moves
    each point only a little.
    """
    rng = np.random.default_rng(seed)
    starts = exact_draws(target, n_chains, rng)
    ends = np.empty_like(starts)
    for i, theta in enumerate(starts):
        state, _ = step(ChainState(theta, Momenta.zeros(2), 0, None, rng), target)
        ends[i] = state.theta
    fresh = exact_draws(target, n_chains, rng)

    def var_of_var(x):
        d = x - x.mean(axis=0)
        return ((d**4).mean(axis=0) - (d**2).mean(axis=0) ** 2) / n_chains

    z_mean = (ends.mean(axis=0) - fresh.mean(axis=0)) / np.sqrt(
        (ends.var(axis=0, ddof=1) + fresh.var(axis=0, ddof=1)) / n_chains
    )
    z_var = (ends.var(axis=0, ddof=1) - fresh.var(axis=0, ddof=1)) / np.sqrt(
        var_of_var(ends) + var_of_var(fresh)
    )
    change = np.concatenate([ends - starts, ends**2 - starts**2], axis=1)
    z_paired = change.mean(axis=0) / (change.std(axis=0, ddof=1) / np.sqrt(n_chains))
    return np.concatenate([z_mean, z_var, z_paired])


def exact_start_mala(state, target):
    return mala_step(state, target, 0.05, 0.4)


def exact_start_gradient_drift(state, target):
    return adammcmc_step(
        state, target, AdamParams(gamma=0.05), ProposalParams(0.4, 2.0), drift="gradient"
    )


class TestExactStartInvariance:
    """One step from exact draws of the target stays distributed as the
    target (Geweke 2004): MALA and the stretched gradient drift, on the P=2
    quadratic and banana in the box of half width 10."""

    @pytest.mark.parametrize("make_target", [quadratic_target, banana_target])
    @pytest.mark.parametrize("step", [exact_start_mala, exact_start_gradient_drift])
    def test_one_step_keeps_the_target(self, step, make_target):
        z = exact_start_z(step, make_target(2, 1.0, 10.0))
        assert np.abs(z).max() <= 4.0, z

    def test_detects_a_missing_proposal_ratio(self, monkeypatch):
        # MALA without its reverse/forward density ratio shrinks the
        # variance: the paired x^2 z read -11.2 and -11.6 when recorded
        monkeypatch.setattr(samplers, "_iso_log_density", lambda mean, sigma, x: 0.0)
        z = exact_start_z(exact_start_mala, quadratic_target(2, 1.0, 10.0))
        assert np.abs(z).max() > 4.0, z


def test_one_norm_per_adam_drift_step(monkeypatch):
    # the step's one drift norm serves the draw and both densities
    calls = []
    safe_norm = samplers._safe_norm

    def counting(x):
        calls.append(x)
        return safe_norm(x)

    monkeypatch.setattr(samplers, "_safe_norm", counting)
    target = quadratic_target(3)
    state = ChainState.init(np.array([0.3, -0.2, 0.1]), 4)
    for name in ("adam", "adam_full"):
        step = metropolis_step(name, 0.3)
        for _ in range(10):
            before = len(calls)
            state, _ = step(state, target, None)
            assert len(calls) == before + 1


@pytest.mark.parametrize("name", ["adam", "adam_full", "gradient"])
def test_chain_steps_build_no_covariance(name, monkeypatch):
    # the steps pass each drift and its norm to the prolate functions
    def refuse(self):
        raise AssertionError("a chain step built a ProlateCovariance")

    monkeypatch.setattr(ProlateCovariance, "__post_init__", refuse)
    target = quadratic_target(3)
    step = metropolis_step(name, 0.3)
    state = ChainState.init(np.array([0.3, -0.2, 0.1]), 4)
    accepted = 0
    for _ in range(50):
        state, info = step(state, target, None)
        accepted += info.accepted
    assert accepted > 0


def test_random_draws_the_uniform_stream():
    # the accept test draws rng.random(): Generator.uniform() on [0, 1) is
    # 0.0 + 1.0 * next_double, the same double from the same stream
    a, b = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2_000):
        assert a.standard_normal(3).tobytes() == b.standard_normal(3).tobytes()
        assert np.float64(a.uniform()).tobytes() == np.float64(b.random()).tobytes()
    assert a.uniform(size=50_000).tobytes() == b.random(50_000).tobytes()


def python_calls(run) -> int:
    """The number of calls cProfile records while run() runs, summed over
    its code objects (pstats would merge every dataclass-generated __init__
    into one ("<string>", 2, "__init__") entry and keep one count).

    What counts: a call of a Python function, and a call made from Python
    of a C function or method, such as ndarray.take, np.where or
    np.maximum.reduce, one each (ndarray.max counts three: the method,
    numpy's Python wrapper and its reduce).  What does not: an operator
    (a + b, a @ b), an indexing expression (a[idx]) or a call of a ufunc
    itself (np.exp(a)), which cProfile does not see.  So
    centers.take(idx, axis=0) counts one and centers[idx] none, though the
    first is the faster gather: a bound on this count reads a step that
    moves work between the two forms as dearer or cheaper than it is."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    return sum(entry.callcount for entry in profile.getstats())


def python_calls_per_step(config):
    """Python-level calls per step of config's chain, run_chain's bookkeeping
    included: a step's cost without the host's noise."""
    experiment = build_experiment(config)
    state0, step_fn = start_chain(experiment, config.batch_size)
    return python_calls(lambda: run_chain(step_fn, state0, experiment.schedule)) / config.steps


def test_adam_step_python_calls():
    # 500 steps of the README quadratic chain
    config = RunConfig(
        target="quadratic", dim=2, sampler="adammcmc", lam=1.0, gamma=0.01, sigma=0.3,
        sigma_dir=10.0, beta1=0.99, beta2=0.99, steps=500, burn_in=0, gap=50, n_samples=10,
    )
    assert python_calls_per_step(config) <= 31


def test_minibatch_noisy_step_python_calls():
    # the noisy quadratic, P=16, batch 32: the step gathers its batch once
    # for both points and the oracle reduces without np.mean's wrappers
    config = RunConfig(
        target="noisy_quadratic", dim=16, sampler="adammcmc", lam=1.0, gamma=0.01, sigma=0.3,
        sigma_dir=10.0, batch_size=32, steps=500, burn_in=0, gap=50, n_samples=10,
    )
    assert python_calls_per_step(config) <= 47


def test_lockstep_scan_python_calls_per_chain_step():
    # the benchmark's scan: 4 sigmas x 4 seeds of the noisy quadratic, P=16,
    # batch 32, as one 16-chain lockstep group; the per-chain draws stay
    # per chain, the batches and the numpy work are shared by the rows
    base = RunConfig(
        target="noisy_quadratic", dim=16, sampler="adammcmc", lam=0.5, gamma=0.01, sigma=0.7,
        sigma_dir=2.0, beta1=0.99, beta2=0.99, batch_size=32, steps=1000, burn_in=500, gap=50,
        n_samples=10,
    )
    experiments = [
        build_experiment(base.replace(sigma=sigma, seed=seed))
        for sigma in (0.0875, 0.175, 0.35, 0.7) for seed in range(4)
    ]
    state0, step_fn = _lockstep(experiments, [seed_chain(e, base.batch_size) for e in experiments])
    calls = python_calls(lambda: run_chain(step_fn, state0, experiments[0].schedule))
    assert calls / (len(experiments) * base.steps) <= 6
