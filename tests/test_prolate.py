"""Rank-one covariance math against dense linear-algebra oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import multivariate_normal

from adammcmc import prolate
from adammcmc.diagnostics import _dense_gaussian_logpdf
from adammcmc.prolate import ProlateCovariance, _safe_norm


def random_cov(rng, dim=None, allow_zero_dir=True):
    dim = dim or int(rng.integers(1, 65))
    sigma = float(rng.uniform(0.1, 5.0))
    sigma_dir = float(rng.uniform(0.0, 10.0))
    if allow_zero_dir and rng.uniform() < 0.1:
        sigma_dir = 0.0
    direction = rng.standard_normal(dim) * float(rng.uniform(0.1, 10.0))
    return ProlateCovariance(sigma, sigma_dir, direction)


class TestLogDet:
    def test_identity_covariance(self):
        cov = ProlateCovariance(1.0, 0.0, np.array([1.0, 2.0, 3.0]))
        assert cov.log_det() == 0.0

    def test_hand_value(self):
        # sigma=0.5, sigma_dir=2, d=e1, P=3: det = 0.5^6 * (1 + 16)
        cov = ProlateCovariance(0.5, 2.0, np.array([1.0, 0.0, 0.0]))
        expected = np.log(0.5**6 * 17.0)
        assert cov.log_det() == pytest.approx(expected, rel=1e-14)

    def test_zero_direction(self):
        cov = ProlateCovariance(1.0, 3.0, np.zeros(10))
        assert cov.log_det() == 0.0

    def test_matches_dense_lu_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            cov = random_cov(rng)
            sign, dense = np.linalg.slogdet(cov.dense())
            assert sign == 1.0
            assert abs(np.expm1(cov.log_det() - dense)) < 1e-10

    def test_huge_direction_no_overflow(self):
        # r = (sigma_dir |d| / sigma)^2 overflows float64; log space must not.
        d = np.full(4, 1e200)
        cov = ProlateCovariance(0.5, 1e100, d)
        expected = 8 * np.log(0.5) + 2.0 * (np.log(1e100) + np.log(2e200) - np.log(0.5))
        assert np.isfinite(cov.log_det())
        assert cov.log_det() == pytest.approx(expected, rel=1e-12)


class TestInvQuadForm:
    def test_isotropic_reduction(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(6)
        cov = ProlateCovariance(0.7, 0.0, rng.standard_normal(6))
        assert cov.inv_quad_form(x) == pytest.approx(float(x @ x) / 0.49, rel=1e-14)

    def test_hand_value(self):
        cov = ProlateCovariance(1.0, 1.0, np.array([1.0, 0.0]))
        assert cov.inv_quad_form(np.array([1.0, 0.0])) == pytest.approx(0.5, rel=1e-14)

    def test_orthogonal_direction(self):
        cov = ProlateCovariance(0.8, 5.0, np.array([1.0, 0.0]))
        x = np.array([0.0, 3.0])
        assert cov.inv_quad_form(x) == pytest.approx(9.0 / 0.64, rel=1e-14)

    def test_dimension_mismatch(self):
        cov = ProlateCovariance(1.0, 1.0, np.ones(3))
        with pytest.raises(ValueError):
            cov.inv_quad_form(np.ones(4))

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            cov = random_cov(rng)
            x = rng.standard_normal(cov.dim) * float(rng.uniform(0.1, 10.0))
            dense = float(x @ np.linalg.solve(cov.dense(), x))
            assert cov.inv_quad_form(x) == pytest.approx(dense, rel=1e-8)


class TestLogDensity:
    def test_zero_exponent(self):
        cov = ProlateCovariance(1.3, 0.4, np.array([1.0, -2.0]))
        mean = np.array([0.5, 0.5])
        expected = -0.5 * (2 * np.log(2 * np.pi) + cov.log_det())
        assert cov.log_density(mean, mean) == pytest.approx(expected, rel=1e-14)

    def test_standard_normal_1d(self):
        cov = ProlateCovariance(1.0, 0.0, np.zeros(1))
        got = cov.log_density(np.zeros(1), np.ones(1))
        assert got == pytest.approx(-0.5 * np.log(2 * np.pi) - 0.5, rel=1e-14)

    def test_matches_dense_gaussian_oracle(self):
        rng = np.random.default_rng(5)
        cov = ProlateCovariance(0.7, 1.3, np.array([1.0, 1.0]))
        mean = np.array([0.3, -0.2])
        for _ in range(50):
            x = rng.standard_normal(2) * 3.0
            dense = multivariate_normal(mean=mean, cov=cov.dense()).logpdf(x)
            assert cov.log_density(mean, x) == pytest.approx(dense, rel=1e-10)

    def test_normalizes_1d(self):
        cov = ProlateCovariance(0.6, 1.7, np.array([2.0]))
        total, _ = integrate.quad(
            lambda x: np.exp(cov.log_density(np.array([0.4]), np.array([x]))),
            -30,
            30,
        )
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_normalizes_2d(self):
        cov = ProlateCovariance(0.8, 1.1, np.array([1.0, -0.5]))
        mean = np.array([0.2, -0.1])
        total, _ = integrate.dblquad(
            lambda y, x: np.exp(cov.log_density(mean, np.array([x, y]))),
            -12,
            12,
            -12,
            12,
        )
        assert total == pytest.approx(1.0, abs=1e-4)


class TestSample:
    def test_degenerate_limit_returns_mean(self):
        rng = np.random.default_rng(11)
        mean = np.array([3.0, -1.0])
        cov = ProlateCovariance(1e-300, 0.0, np.ones(2))
        draw = cov.sample(mean, rng)
        np.testing.assert_allclose(draw, mean, atol=1e-290)

    def test_empirical_moments(self):
        # Mean and covariance over 1e5 draws within 4 MC standard errors.
        rng = np.random.default_rng(17)
        d = rng.standard_normal(8)
        cov = ProlateCovariance(0.9, 1.4, d)
        mean = rng.standard_normal(8)
        n = 100_000
        draws = np.array([cov.sample(mean, rng) for _ in range(n)])
        sigma_true = cov.dense()

        se_mean = np.sqrt(np.diag(sigma_true) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)

        emp = np.cov(draws.T)
        var_entry = np.outer(np.diag(sigma_true), np.diag(sigma_true)) + sigma_true**2
        se_cov = np.sqrt(var_entry / n)
        assert np.all(np.abs(emp - sigma_true) < 4 * se_cov)

    def test_directional_variance_formula(self):
        # Var(<tau, d>) = sigma^2 |d|^2 + sigma_dir^2 |d|^4, and
        # Var(<tau, v>) = sigma^2 |v|^2 for v orthogonal to d.
        rng = np.random.default_rng(23)
        d = np.array([1.0, 2.0, -0.5, 0.3])
        cov = ProlateCovariance(0.8, 1.2, d)
        mean = np.zeros(4)
        n = 100_000
        draws = np.array([cov.sample(mean, rng) for _ in range(n)])

        nd2 = float(d @ d)
        proj = draws @ d
        var_true = 0.8**2 * nd2 + 1.2**2 * nd2**2
        se = var_true * np.sqrt(2.0 / (n - 1))
        assert abs(proj.var(ddof=1) - var_true) < 3 * se

        v = np.array([2.0, -1.0, 0.0, 0.0])  # orthogonal to d
        assert abs(v @ d) < 1e-12
        proj_v = draws @ v
        var_v = 0.8**2 * float(v @ v)
        se_v = var_v * np.sqrt(2.0 / (n - 1))
        assert abs(proj_v.var(ddof=1) - var_v) < 3 * se_v

    def test_isotropic_mode_consumes_single_normal_vector(self):
        # sigma_dir=0 must not draw the directional scalar.
        seed = 99
        cov = ProlateCovariance(2.0, 0.0, np.zeros(3))
        draw = cov.sample(np.zeros(3), np.random.default_rng(seed))
        z = np.random.default_rng(seed).standard_normal(3)
        np.testing.assert_array_equal(draw, 2.0 * z)


class TestValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            ProlateCovariance(0.0, 1.0, np.ones(2))

    def test_rejects_negative_sigma_dir(self):
        with pytest.raises(ValueError):
            ProlateCovariance(1.0, -0.1, np.ones(2))

    def test_rejects_a_2d_direction(self):
        with pytest.raises(ValueError, match="flat vector"):
            ProlateCovariance(1.0, 1.0, np.ones((2, 2)))


class TestExtremeStretch:
    """Stretch ratios sigma_dir |d| / sigma far outside [1e-154, 1e154]."""

    @settings(max_examples=200)
    @given(
        sigma=st.floats(0.1, 10.0),
        log_sigma_dir=st.floats(-200.0, 200.0),
        log_scale=st.floats(-200.0, 200.0),
        unit=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
        x=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    )
    @example(1.0, 200.0, -200.0, [1.0, 0.0], [1.0, 1.0, 0.0, 0.0])  # |d| underflows
    @example(1.0, -170.0, -160.0, [1.0, 1.0], [1.0, 1.0, 0.0, 0.0])  # t underflows
    @example(1.0, 80.0, 80.0, [1.0, 0.0], [1.0, 1.0, 0.0, 0.0])  # t overflows
    def test_scale_invariance(self, sigma, log_sigma_dir, log_scale, unit, x):
        # (sigma, sigma_dir, d) and (sigma, 1, sigma_dir * d) are one covariance
        assume(max(abs(v) for v in unit) > 1e-3)
        assume(abs(log_sigma_dir + log_scale) <= 250.0)
        sigma_dir = 10.0**log_sigma_dir
        d = np.asarray(unit) * 10.0**log_scale
        x = np.asarray(x[: d.size])
        a = ProlateCovariance(sigma, sigma_dir, d)
        b = ProlateCovariance(sigma, 1.0, sigma_dir * d)
        # the quadratic form subtracts the projection on d from |x|^2/sigma^2,
        # which cancels for x along d: compare at the scale of the terms
        iso = float(x @ x) / sigma**2
        assert a.inv_quad_form(x) == pytest.approx(b.inv_quad_form(x), rel=1e-12, abs=1e-12 * iso)
        # a log-determinant term below 1e-300 is subnormal and keeps few digits
        assert a.log_det() == pytest.approx(b.log_det(), rel=1e-12, abs=1e-300)

    def test_past_overflow_edge_is_the_infinite_stretch_limit(self):
        # t = 1e320 overflows: along d the precision is 0, across it 1/sigma^2
        cov = ProlateCovariance(1.0, 1.0, np.array([1e160, 0.0]))
        assert cov.inv_quad_form(np.array([1.0, 1.0])) == 1.0
        assert cov.inv_quad_form(np.array([5.0, 0.0])) == 0.0
        assert cov.log_det() == pytest.approx(2.0 * 160.0 * np.log(10.0), rel=1e-14)
        mean = np.zeros(2)
        assert np.isfinite(cov.log_density(mean, np.array([3.0, -2.0])))

    @pytest.mark.parametrize("sigma_dir", [0.5, 3.0])
    def test_offset_past_the_square_overflow_edge(self, sigma_dir):
        # x = sigma z + sigma_dir xi d with |d| = 1e200: x @ x and d @ x
        # overflow, the form does not; z is kept off d's axis, where adding
        # it to a 1e200 entry would round it away
        rng = np.random.default_rng(5)
        sigma, xi = 0.3, 0.7
        d = np.zeros(4)
        d[1] = 1e200
        z = rng.standard_normal(4)
        z[1] = 0.0
        x = sigma * z + sigma_dir * xi * d
        cov = ProlateCovariance(sigma, sigma_dir, d)
        with np.errstate(over="ignore"):
            assert cov.inv_quad_form(x) == pytest.approx(z @ z + xi * xi, rel=1e-9)
            assert np.isfinite(cov.log_density(np.zeros(4), x))
            # no stretch: the isotropic form of an offset past 1e154
            iso = ProlateCovariance(1e10, 0.0, d)
            assert iso.inv_quad_form(np.full(4, 1e160)) == pytest.approx(4e300, rel=1e-12)


def adam_drift_pair(dim, sigma, sigma_dir, log_norm, seed):
    """A drift u with |u| = 10^log_norm, its covariance, and a point theta
    with a draw tau from the proposal around theta - u."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u *= 10.0**log_norm / np.linalg.norm(u)
    theta = rng.standard_normal(dim)
    tau = theta - u + sigma * rng.standard_normal(dim) + sigma_dir * rng.standard_normal() * u
    return u, ProlateCovariance(sigma, sigma_dir, u), theta, tau


SIGMA_DIRS = st.one_of(st.just(0.0), st.floats(0.01, 30.0))


class TestReverseRatio:
    """The closed-form log q(theta | tau) - log q(tau | theta) of two
    proposals that share one covariance and one drift u."""

    @settings(max_examples=300)
    @given(
        dim=st.integers(1, 8),
        sigma=st.floats(0.01, 10.0),
        sigma_dir=SIGMA_DIRS,
        log_norm=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_densities(self, dim, sigma, sigma_dir, log_norm, seed):
        u, cov, theta, tau = adam_drift_pair(dim, sigma, sigma_dir, log_norm, seed)
        dense = cov.dense()
        expected = _dense_gaussian_logpdf(theta, tau - u, dense) - _dense_gaussian_logpdf(
            tau, theta - u, dense
        )
        ratio = prolate.log_reverse_ratio(sigma, sigma_dir, u, cov.norm, tau - theta)
        assert abs(ratio - expected) <= 1e-8 * max(1.0, abs(expected))

    @settings(max_examples=300)
    @given(
        dim=st.integers(1, 8),
        sigma=st.floats(0.01, 10.0),
        sigma_dir=SIGMA_DIRS,
        log_norm=st.floats(-200.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(2, 0.3, 10.0, 300.0, 0)
    @example(2, 0.3, 10.0, -200.0, 0)
    @example(4, 0.01, 0.0, 150.0, 1)
    def test_finite_across_the_float_range(self, dim, sigma, sigma_dir, log_norm, seed):
        # without a stretch the ratio is about -2 |u|^2 / sigma^2, which is
        # itself past the float64 range from |u| ~ 1e154 on
        assume(sigma_dir > 0.0 or log_norm <= 150.0)
        u, cov, theta, tau = adam_drift_pair(dim, sigma, sigma_dir, log_norm, seed)
        assert math.isfinite(prolate.log_reverse_ratio(sigma, sigma_dir, u, cov.norm, tau - theta))


class TestViewIsTheFunctions:
    """Each ProlateCovariance method is its module function, to the bit."""

    @settings(max_examples=200)
    @given(
        dim=st.integers(1, 8),
        sigma=st.floats(0.01, 10.0),
        sigma_dir=SIGMA_DIRS,
        log_norm=st.floats(-200.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_method(self, dim, sigma, sigma_dir, log_norm, seed):
        u, cov, theta, tau = adam_drift_pair(dim, sigma, sigma_dir, log_norm, seed)
        g = (sigma, sigma_dir, u, _safe_norm(u))
        x = tau - theta
        assert cov.norm == g[3]
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [
                (cov.log_det(), prolate.log_det(*g)),
                (cov.inv_quad_form(x), prolate.inv_quad_form(*g, x)),
                (cov.log_density(theta - u, tau), prolate.log_density(*g, theta - u, tau)),
            ]
        for got, want in pairs:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        drawn = cov.sample(theta, np.random.default_rng(seed))
        want = prolate.sample(*g[:3], theta, np.random.default_rng(seed))
        assert drawn.tobytes() == want.tobytes()


def guarded_norm(x):
    """_safe_norm as written before its x . x window: the largest entry
    chooses between sqrt(x . x) and the sum rescaled by that entry."""
    m = float(np.abs(x).max()) if x.size else 0.0
    if 1e-150 <= m <= 1e150:
        return math.sqrt(float(x @ x))
    if m == 0.0 or not math.isfinite(m):
        return m
    scaled = x / m
    return m * math.sqrt(float(scaled @ scaled))


class TestSafeNorm:
    @settings(max_examples=500)
    @given(
        dim=st.integers(1, 400),
        # the whole range, and the two edges of the x . x window
        low=st.one_of(
            st.floats(-323.3, 308.0), st.floats(-160.0, -140.0), st.floats(140.0, 154.0)
        ),
        width=st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 40.0)),
        specials=st.lists(st.sampled_from([0.0, math.inf, -math.inf, math.nan]), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(1, 145.0, 0.0, [], 0)  # x . x at the window's top
    @example(1, -145.0, 0.0, [], 0)  # and at its bottom
    @example(400, 144.0, 0.0, [], 0)
    @example(3, 151.0, 1.0, [], 0)  # x . x finite, past the window
    @example(2, -323.3, 0.0, [], 0)  # the smallest subnormal
    @example(3, 200.0, 0.0, [math.nan, math.inf], 0)
    def test_same_bytes_as_the_guarded_formula(self, dim, low, width, specials, seed):
        # entries of exponents in [low, low + width] with random signs, a few
        # of them replaced by zeros, infinities or NaN
        rng = np.random.default_rng(seed)
        exponents = np.minimum(rng.uniform(low, low + width, dim), 308.0)
        x = rng.choice([-1.0, 1.0], dim) * 10.0**exponents
        k = min(len(specials), dim)
        x[rng.choice(dim, k, replace=False)] = specials[:k]
        with np.errstate(over="ignore"):
            want = guarded_norm(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _safe_norm(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_overflow_edge_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = _safe_norm(np.array([1e200, 1e200]))
        assert norm == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)

    def test_equals_numpy_norm_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            x = rng.standard_normal(int(rng.integers(1, 400))) * 10.0 ** rng.uniform(-100, 100)
            assert _safe_norm(x) == np.linalg.norm(x)
