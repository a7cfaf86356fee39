"""Grid densities, TV distance, detailed balance, scans and MH comparison."""

import numpy as np
import pytest

from adammcmc import diagnostics
from adammcmc.config import ConfigError, RunConfig
from adammcmc.diagnostics import (
    GridDensity,
    MhComparison,
    apply_scan_value,
    compare_full_vs_stochastic_mh,
    detailed_balance_violations,
    scan_acceptance,
    truncated_gaussian_variance,
    tv_distance,
    tv_to_target,
)
from adammcmc.losses import quadratic_target
from adammcmc.samplers import AdamParams, CorrectionParams, ProposalParams


class TestGridDensity:
    def test_masses_normalized_1d(self):
        grid = GridDensity.from_target(
            quadratic_target(1), bounds=[(-4, 4)], resolution=64
        )
        assert grid.masses.sum() == pytest.approx(1.0, abs=1e-10)

    def test_masses_normalized_2d(self):
        grid = GridDensity.from_target(
            quadratic_target(2), bounds=[(-4, 4), (-4, 4)], resolution=32
        )
        assert grid.masses.shape == (32, 32)
        assert grid.masses.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_high_dimensions(self):
        with pytest.raises(ValueError):
            GridDensity.from_target(
                quadratic_target(3), bounds=[(-1, 1)] * 3, resolution=4
            )

    def test_gaussian_shape(self):
        # masses should integrate the standard normal over each cell
        grid = GridDensity.from_target(
            quadratic_target(1, half_width=50.0), bounds=[(-6, 6)], resolution=120
        )
        from scipy.stats import norm

        edges = grid.edges[0]
        expect = norm.cdf(edges[1:]) - norm.cdf(edges[:-1])
        # midpoint rule vs exact cell integral: O(h^2) discretization error
        np.testing.assert_allclose(grid.masses, expect / expect.sum(), atol=5e-5)


class TestTvDistance:
    def test_identical_distributions(self):
        grid = GridDensity.from_target(
            quadratic_target(1), bounds=[(-4, 4)], resolution=32
        )
        assert tv_distance(grid.masses, grid) == pytest.approx(0.0, abs=1e-14)

    def test_disjoint_supports(self):
        grid = GridDensity.from_target(
            quadratic_target(1), bounds=[(-4, 4)], resolution=32
        )
        empirical = np.zeros(32)
        assert tv_distance(empirical, grid) == pytest.approx(0.5)
        empirical[0] = 1.0  # all mass in a cell with ~zero target mass
        assert tv_distance(empirical, grid) == pytest.approx(1.0, abs=1e-4)

    def test_grid_mismatch(self):
        grid = GridDensity.from_target(
            quadratic_target(1), bounds=[(-4, 4)], resolution=32
        )
        with pytest.raises(ValueError):
            tv_distance(np.zeros(16), grid)

    def test_iid_rejection_sampler_floor(self):
        # exact i.i.d. draws from the 1D truncated Gaussian: the TV against
        # its own grid is just binning + Monte Carlo noise, below 0.02
        target = quadratic_target(1, lam=1.0, half_width=1.0)
        grid = GridDensity.from_target(target, bounds=[(-1, 1)], resolution=40)
        rng = np.random.default_rng(4)
        draws = []
        while len(draws) < 100_000:
            cand = rng.standard_normal(50_000)
            draws.extend(cand[np.abs(cand) <= 1.0].tolist())
        samples = np.array(draws[:100_000])
        assert tv_to_target(samples, grid) < 0.02

    def test_minimum_sample_count_enforced(self):
        target = quadratic_target(1)
        grid = GridDensity.from_target(target, bounds=[(-4, 4)], resolution=16)
        with pytest.raises(ValueError):
            tv_to_target(np.zeros(10), grid)


class TestTruncatedGaussianVariance:
    def test_wide_box_is_unit_variance(self):
        assert truncated_gaussian_variance(1.0, 10.0) == pytest.approx(1.0, rel=1e-10)

    def test_lambda_scaling(self):
        assert truncated_gaussian_variance(4.0, 10.0) == pytest.approx(0.25, rel=1e-10)

    def test_tight_box_shrinks_variance(self):
        # var of standard normal truncated to [-1, 1]: 1 - 2 phi(1)/(2 Phi(1) - 1)
        from scipy.stats import norm

        expect = 1.0 - 2.0 * norm.pdf(1.0) / (2.0 * norm.cdf(1.0) - 1.0)
        assert truncated_gaussian_variance(1.0, 1.0) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_closed_form_matches_quadrature(self, lam):
        # a = R sqrt(lam) spans both branches: the series below a = 1, the
        # erf form above it
        from scipy import integrate

        def by_quadrature(half_width):
            def density(x):
                return np.exp(-0.5 * lam * x * x)

            z, _ = integrate.quad(density, -half_width, half_width)
            second, _ = integrate.quad(lambda x: x * x * density(x), -half_width, half_width)
            return second / z

        for a in np.geomspace(1e-4, 100.0, 1001):
            half_width = a / np.sqrt(lam)
            assert truncated_gaussian_variance(lam, half_width) == pytest.approx(
                by_quadrature(half_width), rel=1e-12, abs=0.0
            ), a

    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_exact_once_the_tail_underflows(self, lam):
        for a in (40.0, 50.0, 100.0, 1e3):
            assert truncated_gaussian_variance(lam, a / np.sqrt(lam)) == 1.0 / lam


class TestDetailedBalance:
    def test_identity_transition_has_zero_violation(self):
        target = quadratic_target(2)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
        cp = CorrectionParams.full_from_s2(1e-2, ap)
        from adammcmc.samplers import Momenta, adammcmc_log_alpha

        theta = np.array([0.3, -0.2])
        m = Momenta(np.array([0.1, 0.2]), np.array([0.3, 0.1]))
        fwd = adammcmc_log_alpha(target, theta, theta, m, 3, ap, pp, cp)
        assert fwd == 0.0

    def test_full_correction_satisfies_detailed_balance(self):
        target = quadratic_target(2, lam=1.0, half_width=10.0)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
        cp = CorrectionParams.full_from_s2(1e-2, ap)
        rng = np.random.default_rng(12)
        max_violation = detailed_balance_violations(target, ap, pp, cp, 200, rng).max()
        assert max_violation < 1e-8

    def test_unit_correction_violates_more(self):
        # identical trials: the C = 1 approximation must show up as a
        # strictly larger violation than the exact correction
        target = quadratic_target(2, lam=1.0, half_width=10.0)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
        cp_full = CorrectionParams.full_from_s2(1e-2, ap)
        cp_unit = CorrectionParams.unit()

        full = detailed_balance_violations(
            target, ap, pp, cp_full, 200, np.random.default_rng(3), density_cp=cp_full
        )
        unit = detailed_balance_violations(
            target, ap, pp, cp_unit, 200, np.random.default_rng(3), density_cp=cp_full
        )
        assert unit.max() > full.max()
        assert np.median(unit) > np.median(full)

    def test_sign_mutation_detected(self):
        # flipping the sign of the rank-one inverse term must break the check
        import adammcmc.prolate as prolate_mod

        target = quadratic_target(2, lam=1.0, half_width=10.0)
        ap = AdamParams(gamma=0.05, beta1=0.9, beta2=0.9)
        pp = ProposalParams(sigma=0.4, sigma_dir=2.0)
        cp = CorrectionParams.full_from_s2(1e-2, ap)

        original = prolate_mod.ProlateCovariance.inv_quad_form

        def buggy(self, x):
            x = np.asarray(x, dtype=float)
            s2 = self.sigma * self.sigma
            iso = float(x @ x) / s2
            norm_d = float(np.linalg.norm(self.direction))
            if self.sigma_dir == 0.0 or norm_d == 0.0:
                return iso
            cos_comp = float(self.direction @ x) / norm_d
            t = (self.sigma_dir * norm_d / self.sigma) ** 2
            return iso + (cos_comp * cos_comp / s2) * (1.0 / (1.0 + 1.0 / t))

        prolate_mod.ProlateCovariance.inv_quad_form = buggy
        try:
            bad = detailed_balance_violations(
                target, ap, pp, cp, 50, np.random.default_rng(8)
            ).max()
        finally:
            prolate_mod.ProlateCovariance.inv_quad_form = original
        assert bad > 1e-4


FAST_SCAN_CONFIG = RunConfig(
    target="quadratic",
    dim=2,
    sampler="adammcmc",
    sigma=0.5,
    sigma_dir=1.0,
    gamma=0.05,
    beta1=0.9,
    beta2=0.9,
    steps=400,
    burn_in=100,
    gap=30,
    n_samples=10,
    seed=5,
)


class TestScan:
    def test_single_point_grid(self):
        rows = scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.5], n_replicates=0)
        assert len(rows) == 1
        assert rows[0].param == "sigma"
        assert 0.0 <= rows[0].mean_acceptance <= 1.0
        assert rows[0].metric_name == "variance_error"

    def test_rows_are_grid_times_seeds(self):
        rows = scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.3, 0.6], n_replicates=2)
        assert len(rows) == 2 * 3
        assert {row.seed for row in rows} == {5, 6, 7}

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="config field 'grid'"):
            scan_acceptance(FAST_SCAN_CONFIG, "sigma", [])

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="config field 'param'"):
            scan_acceptance(FAST_SCAN_CONFIG, "delta", [1.0])

    def test_apply_scan_value_mapping(self):
        cfg = apply_scan_value(FAST_SCAN_CONFIG, "beta", 0.5)
        assert cfg.beta1 == 0.5 and cfg.beta2 == 0.5
        cfg = apply_scan_value(FAST_SCAN_CONFIG, "lambda", 3.0)
        assert cfg.lam == 3.0
        cfg = apply_scan_value(FAST_SCAN_CONFIG, "sigma_dir", 7.0)
        assert cfg.sigma_dir == 7.0

    def test_pool_capped_at_task_count(self, monkeypatch):
        opened = []

        class RecordingPool:  # runs the tasks in this process
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", RecordingPool)
        rows = scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.4], n_replicates=1, jobs=8)
        assert len(rows) == 2 and opened == [2]
        scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.3, 0.6], n_replicates=1, jobs=3)
        assert opened == [2, 3]

    @pytest.mark.parametrize("n_replicates, jobs", [(-1, 2), (1, 0)])
    def test_bad_replicates_or_jobs_rejected_before_pool(self, monkeypatch, n_replicates, jobs):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool started")

        monkeypatch.setattr(diagnostics, "ProcessPoolExecutor", NoPool)
        field = "replicates" if n_replicates < 0 else "jobs"
        with pytest.raises(ConfigError, match=f"config field '{field}'"):
            scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.4], n_replicates=n_replicates, jobs=jobs)

    def test_parallel_matches_serial(self):
        serial = scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.4], n_replicates=1, jobs=1)
        parallel = scan_acceptance(FAST_SCAN_CONFIG, "sigma", [0.4], n_replicates=1, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.mean_acceptance == b.mean_acceptance
            assert a.metric == b.metric


class TestMhComparison:
    def test_zero_batch_noise_gives_identical_records(self):
        # quadratic per-point losses are identical, so the batch estimate
        # equals the full loss and matched RNG makes the chains coincide
        cfg = FAST_SCAN_CONFIG.replace(steps=300, burn_in=50, gap=20, n_samples=10)
        comparison = compare_full_vs_stochastic_mh(cfg, batch_size=10)
        full = comparison.full_record
        stoch = comparison.stochastic_record
        np.testing.assert_array_equal(full.loss, stoch.loss)
        np.testing.assert_array_equal(full.accepted, stoch.accepted)
        np.testing.assert_array_equal(full.log_alpha, stoch.log_alpha)
        assert full.acceptance_rate == stoch.acceptance_rate

    def test_requires_batch_size(self):
        with pytest.raises(ValueError):
            compare_full_vs_stochastic_mh(FAST_SCAN_CONFIG, batch_size=0)

    @pytest.mark.parametrize("batch_size", [100, 5000])
    def test_batch_covering_data_rejected(self, batch_size):
        # FAST_SCAN_CONFIG's quadratic target has 100 data points
        with pytest.raises(ConfigError, match="batch_size"):
            compare_full_vs_stochastic_mh(FAST_SCAN_CONFIG, batch_size=batch_size)

    def test_summary_dict_keys(self):
        cfg = FAST_SCAN_CONFIG.replace(steps=200, burn_in=50, gap=10, n_samples=10)
        comparison = compare_full_vs_stochastic_mh(cfg, batch_size=25)
        summary = comparison.summary_dict()
        assert set(summary) == {
            "full_acceptance",
            "stochastic_acceptance",
            "full_loss_mean",
            "stochastic_loss_mean",
            "full_loss_var",
            "stochastic_loss_var",
        }
