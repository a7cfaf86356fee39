"""Schedules, sample retention, records and ensemble quantile spread."""

import numpy as np
import pytest

from adammcmc.chain import (
    ChainRecord,
    ChainSchedule,
    EnsembleSummary,
    NumericalAbort,
    ensemble_predict,
    load_samples_csv,
    run_chain,
    save_samples_csv,
)
from adammcmc.mlp import MicroMlp
from adammcmc.samplers import ChainState, StepInfo


def make_stub_step(thetas=None, accept=True):
    """Step function stub: walks through given thetas (or stays put)."""

    def step(state):
        k = state.step  # 0-based before the step; the step lands on k + 1
        if thetas is not None:
            theta = np.asarray(thetas[min(k + 1, len(thetas) - 1)], dtype=float)
        else:
            theta = state.theta
        new = ChainState(theta, state.momenta, k + 1, None, state.rng)
        info = StepInfo(accept, 0.0, float(k), 0.0)
        return new, info

    return step


class TestSchedule:
    def test_sample_indices(self):
        sched = ChainSchedule(total_steps=100, burn_in=20, gap=10, n_samples=8)
        assert sched.sample_steps == [30, 40, 50, 60, 70, 80, 90, 100]

    def test_overfull_schedule_rejected(self):
        # b + N*c = 98 > 97: the last sample index overruns the budget
        with pytest.raises(ValueError):
            ChainSchedule(total_steps=97, burn_in=48, gap=5, n_samples=10)

    def test_exact_fit_allowed(self):
        sched = ChainSchedule(total_steps=98, burn_in=48, gap=5, n_samples=10)
        assert sched.sample_steps[-1] == 98

    def test_zero_burn_in_full_trajectory(self):
        sched = ChainSchedule(total_steps=5, burn_in=0, gap=1, n_samples=5)
        assert sched.sample_steps == [1, 2, 3, 4, 5]

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            ChainSchedule(10, -1, 1, 1)
        with pytest.raises(ValueError):
            ChainSchedule(10, 0, 0, 1)
        with pytest.raises(ValueError):
            ChainSchedule(10, 0, 1, 0)


class TestRunChain:
    def test_full_trajectory_retention(self):
        # burn_in=0, gap=1, N=total with an always-accept stub
        path = [np.array([float(i), -float(i)]) for i in range(11)]
        sched = ChainSchedule(10, 0, 1, 10)
        state0 = ChainState.init(path[0], 0)
        summary, record = run_chain(make_stub_step(path), state0, sched)
        assert summary.n_samples == 10
        for i, step in enumerate(range(1, 11)):
            np.testing.assert_array_equal(summary.samples[i], path[step])
        assert record.acceptance_rate == 1.0

    def test_constant_sampler_zero_spread(self):
        theta_star = np.array([1.0, 2.0, 3.0])
        sched = ChainSchedule(50, 10, 5, 8)
        state0 = ChainState.init(theta_star, 0)
        summary, _ = run_chain(make_stub_step(), state0, sched)
        assert np.all(summary.samples == theta_star)
        assert np.ptp(summary.samples, axis=0).max() == 0.0

    def test_acceptance_rate_in_unit_interval(self):
        sched = ChainSchedule(20, 0, 1, 20)
        state0 = ChainState.init(np.zeros(2), 0)
        _, record = run_chain(make_stub_step(accept=False), state0, sched)
        assert record.acceptance_rate == 0.0
        assert 0.0 <= record.acceptance_rate <= 1.0

    def test_record_lengths_match_budget(self):
        sched = ChainSchedule(33, 3, 10, 3)
        state0 = ChainState.init(np.zeros(1), 0)
        _, record = run_chain(make_stub_step(), state0, sched)
        assert record.step.size == 33
        assert record.step[0] == 1 and record.step[-1] == 33

    def test_theta_norm_equals_numpy_norm(self):
        rng = np.random.default_rng(3)
        path = [rng.standard_normal(7) * 10.0 ** rng.uniform(-100, 100) for _ in range(201)]
        state0 = ChainState.init(path[0], 0)
        _, record = run_chain(make_stub_step(path), state0, ChainSchedule(200, 0, 1, 200))
        np.testing.assert_array_equal(record.theta_norm, [np.linalg.norm(p) for p in path[1:]])

    def test_record_stores_only_what_it_measures(self):
        # steps are derived, timings are float32: 8 * 4 + 1 + 4 bytes a step
        n = 100
        state0 = ChainState.init(np.zeros(2), 0)
        _, record = run_chain(make_stub_step(), state0, ChainSchedule(n, 0, 10, 10))
        assert "step" not in vars(record)
        assert record.step_seconds.dtype == np.float32
        arrays = [v for v in vars(record).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 37 * n

    def test_non_finite_position_aborts_at_first_bad_step(self):
        path = [np.zeros(2), np.ones(2), np.array([np.inf, 0.0]), np.array([np.nan, 0.0])]
        state0 = ChainState.init(path[0], 0)
        with pytest.raises(NumericalAbort, match="step 2"):
            run_chain(make_stub_step(path), state0, ChainSchedule(5, 0, 1, 1))


class TestRecordCsv:
    def test_roundtrip(self, tmp_path):
        record = ChainRecord(
            loss=np.array([0.5, 0.25, 1.0 / 3.0]),
            log_alpha=np.array([0.0, -np.inf, -1.2345678901234e-5]),
            accepted=np.array([True, False, True]),
            theta_norm=np.array([1.0, 1.0, 2.0]),
            u_norm=np.array([0.1, 0.2, 0.3]),
        )
        path = tmp_path / "record.csv"
        record.to_csv(path)
        back = ChainRecord.from_csv(path)
        np.testing.assert_array_equal(back.step, record.step)
        np.testing.assert_array_equal(back.loss, record.loss)
        np.testing.assert_array_equal(back.log_alpha, record.log_alpha)
        np.testing.assert_array_equal(back.accepted, record.accepted)

    def test_fixed_header(self, tmp_path):
        record = ChainRecord(
            loss=np.array([0.0]),
            log_alpha=np.array([0.0]),
            accepted=np.array([True]),
            theta_norm=np.array([0.0]),
            u_norm=np.array([0.0]),
        )
        path = tmp_path / "r.csv"
        record.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "step,loss,log_alpha,accepted,theta_norm,u_norm"

    @pytest.mark.parametrize("steps", [(1, 3), (0, 1), (2, 1)])
    def test_steps_must_run_from_one_to_n(self, tmp_path, steps):
        path = tmp_path / "r.csv"
        rows = "".join(f"{k},0.5,0.0,1,1.0,0.1\n" for k in steps)
        path.write_text("step,loss,log_alpha,accepted,theta_norm,u_norm\n" + rows)
        with pytest.raises(ValueError, match="1..n"):
            ChainRecord.from_csv(path)

    @pytest.mark.parametrize("row", ["2,0.5,0.0", "2,0.5,0.0,1,1.0,0.1,7"])
    def test_rows_of_the_wrong_length_rejected(self, tmp_path, row):
        path = tmp_path / "r.csv"
        header = "step,loss,log_alpha,accepted,theta_norm,u_norm\n"
        path.write_text(header + "1,0.5,0.0,1,1.0,0.1\n" + row + "\n")
        with pytest.raises(ValueError, match="line 3: expected 6 fields"):
            ChainRecord.from_csv(path)

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="unexpected record header"):
            ChainRecord.from_csv(path)

    def test_header_only_gives_empty_record(self, tmp_path):
        path = tmp_path / "r.csv"
        empty = np.array([])
        ChainRecord(empty, empty, empty.astype(bool), empty, empty).to_csv(path)
        back = ChainRecord.from_csv(path)
        for name in ("loss", "log_alpha", "accepted", "theta_norm", "u_norm"):
            assert getattr(back, name).shape == (0,)
        assert back.accepted.dtype == bool and back.acceptance_rate == 0.0


SPECIAL_FLOATS = [-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7976931348623157e308, 0.1 + 0.2]


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestCsvCellText:
    """Every float cell is repr(float(v)), which reads back bit for bit."""

    def test_record(self, tmp_path):
        values = np.array(SPECIAL_FLOATS)
        record = ChainRecord(
            loss=values,
            log_alpha=values[::-1].copy(),
            accepted=np.arange(values.size) % 2 == 0,
            theta_norm=np.roll(values, 1),
            u_norm=np.roll(values, 2),
        )
        path = tmp_path / "record.csv"
        record.to_csv(path)
        rows = path.read_text().splitlines()[1:]
        columns = [record.loss, record.log_alpha, record.theta_norm, record.u_norm]
        for i, row in enumerate(rows):
            cells = row.split(",")
            assert cells[0] == str(i + 1) and cells[3] == str(int(record.accepted[i]))
            assert [cells[1], cells[2], cells[4], cells[5]] == [repr(float(c[i])) for c in columns]
        back = ChainRecord.from_csv(path)
        for name in ("loss", "log_alpha", "theta_norm", "u_norm"):
            assert same_bits(getattr(back, name), getattr(record, name)), name
        np.testing.assert_array_equal(back.accepted, record.accepted)

    def test_samples(self, tmp_path):
        samples = np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]])
        path = tmp_path / "samples.csv"
        save_samples_csv(path, samples)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows == [[repr(float(v)) for v in row] for row in samples]
        assert same_bits(load_samples_csv(path), samples)


class TestEnsemblePredict:
    def test_identical_samples_zero_spread(self):
        net = MicroMlp((2, 4, 2))
        theta = net.init_params(np.random.default_rng(0))
        samples = np.tile(theta, (6, 1))
        x = np.random.default_rng(1).standard_normal((10, 2))
        mean_probs, spread = ensemble_predict(samples, net, x)
        np.testing.assert_allclose(spread, 0.0, atol=1e-15)
        np.testing.assert_allclose(mean_probs.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_quantile_arithmetic(self):
        # class-1 probs {0.1, 0.2, 0.3, 0.4}: mean 0.25, q75 - q25 = 0.15

        class FixedNet:
            def forward(self, theta, inputs):
                p = float(theta[0])
                return np.array([[1.0 - p, p]])

        samples = np.array([[0.1], [0.2], [0.3], [0.4]])
        mean_probs, spread = ensemble_predict(samples, FixedNet(), np.zeros((1, 2)))
        assert mean_probs[0, 1] == pytest.approx(0.25, rel=1e-15)
        assert spread[0] == pytest.approx(0.15, rel=1e-12)

    def test_single_sample_spread_flagged(self):
        net = MicroMlp((2, 4, 2))
        theta = net.init_params(np.random.default_rng(2))
        mean_probs, spread = ensemble_predict(theta[None, :], net, np.zeros((3, 2)))
        assert spread is None
        assert mean_probs.shape == (3, 2)

    def test_mean_equals_member_average(self):
        net = MicroMlp((2, 4, 2))
        rng = np.random.default_rng(5)
        samples = np.stack([net.init_params(rng) for _ in range(5)])
        x = rng.standard_normal((7, 2))
        mean_probs, _ = ensemble_predict(samples, net, x)
        manual = np.mean([net.forward(t, x) for t in samples], axis=0)
        np.testing.assert_allclose(mean_probs, manual, atol=1e-12)


class TestSamplesCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = rng.standard_normal((4, 6))
        path = tmp_path / "samples.csv"
        save_samples_csv(path, samples)
        np.testing.assert_array_equal(load_samples_csv(path), samples)
