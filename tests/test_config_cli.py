"""Config round-trips, CLI exit codes, output files and determinism."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adammcmc.chain import ChainRecord, load_samples_csv, run_chain
from adammcmc.cli import main
from adammcmc.config import CORRECTIONS, SAMPLERS, TARGETS, ConfigError, RunConfig
from adammcmc.experiments import (
    build_experiment,
    correction_params,
    ensemble_test_accuracy,
    initial_state,
    make_step_fn,
    run_experiment,
    start_chain,
)
from adammcmc.losses import BatchStream
from adammcmc.mlp import save_dataset_csv, two_moons

FAST_RUN = dict(
    target="quadratic",
    dim=2,
    sampler="adammcmc",
    sigma=0.5,
    sigma_dir=1.0,
    gamma=0.05,
    beta1=0.9,
    beta2=0.9,
    steps=300,
    burn_in=100,
    gap=20,
    n_samples=10,
    seed=3,
)


def write_config(tmp_path, **overrides) -> Path:
    merged = {**FAST_RUN, **overrides}
    path = tmp_path / "config.json"
    path.write_text(RunConfig(**merged).to_json())
    return path


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False) | st.integers(1, 10**6)
NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def valid_configs(draw):
    """Any config that validate accepts, with ints mixed into float fields."""
    burn_in = draw(st.integers(0, 10**4))
    gap = draw(st.integers(1, 10**3))
    n_samples = draw(st.integers(1, 100))
    rho1, rho2 = draw(st.none() | st.tuples(POSITIVE, POSITIVE)) or (None, None)
    return RunConfig(
        target=draw(st.sampled_from(TARGETS)),
        dim=draw(st.integers(2, 10**4)),
        dataset=draw(st.text()),
        sampler=draw(st.sampled_from(SAMPLERS)),
        lam=draw(POSITIVE),
        gamma=draw(POSITIVE),
        sigma=draw(POSITIVE),
        sigma_dir=draw(st.none() | NON_NEGATIVE),
        beta1=draw(UNIT),
        beta2=draw(UNIT),
        delta=draw(POSITIVE),
        prior_half_width=draw(POSITIVE),
        steps=burn_in + n_samples * gap + draw(st.integers(0, 10**3)),
        burn_in=burn_in,
        gap=gap,
        n_samples=n_samples,
        batch_size=draw(st.integers(0, 10**4)),
        correction=draw(st.sampled_from(CORRECTIONS)),
        s_sq=draw(POSITIVE),
        rho1=rho1,
        rho2=rho2,
        friction=draw(st.floats(0.0, 1.0)),
        noise_scale=draw(NON_NEGATIVE),
        seed=draw(st.integers(0, 2**64)),
        out_dir=draw(st.text()),
    ).validate()


class TestRunConfig:
    def test_roundtrip_identical(self):
        cfg = RunConfig(**FAST_RUN)
        text = cfg.to_json()
        again = RunConfig.from_json(text)
        assert again == cfg
        assert again.to_json() == text

    def test_every_field_has_default(self):
        cfg = RunConfig()
        assert cfg.validate() is cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="bogus_key"):
            RunConfig.from_json(json.dumps({"bogus_key": 1}))

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig(sigma=0.0).validate()
        with pytest.raises(ConfigError, match="lam"):
            RunConfig(lam=-1.0).validate()
        with pytest.raises(ConfigError, match="correction"):
            RunConfig(correction="none").validate()
        with pytest.raises(ConfigError, match="steps"):
            RunConfig(steps=100, burn_in=90, gap=5, n_samples=10).validate()

    def test_hash_stable_and_sensitive(self):
        a = RunConfig(**FAST_RUN)
        b = RunConfig(**FAST_RUN)
        assert a.config_hash() == b.config_hash()
        c = a.replace(sigma=0.6)
        assert c.config_hash() != a.config_hash()

    @settings(max_examples=200)
    @given(cfg=valid_configs())
    def test_json_roundtrip_property(self, cfg):
        again = RunConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    @pytest.mark.parametrize("given_field, unset", [("rho1", "rho2"), ("rho2", "rho1")])
    def test_half_set_rho_names_unset_field(self, given_field, unset):
        with pytest.raises(ConfigError, match=f"'{unset}'"):
            RunConfig(correction="full", **{given_field: 0.05}).validate()

    # one bad value per rule of validate (and per from_json error), each
    # paired with the field its ConfigError must name
    BAD_CONFIGS = [
        ("target", {"target": "gaussian"}),
        ("sampler", {"sampler": "hmc"}),
        ("dim", {"dim": 0}),
        ("dim", {"target": "banana", "dim": 1}),
        ("gamma", {"gamma": 0.0}),
        ("sigma_dir", {"sigma_dir": -1.0}),
        ("beta1", {"beta1": 1.0}),
        ("beta2", {"beta2": -0.1}),
        ("delta", {"delta": 0.0}),
        ("prior_half_width", {"prior_half_width": -1.0}),
        ("steps", {"steps": 0}),
        ("burn_in", {"burn_in": -1}),
        ("gap", {"gap": 0}),
        ("n_samples", {"n_samples": 0}),
        ("batch_size", {"batch_size": -1}),
        ("s_sq", {"s_sq": 0.0}),
        ("rho1", {"correction": "full", "rho1": 0.0, "rho2": 0.05}),
        ("rho2", {"correction": "full", "rho1": 0.05, "rho2": -0.05}),
        ("friction", {"friction": 1.5}),
        ("noise_scale", {"noise_scale": -1.0}),
        ("seed", {"seed": -1}),
        ("lam", {"lam": 10**400}),  # an int past the float range
    ]
    BAD_TEXTS = [(field, json.dumps({**FAST_RUN, **bad})) for field, bad in BAD_CONFIGS] + [
        ("<json>", '{"sigma": 0.5,'),
        ("<json>", "[1, 2]"),
    ]

    BAD_IDS = [f"{i}-{field}" for i, (field, _) in enumerate(BAD_TEXTS)]

    @pytest.mark.parametrize("field, text", BAD_TEXTS, ids=BAD_IDS)
    def test_every_rule_names_its_field(self, field, text):
        with pytest.raises(ConfigError, match=f"config field '{field}'"):
            RunConfig.from_json(text)

    def test_sigma_dir_nullable(self):
        cfg = RunConfig(**{**FAST_RUN, "sigma_dir": None})
        text = cfg.to_json()
        assert RunConfig.from_json(text).sigma_dir is None

    def test_correction_params_from_config(self):
        assert correction_params(RunConfig(correction="unit", rho1=0.1, rho2=0.2)) is None
        cp = correction_params(RunConfig(correction="full", s_sq=3e-3))
        assert (cp.s1_sq, cp.s2_sq) == (3e-3, 3e-3)
        cp = correction_params(
            RunConfig(correction="full", s_sq=3e-3, beta1=0.8, beta2=0.95, rho1=0.05, rho2=0.02)
        )
        assert (cp.s1_sq, cp.s2_sq) == (0.05**2 / (1.0 - 0.8**2), 0.02**2 / (1.0 - 0.95**2))


class TestCmdRun:
    def test_outputs_exist_and_exit_zero(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        for name in ("record.csv", "samples.csv", "samples_meta.json", "ensemble.json", "manifest.json"):
            assert (out / name).exists(), name

    def test_manifest_hash_stable_across_reruns(self, tmp_path):
        config_path = write_config(tmp_path)
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["run", "--config", str(config_path), "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1]

    def test_bad_config_exit_2_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = {**FAST_RUN, "sigma": -2.0}
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "sigma" in capsys.readouterr().err

    MISTYPED = {"lam": '"a"', "steps": '"10"', "sigma": "null", "seed": "true", "gamma": "Infinity"}

    @pytest.mark.parametrize("field", MISTYPED)
    def test_mistyped_field_exit_2(self, tmp_path, capsys, field):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"{field}": {self.MISTYPED[field]}}}')
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    RUN_CASES = [
        pytest.param(*case, id=case_id)
        for case, case_id in zip(TestRunConfig.BAD_TEXTS, TestRunConfig.BAD_IDS)
        if case[0] in ("target", "dim", "rho2", "lam", "<json>")
    ]

    @pytest.mark.parametrize("field, text", RUN_CASES)
    def test_rule_violation_exit_2_names_field(self, tmp_path, capsys, field, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_boundary_rejects_counted(self, tmp_path, capsys):
        # a box of half-width 0.5 against proposals of scale 0.5: some leave it
        overrides = dict(FAST_RUN, prior_half_width=0.5)
        experiment = build_experiment(RunConfig(**overrides))
        state0, step_fn = start_chain(experiment, 0)
        outside = 0

        def counting(state):
            nonlocal outside
            state, info = step_fn(state)
            outside += not info.proposal_in_prior
            return state, info

        _, record = run_chain(counting, state0, experiment.schedule)
        assert record.n_boundary_rejects > 0
        assert record.n_boundary_rejects == outside

        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(write_config(tmp_path, **overrides)),
                     "--out", str(out)]) == 0
        assert json.loads((out / "ensemble.json").read_text())["boundary_rejects"] == outside
        assert f", {outside} boundary rejects," in capsys.readouterr().out

    def test_diverging_chain_exit_3(self, tmp_path, capsys):
        path = tmp_path / "sgd.json"
        path.write_text(
            json.dumps(
                {"sampler": "sgd", "gamma": 3.0, "steps": 2000, "burn_in": 1000,
                 "gap": 100, "n_samples": 10}
            )
        )
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 3
        assert "diverged at step" in capsys.readouterr().err
        assert not (out / "record.csv").exists()
        assert not (out / "samples.csv").exists()
        assert not out.exists()

    def test_half_set_rho_exit_2(self, tmp_path, capsys):
        # with rho2 unset the run used to fall back to s_sq for both levels
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({**FAST_RUN, "correction": "full", "rho1": 0.05}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "config field 'rho2'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_key_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**FAST_RUN, "sigmadir": 1.0}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_byte_identical_records_same_seed(self, tmp_path):
        config_path = write_config(tmp_path)
        blobs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            main(["run", "--config", str(config_path), "--out", str(out)])
            blobs.append((out / "record.csv").read_bytes())
            blobs.append((out / "samples.csv").read_bytes())
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]

    def test_seed_override_changes_records(self, tmp_path):
        config_path = write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", str(config_path), "--out", str(out1)])
        main(["run", "--config", str(config_path), "--seed", "99", "--out", str(out2)])
        assert (out1 / "record.csv").read_bytes() != (out2 / "record.csv").read_bytes()

    def test_env_var_rebases_relative_out(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path)
        monkeypatch.setenv("ADAMMCMC_OUT_ROOT", str(tmp_path / "root"))
        assert main(["run", "--config", str(config_path), "--out", "rel"]) == 0
        assert (tmp_path / "root" / "rel" / "record.csv").exists()

    def test_samples_shape_matches_schedule(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(config_path), "--out", str(out)])
        samples = load_samples_csv(out / "samples.csv")
        assert samples.shape == (FAST_RUN["n_samples"], FAST_RUN["dim"])
        record = ChainRecord.from_csv(out / "record.csv")
        assert record.step.size == FAST_RUN["steps"]

    def test_test_accuracy_needs_the_classifier(self):
        result = run_experiment(RunConfig(**FAST_RUN))
        with pytest.raises(ValueError, match="only defined for the classifier"):
            ensemble_test_accuracy(result)

    @pytest.mark.parametrize("sampler", ["mala", "adam", "sgd", "sghmc"])
    def test_all_samplers_run(self, tmp_path, sampler):
        config_path = write_config(tmp_path, sampler=sampler)
        out = tmp_path / f"out_{sampler}"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0


class TestCmdScan:
    def test_scan_outputs(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "scan"
        code = main(
            [
                "scan",
                "--config",
                str(config_path),
                "--param",
                "sigma",
                "--grid",
                "0.3,0.6",
                "--replicates",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + grid x seeds
        long_lines = (out / "scan_long.csv").read_text().splitlines()
        assert len(long_lines) == 1 + 2 * 2 * 2

    def test_scan_matches_library_call(self, tmp_path):
        from adammcmc.diagnostics import scan_acceptance

        config_path = write_config(tmp_path)
        out = tmp_path / "scan"
        main(
            [
                "scan",
                "--config",
                str(config_path),
                "--param",
                "sigma",
                "--grid",
                "0.5",
                "--replicates",
                "0",
                "--out",
                str(out),
            ]
        )
        rows = scan_acceptance(RunConfig(**FAST_RUN), "sigma", [0.5], n_replicates=0)
        text = (out / "scan.csv").read_text()
        assert repr(rows[0].mean_acceptance) in text

    def test_unknown_param_exit_2(self, tmp_path):
        config_path = write_config(tmp_path)
        assert (
            main(
                [
                    "scan",
                    "--config",
                    str(config_path),
                    "--param",
                    "delta",
                    "--grid",
                    "1,2",
                    "--out",
                    str(tmp_path / "s"),
                ]
            )
            == 2
        )

    def test_empty_grid_exit_2(self, tmp_path):
        config_path = write_config(tmp_path)
        assert (
            main(
                [
                    "scan",
                    "--config",
                    str(config_path),
                    "--param",
                    "sigma",
                    "--grid",
                    "",
                    "--out",
                    str(tmp_path / "s"),
                ]
            )
            == 2
        )


    @pytest.mark.parametrize(
        "extra, field",
        [
            (["--grid", "-1", "--jobs", "2"], "sigma"),
            (["--grid", "0.5", "--replicates", "-1"], "replicates"),
            (["--grid", "0.5", "--jobs", "0"], "jobs"),
            (["--grid", "0.1,abc"], "grid"),
        ],
    )
    def test_bad_scan_argument_exit_2_without_pool(self, tmp_path, capsys, monkeypatch, extra, field):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a pool started")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
        config_path = write_config(tmp_path)
        out = tmp_path / "s"
        argv = ["scan", "--config", str(config_path), "--param", "sigma", "--out", str(out)]
        assert main(argv + extra) == 2
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()


class TestDatasetCsv:
    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n0.1,0.2,1\n",  # wrong header
            "x1,x2,label\n0.1,0.2,1\n0.3,0.4\n",  # short row
            "x1,x2,label\n0.1,0.2,1\n0.3,abc,0\n",  # non-numeric row
            "x1,x2,label\n0.1,0.2,1\n0.3,0.4,5\n",  # label past the two classes
            "x1,x2,label\n0.1,0.2,1\n0.3,0.4,-1\n",  # negative label
            "x1,x2,label\n",  # no rows
            "x1,x2,label\n0.1,0.2,1\nnan,0.4,0\n",  # NaN input
            "x1,x2,label\n0.1,0.2,1\n0.3,inf,0\n",  # infinite input
            "x1,x2,label\n0.1,0.2,1\n1e400,0.4,0\n",  # input past the float range
        ],
    )
    def test_malformed_dataset_exit_2(self, tmp_path, capsys, text):
        data = tmp_path / "data.csv"
        data.write_text(text)
        config_path = write_config(
            tmp_path, target="mlp", dataset=str(data), steps=20, burn_in=10, gap=1,
            n_samples=10,
        )
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        assert "'dataset'" in capsys.readouterr().err


    def test_valid_dataset_runs(self, tmp_path):
        inputs, labels, _, _ = two_moons()
        data = tmp_path / "data.csv"
        save_dataset_csv(data, inputs[:200], labels[:200])
        config_path = write_config(
            tmp_path, target="mlp", dataset=str(data), sigma=0.01, sigma_dir=20.0,
            gamma=0.001, steps=40, burn_in=20, gap=2, n_samples=10,
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        accuracy = json.loads((out / "ensemble.json").read_text())["test_accuracy"]
        assert 0.0 <= accuracy <= 1.0


class TestCmdCompareMh:
    def test_outputs(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "cmp"
        code = main(
            [
                "compare-mh",
                "--config",
                str(config_path),
                "--batch-size",
                "10",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "record_full.csv").exists()
        assert (out / "record_stochastic.csv").exists()
        summary = json.loads((out / "comparison.json").read_text())
        assert "full_acceptance" in summary

    def test_needs_batch_size(self, tmp_path):
        config_path = write_config(tmp_path)
        assert (
            main(["compare-mh", "--config", str(config_path), "--out", str(tmp_path / "c")])
            == 2
        )

    @pytest.mark.parametrize("batch_size", ["100", "5000"])
    def test_batch_covering_data_exit_2(self, tmp_path, capsys, batch_size):
        # the quadratic target has 100 data points: such a "minibatch" would
        # make the stochastic chain a second full-batch chain
        config_path = write_config(tmp_path)
        out = tmp_path / "cmp"
        argv = ["compare-mh", "--config", str(config_path), "--batch-size", batch_size]
        assert main(argv + ["--out", str(out)]) == 2
        assert "'batch_size'" in capsys.readouterr().err
        assert not out.exists()

    def test_single_compare_step_exit_2(self, tmp_path, capsys):
        # one step after burn-in leaves no loss variance: comparison.json
        # would hold NaN, which is not JSON
        config_path = write_config(
            tmp_path, target="noisy_quadratic", dim=2, steps=12, burn_in=11, gap=1,
            n_samples=1,
        )
        out = tmp_path / "cmp"
        argv = ["compare-mh", "--config", str(config_path), "--batch-size", "32"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "config field 'steps'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["out_is_file", "out_under_file"])
    def test_bad_out_exit_2_before_chains(self, tmp_path, capsys, monkeypatch, case):
        from adammcmc import cli

        def no_chains(*args):
            raise AssertionError("chains ran before --out was checked")

        monkeypatch.setattr(cli, "compare_full_vs_stochastic_mh", no_chains)
        config_path = write_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = blocker if case == "out_is_file" else blocker / "a" / "b"
        argv = ["compare-mh", "--config", str(config_path), "--batch-size", "10"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "'out'" in capsys.readouterr().err


class TestBadPaths:
    """A path that cannot be read or written exits 2 naming its argument."""

    EXTRA = {
        "run": [],
        "scan": ["--param", "sigma", "--grid", "0.01", "--replicates", "1", "--jobs", "2"],
        "compare-mh": ["--batch-size", "10"],
    }
    CASES = [
        (command, case)
        for command in ("run", "scan", "compare-mh")
        for case in ("config_is_dir", "config_not_utf8", "out_is_file", "dataset_is_dir")
    ] + [("verify", "out_is_file")]

    @pytest.mark.parametrize("command, case", CASES)
    def test_exit_2_names_argument(self, tmp_path, capsys, monkeypatch, command, case):
        from adammcmc import verify

        def no_criteria(**kwargs):
            raise AssertionError("criteria ran before --out was checked")

        monkeypatch.setattr(verify, "run_verification", no_criteria)
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        field = "config"
        if case == "config_is_dir":
            config_path = tmp_path
        elif case == "config_not_utf8":
            config_path.write_bytes(b'{"target": "quadr\xe4tic"}')
        elif case == "out_is_file":
            out.write_text("not a directory")
            field = "out"
        else:
            config_path = write_config(
                tmp_path, target="mlp", dataset=str(tmp_path), steps=20, burn_in=10,
                gap=1, n_samples=10,
            )
            field = "dataset"
        if command == "verify":
            argv = ["verify", "--quick", "--out", str(out)]
        else:
            argv = [command, "--config", str(config_path), "--out", str(out)]
        assert main(argv + self.EXTRA.get(command, [])) == 2
        assert f"'{field}'" in capsys.readouterr().err
        if case != "out_is_file":  # every command creates its directory only after its work
            assert not out.exists()


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        config_path = write_config(tmp_path)
        out = tmp_path / "out"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "adammcmc.cli",
                "run",
                "--config",
                str(config_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "run complete" in proc.stdout


class TestGoldenOutputs:
    """Pinned digests of record.csv + samples.csv, and of the summary files
    ensemble.json + samples_meta.json.

    Reruns on one commit giving the same bytes is criterion 10; these digests
    also pin the bytes across commits, so a change that alters sampler output
    must update them and say so.  The adam-drift digests were recorded again
    when that drift's proposal ratio became closed form, which moved the
    log_alpha column and no other byte.  Recorded with numpy 2.4.6 and
    scipy-openblas 0.3.31 on x86-64; another BLAS may round the MLP's
    matrix products differently.
    """

    MLP = dict(target="mlp", sampler="adammcmc", lam=1.0, gamma=0.001, sigma=0.01,
               sigma_dir=20.0, beta1=0.99, beta2=0.99, steps=200, burn_in=100,
               gap=10, n_samples=10, seed=0)
    CONFIGS = {
        # the README quadratic config cut to 300 steps
        "quadratic": (
            dict(target="quadratic", dim=2, sampler="adammcmc", lam=1.0, gamma=0.01,
                 sigma=0.3, sigma_dir=10.0, beta1=0.99, beta2=0.99, steps=300,
                 burn_in=100, gap=20, n_samples=10, seed=0),
            "323fb71c50e9368d032641127b0bb98948e54d7939ed94f9ef649008008a1c46",
        ),
        "mlp": (
            MLP,
            "c01df1658eeb4074a51e4db0ccdf258791308135ce553145d036ec1c74149fc6",
        ),
        # the classifier's minibatch, two-gradient (MALA) and optimizer-tail
        # paths, recorded before the oracle handed out loss and gradient
        # together (the adam-drift minibatch one again for the closed-form ratio)
        "mlp_minibatch": (
            dict(MLP, batch_size=200),
            "7649dced936c9e7f724c3ed0f961ef0daaaaa8d8463a3f04d439b5ed787e83c5",
        ),
        "mlp_mala": (
            dict(MLP, sampler="mala"),
            "4f153a08cf0820d4eb8b92059e1ad896516aab810105fceacfb33a7464a92faa",
        ),
        "mlp_sgd": (
            dict(MLP, sampler="sgd"),
            "6f371984227bb537581f3056b907d3c916f853cd5bed469a5d6bcfe8387d38f8",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_digest(self, tmp_path, name):
        config, digest = self.CONFIGS[name]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        blob = (out / "record.csv").read_bytes() + (out / "samples.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    # ensemble.json + samples_meta.json of each config above: the summary
    # statistics (theta_mean, theta_iqr, acceptance, test accuracy and
    # spread) and the sample metadata, the same at one and two BLAS threads
    SUMMARY_DIGESTS = {
        "quadratic": "02439a094bd697860000fda70b3f8392f008b9c826254b99a48fa74edad91906",
        "mlp": "0aaae5b19284ce68c4177419977112e6e09470217399631b44fae67e7f04c4f6",
        "mlp_minibatch": "2ac98cb6730852df1f06d1aa41467c3094312f454ec4fff59cd42aacbe6a547d",
        "mlp_mala": "dc51ee65a2c3649ea569cd913ff91c215f800310cd4557faec3b65f90da50665",
        "mlp_sgd": "c0b0c918c935cd20b28d10e2c45da830104473c830f0051df068f0d3a124077a",
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_summary_digest(self, tmp_path, name):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIGS[name][0]))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        blob = (out / "ensemble.json").read_bytes() + (out / "samples_meta.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.SUMMARY_DIGESTS[name]


class TestInitialLoss:
    """initial_state hands its evaluation of theta0 to the chain."""

    MINIBATCH = (
        dict(target="noisy_quadratic", dim=4, sampler="adammcmc", lam=1.0, gamma=0.01,
             sigma=0.3, sigma_dir=2.0, beta1=0.9, beta2=0.9, batch_size=32, steps=300,
             burn_in=100, gap=20, n_samples=10, seed=0),
        # minibatch steps never read the cached full-batch loss, so keeping
        # initial_state's loss moved no byte; recorded again for the
        # closed-form proposal ratio, which moved log_alpha only
        "fa6e5f74b1f56b47b40326ffc748ed2ed8f7788ace7d43c4413ec9a887d17280",
    )

    @pytest.mark.parametrize("target", ["quadratic", "mlp"])
    def test_full_batch_chain_evaluates_once_per_step(self, target):
        overrides = dict(FAST_RUN, target=target, steps=50, burn_in=10, gap=4, n_samples=10)
        if target == "mlp":
            overrides.update(sigma=0.01, sigma_dir=20.0, gamma=0.001)
        experiment = build_experiment(RunConfig(**overrides))
        oracle = experiment.target.oracle
        calls = []
        evaluate = oracle.evaluate

        def counting(theta, indices):
            calls.append(indices)
            return evaluate(theta, indices)

        oracle.evaluate = counting
        chain_rng, batch_rng, init_rng = map(
            np.random.default_rng, np.random.SeedSequence(0).spawn(3)
        )
        state0 = initial_state(experiment, init_rng, chain_rng)
        assert len(calls) == 1
        calls.clear()
        step_fn = make_step_fn(experiment, BatchStream(oracle.n_points, 0, batch_rng))
        run_chain(step_fn, state0, experiment.schedule)
        assert calls == [None] * experiment.schedule.total_steps

    def test_minibatch_outputs_unchanged(self, tmp_path):
        config, digest = self.MINIBATCH
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        blob = (out / "record.csv").read_bytes() + (out / "samples.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestGoldenRewrittenPaths:
    """Pinned digests of ensemble.json for TestGoldenOutputs' mlp config, and
    of compare-mh's comparison.json + record_full.csv + record_stochastic.csv
    for TestInitialLoss' minibatch config; the platform note of
    TestGoldenOutputs applies."""

    def run_digest(self, tmp_path, argv, config, names):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 0
        blob = b"".join((out / name).read_bytes() for name in names)
        return hashlib.sha256(blob).hexdigest()

    def test_ensemble_json(self, tmp_path):
        config, _ = TestGoldenOutputs.CONFIGS["mlp"]
        digest = self.run_digest(tmp_path, ["run"], config, ["ensemble.json"])
        assert digest == "b41d12ccc43f986ea68455f8c79d69d3e2dbd7d3a0d527cef2da84aaa6b3e3d1"

    def test_compare_mh(self, tmp_path):
        config, _ = TestInitialLoss.MINIBATCH
        names = ["comparison.json", "record_full.csv", "record_stochastic.csv"]
        digest = self.run_digest(tmp_path, ["compare-mh"], config, names)
        assert digest == "c7563af9a2c96f7ec0bc3b1eef8b5bb4bd154414ab0bf12afb26e0c4539402ec"


class TestGoldenStepPaths:
    """Pinned digests of record.csv + samples.csv for the optimizer baselines
    and the full momentum correction on TestGoldenOutputs' quadratic config,
    recorded before those steps shared their code paths (full_correction again
    for the closed-form proposal ratio); the platform note of TestGoldenOutputs
    applies."""

    DIGESTS = {
        "adam": "aa6efbbbb6ca54ffc44f022d677e2c22b98ff455ff32964d10ff269c30167f29",
        "sgd": "5e3d7fec54b517e01831037a649a8ac22bf179353729653a321834b9cd2dc739",
        "sghmc": "e38dfc36cbe2147678a48ec6c5572ecae3d735feaf95686d9c4d400ff9a82bfc",
        "full_correction": "9bfb3107d40109a66f789789a4df749dc6b0d0461886800a44ee4c7169a28037",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_digest(self, tmp_path, name):
        config, _ = TestGoldenOutputs.CONFIGS["quadratic"]
        if name == "full_correction":
            config = dict(config, correction="full", s_sq=1e-2)
        else:
            config = dict(config, sampler=name)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        blob = (out / "record.csv").read_bytes() + (out / "samples.csv").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.DIGESTS[name]
