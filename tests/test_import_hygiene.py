"""The sampler's import, run, scan (on every analytic target) and
compare-mh paths load numpy only, never scipy, and a serial scan never
loads the process pool."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import adammcmc

PROGRAM = textwrap.dedent(
    """
    import json, sys, tempfile
    from pathlib import Path

    import adammcmc, adammcmc.chain, adammcmc.cli, adammcmc.diagnostics
    import adammcmc.experiments, adammcmc.verify
    from adammcmc.config import RunConfig

    tmp = Path(tempfile.mkdtemp())
    config = {"target": "quadratic", "dim": 2, "sampler": "adammcmc", "sigma": 0.3,
              "sigma_dir": 10.0, "gamma": 0.01, "steps": 200, "burn_in": 100,
              "gap": 10, "n_samples": 10, "seed": 0}
    (tmp / "config.json").write_text(json.dumps(config))
    code = adammcmc.cli.main(["run", "--config", str(tmp / "config.json"),
                              "--out", str(tmp / "out")])
    assert code == 0, code
    scan_config = RunConfig(target="noisy_quadratic", dim=4, sigma=0.3, sigma_dir=2.0,
                            gamma=0.01, batch_size=32, steps=200, burn_in=100, gap=10,
                            n_samples=10, seed=0)
    rows = adammcmc.diagnostics.scan_acceptance(scan_config, "sigma", [0.3],
                                                n_replicates=1, jobs=1)
    assert [row.metric_name for row in rows] == ["variance_error"] * 2
    banana_config = RunConfig(target="banana", dim=2, sigma=0.3, sigma_dir=1.0, gamma=0.01,
                              steps=200, burn_in=100, gap=10, n_samples=10, seed=0)
    rows = adammcmc.diagnostics.scan_acceptance(banana_config, "lambda", [1.0],
                                                n_replicates=0, jobs=1)
    assert rows[0].metric_name == "variance_error", rows
    adammcmc.diagnostics.compare_full_vs_stochastic_mh(scan_config, batch_size=32)
    print(json.dumps(sorted(sys.modules)))
    """
)


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """Every module the program above leaves in sys.modules."""
    src = str(Path(adammcmc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM], capture_output=True, text=True, env=env,
        cwd=tmp_path_factory.mktemp("hygiene"), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_sampler_paths_never_import_scipy(loaded_modules):
    assert [m for m in loaded_modules if m == "scipy" or m.startswith("scipy.")] == []


def test_serial_scan_never_imports_the_process_pool(loaded_modules):
    # scan_acceptance imports ProcessPoolExecutor only for jobs > 1
    pool = ("concurrent.futures.process", "multiprocessing")
    assert [m for m in loaded_modules if m in pool] == []
