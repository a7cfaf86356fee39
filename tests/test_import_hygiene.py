"""No module of the package imports scipy; the sampler's import, run, scan
(on every analytic target) and compare-mh paths load numpy only, criteria
5 and 7 compute with scipy's import blocked, and a serial scan never loads
the process pool."""

import ast
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


NO_SCIPY_PROGRAM = textwrap.dedent(
    """
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")

    sys.meta_path.insert(0, NoScipy())
    try:
        import scipy
    except ImportError:
        pass
    else:
        sys.exit("the scipy blocker did not block")

    import numpy as np
    from adammcmc import verify
    from adammcmc.diagnostics import grid_masses, tv_trace
    from adammcmc.losses import quadratic_target

    grid = grid_masses(quadratic_target(1), bounds=(-4.0, 4.0), resolution=16)
    samples = np.random.default_rng(0).standard_normal(200)
    rows = tv_trace(samples, grid, [100, 200])
    assert [k for k, _ in rows] == [100, 200] and all(0 < tv < 1 for _, tv in rows), rows
    rho = verify._rank_correlation([0.0, 10.0, 100.0], [0.1, 0.3, 0.2])
    assert abs(rho - 0.5) < 1e-12, rho
    """
)


def run_program(program, cwd):
    """Run program in a fresh interpreter that imports this source tree."""
    src = str(Path(adammcmc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", program], capture_output=True, text=True, env=env,
        cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def loaded_modules(tmp_path_factory):
    """Every module the program above leaves in sys.modules."""
    stdout = run_program(PROGRAM, tmp_path_factory.mktemp("hygiene"))
    return json.loads(stdout.strip().splitlines()[-1])


def test_no_package_module_imports_scipy():
    found = []
    for path in sorted(Path(adammcmc.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_grid_tv_and_rank_correlation_run_without_scipy(tmp_path):
    run_program(NO_SCIPY_PROGRAM, tmp_path)


def test_sampler_paths_never_import_scipy(loaded_modules):
    assert [m for m in loaded_modules if m == "scipy" or m.startswith("scipy.")] == []


def test_serial_scan_never_imports_the_process_pool(loaded_modules):
    # scan_acceptance imports ProcessPoolExecutor only for jobs > 1
    pool = ("concurrent.futures.process", "multiprocessing")
    assert [m for m in loaded_modules if m in pool] == []
