"""The benchmark in bench/ still runs against this source tree.

bench/tracing.py replaces package functions and methods by name, so a
renamed method or one turned into a property breaks the traced run without
failing any other test.  Each case runs bench/run.py for one second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]


def run_bench(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_untraced_first_digest():
    lines = run_bench("quadratic_p2", 0)
    chains = [json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("chain ")]
    # the first chain of seed 1; bench/workloads.py digests record.csv + samples.csv
    # (recorded again when the adam drift's proposal ratio became closed form)
    assert chains[0]["digest"] == "b1d85b7d086c3e7b"
    assert json.loads(lines[-1])["correct"] is True


@pytest.mark.parametrize("workload", ["quadratic_p2", "scan_noisy_p16"])
def test_traced_run_is_correct(workload):
    result = json.loads(run_bench(workload, 1)[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
