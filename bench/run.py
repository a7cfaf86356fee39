"""adammcmc benchmark: chain throughput, ESS/s and per-layer cost.

Run from the repository root:

    python3 bench/run.py --workload quadratic_p2 --seed 1 --seconds 30 --trace 0

Workloads: quadratic_p2, mlp_p354, scan_noisy_p16 (see workloads.py).  The
package is imported from ./src.  Informational lines (environment, one per
chain or scan, and a report with the workload-specific metrics: ess_per_s,
step_us_p50/p99 with their sample count, failed_frac) precede the result,
which is the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures chain_steps_per_s, wall_s, setup_s and peak_rss_mb;
--trace 1 wraps the package's layers and reports per-layer metrics instead.
Outputs go to .bench_out/.  The process pins BLAS to one thread.  Its child
processes are the scan's two pool workers and, after an untraced workload,
IMPORT_REPEATS short-lived interpreters that time the package import again.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("quadratic_p2", "mlp_p354", "scan_noisy_p16")
IMPORT_REPEATS = 4  # fresh-interpreter imports added to the in-process one


def parse_args(argv=None):
    def non_negative(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
        return value

    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=positive)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> float:
    """Import the package from ./src and return the seconds it took."""
    if not (SRC / "adammcmc" / "__init__.py").is_file():
        sys.exit(f"error: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import adammcmc.chain  # noqa: F401
    import adammcmc.diagnostics  # noqa: F401
    import adammcmc.experiments  # noqa: F401

    elapsed = time.perf_counter() - t0
    if Path(adammcmc.__file__).resolve().parent != SRC / "adammcmc":
        sys.exit(f"error: imported adammcmc from {adammcmc.__file__}, not from {SRC}")
    return elapsed


def fresh_import_seconds() -> float:
    """Time the same import in a new interpreter (an import cannot be
    repeated within one process)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
        "import adammcmc.chain, adammcmc.diagnostics, adammcmc.experiments; "
        "print(time.perf_counter() - t0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout.strip())


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment(jobs: int) -> dict:
    import platform

    import numpy as np
    import scipy

    cpu_model, l3 = platform.processor() or "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "jobs": jobs,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    import workloads as wl

    out_root = OUT_ROOT / args.workload
    out_root.mkdir(parents=True, exist_ok=True)
    jobs = wl.SCAN_JOBS if args.workload == "scan_noisy_p16" else 1
    print("env " + json.dumps(environment(jobs)))

    spec = wl.SINGLE_CHAIN.get(args.workload)
    if args.trace:
        if spec is not None:
            outcome = wl.single_chain_traced(spec, args.seed, args.seconds, out_root)
        else:
            outcome = wl.scan_traced(args.seed, args.seconds, out_root)
    else:
        if spec is not None:
            outcome, setup_s = wl.single_chain_untraced(spec, args.seed, args.seconds, out_root)
        else:
            outcome, setup_s = wl.scan_untraced(args.seed, args.seconds, out_root)
        if setup_s is not None:
            outcome.metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
            imports = [import_s] + [fresh_import_seconds() for _ in range(IMPORT_REPEATS)]
            outcome.report["import_s"] = imports
            outcome.metrics["setup_s"] = {
                "value": statistics.median(imports) + setup_s, "unit": "s"
            }

    for tag, payload in outcome.lines:
        print(f"{tag} " + json.dumps(payload))
    failed_frac = outcome.failed / outcome.attempted
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failed_frac": {"value": failed_frac, "unit": "frac"}, **outcome.report}
    print("report " + json.dumps(report))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
