"""Command-line front end: run chains, scan hyperparameters, compare the
full and stochastic accept tests, and run the verification suite.

Exit codes: 0 success, 1 failed verification, 2 bad configuration or
arguments, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .chain import save_samples_csv
from .config import ConfigError, RunConfig
from .diagnostics import (
    SCAN_PARAMS,
    compare_full_vs_stochastic_mh,
    scan_acceptance,
    scan_rows_to_csv,
    scan_rows_to_long_csv,
)
from .experiments import NumericalAbort, ensemble_test_accuracy, run_experiment

OUT_ROOT_ENV = "ADAMMCMC_OUT_ROOT"
SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_NUMERICAL = 3


def rebase_out_dir(out) -> Path:
    """The env var, when set, rebases a relative output directory."""
    out = Path(out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def resolve_out_dir(config: RunConfig, override: str | None) -> Path:
    """--out beats the config; the env var rebases relative paths."""
    return rebase_out_dir(override or config.out_dir)


def load_config(path: str, seed: int | None, out: str | None) -> RunConfig:
    config = RunConfig.load(path)
    if seed is not None:
        config = config.replace(seed=seed)
    if out is not None:
        config = config.replace(out_dir=out)
    return config


def write_manifest(out_dir: Path, config: RunConfig, extra: dict | None = None) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "config": config.as_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "versions": {
            "adammcmc": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
    }
    if extra:
        manifest.update(extra)
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_run(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    out_dir = resolve_out_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = run_experiment(config)
    record, summary = result.record, result.summary

    record.to_csv(out_dir / "record.csv")
    save_samples_csv(out_dir / "samples.csv", summary.samples)
    with open(out_dir / "samples_meta.json", "w") as fh:
        json.dump(
            {
                "schema_version": SCHEMA_VERSION,
                "dim": int(summary.samples.shape[1]),
                "n_samples": int(summary.samples.shape[0]),
                "sample_steps": summary.sample_steps,
                "schedule": {
                    "total_steps": config.steps,
                    "burn_in": config.burn_in,
                    "gap": config.gap,
                    "n_samples": config.n_samples,
                },
                "config_hash": config.config_hash(),
                "seed": config.seed,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    ensemble: dict = {
        "schema_version": SCHEMA_VERSION,
        "n_samples": int(summary.samples.shape[0]),
        "sample_steps": summary.sample_steps,
        "theta_mean": summary.samples.mean(axis=0).tolist(),
        "theta_iqr": (
            np.percentile(summary.samples, 75, axis=0)
            - np.percentile(summary.samples, 25, axis=0)
        ).tolist(),
        "acceptance_rate": record.acceptance_rate,
        "boundary_rejects": record.n_boundary_rejects,
    }
    if result.experiment.net is not None:
        ensemble["test_accuracy"] = ensemble_test_accuracy(result)  # also sets summary.spread
        ensemble["median_spread"] = (
            float(np.median(summary.spread)) if summary.spread is not None else None
        )
    with open(out_dir / "ensemble.json", "w") as fh:
        json.dump(ensemble, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_manifest(out_dir, config)
    print(
        f"run complete: {config.steps} steps, acceptance "
        f"{record.acceptance_rate:.3f}, {record.n_boundary_rejects} boundary "
        f"rejects, outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    out_dir = resolve_out_dir(config, args.out)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("grid", f"could not parse grid {args.grid!r}")
    if not grid:
        raise ConfigError("grid", "scan grid is empty")
    if args.param not in SCAN_PARAMS:
        raise ConfigError("param", f"must be one of {SCAN_PARAMS}, got {args.param!r}")
    if args.replicates < 0:
        raise ConfigError("replicates", f"must be >= 0, got {args.replicates}")
    if args.jobs < 1:
        raise ConfigError("jobs", f"must be >= 1, got {args.jobs}")

    out_dir.mkdir(parents=True, exist_ok=True)
    rows = scan_acceptance(
        config, args.param, grid, n_replicates=args.replicates, jobs=args.jobs
    )
    scan_rows_to_csv(rows, out_dir / "scan.csv")
    scan_rows_to_long_csv(rows, out_dir / "scan_long.csv")
    write_manifest(out_dir, config, {"scan_param": args.param, "scan_grid": grid})
    print(f"scan complete: {len(rows)} rows ({len(grid)} grid points), outputs in {out_dir}")
    return EXIT_OK


def cmd_compare_mh(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    out_dir = resolve_out_dir(config, args.out)
    batch_size = args.batch_size if args.batch_size else config.batch_size
    if batch_size <= 0:
        raise ConfigError("batch_size", "compare-mh needs a positive minibatch size")

    out_dir.mkdir(parents=True, exist_ok=True)
    comparison = compare_full_vs_stochastic_mh(config, batch_size=batch_size)
    comparison.full_record.to_csv(out_dir / "record_full.csv")
    comparison.stochastic_record.to_csv(out_dir / "record_stochastic.csv")
    with open(out_dir / "comparison.json", "w") as fh:
        fh.write(comparison.to_json())
    write_manifest(out_dir, config, {"comparison_batch_size": batch_size})
    summary = comparison.summary_dict()
    print(
        "compare-mh complete: acceptance full "
        f"{summary['full_acceptance']:.3f} vs stochastic "
        f"{summary['stochastic_acceptance']:.3f}, outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification

    out_dir = rebase_out_dir(args.out) if args.out else None
    results = run_verification(quick=args.quick, out_dir=out_dir)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adammcmc",
        description="Tempered-posterior sampling with Adam-driven Metropolis chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one chain from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    scan_p = sub.add_parser("scan", help="scan one hyperparameter over a grid")
    scan_p.add_argument("--config", required=True)
    scan_p.add_argument("--param", required=True, help=f"one of {SCAN_PARAMS}")
    scan_p.add_argument("--grid", required=True, help="comma-separated values")
    scan_p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    scan_p.add_argument("--replicates", type=int, default=3, help="extra seeds per point")
    scan_p.add_argument("--seed", type=int, default=None)
    scan_p.add_argument("--out", default=None)
    scan_p.set_defaults(func=cmd_scan)

    cmp_p = sub.add_parser(
        "compare-mh", help="matched chains with full vs stochastic accept test"
    )
    cmp_p.add_argument("--config", required=True)
    cmp_p.add_argument("--batch-size", type=int, default=0, help="minibatch size")
    cmp_p.add_argument("--seed", type=int, default=None)
    cmp_p.add_argument("--out", default=None)
    cmp_p.set_defaults(func=cmd_compare_mh)

    ver_p = sub.add_parser("verify", help="run the acceptance criteria suite")
    ver_p.add_argument("--quick", action="store_true", help="fast subset (< 60 s)")
    ver_p.add_argument(
        "--out", default=None, help="directory to write verify_report.json to"
    )
    ver_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
