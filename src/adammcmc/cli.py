"""Command-line front end: run chains, scan hyperparameters, compare the
full and stochastic accept tests, and run the verification suite.

Exit codes: 0 success, 1 failed verification, 2 bad configuration or
arguments, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def load_config(path: str, seed: int | None, out: str | None) -> RunConfig:
    try:
        config = RunConfig.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    if seed is not None:
        config = config.replace(seed=seed)
    if out is not None:
        config = config.replace(out_dir=out)
    return config


def check_out_dir(out) -> Path:
    """The output directory's path, not yet created; the env var, when set,
    rebases a relative one.  A path whose nearest existing part (a dangling
    link counts) is not a directory is a bad --out."""
    out_dir = Path(out)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not out_dir.is_absolute():
        out_dir = Path(root) / out_dir
    part = next(p for p in (out_dir, *out_dir.parents) if p.is_symlink() or p.exists())
    if not part.is_dir():
        raise ConfigError("out", f"cannot create the output directory: {part} is not a directory")
    return out_dir


def make_out_dir(out) -> Path:
    out_dir = check_out_dir(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def write_json(path: Path, payload: dict | list) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    write_json(out_dir / "manifest.json", manifest)


def cmd_run(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    out_dir = make_out_dir(config.out_dir)

    result = run_experiment(config)
    record, summary = result.record, result.summary

    record.to_csv(out_dir / "record.csv")
    save_samples_csv(out_dir / "samples.csv", summary.samples)
    write_json(
        out_dir / "samples_meta.json",
        {
            "schema_version": SCHEMA_VERSION,
            "dim": int(summary.samples.shape[1]),
            "n_samples": int(summary.samples.shape[0]),
            "sample_steps": summary.sample_steps,
            "schedule": dataclasses.asdict(result.experiment.schedule),
            "config_hash": config.config_hash(),
            "seed": config.seed,
        },
    )

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
        accuracy, spread = ensemble_test_accuracy(result)
        ensemble["test_accuracy"] = accuracy
        ensemble["median_spread"] = float(np.median(spread)) if spread is not None else None
    write_json(out_dir / "ensemble.json", ensemble)

    write_manifest(out_dir, config)
    print(
        f"run complete: {config.steps} steps, acceptance "
        f"{record.acceptance_rate:.3f}, {record.n_boundary_rejects} boundary "
        f"rejects, outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_scan(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    try:
        grid = [float(v) for v in args.grid.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError("grid", f"could not parse grid {args.grid!r}")
    check_out_dir(config.out_dir)  # created after the chains: a rejected argument leaves none
    rows = scan_acceptance(
        config, args.param, grid, n_replicates=args.replicates, jobs=args.jobs
    )
    out_dir = make_out_dir(config.out_dir)
    scan_rows_to_csv(rows, out_dir / "scan.csv")
    scan_rows_to_long_csv(rows, out_dir / "scan_long.csv")
    write_manifest(out_dir, config, {"scan_param": args.param, "scan_grid": grid})
    print(f"scan complete: {len(rows)} rows ({len(grid)} grid points), outputs in {out_dir}")
    return EXIT_OK


def cmd_compare_mh(args) -> int:
    config = load_config(args.config, args.seed, args.out)
    batch_size = args.batch_size or config.batch_size
    check_out_dir(config.out_dir)  # created after the chains: a rejected batch leaves none
    comparison = compare_full_vs_stochastic_mh(config, batch_size)
    out_dir = make_out_dir(config.out_dir)
    comparison.full_record.to_csv(out_dir / "record_full.csv")
    comparison.stochastic_record.to_csv(out_dir / "record_stochastic.csv")
    summary = comparison.summary_dict()
    write_json(out_dir / "comparison.json", summary)
    write_manifest(out_dir, config, {"comparison_batch_size": batch_size})
    print(
        "compare-mh complete: acceptance full "
        f"{summary['full_acceptance']:.3f} vs stochastic "
        f"{summary['stochastic_acceptance']:.3f}, outputs in {out_dir}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_verification

    out_dir = check_out_dir(args.out) if args.out else None  # created by run_verification
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
    scan_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes; each runs its share of the chains in lockstep",
    )
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
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
