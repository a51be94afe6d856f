"""Command-line front end: synth, fit-cac, fit-deepcac, baseline, sweep, compare.

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, parse_override, set_path, validate_config
from .errors import CackitError, ConfigInvalid
from .experiments import _write_text, compare_reports, run_task


def _jobs(text: str) -> int:
    """The --jobs value: an integer >= 1 (argparse exits 2 otherwise)."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _add_run_parser(subparsers, name: str, help_text: str) -> None:
    p = subparsers.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="path to the YAML experiment config")
    p.add_argument("--out", default=None, help="output directory (default: config output_dir)")
    p.add_argument("--seed", default=None, help="comma-separated seeds overriding the config")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for the seeds and sweep cells, an integer >= 1 "
                        "(outputs do not depend on it)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config value (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cackit",
                                     description="clustering-aware classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub, "synth", "generate a synthetic benchmark CSV")
    _add_run_parser(sub, "fit-cac", "fit the separation-augmented clustering + local classifiers")
    _add_run_parser(sub, "fit-deepcac", "fit the neural variant")
    _add_run_parser(sub, "baseline", "run a baseline (km, bare classifier, or kmz)")
    _add_run_parser(sub, "sweep", "run a config grid across seeds")
    cmp = sub.add_parser("compare", help="aggregate report.json files into a comparison table")
    cmp.add_argument("reports", nargs="+", help="paths to report.json files")
    cmp.add_argument("--out", default=None, help="optional path for the comparison CSV")
    return parser


def _run(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        try:
            cfg["seeds"] = [int(s) for s in str(args.seed).split(",") if s.strip() != ""]
        except ValueError:
            raise ConfigInvalid("seeds", f"could not parse seed list {args.seed!r}") from None
        if not cfg["seeds"]:
            raise ConfigInvalid("seeds", "at least one seed is required")
    for item in args.overrides:
        key, value = parse_override(item)
        set_path(cfg, key, value)
    cfg["task"] = args.command  # the subcommand wins over any task in the file or a --set
    cfg = validate_config(cfg)
    out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
    manifest = run_task(cfg, out_dir, jobs=args.jobs)
    print(f"{args.command}: wrote {manifest['n_runs']} run(s) to {out_dir}")
    return 0


def _compare(args) -> int:
    csv_text, table = compare_reports(args.reports)
    if args.out:
        _write_text(Path(args.out), csv_text)
    print(table)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            return _compare(args)
        return _run(args)
    except (ConfigInvalid, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CackitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - surface anything unexpected as exit 3
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
