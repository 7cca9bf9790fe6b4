"""Command line front end: run scenarios, sweep suites, summarize reports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .assignment import Strategy
from .harness import (SUMMARY_COLUMNS, SuiteResult, emit_suite, run_scenario, run_suite,
                      summarize)
from .report import report_from_obj
from .scenario import ScenarioConfig, ScenarioError, load_scenario


def packaged_scenarios() -> list[str]:
    root = resources.files("carryflow") / "scenarios"
    return sorted(entry.name[:-4] for entry in root.iterdir()
                  if entry.name.endswith(".ini"))


def resolve_scenario(ref: str) -> ScenarioConfig:
    """Load a scenario from a path, or by packaged name."""
    if os.path.exists(ref):
        return load_scenario(ref)
    root = resources.files("carryflow") / "scenarios"
    candidate = root / f"{ref}.ini"
    if candidate.is_file():
        with resources.as_file(candidate) as path:
            return load_scenario(str(path))
    names = ", ".join(packaged_scenarios())
    raise SystemExit(f"error: no scenario {ref!r} (packaged scenarios: {names})")


def _parse_seed(text: str) -> int:
    """One seed: a non-negative integer, as `[run] seed` requires."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise SystemExit(f"error: a seed must be a non-negative integer, got {text.strip()!r}")
    return seed


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, _, hi = part.partition("..")
            seeds.extend(range(_parse_seed(lo), _parse_seed(hi) + 1))
        elif part:
            seeds.append(_parse_seed(part))
    if not seeds:
        raise SystemExit("error: no seeds given")
    return seeds


def _parse_strategies(text: str) -> list[Strategy]:
    try:
        return [Strategy(part.strip().lower())
                for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _load_reports(ref: str) -> list:
    """Read report JSON files from a directory or an explicit file.

    A file that cannot be read, is not JSON, or whose keys are not a
    report's ends the command with an error line naming the file.
    """
    paths = []
    if os.path.isdir(ref):
        paths = [os.path.join(ref, name) for name in sorted(os.listdir(ref))
                 if name.startswith("report-") and name.endswith(".json")]
    elif os.path.isfile(ref):
        paths = [ref]
    if not paths:
        raise SystemExit(f"error: no report JSON files under {ref!r}")
    reports = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(report_from_obj(json.load(fh)))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SystemExit(f"error: {path} is not a carryflow report: {exc}") from None
    return reports


def _cmd_run(args: argparse.Namespace) -> int:
    seed = None if args.seed is None else _parse_seed(args.seed)
    config = resolve_scenario(args.scenario)
    strategy = Strategy(args.strategy) if args.strategy else None
    report = run_scenario(config, seed=seed, strategy=strategy)
    text = report.to_json() + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} (digest {report.digest()[:16]})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    config = resolve_scenario(args.scenario)
    strategies = _parse_strategies(args.strategies)
    result = run_suite(config, _parse_seeds(args.seeds), strategies)
    files = emit_suite(result, args.out)
    print(f"{len(result.reports)} runs -> {args.out} ({len(files)} files)")
    print(f"suite digest {result.digest()}")
    return 0


def _print_summary(reports: list) -> None:
    summary = summarize(reports)
    header = "strategy".ljust(10) + "".join(c.rjust(20) for c in SUMMARY_COLUMNS)
    print(header)
    for strategy, row in summary.items():
        cells = "".join(f"{row[c]:20.4f}" for c in SUMMARY_COLUMNS)
        print(strategy.ljust(10) + cells)


def _cmd_report(args: argparse.Namespace) -> int:
    _print_summary(_load_reports(args.reports))
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    reports = _load_reports(args.reports)
    seeds = sorted({r.seed for r in reports})
    strategies = sorted({r.strategy for r in reports})
    result = SuiteResult(scenario=reports[0].scenario, seeds=seeds,
                         strategies=strategies, reports=reports)
    files = emit_suite(result, args.out)
    print(f"wrote {len(files)} files to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carryflow",
        description="Opportunistic-network workflow offloading simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print the report JSON")
    p_run.add_argument("scenario", help="scenario file or packaged name")
    p_run.add_argument("--seed", default=None)
    p_run.add_argument("--strategy", choices=[s.value for s in Strategy], default=None)
    p_run.add_argument("--out", default="-", help="report path, - for stdout")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="sweep seeds and strategies, emit tables")
    p_suite.add_argument("scenario", help="scenario file or packaged name")
    p_suite.add_argument("--seeds", default="1..5", help="e.g. 1..25 or 3,7,11")
    p_suite.add_argument("--strategies",
                         default=",".join(s.value for s in Strategy))
    p_suite.add_argument("--out", required=True, help="output directory")
    p_suite.set_defaults(fn=_cmd_suite)

    p_report = sub.add_parser("report", help="summarize saved report JSON files")
    p_report.add_argument("reports", help="report file or directory of report-*.json")
    p_report.set_defaults(fn=_cmd_report)

    p_plot = sub.add_parser("plot-data", help="rebuild CSV tables from saved reports")
    p_plot.add_argument("reports", help="directory of report-*.json")
    p_plot.add_argument("--out", required=True, help="output directory")
    p_plot.set_defaults(fn=_cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
