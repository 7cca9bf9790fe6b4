"""Command line front end: run scenarios, sweep suites, summarize reports."""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .assignment import Strategy
from .harness import (SUMMARY_COLUMNS, SuiteResult, emit_suite, report_files,
                      run_scenario, run_suite, summarize)
from .report import report_from_obj
from .scenario import ScenarioConfig, ScenarioError, load_scenario


# the most seeds one suite runs, each a run per strategy
MAX_SEEDS = 100_000


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


def _refuse_repeats(values: list, what: str) -> None:
    """End the command if a value is given twice: it would run the same run again."""
    seen = set()
    for value in values:
        if value in seen:
            raise SystemExit(f"error: {what} {value!r} is given more than once")
        seen.add(value)


def _parse_seeds(text: str) -> list[int]:
    """The seeds of a comma list of seeds and `first..last` ranges, in order.

    The count is checked against `MAX_SEEDS` before a range is expanded.
    """
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, dots, hi = part.partition("..")
        first = _parse_seed(lo)
        last = _parse_seed(hi) if dots else first
        if last < first:
            raise SystemExit(f"error: seed range {part!r} ends below its start")
        if len(seeds) + (last - first + 1) > MAX_SEEDS:
            raise SystemExit(f"error: more than {MAX_SEEDS} seeds given")
        seeds.extend(range(first, last + 1))
    if not seeds:
        raise SystemExit("error: no seeds given")
    _refuse_repeats(seeds, "seed")
    return seeds


def _parse_strategies(text: str) -> list[Strategy]:
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not names:
        raise SystemExit("error: no strategies given")
    _refuse_repeats(names, "strategy")
    try:
        return [Strategy(name) for name in names]
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


def _load_reports(ref: str) -> list:
    """Read report JSON files from a directory or an explicit file.

    A file that cannot be read, is not JSON, or whose keys are not a
    report's ends the command with an error line naming the file; so do
    two reports of one run, which every table would count twice, and
    reports of more than one scenario, which no table can hold apart.
    """
    paths = []
    if os.path.isdir(ref):
        paths = [os.path.join(ref, name) for name in report_files(ref)]
    elif os.path.isfile(ref):
        paths = [ref]
    if not paths:
        raise SystemExit(f"error: no report JSON files under {ref!r}")
    reports = []
    # the file each run's report came from, by (scenario, strategy, seed)
    runs: dict[tuple, str] = {}
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                report = report_from_obj(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SystemExit(f"error: {path} is not a carryflow report: {exc}") from None
        run = (report.scenario, report.strategy, report.seed)
        if run in runs:
            raise SystemExit(f"error: {runs[run]} and {path} are reports of one run "
                             f"({report.strategy}, seed {report.seed})")
        runs[run] = path
        reports.append(report)
    scenarios = sorted({report.scenario for report in reports})
    if len(scenarios) > 1:
        raise SystemExit(f"error: {ref} holds reports of more than one scenario: "
                         + ", ".join(scenarios))
    return reports


def _cannot_write(path: str, exc: OSError) -> str:
    return f"error: cannot write {path}: {exc.strerror or exc}"


def _emit_suite(result: SuiteResult, out_dir: str) -> list[str]:
    """emit_suite, ending the command with an error line if out_dir cannot be written."""
    try:
        return emit_suite(result, out_dir)
    except OSError as exc:
        raise SystemExit(_cannot_write(out_dir, exc)) from None


def _cmd_run(args: argparse.Namespace) -> int:
    seed = None if args.seed is None else _parse_seed(args.seed)
    config = resolve_scenario(args.scenario)
    strategy = Strategy(args.strategy) if args.strategy else None
    report = run_scenario(config, seed=seed, strategy=strategy)
    text = report.to_json() + "\n"
    if args.out and args.out != "-":
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SystemExit(_cannot_write(args.out, exc)) from None
        print(f"wrote {args.out} (digest {report.digest()[:16]})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    config = resolve_scenario(args.scenario)
    strategies = _parse_strategies(args.strategies)
    result = run_suite(config, _parse_seeds(args.seeds), strategies)
    files = _emit_suite(result, args.out)
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
    result = SuiteResult(scenario=reports[0].scenario, reports=reports)
    files = _emit_suite(result, args.out)
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
