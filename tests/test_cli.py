"""Command line smoke tests over a tiny on-disk scenario."""

import json
import re
from importlib import resources

import pytest

from carryflow.cli import (_parse_seeds, main, packaged_scenarios,
                           resolve_scenario)

from test_scenario import RING_INI


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(RING_INI)
    return str(path)


def test_seed_ranges():
    assert _parse_seeds("1..4") == [1, 2, 3, 4]
    assert _parse_seeds("3, 7,11") == [3, 7, 11]
    assert _parse_seeds("1..2,9") == [1, 2, 9]
    with pytest.raises(SystemExit):
        _parse_seeds(" ")


@pytest.mark.parametrize("seeds", ["1,x", "1..x", "x..3", "2,-1", "-1..3", "1.5"])
def test_suite_refuses_bad_seeds_with_an_error_line(scenario_file, tmp_path, seeds):
    with pytest.raises(SystemExit, match="^error: a seed must be a non-negative integer"):
        main(["suite", scenario_file, f"--seeds={seeds}", "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("seeds, bad", [
    ("3..1", "3..1"), ("3..1,5", "3..1"), ("1..2, 9..8", "9..8")])
def test_suite_refuses_a_reversed_seed_range_with_an_error_line(
        scenario_file, tmp_path, seeds, bad):
    with pytest.raises(SystemExit,
                       match=f"^error: seed range '{re.escape(bad)}' ends below its start$"):
        main(["suite", scenario_file, f"--seeds={seeds}", "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()


def test_seed_count_is_bounded_before_a_range_is_expanded(scenario_file, tmp_path):
    from carryflow.cli import MAX_SEEDS
    assert len(_parse_seeds(f"1..{MAX_SEEDS}")) == MAX_SEEDS
    for seeds in (f"0..{MAX_SEEDS}", f"0,1..{MAX_SEEDS}", f"1..{MAX_SEEDS},0"):
        with pytest.raises(SystemExit, match=f"^error: more than {MAX_SEEDS} seeds given$"):
            _parse_seeds(seeds)
    # a range this long would not fit in memory if it were expanded first
    with pytest.raises(SystemExit, match=f"^error: more than {MAX_SEEDS} seeds given$"):
        main(["suite", scenario_file, "--seeds=0..1000000000000000000",
              "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("option, message", [
    ("--seeds=1,1", "seed 1"), ("--seeds=1..3,2", "seed 2"),
    ("--strategies=best,best", "strategy 'best'"),
    ("--strategies=Best, best", "strategy 'best'"),
])
def test_suite_refuses_repeats_with_an_error_line(scenario_file, tmp_path, option, message):
    with pytest.raises(SystemExit, match=f"^error: {message} is given more than once$"):
        main(["suite", scenario_file, option, "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("strategies", [",", "", " , "])
def test_suite_refuses_no_strategies_with_an_error_line(scenario_file, tmp_path, strategies):
    with pytest.raises(SystemExit, match="^error: no strategies given$"):
        main(["suite", scenario_file, f"--strategies={strategies}",
              "--out", str(tmp_path / "s")])
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("seed", ["x", "-1"])
def test_run_refuses_bad_seed_with_an_error_line(scenario_file, seed):
    with pytest.raises(SystemExit, match="^error: a seed must be a non-negative integer"):
        main(["run", scenario_file, "--seed", seed])


def test_packaged_scenarios_resolve():
    names = packaged_scenarios()
    assert "ring-heterogeneous" in names
    assert "mobile-sparse" in names
    cfg = resolve_scenario("ring-aot")
    assert cfg.name == "ring-aot"
    with pytest.raises(SystemExit, match="packaged scenarios"):
        resolve_scenario("no-such-thing")


def test_run_prints_report_json(scenario_file, capsys):
    assert main(["run", scenario_file, "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["scenario"] == "tiny-ring"
    assert obj["seed"] == 3
    assert len(obj["workflows"]) == 2


def test_run_writes_file(scenario_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["run", scenario_file, "--strategy", "best",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["strategy"] == "best"
    assert "digest" in capsys.readouterr().err


def test_run_to_a_missing_directory_is_refused_with_an_error_line(scenario_file, tmp_path):
    out = tmp_path / "missing" / "report.json"
    with pytest.raises(SystemExit,
                       match=f"^error: cannot write {re.escape(str(out))}: No such file"):
        main(["run", scenario_file, "--seed", "1", "--out", str(out)])


@pytest.mark.parametrize("command", ["suite", "plot-data"])
def test_tables_to_an_existing_file_are_refused_with_an_error_line(
        scenario_file, saved_report, tmp_path, command):
    out = tmp_path / "taken"
    out.write_text("")
    source = scenario_file if command == "suite" else str(saved_report)
    args = [command, source, "--out", str(out)]
    if command == "suite":
        args[2:2] = ["--seeds", "1", "--strategies", "best"]
    with pytest.raises(SystemExit, match=f"^error: cannot write {re.escape(str(out))}: "):
        main(args)
    assert out.read_text() == ""


def test_suite_report_and_plot_data_round_trip(scenario_file, tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    # strategies out of alphabetical order: the rebuilt suite must not depend on it
    assert main(["suite", scenario_file, "--seeds", "1..2",
                 "--strategies", "random,best", "--out", str(suite_dir)]) == 0
    out = capsys.readouterr().out
    assert "4 runs" in out
    assert "suite digest" in out

    assert main(["report", str(suite_dir)]) == 0
    table = capsys.readouterr().out
    assert "strategy" in table
    assert "best" in table
    assert "random" in table

    rebuilt = tmp_path / "rebuilt"
    assert main(["plot-data", str(suite_dir), "--out", str(rebuilt)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in suite_dir.iterdir())
    assert sorted(p.name for p in rebuilt.iterdir()) == names
    assert len(names) == 9
    assert [name for name in names
            if (rebuilt / name).read_bytes() != (suite_dir / name).read_bytes()] == []


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(RING_INI.replace("client = true", "client = false"))
    assert main(["run", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize("pin,problem", [
    ("00000000000000ff", "[workflow] task 0 pinned address 255 outside 1..11"),
    ("-000000000000003", "[workflow] tasks: line 4: node address must be 16 hex chars, "
                         "got '-000000000000003'"),
])
def test_a_bad_pinned_worker_exits_2_before_any_run(tmp_path, capsys, monkeypatch, pin,
                                                    problem):
    # unchecked, either pin ran ring-aot to its 300 s cap with the workflow pending
    packaged = resources.files("carryflow") / "scenarios"
    chain = (packaged / "aot-chain.wf").read_text(encoding="utf-8")
    (tmp_path / "aot-chain.wf").write_text(chain.replace("0000000000000003", pin))
    ini = tmp_path / "ring-aot.ini"
    ini.write_text((packaged / "ring-aot.ini").read_text(encoding="utf-8"))
    monkeypatch.setattr("carryflow.cli.run_scenario", None)
    assert main(["run", str(ini)]) == 2
    assert capsys.readouterr().err == f"error: invalid scenario:\n  - {problem}\n"


def test_report_requires_existing_files(tmp_path):
    with pytest.raises(SystemExit, match="no report JSON"):
        main(["report", str(tmp_path)])


def test_scenario_directory_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    assert "error: invalid scenario:\n  - cannot read scenario file:" \
        in capsys.readouterr().err


def test_scenario_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.ini"
    bad.write_bytes(RING_INI.replace("tiny-ring", "tiny-ring \xe9").encode("latin-1"))
    assert main(["run", str(bad)]) == 2
    assert "cannot read scenario file:" in capsys.readouterr().err


@pytest.fixture()
def saved_report(scenario_file, tmp_path):
    path = tmp_path / "report-1.json"
    assert main(["run", scenario_file, "--seed", "1", "--out", str(path)]) == 0
    return path


def _break_json(path):
    path.write_text(path.read_text()[:-20])


def _drop_workflows(path):
    obj = json.loads(path.read_text())
    del obj["workflows"]
    path.write_text(json.dumps(obj))


def _add_key(path):
    obj = json.loads(path.read_text())
    obj["network"] = {}
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("command", ["report", "plot-data"])
@pytest.mark.parametrize("spoil", [_break_json, _drop_workflows, _add_key])
def test_file_that_is_not_a_report_is_refused_with_an_error_line(
        saved_report, tmp_path, command, spoil):
    spoil(saved_report)
    args = [command, str(saved_report)]
    if command == "plot-data":
        args += ["--out", str(tmp_path / "tables")]
    with pytest.raises(SystemExit,
                       match=f"^error: {re.escape(str(saved_report))} is not a carryflow report: "):
        main(args)


@pytest.mark.parametrize("command", ["report", "plot-data"])
@pytest.mark.parametrize("where, value", [
    (("workflows", 0, "finished_at"), "x"),
    (("workflows", 0, "task_phases", 0, "runtime_s"), "1"),
    (("seed",), None),
    (("expired_drops",), True),
], ids=["finished_at", "runtime_s", "seed", "expired_drops"])
def test_a_value_of_the_wrong_type_is_refused_with_an_error_line(
        scenario_file, tmp_path, command, where, value):
    # beside a good report, so a suite's sort by seed would meet the spoiled one
    folder = tmp_path / "reports"
    folder.mkdir()
    for seed in (1, 2):
        out = str(folder / f"report-best-{seed}.json")
        assert main(["run", scenario_file, "--seed", str(seed), "--out", out]) == 0
    spoiled = folder / "report-best-2.json"
    obj = json.loads(spoiled.read_text())
    *path, key = where
    record = obj
    for step in path:
        record = record[step]
    assert type(record[key]) in (int, float)
    record[key] = value
    spoiled.write_text(json.dumps(obj))
    args = [command, str(folder)]
    if command == "plot-data":
        args += ["--out", str(tmp_path / "tables")]
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(spoiled))} is not a "
                                         f"carryflow report: {key} is "):
        main(args)
    assert not (tmp_path / "tables").exists()


@pytest.mark.parametrize("command", ["report", "plot-data"])
def test_two_reports_of_one_run_are_refused_with_an_error_line(
        scenario_file, tmp_path, command):
    # a copy of a report would count its run twice in every table
    folder = tmp_path / "suite"
    assert main(["suite", scenario_file, "--seeds", "1", "--strategies", "best",
                 "--out", str(folder)]) == 0
    original = folder / "report-best-1.json"
    copy = folder / "report-best-1-copy.json"
    copy.write_text(original.read_text())
    args = [command, str(folder)]
    if command == "plot-data":
        args += ["--out", str(tmp_path / "tables")]
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(copy))} and "
                                         f"{re.escape(str(original))} are reports of "
                                         r"one run \(best, seed 1\)$"):
        main(args)
    assert not (tmp_path / "tables").exists()


def test_a_report_takes_an_integer_where_it_writes_a_float(saved_report, capsys):
    obj = json.loads(saved_report.read_text())
    obj["duration_s"] = int(obj["duration_s"])
    obj["workflows"][0]["task_phases"][0]["runtime_s"] = 0
    saved_report.write_text(json.dumps(obj))
    assert main(["report", str(saved_report)]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("command", ["report", "plot-data"])
def test_reports_of_two_scenarios_are_refused_with_an_error_line(
        scenario_file, tmp_path, command):
    other = tmp_path / "other.ini"
    other.write_text(RING_INI.replace("tiny-ring", "other-ring"))
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    for name, source in (("report-best-1.json", scenario_file),
                         ("report-best-2.json", str(other))):
        assert main(["run", source, "--seed", "1", "--out", str(mixed / name)]) == 0
    args = [command, str(mixed)]
    if command == "plot-data":
        args += ["--out", str(tmp_path / "tables")]
    with pytest.raises(SystemExit, match=f"^error: {re.escape(str(mixed))} holds reports "
                                         "of more than one scenario: other-ring, tiny-ring$"):
        main(args)
    assert not (tmp_path / "tables").exists()
