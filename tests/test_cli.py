"""Command line smoke tests over a tiny on-disk scenario."""

import json
import re

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


def test_suite_report_and_plot_data_round_trip(scenario_file, tmp_path, capsys):
    suite_dir = tmp_path / "suite"
    assert main(["suite", scenario_file, "--seeds", "1..2",
                 "--strategies", "best,random", "--out", str(suite_dir)]) == 0
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
    assert (rebuilt / "summary.csv").read_text() == \
        (suite_dir / "summary.csv").read_text()
    assert (rebuilt / "load_matrix.csv").read_text() == \
        (suite_dir / "load_matrix.csv").read_text()


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(RING_INI.replace("client = true", "client = false"))
    assert main(["run", str(bad)]) == 2
    assert "invalid scenario" in capsys.readouterr().err


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
