"""carryflow runs without numpy: it has no runtime dependency.

Each check runs in a fresh interpreter. In most of them `import numpy`
fails, so a stray import anywhere on a run's path, static or mobile, ends
the run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads(Path(__file__).with_name("golden_digests.json")
                    .read_text(encoding="utf-8"))
# a None entry makes every later `import numpy` raise ImportError
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'


def _python(code: str, cwd: Path) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    done = _python(BLOCK_NUMPY + "from carryflow.cli import main\n"
                   f"sys.exit(main({args!r}))\n", cwd)
    assert done.returncode == 0, done.stderr
    return done


def _digest_matches_its_pin(path: Path) -> bool:
    # a report file is the report's JSON and a newline; its digest is of the JSON
    text = path.read_bytes()
    report = json.loads(text)
    key = f"{report['scenario']}/{report['strategy']}/{report['seed']}"
    return hashlib.sha256(text[:-1]).hexdigest() == GOLDEN[key]


def test_import_carryflow_leaves_numpy_unloaded(tmp_path):
    done = _python('import sys, carryflow; print("numpy" in sys.modules)', tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_mobile_run_without_numpy_matches_its_golden_digest(tmp_path):
    # a waypoint world: mobility and the range-contact test
    _cli(["run", "mobile-sparse", "--out", "report.json"], tmp_path)
    assert _digest_matches_its_pin(tmp_path / "report.json")


def test_ring_run_without_numpy_matches_its_golden_digest(tmp_path):
    _cli(["run", "ring-heterogeneous", "--out", "report.json"], tmp_path)
    assert _digest_matches_its_pin(tmp_path / "report.json")


def test_ring_suite_without_numpy_matches_its_golden_digests(tmp_path):
    _cli(["suite", "ring-heterogeneous", "--seeds", "1..2", "--out", "suite"], tmp_path)
    reports = sorted((tmp_path / "suite").glob("report-*.json"))
    assert len(reports) == 8
    assert [path.name for path in reports if not _digest_matches_its_pin(path)] == []
