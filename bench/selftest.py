"""Self-test of the benchmark on a tiny seed set.

    python3 -m pytest -q bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both passes, and that a deliberately altered report, or a report returned
in place of another run's, counts as a failed run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types

import pytest

import run
import worker
import workloads
from workloads import (ROOT, WORKLOADS, fingerprint, load_fingerprints,
                       run_key, run_scenario)

from carryflow.report import ExperimentReport


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


# one run_suite call of one seed (four runs), and one run_scenario run
TINY = {
    "ring-sweep": dataclasses.replace(WORKLOADS["ring-sweep"], seeds=(1,),
                                      suite_batch=1),
    "mobile-dense": dataclasses.replace(WORKLOADS["mobile-dense"], seeds=(1,)),
}


def test_run_offers_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fingerprint_is_report_digest_while_keys_are_unchanged():
    workload = WORKLOADS["mobile-dense"]
    report = run_scenario(workload.resolve(), seed=1)
    assert fingerprint(report) == report.digest()
    assert load_fingerprints()[workload.name][run_key(report.strategy, 1)] \
        == report.digest()


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_pass_emits_every_end_to_end_metric(name):
    result = worker.measure(TINY[name], seed=1, seconds=0.0)
    assert result["attempted"] >= 1 and result["failed"] == 0
    result["metrics"]["setup_s"] = {"value": run.setup_seconds(name, probes=1),
                                    "unit": "s"}
    assert _units(result) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_emits_every_per_layer_metric():
    result = worker.trace(TINY["ring-sweep"], seed=1, spans_path=None)
    assert result["failed"] == 0 and result["fingerprints_agree"]
    assert _units(result) == _declared("per_layer")


@pytest.mark.parametrize("name", sorted(TINY))
def test_altered_report_counts_as_failed_run(name, monkeypatch):
    to_obj = ExperimentReport.to_obj

    def altered(self):
        obj = to_obj(self)
        obj["duration_s"] += 1.0
        return obj

    monkeypatch.setattr(ExperimentReport, "to_obj", altered)
    result = worker.measure(TINY[name], seed=1, seconds=0.0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_duplicated_report_counts_as_failed_runs(monkeypatch):
    run_suite = workloads.run_suite

    def duplicating(config, seeds, strategies):
        reports = list(run_suite(config, seeds, strategies).reports)
        reports[1] = reports[0]
        return types.SimpleNamespace(reports=reports, digest=lambda: "")

    monkeypatch.setattr(workloads, "run_suite", duplicating)
    result = worker.measure(TINY["ring-sweep"], seed=1, seconds=0.0)
    assert result["attempted"] == 4
    assert result["failed"] == 4
