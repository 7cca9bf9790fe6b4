"""Pin the outcome fingerprint of every run a benchmark workload can make.

    python3 bench/pin.py [WORKLOAD ...]

Runs every (strategy, seed) of each named workload's seed list (all workloads
when none is named) and writes the fingerprints into fingerprints.json.
Re-pin only for a behaviour change that is intended and recorded in
CHANGES.md; never to make a refactor pass.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import (FINGERPRINTS, WORKLOADS, fingerprint, run_key,
                       run_scenario)


def pin(workload) -> dict[str, str]:
    config = workload.resolve()
    pinned = {}
    for strategy in workload.strategies:
        for seed in workload.seeds:
            report = run_scenario(config, seed=seed, strategy=strategy)
            pinned[run_key(strategy.value, seed)] = fingerprint(report)
    return pinned


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    fresh = {name: pin(WORKLOADS[name]) for name in names}
    current = {}
    if os.path.exists(FINGERPRINTS):
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            current = json.load(fh)
    current.update(fresh)
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(current, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name in names:
        print(f"{name}: {len(fresh[name])} runs pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
