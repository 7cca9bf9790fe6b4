"""One benchmark measurement in a fresh interpreter; run.py starts it.

    python3 bench/worker.py setup   --workload W
    python3 bench/worker.py measure --workload W --seed N --seconds S
    python3 bench/worker.py trace   --workload W --seed N [--spans PATH]

`setup` imports carryflow, resolves the workload's scenario, prints `ready`
and exits. `measure` makes whole cycles of the workload's runs untraced,
as many as fit in S seconds (at least one); throughput is the median over
cycles.
`trace` makes one cycle of the runs untraced and then the same runs traced.
Each of the last two prints one JSON object as its last line, holding the
run counts and the metrics (all end-to-end ones except `setup_s`, which
run.py measures, or all per-layer ones). `measure` also reports the raw
`sim_s_per_wall_s`, which run.py prints but does not gate on.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys

from workloads import WORKLOADS, load_fingerprints, run_pass

# host-speed samples within each group of runs in the untraced pass; the
# traced pass takes none, so that no span holds a sample's time
SAMPLE_S = 0.25


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _per(num: float, den: float) -> float:
    """num / den, or NaN when no group succeeded (run.py reports no value)."""
    return num / den if den else math.nan


def _cycle_median(cycles: list[tuple[float, float, float]], host: int) -> float:
    """Median over whole cycles of simulated s per host s (1: wall, 2: ref)."""
    return statistics.median(_per(c[0], c[host]) for c in cycles)


def measure(workload, seed: int, seconds: float) -> dict:
    config = workload.resolve()
    pinned = load_fingerprints()[workload.name]
    total, first = run_pass(workload, config, workload.items(seed), pinned,
                            seconds, sample_s=SAMPLE_S)
    # ru_maxrss is in KiB on Linux; the children's figure is that of the
    # largest process this one started and waited for (0 while none is)
    peak_kib = sum(resource.getrusage(who).ru_maxrss for who in
                   (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    peak_mb = peak_kib / 1024.0
    return {
        "attempted": total.attempted, "failed": total.failed,
        "mismatches": total.mismatches,
        "sim_s_per_wall_s": _cycle_median(total.cycles, 1),
        "metrics": {
            "sim_s_per_ref_s": _metric(_cycle_median(total.cycles, 2),
                                       "sim_s/ref_s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "workflow_success_rate": _metric(first.success_rate(), "ratio"),
            "mean_makespan_sim_s": _metric(first.mean_makespan(), "sim_s"),
        },
    }


def trace(workload, seed: int, spans_path: str | None) -> dict:
    from tracer import Tracer, instrument, layer_metrics

    pinned = load_fingerprints()[workload.name]
    groups = workload.items(seed)
    plain, _ = run_pass(workload, workload.resolve(), groups, pinned)
    tracer = Tracer()
    with instrument(tracer):
        config = workload.resolve()
        traced, _ = run_pass(workload, config, groups, pinned,
                             after_group=tracer.end_group)
    if spans_path:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer, traced.wall_s, plain.wall_s)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "mismatches": plain.mismatches + traced.mismatches,
        "fingerprints_agree": plain.fingerprints == traced.fingerprints,
        "metrics": {name: _metric(v, u) for name, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.resolve()
        print("ready", flush=True)
        return 0
    if args.mode == "measure":
        result = measure(workload, args.seed, args.seconds)
    else:
        result = trace(workload, args.seed, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
