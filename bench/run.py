"""carryflow benchmark: host throughput of the simulator on three workloads.

    python3 bench/run.py --workload ring-sweep --seed 1 --seconds 24 --trace 0

Run from the root of a carryflow checkout; the simulator is imported from
its `src/` directory. With `--trace 0` it times `--workload` untraced in a
fresh interpreter and prints the end-to-end metrics; throughput is gated in
reference seconds (see hostspeed.py) and also printed per wall second. With
`--trace 1` it makes one cycle of the workload's runs untraced, then the
same runs with spans around each layer, and prints the per-layer metrics;
spans go to `.bench_out/spans-<workload>.npz`. Either way every run's
outcome fingerprint is checked against `bench/fingerprints.json`. The last
line of standard output is one JSON object; the exit code is 0 only when
every run matched its fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from hostspeed import kernel_seconds, reference_seconds

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("ring-sweep", "mobile-sparse", "mobile-dense")

SETUP_PROBES = 16
# every run must end within 180 s, including the set-up probes
DEADLINE_S = 170.0


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(workload: str, probes: int = SETUP_PROBES) -> float:
    """Median time from starting an interpreter to the workload being resolved.

    Each probe's wall time is rescaled by the reference kernel run just
    before and after it (hostspeed.py), so that the host's speed at the
    moment of the probe cancels out; the result is in reference seconds.
    """
    samples = []
    kernel_before = kernel_seconds()
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, "setup", "--workload", workload],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
        kernel_after = kernel_seconds()
        samples.append(reference_seconds(wall, [kernel_before, kernel_after]))
        kernel_before = kernel_after
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "carryflow", "__init__.py")):
        print(f"error: no carryflow sources under {ROOT}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        result = _worker(["trace", *common, "--spans", spans], DEADLINE_S)
    else:
        setup_s = setup_seconds(args.workload)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        result = _worker(["measure", *common, "--seconds", str(args.seconds)],
                         remaining)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics = result["metrics"]

    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and result.get("fingerprints_agree", True)
    for mismatch in result["mismatches"][:20]:
        print(f"failed run: {mismatch}")
    print(f"{args.workload} seed {args.seed}: {attempted} runs, {failed} failed")
    print(f"failed_run_ratio {failed / attempted:.6f} ratio")
    if "sim_s_per_wall_s" in result:
        print(f"sim_s_per_wall_s {result['sim_s_per_wall_s']} sim_s/s")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    bad = [n for n, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        print(f"error: no value for {', '.join(bad)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
