"""Span tracer for the benchmark's per-layer pass.

Spans are timed from outside the simulator: ``instrument`` swaps each traced
public function for a wrapper at the name its caller looks up (a module
global such as ``carryflow.runtime.select``, or a class attribute such as
``BundleStore.insert``) and puts the originals back afterwards. Each span
keeps a name, start, end and parent in flat arrays in memory; ``write``
saves them when the pass ends. A span's self time is its duration minus the
time its child spans cover.

A generator (``BundleStore.scan_log``) is timed over its consumption, not
its creation: its span starts at the first resume and lasts as long as the
resumes took together, so the caller's work between items is not charged to
it.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np

import workloads  # noqa: F401  (puts the checkout's src/ on sys.path)
import carryflow.announce
import carryflow.cli
import carryflow.harness
import carryflow.runtime
from carryflow.announce import OfferDatabase
from carryflow.bundles import BundleKind, BundleStore
from carryflow.client import ClientRuntime
from carryflow.nodes import Node
from carryflow.report import ExperimentReport
from carryflow.runtime import WorkerRuntime
from carryflow.simnet import RandomWaypoint, World

Observer = Callable[[tuple, object], None]


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.offer_payloads: set[bytes] = set()
        self.stored_peak = 0
        self.live_at_peak = 0
        self._worlds: list[World] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        return idx

    def span(self, fn: Callable, name: str,
             observe: Optional[Observer] = None) -> Callable:
        """Wrap fn so each call is one span; exceptions count as `<name>.raised`."""
        nid = self._id(name)
        raised = f"{name}.raised"
        stack, starts, ends, counts = self.stack, self.start, self.end, self.counts
        open_span, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = open_span(nid)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[raised] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def consumed(self, fn: Callable, name: str) -> Callable:
        """Wrap a generator function; its span covers the time spent resuming it."""
        nid = self._id(name)
        key = f"{name}.yielded"

        def traced(*args, **kwargs):
            return self._consume(fn(*args, **kwargs), self._open(nid), key)
        return traced

    def _consume(self, it: Iterator, idx: int, key: str) -> Iterator:
        stack, clock = self.stack, time.perf_counter
        busy = 0.0
        first = None
        n = 0
        try:
            while True:
                stack.append(idx)
                t0 = clock()
                if first is None:
                    first = t0
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    busy += clock() - t0
                    stack.pop()
                n += 1
                yield item
        finally:
            if first is not None:
                self.start[idx] = first
                self.end[idx] = first + busy
            self.counts[key] += n

    def counted(self, fn: Callable, key: str,
                after: Optional[Observer] = None) -> Callable:
        """Wrap fn to count calls (and observe results) without a span."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        return traced

    # -- observers ---------------------------------------------------------

    def on_build(self, _args: tuple, built) -> None:
        self._worlds.append(built.world)

    def end_group(self) -> None:
        """Read the public transfer counters of the worlds built since the last call."""
        for world in self._worlds:
            self.counts["simnet.transfers.completed"] += world.transfers_completed
            self.counts["simnet.transfers.aborted"] += world.transfers_aborted
        self._worlds.clear()

    def on_advance(self, args: tuple, _result) -> None:
        world = args[0]
        stored = live = 0
        for store in world.stores.values():
            stored += len(store)
            live += sum(1 for _ in store.live(world.now))
        if stored > self.stored_peak:
            self.stored_peak = stored
            self.live_at_peak = live

    def on_insert(self, _args: tuple, accepted: bool) -> None:
        if accepted:
            self.counts["bundles.insert.accepted"] += 1

    def on_decode(self, args: tuple, _offers) -> None:
        self.offer_payloads.add(bytes(args[0]))

    def on_ingest(self, args: tuple, applied: int) -> None:
        self.counts["announce.ingest.offered"] += len(args[1])
        self.counts["announce.ingest.applied"] += applied

    def on_bundle(self, args: tuple, _result) -> None:
        bundle = args[1]
        self.counts[f"nodes.delivered.{bundle.kind.value}"] += 1
        self.counts[f"nodes.delivered_bytes.{bundle.kind.value}"] += bundle.size_bytes

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: (calls, self seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=dur[nested],
                              minlength=len(dur))
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_s = np.bincount(names, weights=dur - covered, minlength=width)
        return calls, self_s

    def write(self, path: str) -> None:
        """Save every span (name index, parent index, start, end) and the names."""
        np.savez_compressed(
            path, name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            names=np.array(json.dumps(self.names)))


# (owner, attribute, span name); owner is where the caller looks the name up
SPANS = (
    (carryflow.cli, "load_scenario", "scenario.load"),
    (carryflow.harness, "build", "harness.build"),
    (World, "run_until", "simnet.run_until"),
    (RandomWaypoint, "step", "simnet.mobility"),
    (BundleStore, "scan_log", "bundles.scan_log"),
    (BundleStore, "insert", "bundles.insert"),
    (BundleStore, "remove_where", "bundles.remove_where"),
    (carryflow.announce, "decode_offers", "announce.decode_offers"),
    (OfferDatabase, "ingest", "announce.ingest"),
    (OfferDatabase, "lookup", "announce.lookup"),
    (Node, "on_bundle", "nodes.on_bundle"),
    (Node, "on_cleanup", "nodes.on_cleanup"),
    (carryflow.runtime, "select", "assignment.select"),
    (WorkerRuntime, "on_archive", "runtime.on_archive"),
    (WorkerRuntime, "resolve_worker", "runtime.resolve_worker"),
    (ClientRuntime, "offload", "client.offload"),
    (carryflow.harness, "freeze_workflow", "report.freeze"),
    (ExperimentReport, "digest", "report.digest"),
)

SPAN_NAMES = tuple(name for _, _, name in SPANS)
BUNDLE_KINDS = tuple(kind.value for kind in BundleKind)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers for the duration of the block."""
    observers = {
        "harness.build": tracer.on_build,
        "bundles.insert": tracer.on_insert,
        "announce.decode_offers": tracer.on_decode,
        "announce.ingest": tracer.on_ingest,
        "nodes.on_bundle": tracer.on_bundle,
    }
    patches = []
    for owner, attr, name in SPANS:
        original = vars(owner)[attr]
        if name == "bundles.scan_log":
            wrapper = tracer.consumed(original, name)
        else:
            wrapper = tracer.span(original, name, observers.get(name))
        patches.append((owner, attr, original, wrapper))
    for owner, attr, key, after in (
            (World, "schedule", "simnet.events", None),
            (World, "advance", "simnet.advance", tracer.on_advance)):
        original = vars(owner)[attr]
        patches.append((owner, attr, original, tracer.counted(original, key, after)))
    try:
        for owner, attr, _, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit)."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, self_s = tracer.self_times()
    by_name = {name: i for i, name in enumerate(tracer.names)}
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        i = by_name.get(name)
        n = int(calls[i]) if i is not None else 0
        s = float(self_s[i]) if i is not None else 0.0
        out[f"{name}.calls"] = (n, "count")
        out[f"{name}.self_s"] = (s, "s")
        out[f"{name}.share"] = (ratio(s, traced_wall_s), "ratio")

    def n_calls(name: str) -> int:
        return int(out[f"{name}.calls"][0])

    events = counts["simnet.events"]
    completed = counts["simnet.transfers.completed"]
    aborted = counts["simnet.transfers.aborted"]
    yielded = counts["bundles.scan_log.yielded"]
    out.update({
        "simnet.events": (events, "count"),
        "simnet.host_us_per_event": (ratio(untraced_wall_s * 1e6, events), "us"),
        "simnet.transfers.completed": (completed, "count"),
        "simnet.transfers.aborted": (aborted, "count"),
        "simnet.transfers.abort_ratio": (ratio(aborted, completed + aborted), "ratio"),
        "bundles.scan_log.yielded": (yielded, "count"),
        "bundles.scan_log.yield_per_call": (ratio(yielded, n_calls("bundles.scan_log")),
                                            "1/call"),
        "bundles.insert.accepted_ratio": (ratio(counts["bundles.insert.accepted"],
                                                n_calls("bundles.insert")), "ratio"),
        "bundles.stored_peak": (tracer.stored_peak, "count"),
        "bundles.live_ratio_at_peak": (ratio(tracer.live_at_peak, tracer.stored_peak),
                                       "ratio"),
        "announce.decode.calls_per_bundle": (ratio(n_calls("announce.decode_offers"),
                                                   len(tracer.offer_payloads)), "1/bundle"),
        "announce.ingest.applied_ratio": (ratio(counts["announce.ingest.applied"],
                                                counts["announce.ingest.offered"]), "ratio"),
        "assignment.select.failed": (counts["assignment.select.raised"], "count"),
    })
    for kind in BUNDLE_KINDS:
        out[f"nodes.delivered.{kind}"] = (counts[f"nodes.delivered.{kind}"], "count")
        out[f"nodes.delivered_bytes.{kind}"] = (counts[f"nodes.delivered_bytes.{kind}"],
                                                "bytes")
    out["trace.traced_wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.overhead_ratio"] = (ratio(traced_wall_s - untraced_wall_s,
                                         untraced_wall_s), "ratio")
    return out
