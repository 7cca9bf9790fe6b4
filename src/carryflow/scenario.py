"""Scenario configuration: INI files describing topology, services, and runs.

A scenario file has the sections

  [scenario]    name
  [topology]    kind = ring | waypoint, plus geometry keys
  [link]        bandwidth_mbit, latency_ms
  [services]    one key per service: mean=, jitter=, energy=, output_bytes=, ...
  [cohort:X]    node groups: count= / fraction= / addresses= (or nothing for
                the single remainder cohort), capability caps, offered services
  [workflow]    the task list (inline or file=), stub input files, offload times
  [run]         seed, duration, strategy, rating weights, fault injection

Validation is collected rather than fail-fast: a bad file raises one
ScenarioError listing every problem found.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional, Union

from .announce import (DEFAULT_ANNOUNCE_INTERVAL_S, DEFAULT_OFFER_EXPIRY_S,
                       MAX_PARAM_COUNT, SERVICE_NAME_BYTES)
from .assignment import DEFAULT_WEIGHTS, Strategy, validate_weights
from .runtime import FaultPlan, ServiceDefinition
from .simnet import LinkModel
from .workflow import (ALL_METRICS, WorkflowParseError, format_description,
                       parse as parse_workflow)


class ScenarioError(ValueError):
    """All configuration problems of a scenario file, joined into one error."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass(frozen=True)
class RingTopology:
    """Static ring: node i sits on a circle, adjacent only to its neighbors."""

    nodes: int
    spacing_m: float = 100.0

    kind = "ring"


@dataclass(frozen=True)
class WaypointTopology:
    """Random-waypoint mobility on a rectangle with a radio disc range."""

    nodes: int
    width_m: float
    height_m: float
    range_m: float
    speed_min: float = 0.8
    speed_max: float = 1.9
    pause_max_s: float = 60.0

    kind = "waypoint"


Topology = Union[RingTopology, WaypointTopology]


@dataclass(frozen=True)
class CohortSpec:
    """A group of nodes sharing capabilities and an offered service set.

    Sizing is exactly one of: pinned addresses, an absolute count, a fraction
    of the nodes left after pins and counts, or nothing at all for the single
    cohort that absorbs the remainder.
    """

    name: str
    count: Optional[int] = None
    fraction: Optional[float] = None
    addresses: tuple[int, ...] = ()
    cpu: float = 1.0
    memory: float = 1024.0
    disk: float = 4096.0
    energy: float = 100.0
    services: tuple[str, ...] = ()
    client: bool = False


@dataclass(frozen=True)
class WorkflowSpec:
    """What the clients offload and when."""

    text: str
    files: dict[str, int] = field(default_factory=dict)
    offload_at: float = 10.0
    repeat: int = 1
    interval_s: float = 0.0


@dataclass(frozen=True)
class RunSettings:
    """The only run configuration, parsed or hand-built; it holds no run state."""

    seed: int = 1
    duration_s: float = 600.0
    tick_s: float = 0.5
    announce_interval_s: float = DEFAULT_ANNOUNCE_INTERVAL_S
    offer_expiry_s: float = DEFAULT_OFFER_EXPIRY_S
    strategy: Strategy = Strategy.BEST
    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    preprocess_s: float = 0.05
    postprocess_s: float = 0.6
    stop_grace_s: float = 20.0
    fault: FaultPlan = field(default_factory=FaultPlan)

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", validate_weights(self.weights))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    topology: Topology
    link: LinkModel
    services: dict[str, ServiceDefinition]
    cohorts: tuple[CohortSpec, ...]
    workflow: WorkflowSpec
    run: RunSettings

    def with_run(self, *, seed: Optional[int] = None,
                 strategy: Optional[Strategy] = None) -> "ScenarioConfig":
        run = self.run
        if seed is not None:
            run = dataclasses.replace(run, seed=seed)
        if strategy is not None:
            run = dataclasses.replace(run, strategy=strategy)
        return dataclasses.replace(self, run=run)

    def to_obj(self) -> dict:
        topo: dict[str, object] = {"kind": self.topology.kind}
        topo.update(dataclasses.asdict(self.topology))
        run = dataclasses.asdict(self.run)
        run["strategy"] = self.run.strategy.value
        nodes = self.run.fault.nodes
        run["fault"]["nodes"] = sorted(nodes) if nodes else None
        return {
            "name": self.name,
            "topology": topo,
            "link": dataclasses.asdict(self.link),
            "services": {
                name: dataclasses.asdict(svc)
                for name, svc in sorted(self.services.items())
            },
            "cohorts": [dataclasses.asdict(c) for c in self.cohorts],
            "workflow": dataclasses.asdict(self.workflow),
            "run": run,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_obj(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def resolve_cohort_counts(cohorts: tuple[CohortSpec, ...], n_nodes: int) -> list[int]:
    """Node count per cohort, in declaration order, summing to n_nodes.

    Pins and counts are taken literally; fraction cohorts split what is left
    after them by half-up rounding with a largest-remainder correction; a
    cohort with no sizing takes whatever remains at the end.
    """
    counts = [0] * len(cohorts)
    rest_idx = None
    fixed = 0
    for i, cohort in enumerate(cohorts):
        if cohort.addresses:
            counts[i] = len(cohort.addresses)
            fixed += counts[i]
        elif cohort.count is not None:
            counts[i] = cohort.count
            fixed += counts[i]
        elif cohort.fraction is None:
            rest_idx = i
    remaining = n_nodes - fixed
    frac_idx = [i for i, c in enumerate(cohorts)
                if c.fraction is not None and not c.addresses and c.count is None]
    if frac_idx:
        quotas = [cohorts[i].fraction * remaining for i in frac_idx]
        base = [int(q) for q in quotas]
        want = round(sum(quotas))
        order = sorted(range(len(frac_idx)),
                       key=lambda j: (-(quotas[j] - base[j]), j))
        for j in order[:max(0, want - sum(base))]:
            base[j] += 1
        for j, i in enumerate(frac_idx):
            counts[i] = base[j]
            remaining -= base[j]
    if rest_idx is not None:
        counts[rest_idx] = remaining
        remaining = 0
    if remaining != 0 or any(c < 0 for c in counts):
        raise ScenarioError([f"cohort sizes resolve to {counts} for "
                             f"{n_nodes} nodes"])
    return counts


_SERVICE_KEYS = {"mean", "jitter", "energy", "output_bytes", "params", "ext"}
_TOPOLOGY_KEYS = {
    "ring": {"kind", "nodes", "spacing_m"},
    "waypoint": {"kind", "nodes", "width_m", "height_m", "range_m",
                 "speed_min", "speed_max", "pause_max_s"},
}
_COHORT_KEYS = {"count", "fraction", "addresses", "cpu", "memory", "disk",
                "energy", "services", "client"}
_WORKFLOW_KEYS = {"tasks", "file", "ttl", "requirements", "input",
                  "offload_at", "repeat", "interval_s"}
_RUN_KEYS = {"seed", "duration_s", "tick_s", "announce_interval_s",
             "offer_expiry_s", "strategy", "weights", "preprocess_s",
             "postprocess_s", "stop_grace_s", "fault_rate", "fault_nodes",
             "fault_service", "fault_max_failures"}


class _Reader:
    """Typed key access over one INI section, collecting problems."""

    def __init__(self, section: str, raw: dict[str, str], problems: list[str],
                 subject: str = "") -> None:
        self.section = section
        self.raw = raw
        self.problems = problems
        # names the entry within the section that the keys belong to
        self.subject = subject

    def complain(self, msg: str) -> None:
        subject = f"{self.subject}: " if self.subject else ""
        self.problems.append(f"[{self.section}] {subject}{msg}")

    def check_keys(self, allowed: set[str]) -> None:
        for key in sorted(set(self.raw) - allowed):
            self.complain(f"unknown key {key!r}")

    def get_float(self, key: str, default: float, *, minimum: float = -math.inf,
                  maximum: float = math.inf, positive: bool = False,
                  allow_inf: bool = False) -> float:
        if key not in self.raw:
            return default
        try:
            value = float(self.raw[key])
        except ValueError:
            value = math.nan
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            self.complain(f"{key} is not a finite number: {self.raw[key]!r}")
            return default
        if positive and value <= 0:
            self.complain(f"{key} must be positive, got {value:g}")
        elif value < minimum:
            self.complain(f"{key} must be at least {minimum:g}, got {value:g}")
        elif value > maximum:
            self.complain(f"{key} must be at most {maximum:g}, got {value:g}")
        return value

    def get_int(self, key: str, default: int, *, minimum: int = 0,
                maximum: Optional[int] = None) -> int:
        if key not in self.raw:
            return default
        try:
            value = int(self.raw[key])
        except ValueError:
            self.complain(f"{key} is not an integer: {self.raw[key]!r}")
            return default
        if value < minimum:
            self.complain(f"{key} must be at least {minimum}, got {value}")
        elif maximum is not None and value > maximum:
            self.complain(f"{key} must be at most {maximum}, got {value}")
        return value

    def get_bool(self, key: str, default: bool) -> bool:
        if key not in self.raw:
            return default
        text = self.raw[key].strip().lower()
        if text in ("true", "yes", "1", "on"):
            return True
        if text in ("false", "no", "0", "off"):
            return False
        self.complain(f"{key} is not a boolean: {self.raw[key]!r}")
        return default

    def get_kv(self, key: str) -> dict[str, float]:
        """Parse `a=1, b=2.5` style values."""
        out: dict[str, float] = {}
        for item in self.raw.get(key, "").split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep:
                self.complain(f"{key}: expected name=value, got {item!r}")
                continue
            try:
                number = float(value)
            except ValueError:
                number = math.nan
            if math.isfinite(number):
                out[name.strip()] = number
            else:
                self.complain(f"{key}: {name.strip()} is not a finite number: {value!r}")
        return out

    def get_list(self, key: str) -> list[str]:
        return [item.strip() for item in self.raw.get(key, "").split(",")
                if item.strip()]


def _parse_topology(reader: _Reader) -> Topology:
    kind = reader.raw.get("kind", "ring").strip().lower()
    if kind not in _TOPOLOGY_KEYS:
        reader.complain(f"unknown topology kind {kind!r}")
        kind = "ring"
    reader.check_keys(_TOPOLOGY_KEYS[kind])
    nodes = reader.get_int("nodes", 8, minimum=2)
    if kind == "ring":
        return RingTopology(nodes=nodes,
                            spacing_m=reader.get_float("spacing_m", 100.0, positive=True))
    before = len(reader.problems)
    speed_min = reader.get_float("speed_min", 0.8, positive=True)
    speed_max = reader.get_float("speed_max", 1.9, positive=True)
    if len(reader.problems) == before and speed_min > speed_max:
        reader.complain(f"speed_min {speed_min:g} exceeds speed_max {speed_max:g}")
    return WaypointTopology(
        nodes=nodes,
        width_m=reader.get_float("width_m", 500.0, positive=True),
        height_m=reader.get_float("height_m", 500.0, positive=True),
        range_m=reader.get_float("range_m", 50.0, positive=True),
        speed_min=speed_min,
        speed_max=speed_max,
        pause_max_s=reader.get_float("pause_max_s", 60.0, minimum=0.0),
    )


def _parse_services(reader: _Reader) -> dict[str, ServiceDefinition]:
    services: dict[str, ServiceDefinition] = {}
    for name in reader.raw:
        fields = _Reader(reader.section, {}, reader.problems, subject=name)
        kv: dict[str, str] = {}
        for item in reader.raw[name].split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                reader.complain(f"{name}: expected key=value, got {item!r}")
                continue
            kv[key.strip()] = value.strip()
        fields.raw = kv
        fields.check_keys(_SERVICE_KEYS)
        if len(name.encode("utf-8")) > SERVICE_NAME_BYTES:
            reader.complain(f"{name}: name is longer than the {SERVICE_NAME_BYTES} "
                            f"UTF-8 bytes an offer record holds")
        services[name] = ServiceDefinition(
            name=name,
            param_count=fields.get_int("params", 1, minimum=0,
                                       maximum=MAX_PARAM_COUNT),
            exec_seconds_mean=fields.get_float("mean", 1.0, minimum=0.0),
            exec_seconds_jitter=fields.get_float("jitter", 0.0, minimum=0.0),
            output_size_bytes=fields.get_int("output_bytes", 1_000_000, minimum=0),
            energy_cost_e=fields.get_float("energy", 1.0, minimum=0.0),
            output_ext=kv.get("ext", "out"),
        )
    return services


def _parse_cohort(name: str, reader: _Reader,
                  services: dict[str, ServiceDefinition]) -> CohortSpec:
    reader.check_keys(_COHORT_KEYS)
    sizing = [key for key in ("count", "fraction", "addresses") if key in reader.raw]
    if len(sizing) > 1:
        reader.complain(f"give at most one of count/fraction/addresses, got {sizing}")
    count = reader.get_int("count", 0, minimum=0) if "count" in reader.raw else None
    fraction = None
    if "fraction" in reader.raw:
        fraction = reader.get_float("fraction", 0.0, minimum=0.0)
        if fraction > 1.0:
            reader.complain(f"fraction must be at most 1, got {fraction:g}")
    addresses: list[int] = []
    for item in reader.get_list("addresses"):
        try:
            addresses.append(int(item))
        except ValueError:
            reader.complain(f"addresses: not an integer: {item!r}")
    offered = tuple(reader.get_list("services"))
    for svc in offered:
        if svc not in services:
            reader.complain(f"unknown service {svc!r}")
    return CohortSpec(
        name=name,
        count=count,
        fraction=fraction,
        addresses=tuple(addresses),
        cpu=reader.get_float("cpu", 1.0, positive=True),
        memory=reader.get_float("memory", 1024.0, positive=True),
        disk=reader.get_float("disk", 4096.0, positive=True),
        energy=reader.get_float("energy", 100.0, minimum=0.0),
        services=offered,
        client=reader.get_bool("client", False),
    )


def _parse_workflow(reader: _Reader, base_dir: Optional[str],
                    services: dict[str, ServiceDefinition]) -> WorkflowSpec:
    reader.check_keys(_WORKFLOW_KEYS)
    text = reader.raw.get("tasks", "")
    if "file" in reader.raw:
        if text:
            reader.complain("give either tasks or file, not both")
        else:
            path = reader.raw["file"]
            if base_dir is not None:
                path = os.path.join(base_dir, path)
            try:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                reader.complain(f"cannot read workflow file: {exc}")
    defaults = reader.get_kv("requirements")
    for metric, value in sorted(defaults.items()):
        if metric not in ALL_METRICS:
            reader.complain(f"requirements: unknown metric {metric!r}")
        elif value <= 0:
            reader.complain(f"requirements: {metric} must be positive")
    try:
        desc = parse_workflow(text)
        if "ttl" in reader.raw:
            ttl = reader.get_float("ttl", desc.ttl_seconds, positive=True,
                                   allow_inf=True)
            desc = dataclasses.replace(desc, ttl_seconds=ttl)
        if defaults:
            tasks = [
                dataclasses.replace(task, requirements={**defaults, **task.requirements})
                for task in desc.tasks
            ]
            desc = dataclasses.replace(desc, tasks=tasks)
        for idx, task in enumerate(desc.tasks):
            if task.service_name not in services:
                reader.complain(f"task {idx} uses unknown service "
                                f"{task.service_name!r}")
        text = format_description(desc)
    except WorkflowParseError as exc:
        reader.complain(f"tasks: {exc}")
    files: dict[str, int] = {}
    for item in reader.get_list("input"):
        name, sep, size = item.partition(":")
        if not sep:
            reader.complain(f"input: expected name:bytes, got {item!r}")
            continue
        try:
            files[name.strip()] = int(size)
        except ValueError:
            reader.complain(f"input: size is not an integer: {size!r}")
    return WorkflowSpec(
        text=text,
        files=files,
        offload_at=reader.get_float("offload_at", 10.0, minimum=0.0),
        repeat=reader.get_int("repeat", 1, minimum=1),
        interval_s=reader.get_float("interval_s", 0.0, minimum=0.0),
    )


def _parse_run(reader: _Reader, n_nodes: int,
               services: dict[str, ServiceDefinition]) -> RunSettings:
    reader.check_keys(_RUN_KEYS)
    default = RunSettings()
    strategy = default.strategy
    if "strategy" in reader.raw:
        try:
            strategy = Strategy(reader.raw["strategy"].strip().lower())
        except ValueError:
            reader.complain(f"unknown strategy {reader.raw['strategy']!r}")
    weights = default.weights
    if "weights" in reader.raw:
        candidate = reader.get_kv("weights")
        try:
            weights = validate_weights(candidate)
        except ValueError as exc:
            reader.complain(f"weights: {exc}")
    fault_nodes = None
    if reader.raw.get("fault_nodes", "").strip():
        nodes = []
        for item in reader.get_list("fault_nodes"):
            try:
                nodes.append(int(item))
            except ValueError:
                reader.complain(f"fault_nodes: not an integer: {item!r}")
        for addr in sorted(set(nodes)):
            if not 1 <= addr <= n_nodes:
                reader.complain(f"fault_nodes: address {addr} outside 1..{n_nodes}")
        fault_nodes = frozenset(nodes)
    fault_service = reader.raw.get("fault_service", "").strip() or None
    if fault_service is not None and fault_service not in services:
        reader.complain(f"fault_service {fault_service!r} is not under [services]")
    max_failures = None
    if reader.raw.get("fault_max_failures", "").strip():
        max_failures = reader.get_int("fault_max_failures", 0, minimum=0)
    fault = FaultPlan(
        rate=reader.get_float("fault_rate", default.fault.rate, minimum=0.0,
                              maximum=1.0),
        nodes=fault_nodes,
        service=fault_service,
        max_failures=max_failures,
    )
    return RunSettings(
        seed=reader.get_int("seed", default.seed, minimum=0),
        duration_s=reader.get_float("duration_s", default.duration_s, positive=True),
        tick_s=reader.get_float("tick_s", default.tick_s, positive=True),
        announce_interval_s=reader.get_float("announce_interval_s",
                                             default.announce_interval_s,
                                             positive=True),
        offer_expiry_s=reader.get_float("offer_expiry_s", default.offer_expiry_s,
                                        positive=True),
        strategy=strategy,
        weights=weights,
        preprocess_s=reader.get_float("preprocess_s", default.preprocess_s,
                                      minimum=0.0),
        postprocess_s=reader.get_float("postprocess_s", default.postprocess_s,
                                       minimum=0.0),
        stop_grace_s=reader.get_float("stop_grace_s", default.stop_grace_s,
                                      minimum=0.0),
        fault=fault,
    )


def parse_scenario(text: str, *, name: str = "inline",
                   base_dir: Optional[str] = None) -> ScenarioConfig:
    """Parse scenario INI text; raises ScenarioError listing every problem."""
    problems: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ScenarioError([str(exc).replace("\n", " ")]) from exc

    known = {"scenario", "topology", "link", "services", "workflow", "run"}
    for section in parser.sections():
        if section not in known and not section.startswith("cohort:"):
            problems.append(f"unknown section [{section}]")

    def reader(section: str) -> _Reader:
        raw = dict(parser[section]) if parser.has_section(section) else {}
        return _Reader(section, raw, problems)

    meta = reader("scenario")
    meta.check_keys({"name"})
    name = meta.raw.get("name", name).strip() or name

    topology = _parse_topology(reader("topology"))
    link_reader = reader("link")
    link_reader.check_keys({"bandwidth_mbit", "latency_ms"})
    link = LinkModel(
        bandwidth_bps=link_reader.get_float("bandwidth_mbit", 54.0, positive=True) * 1e6,
        latency_s=link_reader.get_float("latency_ms", 20.0, minimum=0.0) / 1e3,
    )
    services = _parse_services(reader("services"))

    cohorts: list[CohortSpec] = []
    for section in parser.sections():
        if section.startswith("cohort:"):
            cohort_name = section.partition(":")[2].strip()
            cohorts.append(_parse_cohort(cohort_name, reader(section), services))
    if not cohorts:
        problems.append("no [cohort:*] sections")
    if sum(1 for c in cohorts
           if c.count is None and c.fraction is None and not c.addresses) > 1:
        problems.append("only one cohort may omit count/fraction/addresses")
    seen_addresses: set[int] = set()
    for cohort in cohorts:
        for addr in cohort.addresses:
            if addr in seen_addresses:
                problems.append(f"address {addr} pinned by more than one cohort")
            seen_addresses.add(addr)
            if not 1 <= addr <= topology.nodes:
                problems.append(f"pinned address {addr} outside 1..{topology.nodes}")
    if not any(c.client for c in cohorts):
        problems.append("no cohort is marked client = true")

    workflow = _parse_workflow(reader("workflow"), base_dir, services)
    run = _parse_run(reader("run"), topology.nodes, services)

    config = ScenarioConfig(name=name, topology=topology, link=link,
                            services=services, cohorts=tuple(cohorts),
                            workflow=workflow, run=run)
    if not problems:
        try:
            resolve_cohort_counts(config.cohorts, topology.nodes)
        except ScenarioError as exc:
            problems.extend(exc.problems)
    if problems:
        raise ScenarioError(problems)
    return config


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario INI from disk; relative workflow files resolve beside it."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=stem, base_dir=os.path.dirname(path) or ".")
