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

Each scalar key is a `_Key` row in its section's table (INI name, field,
type, bounds, unit scale); a section accepts its rows plus the few keys read
by hand. A `name=value` list (a service profile, `requirements`, `weights`,
or `input` with `:`) is read as a section of its own, so its names and
values are checked by `_Key` rows too. Only keys the file sets are read, so
each default is the dataclass's.

Validation is collected rather than fail-fast: a bad file raises one
ScenarioError listing every problem found. A key that draws a problem reads
as unset, so its default stands in for the cross-checks that follow.

Every accepted scenario ends, and bounds what it allocates before its first
event:
  - A periodic event (`tick_s`, `announce_interval_s`) reschedules itself at
    now + period. A period below one ulp of the clock would round back to
    now and stop simulated time, so a run could never end. Each period must
    fit at most `MAX_ROUNDS` times into `duration_s`. That bounds the events
    it makes per node, and keeps it far above one ulp of every time up to
    the cap, since an ulp is at most 2**-52 of the time.
  - Building a world allocates per node (three RNGs, a store and its views)
    and per offload (one scheduled event) before anything runs, so `nodes`
    is at most `MAX_NODES` and clients x `repeat` at most `MAX_OFFLOADS`.
  - Every length (`spacing_m`, `width_m`, `height_m`, `range_m`) lies in
    [`MIN_LENGTH_M`, `MAX_LENGTH_M`]. That keeps the contact detector's
    cell index (a coordinate over the range) and every squared distance
    finite, and keeps the slots of a ring of up to `MAX_NODES` nodes
    finite and distinct.
The bounds sit far above every packaged and benchmark scenario, whose
largest values are 3,600 ticks, 150 nodes and 15 offloads, and far outside
their lengths, which run from 40 m to 600 m.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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

    nodes: int = 8
    spacing_m: float = 100.0

    kind = "ring"


@dataclass(frozen=True)
class WaypointTopology:
    """Random-waypoint mobility on a rectangle with a radio disc range."""

    nodes: int = 8
    width_m: float = 500.0
    height_m: float = 500.0
    range_m: float = 50.0
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
        obj = dataclasses.asdict(self)
        obj["topology"]["kind"] = self.topology.kind
        obj["run"]["strategy"] = self.run.strategy.value
        nodes = self.run.fault.nodes
        obj["run"]["fault"]["nodes"] = sorted(nodes) if nodes else None
        return obj

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


@dataclass(frozen=True)
class _Key:
    """One scalar INI key: the field it sets, its type and its bounds."""

    name: str
    attr: str = ""              # the dataclass field, when not named like the key
    kind: type = float          # int, float, bool or str
    minimum: float = -math.inf
    maximum: float = math.inf
    positive: bool = False
    allow_inf: bool = False
    scale: Optional[Callable[[float], float]] = None   # INI unit -> field unit


MAX_ROUNDS = 1_000_000
MAX_NODES = 10_000
MAX_OFFLOADS = 100_000
# metres, for every length of the geometry
MIN_LENGTH_M = 1e-6
MAX_LENGTH_M = 1e9


def _keys(*names: str, **bounds: object) -> tuple[_Key, ...]:
    return tuple(_Key(name, **bounds) for name in names)


_NODES = _Key("nodes", kind=int, minimum=2, maximum=MAX_NODES)
_TOPOLOGY_KEYS = {
    RingTopology: (_NODES, _Key("spacing_m", minimum=MIN_LENGTH_M, maximum=MAX_LENGTH_M)),
    WaypointTopology: (_NODES, *_keys("width_m", "height_m", "range_m",
                                      minimum=MIN_LENGTH_M, maximum=MAX_LENGTH_M),
                       *_keys("speed_min", "speed_max", positive=True),
                       _Key("pause_max_s", minimum=0.0))}
# multiply and divide as written: `* 1e-3` is another double, and latency_s
# is part of the config digest
_LINK_KEYS = (
    _Key("bandwidth_mbit", "bandwidth_bps", positive=True, scale=lambda v: v * 1e6),
    _Key("latency_ms", "latency_s", minimum=0.0, scale=lambda v: v / 1e3))
_SERVICE_KEYS = (
    _Key("params", "param_count", int, minimum=0, maximum=MAX_PARAM_COUNT),
    _Key("mean", "exec_seconds_mean", minimum=0.0),
    _Key("jitter", "exec_seconds_jitter", minimum=0.0),
    _Key("output_bytes", "output_size_bytes", int, minimum=0),
    _Key("energy", "energy_cost_e", minimum=0.0),
    _Key("ext", "output_ext", str))
_COHORT_KEYS = (_Key("count", kind=int, minimum=0),
                _Key("fraction", minimum=0.0, maximum=1.0),
                *_keys("cpu", "memory", "disk", positive=True),
                _Key("energy", minimum=0.0), _Key("client", kind=bool))
_TTL = _Key("ttl", positive=True, allow_inf=True)
_WORKFLOW_KEYS = (_Key("offload_at", minimum=0.0),
                  _Key("repeat", kind=int, minimum=1, maximum=MAX_OFFLOADS),
                  _Key("interval_s", minimum=0.0))
_REQUIREMENT_KEYS = _keys(*ALL_METRICS, positive=True)
_FAULT_KEYS = (_Key("fault_max_failures", "max_failures", int, minimum=0),
               _Key("fault_rate", "rate", minimum=0.0, maximum=1.0))
_RUN_KEYS = (_Key("seed", kind=int, minimum=0),
             *_keys("duration_s", "tick_s", "announce_interval_s", "offer_expiry_s",
                    positive=True),
             *_keys("preprocess_s", "postprocess_s", "stop_grace_s", minimum=0.0))
_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}
_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number"}


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

    def refuse_repeats(self, names: list, key: str = "") -> None:
        """Complain once about each name that a list gives more than once."""
        prefix = f"{key}: " if key else ""
        for name, count in Counter(names).items():
            if count > 1:
                self.complain(f"{prefix}{name} is given more than once")

    def check_keys(self, keys: tuple[_Key, ...], *by_hand: str) -> None:
        allowed = {key.name for key in keys}.union(by_hand)
        for key in sorted(set(self.raw) - allowed):
            self.complain(f"unknown key {key!r}")

    def value(self, key: _Key) -> object:
        """The key's checked value in the field's unit; None if unset or bad."""
        text = self.raw.get(key.name)
        if text is None or key.kind is str:
            return text
        try:
            value = _BOOLS[text.strip().lower()] if key.kind is bool else key.kind(text)
        except (KeyError, ValueError):
            value = None
        if key.kind is float and value is not None and (
                math.isnan(value) or math.isinf(value) and not key.allow_inf):
            value = None
        if value is None:
            self.complain(f"{key.name} is not {_KINDS[key.kind]}: {text!r}")
            return None
        show = str if key.kind is int else "{:g}".format
        if key.positive and value <= 0:
            problem = f"must be positive, got {show(value)}"
        elif value < key.minimum:
            problem = f"must be at least {show(key.minimum)}, got {show(value)}"
        elif value > key.maximum:
            problem = f"must be at most {show(key.maximum)}, got {show(value)}"
        else:
            return value if key.scale is None else key.scale(value)
        self.complain(f"{key.name} {problem}")
        return None

    def values(self, keys: tuple[_Key, ...]) -> dict[str, object]:
        """Field name -> checked value, for the keys the section sets well."""
        return {key.attr or key.name: value for key in keys
                if (value := self.value(key)) is not None}

    def items(self, key: str) -> list[str]:
        """The stripped, non-blank items of the comma list under key."""
        return [item.strip() for item in self.raw.get(key, "").split(",")
                if item.strip()]

    def entries(self, key: str, sep: str = "=") -> _Reader:
        """The `name<sep>value` list under key, read as a section of its own."""
        entries = _Reader(self.section, {}, self.problems, subject=key)
        names: list[str] = []
        for item in self.items(key):
            name, found, value = (part.strip() for part in item.partition(sep))
            if not (found and name):
                entries.complain(f"expected name{sep}value, got {item!r}")
                continue
            names.append(name)
            entries.raw[name] = value
        entries.refuse_repeats(names)
        return entries

    def get_addresses(self, key: str) -> Optional[list[int]]:
        """The distinct node addresses listed under key; None if unset or blank."""
        if not self.raw.get(key, "").strip():
            return None
        out: list[int] = []
        items = self.items(key)
        if not items:
            self.complain(f"{key}: no address given")
        for item in items:
            try:
                out.append(int(item))
            except ValueError:
                self.complain(f"{key}: not an integer: {item!r}")
        self.refuse_repeats(out, key)
        return list(dict.fromkeys(out))


def _parse_topology(reader: _Reader) -> Topology:
    kinds = {cls.kind: cls for cls in _TOPOLOGY_KEYS}
    kind = reader.raw.get("kind", "ring").strip().lower()
    if kind not in kinds:
        reader.complain(f"unknown topology kind {kind!r}")
        kind = "ring"
    keys = _TOPOLOGY_KEYS[kinds[kind]]
    reader.check_keys(keys, "kind")
    values = reader.values(keys)
    topology = kinds[kind](**values)
    # compare only speeds that were read well: a bad one reads as its default
    speeds = [key for key in ("speed_min", "speed_max") if key in reader.raw]
    if kind == "waypoint" and all(key in values for key in speeds) \
            and topology.speed_min > topology.speed_max:
        reader.complain(f"speed_min {topology.speed_min:g} exceeds "
                        f"speed_max {topology.speed_max:g}")
    return topology


def _parse_services(reader: _Reader) -> dict[str, ServiceDefinition]:
    services: dict[str, ServiceDefinition] = {}
    for name in reader.raw:
        fields = reader.entries(name)
        fields.check_keys(_SERVICE_KEYS)
        if len(name.encode("utf-8")) > SERVICE_NAME_BYTES:
            fields.complain(f"name is longer than the {SERVICE_NAME_BYTES} "
                            f"UTF-8 bytes an offer record holds")
        elif name.endswith("\x00"):
            # the record layout pads a name with NUL, so a trailing one is lost
            fields.complain("name ends in a NUL byte, which an offer record drops")
        services[name] = ServiceDefinition(name=name, **fields.values(_SERVICE_KEYS))
    return services


def _parse_cohort(name: str, reader: _Reader,
                  services: dict[str, ServiceDefinition]) -> CohortSpec:
    reader.check_keys(_COHORT_KEYS, "addresses", "services")
    sizing = [key for key in ("count", "fraction", "addresses") if key in reader.raw]
    if len(sizing) > 1:
        reader.complain(f"give at most one of count/fraction/addresses, got {sizing}")
    values = reader.values(_COHORT_KEYS)
    addresses = reader.get_addresses("addresses")
    # a bad count, fraction or address list still sizes the cohort, so it is
    # not a remainder
    for key in ("count", "fraction"):
        if key in reader.raw:
            values.setdefault(key, 0)
    if addresses == []:
        values.setdefault("count", 0)
    listed = reader.items("services")
    reader.refuse_repeats(listed, "services")
    offered = tuple(dict.fromkeys(listed))
    for svc in offered:
        if svc not in services:
            reader.complain(f"unknown service {svc!r}")
    return CohortSpec(name=name, addresses=tuple(addresses or ()), services=offered,
                      **values)


def _parse_workflow(reader: _Reader, base_dir: Optional[str],
                    services: dict[str, ServiceDefinition]) -> WorkflowSpec:
    reader.check_keys(_WORKFLOW_KEYS + (_TTL,), "tasks", "file", "requirements",
                      "input")
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
            except (OSError, ValueError) as exc:
                # ValueError: a NUL byte in the path, or text that is not UTF-8
                reader.complain(f"cannot read workflow file: {exc}")
    required = reader.entries("requirements")
    required.check_keys(_REQUIREMENT_KEYS)
    defaults = required.values(_REQUIREMENT_KEYS)
    try:
        desc = parse_workflow(text)
        ttl = reader.value(_TTL)
        if ttl is not None:
            desc = dataclasses.replace(desc, ttl_seconds=ttl)
        if defaults:
            tasks = tuple(
                dataclasses.replace(task, requirements={**defaults, **task.requirements})
                for task in desc.tasks
            )
            desc = dataclasses.replace(desc, tasks=tasks)
        for idx, task in enumerate(desc.tasks):
            if task.service_name not in services:
                reader.complain(f"task {idx} uses unknown service "
                                f"{task.service_name!r}")
        text = format_description(desc)
    except WorkflowParseError as exc:
        reader.complain(f"tasks: {exc}")
    sizes = reader.entries("input", ":")
    files = sizes.values(tuple(_Key(name, kind=int, minimum=0) for name in sizes.raw))
    return WorkflowSpec(text=text, files=files, **reader.values(_WORKFLOW_KEYS))


def _parse_run(reader: _Reader, n_nodes: int,
               services: dict[str, ServiceDefinition]) -> RunSettings:
    reader.check_keys(_RUN_KEYS + _FAULT_KEYS, "strategy", "weights",
                      "fault_nodes", "fault_service")
    # an empty fault key means "not set"
    for key in [key for key, text in reader.raw.items()
                if key.startswith("fault_") and not text.strip()]:
        del reader.raw[key]
    settings = {}
    if "strategy" in reader.raw:
        try:
            settings["strategy"] = Strategy(reader.raw["strategy"].strip().lower())
        except ValueError:
            reader.complain(f"unknown strategy {reader.raw['strategy']!r}")
    if "weights" in reader.raw:
        known = len(reader.problems)
        weights = reader.entries("weights")
        values = weights.values(tuple(_Key(name, minimum=0.0) for name in weights.raw))
        # a sum over what is left of a bad list would be a second, derived problem
        if len(reader.problems) == known:
            try:
                settings["weights"] = validate_weights(values)
            except ValueError as exc:
                reader.complain(f"weights: {exc}")
    nodes = reader.get_addresses("fault_nodes")
    for addr in sorted(nodes or ()):
        if not 1 <= addr <= n_nodes:
            reader.complain(f"fault_nodes: address {addr} outside 1..{n_nodes}")
    fault_nodes = None if nodes is None else frozenset(nodes)
    fault_service = reader.raw.get("fault_service", "").strip() or None
    if fault_service is not None and fault_service not in services:
        reader.complain(f"fault_service {fault_service!r} is not under [services]")
    fault = FaultPlan(nodes=fault_nodes, service=fault_service,
                      **reader.values(_FAULT_KEYS))
    run = RunSettings(fault=fault, **settings, **reader.values(_RUN_KEYS))
    for key in ("tick_s", "announce_interval_s"):
        period = getattr(run, key)
        if period * MAX_ROUNDS < run.duration_s:
            reader.complain(f"{key} {period:g} repeats more than {MAX_ROUNDS} times "
                            f"in duration_s {run.duration_s:g}")
    return run


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
    meta.check_keys((), "name")
    name = meta.raw.get("name", name).strip() or name

    topology = _parse_topology(reader("topology"))
    link_reader = reader("link")
    link_reader.check_keys(_LINK_KEYS)
    link = LinkModel(**link_reader.values(_LINK_KEYS))
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
            counts = resolve_cohort_counts(config.cohorts, topology.nodes)
        except ScenarioError as exc:
            problems.extend(exc.problems)
        else:
            clients = sum(count for count, cohort in zip(counts, cohorts) if cohort.client)
            if clients * workflow.repeat > MAX_OFFLOADS:
                problems.append(f"[workflow] repeat {workflow.repeat} for {clients} "
                                f"clients is more than {MAX_OFFLOADS} offloads")
    if problems:
        raise ScenarioError(problems)
    return config


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario INI from disk; relative workflow files resolve beside it."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte in the path, or text that is not UTF-8
        raise ScenarioError([f"cannot read scenario file: {exc}"]) from None
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_scenario(text, name=stem, base_dir=os.path.dirname(path) or ".")
