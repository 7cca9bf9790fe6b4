"""Scenario configuration: INI files describing topology, services, and runs.

A scenario file has the sections

  [scenario]    name
  [topology]    kind = ring | waypoint, plus geometry keys
  [link]        bandwidth_mbit, latency_ms
  [services]    one key per service: mean=, jitter=, energy=, output_bytes=, ...
  [cohort:X]    node groups: count= / fraction= / addresses= (or nothing for
                the single remainder cohort), capability caps, offered services
  [workflow]    the task list (inline or file=), input file sizes, offload times
  [run]         seed, duration, strategy, rating weights, fault injection

Each scalar key is read by a `Key` row (INI name, field, kind, bounds; see
`bounds`), and each bounded type keeps its own rows beside it and applies
them when built: the topologies, cohorts, workflow and run here, the link
and the waypoint geometry in `simnet`, services and the fault plan in
`runtime`. So a hand-built value is refused like a parsed one, in the same
words. A section accepts its rows plus the few keys read by hand. A
`name=value` list (a service profile, `requirements`, `weights`, or `input`
with `:`) is read as a section of its own, so its names and values are
checked by rows too. Only keys the file sets are read, so each default is
the dataclass's. The parser keeps only what no one type can say: reading
text, the link's INI units, and the rules that join sections (addresses
within 1..nodes, known services, the offload count).

Validation is collected rather than fail-fast: a bad file raises one
ScenarioError listing every problem found. A key that draws a problem reads
as unset, so its default stands in for the cross-checks that follow. A rule
across a type's fields (`speed_min` against `speed_max`, the period rule)
is said once, on the type, and the parser reports it under its section;
one that names a refused key would be derived from that key's default, so
it goes unsaid.

Every accepted scenario ends, and bounds what it allocates before its first
event:
  - A periodic event (`tick_s`, `announce_interval_s`) reschedules itself at
    now + period. A period below one ulp of the clock would round back to
    now and stop simulated time, so a run could never end. Each period must
    fit at most `MAX_ROUNDS` times into `duration_s`, a rule `RunSettings`
    states. That bounds the events it makes per node, and keeps it far
    above one ulp of every time up to the cap, since an ulp is at most
    2**-52 of the time.
  - Building a world allocates per node (a store, and in a waypoint world
    a mobility stream) and per offload (one scheduled event) before
    anything runs, so `nodes` is at most `MAX_NODES` and clients x
    `repeat` at most `MAX_OFFLOADS`.
  - Every length (`spacing_m`, `width_m`, `height_m`, `range_m`) lies in
    [`MIN_LENGTH_M`, `MAX_LENGTH_M`]. That keeps the contact detector's
    cell index (a coordinate over the range) and every squared distance
    finite, and keeps the slots of a ring of up to `MAX_NODES` nodes
    finite and distinct.
  - Every file size (`input`, `output_bytes`) is at most `MAX_FILE_BYTES`,
    the archive layout's 64-bit content length. That bounds no transfer's
    duration: on a slow enough link (`bandwidth_mbit = 1e-300` with a size
    near the bound) a transfer takes `inf` s and never completes, and the
    run still ends by `duration_s`.
  - `bandwidth_mbit` is at most `MAX_BANDWIDTH_MBIT`, so the link's rate
    in bits per second is finite, as `LinkModel`'s rows require.
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
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

from .announce import (DEFAULT_ANNOUNCE_INTERVAL_S, DEFAULT_OFFER_EXPIRY_S,
                       SERVICE_NAME_BYTES)
from .assignment import DEFAULT_WEIGHTS, Strategy, validate_weights
from .bounds import (MAX_BANDWIDTH_MBIT, MAX_LENGTH_M, MAX_NODES, MAX_OFFLOADS,
                     MAX_ROUNDS, MIN_LENGTH_M, Key, ScenarioError, check, keys)
from .runtime import FILE_BYTES, FaultPlan, ServiceDefinition
from .simnet import TICK, WAYPOINT_KEYS, LinkModel, speeds_in_order
from .workflow import (ALL_METRICS, WorkflowParseError, format_description,
                       parse as parse_workflow)

_NODES = Key("nodes", kind=int, minimum=2, maximum=MAX_NODES)


@dataclass(frozen=True)
class RingTopology:
    """Static ring: node i sits on a circle, adjacent only to its neighbors."""

    nodes: int = 8
    spacing_m: float = 100.0

    kind = "ring"
    rows = (_NODES, Key("spacing_m", minimum=MIN_LENGTH_M, maximum=MAX_LENGTH_M))

    def __post_init__(self) -> None:
        check(self, self.rows)


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
    rows = (_NODES, *WAYPOINT_KEYS)

    def __post_init__(self) -> None:
        check(self, self.rows, speeds_in_order)


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

    rows = (Key("count", kind=int, minimum=0), Key("fraction", minimum=0.0, maximum=1.0),
            *keys("cpu", "memory", "disk", positive=True),
            Key("energy", minimum=0.0), Key("client", kind=bool))

    def __post_init__(self) -> None:
        check(self, self.rows)


def _file_sizes(spec: WorkflowSpec) -> list[str]:
    return [f"files: {name} {problem}" for name, size in spec.files.items()
            if (problem := FILE_BYTES.problem(size)) is not None]


@dataclass(frozen=True)
class WorkflowSpec:
    """What the clients offload and when."""

    text: str
    files: dict[str, int] = field(default_factory=dict)
    offload_at: float = 10.0
    repeat: int = 1
    interval_s: float = 0.0

    # each of `files`' sizes meets FILE_BYTES
    rows = (Key("offload_at", minimum=0.0),
            Key("repeat", kind=int, minimum=1, maximum=MAX_OFFLOADS),
            Key("interval_s", minimum=0.0))

    def __post_init__(self) -> None:
        check(self, self.rows, _file_sizes)


def _periods(run: RunSettings) -> list[str]:
    return [f"{key} {period:g} repeats more than {MAX_ROUNDS} times "
            f"in duration_s {run.duration_s:g}"
            for key, period in (("tick_s", run.tick_s),
                                ("announce_interval_s", run.announce_interval_s))
            if period * MAX_ROUNDS < run.duration_s]


@dataclass(frozen=True)
class RunSettings:
    """The only run configuration, parsed or hand-built; it holds no run state.

    Either way it meets its `rows`, the `[run]` keys, and the `MAX_ROUNDS`
    period rule, and raises ScenarioError listing what does not.
    """

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

    rows = (Key("seed", kind=int, minimum=0),
            Key("duration_s", positive=True), dataclasses.replace(TICK, name="tick_s"),
            *keys("announce_interval_s", "offer_expiry_s", positive=True),
            *keys("preprocess_s", "postprocess_s", "stop_grace_s", minimum=0.0))

    def __post_init__(self) -> None:
        check(self, self.rows, _periods)
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
        changes = {key: value for key, value in (("seed", seed), ("strategy", strategy))
                   if value is not None}
        return dataclasses.replace(self, run=dataclasses.replace(self.run, **changes))

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
    frac_idx: list[int] = []
    rest_idx = None
    for i, cohort in enumerate(cohorts):
        if cohort.addresses:
            counts[i] = len(cohort.addresses)
        elif cohort.count is not None:
            counts[i] = cohort.count
        elif cohort.fraction is not None:
            frac_idx.append(i)
        else:
            rest_idx = i
    remaining = n_nodes - sum(counts)
    if frac_idx:
        quotas = [cohorts[i].fraction * remaining for i in frac_idx]
        base = [int(q) for q in quotas]
        want = round(sum(quotas))
        order = sorted(range(len(frac_idx)), key=lambda j: (-(quotas[j] - base[j]), j))
        for j in order[:max(0, want - sum(base))]:
            base[j] += 1
        for j, i in enumerate(frac_idx):
            counts[i] = base[j]
    if rest_idx is not None:
        counts[rest_idx] = n_nodes - sum(counts)
    if sum(counts) != n_nodes or any(c < 0 for c in counts):
        raise ScenarioError([f"cohort sizes resolve to {counts} for {n_nodes} nodes"])
    return counts


# the file gives the link's rate and latency in other units than its
# fields, so these rows bound them as written, and a problem shows the
# file's own value; the rate's cap keeps its value in bits per second finite,
# as `LinkModel.rows` need. Multiply and divide as written: `* 1e-3` is another
# double, and latency_s is part of the config digest
_LINK_KEYS = (
    Key("bandwidth_mbit", "bandwidth_bps", positive=True, maximum=MAX_BANDWIDTH_MBIT,
        scale=lambda v: v * 1e6),
    Key("latency_ms", "latency_s", minimum=0.0, scale=lambda v: v / 1e3))
_TTL = Key("ttl", positive=True, allow_inf=True)
_REQUIREMENT_KEYS = keys(*ALL_METRICS, positive=True)


class _Reader:
    """Typed key access over one INI section, collecting problems."""

    def __init__(self, section: str, raw: dict[str, str], problems: list[str],
                 subject: str = "") -> None:
        self.section = section
        self.raw = raw
        self.problems = problems
        # names the entry within the section that the keys belong to
        self.subject = subject
        # the keys set but refused; each reads as its default, so a check
        # against one would only add a derived problem
        self.refused: set[str] = set()

    def complain(self, msg: str) -> None:
        subject = f"{self.subject}: " if self.subject else ""
        self.problems.append(f"[{self.section}] {subject}{msg}")

    def refuse_repeats(self, names: list, key: str = "") -> None:
        """Complain once about each name that a list gives more than once."""
        prefix = f"{key}: " if key else ""
        for name, count in Counter(names).items():
            if count > 1:
                self.complain(f"{prefix}{name} is given more than once")

    def check_keys(self, keys: tuple[Key, ...], *by_hand: str) -> None:
        allowed = {key.name for key in keys}.union(by_hand)
        for key in sorted(set(self.raw) - allowed):
            self.complain(f"unknown key {key!r}")

    def value(self, key: Key) -> object:
        """The key's checked value in the field's unit; None if unset or bad."""
        text = self.raw.get(key.name)
        if text is None or key.kind is str:
            return text
        try:
            value = (configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
                     if key.kind is bool else key.kind(text))
        except (KeyError, ValueError):
            value = None
        # a written NaN reads as no number at all
        problem = key.problem(None if value != value else value, text)
        if problem is None:
            return value if key.scale is None else key.scale(value)
        self.complain(f"{key.name} {problem}")
        self.refused.add(key.name)
        return None

    def read(self, keys: tuple[Key, ...], *by_hand: str) -> dict[str, object]:
        """`values` of a section whose keys are these rows and `by_hand`."""
        self.check_keys(keys, *by_hand)
        return self.values(keys)

    def values(self, keys: tuple[Key, ...]) -> dict[str, object]:
        """Field name -> checked value, for the keys the section sets well."""
        return {key.attr or key.name: value for key in keys
                if (value := self.value(key)) is not None}

    def build(self, cls: type, **values: object) -> object:
        """cls(**values); if its check refuses them, each problem is said
        under the section and cls() stands in, as the file is refused.

        The rows took every value already, so each problem is one of a rule
        across the type's fields. One that names a refused key would be
        derived from that key's default, so it goes unsaid.
        """
        try:
            return cls(**values)
        except ScenarioError as exc:
            for problem in exc.problems:
                if self.refused.isdisjoint(problem.split()):
                    self.complain(problem)
            return cls()

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

    def get_addresses(self, key: str, n_nodes: Optional[int]) -> Optional[list[int]]:
        """The distinct node addresses listed under key; None if unset or blank.

        An address outside 1..n_nodes is a problem, unless n_nodes is None.
        """
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
        for addr in sorted(set(out)):
            if n_nodes is not None and not 1 <= addr <= n_nodes:
                self.complain(f"{key}: address {addr} outside 1..{n_nodes}")
        return list(dict.fromkeys(out))


def _parse_topology(reader: _Reader) -> tuple[Topology, Optional[int]]:
    """The topology, and its node count unless the file's was refused."""
    kinds = {cls.kind: cls for cls in (RingTopology, WaypointTopology)}
    kind = reader.raw.get("kind", "ring").strip().lower()
    if kind not in kinds:
        reader.complain(f"unknown topology kind {kind!r}")
    cls = kinds.get(kind, RingTopology)
    values = reader.read(cls.rows, "kind")
    # with `nodes` refused, no address range is checked
    n_nodes = None if _NODES.name in reader.refused else values.get("nodes", cls.nodes)
    return reader.build(cls, **values), n_nodes


def _parse_services(reader: _Reader) -> dict[str, ServiceDefinition]:
    services: dict[str, ServiceDefinition] = {}
    for name in reader.raw:
        fields = reader.entries(name)
        fields.check_keys(ServiceDefinition.rows)
        if len(name.encode("utf-8")) > SERVICE_NAME_BYTES:
            fields.complain(f"name is longer than the {SERVICE_NAME_BYTES} "
                            f"UTF-8 bytes an offer record holds")
        elif name.endswith("\x00"):
            # the record layout pads a name with NUL, so a trailing one is lost
            fields.complain("name ends in a NUL byte, which an offer record drops")
        services[name] = ServiceDefinition(name, **fields.values(ServiceDefinition.rows))
    return services


def _parse_cohort(name: str, reader: _Reader, n_nodes: Optional[int],
                  services: dict[str, ServiceDefinition]) -> CohortSpec:
    reader.check_keys(CohortSpec.rows, "addresses", "services")
    sizing = [key for key in ("count", "fraction", "addresses") if key in reader.raw]
    if len(sizing) > 1:
        reader.complain(f"give at most one of count/fraction/addresses, got {sizing}")
    values = reader.values(CohortSpec.rows)
    addresses = reader.get_addresses("addresses", n_nodes)
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


def _parse_workflow(reader: _Reader, base_dir: Optional[str], n_nodes: Optional[int],
                    services: dict[str, ServiceDefinition]) -> WorkflowSpec:
    reader.check_keys(WorkflowSpec.rows + (_TTL,), "tasks", "file", "requirements", "input")
    text = reader.raw.get("tasks", "")
    if "file" in reader.raw:
        if text:
            reader.complain("give either tasks or file, not both")
        else:
            try:
                with open(os.path.join(base_dir or "", reader.raw["file"]),
                          encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, ValueError) as exc:
                # ValueError: a NUL byte in the path, or text that is not UTF-8
                reader.complain(f"cannot read workflow file: {exc}")
    defaults = reader.entries("requirements").read(_REQUIREMENT_KEYS)
    try:
        desc = parse_workflow(text)
        ttl = reader.value(_TTL)
        if ttl is not None:
            desc = dataclasses.replace(desc, ttl_seconds=ttl)
        if defaults:
            desc = dataclasses.replace(desc, tasks=tuple(
                dataclasses.replace(task, requirements={**defaults, **task.requirements})
                for task in desc.tasks))
        for idx, task in enumerate(desc.tasks):
            if task.service_name not in services:
                reader.complain(f"task {idx} uses unknown service {task.service_name!r}")
            if (task.worker is not None and n_nodes is not None
                    and not 1 <= task.worker <= n_nodes):
                reader.complain(f"task {idx} pinned address {task.worker} outside 1..{n_nodes}")
        text = format_description(desc)
    except WorkflowParseError as exc:
        reader.complain(f"tasks: {exc}")
    sizes = reader.entries("input", ":")
    files = sizes.values(tuple(dataclasses.replace(FILE_BYTES, name=name)
                               for name in sizes.raw))
    return WorkflowSpec(text=text, files=files, **reader.values(WorkflowSpec.rows))


def _parse_run(reader: _Reader, n_nodes: Optional[int],
               services: dict[str, ServiceDefinition]) -> RunSettings:
    reader.check_keys(RunSettings.rows + FaultPlan.rows, "strategy", "weights",
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
        values = weights.values(keys(*weights.raw, minimum=0.0))
        # a sum over what is left of a bad list would be a second, derived problem
        if len(reader.problems) == known:
            try:
                settings["weights"] = validate_weights(values)
            except ValueError as exc:
                reader.complain(f"weights: {exc}")
    nodes = reader.get_addresses("fault_nodes", n_nodes)
    fault_nodes = None if nodes is None else frozenset(nodes)
    fault_service = reader.raw.get("fault_service", "").strip() or None
    if fault_service is not None and fault_service not in services:
        reader.complain(f"fault_service {fault_service!r} is not under [services]")
    fault = FaultPlan(nodes=fault_nodes, service=fault_service, **reader.values(FaultPlan.rows))
    return reader.build(RunSettings, fault=fault, **settings, **reader.values(RunSettings.rows))


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

    topology, n_nodes = _parse_topology(reader("topology"))
    link = LinkModel(**reader("link").read(_LINK_KEYS))
    services = _parse_services(reader("services"))

    cohorts: list[CohortSpec] = []
    client_refused = False
    for section in parser.sections():
        if section.startswith("cohort:"):
            cohort_name = section.partition(":")[2].strip()
            cohort_reader = reader(section)
            if not cohort_name:
                cohort_reader.complain("cohort name is empty")
            cohorts.append(_parse_cohort(cohort_name, cohort_reader, n_nodes, services))
            client_refused |= "client" in cohort_reader.refused
    if not cohorts:
        problems.append("no [cohort:*] sections")
    _Reader("cohort:*", {}, problems).refuse_repeats([c.name for c in cohorts], "name")
    if sum(1 for c in cohorts
           if c.count is None and c.fraction is None and not c.addresses) > 1:
        problems.append("only one cohort may omit count/fraction/addresses")
    seen_addresses: set[int] = set()
    for cohort in cohorts:
        for addr in cohort.addresses:
            if addr in seen_addresses:
                problems.append(f"address {addr} pinned by more than one cohort")
            seen_addresses.add(addr)
    if not client_refused and not any(c.client for c in cohorts):
        problems.append("no cohort is marked client = true")

    workflow = _parse_workflow(reader("workflow"), base_dir, n_nodes, services)
    run = _parse_run(reader("run"), n_nodes, services)

    config = ScenarioConfig(name=name, topology=topology, link=link, services=services,
                            cohorts=tuple(cohorts), workflow=workflow, run=run)
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
