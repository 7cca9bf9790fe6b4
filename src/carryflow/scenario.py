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
the dataclass's. The rules that join sections (addresses within 1..nodes,
known services, a task text that parses, the cohorts' names, pins, client
and sizes, the offload count) are `ScenarioConfig`'s, in `_joins`, so a
hand-built scenario is refused like a parsed one. The parser keeps only
what no type can say: reading text, and the link's INI units.

Validation is collected rather than fail-fast: a bad file raises one
ScenarioError listing every problem found. A key that draws a problem reads
as unset, so its default stands in for the cross-checks that follow. A rule
across a type's fields (`speed_min` against `speed_max`, the period rule, a
cohort sized once) is said once, on the type, and the parser reports it
under its section; one that names a refused key would be derived from that
key's default, so it goes unsaid. The parser builds the config last and
reports its join problems after the sections' own, a cohort's under its
section as the file wrote it, leaving unsaid those that read a refused
key's default: an address range over a refused node count, the missing
client when a cohort's `client` was refused, and the cohort sizes and
offload count in a file with any other problem.

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
from typing import Iterable, Optional, Union

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
        check(self, self.rows, _sized_once)


def _sized_once(cohort: CohortSpec) -> list[str]:
    given = [key for key in ("count", "fraction", "addresses")
             if getattr(cohort, key) not in (None, ())]
    return [f"give at most one of count/fraction/addresses, got {given}"] if len(given) > 1 else []


# the task text's kind, checked by the cross rule: as a row, the parser
# would read a `text` key under [workflow]
_TEXT = Key("text", kind=str)


def _text_and_file_sizes(spec: WorkflowSpec) -> list[str]:
    problems = [f"text {problem}"] if (problem := _TEXT.problem(spec.text)) else []
    return problems + [f"files: {name} {problem}" for name, size in spec.files.items()
                       if (problem := FILE_BYTES.problem(size)) is not None]


@dataclass(frozen=True)
class WorkflowSpec:
    """What the clients offload and when."""

    text: str
    files: dict[str, int] = field(default_factory=dict)
    offload_at: float = 10.0
    repeat: int = 1
    interval_s: float = 0.0

    # the text is a str, and each of `files`' sizes meets FILE_BYTES
    rows = (Key("offload_at", minimum=0.0),
            Key("repeat", kind=int, minimum=1, maximum=MAX_OFFLOADS),
            Key("interval_s", minimum=0.0))

    def __post_init__(self) -> None:
        check(self, self.rows, _text_and_file_sizes)


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
    """A whole scenario, parsed or hand-built.

    Either way its sections meet the rules that join them (`_joins`), and
    it raises ScenarioError listing, in the parser's words, what does not.
    """

    name: str
    topology: Topology
    link: LinkModel
    services: dict[str, ServiceDefinition]
    cohorts: tuple[CohortSpec, ...]
    workflow: WorkflowSpec
    run: RunSettings

    def __post_init__(self) -> None:
        check(self, (), _joins)

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
    # a cohort is sized once (`CohortSpec`), so a pin list or a count is
    # its size, and a fraction or the remainder starts at 0
    counts = [len(cohort.addresses) or cohort.count or 0 for cohort in cohorts]
    fractions = [i for i, cohort in enumerate(cohorts) if cohort.fraction is not None]
    quotas = [cohorts[i].fraction * (n_nodes - sum(counts)) for i in fractions]
    base = [int(q) for q in quotas]
    order = sorted(range(len(fractions)), key=lambda j: (base[j] - quotas[j], j))
    for j in order[:max(0, round(sum(quotas)) - sum(base))]:
        base[j] += 1
    for i, size in zip(fractions, base):
        counts[i] = size
    for i, cohort in enumerate(cohorts):
        if cohort.count is None and cohort.fraction is None and not cohort.addresses:
            counts[i] = n_nodes - sum(counts)
    if sum(counts) != n_nodes or any(c < 0 for c in counts):
        raise ScenarioError([f"cohort sizes resolve to {counts} for {n_nodes} nodes"])
    return counts


class _Join(str):
    """A problem of a rule that joins sections.

    `reads` names what else the rule read, so that a parser knows which
    refused key it derives from: "nodes" for an address range, "sizes" for
    the cohorts' sizing, which reads every section. `cohort` is the index of
    the cohort it is said under, whose section a file may write with spaces.
    """

    def __new__(cls, text: str, reads: str = "", cohort: Optional[int] = None) -> _Join:
        problem = super().__new__(cls, text)
        problem.reads, problem.cohort = reads, cohort
        return problem


def _joins(config: ScenarioConfig) -> list[_Join]:
    """The problems of the rules that join sections, each under its section.

    Every address lies within 1..nodes, every service named is defined, the
    task text parses, and the cohorts are one or more, named once each, at
    most one of them the remainder, with no address pinned twice and a
    client among them. Once all that holds, their sizes resolve to the node
    count and the clients make at most `MAX_OFFLOADS` offloads.
    """
    n, services, fault = config.topology.nodes, config.services, config.run.fault

    def outside(where: str, addresses: Iterable[int], cohort: Optional[int] = None) -> list[str]:
        return [_Join(f"{where}address {addr} outside 1..{n}", "nodes", cohort)
                for addr in sorted(set(addresses)) if not 1 <= addr <= n]

    problems = []
    for idx, cohort in enumerate(config.cohorts):
        problems += outside(f"[cohort:{cohort.name}] addresses: ", cohort.addresses, idx)
        problems += [_Join(f"[cohort:{cohort.name}] unknown service {name!r}", cohort=idx)
                     for name in cohort.services if name not in services]
    if not config.cohorts:
        problems.append("no [cohort:*] sections")
    _Reader("cohort:*", {}, problems).refuse_repeats([c.name for c in config.cohorts], "name")
    if sum(c.count is None and c.fraction is None and not c.addresses
           for c in config.cohorts) > 1:
        problems.append("only one cohort may omit count/fraction/addresses")
    pinned: set[int] = set()
    for addr in (addr for cohort in config.cohorts for addr in cohort.addresses):
        if addr in pinned:
            problems.append(f"address {addr} pinned by more than one cohort")
        pinned.add(addr)
    if not any(c.client for c in config.cohorts):
        problems.append("no cohort is marked client = true")
    try:
        tasks = parse_workflow(config.workflow.text).tasks
    except WorkflowParseError as exc:
        problems.append(f"[workflow] tasks: {exc}")
        tasks = ()
    for idx, task in enumerate(tasks):
        if task.service_name not in services:
            problems.append(f"[workflow] task {idx} uses unknown service {task.service_name!r}")
        if task.worker is not None:
            problems += outside(f"[workflow] task {idx} pinned ", [task.worker])
    problems += outside("[run] fault_nodes: ", fault.nodes or ())
    if fault.service is not None and fault.service not in services:
        problems.append(f"[run] fault_service {fault.service!r} is not under [services]")
    if problems:
        return [problem if isinstance(problem, _Join) else _Join(problem) for problem in problems]
    try:
        counts = resolve_cohort_counts(config.cohorts, n)
    except ScenarioError as exc:
        return [_Join(problem, "sizes") for problem in exc.problems]
    clients = sum(count for count, cohort in zip(counts, config.cohorts) if cohort.client)
    repeat = config.workflow.repeat
    return [_Join(f"[workflow] repeat {repeat} for {clients} clients is more than "
                  f"{MAX_OFFLOADS} offloads", "sizes")] if clients * repeat > MAX_OFFLOADS else []


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

    def build(self, cls: type, stand_in: Optional[dict] = None, **values: object) -> object:
        """cls(**values); if its check refuses them, each problem is said
        under the section and cls(**stand_in) stands in, as the file is
        refused.

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
            return cls(**stand_in or {})

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
    kinds = {cls.kind: cls for cls in (RingTopology, WaypointTopology)}
    kind = reader.raw.get("kind", "ring").strip().lower()
    if kind not in kinds:
        reader.complain(f"unknown topology kind {kind!r}")
    cls = kinds.get(kind, RingTopology)
    values = reader.read(cls.rows, "kind")
    # refused, it stands in with the node count that addresses are checked by
    return reader.build(cls, {"nodes": values.get("nodes", cls.nodes)}, **values)


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


def _parse_cohort(reader: _Reader) -> CohortSpec:
    name = reader.section.partition(":")[2].strip()
    if not name:
        reader.complain("cohort name is empty")
    reader.check_keys(CohortSpec.rows, "addresses", "services")
    # a sizing key the file sets is given, even if its value is refused or
    # blank, so CohortSpec's rule is asked of a stand-in for each; a refused
    # count or fraction still sizes the cohort as its stand-in, so it is not
    # the remainder
    given = {key: stand_in for key, stand_in in (("count", 0), ("fraction", 0), ("addresses", (1,)))
             if key in reader.raw}
    reader.build(CohortSpec, {"name": name}, name=name, **given)
    values = {**given, **reader.values(CohortSpec.rows)}
    addresses = reader.get_addresses("addresses")
    values["addresses"] = tuple(addresses or ())
    # a refused address list, or sizing given more than once, stands in as
    # its pins or as count 0; a refused `client` reads as a client, so that
    # no missing client is derived from its default
    if addresses == [] or len(given) > 1:
        values.update(count=None if addresses else 0, fraction=None)
    if "client" in reader.refused:
        values["client"] = True
    listed = reader.items("services")
    reader.refuse_repeats(listed, "services")
    return CohortSpec(name=name, services=tuple(dict.fromkeys(listed)), **values)


def _parse_workflow(reader: _Reader, base_dir: Optional[str]) -> WorkflowSpec:
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
        text = format_description(desc)
    except WorkflowParseError:
        pass   # the text stays as written, and ScenarioConfig refuses it
    sizes = reader.entries("input", ":")
    files = sizes.values(tuple(dataclasses.replace(FILE_BYTES, name=name)
                               for name in sizes.raw))
    return WorkflowSpec(text=text, files=files, **reader.values(WorkflowSpec.rows))


def _parse_run(reader: _Reader) -> RunSettings:
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
    # a refused list of no address stands in as unset, since a plan on no
    # node is refused too
    nodes = reader.get_addresses("fault_nodes")
    fault_nodes = frozenset(nodes) if nodes else None
    fault_service = reader.raw.get("fault_service", "").strip() or None
    fault = FaultPlan(nodes=fault_nodes, service=fault_service, **reader.values(FaultPlan.rows))
    # refused, it stands in with the fault plan, whose nodes and service join
    return reader.build(RunSettings, {"fault": fault}, fault=fault, **settings,
                        **reader.values(RunSettings.rows))


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

    topology_reader = reader("topology")
    topology = _parse_topology(topology_reader)
    link = LinkModel(**reader("link").read(_LINK_KEYS))
    services = _parse_services(reader("services"))
    sections = [section for section in parser.sections() if section.startswith("cohort:")]
    cohorts = [_parse_cohort(reader(section)) for section in sections]
    workflow = _parse_workflow(reader("workflow"), base_dir)
    run = _parse_run(reader("run"))

    # the sections join last, as ScenarioConfig checks them. A range over a
    # refused node count reads its default, and so does a sizing of cohorts
    # in a file with any other problem, so what either finds is derived and
    # goes unsaid
    derived = {"nodes": _NODES.name in topology_reader.refused, "sizes": bool(problems)}
    try:
        config = ScenarioConfig(name=name, topology=topology, link=link, services=services,
                                cohorts=tuple(cohorts), workflow=workflow, run=run)
    except ScenarioError as exc:
        # a cohort's problem is said under its section as the file wrote it,
        # which may hold spaces
        labels = [(f"[cohort:{c.name}]", f"[{s}]") for c, s in zip(cohorts, sections)]
        problems += [p if p.cohort is None else p.replace(*labels[p.cohort], 1)
                     for p in exc.problems if not derived.get(p.reads)]
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
