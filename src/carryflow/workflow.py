"""Workflow descriptions, their text format, and travelling archives.

A workflow is an ordered list of tasks, each naming a service, its
parameters, an optional pinned worker, and optional resource requirements.
The archive is what actually moves through the network: the description
plus the files the next task needs, with exactly one cursor marking the
next task to run.

Text format, one task per line:

    # comment
    ttl=1800
    any denoise photo.img [cpu=1.0,memory=512,disk=1024,energy=40,distance=100]
    any scale ##result## [cpu=1.0,memory=512]

The worker field is a 16 hex character node address or the literal ``any``.
``##result##`` stands for the previous task's result file; it may appear at
most once per task and never in the first one.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from .bundles import NodeAddress, format_address, parse_address

if TYPE_CHECKING:
    from .runtime import WorkerError

PLACEHOLDER = "##result##"

RESOURCE_METRICS = ("cpu", "memory", "disk", "energy")
ALL_METRICS = RESOURCE_METRICS + ("distance",)

DEFAULT_TTL_S = 1800.0


class WorkflowParseError(ValueError):
    """Parse failure; message names the offending line."""


@dataclass(frozen=True)
class Task:
    # the pinned worker, or None for just-in-time selection
    worker: Optional[NodeAddress]
    service_name: str
    params: tuple[str, ...]
    requirements: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkflowDescription:
    workflow_id: str
    client: NodeAddress
    tasks: tuple[Task, ...]
    ttl_seconds: float = DEFAULT_TTL_S
    created_at: float = 0.0
    cursor: int = 0

    @property
    def current_task(self) -> Task:
        return self.tasks[self.cursor]

    @property
    def finished(self) -> bool:
        return self.cursor >= len(self.tasks)

    def expires_at(self) -> float:
        return self.created_at + self.ttl_seconds

    def is_expired(self, now: float) -> bool:
        return now > self.expires_at()


def _parse_requirements(text: str, lineno: int) -> dict[str, float]:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise WorkflowParseError(f"line {lineno}: malformed requirements {text!r}")
    reqs: dict[str, float] = {}
    inner = body[1:-1].strip()
    if not inner:
        return reqs
    for part in inner.split(","):
        if "=" not in part:
            raise WorkflowParseError(f"line {lineno}: malformed requirement entry {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ALL_METRICS:
            raise WorkflowParseError(f"line {lineno}: unknown requirement metric {key!r}")
        if key in reqs:
            raise WorkflowParseError(f"line {lineno}: requirement {key} is given more than once")
        try:
            value = float(raw)
        except ValueError:
            raise WorkflowParseError(f"line {lineno}: requirement {key} is not a number: {raw!r}")
        if not value > 0:
            raise WorkflowParseError(f"line {lineno}: requirement {key} must be positive")
        reqs[key] = value
    return reqs


def parse(text: str, *, workflow_id: str = "", client: NodeAddress = 0,
          created_at: float = 0.0) -> WorkflowDescription:
    """Parse the workflow text format. Raises WorkflowParseError on any defect."""
    tasks: list[Task] = []
    ttl = DEFAULT_TTL_S
    seen_body = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not seen_body and "=" in line.split()[0]:
            key, _, value = line.partition("=")
            if key.strip() != "ttl":
                raise WorkflowParseError(f"line {lineno}: unknown directive {key.strip()!r}")
            try:
                ttl = float(value)
            except ValueError:
                raise WorkflowParseError(f"line {lineno}: ttl is not a number: {value!r}")
            if not (ttl > 0):
                raise WorkflowParseError(f"line {lineno}: ttl must be positive")
            seen_body = True
            continue
        seen_body = True
        fields = line.split()
        if len(fields) < 2:
            raise WorkflowParseError(f"line {lineno}: expected '<worker> <service> ...'")
        worker_field, service_name = fields[0], fields[1]
        rest = fields[2:]
        requirements: dict[str, float] = {}
        if rest and rest[-1].startswith("["):
            requirements = _parse_requirements(rest[-1], lineno)
            rest = rest[:-1]
        if worker_field == "any":
            worker = None
        else:
            try:
                worker = parse_address(worker_field)
            except ValueError as exc:
                raise WorkflowParseError(f"line {lineno}: {exc}")
        placeholders = sum(p.count(PLACEHOLDER) for p in rest)
        if placeholders > 1:
            raise WorkflowParseError(f"line {lineno}: {PLACEHOLDER} may appear at most once")
        if placeholders and not tasks:
            raise WorkflowParseError(f"line {lineno}: {PLACEHOLDER} is not allowed in the first task")
        tasks.append(Task(worker=worker, service_name=service_name,
                          params=tuple(rest), requirements=requirements))
    if not tasks:
        raise WorkflowParseError("workflow has no tasks")
    return WorkflowDescription(workflow_id=workflow_id, client=client,
                               tasks=tuple(tasks), ttl_seconds=ttl, created_at=created_at)


def _number(value: float) -> str:
    """Short `:g` text where it parses back to value; otherwise exact."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def format_description(desc: WorkflowDescription) -> str:
    """Inverse of parse for the task list (header carries the ttl)."""
    lines = [f"ttl={_number(desc.ttl_seconds)}"]
    for task in desc.tasks:
        worker = "any" if task.worker is None else format_address(task.worker)
        parts = [worker, task.service_name, *task.params]
        if task.requirements:
            reqs = task.requirements
            body = ",".join(f"{k}={_number(reqs[k])}" for k in ALL_METRICS if k in reqs)
            parts.append(f"[{body}]")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def substitute_result(task: Task, result_name: str) -> Task:
    """Replace the placeholder in one task's params with a concrete file name."""
    return replace(task, params=tuple(p.replace(PLACEHOLDER, result_name)
                                      for p in task.params))


# -- files and archives ----------------------------------------------------


@dataclass(frozen=True)
class FileStub:
    """A file known only by its size, so multi-megabyte payloads stay out of
    memory during simulation; the tag names what it stands for.
    """

    size_bytes: int
    tag: str = ""


FileContent = Union[bytes, FileStub]


def file_size(content: FileContent) -> int:
    if isinstance(content, FileStub):
        return content.size_bytes
    return len(content)


@dataclass(frozen=True)
class Archive:
    """Everything a worker needs to run the next task, in one transferable unit.

    An archive is a value: each hop builds a new one with `replace`, so the
    copies every store carries never change under them. A failed task's
    archive travels back with `error` set. The wire metadata leaves `error`
    out, so setting it leaves `packed_size` as it is.
    """

    description: WorkflowDescription
    files: dict[str, FileContent] = field(default_factory=dict)
    error_log: str = ""
    # bookkeeping for the retry path: who picked the current task's worker,
    # and whether that pick already was the retry
    assigned_by: NodeAddress = 0
    retried: bool = False
    error: Optional[WorkerError] = None


_MAGIC = b"CFA1"
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def _desc_to_obj(desc: WorkflowDescription) -> dict:
    return {
        "workflow_id": desc.workflow_id,
        "client": desc.client,
        "ttl_seconds": desc.ttl_seconds if not math.isinf(desc.ttl_seconds) else "inf",
        "created_at": desc.created_at,
        "cursor": desc.cursor,
        "tasks": [
            {
                "worker": task.worker,
                "service": task.service_name,
                "params": task.params,
                "requirements": task.requirements,
            }
            for task in desc.tasks
        ],
    }


def _desc_blob(archive: Archive) -> bytes:
    meta = {
        "description": _desc_to_obj(archive.description),
        "error_log": archive.error_log,
        "assigned_by": archive.assigned_by,
        "retried": archive.retried,
    }
    return json.dumps(meta, sort_keys=True).encode("utf-8")


def packed_size(archive: Archive) -> int:
    """Bytes the archive occupies on the wire.

    The layout: a magic, the length-prefixed JSON metadata, a file count,
    then per file in name order a length-prefixed UTF-8 name, a 64-bit
    content length and the contents.
    """
    total = len(_MAGIC) + _U32.size + len(_desc_blob(archive)) + _U32.size
    for name in sorted(archive.files):
        total += _U32.size + len(name.encode("utf-8")) + _U64.size
        total += file_size(archive.files[name])
    return total
