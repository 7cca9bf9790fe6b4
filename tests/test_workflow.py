"""Workflow text format, archives, and their wire size."""

import json
import math
import struct
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carryflow.bundles import Bundle, BundleKind, format_address
from carryflow.runtime import ErrorClass, WorkerError
from carryflow.workflow import (ALL_METRICS, Archive, Task,
                                WorkflowDescription, WorkflowParseError,
                                format_description, packed_size, parse,
                                substitute_result)

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def pack(archive: Archive) -> bytes:
    """Reference wire encoding whose length packed_size must give.

    The metadata is the description, the error log and the retry
    bookkeeping, as sorted-key JSON; the error itself does not travel. A
    file is only its size, so each is written as that many zero bytes.
    """
    desc = archive.description
    tasks = [{"service": task.service_name, "worker": task.worker,
              "params": list(task.params), "requirements": dict(task.requirements)}
             for task in desc.tasks]
    ttl = "inf" if desc.ttl_seconds == math.inf else desc.ttl_seconds
    meta = {"assigned_by": archive.assigned_by, "error_log": archive.error_log,
            "retried": archive.retried,
            "description": {"client": desc.client, "created_at": desc.created_at,
                            "cursor": desc.cursor, "tasks": tasks, "ttl_seconds": ttl,
                            "workflow_id": desc.workflow_id}}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    parts = [b"CFA1", _U32.pack(len(blob)), blob, _U32.pack(len(archive.files))]
    for name in sorted(archive.files):
        raw_name = name.encode("utf-8")
        data = bytes(archive.files[name])
        parts += [_U32.pack(len(raw_name)), raw_name, _U64.pack(len(data)), data]
    return b"".join(parts)

PIPELINE = """
# two-step pipeline
ttl=900
any denoise photo.raw [cpu=2,memory=1024,energy=5]
any scale ##result## [cpu=1]
"""


def test_parse_pipeline():
    desc = parse(PIPELINE, workflow_id="wf-1", client=3)
    assert desc.workflow_id == "wf-1"
    assert desc.client == 3
    assert desc.ttl_seconds == 900.0
    assert len(desc.tasks) == 2
    first = desc.tasks[0]
    assert first.worker is None
    assert first.service_name == "denoise"
    assert first.params == ("photo.raw",)
    assert first.requirements == {"cpu": 2.0, "memory": 1024.0, "energy": 5.0}


def test_parse_pinned_worker_address():
    desc = parse(f"{format_address(9)} scale photo.raw\n")
    assert desc.tasks[0].worker == 9


@pytest.mark.parametrize("text,fragment", [
    ("", "no tasks"),
    ("any\n", "expected"),
    ("zz11 scale f\n", "address"),
    # int(text, 16) would take each of these: a sign, a prefix, an
    # underscore, or a space in place of a digit
    ("-000000000000001 scale f\n", "address"),
    ("+00000000000000f scale f\n", "address"),
    ("0x00000000000002 scale f\n", "address"),
    ("0000_0000_0000_1 scale f\n", "address"),
    ("any scale f [cpu=two]\n", "not a number"),
    ("any scale f [speed=1]\n", "unknown requirement"),
    ("any scale f [cpu=-1]\n", "must be positive"),
    ("any scale f [cpu=inf]\n", "line 1: requirement cpu must be finite, got 'inf'"),
    ("any scale f [memory=nan]\n", "line 1: requirement memory must be finite, got 'nan'"),
    ("any scale ##result##\n", "not allowed in the first task"),
    ("any scale a\nany crop ##result## ##result##\n", "at most once"),
    ("ttl=abc\nany scale f\n", "not a number"),
    ("ttl=0\nany scale f\n", "must be positive"),
    ("ttl=nan\nany scale f\n", "line 1: ttl is not a number: 'nan'"),
    ("ttl=-inf\nany scale f\n", "line 1: ttl must be positive"),
    ("mode=fast\nany scale f\n", "unknown directive"),
    ("any scale f [cpu=1,cpu=2]\n", "line 1: requirement cpu is given more than once"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(WorkflowParseError, match=fragment):
        parse(text)


def test_parse_accepts_an_infinite_ttl():
    assert parse("ttl=inf\nany scale f\n").ttl_seconds == math.inf


def test_format_description_round_trips():
    desc = parse(PIPELINE, workflow_id="wf-1", client=3)
    text = format_description(desc)
    again = parse(text, workflow_id="wf-1", client=3)
    assert format_description(again) == text
    assert [t.requirements for t in again.tasks] == \
        [t.requirements for t in desc.tasks]


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(ttl=POSITIVE | st.just(math.inf),
       requirements=st.lists(st.dictionaries(st.sampled_from(ALL_METRICS), POSITIVE),
                             min_size=1, max_size=3))
@example(ttl=1234.5678, requirements=[{"memory": 1048576.0}])
def test_format_description_round_trips_every_number(ttl, requirements):
    desc = WorkflowDescription(
        workflow_id="", client=0, ttl_seconds=ttl,
        tasks=tuple(Task(worker=None, service_name="scale", params=("f",),
                         requirements=reqs) for reqs in requirements))
    assert parse(format_description(desc)) == desc


def test_substitute_result_replaces_placeholder_once():
    task = Task(worker=None, service_name="scale",
                params=("##result##", "flag"), requirements={"cpu": 1.0})
    done = substitute_result(task, "result_0.png")
    assert done.params == ("result_0.png", "flag")
    assert task.params == ("##result##", "flag")


def test_expiry_accessors():
    desc = parse("ttl=10\nany scale f\n", created_at=5.0)
    assert desc.expires_at() == 15.0
    assert not desc.is_expired(15.0)
    assert desc.is_expired(15.1)
    infinite = replace(parse("any scale f\n"), ttl_seconds=math.inf)
    assert not infinite.is_expired(1e12)


def make_archive(cursor: int = 0) -> Archive:
    desc = replace(parse(PIPELINE, workflow_id="wf-7", client=2, created_at=4.5),
                   cursor=cursor)
    return Archive(description=desc,
                   files={"photo.raw": 512},
                   error_log="", assigned_by=2, retried=False)


def test_packed_size_matches_pack():
    archive = make_archive()
    assert packed_size(archive) == len(pack(archive))
    # the error travels beside the wire metadata, so it costs no bytes
    failed = replace(archive, error=WorkerError(ErrorClass.TASK_EXECUTION, "boom", 4))
    assert packed_size(failed) == packed_size(archive)
    # a workflow that never expires writes its ttl as the string "inf"
    lasting = replace(archive, description=replace(archive.description,
                                                   ttl_seconds=math.inf))
    assert packed_size(lasting) == len(pack(lasting))


def test_travelling_values_are_frozen():
    archive = make_archive()
    desc = archive.description
    bundle = Bundle(bundle_id=(1, 1), source=1, destination=2,
                    kind=BundleKind.WORKFLOW_ARCHIVE, payload=archive,
                    size_bytes=packed_size(archive), created_at=0.0, ttl_seconds=10.0)
    for value, name, new in ((desc.tasks[0], "params", ()),
                             (desc, "cursor", 1),
                             (archive, "error_log", "edited"),
                             (bundle, "expires_at", 99.0)):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, new)


@settings(max_examples=50, deadline=None)
@given(
    n_files=st.integers(min_value=0, max_value=4),
    sizes=st.lists(st.integers(min_value=0, max_value=2048), min_size=4, max_size=4),
    cursor=st.integers(min_value=0, max_value=2),
    log=st.text(max_size=40),
)
def test_packed_size_equals_wire_length(n_files, sizes, cursor, log):
    desc = replace(parse(PIPELINE, workflow_id="wf-h", client=1), cursor=cursor)
    files = {f"f{i}.bin": sizes[i] for i in range(n_files)}
    archive = Archive(description=desc, files=files, error_log=log,
                      assigned_by=3, retried=bool(cursor))
    assert packed_size(archive) == len(pack(archive))
