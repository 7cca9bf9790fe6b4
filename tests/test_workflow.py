"""Workflow text format, archives, and their wire size."""

import math
import struct
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carryflow.bundles import Bundle, BundleKind, format_address
from carryflow.runtime import ErrorClass, WorkerError
from carryflow.workflow import (ALL_METRICS, Archive, FileStub, Task,
                                WorkflowDescription, WorkflowParseError,
                                _desc_blob, file_size, format_description,
                                packed_size, parse, substitute_result)

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")


def file_bytes(content):
    """The bytes a FileStub stands for: its tag and a NUL, repeated to size."""
    if isinstance(content, FileStub):
        pattern = (content.tag.encode("utf-8") or b"\x00") + b"\x00"
        reps = content.size_bytes // len(pattern) + 1
        return (pattern * reps)[: content.size_bytes]
    return content


def pack(archive: Archive) -> bytes:
    """Reference wire encoding whose length packed_size must give."""
    blob = _desc_blob(archive)
    parts = [b"CFA1", _U32.pack(len(blob)), blob, _U32.pack(len(archive.files))]
    for name in sorted(archive.files):
        raw_name = name.encode("utf-8")
        data = file_bytes(archive.files[name])
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
    ("any scale f [cpu=two]\n", "not a number"),
    ("any scale f [speed=1]\n", "unknown requirement"),
    ("any scale f [cpu=-1]\n", "must be positive"),
    ("any scale ##result##\n", "not allowed in the first task"),
    ("any scale a\nany crop ##result## ##result##\n", "at most once"),
    ("ttl=abc\nany scale f\n", "not a number"),
    ("ttl=0\nany scale f\n", "must be positive"),
    ("mode=fast\nany scale f\n", "unknown directive"),
    ("any scale f [cpu=1,cpu=2]\n", "line 1: requirement cpu is given more than once"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(WorkflowParseError, match=fragment):
        parse(text)


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


def test_file_stub_bytes_are_deterministic():
    stub = FileStub(size_bytes=100, tag="wf-1:result_0.png")
    data = file_bytes(stub)
    assert len(data) == 100
    assert data == file_bytes(FileStub(size_bytes=100, tag="wf-1:result_0.png"))
    assert file_size(stub) == 100
    assert file_bytes(b"abc") == b"abc"


def make_archive(cursor: int = 0) -> Archive:
    desc = replace(parse(PIPELINE, workflow_id="wf-7", client=2, created_at=4.5),
                   cursor=cursor)
    return Archive(description=desc,
                   files={"photo.raw": FileStub(size_bytes=512, tag="photo")},
                   error_log="", assigned_by=2, retried=False)


def test_packed_size_matches_pack():
    archive = make_archive()
    assert packed_size(archive) == len(pack(archive))
    # the error travels beside the wire metadata, so it costs no bytes
    failed = replace(archive, error=WorkerError(ErrorClass.TASK_EXECUTION, "boom", 4))
    assert packed_size(failed) == packed_size(archive)


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
    files = {f"f{i}.bin": FileStub(size_bytes=sizes[i], tag=f"f{i}")
             for i in range(n_files)}
    archive = Archive(description=desc, files=files, error_log=log,
                      assigned_by=3, retried=bool(cursor))
    assert packed_size(archive) == len(pack(archive))
