"""The benchmark tracer's patch targets are where it patches them.

The tracer (``bench/tracer.py``) swaps each traced name for a wrapper on the
owner its caller looks the name up on. A target renamed away fails only a
traced benchmark run; a role-class target that ``Node`` defines again is
never traced, and nothing fails at all.
"""

import sys
from pathlib import Path

import pytest

from carryflow.client import ClientRuntime
from carryflow.nodes import Node
from carryflow.runtime import WorkerRuntime
from carryflow.simnet import World

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
    return tracer.SPANS


def _name(owner) -> str:
    return getattr(owner, "__name__", repr(owner))


def test_every_patch_target_is_defined_on_its_owner(spans):
    targets = [(owner, attr) for owner, attr, _ in spans]
    targets += [(World, "schedule"), (World, "advance")]
    assert [f"{_name(owner)}.{attr}" for owner, attr in targets
            if attr not in vars(owner)] == []


def test_node_shadows_no_role_target(spans):
    roles = [(owner, attr) for owner, attr, _ in spans
             if owner in (WorkerRuntime, ClientRuntime)]
    assert roles
    assert [f"{_name(owner)}.{attr}" for owner, attr in roles
            if getattr(Node, attr) is not vars(owner)[attr]] == []
