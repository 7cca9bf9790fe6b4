"""Every public class, function or method of the package has a caller outside tests."""

import ast
import pickle
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carryflow"
CALLER_DIRS = ("src", "demos", "bench")
# the skin-list tests move nodes through it
ALLOWED = {"set_position"}


def public_defs() -> list[tuple[str, int, str]]:
    """(file name, line, name) of every public class and def in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                found.append((path.name, node.lineno, node.name))
    return found


def test_every_public_function_has_a_caller():
    words = Counter()
    for folder in CALLER_DIRS:
        for path in (ROOT / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = public_defs()
    # a name used nowhere but in its own definitions has no caller
    n_defs = Counter(name for _, _, name in defs)
    uncalled = [f"{file}:{line} {name}" for file, line, name in defs
                if words[name] <= n_defs[name] and name not in ALLOWED]
    assert uncalled == []


# names deleted with the offer codec: an offer bundle's payload is its
# Announcement record, so nothing encodes, decodes or caches decoded offers
DELETED = ("encode_offers", "offers_of", "OfferCodecError", "_HEADER", "_RECORD")


def test_the_offer_codec_stays_deleted():
    from dataclasses import fields

    from carryflow.bundles import Bundle
    assert "decoded" not in {f.name for f in fields(Bundle)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        found += [f"{path.name} {name}" for name in DELETED
                  if re.search(rf"\b{name}\b", text)]
        found += [f"{path.name} .decoded" for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Attribute) and node.attr == "decoded"]
    assert found == []
    # no module packs or unpacks an offer
    announce = ast.parse((PACKAGE / "announce.py").read_text(encoding="utf-8"))
    assert not [node for node in ast.walk(announce)
                if isinstance(node, ast.Import)
                and any(alias.name == "struct" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "struct"]


def test_the_event_queue_keeps_no_sequence_number():
    # same-time events keep their order in their time's list, so no event
    # carries a tie-breaking counter and the heap holds bare times
    from carryflow.simnet import LinkModel, World
    assert not hasattr(World(LinkModel()), "_seq")
    assert not re.search(r"\b_seq\b", (PACKAGE / "simnet.py").read_text(encoding="utf-8"))


def test_one_flat_offer_record():
    # a lookup's winner is one flat record; the bundle carrying an
    # announcement already names its worker (source) and issue time
    # (created_at), so the announcement does not repeat them
    from dataclasses import fields

    from carryflow.announce import Announcement, CapabilityVector, OfferRecord
    assert not hasattr(CapabilityVector, "resource")
    assert [f.name for f in fields(Announcement)] == ["capabilities", "params"]
    assert [f.name for f in fields(OfferRecord)] == ["worker", "capabilities", "received_at"]
    assert "__slots__" in vars(OfferRecord)
    assert OfferRecord.__dataclass_params__.frozen
    found = [f"{path.name} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in (r"\bServiceOffer\b", r"\.resource\(")
             if re.search(name, path.read_text(encoding="utf-8"))]
    assert found == []


def _functions_using(name: str) -> list[str]:
    """`file:function` of every package function that mentions `name`, once each."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(inner, (ast.Name, ast.Attribute))
                    and (getattr(inner, "id", None) or getattr(inner, "attr", None)) == name
                    for inner in ast.walk(node)):
                found.append(f"{path.name}:{node.name}")
    return found


def test_each_node_layer_rule_is_kept_once():
    # a node's slot in the position list is a field of its world record, and
    # transfer durations come from one table that fills itself
    simnet = (PACKAGE / "simnet.py").read_text(encoding="utf-8")
    assert not re.search(r"\b_addr_index\b", simnet)
    assert "except KeyError" not in simnet
    # no counter that nothing increments
    from carryflow.report import Collector
    assert not hasattr(Collector(), "malformed_offers")
    # a worker-selection error archive is built in one method; _serve hands
    # its own through _emit_error, and retryable only tests the class
    assert _functions_using("WORKER_SELECTION") == [
        "runtime.py:retryable", "runtime.py:_serve", "runtime.py:_fail_selection"]
    assert _functions_using("WorkerError") == [
        "runtime.py:_emit_error", "runtime.py:_fail_selection"]


def _package_imports() -> dict[str, set[str]]:
    """Module -> the package modules it imports, at any depth and in any block."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem] |= ({node.module} if node.module
                                     else {alias.name for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.startswith("carryflow."):
                graph[path.stem].add(node.module.split(".")[1])
            elif isinstance(node, ast.Import):
                graph[path.stem] |= {alias.name.split(".")[1] for alias in node.names
                                     if alias.name.startswith("carryflow.")}
    return graph


def test_the_package_imports_form_no_cycle():
    # a cycle is one module's rule stated again, or hidden, in another; a
    # TYPE_CHECKING block is where one hides
    graph = _package_imports()
    assert graph["runtime"] >= {"workflow"} and "runtime" not in graph["workflow"]
    done: set[str] = set()

    def visit(module: str, path: tuple[str, ...]) -> list[tuple[str, ...]]:
        if module in path:
            return [path[path.index(module):] + (module,)]
        if module in done or module not in graph:
            return []
        done.add(module)
        return [cycle for target in sorted(graph[module])
                for cycle in visit(target, path + (module,))]

    assert [cycle for module in sorted(graph) for cycle in visit(module, ())] == []
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if re.search(r"\bTYPE_CHECKING\b", path.read_text(encoding="utf-8"))] == []


def test_an_error_archive_is_routed_from_itself():
    # the error types sit beside the archive that carries them, and whether
    # an error archive is retried is read from the archive alone
    import inspect

    from carryflow import runtime, workflow
    assert (runtime.ErrorClass, runtime.WorkerError) == (workflow.ErrorClass,
                                                         workflow.WorkerError)
    assert {cls.__module__ for cls in (workflow.ErrorClass, workflow.WorkerError)} == {
        "carryflow.workflow"}
    assert list(inspect.signature(runtime.retryable).parameters) == ["archive"]
    nodes = (PACKAGE / "nodes.py").read_text(encoding="utf-8")
    assert not re.search(r"\bassigned_by\b", nodes)
    scenario = (PACKAGE / "scenario.py").read_text(encoding="utf-8")
    assert not re.search(r"\b_BOOLS\b", scenario)


def _imports_struct(path: Path) -> bool:
    return any(isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names)
               or isinstance(node, ast.ImportFrom) and node.module == "struct"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_a_file_is_its_size_and_a_cleanup_forgets_by_one_set():
    import inspect

    from conftest import build_line, service

    from carryflow.bundles import BundleKind, BundleStore
    from carryflow.runtime import WorkerRuntime
    from carryflow.workflow import parse
    # an archive file is its size in bytes, so there is no second form of it
    found = [f"{path.name} {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in ("FileStub", "FileContent", "file_size", "_drop_workflow")
             if re.search(rf"\b{name}\b", path.read_text(encoding="utf-8"))]
    assert found == []
    assert not _imports_struct(PACKAGE / "workflow.py")
    # a cleanup pops one index entry, and the queue is filtered only when
    # the worker reaches an entry
    assert not hasattr(BundleStore, "_drop")
    assert not hasattr(WorkerRuntime, "_drop_workflow")
    assert list(inspect.signature(BundleStore.remove_where).parameters) == [
        "self", "workflow_id"]
    # no node keeps result files, and a cleanup marker carries no workflow tag
    micro = build_line(2, {2: {"work": service("work")}})
    node = micro.node(1)
    assert not hasattr(node, "files")
    node.send_cleanup(parse("any work in.dat\n", workflow_id="wf-x", client=1))
    markers = [b for b in micro.world.stores[1].live(micro.world.now)
               if b.kind is BundleKind.CLEANUP_MARKER]
    assert [(b.payload, b.workflow_id) for b in markers] == [("wf-x", None)]


def test_a_store_is_one_dict_and_its_bundles_sit_in_the_table():
    # a store keeps its arrival times and nothing else: the bundles, their
    # expiry heap and the workflow index sit once in the world's table, and
    # no id-to-bundle view of a store is left to read
    from carryflow.bundles import BundleStore
    store = BundleStore()
    assert [name for name in ("by_id", "_bundles", "_expiry", "_expiring", "_by_workflow")
            if hasattr(store, name)] == []
    found = [str(path.relative_to(ROOT)) for folder in ("src", "demos", "bench", "tests")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path != Path(__file__)
             and re.search(r"\.by_id\b", path.read_text(encoding="utf-8"))]
    assert found == []


def test_a_bundle_is_built_by_its_one_constructor():
    # the written-out __init__ computes expires_at and refuses a NaN expiry,
    # so no generated constructor or post-init hook is left beside it
    from carryflow.bundles import Bundle
    assert not hasattr(Bundle, "__post_init__")
    assert not Bundle.__dataclass_params__.init
    assert not re.search(r"\b__post_init__\b",
                         (PACKAGE / "bundles.py").read_text(encoding="utf-8"))


def test_the_bundle_layer_keeps_each_fact_in_one_map():
    # a tagged id's copy count sits in its workflow's map, a store's arrival
    # dict is read as it is, with no read-only view beside it, and the store
    # writes the table's maps itself: no table method has the store as its
    # one caller, and membership is asked of the arrival dict alone
    from carryflow.bundles import BundleStore, BundleTable
    bundles = (PACKAGE / "bundles.py").read_text(encoding="utf-8")
    assert [name for name in ("MappingProxyType", "_copies", "_arrived", "_by_workflow")
            if re.search(rf"\b{name}\b", bundles)] == []
    assert [name for name in ("add", "forget") if hasattr(BundleTable, name)] == []
    assert "__contains__" not in vars(BundleStore)
    assert type(BundleStore().arrived_at) is dict
    assert type(BundleTable().workflows) is dict


def test_no_closure_is_ever_scheduled():
    # every event is a bound method or a partial of one, so a world holds no
    # closure and pickles between events: no `.schedule(` call in the
    # package is handed a lambda or a function defined inside another
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        nested = {inner.name for outer in ast.walk(tree)
                  if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(outer)
                  if inner is not outer
                  and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"):
                found += [f"{path.name}:{node.lineno}" for arg in node.args
                          for inner in ast.walk(arg)
                          if isinstance(inner, ast.Lambda)
                          or isinstance(inner, ast.Name) and inner.id in nested]
    assert found == []


def test_a_node_refuses_by_its_cleaned_set_alone():
    # the world's one refusal rule is the node's set of cleaned workflows,
    # so no accept hook is left to ask
    found = [f"{name} {word}" for name in ("nodes.py", "simnet.py")
             for word in (r"\baccepts\b", r"\baccept=")
             if re.search(word, (PACKAGE / name).read_text(encoding="utf-8"))]
    assert found == []
    from carryflow.nodes import Node
    assert not hasattr(Node, "accepts")


def test_what_no_run_reads_stays_deleted():
    # a node's store is reached through `World.stores` alone; the world keeps
    # no link model beside its duration table and imports its contact
    # detector at module top; the roles count selections in the collector
    # themselves, and a phase row holds its three columns only
    from carryflow.report import Collector, PhaseBreakdown
    from carryflow.simnet import LinkModel, World, _Node
    assert "store" not in _Node.__slots__
    world = World(LinkModel())
    assert world.add_node(1) is world.stores[1]
    assert not hasattr(world, "link")
    assert not hasattr(Collector, "selection")
    assert not hasattr(PhaseBreakdown, "total_s")
    simnet = (PACKAGE / "simnet.py").read_text(encoding="utf-8")
    assert [word for word in (r"\bTYPE_CHECKING\b", r"\.store\b")
            if re.search(word, simnet)] == []


def test_the_ring_distance_pickles():
    from carryflow.harness import ring_arc_distance, ring_positions
    arc = ring_arc_distance(12, 100.0)
    copy = pickle.loads(pickle.dumps(arc))
    slots = ring_positions(12, 100.0)
    assert [copy(a, b) for a in slots for b in slots] == [arc(a, b) for a in slots
                                                          for b in slots]
    with pytest.raises(ValueError, match="not a slot"):
        copy(slots[0], (0.0, 0.0))


def test_a_link_scan_and_a_node_build_do_only_their_own_work():
    # the link scan filters held ids itself rather than listing every live
    # bundle under a second name, and a node makes no random stream until
    # it first draws from one
    from carryflow.bundles import BundleStore
    assert BundleStore.scan_log is not BundleStore.live
    tree = ast.parse((PACKAGE / "nodes.py").read_text(encoding="utf-8"))
    (init,) = [node for cls in tree.body if isinstance(cls, ast.ClassDef)
               and cls.name == "Node" for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "__init__"]
    built = [node.lineno for node in ast.walk(init)
             if isinstance(node, ast.Call) and (
                 isinstance(node.func, ast.Attribute) and node.func.attr == "Random"
                 or isinstance(node.func, ast.Name) and node.func.id == "Random")]
    assert built == []


def test_the_contact_detector_measures_no_drift():
    # the world bounds how far the nodes moved since the last tick and hands
    # the detector that bound, so the detector neither measures a node's
    # distance from where it was nor keeps a copy of the positions
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "contacts.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "dist"
                or isinstance(node, ast.Name) and node.id == "dist"):
            found.append(f"line {node.lineno}: dist")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "copy", "deepcopy")
                and any(isinstance(arg, ast.Name) and arg.id == "positions"
                        for arg in node.args)):
            found.append(f"line {node.lineno}: {node.func.id}(positions)")
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "positions" and isinstance(node.slice, ast.Slice)):
            found.append(f"line {node.lineno}: positions[:]")
        elif (isinstance(node, ast.Attribute) and node.attr == "copy"
                and isinstance(node.value, ast.Name) and node.value.id == "positions"):
            found.append(f"line {node.lineno}: positions.copy")
    assert found == []


# each type a scenario row bounds, by the module that defines it
BOUNDED = {
    "simnet.py": ("LinkModel", "RandomWaypoint", "World"),
    "runtime.py": ("ServiceDefinition", "FaultPlan"),
    "scenario.py": ("RingTopology", "WaypointTopology", "CohortSpec", "WorkflowSpec",
                    "RunSettings", "ScenarioConfig"),
}


def test_each_bound_is_said_once_by_the_rows_of_its_type():
    # every bounded type refuses a value through the shared row check, in
    # the rows' words, so no second wording of a bound comes back by hand
    unchecked, worded = [], []
    for file, names in BOUNDED.items():
        tree = ast.parse((PACKAGE / file).read_text(encoding="utf-8"))
        classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
        for name in names:
            inits = [node for node in classes[name].body if isinstance(node, ast.FunctionDef)
                     and node.name in ("__init__", "__post_init__")]
            if not any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == "check"
                       for init in inits for call in ast.walk(init)):
                unchecked.append(f"{file} {name}")
            worded += [f"{file} {name}: {node.value}" for node in ast.walk(classes[name])
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and "must be" in node.value]
    assert unchecked == []
    assert worded == []


# the words of the rules that join a scenario's sections, which
# `ScenarioConfig` states once
JOIN_WORDS = ("outside 1..", "unknown service", "pinned by more than one cohort",
              "is marked client")


def test_the_parser_states_no_rule_that_joins_sections():
    # a parsed scenario is refused by the same join rules as a hand-built
    # one, so no parser function words one of them, nor takes what one reads
    tree = ast.parse((PACKAGE / "scenario.py").read_text(encoding="utf-8"))
    found = []
    for parser in tree.body:
        if not (isinstance(parser, (ast.FunctionDef, ast.ClassDef))
                and (parser.name.startswith("_parse_")
                     or parser.name in ("_Reader", "parse_scenario"))):
            continue
        for node in ast.walk(parser):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [f"{parser.name}: {word!r}" for word in JOIN_WORDS
                          if word in node.value]
            elif isinstance(node, ast.arg) and node.arg in ("n_nodes", "services"):
                found.append(f"{parser.name}: parameter {node.arg}")
    assert found == []


def _callers_of(name: str) -> list[str]:
    """`file:function` of each package call of `name`, by name or as an
    attribute; `file:<module>` for a call outside any def."""
    found = []

    def visit(node: ast.AST, path: Path, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.append(f"{path.name}:{where}")
            visit(child, path, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return found


def test_every_pick_goes_through_the_traced_select_and_the_groups_streams():
    # the tracer patches `carryflow.runtime.select`, so a pick anywhere else
    # would escape the traced pass; a lockstep pick asks it once per member
    assert _callers_of("select") == ["runtime.py:resolve_worker"]
    importers = [f"{path.name}" for path in sorted(PACKAGE.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom)
                 and any(alias.name == "select" for alias in node.names)]
    assert importers == ["runtime.py"]
    # a node's select streams are its group's, one per member, in one place
    from carryflow.nodes import Node
    assert not hasattr(Node, "select_rng")
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if re.search(r"\bselect_rng\b", path.read_text(encoding="utf-8"))] == []


def test_every_random_stream_is_made_by_the_one_streams_table():
    # a stream seeded anywhere else could take its own seed string, and the
    # draws it moved would show only as a changed digest; annotations are
    # not calls, so only a made stream counts
    assert _callers_of("Random") == ["runtime.py:__missing__"]
    tree = ast.parse((PACKAGE / "runtime.py").read_text(encoding="utf-8"))
    assert [cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "__missing__"] == ["Streams"]
    # a node keeps no stream, and a member draws from its table alone
    from carryflow.nodes import Node
    from carryflow.runtime import Member
    assert [name for name in ("_first_draw", "exec_rng", "fault_rng")
            if hasattr(Node, name)] == []
    assert not hasattr(Member, "stream")
