"""Every public class, function or method of the package has a caller outside tests."""

import ast
import re
from collections import Counter
from pathlib import Path

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
