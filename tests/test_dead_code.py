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
