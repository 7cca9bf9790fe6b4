"""The bounds every scenario value meets, whether a file or a script gives it.

A row (`Key`) bounds one field: its kind and its bounds, and for the parser
the INI key that sets it. Each bounded type keeps its rows beside it and
applies them with `check` when it is built, so a hand-built value is
refused like a parsed one, in the same words; the parser reads a file's
keys by the same rows, so a bad key is refused before its type is built.

The size bounds (`MAX_*`, `MIN_*`) make every accepted run end, and bound
what it allocates before its first event; `scenario` says why each is
where it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

MAX_ROUNDS = 1_000_000
MAX_NODES = 10_000
MAX_OFFLOADS = 100_000
# metres, for every length of the geometry
MIN_LENGTH_M = 1e-6
MAX_LENGTH_M = 1e9
# megabits per second; its value in bits per second stays finite, as a
# `LinkModel` needs
MAX_BANDWIDTH_MBIT = 1e300


class ScenarioError(ValueError):
    """All configuration problems of a scenario, joined into one error."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


_KINDS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class Key:
    """One bounded field: the INI key that sets it, its kind and its bounds."""

    name: str
    attr: str = ""              # the field, when not named like the key
    kind: type = float          # int, float, bool or str
    minimum: float = -math.inf
    maximum: float = math.inf
    positive: bool = False
    allow_inf: bool = False
    scale: Optional[Callable[[float], float]] = None   # INI unit -> field unit

    def problem(self, value: object, text: Optional[str] = None) -> Optional[str]:
        """Why the row refuses a value, or None if it takes it.

        A value is of the row's kind: a bool only in a bool row, and an int
        in an int or a float row. A str row checks only that. None stands
        for text that reads as no value of the kind; `text` is the value as
        the file wrote it, shown in place of the value. A NaN fails every
        bound.
        """
        kind = self.kind
        if ((type(value) is bool) is not (kind is bool)
                or not isinstance(value, (int, float) if kind is float else kind)
                or isinstance(value, float) and math.isinf(value) and not self.allow_inf):
            return f"is not {_KINDS[kind]}: {value if text is None else text!r}"
        if kind is str:
            return None
        show = str if kind is int else "{:g}".format
        # an int in a float row shows all its digits, and may not fit a float
        got = str(value) if type(value) is int else show(value)
        if self.positive and not value > 0:
            return f"must be positive, got {got}"
        if not value >= self.minimum:
            return f"must be at least {show(self.minimum)}, got {got}"
        if not value <= self.maximum:
            return f"must be at most {show(self.maximum)}, got {got}"
        return None


def keys(*names: str, **bounds: Any) -> tuple[Key, ...]:
    """One row per name, all with the same bounds."""
    return tuple(Key(name, **bounds) for name in names)


def check(obj: object, rows: Iterable[Key],
          cross: Callable[[Any], Iterable[str]] = lambda obj: ()) -> None:
    """Raise one ScenarioError listing `<field> <problem>` for each field of
    obj that its row refuses, or if none is, each problem `cross` finds.

    A field that defaults to None is unset while it is None. `cross` states
    the rules across fields, or over the entries of one, and runs only once
    every row passes: over a refused value it would add only a derived
    problem, or fail on a value of the wrong kind.
    """
    problems = []
    for key in rows:
        value = getattr(obj, field := key.attr or key.name)
        if (value is not None or getattr(type(obj), field, ...) is not None) \
                and (problem := key.problem(value)) is not None:
            problems.append(f"{field} {problem}")
    problems = problems or list(cross(obj))
    if problems:
        raise ScenarioError(problems)
