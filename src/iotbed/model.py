"""Scenario/test/action object model and the closed command vocabulary.

Everything the testbed executes is expressed through three immutable value
types: a Scenario is an ordered set of Tests, a Test an ordered set of
Actions, and an Action a 4-tuple <initiator, element, command, params>.
Element descriptors pair an id with a driver manifest saying which commands
(and which parameters) the element accepts.  Parsing and serialization of
scenario files live in scenario.py, checking them in orchestrator.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import ValidationError

# The initiator used for operator-driven actions.
USER = "USER"

ParamValue = Union[str, int, float]


class Command(str, Enum):
    """Closed set of action commands understood by element drivers."""

    START = "START"
    STOP = "STOP"
    CREATE = "CREATE"
    DELETE = "DELETE"
    MODIFY = "MODIFY"
    SET = "SET"
    TEST = "TEST"
    NOTIFY = "NOTIFY"
    SELECT = "SELECT"
    REMOVE = "REMOVE"
    LOGIN = "LOGIN"
    TEST_CONNECTION = "TEST_CONNECTION"


COMMAND_NAMES = frozenset(c.value for c in Command)


class ElementKind(str, Enum):
    DEVICE_UNDER_TEST = "device_under_test"
    SIMULATOR = "simulator"
    MEASUREMENT_TOOL = "measurement_tool"
    ANALYSIS_TOOL = "analysis_tool"
    SECURITY_TEST = "security_test"


class Phase(str, Enum):
    STANDARD = "standard"
    CONTEXT = "context"


# The file and line a scenario part was read from; not part of equality, so
# one scenario read from two files compares equal.
Origin = tuple[str, int]


def param_number(params: dict, key: str,
                 default: float | None = None) -> float:
    """params[key], or default, as a finite float >= 0; ValidationError if
    it is not one, which errs the action that reads it."""
    value = params.get(key, default)
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (math.isfinite(number) and number >= 0):
        raise ValidationError(f"{key} must be a number >= 0, got {value!r}")
    return number


def param_count(params: dict, key: str, default: int | None = None) -> int:
    """params[key], or default, as a whole number >= 0 (23 and 23.0, not
    23.9); ValidationError if it is not one, which errs the action."""
    number = param_number(params, key, default)
    if not number.is_integer():
        raise ValidationError(f"{key} must be a whole number >= 0, "
                              f"got {params.get(key, default)!r}")
    return int(number)


@dataclass(frozen=True)
class Action:
    """One testing operation: <initiator, element, command, params>."""

    initiator: str
    element: str
    command: Command
    params: tuple[tuple[str, ParamValue], ...] = ()
    origin: Origin | None = field(default=None, compare=False, repr=False)

    def param_dict(self) -> dict[str, ParamValue]:
        return dict(self.params)

    def get(self, key: str, default: ParamValue | None = None) -> ParamValue | None:
        return self.param_dict().get(key, default)


def make_action(initiator: str, element: str, command: str | Command,
                params: dict[str, ParamValue] | None = None,
                origin: Origin | None = None) -> Action:
    """Build an Action, rejecting commands outside the closed set."""
    if isinstance(command, Command):
        cmd = command
    else:
        if command not in COMMAND_NAMES:
            raise ValidationError(f"unknown command {command!r}")
        cmd = Command(command)
    items = tuple((params or {}).items())
    return Action(initiator=initiator, element=element, command=cmd,
                  params=items, origin=origin)


@dataclass(frozen=True)
class Test:
    """A named, ordered, non-empty set of actions with one phase tag."""

    name: str
    actions: tuple[Action, ...]
    phase: Phase = Phase.STANDARD

    def __post_init__(self):
        if not self.actions:
            raise ValidationError(f"empty test {self.name!r}")


@dataclass(frozen=True)
class Scenario:
    """A named, ordered, non-empty set of tests plus run options.  origin
    is the `scenario:` line; option_lines has the line of each option key."""

    name: str
    tests: tuple[Test, ...]
    options: tuple[tuple[str, ParamValue], ...] = ()
    origin: Origin = field(default=("", 0), compare=False, repr=False)
    option_lines: dict[str, int] = field(default_factory=dict, compare=False,
                                         repr=False)

    def __post_init__(self):
        if not self.tests:
            raise ValidationError(f"empty scenario {self.name!r}")

    def option_dict(self) -> dict[str, ParamValue]:
        return dict(self.options)

    def tests_in_phase(self, phase: Phase) -> tuple[Test, ...]:
        return tuple(t for t in self.tests if t.phase == phase)


# ---------------------------------------------------------------------------
# Element descriptors / driver manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamSchema:
    """Parameter contract for one command of a driver manifest."""

    required: frozenset[str] = frozenset()
    optional: frozenset[str] = frozenset()
    allow_extra: bool = False

    def __post_init__(self):
        # callers may hand in any iterable of names
        object.__setattr__(self, "required", frozenset(self.required))
        object.__setattr__(self, "optional", frozenset(self.optional))

    def check(self, params: dict[str, ParamValue]) -> None:
        missing = self.required - params.keys()
        if missing:
            raise ValidationError(f"missing required params: {sorted(missing)}")
        if not self.allow_extra:
            extra = params.keys() - self.required - self.optional
            if extra:
                raise ValidationError(f"unexpected params: {sorted(extra)}")


@dataclass
class ElementDescriptor:
    """A registered testbed element and its capability manifest."""

    id: str
    kind: ElementKind
    driver: dict[Command, ParamSchema] = field(default_factory=dict)
    description: str = ""


# ---------------------------------------------------------------------------
# Trace entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceEntry:
    """One executed action and its outcome, as persisted in the trace log."""

    seq: int
    ts: float                      # virtual-clock instant
    test_name: str
    action: Action
    outcome: str                   # "ok" | "error"
    message: str = ""
    emitted_artifacts: tuple[str, ...] = ()

    def ok(self) -> bool:
        return self.outcome == "ok"
