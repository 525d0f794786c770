"""Line-based scenario file parser, serializer, and test templates.

File format (one directive per line, `#` starts a comment):

    scenario: smart_home_audit
    option: devices=home.dev
    template_dir: templates
    test: port_sweep
    phase: standard
    action: USER, port_risk, TEST, {target=cam01, ports=1-65535}
    use: teardown

`use: NAME` splices in the actions of `<template_dir>/NAME.test`, a file
holding only `action:` (and optional comment) lines.  A params block that is
a single bare token, e.g. `{trajectory.cfg}`, is shorthand for `{file=...}`.
Values stay the text the file holds (`password=0123` is "0123"); the
code that reads a value converts it, and checks a number there.  A
malformed scenario or template raises AnalysisError("<path>:<line>: ...")
naming the file at fault and its own line.  load_scenario checks syntax
only, and that no option key is set twice; it records the line of each
option and action for ScenarioRunner.validate to report at.
"""

from __future__ import annotations

import os

from .errors import ValidationError
from .model import (
    Action,
    ParamValue,
    Phase,
    Scenario,
    Test,
    make_action,
)
from .records import Source, directives


def _parse_params(block: str) -> dict[str, str]:
    block = block.strip()
    if not (block.startswith("{") and block.endswith("}")):
        raise ValueError("params must be brace-delimited")
    inner = block[1:-1].strip()
    if not inner:
        return {}
    if "=" not in inner and "," not in inner:
        # single bare token: file-argument shorthand
        return {"file": inner}
    params: dict[str, str] = {}
    for piece in inner.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ValueError(f"bad param {piece!r} (expected k=v)")
        key, _, val = piece.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"bad param {piece!r} (empty key)")
        params[key] = val.strip()
    return params


def _parse_action(body: str, source: Source) -> Action:
    brace = body.find("{")
    if brace < 0:
        raise ValueError("action needs a {params} block")
    head, block = body[:brace], body[brace:]
    fields = [f.strip() for f in head.split(",") if f.strip()]
    if len(fields) != 3:
        raise ValueError(
            "action expects: INITIATOR, ELEMENT, COMMAND, {params}")
    initiator, element, command = fields
    params = _parse_params(block)
    try:
        return make_action(initiator, element, command, params,
                           origin=(source.path, source.line))
    except ValidationError as exc:
        raise ValueError(str(exc)) from None


def _load_template(template_dir: str, name: str) -> list[Action]:
    path = os.path.join(template_dir, name + ".test")
    if not os.path.isfile(path):
        raise ValueError(f"template not found: {path}")
    actions: list[Action] = []
    source = Source(path)
    with source.parsing():
        for key, body in directives(source):
            if key != "action":
                raise ValueError(f"template {name}: only action lines allowed")
            actions.append(_parse_action(body, source))
        if not actions:
            raise ValueError(f"template {name} is empty")
    return actions


def load_scenario(path: str) -> Scenario:
    """The scenario file at path, its `use:` templates spliced in."""
    base_dir = os.path.dirname(os.path.abspath(path))
    name: str | None = None
    name_line = 0
    options: list[tuple[str, str]] = []
    option_lines: dict[str, int] = {}
    template_dir = base_dir
    tests: list[Test] = []
    cur_name: str | None = None
    cur_phase = Phase.STANDARD
    cur_actions: list[Action] = []

    def flush() -> None:
        nonlocal cur_name, cur_actions, cur_phase
        if cur_name is None:
            return
        if not cur_actions:
            raise ValueError(f"test {cur_name!r} has no actions")
        tests.append(Test(cur_name, tuple(cur_actions), cur_phase))
        cur_name, cur_actions, cur_phase = None, [], Phase.STANDARD

    source = Source(path)
    with source.parsing():
        for key, body in directives(source):
            if key == "scenario":
                if name is not None:
                    raise ValueError("duplicate scenario directive")
                if not body:
                    raise ValueError("scenario needs a name")
                name, name_line = body, source.line
            elif key == "option":
                if "=" not in body:
                    raise ValueError("option expects k=v")
                k, _, v = body.partition("=")
                k = k.strip()
                if k in option_lines:
                    raise ValueError(f"option {k!r} already set at line "
                                     f"{option_lines[k]}")
                options.append((k, v.strip()))
                option_lines[k] = source.line
            elif key == "template_dir":
                template_dir = os.path.join(base_dir, body)
            elif key == "test":
                flush()
                if not body:
                    raise ValueError("test needs a name")
                if any(t.name == body for t in tests):
                    raise ValueError(f"duplicate test name {body!r}")
                cur_name = body
            elif key == "phase":
                if cur_name is None:
                    raise ValueError("phase outside a test")
                cur_phase = Phase(body)
            elif key == "action":
                if cur_name is None:
                    raise ValueError("action outside a test")
                cur_actions.append(_parse_action(body, source))
            elif key == "use":
                if cur_name is None:
                    raise ValueError("use outside a test")
                cur_actions.extend(_load_template(template_dir, body))
            else:
                raise ValueError(f"unknown directive {key!r}")
        flush()
        if name is None:
            raise ValueError("missing scenario directive")
        if not tests:
            raise ValueError("scenario has no tests")
    return Scenario(name=name, tests=tuple(tests), options=tuple(options),
                    origin=(path, name_line), option_lines=option_lines)


# ---------------------------------------------------------------------------
# Serialization (templates are expanded; round-trips parse back equal)
# ---------------------------------------------------------------------------

def _format_value(value: ParamValue) -> str:
    return str(value)


def _format_action(action: Action) -> str:
    inner = ", ".join(f"{k}={_format_value(v)}" for k, v in action.params)
    return (f"action: {action.initiator}, {action.element}, "
            f"{action.command.value}, {{{inner}}}")


def serialize_scenario(scenario: Scenario) -> str:
    lines = [f"scenario: {scenario.name}"]
    for key, value in scenario.options:
        lines.append(f"option: {key}={_format_value(value)}")
    for test in scenario.tests:
        lines.append(f"test: {test.name}")
        if test.phase != Phase.STANDARD:
            lines.append(f"phase: {test.phase.value}")
        for action in test.actions:
            lines.append(_format_action(action))
    return "\n".join(lines) + "\n"

