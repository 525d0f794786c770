"""Line-based scenario file parser, serializer, and test templates.

File format (one directive per line, `#` starts a comment):

    scenario: smart_home_audit
    option: seed=7
    template_dir: templates
    test: port_sweep
    phase: standard
    action: USER, SEC_SCAN, TEST, {target=cam01, port_range=1-65535}
    use: teardown

`use: NAME` splices in the actions of `<template_dir>/NAME.test`, a file
holding only `action:` (and optional comment) lines.  A params block that is
a single bare token, e.g. `{trajectory.cfg}`, is shorthand for `{file=...}`.
Values parse as int, then float, then string.  Errors report the 1-based
line number of the offending directive.
"""

from __future__ import annotations

import os

from .errors import ScenarioError, ValidationError
from .model import (
    Action,
    ParamValue,
    Phase,
    Scenario,
    Test,
    make_action,
)


def _parse_value(text: str) -> ParamValue:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_params(block: str, line: int) -> dict[str, ParamValue]:
    block = block.strip()
    if not (block.startswith("{") and block.endswith("}")):
        raise ScenarioError("params must be brace-delimited", line)
    inner = block[1:-1].strip()
    if not inner:
        return {}
    if "=" not in inner and "," not in inner:
        # single bare token: file-argument shorthand
        return {"file": inner}
    params: dict[str, ParamValue] = {}
    for piece in inner.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ScenarioError(f"bad param {piece!r} (expected k=v)", line)
        key, _, val = piece.partition("=")
        key = key.strip()
        if not key:
            raise ScenarioError(f"bad param {piece!r} (empty key)", line)
        params[key] = _parse_value(val.strip())
    return params


def _parse_action(body: str, line: int) -> Action:
    brace = body.find("{")
    if brace < 0:
        raise ScenarioError("action needs a {params} block", line)
    head, block = body[:brace], body[brace:]
    fields = [f.strip() for f in head.split(",") if f.strip()]
    if len(fields) != 3:
        raise ScenarioError(
            "action expects: INITIATOR, ELEMENT, COMMAND, {params}", line)
    initiator, element, command = fields
    params = _parse_params(block, line)
    try:
        return make_action(initiator, element, command, params)
    except ValidationError as exc:
        raise ScenarioError(str(exc), line) from exc


def _load_template(template_dir: str, name: str, line: int) -> list[Action]:
    path = os.path.join(template_dir, name + ".test")
    if not os.path.isfile(path):
        raise ScenarioError(f"template not found: {path}", line)
    actions: list[Action] = []
    with open(path, encoding="utf-8") as fh:
        for tline_no, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            key, _, body = text.partition(":")
            if key.strip() != "action":
                raise ScenarioError(
                    f"template {name}: only action lines allowed", tline_no)
            actions.append(_parse_action(body.strip(), tline_no))
    if not actions:
        raise ScenarioError(f"template {name} is empty", line)
    return actions


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Parse scenario text into a Scenario, resolving templates if used."""
    name: str | None = None
    options: list[tuple[str, ParamValue]] = []
    template_dir = base_dir
    tests: list[Test] = []
    cur_name: str | None = None
    cur_phase = Phase.STANDARD
    cur_actions: list[Action] = []

    def flush(line: int) -> None:
        nonlocal cur_name, cur_actions, cur_phase
        if cur_name is None:
            return
        if not cur_actions:
            raise ScenarioError(f"test {cur_name!r} has no actions", line)
        tests.append(Test(cur_name, tuple(cur_actions), cur_phase))
        cur_name, cur_actions, cur_phase = None, [], Phase.STANDARD

    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, body = stripped.partition(":")
        key = key.strip()
        body = body.strip()
        if not sep:
            raise ScenarioError(f"expected 'directive: value', got {raw.strip()!r}",
                                line_no)
        if key == "scenario":
            if name is not None:
                raise ScenarioError("duplicate scenario directive", line_no)
            if not body:
                raise ScenarioError("scenario needs a name", line_no)
            name = body
        elif key == "option":
            if "=" not in body:
                raise ScenarioError("option expects k=v", line_no)
            k, _, v = body.partition("=")
            options.append((k.strip(), _parse_value(v.strip())))
        elif key == "template_dir":
            template_dir = os.path.join(base_dir, body)
        elif key == "test":
            flush(line_no)
            if not body:
                raise ScenarioError("test needs a name", line_no)
            if any(t.name == body for t in tests):
                raise ScenarioError(f"duplicate test name {body!r}", line_no)
            cur_name = body
        elif key == "phase":
            if cur_name is None:
                raise ScenarioError("phase outside a test", line_no)
            try:
                cur_phase = Phase(body)
            except ValueError:
                raise ScenarioError(f"unknown phase {body!r}", line_no) from None
        elif key == "action":
            if cur_name is None:
                raise ScenarioError("action outside a test", line_no)
            cur_actions.append(_parse_action(body, line_no))
        elif key == "use":
            if cur_name is None:
                raise ScenarioError("use outside a test", line_no)
            cur_actions.extend(_load_template(template_dir, body, line_no))
        else:
            raise ScenarioError(f"unknown directive {key!r}", line_no)

    last = text.count("\n") + 1
    flush(last)
    if name is None:
        raise ScenarioError("missing scenario directive", last)
    if not tests:
        raise ScenarioError("scenario has no tests", last)
    return Scenario(name=name, tests=tuple(tests), options=tuple(options))


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))


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

