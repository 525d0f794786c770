"""The element table a scenario is validated against, and the
append-only action trace."""

import re

import pytest

from conftest import CAMERA_TEXT
from iotbed.errors import AnalysisError, TraceError
from iotbed.model import Command, ElementKind, make_action
from iotbed.orchestrator import CLOCK, ScenarioRunner
from iotbed.scenario import load_scenario
from iotbed.trace import TraceLog, entry_from_json, entry_to_json, read_trace


def validated(tmp_path, action, devices_text=CAMERA_TEXT):
    """A runner validated on a one-action scenario over a devices file; the
    action sits on line 4 of scn.scn."""
    (tmp_path / "cam.dev").write_text(devices_text)
    (tmp_path / "scn.scn").write_text(
        f"scenario: s\noption: devices=cam.dev\ntest: t\naction: {action}\n")
    runner = ScenarioRunner(load_scenario(str(tmp_path / "scn.scn")))
    runner.validate()
    return runner


def rejected_at(tmp_path, line, action, devices_text=CAMERA_TEXT):
    path = re.escape(str(tmp_path / "scn.scn"))
    with pytest.raises(AnalysisError, match=f"^{path}:{line}: ") as info:
        validated(tmp_path, action, devices_text)
    return str(info.value)


def test_register_get_contains_ids(tmp_path):
    runner = validated(tmp_path, "USER, cam1, TEST, {}")
    assert runner.elements["cam1"].kind is ElementKind.DEVICE_UNDER_TEST
    assert runner.elements[CLOCK].kind is ElementKind.SIMULATOR
    assert runner.elements["port_risk"].kind is ElementKind.SECURITY_TEST


def test_duplicate_id_rejected(tmp_path):
    # a device may not take a builtin element's id; reported at the
    # devices option
    message = rejected_at(tmp_path, 2, "USER, CLOCK, SET, {advance_s=1}",
                          CAMERA_TEXT.replace("cam1", CLOCK))
    assert "'CLOCK'" in message


def test_unknown_id_rejected(tmp_path):
    # a security test's target must be a device of the devices file
    message = rejected_at(tmp_path, 4,
                          "USER, port_risk, TEST, {target=ghost}")
    assert "unknown target 'ghost'" in message


def test_validate_action_happy_path(tmp_path):
    validated(tmp_path, "USER, cam1, LOGIN, {user=root, password=root}")


def test_validate_action_unknown_element(tmp_path):
    message = rejected_at(tmp_path, 4, "USER, ghost, TEST, {}")
    assert "unknown element 'ghost'" in message


def test_validate_action_unsupported_command(tmp_path):
    message = rejected_at(tmp_path, 4, "USER, cam1, DELETE, {}")
    assert "does not support DELETE" in message


def test_validate_action_bad_params(tmp_path):
    message = rejected_at(tmp_path, 4, "USER, cam1, LOGIN, {user=root}")
    assert "missing required params: ['password']" in message
    message = rejected_at(tmp_path, 4, "USER, cam1, TEST, {surprise=1}")
    assert "unexpected params: ['surprise']" in message


# -- trace log --------------------------------------------------------------


def test_trace_entry_json_round_trip():
    act = make_action("USER", "cam1", Command.LOGIN,
                      {"user": "root", "password": "root", "port": 23})
    from iotbed.model import TraceEntry
    entry = TraceEntry(seq=3, ts=1.25, test_name="t", action=act,
                       outcome="error", message="denied",
                       emitted_artifacts=("a.cap",))
    again = entry_from_json(entry_to_json(entry))
    assert again.seq == 3 and again.ts == 1.25
    assert again.action.param_dict() == act.param_dict()
    assert again.outcome == "error" and again.message == "denied"
    assert again.emitted_artifacts == ("a.cap",)


def test_trace_append_sequences_and_persists(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    log = TraceLog(path)
    a = make_action("USER", "cam1", Command.TEST, {})
    e1 = log.append(0.0, "t", a)
    e2 = log.append(1.0, "t", a, outcome="error", message="skipped")
    log.close()
    assert (e1.seq, e2.seq) == (1, 2)
    entries = read_trace(path)
    assert [e.seq for e in entries] == [1, 2]
    assert entries[1].outcome == "error"


def test_trace_append_after_close_rejected(tmp_path):
    log = TraceLog(str(tmp_path / "trace.jsonl"))
    log.close()
    with pytest.raises(TraceError):
        log.append(0.0, "t", make_action("USER", "e", Command.TEST, {}))


def test_trace_flushes_per_entry(tmp_path):
    # a crash mid-run must still leave every prior entry on disk
    path = str(tmp_path / "trace.jsonl")
    log = TraceLog(path)
    log.append(0.0, "t", make_action("USER", "e", Command.TEST, {}))
    on_disk = read_trace(path)  # read while the handle is still open
    assert len(on_disk) == 1
    log.close()
