"""Scenario file parsing, templates, and round-trip serialization."""

import re

import pytest

from conftest import input_at, load_text
from iotbed.errors import AnalysisError
from iotbed.model import Command, Phase
from iotbed.scenario import serialize_scenario, load_scenario

BASIC = """\
scenario: smoke
option: devices=devices.dev
option: k=3

test: first
action: USER, cam1, TEST, {}
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}

test: second
phase: context
action: USER, GPS_SIM, START, {route.ctx}
"""


def test_parse_basic_shape():
    s = load_text(load_scenario, BASIC)
    assert s.name == "smoke"
    assert s.option_dict() == {"devices": "devices.dev", "k": "3"}
    assert [t.name for t in s.tests] == ["first", "second"]
    assert s.tests[0].phase is Phase.STANDARD
    assert s.tests[1].phase is Phase.CONTEXT


def test_parse_action_fields():
    s = load_text(load_scenario, BASIC)
    probe = s.tests[0].actions[1]
    assert probe.initiator == "USER"
    assert probe.element == "port_risk"
    assert probe.command is Command.TEST
    assert probe.param_dict() == {"target": "cam1", "ports": "1-1024"}


def test_bare_token_param_becomes_file():
    s = load_text(load_scenario, BASIC)
    start = s.tests[1].actions[0]
    assert start.param_dict() == {"file": "route.ctx"}


def test_param_values_keep_their_text():
    # no value is read as a number: a password of 0123 keeps its zero
    s = load_text(
        load_scenario, "scenario: s\noption: k=3.0\ntest: t\n"
        "action: USER, e, SET, {a=3, b=2.5, c=hello, d=0123, e=1e3}\n")
    act = s.tests[0].actions[0]
    assert act.param_dict() == {"a": "3", "b": "2.5", "c": "hello",
                                "d": "0123", "e": "1e3"}
    assert s.option_dict()["k"] == "3.0"


def test_comments_and_blanks_ignored():
    s = load_text(
        load_scenario, "# header\nscenario: s\n\n   # indent\ntest: t\n"
        "action: USER, e, TEST, {}  # trailing comment\n")
    assert len(s.tests) == 1
    assert s.tests[0].actions[0].params == ()


def rejects(tmp_path, text, line, message=""):
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, line) + message):
        load_text(load_scenario, text, tmp_path)


def test_duplicate_test_name_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\naction: USER, e, TEST, {}\n"
            "test: t\naction: USER, e, TEST, {}\n", 4, "duplicate test")


def test_action_outside_test_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\naction: USER, e, TEST, {}\n", 2,
            "action outside")


def test_unknown_phase_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\nphase: bogus\n"
            "action: USER, e, TEST, {}\n", 3, "'bogus'")


def test_unknown_directive_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\nbogus: x\n", 2, "unknown directive")
    rejects(tmp_path, "scenario: s\ntest: t\n# note\nno colon here\n", 4,
            "expected 'key: value'")


def test_malformed_action_reports_line(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\naction: USER, e, TEST\n", 3,
            "action needs")


def test_unknown_command_rejected_with_line(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\naction: USER, e, FLY, {}\n", 3,
            "unknown command")


def test_empty_test_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\ntest: u\n"
            "action: USER, e, TEST, {}\n", 3, "test 't' has no actions")
    rejects(tmp_path, "scenario: s\n", 2, "scenario has no tests")


def test_template_expansion(tmp_path):
    tpl = tmp_path / "tpl"
    tpl.mkdir()
    (tpl / "probe.test").write_text(
        "action: USER, cam1, TEST, {}\n"
        "action: USER, port_risk, TEST, {target=cam1}\n")
    scn = tmp_path / "s.scn"
    scn.write_text(
        "scenario: s\n"
        f"template_dir: {tpl}\n"
        "test: t\n"
        "use: probe\n"
        "action: USER, fingerprint, TEST, {target=cam1}\n")
    s = load_scenario(str(scn))
    cmds = [(a.element, a.command) for a in s.tests[0].actions]
    assert cmds == [("cam1", Command.TEST), ("port_risk", Command.TEST),
                    ("fingerprint", Command.TEST)]


def test_missing_template_rejected(tmp_path):
    rejects(tmp_path, "scenario: s\ntest: t\nuse: nothere\n"
            "action: USER, e, TEST, {}\n", 3, "template not found")
    # an error inside a template names the template and its own line
    (tmp_path / "probe.test").write_text(
        "# probe actions\naction: USER, cam1, TEST, {}\n"
        "action: USER, cam1, FLY, {}\n")
    scn = "scenario: s\ntest: t\nuse: probe\n"
    with pytest.raises(AnalysisError,
                       match=f"^{re.escape(str(tmp_path / 'probe.test'))}:3: "
                       "unknown command"):
        load_text(load_scenario, scn, tmp_path)
    (tmp_path / "probe.test").write_text("# nothing yet\n")
    with pytest.raises(AnalysisError,
                       match=f"^{re.escape(str(tmp_path / 'probe.test'))}:2: "
                       "template probe is empty"):
        load_text(load_scenario, scn, tmp_path)


def test_serialize_round_trip():
    s = load_text(load_scenario, BASIC)
    text = serialize_scenario(s)
    again = load_text(load_scenario, text)
    assert again == s
    # render is stable too
    assert serialize_scenario(again) == text


def test_serialize_phase_line_only_for_context():
    text = serialize_scenario(load_text(load_scenario, BASIC))
    assert text.count("phase: context") == 1
    assert "phase: standard" not in text
