"""Core object model: actions, tests, scenarios, descriptors, trace entries."""

import pytest

from iotbed.errors import ValidationError
from iotbed.model import (
    Command,
    ElementDescriptor,
    ElementKind,
    ParamSchema,
    Phase,
    Scenario,
    Test,
    TraceEntry,
    make_action,
    param_count,
)


def test_command_set_is_closed():
    names = {c.value for c in Command}
    assert names == {
        "START", "STOP", "CREATE", "DELETE", "MODIFY", "SET", "TEST",
        "NOTIFY", "SELECT", "REMOVE", "LOGIN", "TEST_CONNECTION",
    }
    assert len(Command) == 12


def test_make_action_builds_tuple():
    act = make_action("USER", "cam1", Command.TEST, {"target": "cam1"})
    assert act.initiator == "USER"
    assert act.element == "cam1"
    assert act.command is Command.TEST
    assert act.param_dict() == {"target": "cam1"}


def test_make_action_accepts_command_name_string():
    act = make_action("USER", "cam1", "TEST_CONNECTION", {"port": 80})
    assert act.command is Command.TEST_CONNECTION


def test_make_action_rejects_unknown_command():
    with pytest.raises(ValidationError):
        make_action("USER", "cam1", "FLY", {})


def test_action_params_immutable_lookup():
    act = make_action("u", "e", Command.SET, {"b": 2, "a": 1})
    assert act.param_dict() == {"a": 1, "b": 2}
    assert act.get("a") == 1
    assert act.get("missing", 9) == 9
    with pytest.raises(AttributeError):
        act.element = "other"  # frozen


def test_test_requires_actions():
    with pytest.raises(ValidationError):
        Test(name="empty", actions=())


def test_test_default_phase_is_standard():
    act = make_action("u", "e", Command.TEST, {})
    t = Test(name="t", actions=(act,))
    assert t.phase is Phase.STANDARD


def test_scenario_requires_tests():
    with pytest.raises(ValidationError):
        Scenario(name="s", tests=())


def test_scenario_option_dict_and_phase_split():
    act = make_action("u", "e", Command.TEST, {})
    std = Test(name="t1", actions=(act,))
    ctx = Test(name="t2", actions=(act,), phase=Phase.CONTEXT)
    s = Scenario(name="s", tests=(std, ctx),
                 options=(("k", "3"), ("dut", "cam1")))
    assert s.option_dict() == {"k": "3", "dut": "cam1"}
    assert s.tests_in_phase(Phase.STANDARD) == (std,)
    assert s.tests_in_phase(Phase.CONTEXT) == (ctx,)


def test_param_schema_check_accepts_exact_and_optional():
    schema = ParamSchema(required=frozenset({"target"}),
                         optional=frozenset({"ports"}))
    schema.check({"target": "cam1"})
    schema.check({"target": "cam1", "ports": "1-80"})


def test_param_schema_check_rejects_missing_and_unknown():
    schema = ParamSchema(required=frozenset({"target"}))
    with pytest.raises(ValidationError):
        schema.check({})
    with pytest.raises(ValidationError):
        schema.check({"target": "cam1", "bogus": 1})


def test_element_descriptor_supports():
    d = ElementDescriptor(
        id="cam1", kind=ElementKind.DEVICE_UNDER_TEST,
        driver={Command.TEST: ParamSchema()})
    assert Command.TEST in d.driver
    assert Command.START not in d.driver


def test_element_kind_vocabulary():
    assert {k.value for k in ElementKind} == {
        "device_under_test", "simulator", "measurement_tool",
        "analysis_tool", "security_test",
    }


def test_trace_entry_ok_flag():
    act = make_action("u", "e", Command.TEST, {})
    good = TraceEntry(seq=1, ts=0.0, test_name="t", action=act, outcome="ok")
    bad = TraceEntry(seq=2, ts=0.0, test_name="t", action=act,
                     outcome="error", message="boom")
    assert good.ok() and not bad.ok()


def test_param_count_takes_whole_numbers_only():
    assert param_count({"port": "23"}, "port") == 23
    assert param_count({"port": "23.0"}, "port") == 23
    assert param_count({}, "port", 80) == 80
    with pytest.raises(ValidationError, match="whole number"):
        param_count({"port": "23.9"}, "port")
