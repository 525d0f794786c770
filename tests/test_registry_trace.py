"""Element registry validation and the append-only action trace."""

import threading

import pytest

from iotbed.errors import RegistryError, TraceError, ValidationError
from iotbed.model import (
    Command,
    ElementDescriptor,
    ElementKind,
    ParamSchema,
    make_action,
)
from iotbed.registry import ElementRegistry
from iotbed.trace import TraceLog, entry_from_json, entry_to_json, read_trace


def _cam_descriptor():
    return ElementDescriptor(
        id="cam1", kind=ElementKind.DEVICE_UNDER_TEST,
        driver={
            Command.TEST: ParamSchema(),
            Command.LOGIN: ParamSchema(
                required=frozenset({"user", "password"}),
                optional=frozenset({"port"})),
        })


def test_register_get_contains_ids():
    reg = ElementRegistry()
    reg.register(_cam_descriptor())
    assert reg.get("cam1").kind is ElementKind.DEVICE_UNDER_TEST
    assert reg.ids() == ["cam1"]


def test_duplicate_id_rejected():
    reg = ElementRegistry()
    first = _cam_descriptor()
    reg.register(first)
    with pytest.raises(RegistryError):
        reg.register(_cam_descriptor())
    assert reg.get("cam1") is first and reg.ids() == ["cam1"]


def test_unknown_id_rejected():
    reg = ElementRegistry()
    with pytest.raises(RegistryError):
        reg.get("ghost")


def test_validate_action_happy_path():
    reg = ElementRegistry()
    reg.register(_cam_descriptor())
    reg.validate_action(make_action("USER", "cam1", Command.LOGIN,
                                    {"user": "root", "password": "root"}))


def test_validate_action_unknown_element():
    reg = ElementRegistry()
    with pytest.raises(ValidationError):
        reg.validate_action(make_action("USER", "ghost", Command.TEST, {}))


def test_validate_action_unsupported_command():
    reg = ElementRegistry()
    reg.register(_cam_descriptor())
    with pytest.raises(ValidationError):
        reg.validate_action(make_action("USER", "cam1", Command.START, {}))


def test_validate_action_bad_params():
    reg = ElementRegistry()
    reg.register(_cam_descriptor())
    with pytest.raises(ValidationError):
        reg.validate_action(make_action("USER", "cam1", Command.LOGIN,
                                        {"user": "root"}))
    with pytest.raises(ValidationError):
        reg.validate_action(make_action("USER", "cam1", Command.TEST,
                                        {"surprise": 1}))


def test_registry_concurrent_register():
    reg = ElementRegistry()
    errors = []

    def add(n):
        try:
            reg.register(ElementDescriptor(
                id=f"dev{n}", kind=ElementKind.SIMULATOR))
        except RegistryError as exc:  # pragma: no cover - should not happen
            errors.append(exc)

    threads = [threading.Thread(target=add, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(reg.ids()) == 32


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
