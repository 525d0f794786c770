"""Scenario runner: phases, trace bookkeeping, artifacts, reports."""

import math
import os
import random
import re
import time
import warnings

import pytest

from conftest import (CAMERA_TEXT, FLEET_TEXT, INSIDE_WINDOWS, TRIGGER_LAT,
                      TRIGGER_LON, TRIGGER_RADIUS_M, load_text)
from iotbed.errors import AnalysisError, ValidationError
from iotbed.model import Command, ElementKind, Phase
from iotbed.orchestrator import (CLOCK, GPS_SIM, SNIFFER, RunOptions,
                                 ScenarioRunner, builtin_descriptors,
                                 device_descriptor, read_report_fields,
                                 render_report, run_scenario)
from iotbed.profiler import TrainParams, extract_features, save_model, train_model
from iotbed.scenario import load_scenario
from iotbed.sectests import PLUGINS
from iotbed.sectests.portrisk import PortScoreEntry
from iotbed.simnet import MemoryNetwork, read_capture
from iotbed.simnet.context import haversine_m
from iotbed.simnet.devspec import load_device_spec
from iotbed.trace import read_trace


def run_dir_scenario(tmp_path, scenario_text, devices_text=CAMERA_TEXT,
                     seed=11, **extra):
    (tmp_path / "cam.dev").write_text(devices_text)
    (tmp_path / "scn.scn").write_text(scenario_text)
    scenario = load_scenario(str(tmp_path / "scn.scn"))
    options = RunOptions(seed=seed, runs_dir=str(tmp_path / "runs"), **extra)
    return ScenarioRunner(scenario, options)


@pytest.fixture(scope="module")
def context_run(tmp_path_factory):
    """One full run of the context scenario, shared across this module."""
    base = tmp_path_factory.mktemp("ctxrun")
    from conftest import CONTEXT_SCENARIO_TEXT, make_trajectory_text
    (base / "devices.dev").write_text(FLEET_TEXT)
    (base / "traj.ctx").write_text(make_trajectory_text())
    (base / "scn.scn").write_text(CONTEXT_SCENARIO_TEXT)
    scenario = load_scenario(str(base / "scn.scn"))
    options = RunOptions(seed=11, runs_dir=str(base / "runs"))
    report = ScenarioRunner(scenario, options).run()
    return scenario, report


# -- element wiring ---------------------------------------------------------


def test_builtin_descriptor_inventory():
    descs = {d.id: d for d in builtin_descriptors()}
    assert set(descs) == {CLOCK, GPS_SIM, SNIFFER} | set(PLUGINS)
    assert descs[CLOCK].kind is ElementKind.SIMULATOR
    assert descs[SNIFFER].kind is ElementKind.MEASUREMENT_TOOL
    for kind in PLUGINS:
        assert descs[kind].kind is ElementKind.SECURITY_TEST
        assert Command.TEST in descs[kind].driver
        assert Command.START not in descs[kind].driver


def test_device_descriptor_commands():
    spec = load_text(load_device_spec, CAMERA_TEXT)[0]
    desc = device_descriptor(spec)
    assert desc.kind is ElementKind.DEVICE_UNDER_TEST
    for cmd in (Command.TEST, Command.TEST_CONNECTION, Command.LOGIN,
                Command.START, Command.STOP):
        assert cmd in desc.driver
    assert Command.DELETE not in desc.driver


# -- option handling --------------------------------------------------------


def test_missing_devices_option_rejected(tmp_path):
    runner = run_dir_scenario(tmp_path, "scenario: s\ntest: t\n"
                              "action: USER, CLOCK, SET, {advance_s=1}\n")
    with pytest.raises(AnalysisError, match=r"scn\.scn:1: .*devices"):
        runner.run()


def test_unknown_dut_rejected(tmp_path):
    runner = run_dir_scenario(
        tmp_path, "scenario: s\noption: devices=cam.dev\noption: dut=ghost\n"
        "test: t\naction: USER, CLOCK, SET, {advance_s=1}\n")
    with pytest.raises(AnalysisError, match=r"scn\.scn:3: .*ghost"):
        runner.run()


def test_criteria_option_for_unknown_kind_rejected(tmp_path):
    # an unknown test kind, and a known one without a parameter name
    for key in ("criteria.made_up.threshold", "criteria.port_risk"):
        runner = run_dir_scenario(
            tmp_path, "scenario: s\noption: devices=cam.dev\n"
            f"option: {key}=3\n"
            "test: t\naction: USER, cam1, TEST, {}\n")
        with pytest.raises(AnalysisError, match=f"scn\\.scn:3: {key}: "):
            runner.run()


def test_unknown_backend_rejected(tmp_path):
    runner = run_dir_scenario(
        tmp_path, "scenario: s\noption: devices=cam.dev\n"
        "test: t\naction: USER, cam1, TEST, {}\n", backend="carrier-pigeon")
    with pytest.raises(ValidationError):
        runner.run()


def test_validation_failure_aborts_before_any_artifact(tmp_path):
    runner = run_dir_scenario(
        tmp_path, "scenario: s\noption: devices=cam.dev\n"
        "test: t\naction: USER, nonexistent_element, TEST, {}\n")
    with pytest.raises(AnalysisError, match=r"scn\.scn:4: unknown element"):
        runner.run()
    assert not os.path.exists(tmp_path / "runs")


# -- trace discipline -------------------------------------------------------


def test_full_run_trace_is_one_entry_per_action(context_run):
    scenario, report = context_run
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    planned = [(t.name, a.element, a.command)
               for t in scenario.tests for a in t.actions]
    assert [(e.test_name, e.action.element, e.action.command)
            for e in entries] == planned
    assert all(e.outcome == "ok" for e in entries)
    ts = [e.ts for e in entries]
    assert ts == sorted(ts)


def test_standard_phase_runs_entirely_before_context_phase(context_run):
    scenario, report = context_run
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    phase_of = {t.name: t.phase for t in scenario.tests}
    phases = [phase_of[e.test_name] for e in entries]
    last_std = max(i for i, p in enumerate(phases) if p is Phase.STANDARD)
    first_ctx = min(i for i, p in enumerate(phases) if p is Phase.CONTEXT)
    assert last_std < first_ctx


def test_failed_action_skips_rest_of_test_but_not_the_run(tmp_path):
    text = """\
scenario: fail_path
option: devices=cam.dev
option: baseline_s=0

test: broken
action: USER, cam1, TEST_CONNECTION, {port=9999}
action: USER, cam1, TEST, {}

test: aftermath
action: USER, cam1, TEST, {}
"""
    runner = run_dir_scenario(tmp_path, text)
    report = runner.run()
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    assert [e.outcome for e in entries] == ["error", "error", "ok"]
    assert "skipped" in entries[1].message
    assert "9999" in entries[0].message
    # only the action that ran contributes a verdict
    assert len(report.verdicts()) == 1
    # no risk was found, but an action erred: not a clean run
    assert report.errors == 1
    assert report.exit_code() == 2


def test_device_start_and_stop(tmp_path):
    # START finds the device running; after STOP it is not, and nothing
    # restarts it
    text = """\
scenario: s
option: devices=cam.dev
option: baseline_s=0

test: cycle
action: USER, cam1, START, {}
action: USER, cam1, STOP, {}
action: USER, cam1, TEST, {}
action: USER, cam1, START, {}
"""
    report = run_dir_scenario(tmp_path, text).run()
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    assert [e.outcome for e in entries] == ["ok", "ok", "ok", "error"]
    assert [e.message for e in entries[:2]] == ["already running", "stopped"]
    verdict, = report.verdicts()
    assert verdict.grade.value == "FAIL"
    assert entries[3].message == "cam1 is not running"


def test_bad_runtime_param_is_an_error_entry_not_a_crash(tmp_path):
    text = """\
scenario: s
option: devices=cam.dev
option: baseline_s=0

test: t
action: USER, CLOCK, SET, {advance_s=-5}
"""
    report = run_dir_scenario(tmp_path, text).run()
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    assert entries[0].outcome == "error"
    assert "advance_s" in entries[0].message


def test_numeric_looking_values_stay_text(tmp_path):
    # a device id and a password of digits are matched as written
    text = """\
scenario: s
option: devices=cam.dev
option: dut=007
option: baseline_s=0

test: t
action: USER, 007, LOGIN, {user=admin, password=0123, port=23}
"""
    devices = CAMERA_TEXT.replace("cam1", "007").replace(
        "default_creds=root:root", "default_creds=admin:0123")
    report = run_dir_scenario(tmp_path, text, devices).run()
    entry, = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    assert entry.ok() and entry.message.startswith("login reply: OK"), \
        entry.message
    assert dict(report.fields)["device"] == "007"


SKIP_RULE_SCENARIO = """\
scenario: s
option: devices=cam.dev
option: baseline_s={baseline_s}
option: window_s=5

test: context
phase: context
action: USER, CLOCK, SET, {{advance_s={advance_s}}}
"""


@pytest.mark.parametrize("baseline_s, advance_s, analyzed", [
    (15, 10, True),         # 3 baseline windows, 2 phase-2 windows
    (14.9, 10, False),      # only 2 full baseline windows
    (15, 4.9, False),       # phase 2 shorter than one window
])
def test_forensics_needs_three_baseline_windows_and_one_more(
        tmp_path, baseline_s, advance_s, analyzed):
    text = SKIP_RULE_SCENARIO.format(baseline_s=baseline_s,
                                     advance_s=advance_s)
    report = run_dir_scenario(tmp_path, text).run()
    names = set(os.listdir(report.run_dir))
    assert ("findings.rec" in names) is analyzed
    assert ("windows.rec" in names) is analyzed
    assert {"capture.cap", "status.rec"} <= names
    fields = dict(read_report_fields(
        os.path.join(report.run_dir, "report.rec")))
    if not analyzed:
        assert fields["findings.count"] == "0"


def test_run_id_taken_by_another_run_is_drawn_again(tmp_path, monkeypatch):
    # both runs start in the same second and draw the same first suffix
    draws = iter([0xbeef, 0xbeef, 0xcafe])
    monkeypatch.setattr(random.SystemRandom, "randrange",
                        lambda self, n: next(draws))
    monkeypatch.setattr(time, "strftime", lambda fmt: "20261019-101921")
    text = "scenario: s\noption: devices=cam.dev\noption: baseline_s=0\n" \
        "test: t\naction: USER, cam1, TEST, {}\n"
    first = run_dir_scenario(tmp_path, text).run()
    second = run_dir_scenario(tmp_path, text).run()
    assert first.run_id == "run-20261019-101921-beef"
    assert second.run_id == "run-20261019-101921-cafe"
    assert os.path.isdir(second.run_dir)
    assert next(draws, None) is None


# -- artifacts and report ---------------------------------------------------


def test_run_directory_layout(context_run):
    _, report = context_run
    names = set(os.listdir(report.run_dir))
    assert {"scenario.scn", "trace.jsonl", "capture.cap", "status.rec",
            "windows.rec", "findings.rec", "report.rec",
            "report.txt"} <= names
    assert re.fullmatch(r"run-\d{8}-\d{6}-[0-9a-f]{4}", report.run_id)


def test_report_rec_round_trips_and_text_is_pure_render(context_run):
    _, report = context_run
    rec = os.path.join(report.run_dir, "report.rec")
    fields = read_report_fields(rec)
    assert fields == report.fields
    with open(os.path.join(report.run_dir, "report.txt")) as fh:
        assert fh.read() == render_report(fields)


def test_verdict_count_matches_executed_security_tests(context_run):
    scenario, report = context_run
    n_test_actions = sum(1 for t in scenario.tests for a in t.actions
                         if a.command is Command.TEST)
    assert len(report.verdicts()) == n_test_actions
    kinds = [r.kind for r in report.phase1_results]
    assert kinds == ["liveness", "port_risk", "fingerprint"]
    assert report.phase2_results == []


def test_context_findings_land_in_the_scripted_zone(context_run):
    _, report = context_run
    attacks = [f for f in report.findings if f.classification == "attack"]
    alarms = [f for f in report.findings
              if f.classification == "possible_false_alarm"]
    assert len(attacks) == 2 and len(alarms) == 1
    for f in attacks:
        lat, lon = f.location
        assert haversine_m(lat, lon, TRIGGER_LAT, TRIGGER_LON) \
            <= TRIGGER_RADIUS_M
    hits = sorted(f.virtual_time for f in attacks)
    for t, (lo, hi) in zip(hits, INSIDE_WINDOWS):
        assert lo <= t <= hi
    # the scripted false alarm happened away from the trigger zone
    assert haversine_m(*alarms[0].location, TRIGGER_LAT, TRIGGER_LON) \
        > TRIGGER_RADIUS_M


def test_exit_code_zero_for_minor_findings(context_run):
    _, report = context_run
    fields = dict(report.fields)
    assert fields["overall.fail"] == "0"
    assert fields["overall.highest"] == "MINOR_RISK"
    assert report.exit_code() == 0


def test_exit_code_one_on_failed_test(tmp_path):
    text = """\
scenario: weak_creds
option: devices=cam.dev
option: baseline_s=0

test: mgmt
action: USER, management_access, TEST, {target=cam1}
"""
    report = run_dir_scenario(tmp_path, text).run()
    assert dict(report.fields)["overall.fail"] == "1"
    assert report.exit_code() == 1


def test_score_list_option_reaches_port_scoring(tmp_path):
    text = """\
scenario: scored
option: devices=cam.dev
option: baseline_s=0

test: scan
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}
"""
    custom = {80: PortScoreEntry(80, "web interface exposed", 40.0)}
    report = run_dir_scenario(tmp_path, text, score_list=custom).run()
    fields = dict(report.fields)
    assert fields["portscan.count"] == "1"
    assert fields["portscan.0.total"] == "40"
    assert report.exit_code() == 1  # 40 > 30 is critical


def test_sniffer_records_a_capture_artifact(tmp_path):
    text = """\
scenario: sniffed
option: devices=cam.dev
option: baseline_s=0

test: tapped
action: USER, SNIFFER, START, {}
action: USER, CLOCK, SET, {advance_s=20}
action: USER, SNIFFER, STOP, {}
"""
    report = run_dir_scenario(tmp_path, text).run()
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    assert entries[-1].emitted_artifacts
    name = entries[-1].emitted_artifacts[0]
    assert name.endswith(".cap")
    assert os.path.getsize(os.path.join(report.run_dir, name)) > 0


def test_sniffer_scope_is_a_set_of_device_ids(tmp_path):
    # cam1 is a substring of cam10; a capture scoped to cam10 keeps none of
    # cam1's records
    text = """\
scenario: scoped
option: devices=cam.dev
option: baseline_s=0

test: tapped
action: USER, SNIFFER, START, {scope=cam10}
action: USER, CLOCK, SET, {advance_s=20}
action: USER, SNIFFER, STOP, {}
"""
    fleet = CAMERA_TEXT + "\n" + CAMERA_TEXT.replace("cam1 ", "cam10 ")
    report = run_dir_scenario(tmp_path, text, devices_text=fleet).run()
    entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))
    name, = entries[-1].emitted_artifacts
    records = read_capture(os.path.join(report.run_dir, name))
    assert records
    assert all("cam10" in (r.src_addr, r.dst_addr) for r in records)
    assert not any("cam1" in (r.src_addr, r.dst_addr) for r in records)


def test_sniffer_scope_naming_no_device_rejected(tmp_path):
    runner = run_dir_scenario(
        tmp_path, "scenario: s\noption: devices=cam.dev\ntest: t\n"
        "action: USER, SNIFFER, START, {scope=cam10}\n")
    with pytest.raises(AnalysisError,
                       match=r"scn\.scn:4: SNIFFER: unknown scope device "
                             r"'cam10'"):
        runner.run()
    assert not os.path.exists(tmp_path / "runs")


def test_profile_model_option_adds_profiling_section(tmp_path):
    # train a one-class model on the camera's own idle traffic, then point
    # the scenario at it
    spec = load_text(load_device_spec, CAMERA_TEXT)[0]
    net = MemoryNetwork(seed=3)
    net.spawn_device(spec, dut=True)
    net.observe(120)
    instances = extract_features(net.tap.records, label="camlike")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_model(instances, TrainParams(max_depth=4, min_leaf=2))
    save_model(model, str(tmp_path / "model.prof"))

    text = """\
scenario: profiled
option: devices=cam.dev
option: baseline_s=60
option: profile_model=model.prof

test: t
action: USER, cam1, TEST, {}
"""
    report = run_dir_scenario(tmp_path, text).run()
    assert report.profiling is not None
    assert report.profiling.top_class == "camlike"
    assert math.isclose(sum(report.profiling.per_class.values()), 1.0)
    keys = [k for k, _ in report.fields]
    assert "profiling.class.camlike" in keys


def test_run_scenario_convenience_wrapper(tmp_path):
    (tmp_path / "cam.dev").write_text(CAMERA_TEXT)
    scenario = load_text(
        load_scenario,
        "scenario: s\noption: devices=cam.dev\noption: baseline_s=0\n"
        "test: t\naction: USER, cam1, TEST, {}\n", str(tmp_path))
    report = run_scenario(scenario,
                          RunOptions(runs_dir=str(tmp_path / "runs")))
    fields = dict(report.fields)
    assert fields["scenario"] == "s"
    assert fields["overall.pass"] == "1"
