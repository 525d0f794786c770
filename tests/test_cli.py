"""Command-line behaviour: subcommands, exit codes, deterministic output."""

import collections
import os
import threading

import pytest

from conftest import CAMERA_TEXT, load_text
from iotbed.cli import build_parser, main
from iotbed.orchestrator import read_report_fields
from iotbed.profiler import Leaf, StatModel, save_model
from iotbed.simnet import MemoryNetwork, read_capture, write_capture
from iotbed.simnet.devspec import load_device_spec
from iotbed.trace import read_trace

RUN_SCENARIO = """\
scenario: cli_smoke
option: devices=cam.dev
option: baseline_s=20

test: checks
action: USER, cam1, TEST, {}
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}
"""


@pytest.fixture
def run_layout(tmp_path):
    (tmp_path / "cam.dev").write_text(CAMERA_TEXT)
    (tmp_path / "scn.scn").write_text(RUN_SCENARIO)
    return tmp_path


def test_run_prints_summary_and_exits_clean(run_layout, capsys):
    runs = str(run_layout / "runs")
    code = main(["run", str(run_layout / "scn.scn"), "--runs-dir", runs])
    out = capsys.readouterr().out
    assert code == 0
    assert "run complete: run-" in out
    assert "report:" in out
    # minor risk counts as neither pass nor fail in the tallies
    assert "pass=1 fail=0 highest=MINOR_RISK" in out
    run_id = next(line.split()[-1] for line in out.splitlines()
                  if line.startswith("run complete:"))
    assert os.path.isdir(os.path.join(runs, run_id))


# Each case: an option line (or None), the action after `USER, ` and the start
# of the error its one action ends in.
BAD_CRITERIA = {
    "ports": (None, "port_risk, TEST, {target=cam1, ports=abc}",
              "ports: bad port list 'abc'"),
    "management_ports": (
        None, "management_access, TEST, {target=cam1, management_ports=x}",
        "management_ports: bad port list 'x'"),
    "observe_s": (
        None, "scan_detectability, TEST, {target=cam1, observe_s=abc}",
        "observe_s must be a number >= 0, got 'abc'"),
    "negative": (
        None, "data_leakage, TEST, {target=cam1, observe_s=-1}",
        "observe_s must be a number >= 0, got '-1'"),
    "criteria_option": (
        "criteria.delay_attack.delay_ms=abc",
        "delay_attack, TEST, {target=cam1}",
        "delay_ms must be a number >= 0, got 'abc'"),
    "not_finite": (None, "cam1, LOGIN, {user=root, password=root, port=inf}",
                   "port must be a number >= 0, got 'inf'"),
    # counts and ports are whole numbers, never truncated to one
    "fractional_port": (
        None, "cam1, LOGIN, {user=root, password=root, port=23.9}",
        "port must be a whole number >= 0, got '23.9'"),
    "fractional_count": (
        None, "tamper_attack, TEST, {target=cam1, transactions=2.5}",
        "transactions must be a whole number >= 0, got '2.5'"),
    "fractional_size": (
        "criteria.data_leakage.entropy_min_size=2.5",
        "data_leakage, TEST, {target=cam1}",
        "entropy_min_size must be a whole number >= 0, got '2.5'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CRITERIA))
def test_run_bad_port_list_errs_the_action(run_layout, capsys, case):
    option, action, message = BAD_CRITERIA[case]
    (run_layout / "bad.scn").write_text(
        "scenario: bad_criteria\noption: devices=cam.dev\n"
        "option: baseline_s=0\n"
        + (f"option: {option}\n" if option else "")
        + f"test: t\naction: USER, {action}\n")
    runs = run_layout / "runs"
    code = main(["run", str(run_layout / "bad.scn"), "--runs-dir",
                 str(runs)])
    out = capsys.readouterr().out
    assert "run complete" in out
    assert out.endswith("highest=- errors=1\n")
    # nothing was tested, so the run is not clean
    assert code == 2
    entry, = read_trace(str(runs / os.listdir(runs)[0] / "trace.jsonl"))
    assert entry.outcome == "error" and entry.message.startswith(message)


def test_run_criteria_option_without_parameter_is_an_input_error(
        run_layout, capsys):
    (run_layout / "crit.scn").write_text(
        "scenario: s\noption: devices=cam.dev\n"
        "option: criteria.port_risk=5\n"
        "test: t\naction: USER, cam1, TEST, {}\n")
    code = main(["run", str(run_layout / "crit.scn"), "--runs-dir",
                 str(run_layout / "runs")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: {run_layout / 'crit.scn'}:3: criteria.port_risk: "
                   "criteria option names no parameter\n")


DEVICES = "devices=cam.dev"
CLOCK_SET = "USER, CLOCK, SET, {advance_s=1}"

# Each case: the scenario's options and action, and the file, line and
# message of the error.  Options start on line 2; the action follows the
# test line after them.
BAD_SCENARIOS = {
    "k_not_a_number": (
        [DEVICES, "k=x"], CLOCK_SET, "scn.scn", 3, "k must be a number"),
    "baseline_not_a_number": (
        [DEVICES, "baseline_s=x"], CLOCK_SET, "scn.scn", 3,
        "baseline_s must be a number"),
    "window_zero": (
        [DEVICES, "window_s=0"], CLOCK_SET, "scn.scn", 3, "window_s must be"),
    "k_zero": ([DEVICES, "k=0"], CLOCK_SET, "scn.scn", 3, "k must be > 0"),
    "unknown_key": (
        [DEVICES, "baselin_s=0"], CLOCK_SET, "scn.scn", 3, "unknown option"),
    "criteria_for_unknown_test": (
        [DEVICES, "criteria.made_up.x=3"], CLOCK_SET, "scn.scn", 3,
        "unknown test 'made_up'"),
    "criteria_without_parameter": (
        [DEVICES, "criteria.port_risk=5"], CLOCK_SET, "scn.scn", 3,
        "names no parameter"),
    "option_set_twice": (
        [DEVICES, "k=x", "k=3"], CLOCK_SET, "scn.scn", 4,
        "option 'k' already set at line 3"),
    "config_criterion_in_an_option": (
        [DEVICES, "criteria.port_risk.score_list=x"], CLOCK_SET, "scn.scn",
        3, "score_list is read only from the config file"),
    "config_criterion_in_an_action": (
        [DEVICES], "USER, port_risk, TEST, {target=cam1, score_list=x}",
        "scn.scn", 4, "score_list is read only from the config file"),
    "no_devices_option": (
        ["k=3"], CLOCK_SET, "scn.scn", 1, "option: devices"),
    "dut_not_in_devices": (
        [DEVICES, "dut=ghost"], CLOCK_SET, "scn.scn", 3, "dut 'ghost'"),
    "device_named_like_a_builtin": (
        ["devices=clock.dev"], CLOCK_SET, "scn.scn", 2, "device 'CLOCK'"),
    "unknown_element": (
        [DEVICES], "USER, ghost, TEST, {}", "scn.scn", 4,
        "unknown element 'ghost'"),
    "missing_required_param": (
        [DEVICES], "USER, cam1, LOGIN, {user=root}", "scn.scn", 4,
        "missing required params"),
    "unknown_target": (
        [DEVICES], "USER, port_risk, TEST, {target=ghost}", "scn.scn", 4,
        "unknown target 'ghost'"),
    "missing_trajectory": (
        [DEVICES], "USER, GPS_SIM, START, {none.ctx}", "scn.scn", 4,
        "cannot read"),
    "malformed_trajectory": (
        [DEVICES], "USER, GPS_SIM, START, {bad.ctx}", "bad.ctx", 1,
        "expected: t lat lon"),
    "missing_profile_model": (
        [DEVICES, "profile_model=none.prof"], CLOCK_SET, "scn.scn", 3,
        "cannot read"),
    "malformed_profile_model": (
        [DEVICES, "profile_model=bad.prof"], CLOCK_SET, "bad.prof", 1,
        "not a profile model file"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_run_rejects_a_bad_scenario_at_its_line(tmp_path, capsys, case):
    # checked before any network exists: no run directory is made and no
    # loopback thread is left behind
    options, action, named, line, message = BAD_SCENARIOS[case]
    (tmp_path / "cam.dev").write_text(CAMERA_TEXT)
    (tmp_path / "clock.dev").write_text(CAMERA_TEXT.replace("cam1", "CLOCK"))
    (tmp_path / "bad.ctx").write_text("0 32.0853\n")
    (tmp_path / "bad.prof").write_text("not a model\n")
    (tmp_path / "scn.scn").write_text(
        "scenario: bad\n" + "".join(f"option: {o}\n" for o in options)
        + f"test: t\naction: {action}\n")
    threads = threading.active_count()
    runs = tmp_path / "runs"
    code = main(["--backend", "loopback", "run", str(tmp_path / "scn.scn"),
                 "--runs-dir", str(runs)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {tmp_path / named}:{line}: "), err
    assert message in err
    assert not runs.exists()
    assert threading.active_count() == threads


# Liveness, the two device commands that connect, and every test but the two
# that wait seconds of wall time on loopback (data_leakage, delay_attack).
BOTH_BACKENDS_SCENARIO = """\
scenario: both_backends
option: devices=cam.dev
option: baseline_s=0

test: suite
action: USER, cam1, TEST, {}
action: USER, cam1, TEST_CONNECTION, {}
action: USER, cam1, LOGIN, {user=root, password=root}
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}
action: USER, scan_detectability, TEST, {target=cam1, observe_s=0.1}
""" + "".join(f"action: USER, {kind}, TEST, {{target=cam1}}\n" for kind in (
    "fingerprint", "process_enumeration", "data_collection",
    "management_access", "downgrade_attack", "replay_attack", "tamper_attack",
    "known_vulnerabilities", "vulnerability_probe"))


def _run_facts(layout, backend, capsys):
    """What a run of both.scn on backend must agree on: exit code, trace
    outcomes, phase-1 grades and the records of each tester-driven kind."""
    runs = layout / backend
    code = main(["--seed", "7", "--backend", backend, "run",
                 str(layout / "both.scn"), "--runs-dir", str(runs)])
    capsys.readouterr()
    run_dir = runs / os.listdir(runs)[0]
    report = dict(read_report_fields(str(run_dir / "report.rec")))
    trace = read_trace(str(run_dir / "trace.jsonl"))
    return {
        "code": code,
        "outcomes": [entry.outcome for entry in trace],
        "grades": [report[f"phase1.{i}.grade"]
                   for i in range(int(report["phase1.count"]))],
        # background and noise follow the clock, not the tests
        "kinds": collections.Counter(
            r.kind for r in read_capture(str(run_dir / "capture.cap"))
            if r.kind not in ("background", "noise")),
    }


def test_a_scenario_runs_alike_on_both_backends(run_layout, capsys):
    (run_layout / "both.scn").write_text(BOTH_BACKENDS_SCENARIO)
    memory = _run_facts(run_layout, "memory", capsys)
    assert memory["code"] == 1
    assert memory["outcomes"] == ["ok"] * 14
    assert len(memory["grades"]) == 12
    assert _run_facts(run_layout, "loopback", capsys) == memory


def test_report_rerender_is_byte_identical(run_layout, capsys):
    runs = str(run_layout / "runs")
    main(["run", str(run_layout / "scn.scn"), "--runs-dir", runs])
    run_id = os.listdir(runs)[0]
    capsys.readouterr()
    code = main(["report", run_id, "--runs-dir", runs])
    out = capsys.readouterr().out
    assert code == 0
    with open(os.path.join(runs, run_id, "report.txt")) as fh:
        assert out == fh.read()


def test_report_unknown_run_id(tmp_path, capsys):
    code = main(["report", "run-men-in-black", "--runs-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_report_truncated_record_is_an_input_error(tmp_path, capsys):
    run_dir = tmp_path / "r1"
    run_dir.mkdir()
    (run_dir / "report.rec").write_text("run_id=r1\n")
    code = main(["report", "r1", "--runs-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(run_dir / "report.rec") in err
    assert "generated_at" in err


def test_missing_scenario_file_is_an_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.scn")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_scan_scores_the_open_ports(run_layout, capsys):
    code = main(["scan", str(run_layout / "cam.dev"), "--ports", "1-1024"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Open ports: 23,80,443" in out
    assert "A web server is running on this port with Score: 3" in out
    assert "A TLSv1 server answered on this port with Score: 5" in out
    assert "Unscored ports: 23" in out
    assert "Total: 8" in out
    assert "Risk Level: Minor Risk" in out


def test_scan_with_custom_score_list_can_fail_the_gate(run_layout, capsys):
    score_csv = run_layout / "scores.csv"
    score_csv.write_text("23,A telnet server is running on this port,31\n")
    code = main(["scan", str(run_layout / "cam.dev"),
                 "--ports", "20,23", "--score-list", str(score_csv)])
    out = capsys.readouterr().out
    assert code == 1
    assert "Total: 31" in out
    assert "Risk Level: Critical Risk" in out


def test_scan_unknown_device_id(run_layout, capsys):
    code = main(["scan", str(run_layout / "cam.dev"), "--device", "ghost"])
    assert code == 2
    assert "ghost" in capsys.readouterr().err


MOTE_TEXT = """\
device: mote1 type=sensor_mote connectivity=zigbee
traffic: size_mean=120 size_stddev=12 gap_ms=400 gap_stddev_ms=40 session_rate=8 ttl=32
"""


def synth_capture_file(text, seed, seconds, path):
    spec = load_text(load_device_spec, text)[0]
    net = MemoryNetwork(seed=seed)
    net.spawn_device(spec, dut=True)
    net.observe(seconds)
    write_capture(net.tap.records, path)


@pytest.fixture
def profile_layout(tmp_path):
    captures = tmp_path / "captures"
    captures.mkdir()
    for name, text, seed in (("cam-a.cap", CAMERA_TEXT, 1),
                             ("cam-b.cap", CAMERA_TEXT, 2),
                             ("mote-a.cap", MOTE_TEXT, 3),
                             ("mote-b.cap", MOTE_TEXT, 4)):
        synth_capture_file(text, seed, 240, str(captures / name))
    (tmp_path / "train.labels").write_text(
        "cam-a.cap=ip_camera\nmote-a.cap=sensor_mote\n")
    (tmp_path / "holdout.labels").write_text(
        "cam-b.cap=ip_camera\nmote-b.cap=sensor_mote\n")
    return tmp_path


def test_profile_train_and_test_cycle(profile_layout, capsys):
    model_path = str(profile_layout / "model.prof")
    code = main(["profile", "train",
                 "--captures", str(profile_layout / "captures"),
                 "--labels", str(profile_layout / "train.labels"),
                 "--out", model_path,
                 "--holdout", str(profile_layout / "holdout.labels")])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 classes: ip_camera, sensor_mote" in out
    assert f"model written: {model_path}" in out
    assert "accuracy:" in out
    assert os.path.exists(model_path)

    record_path = str(profile_layout / "profile.rec")
    code = main(["profile", "test", "--model", model_path,
                 "--capture", str(profile_layout / "captures" / "cam-b.cap"),
                 "--device", "cam1", "--record", record_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "Tested device: cam1" in out
    assert "profiled as: ip_camera" in out
    with open(record_path) as fh:
        assert "top=ip_camera" in fh.read()


def test_profile_test_malformed_capture_is_an_input_error(tmp_path, capsys):
    model_path = str(tmp_path / "model.prof")
    save_model(StatModel(Leaf({"ip_camera": 1.0}, 1), ("ip_camera",), 10),
               model_path)
    bad = tmp_path / "bad.cap"
    bad.write_text("\nseq=1 ts=0.1 src_addr=a\n")
    code = main(["profile", "test", "--model", model_path,
                 "--capture", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{bad}:2: missing field 'payload_marker'" in err


@pytest.mark.parametrize("good, bad, line", [
    ("max_depth=12", "max_depth=x", 4),
    ("features: 10", "features: ten", 3),
    ("ip_camera:1.0", "ip_camera:x", 7),
    ("L 1 ip_camera:1.0\n", "", 7),        # tree section with no nodes
    ("ip_camera:1.0", "ip_camera:0.5", 7),
], ids=["max-depth", "features", "leaf-probability", "no-nodes",
        "leaf-sums-to-half"])
def test_profile_test_malformed_model_is_an_input_error(tmp_path, capsys,
                                                        good, bad, line):
    model_path = tmp_path / "model.prof"
    save_model(StatModel(Leaf({"ip_camera": 1.0}, 1), ("ip_camera",), 10),
               str(model_path))
    text = model_path.read_text()
    assert good in text
    model_path.write_text(text.replace(good, bad))
    capture = tmp_path / "c.cap"
    synth_capture_file(CAMERA_TEXT, 1, 30, str(capture))
    code = main(["profile", "test", "--model", str(model_path),
                 "--capture", str(capture)])
    assert code == 2
    assert f"error: {model_path}:{line}: " in capsys.readouterr().err


@pytest.mark.parametrize("content, line", [
    ("cam-a.cap=ip_camera\nmote-a.cap\n", 2),
    ("# labels\ncam-a.cap=ip_camera\nmote-a.cap= \n", 3),
], ids=["no-equals", "empty-label"])
def test_profile_train_malformed_labels_is_an_input_error(
        profile_layout, capsys, content, line):
    labels = profile_layout / "bad.labels"
    labels.write_text(content)
    code = main(["profile", "train",
                 "--captures", str(profile_layout / "captures"),
                 "--labels", str(labels),
                 "--out", str(profile_layout / "m.prof")])
    assert code == 2
    assert f"error: {labels}:{line}: " in capsys.readouterr().err


def test_profile_train_with_empty_labels(profile_layout, capsys):
    (profile_layout / "empty.labels").write_text("# nothing here\n")
    code = main(["profile", "train",
                 "--captures", str(profile_layout / "captures"),
                 "--labels", str(profile_layout / "empty.labels"),
                 "--out", str(profile_layout / "m.prof")])
    assert code == 2
    assert "no labels" in capsys.readouterr().err


def test_list_elements_builtin_inventory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # no registry dir here
    code = main(["list-elements"])
    out = capsys.readouterr().out
    assert code == 0
    for element in ("CLOCK", "GPS_SIM", "SNIFFER", "port_risk",
                    "replay_attack", "vulnerability_probe"):
        assert element in out
    assert "no device elements registered" in out


def test_list_elements_with_device_file(run_layout, capsys, monkeypatch):
    monkeypatch.chdir(run_layout)
    code = main(["list-elements", "--devices", str(run_layout / "cam.dev")])
    out = capsys.readouterr().out
    assert code == 0
    assert "cam1" in out
    assert "simulated ip_camera" in out
    assert "no device elements registered" not in out


def test_config_file_via_environment(run_layout, capsys, monkeypatch):
    registry = run_layout / "registry"
    registry.mkdir()
    (registry / "fleet.dev").write_text(CAMERA_TEXT)
    config = run_layout / "iotbed.conf"
    config.write_text(f"registry_dir={registry}\n"
                      f"runs_dir={run_layout / 'runs'}\n")
    monkeypatch.setenv("IOTBED_CONFIG", str(config))
    code = main(["list-elements"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cam1" in out


def test_bad_config_key_is_an_error(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("favourite_colour=blue\n")
    code = main(["--config", str(config), "list-elements"])
    assert code == 2
    assert "favourite_colour" in capsys.readouterr().err


def test_bad_config_value_names_path_and_line(tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("# operator settings\nruns_dir=runs\ndefault_k=abc\n")
    code = main(["--config", str(config), "list-elements"])
    assert code == 2
    assert f"error: {config}:3: " in capsys.readouterr().err


def test_scan_bad_ports_is_a_usage_error(run_layout):
    with pytest.raises(SystemExit) as exc:
        main(["scan", str(run_layout / "cam.dev"), "--ports", "x"])
    assert exc.value.code == 2


def test_parser_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--backend", "quantum", "run", "x.scn"])


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
