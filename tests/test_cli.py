"""Command-line behaviour: subcommands, exit codes, deterministic output."""

import hashlib
import os
import re
import threading
import time

import pytest

from conftest import CAMERA_TEXT, load_text
from iotbed.cli import build_parser, main
from iotbed.orchestrator import read_report_fields
from iotbed.profiler import Leaf, StatModel, save_model
from iotbed.simnet import MemoryNetwork, write_capture
from iotbed.simnet.devspec import _LINES, load_device_spec
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
    "port_range": (None, "port_risk, TEST, {target=cam1, ports=0-70000}",
                   "ports: bad port list '0-70000'"),
    # a reversed range would scan nothing and grade the device SAFE
    "reversed_range": (None, "port_risk, TEST, {target=cam1, ports=100-1}",
                       "ports: bad port list '100-1'"),
    # so would a list of no port
    "empty_list": (None, "port_risk, TEST, {target=cam1, ports=}",
                   "ports: bad port list ''"),
    "management_ports": (
        None, "management_access, TEST, {target=cam1, management_ports=x}",
        "management_ports: bad port list 'x'"),
    # a port listed twice would be probed, and logged in to, twice
    "repeated_port": ("criteria.port_risk.ports=80,80",
                      "port_risk, TEST, {target=cam1}",
                      "ports: bad port list '80,80'"),
    "repeated_management_port": (
        "criteria.management_access.management_ports=23,23",
        "management_access, TEST, {target=cam1}",
        "management_ports: bad port list '23,23'"),
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
    "undeclared_criterion_in_an_option": (
        [DEVICES, "criteria.delay_attack.delay_mss=500"], CLOCK_SET,
        "scn.scn", 3, "delay_attack takes no parameter 'delay_mss'"),
    "undeclared_criterion_in_an_action": (
        [DEVICES], "USER, delay_attack, TEST, {target=cam1, delay_mss=500}",
        "scn.scn", 4, "unexpected params: ['delay_mss']"),
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
    # a day-of-week column is read by nothing, so it is refused
    "trajectory_day_column": (
        [DEVICES], "USER, GPS_SIM, START, {day.ctx}", "day.ctx", 2,
        "expected: t lat lon\n"),
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
    # thread is left behind
    options, action, named, line, message = BAD_SCENARIOS[case]
    (tmp_path / "cam.dev").write_text(CAMERA_TEXT)
    (tmp_path / "clock.dev").write_text(CAMERA_TEXT.replace("cam1", "CLOCK"))
    (tmp_path / "bad.ctx").write_text("0 32.0853\n")
    (tmp_path / "day.ctx").write_text(
        "0 32.0853 34.7818\n60 32.0861 34.7839 TUESDAY\n")
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



def test_run_check_validates_without_running(run_layout, capsys):
    runs = run_layout / "runs"
    good = run_layout / "scn.scn"
    assert main(["run", str(good), "--check", "--runs-dir", str(runs)]) == 0
    assert capsys.readouterr().out == f"{good}: ok\n"
    bad = run_layout / "bad.scn"
    bad.write_text(RUN_SCENARIO.replace("baseline_s=20", "baseline_s=x"))
    assert main(["run", str(bad), "--check", "--runs-dir", str(runs)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}:3: baseline_s must be a number")
    assert not runs.exists()


VULN_ROWS = ("# device_type,version_range,vuln_id,severity,description\n"
             "linux,<=3.0,CVE-2016-0001,critical,old kernel\n"
             "lighttpd,1.4.0-1.4.40,CVE-2016-0002,low,header leak\n")


@pytest.mark.parametrize("version_range", ["abc", "<=zz", "1.0-"])
def test_run_check_rejects_a_malformed_vuln_range_at_its_line(
        run_layout, capsys, version_range):
    db, config = run_layout / "vulns.csv", run_layout / "iotbed.conf"
    config.write_text(f"vuln_db_path={db}\n")
    argv = ["--config", str(config), "run", str(run_layout / "scn.scn"),
            "--check", "--runs-dir", str(run_layout / "runs")]
    db.write_text(VULN_ROWS)
    assert main(argv) == 0
    db.write_text(VULN_ROWS + f"busybox,{version_range},V-1,low,na\n")
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {db}:4: bad version range {version_range!r}")


@pytest.mark.parametrize("line,version", [
    ("os: busybox", "v1.30"), ("os: busybox", "unknown"),
    ("app: lighttpd", "1..4"), ("app: lighttpd", "1.4.x")])
def test_run_check_rejects_a_malformed_device_version_at_its_line(
        run_layout, capsys, line, version):
    # such a version used to read as 0 and so lay in every <= range
    lines = CAMERA_TEXT.splitlines(keepends=True)
    number = next(i for i, text in enumerate(lines) if text.startswith(line))
    lines[number] = f"{line} {version}\n"
    spec = run_layout / "cam.dev"
    spec.write_text("".join(lines))
    argv = ["run", str(run_layout / "scn.scn"), "--check",
            "--runs-dir", str(run_layout / "runs")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {spec}:{number + 1}: bad version {version!r}")


# Liveness, the two device commands that connect, and every test.
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
    "fingerprint", "process_enumeration", "data_leakage", "data_collection",
    "management_access", "downgrade_attack", "replay_attack", "delay_attack",
    "tamper_attack", "known_vulnerabilities", "vulnerability_probe"))


def _run_on(scenario, backend, seed, capsys):
    """Exit code, run directory and wall seconds of a run of scenario."""
    runs = scenario.parent / f"{backend}-{seed}"
    began = time.monotonic()
    code = main(["--seed", str(seed), "--backend", backend, "run",
                 str(scenario), "--runs-dir", str(runs)])
    took = time.monotonic() - began
    capsys.readouterr()
    return code, runs / os.listdir(runs)[0], took


def _artifact_digests(run_dir):
    """sha256 of every artifact in run_dir.  report.rec is hashed without
    the lines that name the run and its backend (run_id=, generated_at=,
    backend=); report.txt is rendered from report.rec alone and prints
    them, so it is left out."""
    digests = {}
    for name in sorted(os.listdir(run_dir)):
        if name == "report.txt":
            continue
        data = (run_dir / name).read_bytes()
        if name == "report.rec":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith(
                    (b"run_id=", b"generated_at=", b"backend=")))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


# sha256 of the memory artifacts of the every-test scenario at seed 7, taken
# before the proxy lost its drop setting; the scenario runs both proxied
# tests (delay_attack, tamper_attack), so a moved corrupted frame shows here
BOTH_BACKENDS_ARTIFACTS = {
    "capture.cap":
        "f2b068fb00898465890842e010efb0e35cb28e7c17f65ae8f9fddb70f4df23b8",
    "report.rec":
        "5653a7306c95145667ed8f8a0215d3c69f5684a7ec5271a97a63fdc953b2393d",
    "scenario.scn":
        "a6ff3b1456cc0d2393fcb54fd3b7103bed0721d604403f47045746b96745fa17",
    "status.rec":
        "e53f9cd6aec509ff38247750fb3cbcbdc44e9d3959b12bb013c5ffcdf816b957",
    "trace.jsonl":
        "e55e5be318bd4197ff06bb2888ed4e8c5db4a883974769ec950799a7b7a128c8",
}


def test_a_scenario_runs_alike_on_both_backends(run_layout, capsys):
    scenario = run_layout / "both.scn"
    scenario.write_text(BOTH_BACKENDS_SCENARIO)
    code, run_dir, _ = _run_on(scenario, "memory", 7, capsys)
    assert code == 1
    assert [e.outcome for e in read_trace(
        str(run_dir / "trace.jsonl"))] == ["ok"] * 16
    report = dict(read_report_fields(str(run_dir / "report.rec")))
    assert report["phase1.count"] == "14"
    memory = _artifact_digests(run_dir)
    assert memory == BOTH_BACKENDS_ARTIFACTS
    code_lb, run_dir, took = _run_on(scenario, "loopback", 7, capsys)
    assert (code_lb, _artifact_digests(run_dir)) == (code, memory)
    assert took < 1.0


# sha256 of windows.rec of the context scenario at seeds 0-4, taken before
# the detector's channels moved into one table
WINDOWS_REC = (
    "bf4d124fe03ab46291c09cd275e6cdad2fa930a8907a044884366e9d9f89048e",
    "53e08bca73d497458ec33715ffa3393a4062d68f1574b4a8e8c3508ae8979c7f",
    "73904f3bb4248d36282bed8dcd2796838ff5ac20283a8b193dfd04910d288038",
    "76f20b4a34d20e64cb043954af3ea55c03eda3451cd860fbc037b8bb9f7ca2e3",
    "51975f3576176391828ebfdef8bcdb6d2361c557c628b73549e8eda27af6cefe",
)


@pytest.mark.parametrize("seed", range(5))
def test_the_context_scenario_runs_alike_on_both_backends(
        context_run_dir, capsys, seed):
    scenario = context_run_dir / "scn.scn"
    code, run_dir, _ = _run_on(scenario, "memory", seed, capsys)
    memory = _artifact_digests(run_dir)
    assert set(memory) >= {"capture.cap", "status.rec", "windows.rec",
                           "findings.rec", "report.rec"}
    assert memory["windows.rec"] == WINDOWS_REC[seed]
    code_lb, run_dir, took = _run_on(scenario, "loopback", seed, capsys)
    assert (code_lb, _artifact_digests(run_dir)) == (code, memory)
    # device events fire on the virtual clock, so no run waits out the
    # trajectory's span in wall time
    assert took < 1.0


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


def test_scan_and_run_report_print_one_results_block(run_layout, capsys):
    main(["scan", str(run_layout / "cam.dev"), "--ports", "1-1024"])
    scan = capsys.readouterr().out.splitlines()
    runs = run_layout / "runs"
    main(["run", str(run_layout / "scn.scn"), "--runs-dir", str(runs)])
    capsys.readouterr()
    report = (runs / os.listdir(runs)[0] / "report.txt").read_text()
    start = report.index("Overall Results (")
    block = report[start:report.index("\n\n", start)].splitlines()
    assert (scan[0], block[0]) == ("Overall Results (cam1)",
                                   "Overall Results (checks)")
    assert "  Unscored ports: 23" in block
    assert block[1:] == scan[1:]


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


def test_scan_rejects_an_address_line_at_its_line(tmp_path, capsys):
    # nothing reads a device's address, so a spec cannot give one
    spec = tmp_path / "cam.dev"
    spec.write_text(CAMERA_TEXT.replace("\nport: 23",
                                        "\naddress: 10.0.0.11\nport: 23"))
    code = main(["scan", str(spec)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {spec}:2: unknown property 'address'\n")


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
    ("max_depth=12", "max_depth=-1", 4),
    ("min_leaf=5", "min_leaf=0", 4),
], ids=["max-depth", "features", "leaf-probability", "no-nodes",
        "leaf-sums-to-half", "negative-max-depth", "zero-min-leaf"])
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


@pytest.mark.parametrize("flag, value", [
    ("--min-leaf", "-3"), ("--min-leaf", "0"), ("--max-depth", "-1"),
    ("--min-leaf", "x")])
def test_profile_train_rejects_nonsense_tree_parameters(tmp_path, capsys,
                                                        flag, value):
    out = tmp_path / "m.prof"
    with pytest.raises(SystemExit) as exc:
        main(["profile", "train", "--captures", str(tmp_path),
              "--labels", str(tmp_path / "train.labels"), "--out", str(out),
              flag, value])
    assert exc.value.code == 2
    assert (f"argument {flag}: expected a whole number"
            in capsys.readouterr().err)
    assert not out.exists()


def test_profile_train_takes_the_least_tree_parameters():
    args = build_parser().parse_args([
        "profile", "train", "--captures", "c", "--labels", "l", "--out", "o",
        "--max-depth", "0", "--min-leaf", "1"])
    assert (args.max_depth, args.min_leaf) == (0, 1)


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


@pytest.mark.parametrize("ports", ["x", "70000", "100-1", ",", "80,80"])
def test_scan_bad_ports_is_a_usage_error(run_layout, ports):
    with pytest.raises(SystemExit) as exc:
        main(["scan", str(run_layout / "cam.dev"), "--ports", ports])
    assert exc.value.code == 2


def test_parser_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--backend", "quantum", "run", "x.scn"])


def test_parser_requires_a_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_help_names_every_device_spec_line():
    text = build_parser().format_help()
    block = text[text.index("device spec (.dev)"):text.index("context script")]
    assert set(_LINES) <= set(re.findall(r"(\w+):", block))
