"""Command-line behaviour: subcommands, exit codes, deterministic output."""

import os

import pytest

from conftest import CAMERA_TEXT
from iotbed.cli import build_parser, main
from iotbed.profiler import Leaf, StatModel, save_model
from iotbed.simnet import MemoryNetwork, write_capture
from iotbed.simnet.devspec import parse_device_spec

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
    spec = parse_device_spec(text)[0]
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
], ids=["max-depth", "features", "leaf-probability", "no-nodes"])
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
