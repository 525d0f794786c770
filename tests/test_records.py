"""The key=value codec: pinned memory-backend output and seeded corruption
of every artifact and input file."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import iotbed
from conftest import (CAMERA_TEXT, CONTEXT_SCENARIO_TEXT, FLEET_TEXT,
                      make_trajectory_text)
from iotbed.analysis import read_findings
from iotbed.cli import main
from iotbed.errors import AnalysisError
from iotbed.simnet import MemoryNetwork, read_status, write_capture
from iotbed.simnet.devspec import parse_device_spec

# sha256 of `iotbed --seed 7 run` on the conftest context scenario, taken
# before the artifact readers and writers moved onto iotbed.records;
# report.rec is hashed without its run_id= and generated_at= lines.
GOLDEN = {
    "capture.cap":
        "7b09ecef5d08c84940cf14c8628b436d20a6479790a75885fb5b76ad42626d35",
    "status.rec":
        "ca43b3bb826e35e99fb64e3f848f1723fb3ba4693ac4f620a58fa4ef1fa9a391",
    "findings.rec":
        "a644eee0acd1aae312aec347ec483ea7424784fb582c0208d46de42dab020f18",
    "windows.rec":
        "50fb30a4617845059a5e30cb19f6cf6442b78685d08b878457450370011dc48c",
    "report.rec":
        "96807c9942bae9cb8905c4d99e3d87c0a7f76e220b8fc64285b3812b0feec4b2",
}

MOTE_TEXT = """\
device: mote1 type=sensor_mote connectivity=zigbee
traffic: size_mean=120 size_stddev=12 gap_ms=400 gap_stddev_ms=40 session_rate=8 ttl=32
"""


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One context run plus a trained model, a config and a labels file."""
    base = tmp_path_factory.mktemp("codec")
    (base / "devices.dev").write_text(FLEET_TEXT)
    (base / "traj.ctx").write_text(make_trajectory_text())
    (base / "scn.scn").write_text(CONTEXT_SCENARIO_TEXT)
    runs = base / "runs"
    assert main(["--seed", "7", "run", str(base / "scn.scn"),
                 "--runs-dir", str(runs)]) == 0
    run_dir = runs / os.listdir(runs)[0]

    captures = base / "captures"
    captures.mkdir()
    for seed, (name, text) in enumerate((("cam.cap", CAMERA_TEXT),
                                         ("mote.cap", MOTE_TEXT))):
        net = MemoryNetwork(seed=seed)
        net.spawn_device(parse_device_spec(text)[0], dut=True)
        net.observe(60)
        write_capture(net.tap.records, str(captures / name))
    (base / "train.labels").write_text(
        "# capture=device type\ncam.cap=ip_camera\nmote.cap=sensor_mote\n")
    assert main(["profile", "train", "--captures", str(captures),
                 "--labels", str(base / "train.labels"),
                 "--out", str(base / "model.prof")]) == 0
    (base / "scores.csv").write_text("80,web,3\n")
    (base / "iotbed.conf").write_text(
        f"registry_dir={base}\nruns_dir={runs}\n"
        f"score_list_path={base / 'scores.csv'}\ndefault_k=3\n"
        "default_window_s=5.0\ntransport_backend=memory\n")
    return {"run": run_dir, "captures": captures,
            "model": base / "model.prof", "config": base / "iotbed.conf",
            "labels": base / "train.labels"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_memory_backend_output_is_pinned(files):
    for name, digest in GOLDEN.items():
        data = (files["run"] / name).read_bytes()
        if name == "report.rec":
            data = b"".join(
                line for line in data.splitlines(keepends=True)
                if not line.startswith((b"run_id=", b"generated_at=")))
        assert sha256(data) == digest, name


def test_report_rerenders_byte_for_byte(files, capsys):
    run_dir = files["run"]
    capsys.readouterr()
    assert main(["report", run_dir.name,
                 "--runs-dir", str(run_dir.parent)]) == 0
    assert capsys.readouterr().out == (run_dir / "report.txt").read_text()


# -- seeded corruption --------------------------------------------------------


def mutations(text: str, seed: int, n: int = 20) -> list[str]:
    """Truncate at a byte, drop a line, delete an =, or set a value to x."""
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    equals = [i for i, ch in enumerate(text) if ch == "="]
    values = [i + 1 for i, ch in enumerate(text) if ch == "="] + \
        [i + 2 for i in range(len(text) - 1) if text[i:i + 2] == ": "]
    out = []
    for i in range(n):
        how = i % 4
        if how == 0:
            out.append(text[:rng.randrange(len(text))])
        elif how == 1:
            drop = rng.randrange(len(lines))
            out.append("".join(lines[:drop] + lines[drop + 1:]))
        elif how == 2:
            at = rng.choice(equals)
            out.append(text[:at] + text[at + 1:])
        else:
            start = end = rng.choice(values)
            while end < len(text) and text[end] not in " \n":
                end += 1
            out.append(text[:start] + "x" + text[end:])
    return out


def fuzz_cases(files, tmp):
    """(what, mutation number, argv maker or reader, path) for every
    mutation of every file; status and findings have only a reader."""
    run = files["run"]
    good_capture = str(files["captures"] / "cam.cap")
    targets = {
        "capture": (run / "capture.cap", lambda p: [
            "profile", "test", "--model", str(files["model"]),
            "--capture", p, "--device", "cam1"]),
        "model": (files["model"], lambda p: [
            "profile", "test", "--model", p, "--capture", good_capture]),
        "report": (run / "report.rec", lambda p: [
            "report", os.path.basename(os.path.dirname(p)),
            "--runs-dir", str(tmp)]),
        "config": (files["config"], lambda p: [
            "--config", p, "list-elements"]),
        "labels": (files["labels"], lambda p: [
            "profile", "train", "--captures", str(files["captures"]),
            "--labels", p, "--out", str(tmp / "out.prof")]),
        "status": (run / "status.rec", read_status),
        "findings": (run / "findings.rec", read_findings),
    }
    cases = []
    for seed, (what, (source, use)) in enumerate(sorted(targets.items())):
        for i, text in enumerate(mutations(source.read_text(), seed)):
            folder = tmp / f"{what}-{i}"
            folder.mkdir()
            path = folder / source.name
            path.write_text(text)
            cases.append((what, i, use, str(path)))
    return cases


@pytest.mark.filterwarnings("ignore:training set has a single class")
def test_corrupted_files_exit_2_or_read_cleanly(files, tmp_path, capsys):
    cases = fuzz_cases(files, tmp_path)
    assert len(cases) == 7 * 20
    outcomes = set()
    for what, _, use, path in cases:
        if what in ("status", "findings"):
            try:
                use(path)
                outcomes.add((what, 0))
            except AnalysisError:
                outcomes.add((what, 2))
            continue
        code = main(use(path))
        err = capsys.readouterr().err
        assert code in (0, 2), (what, path, err)
        outcomes.add((what, code))
    # every file type both survives some mutations and rejects others
    for what in ("capture", "model", "report", "config", "labels",
                 "status", "findings"):
        assert (what, 2) in outcomes, what
    assert ("labels", 0) in outcomes and ("capture", 0) in outcomes


def test_corrupted_files_under_python_O(files, tmp_path):
    # a truncation, a deleted = and a value set to x of each CLI input
    cases = [(what, use(path)) for what, i, use, path in
             fuzz_cases(files, tmp_path)
             if i in (0, 2, 3) and what not in ("status", "findings")]
    script = (
        "import json, sys\n"
        "from iotbed.cli import main\n"
        "assert sys.flags.optimize\n"
        "print(json.dumps([main(argv) for argv in json.load(sys.stdin)]))\n")
    src = os.path.dirname(os.path.dirname(iotbed.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          input=json.dumps([argv for _, argv in cases]),
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    codes = json.loads(done.stdout.splitlines()[-1])
    assert len(codes) == len(cases) == 15
    assert set(codes) <= {0, 2} and 2 in codes
