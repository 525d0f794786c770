"""The key=value codec: pinned memory-backend output and seeded corruption
of every artifact and input file; checks on the package source."""

import ast
import dataclasses
import hashlib
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import iotbed
from conftest import (CAMERA_TEXT, CONTEXT_SCENARIO_TEXT, FLEET_TEXT,
                      load_text, make_trajectory_text)
from iotbed.analysis import read_findings
from iotbed.cli import main
from iotbed.errors import AnalysisError
from iotbed.scenario import load_scenario
from iotbed.simnet import (CaptureRecord, ContextEvent, ContextPredicate,
                           MemoryNetwork, load_trajectory, read_capture,
                           read_status, write_capture)
from iotbed.simnet.capture import CAPTURE_LAYOUT
from iotbed.simnet.devspec import _LINES, load_device_spec

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

# The context scenario with its identity checks moved into a template.
IDENTITY_ACTIONS = """\
action: USER, cam1, TEST, {}
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}
action: USER, fingerprint, TEST, {target=cam1}
"""
TEMPLATE_TEXT = "# identity checks\n" + IDENTITY_ACTIONS
AUDIT_TEXT = CONTEXT_SCENARIO_TEXT.replace(IDENTITY_ACTIONS, "use: identity\n")


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
        net.spawn_device(load_text(load_device_spec, text)[0], dut=True)
        net.observe(60)
        write_capture(net.tap.records, str(captures / name))
    (base / "train.labels").write_text(
        "# capture=device type\ncam.cap=ip_camera\nmote.cap=sensor_mote\n")
    assert main(["profile", "train", "--captures", str(captures),
                 "--labels", str(base / "train.labels"),
                 "--out", str(base / "model.prof")]) == 0
    inputs = base / "inputs"
    inputs.mkdir()
    for name, text in (("devices.dev", FLEET_TEXT),
                       ("traj.ctx", make_trajectory_text()),
                       ("audit.scn", AUDIT_TEXT),
                       ("identity.test", TEMPLATE_TEXT)):
        (inputs / name).write_text(text)
    (base / "scores.csv").write_text("80,web,3\n")
    (base / "vulns.csv").write_text(
        "# device_type,version_range,vuln_id,severity,description\n"
        "linux,<=3.0,CVE-2016-0001,critical,old kernel\n"
        "lighttpd,1.4.0-1.4.40,CVE-2016-0002,low,header leak\n")
    (base / "probes.csv").write_text(
        "# probe_id,severity,service_match,payload_hex,signature\n"
        "P-1,significant,http,474554202f,HTTP\n"
        "P-2,low,*,00ff,OK\n")
    (base / "iotbed.conf").write_text(
        f"registry_dir={base}\nruns_dir={runs}\n"
        f"score_list_path={base / 'scores.csv'}\ndefault_k=3\n"
        "default_window_s=5.0\ntransport_backend=memory\n")
    return {"run": run_dir, "captures": captures, "inputs": inputs,
            "model": base / "model.prof", "config": base / "iotbed.conf",
            "labels": base / "train.labels", "scores": base / "scores.csv",
            "vuln_db": base / "vulns.csv", "attack_db": base / "probes.csv"}


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


# values a reader must reject or read cleanly wherever they stand
HARSH_VALUES = ("", "-1", "1e309", "\0", "9" * 5000, "{", '"')


def mutations(text: str, seed: int, n: int = 20) -> list[str]:
    """n of: truncate at a byte, drop a line, delete an =, or set a value to
    x; in a file with no = the comma before a value (a CSV, whose values end
    at a comma too), or else the space (a trajectory), stands in for the
    =.  Then each of HARSH_VALUES set at a value, and a line repeated."""
    rng = random.Random(seed)
    lines = text.splitlines(keepends=True)
    sep = next((ch for ch in "=," if ch in text), " ")
    ends = " \n," if sep == "," else " \n"
    equals = [i for i, ch in enumerate(text) if ch == sep]
    values = [i + 1 for i, ch in enumerate(text) if ch == "="] + \
        [i + 2 for i in range(len(text) - 1) if text[i:i + 2] == ": "] or \
        [i + 1 for i in equals]

    def set_value(value):
        start = end = rng.choice(values)
        while end < len(text) and text[end] not in ends:
            end += 1
        return text[:start] + value + text[end:]
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
            out.append(set_value("x"))
    out += [set_value(value) for value in HARSH_VALUES]
    twice = rng.randrange(len(lines))
    out.append("".join(lines[:twice + 1] + lines[twice:]))
    return out


def file_targets(files, tmp):
    """(path, argv maker or reader) of every file type; status and
    findings have only a reader, no command reads them alone.  The two
    databases are read through a config file that names them."""
    run = files["run"]
    good_capture = str(files["captures"] / "cam.cap")
    audit = str(files["inputs"] / "audit.scn")

    def check_with(key):
        def argv(path):
            config = os.path.join(os.path.dirname(path), "db.conf")
            with open(config, "w") as fh:
                fh.write(f"{key}_path={path}\n")
            return ["--config", config, "run", audit, "--check"]
        return argv
    return {
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
        "scores": (files["scores"], lambda p: [
            "scan", str(files["inputs"] / "devices.dev"), "--score-list", p]),
        "vuln_db": (files["vuln_db"], check_with("vuln_db")),
        "attack_db": (files["attack_db"], check_with("attack_db")),
        **input_targets(files, tmp),
    }


def write_case(files, folder, what, name, text) -> str:
    """Write text as folder/name; an input file is written into a copy of
    the whole input folder."""
    if what in INPUTS:
        shutil.copytree(files["inputs"], folder)
    else:
        folder.mkdir()
    path = folder / name
    path.write_text(text)
    return str(path)


def fuzz_cases(files, tmp):
    """(what, mutation number, argv maker or reader, path) for every
    mutation of every file, artifacts first, then inputs."""
    targets = sorted(file_targets(files, tmp).items(),
                     key=lambda item: (item[0] in INPUTS, item[0]))
    cases = []
    for seed, (what, (source, use)) in enumerate(targets):
        n = 8 if what in INPUTS else 20
        for i, text in enumerate(mutations(source.read_text(), seed, n)):
            path = write_case(files, tmp / f"{what}-{i}", what, source.name,
                              text)
            cases.append((what, i, use, path))
    return cases


INPUTS = ("devices", "scenario", "template", "trajectory")


def input_targets(files, tmp):
    """What each input file goes through: iotbed run for the scenario, its
    template and the trajectory, list-elements for the device spec."""
    inputs = files["inputs"]

    def run(path):
        scenario = os.path.join(os.path.dirname(path), "audit.scn")
        return ["--seed", "7", "run", scenario,
                "--runs-dir", str(tmp / "runs")]
    return {
        "devices": (inputs / "devices.dev",
                    lambda p: ["list-elements", "--devices", p]),
        "scenario": (inputs / "audit.scn", run),
        "template": (inputs / "identity.test", run),
        "trajectory": (inputs / "traj.ctx", run),
    }


def input_rejected(what, path) -> bool:
    """Whether the input's own loader rejects the mutated file."""
    folder = os.path.dirname(path)
    load = {"devices": load_device_spec, "trajectory": load_trajectory}.get(
        what, lambda _: load_scenario(os.path.join(folder, "audit.scn")))
    try:
        load(path)
    except AnalysisError:
        return True
    return False


@pytest.mark.filterwarnings("ignore:training set has a single class")
def test_corrupted_files_exit_2_or_read_cleanly(files, tmp_path, capsys):
    cases = fuzz_cases(files, tmp_path)
    assert len(cases) == 10 * 28 + 4 * 16
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
        out, err = capsys.readouterr()
        # a run may find a risk (1); any other exit 1 would be a traceback
        assert code in ((0, 1, 2) if "run" in use(path) else (0, 2)), \
            (what, path, err)
        outcomes.add((what, code))
        # a run stopped by its input names a file and a line, whether its
        # loader or the scenario check rejected it
        if "run" in use(path) and code == 2 and "run complete" not in out:
            assert re.match(r"error: [^:\n]+:[0-9]+: ", err), \
                (what, path, err)
        # a file its loader rejects is named with a line of its own
        if what in INPUTS and input_rejected(what, path):
            assert code == 2 and re.match(
                f"error: {re.escape(path)}:[0-9]+: ", err), (what, path, err)
            outcomes.add((what, "located"))
        # a score list or database is read whole, before any device
        if what in ("scores", "vuln_db", "attack_db") and code == 2:
            assert re.match(f"error: {re.escape(path)}:[0-9]+: ", err), \
                (what, path, err)
    # every file type both survives some mutations and rejects others
    for what in ("capture", "model", "report", "config", "labels",
                 "status", "findings", "scores", "vuln_db", "attack_db"):
        assert (what, 2) in outcomes, what
    assert ("labels", 0) in outcomes and ("capture", 0) in outcomes
    for what in INPUTS:
        assert (what, "located") in outcomes, what
        assert (what, 0) in outcomes or (what, 1) in outcomes, what


def test_corrupted_files_under_python_O(files, tmp_path):
    # a truncation, a deleted = and a value set to x of each CLI input,
    # then a non-finite number in each CLI input
    cases = [(what, use(path)) for what, i, use, path in
             fuzz_cases(files, tmp_path)
             if i in (0, 2, 3) and what not in ("status", "findings")]
    non_finite = {}
    for what, use, path, _ in non_finite_cases(files, tmp_path):
        if what not in ("status", "findings"):
            non_finite.setdefault(what, (what, use(path)))
    cases += non_finite.values()
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
    assert len(codes) == len(cases) == 8 * 3 + 4 * 3 + 6
    for (_, argv), code in zip(cases, codes):
        assert code in ((0, 1, 2) if "run" in argv else (0, 2)), argv
    assert 2 in codes
    assert codes[-6:] == [2] * 6


# -- non-finite numbers -------------------------------------------------------

# The conftest fleet with the float fields it leaves out, so that every
# float field of a device spec is present.
NON_FINITE_DEVICES = (
    FLEET_TEXT.replace("gap_ms=100 ", "gap_ms=100 gap_stddev_ms=20 ")
    .replace("cpu_spike=60\n",
             "cpu_spike=60 mem_base=3e7 mem_noise=1e5 mem_spike=2e6\n")
    .replace("interval_ms=50 ", "interval_ms=50 window=0-400 "))

# Every float field of every file type, as a regex whose group is the value.
NON_FINITE_FIELDS = {
    "devices": [r"size_mean=(\S+)", r"size_stddev=(\S+)",
                r"traffic:.* gap_ms=(\S+)", r"gap_stddev_ms=(\S+)",
                r"session_rate=(\S+)", r"min_ms=(\S+)", r"max_ms=(\S+)",
                r"period_s=(\S+)", r"cpu_base=(\S+)", r"cpu_noise=(\S+)",
                r"cpu_spike=(\S+)", r"mem_base=(\S+)", r"mem_noise=(\S+)",
                r"mem_spike=(\S+)", r"lat=(\S+)", r"lon=(\S+)",
                r"radius_m=(\S+)", r"window=([^-\s]+)-",
                r"window=[^-\s]+-(\S+)", r"interval_ms=(\S+)",
                r"at_s=(\S+)", r"false_alarm:.* gap_ms=(\S+)"],
    "trajectory": [r"^(\S+) \S+ \S+$", r"^\S+ (\S+) \S+$",
                   r"^\S+ \S+ (\S+)$"],
    "capture": [r" ts=(\S+)", r"payload_entropy=(\S+)"],
    "status": [r"^ts=(\S+)", r"cpu_pct=(\S+)", r"mem_bytes=(\S+)"],
    "config": [r"default_k=(.*)", r"default_window_s=(.*)"],
    "model": [r"^L \d+ [^:\n]+:([^,\n]+)", r"^N \d+ (\S+)",
              r"^N \d+ \S+ (\S+)"],
    "scores": [r"^\d+,[^,\n]*,(.*)$"],
    "findings": [r"\.time=(.*)", r"\.location=([^,\n]+),",
                 r"\.location=[^,\n]+,(.*)", r"\.windows=([^:\n]+):",
                 r"\.windows=[^:\n]+:([^;\n]+)"],
}


def non_finite_cases(files, tmp):
    """(what, argv maker or reader, path, line) with nan, inf and -inf in
    turn written into every float field of every file type, each at a
    seeded choice among the places the field holds in its file."""
    targets = file_targets(files, tmp)
    rng = random.Random(16)
    cases = []
    for what, patterns in sorted(NON_FINITE_FIELDS.items()):
        source, use = targets[what]
        text = NON_FINITE_DEVICES if what == "devices" else source.read_text()
        for pattern in patterns:
            spans = [m.span(1) for m in re.finditer(pattern, text, re.M)]
            assert spans, (what, pattern)
            for bad in ("nan", "inf", "-inf"):
                start, end = rng.choice(spans)
                path = write_case(files, tmp / f"{what}-{bad}-{len(cases)}",
                                  what, source.name,
                                  text[:start] + bad + text[end:])
                cases.append((what, use, path, text.count("\n", 0, start) + 1))
    return cases


def test_non_finite_numbers_exit_2_at_their_line(files, tmp_path, capsys):
    cases = non_finite_cases(files, tmp_path)
    assert len(cases) == 3 * sum(map(len, NON_FINITE_FIELDS.values()))
    for what, use, path, line in cases:
        where = f"{path}:{line}: "
        if what in ("status", "findings"):
            with pytest.raises(AnalysisError) as raised:
                use(path)
            assert str(raised.value).startswith(where), (what, where)
            continue
        code = main(use(path))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {where}"), \
            (what, path, line, err)


# An integer whose float() overflows in the session summaries; the
# smallest size a float cannot hold exactly; and a size a float holds but
# whose sum over a session does not, written into every record.
HUGE = "9" * 400
BIG = str(10 ** 308)
OUT_OF_RANGE = (("size", HUGE), ("ttl", HUGE), ("ttl", "-" + HUGE),
                ("size", "-1"), ("ttl", "x"), ("size", str(2 ** 53)))


def test_out_of_range_integers_exit_2_at_their_line(files, tmp_path, capsys):
    targets = file_targets(files, tmp_path)
    train_labels = str(files["labels"])
    training = (files["captures"] / "cam.cap", lambda p: [
        "profile", "train", "--captures", os.path.dirname(p),
        "--labels", train_labels, "--out", str(tmp_path / "out.prof")])
    cases = [(target, field, bad) for target in (targets["capture"], training)
             for field, bad in OUT_OF_RANGE]
    cases.append((targets["devices"], "ttl", HUGE))
    cases.append((training, "size", BIG))
    rng = random.Random(17)
    for n, ((source, use), field, bad) in enumerate(cases):
        text = source.read_text()
        spans = [m.span(1) for m in re.finditer(rf"\b{field}=(\S+)", text)]
        if bad != BIG:
            spans = [rng.choice(spans)]
        folder = tmp_path / f"case-{n}"
        shutil.copytree(source.parent, folder)
        path = folder / source.name
        changed = text
        for start, end in reversed(spans):
            changed = changed[:start] + bad + changed[end:]
        path.write_text(changed)
        line = text.count("\n", 0, spans[0][0]) + 1
        code = main(use(str(path)))
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {path}:{line}: "), \
            (n, err)


def test_capture_of_any_ttl_a_spec_accepts_reads_back(tmp_path):
    # the spec puts no range on ttl, so neither does the capture reader
    for ttl in (-1, 0, 300, 2 ** 64):
        spec, = load_text(load_device_spec,
                          MOTE_TEXT.replace("ttl=32", f"ttl={ttl}"))
        net = MemoryNetwork(seed=0)
        net.spawn_device(spec, dut=True)
        net.observe(30)
        path = str(tmp_path / f"{ttl}.cap")
        write_capture(net.tap.records, path)
        assert {r.ttl for r in read_capture(path)} == {ttl}


def test_capture_size_past_2_53_is_named_by_its_digits_on_both_paths(
        tmp_path):
    path = tmp_path / "big.cap"
    write_capture([CaptureRecord.build(1, 2.5, "cam1", 80, "cloud", 443, 64,
                                       "", "from_dut", b"x")], str(path))
    line = path.read_text().replace("size=1 ", "size=+09007199254740992 ")
    for text in (line, " ".join(reversed(line.split())) + "\n"):
        path.write_text(text)
        with pytest.raises(AnalysisError) as raised:
            read_capture(str(path))
        assert str(raised.value) == \
            f"{path}:1: 18-digit size is not below 2**53"


def test_capture_reader_reads_any_token_order_alike(files, tmp_path):
    # every line write_capture writes is read with one match of the layout;
    # a line in any other order, or with no kind, is split token by token,
    # and both paths read the same record
    marked = tmp_path / "marked.cap"
    write_capture([CaptureRecord.build(
        1, 2.5, "cam1", 80, "cloud", 443, 64, "", "from_dut",
        b"pos GPS=32.08530,34.78180 end")], str(marked))
    lines = [line for path in (files["run"] / "capture.cap",
                               *sorted(files["captures"].glob("*.cap")),
                               marked)
             for line in path.read_text().splitlines(keepends=True)]
    assert all(CAPTURE_LAYOUT.fullmatch(line) for line in lines)
    rng = random.Random(17)
    sample = rng.sample(lines, 40) + lines[-1:]
    reordered = []
    for line in sample:
        tokens = line.split()
        rng.shuffle(tokens)
        reordered.append(" ".join(tokens) + "\n")
    no_kind = [re.sub(r" kind=\S*", "", line) for line in sample]
    read = {}
    for name, variant in (("layout", sample), ("reordered", reordered),
                          ("no_kind", no_kind)):
        path = tmp_path / f"{name}.cap"
        path.write_text("".join(variant))
        read[name] = read_capture(str(path))
    assert not any(CAPTURE_LAYOUT.fullmatch(line)
                   for line in reordered + no_kind)
    assert read["layout"][-1].payload_marker == "GPS=32.08530,34.78180"
    assert read["reordered"] == read["layout"]
    assert read["no_kind"] == [dataclasses.replace(r, kind="")
                               for r in read["layout"]]


def source_nodes(names=None):
    """(module path within the package, node) of every syntax node of the
    package's modules, or of the modules named."""
    package = os.path.dirname(iotbed.__file__)
    if names is None:
        names = sorted(os.path.relpath(os.path.join(folder, name), package)
                       for folder, _, files in os.walk(package)
                       for name in files if name.endswith(".py"))
    for name in names:
        path = os.path.join(package, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            yield name, node


def test_every_input_is_read():
    # a device-spec value or trajectory column that nothing reads is an
    # input the testbed ignores.  A name is read where the package loads it
    # as an attribute or pops it from a dict by name: load_device_spec pops
    # a compromise: line's fields into a ContextPredicate, whose fields are
    # checked here too
    read = set()
    for _, node in source_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", None) == "pop" and node.args
              and isinstance(node.args[0], ast.Constant)):
            read.add(node.args[0].value)
    inputs = {attr for _, _, fields in _LINES.values()
              for attr, _ in fields.values()}
    inputs.update(f.name for cls in (ContextEvent, ContextPredicate)
                  for f in dataclasses.fields(cls))
    assert sorted(inputs - read) == []


def test_source_has_no_assert_statements():
    # `python -O` strips asserts, so no check in the package may be one
    found = [f"{name}:{node.lineno}" for name, node in source_nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def test_readers_parse_no_float_by_hand():
    # float() accepts nan and inf; these readers take every float field
    # through records.finite, which rejects them at the field's line
    readers = ("simnet/devspec.py", "simnet/context.py", "simnet/capture.py",
               "simnet/status.py", "config.py", "sectests/portrisk.py",
               "analysis.py")
    found = [f"{name}:{node.lineno}" for name, node in source_nodes(readers)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "float"]
    assert found == []


def test_no_module_takes_statistics_pstdev():
    # statistics.pstdev rounds twice on 3.10 and once from 3.11, so every
    # stddev goes through the correctly rounded profiler.features.pstdev
    found = [f"{name}:{node.lineno}" for name, node in source_nodes()
             if (isinstance(node, ast.ImportFrom)
                 and node.module == "statistics"
                 and any(alias.name == "pstdev" for alias in node.names))
             or (isinstance(node, ast.Attribute) and node.attr == "pstdev"
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "statistics")]
    assert found == []


def test_traced_members_sit_where_the_tracer_looks_them_up():
    # perfbench/tracing.py wraps fn(module, "x") in the module's namespace
    # and meth(cls, "x") in the class's own __dict__, so moving or renaming
    # one of them breaks the traced benchmark run
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("iotbed."):
                    importlib.import_module(alias.name)
    install = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "install")
    scope = {"iotbed": iotbed}

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return scope[expr.id]
        return getattr(resolve(expr.value), expr.attr)

    loops = {}
    for node in install.body:
        if isinstance(node, ast.Assign) and isinstance(node.value,
                                                       ast.Attribute):
            scope[node.targets[0].id] = resolve(node.value)
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            loops[node.target.id] = ast.literal_eval(node.iter)
    checked, missing = [], []
    for node in ast.walk(install):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("fn", "meth")):
            continue
        owner, attr = node.args[:2]
        names = ([attr.value] if isinstance(attr, ast.Constant)
                 else loops[attr.id])
        for name in names:
            target = f"{node.func.id}({ast.unparse(owner)}, {name!r})"
            checked.append(target)
            if name not in vars(resolve(owner)):
                missing.append(target)
    assert "meth(simnet.memnet.MemoryNetwork, 'emit')" in checked
    assert len(checked) > 40
    assert missing == []


def test_every_emit_call_passes_kind_by_keyword():
    # the tracer counts records per kind from emit's kind= keyword; a call
    # may pass the other fields positionally, or forward its own keywords
    calls, bad = [], []
    for name, node in source_nodes():
        if not (isinstance(node, ast.Call) and "emit" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))):
            continue
        calls.append(f"{name}:{node.lineno}")
        keywords = {k.arg for k in node.keywords}
        if not keywords & {"kind", None}:
            bad.append(calls[-1])
    assert len(calls) >= 8
    assert bad == []
