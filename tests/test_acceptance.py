"""Acceptance suite: one test per release criterion, each with its own
time budget.  Run with -v to get a single pass/fail line per criterion."""

import math
import os
import random
import time
import warnings

import pytest

from conftest import (FLEET_TEXT, CAMERA_TEXT, CONTEXT_SCENARIO_TEXT,
                      INSIDE_WINDOWS, TRIGGER_LAT, TRIGGER_LON,
                      TRIGGER_RADIUS_M, load_text, make_trajectory_text)
from test_profiler import Row, oracle_best_gain, oracle_entropy, synth_capture
from iotbed.model import Command, Phase
from iotbed.orchestrator import (RunOptions, ScenarioRunner,
                                 read_report_fields, render_report)
from iotbed.profiler import (Leaf, Node, TrainParams, confusion_matrix,
                             extract_features, matrix_accuracy, profile_device,
                             train_model)
from iotbed.scenario import load_scenario
from iotbed.sectests.plugins import PluginContext, judge, measure
from iotbed.sectests.portrisk import PortScoreEntry, risk_level, score_ports
from iotbed.sectests.verdict import Grade, grade_severity
from iotbed.sectests.vulndb import AttackProbe, VulnRecord
from iotbed.simnet.context import haversine_m
from iotbed.simnet.devspec import load_device_spec
from iotbed.simnet.memnet import MemoryNetwork
from iotbed.trace import read_trace


def run_context_scenario(base, seed=11):
    base.mkdir(parents=True, exist_ok=True)
    (base / "devices.dev").write_text(FLEET_TEXT)
    (base / "traj.ctx").write_text(make_trajectory_text())
    (base / "scn.scn").write_text(CONTEXT_SCENARIO_TEXT)
    scenario = load_scenario(str(base / "scn.scn"))
    options = RunOptions(seed=seed, runs_dir=str(base / "runs"))
    return ScenarioRunner(scenario, options).run()


# -- criterion 1: port scan scoring on the canonical nine-port host ---------


def test_criterion_01_nine_port_scan_scores():
    t0 = time.monotonic()
    ports = [135, 139, 80, 5900, 445, 443, 49152, 6646, 2869]
    a = score_ports(ports)
    assert a.total_score == 13
    assert a.risk_level is Grade.MINOR_RISK
    assert len(a.scored) == 5
    assert {e.port: e.score for e in a.scored} == \
        {80: 3, 5900: 3, 445: 1, 443: 5, 49152: 1}
    assert time.monotonic() - t0 < 5.0


# -- criterion 2: risk level boundaries and monotonicity --------------------


def test_criterion_02_risk_levels_and_monotonicity():
    t0 = time.monotonic()
    expected = {0: Grade.SAFE, 7: Grade.MINOR_RISK, 14: Grade.MINOR_RISK,
                15: Grade.MAJOR_RISK, 22: Grade.MAJOR_RISK,
                30: Grade.MAJOR_RISK, 31: Grade.CRITICAL_RISK,
                100: Grade.CRITICAL_RISK}
    for total, grade in expected.items():
        assert risk_level(total) is grade, total
    order = [Grade.SAFE, Grade.MINOR_RISK, Grade.MAJOR_RISK,
             Grade.CRITICAL_RISK]
    rng = random.Random(97)
    totals = sorted(rng.uniform(0, 120) for _ in range(1000))
    ranks = [order.index(risk_level(t)) for t in totals]
    assert ranks == sorted(ranks)
    assert time.monotonic() - t0 < 1.0


# -- criterion 3: scripted context run --------------------------------------


def test_criterion_03_context_run_finds_scripted_attacks(tmp_path):
    t0 = time.monotonic()
    report = run_context_scenario(tmp_path)
    attacks = [f for f in report.findings if f.classification == "attack"]
    alarms = [f for f in report.findings
              if f.classification == "possible_false_alarm"]
    assert len(attacks) == 2
    assert len(alarms) == 1
    for f in attacks:
        assert f.location is not None
        assert haversine_m(f.location[0], f.location[1],
                           TRIGGER_LAT, TRIGGER_LON) <= TRIGGER_RADIUS_M
    for t, (lo, hi) in zip(sorted(f.virtual_time for f in attacks),
                           INSIDE_WINDOWS):
        assert lo <= t <= hi
    assert time.monotonic() - t0 < 30.0


# -- criterion 4: table-driven verdict suite --------------------------------

PORTLESS = "device: d type=mote connectivity=wifi\ntraffic: session_rate=0\n"
WEB_ONLY = ("device: d type=cam connectivity=wifi\nport: 80 service=http\n"
            "traffic: session_rate=0\n")
CHATTY = ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
          "traffic: size_mean=600 size_stddev=50 gap_ms=80 session_rate=20 "
          "ttl=64\n")
DELAY_BAND = ("device: d type=cam connectivity=wifi\n"
              "port: 443 service=https\ntiming_range: min_ms=1000 "
              "max_ms=3000\ntraffic: session_rate=0\n")

VULN_DB = [VulnRecord("busybox", "1.0-1.20", "V-1", "critical", "old shell")]
VULN_DB_LOW = [VulnRecord("busybox", "*", "V-9", "low", "trivia")]
IDENT = ("device: d type=cam connectivity=wifi\nos: busybox 1.19\n"
         "traffic: session_rate=0\n")
PROBED = ("device: d type=cam connectivity=wifi\n"
          "port: 80 service=http vulnerable_to=P-BAD\n"
          "traffic: session_rate=0\n")

# kind -> [(device text, criteria, expected grade)], covering at least the
# best and the worst grade the test can hand out
VERDICT_TABLE = {
    "port_risk": [
        (PORTLESS, {"ports": "1-1024"}, Grade.SAFE),
        (WEB_ONLY, {"ports": "1-1024"}, Grade.MINOR_RISK),
        (WEB_ONLY, {"ports": "1-1024", "score_list":
                    {80: PortScoreEntry(80, "w", 20)}}, Grade.MAJOR_RISK),
        (WEB_ONLY, {"ports": "1-1024", "score_list":
                    {80: PortScoreEntry(80, "w", 40)}}, Grade.CRITICAL_RISK),
    ],
    "scan_detectability": [
        (PORTLESS, {}, Grade.UNDETECTABLE),
        ("device: d type=mote connectivity=wifi\ntraffic: session_rate=30\n",
         {}, Grade.SAFE),
        (WEB_ONLY, {}, Grade.MINOR_RISK),
        ("device: d type=cam connectivity=wifi\nport: 23 service=telnet\n"
         "traffic: session_rate=0\n", {}, Grade.MAJOR_RISK),
        ("device: d type=cam connectivity=wifi\nport: 80 service=http\n"
         "port: 8080 service=http-alt\ntraffic: session_rate=0\n",
         {"expected_ports": [80]}, Grade.CRITICAL_RISK),
    ],
    "fingerprint": [
        ("device: d type=cam connectivity=wifi\nport: 4444 service=custom\n"
         "traffic: session_rate=0\n", {}, Grade.UNIDENTIFIABLE),
        ('device: d type=cam connectivity=wifi\n'
         'port: 80 service=http banner="nginx 1.25"\n'
         'app: nginx 1.25 up_to_date=yes\ntraffic: session_rate=0\n',
         {}, Grade.SAFE),
        ('device: d type=cam connectivity=wifi\n'
         'port: 80 service=http banner="nginx 1.10"\n'
         'app: nginx 1.10 up_to_date=no risk=minor\n'
         'traffic: session_rate=0\n', {}, Grade.MINOR_RISK),
        ('device: d type=cam connectivity=wifi\n'
         'port: 80 service=http banner="nginx 1.10"\n'
         'app: nginx 1.10 up_to_date=no risk=major\n'
         'traffic: session_rate=0\n', {}, Grade.MAJOR_RISK),
        ('device: d type=cam connectivity=wifi\n'
         'port: 80 service=http banner="busybox httpd 1.19"\n'
         'os: busybox 1.19 up_to_date=no\ntraffic: session_rate=0\n',
         {}, Grade.CRITICAL_RISK),
    ],
    "process_enumeration": [
        (PORTLESS, {}, Grade.INDETERMINATE),
        (WEB_ONLY.replace("traffic:", "introspection: remote_blocked\n"
                          "traffic:"), {}, Grade.SAFE),
        (WEB_ONLY.replace("traffic:", "introspection: local\ntraffic:"),
         {}, Grade.MODERATE_RISK),
        (WEB_ONLY.replace("traffic:", "introspection: none\ntraffic:"),
         {}, Grade.FAIL),
    ],
    "data_leakage": [
        (CHATTY, {}, Grade.PASS),
        (PORTLESS, {}, Grade.INDETERMINATE),
        (CHATTY.replace("device: d type=cam", "device: d type=tracker")
         + "encryption: payload=plaintext\nstored_data: sensitive\n",
         {}, Grade.FAIL),
        (CHATTY + "encryption: payload=plaintext\n", {}, Grade.FAIL),
    ],
    "data_collection": [
        (PORTLESS + "stored_data: none\n", {}, Grade.SAFE),
        (PORTLESS + "stored_data: normal\n", {}, Grade.MINOR_RISK),
        (PORTLESS + "stored_data: sensitive\n", {}, Grade.MAJOR_RISK),
        (PORTLESS + "stored_data: critical\n", {}, Grade.CRITICAL_RISK),
    ],
    "management_access": [
        (WEB_ONLY, {}, Grade.PASS),
        (PORTLESS, {}, Grade.PASS),
        ('device: d type=cam connectivity=wifi\n'
         'port: 23 service=telnet default_creds=root:root\n'
         'traffic: session_rate=0\n', {}, Grade.FAIL),
        ('device: d type=cam connectivity=wifi\nport: 22 service=ssh\n'
         'traffic: session_rate=0\n', {}, Grade.FAIL),
    ],
    "downgrade_attack": [
        ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
         "encryption: payload=encrypted accepts_downgrade=no\n"
         "traffic: session_rate=0\n", {}, Grade.PASS),
        ("device: d type=cam connectivity=wifi\nport: 80 service=http\n"
         "encryption: payload=plaintext\ntraffic: session_rate=0\n",
         {}, Grade.INDETERMINATE),
        ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
         "encryption: payload=encrypted accepts_downgrade=yes\n"
         "traffic: session_rate=0\n", {}, Grade.FAIL),
    ],
    "replay_attack": [
        ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
         "encryption: replay_protected=yes\ntraffic: session_rate=0\n",
         {}, Grade.PASS),
        ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
         "encryption: replay_protected=no\ntraffic: session_rate=0\n",
         {}, Grade.FAIL),
        # per-port freshness override beats the device-wide setting
        ("device: d type=cam connectivity=wifi\n"
         "port: 443 service=https freshness=off\n"
         "encryption: replay_protected=yes\ntraffic: session_rate=0\n",
         {}, Grade.FAIL),
    ],
    "delay_attack": [
        (DELAY_BAND, {"delay_ms": 0}, Grade.SAFE),
        (DELAY_BAND, {"delay_ms": 1500}, Grade.SAFE),
        (DELAY_BAND, {"delay_ms": 10000}, Grade.UNSAFE),
    ],
    "tamper_attack": [
        ("device: d type=cam connectivity=wifi\nport: 443 service=https\n"
         "robustness: ignores_malformed=yes\ntraffic: session_rate=0\n",
         {"corrupt_rate": 0.1}, Grade.SAFE),
        ("device: d type=cam connectivity=wifi\n"
         "port: 80 service=http crash_on_malformed=yes\n"
         "traffic: session_rate=0\n", {"corrupt_rate": 0.0}, Grade.SAFE),
        ("device: d type=cam connectivity=wifi\n"
         "port: 80 service=http crash_on_malformed=yes\n"
         "traffic: session_rate=0\n", {"corrupt_rate": 1.0}, Grade.UNSAFE),
    ],
    "known_vulnerabilities": [
        (IDENT, {"vuln_db": []}, Grade.SAFE),
        (IDENT, {"vuln_db": VULN_DB_LOW}, Grade.MINOR_RISK),
        (IDENT, {"vuln_db": VULN_DB}, Grade.UNSAFE),
    ],
    "vulnerability_probe": [
        (PROBED, {"attack_db": []}, Grade.SAFE),
        (PROBED, {"attack_db": [AttackProbe("P-BAD", "low", "http", "00",
                                            "OK")]}, Grade.MINOR_RISK),
        (PROBED, {"attack_db": [AttackProbe("P-BAD", "critical", "*", "00",
                                            "OK")]}, Grade.UNSAFE),
    ],
}

BEST_WORST = {
    "port_risk": (Grade.SAFE, Grade.CRITICAL_RISK),
    "scan_detectability": (Grade.UNDETECTABLE, Grade.CRITICAL_RISK),
    "fingerprint": (Grade.SAFE, Grade.CRITICAL_RISK),
    "process_enumeration": (Grade.SAFE, Grade.FAIL),
    "data_leakage": (Grade.PASS, Grade.FAIL),
    "data_collection": (Grade.SAFE, Grade.CRITICAL_RISK),
    "management_access": (Grade.PASS, Grade.FAIL),
    "downgrade_attack": (Grade.PASS, Grade.FAIL),
    "replay_attack": (Grade.PASS, Grade.FAIL),
    "delay_attack": (Grade.SAFE, Grade.UNSAFE),
    "tamper_attack": (Grade.SAFE, Grade.UNSAFE),
    "known_vulnerabilities": (Grade.SAFE, Grade.UNSAFE),
    "vulnerability_probe": (Grade.SAFE, Grade.UNSAFE),
}


def test_criterion_04_verdict_table_exact_grades():
    t0 = time.monotonic()
    for kind, rows in VERDICT_TABLE.items():
        assert len(rows) >= 3, kind
        expected = {grade for _, _, grade in rows}
        best, worst = BEST_WORST[kind]
        assert best in expected and worst in expected, kind
        for i, (text, criteria, grade) in enumerate(rows):
            net = MemoryNetwork(seed=7)
            for j, spec in enumerate(load_text(load_device_spec, text)):
                net.spawn_device(spec, dut=(j == 0))
            ctx = PluginContext(net=net, device_id="d",
                                criteria=dict(criteria),
                                rng=random.Random(f"acc4/{kind}/{i}"),
                                initiator=kind)
            verdict = judge(measure(kind, ctx), ctx.criteria)
            assert verdict.grade is grade, (kind, i, verdict.grade)
    assert time.monotonic() - t0 < 60.0


# -- criterion 5: five-class profiling accuracy -----------------------------

# size means double class to class while stddev stays at 5 percent, so all
# pairs sit far beyond the 3-sigma separation requirement
PROFILE_CLASSES = [
    ("thermostat", 200, 50, 32),
    ("camera", 400, 100, 64),
    ("speaker", 800, 200, 64),
    ("gateway", 1600, 400, 128),
    ("nvr", 3200, 800, 255),
]


def test_criterion_05_profiler_five_class_holdout_accuracy():
    t0 = time.monotonic()
    means = sorted(m for _, m, _, _ in PROFILE_CLASSES)
    for a, b in zip(means, means[1:]):
        assert b - a >= 3 * max(a, b) * 0.05  # >= 3 sigma apart

    rng = random.Random(71)
    train_instances = []
    held = {}
    for name, size_mean, gap_ms, ttl in PROFILE_CLASSES:
        train_cap = synth_capture(rng, name, size_mean, gap_ms, ttl,
                                  sessions=140)
        test_cap = synth_capture(rng, name, size_mean, gap_ms, ttl,
                                 sessions=60)
        train_instances += extract_features(train_cap, label=name)
        held[name] = test_cap
    assert len(train_instances) == 5 * 140

    model = train_model(train_instances, TrainParams())
    held_instances = [i for name, cap in held.items()
                      for i in extract_features(cap, label=name)]
    assert len(held_instances) == 5 * 60
    matrix = confusion_matrix(model, held_instances)
    assert matrix_accuracy(matrix) >= 0.90

    for name, cap in held.items():
        profile = profile_device(model, cap, name)
        assert abs(sum(profile.per_class.values()) - 1.0) <= 1e-9
        assert profile.top_class == max(profile.per_class,
                                        key=profile.per_class.get)
        assert profile.top_class == name
    assert time.monotonic() - t0 < 60.0


# -- criterion 6: tree split gains against an exhaustive oracle -------------


def check_node_gains(node, rows, min_leaf):
    if isinstance(node, Leaf):
        return 0
    pairs = [(r.summary, r.label) for r in rows]
    oracle = oracle_best_gain(pairs, min_leaf)
    assert abs(node.gain - oracle) <= 1e-9
    left = [r for r in rows if r.summary[node.feature] < node.threshold]
    right = [r for r in rows if r.summary[node.feature] >= node.threshold]
    assert len(left) >= min_leaf and len(right) >= min_leaf
    return (1 + check_node_gains(node.left, left, min_leaf)
            + check_node_gains(node.right, right, min_leaf))


def test_criterion_06_tree_gains_match_exhaustive_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    for trial in range(22):
        n = rng.randrange(20, 201)
        nf = rng.randrange(1, 5)
        classes = ["a", "b", "c"][:rng.randrange(2, 4)]
        palette = [0.0, 1.0, 2.0, 5.0, rng.random()]
        rows = [Row(tuple(rng.choice(palette) for _ in range(nf)),
                    classes[i % len(classes)] if i < len(classes)
                    else rng.choice(classes))
                for i, _ in enumerate(range(n))]
        params = TrainParams(max_depth=rng.randrange(2, 9),
                             min_leaf=rng.randrange(1, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = train_model(rows, params)
        checked += check_node_gains(model.tree, rows, params.min_leaf)
    assert checked >= 20  # the randomized forests really grew splits

    # degenerate shape: one class collapses to a single leaf
    with pytest.warns(UserWarning):
        flat = train_model([Row((float(i), 0.0), "only") for i in range(30)])
    assert isinstance(flat.tree, Leaf)

    # XOR-with-skew lattice: both axes split despite equal marginals
    xor = ([Row((0.0, 0.0), "alpha")] * 50 + [Row((1.0, 1.0), "alpha")] * 10
           + [Row((0.0, 1.0), "beta")] * 10 + [Row((1.0, 0.0), "beta")] * 50)
    model = train_model(xor, TrainParams(max_depth=12, min_leaf=5))
    root = model.tree
    assert isinstance(root, Node) and (root.feature, root.threshold) == (0, 0.5)
    expected_gain = (oracle_entropy(["a"] * 60 + ["b"] * 60)
                     - oracle_entropy(["a"] * 50 + ["b"] * 10))
    assert abs(root.gain - expected_gain) <= 1e-9
    for child in (root.left, root.right):
        assert isinstance(child, Node)
        assert (child.feature, child.threshold) == (1, 0.5)
        assert isinstance(child.left, Leaf) and isinstance(child.right, Leaf)
    assert check_node_gains(root, xor, 5) == 3
    assert time.monotonic() - t0 < 60.0


# -- criterion 7: orchestration invariants on randomized scenarios ----------

ACTION_POOL = [
    "action: USER, cam1, TEST, {}",
    "action: USER, port_risk, TEST, {target=cam1, ports=1-128}",
    "action: USER, fingerprint, TEST, {target=cam1}",
    "action: USER, data_collection, TEST, {target=cam1}",
    "action: USER, process_enumeration, TEST, {target=cam1}",
    "action: USER, CLOCK, SET, {advance_s=3}",
]


def random_scenario_text(rng):
    lines = ["scenario: generated", "option: devices=cam.dev",
             f"option: baseline_s={rng.choice((0, 20))}"]
    for i in range(rng.randrange(1, 5)):
        lines.append(f"test: t{i}")
        lines.append(f"phase: {rng.choice(('standard', 'context'))}")
        for _ in range(rng.randrange(1, 5)):
            lines.append(rng.choice(ACTION_POOL))
    return "\n".join(lines) + "\n"


def test_criterion_07_orchestration_invariants_on_random_scenarios(tmp_path):
    t0 = time.monotonic()
    rng = random.Random(311)
    (tmp_path / "cam.dev").write_text(CAMERA_TEXT)
    for trial in range(6):
        text = random_scenario_text(rng)
        path = tmp_path / f"s{trial}.scn"
        path.write_text(text)
        scenario = load_scenario(str(path))
        report = ScenarioRunner(
            scenario,
            RunOptions(seed=trial, runs_dir=str(tmp_path / f"runs{trial}"))
        ).run()
        entries = read_trace(os.path.join(report.run_dir, "trace.jsonl"))

        # one trace entry per action, in execution order (standard tests
        # first, then context), clock monotone
        ordered = (scenario.tests_in_phase(Phase.STANDARD)
                   + scenario.tests_in_phase(Phase.CONTEXT))
        planned = [(t.name, a.element, a.command.value)
                   for t in ordered for a in t.actions]
        assert [(e.test_name, e.action.element, e.action.command.value)
                for e in entries] == planned
        assert [e.ts for e in entries] == sorted(e.ts for e in entries)

        # phase 1 strictly precedes phase 2 in execution order
        phase_of = {t.name: t.phase.value for t in scenario.tests}
        seen_context = False
        for e in entries:
            if phase_of[e.test_name] == "context":
                seen_context = True
            else:
                assert not seen_context

        # verdict tally matches the TEST actions that actually ran
        ran_tests = sum(1 for e in entries
                        if e.action.command is Command.TEST
                        and e.outcome == "ok")
        assert len(report.verdicts()) == ran_tests

        # the text report re-renders byte-identically from the record
        rec = os.path.join(report.run_dir, "report.rec")
        with open(os.path.join(report.run_dir, "report.txt")) as fh:
            assert fh.read() == render_report(read_report_fields(rec))
        assert read_report_fields(rec) == report.fields
    assert time.monotonic() - t0 < 30.0


# -- criterion 8: determinism of the virtual backend ------------------------

VOLATILE_KEYS = ("run_id", "generated_at")


def stable_fields(run_dir):
    fields = read_report_fields(os.path.join(run_dir, "report.rec"))
    return [(k, v) for k, v in fields if k not in VOLATILE_KEYS]


def test_criterion_08_memory_backend_runs_are_deterministic(tmp_path):
    t0 = time.monotonic()
    r1 = run_context_scenario(tmp_path / "one", seed=11)
    r2 = run_context_scenario(tmp_path / "two", seed=11)
    for name in ("capture.cap", "status.rec", "findings.rec", "windows.rec",
                 "trace.jsonl"):
        with open(os.path.join(r1.run_dir, name), "rb") as fa, \
                open(os.path.join(r2.run_dir, name), "rb") as fb:
            assert fa.read() == fb.read(), name
    assert stable_fields(r1.run_dir) == stable_fields(r2.run_dir)
    assert time.monotonic() - t0 < 30.0


# -- criterion 9: capture completeness and payload entropy bands ------------


def test_criterion_09_capture_completeness_and_entropy_bounds():
    t0 = time.monotonic()
    text = ("device: enc1 type=cam connectivity=wifi\n"
            "traffic: size_mean=700 size_stddev=60 gap_ms=90 session_rate=20 "
            "ttl=64\n"
            "\n"
            "device: plain1 type=sensor connectivity=wifi\n"
            "traffic: size_mean=700 size_stddev=60 gap_ms=90 session_rate=20 "
            "ttl=64\n"
            "encryption: payload=plaintext\n")
    net = MemoryNetwork(seed=13)
    for i, spec in enumerate(load_text(load_device_spec, text)):
        net.spawn_device(spec, dut=(i == 0))
    net.observe(300)

    assert len(net.tap) == net.emitted  # nothing dropped, nothing invented

    modes = {"enc1": "encrypted", "plain1": "plaintext"}
    total = conforming = 0
    for r in net.tap.records:
        if r.src_addr not in modes or r.size < 256:
            continue
        if r.payload_entropy is None:
            continue
        total += 1
        if modes[r.src_addr] == "encrypted":
            conforming += r.payload_entropy >= 7.0
        else:
            conforming += r.payload_entropy <= 5.0
    assert total > 100
    assert conforming / total >= 0.99
    assert time.monotonic() - t0 < 30.0
