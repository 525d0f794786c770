"""Security-test plugins: scoring, grading, and the measure/judge split."""

import dataclasses
import random
import re

import pytest

from iotbed.errors import AnalysisError
from iotbed.sectests.plugins import (
    PluginContext,
    judge,
    measure,
    PLUGINS,
)
from iotbed.sectests.portrisk import (
    DEFAULT_SCORE_LIST,
    load_score_list,
    parse_ports,
    risk_level,
    score_ports,
)
from iotbed.sectests.verdict import (
    CLEAN_GRADES,
    FAILED_GRADES,
    Grade,
    Verdict,
    grade_severity,
    highest_risk,
    human_grade,
)
from iotbed.sectests.vulndb import (
    AttackProbe,
    VulnRecord,
    load_attack_db,
    load_vuln_db,
    match_vulnerabilities,
    version_in_range,
)
from iotbed.simnet.devspec import load_device_spec
from iotbed.simnet.memnet import MemoryNetwork

from conftest import load_text

NINE_PORTS = [135, 139, 80, 5900, 445, 443, 49152, 6646, 2869]


def make_net(text: str, seed: int = 7) -> MemoryNetwork:
    net = MemoryNetwork(seed=seed)
    for i, spec in enumerate(load_text(load_device_spec, text)):
        net.spawn_device(spec, dut=(i == 0))
    return net


def run_plugin(kind: str, net: MemoryNetwork, device: str = "d",
               criteria: dict | None = None, seed: int = 0) -> Verdict:
    ctx = PluginContext(net=net, device_id=device,
                        criteria=dict(criteria or {}),
                        rng=random.Random(f"{seed}/{kind}/{device}"),
                        initiator=kind)
    return judge(measure(kind, ctx), ctx.criteria)


# -- port-risk scoring ------------------------------------------------------


def test_score_ports_nine_port_example():
    a = score_ports(NINE_PORTS)
    assert a.open_ports == (80, 135, 139, 443, 445, 2869, 5900, 6646, 49152)
    assert a.total_score == 13
    assert a.risk_level is Grade.MINOR_RISK
    assert [e.score for e in a.scored] == [3, 5, 1, 3, 1]
    assert a.unscored == (135, 139, 2869, 6646)


def test_score_ports_total_matches_independent_sum():
    rng = random.Random(2)
    for _ in range(50):
        ports = rng.sample(range(1, 65536), rng.randrange(0, 20))
        a = score_ports(ports)
        oracle = sum(DEFAULT_SCORE_LIST[p].score
                     for p in set(ports) if p in DEFAULT_SCORE_LIST)
        assert a.total_score == oracle


def test_score_ports_deduplicates():
    a = score_ports([80, 80, 80])
    assert a.total_score == 3
    assert a.open_ports == (80,)


def test_risk_level_boundaries():
    expected = {0: Grade.SAFE, 7: Grade.MINOR_RISK, 14: Grade.MINOR_RISK,
                15: Grade.MAJOR_RISK, 22: Grade.MAJOR_RISK,
                30: Grade.MAJOR_RISK, 31: Grade.CRITICAL_RISK,
                100: Grade.CRITICAL_RISK}
    for total, grade in expected.items():
        assert risk_level(total) is grade, total


def test_risk_level_monotone():
    order = [Grade.SAFE, Grade.MINOR_RISK, Grade.MAJOR_RISK,
             Grade.CRITICAL_RISK]
    rng = random.Random(3)
    totals = sorted(rng.uniform(0, 60) for _ in range(500))
    ranks = [order.index(risk_level(t)) for t in totals]
    assert ranks == sorted(ranks)


def test_load_score_list_file(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("# port,description,score\n22,ssh,4\n23,telnet,7.5\n")
    entries = load_score_list(str(path))
    assert entries[22].score == 4 and entries[23].score == 7.5
    assert entries[23].description == "telnet"


def test_load_score_list_rejects_bad_rows(tmp_path):
    bad = [("22,ssh\n", 1, "fields"),
           ("22,ssh,-1\n", 1, "negative"),
           ("22,ssh,4\n22,ssh,5\n", 2, "duplicate"),
           ("x,ssh,4\n", 1, "invalid literal"),
           ("# port,description,score\n22,ssh,4\n\n23,telnet,x\n", 4,
            "could not convert")]
    path = tmp_path / "s.csv"
    at = re.escape(str(path))
    for content, line, what in bad:
        path.write_text(content)
        with pytest.raises(AnalysisError, match=f"^{at}:{line}: .*{what}"):
            load_score_list(str(path))


# -- verdict vocabulary -----------------------------------------------------


def test_grade_vocabulary_and_severity():
    assert len(Grade) == 11
    assert grade_severity(Grade.PASS) == 0
    assert grade_severity(Grade.MINOR_RISK) == 1
    assert grade_severity(Grade.MODERATE_RISK) == 2
    assert grade_severity(Grade.MAJOR_RISK) == 3
    assert grade_severity(Grade.CRITICAL_RISK) == 4
    assert grade_severity(Grade.FAIL) == 5
    assert grade_severity(Grade.UNSAFE) == 5
    assert CLEAN_GRADES == {Grade.PASS, Grade.SAFE, Grade.UNDETECTABLE,
                            Grade.UNIDENTIFIABLE}
    assert FAILED_GRADES == {Grade.FAIL, Grade.UNSAFE}


def test_human_grade_rendering():
    assert human_grade(Grade.MINOR_RISK) == "Minor Risk"
    assert human_grade(Grade.PASS) == "Pass"


def test_verdict_requires_evidence():
    with pytest.raises(ValueError):
        Verdict("x", Grade.FAIL, "")
    Verdict("x", Grade.INDETERMINATE, "")  # the one exception


def test_highest_risk_picks_most_severe():
    vs = [Verdict("a", Grade.SAFE, "ok"),
          Verdict("b", Grade.MAJOR_RISK, "meh"),
          Verdict("c", Grade.MINOR_RISK, "eh")]
    assert highest_risk(vs) is Grade.MAJOR_RISK
    assert highest_risk([]) is None


# -- vulnerability databases ------------------------------------------------


def test_version_in_range_forms():
    assert version_in_range("1.19", "*")
    assert version_in_range("1.19", "1.19")
    assert not version_in_range("1.20", "1.19")
    assert version_in_range("1.19", "1.10-1.25")
    assert not version_in_range("1.30", "1.10-1.25")
    assert version_in_range("2.0.1", "2.0-2.1")
    assert version_in_range("1.19", " 1.10 - 1.25 ")
    assert version_in_range("3.0", "<=3.0")
    assert not version_in_range("3.0", "<3.0")
    assert version_in_range("3.1", ">3.0")
    assert not version_in_range("3.0", ">=3.1")


def test_match_vulnerabilities_by_identity():
    db = [VulnRecord("busybox", "1.0-1.20", "V-1", "critical", "old shell"),
          VulnRecord("busybox", "2.0", "V-2", "low", "na"),
          VulnRecord("lighttpd", "*", "V-3", "low", "any version")]
    matches = match_vulnerabilities({"busybox": "1.19", "lighttpd": "1.4"}, db)
    assert [m.vuln_id for m in matches] == ["V-1", "V-3"]


def test_load_vuln_and_attack_db(tmp_path):
    vp = tmp_path / "v.csv"
    vp.write_text("busybox,1.0-1.20,V-1,critical,old shell\n")
    records = load_vuln_db(str(vp))
    assert records[0].severity == "critical"
    ap = tmp_path / "a.csv"
    ap.write_text("P-1,low,http,deadbeef,OK\n")
    probes = load_attack_db(str(ap))
    assert probes[0].payload() == bytes.fromhex("deadbeef")
    assert probes[0].expected_safe_signature == "OK"


def test_load_vuln_db_rejects_bad_severity(tmp_path):
    vp = tmp_path / "v.csv"
    at = re.escape(str(vp))
    vp.write_text("busybox,1.0,V-1,apocalyptic,desc\n")
    with pytest.raises(AnalysisError, match=f"^{at}:1: bad severity"):
        load_vuln_db(str(vp))
    vp.write_text("# vulns\nbusybox,1.0,V-1,low,desc\nbusybox,1.0,V-2\n")
    with pytest.raises(AnalysisError, match=f"^{at}:3: expected 5 fields"):
        load_vuln_db(str(vp))
    ap = tmp_path / "a.csv"
    at = re.escape(str(ap))
    ap.write_text("P-1,low,http,deadbeef,OK\nP-2,high,http,00,OK\n")
    with pytest.raises(AnalysisError, match=f"^{at}:2: bad severity"):
        load_attack_db(str(ap))
    ap.write_text("P-1,low,http,deadbeef,OK\nP-2,low,http,zz,OK\n")
    with pytest.raises(AnalysisError, match=f"^{at}:2: non-hexadecimal"):
        load_attack_db(str(ap))


# -- plugin catalog ---------------------------------------------------------


def test_all_thirteen_plugins_registered():
    assert set(PLUGINS) == {
        "port_risk", "scan_detectability", "fingerprint",
        "process_enumeration", "data_leakage", "data_collection",
        "management_access", "downgrade_attack", "replay_attack",
        "delay_attack", "tamper_attack", "known_vulnerabilities",
        "vulnerability_probe",
    }


NINE_PORT_DEVICE = "device: d type=pc connectivity=ethernet\n" + "".join(
    f"port: {p} service=svc{p}\n" for p in NINE_PORTS)


def test_port_risk_plugin_end_to_end():
    net = make_net(NINE_PORT_DEVICE)
    v = run_plugin("port_risk", net, criteria={"ports": "1-65535"})
    assert v.grade is Grade.MINOR_RISK
    assert "total score 13" in v.detail
    assert "unscored ports [135, 139, 2869, 6646]" in v.detail


def test_port_risk_range_restriction():
    net = make_net(NINE_PORT_DEVICE)
    v = run_plugin("port_risk", net, criteria={"ports": "1-100"})
    assert "open ports [80]" in v.detail
    assert "total score 3" in v.detail
    # a range of one port is not a reversed range
    one = run_plugin("port_risk", net, criteria={"ports": "80-80"})
    assert "open ports [80]" in one.detail
    # a port listed twice is refused by name, as a score list's is
    for ports in ("80,443,80", [23, 23]):
        with pytest.raises(ValueError, match=r"^duplicate port (80|23)$"):
            parse_ports(ports)


def test_port_risk_no_ports_is_safe():
    net = make_net("device: d type=mote connectivity=wifi\n"
                   "traffic: session_rate=0\n")
    v = run_plugin("port_risk", net, criteria={"ports": "1-1024"})
    assert v.grade is Grade.SAFE
    assert "total score 0" in v.detail


def test_scan_detectability_grades():
    silent = make_net("device: d type=mote connectivity=wifi\n"
                      "traffic: session_rate=0\n")
    assert run_plugin("scan_detectability", silent).grade is Grade.UNDETECTABLE

    chatty_closed = make_net("device: d type=mote connectivity=wifi\n"
                             "traffic: session_rate=30\n")
    assert run_plugin("scan_detectability",
                      chatty_closed).grade is Grade.SAFE

    web_only = make_net("device: d type=cam connectivity=wifi\n"
                        "port: 80 service=http\ntraffic: session_rate=0\n")
    v = run_plugin("scan_detectability", web_only)
    assert v.grade is Grade.MINOR_RISK
    assert "common ports" in v.detail

    telnet = make_net("device: d type=cam connectivity=wifi\n"
                      "port: 23 service=telnet\ntraffic: session_rate=0\n")
    v = run_plugin("scan_detectability", telnet)
    assert v.grade is Grade.MAJOR_RISK
    assert "23" in v.detail

    surprise = make_net("device: d type=cam connectivity=wifi\n"
                        "port: 80 service=http\nport: 8080 service=http-alt\n"
                        "traffic: session_rate=0\n")
    v = run_plugin("scan_detectability", surprise,
                   criteria={"expected_ports": [80]})
    assert v.grade is Grade.CRITICAL_RISK
    assert "8080" in v.detail


def test_fingerprint_grades():
    bare = make_net("device: d type=cam connectivity=wifi\n"
                    "port: 4444 service=custom\ntraffic: session_rate=0\n")
    assert run_plugin("fingerprint", bare).grade is Grade.UNIDENTIFIABLE

    fresh = make_net('device: d type=cam connectivity=wifi\n'
                     'port: 80 service=http banner="nginx 1.25"\n'
                     'app: nginx 1.25 up_to_date=yes\n'
                     'traffic: session_rate=0\n')
    v = run_plugin("fingerprint", fresh)
    assert v.grade is Grade.SAFE
    assert "nginx 1.25" in v.detail

    stale_os = make_net('device: d type=cam connectivity=wifi\n'
                        'port: 80 service=http banner="busybox httpd 1.19"\n'
                        'os: busybox 1.19 up_to_date=no\n'
                        'traffic: session_rate=0\n')
    assert run_plugin("fingerprint", stale_os).grade is Grade.CRITICAL_RISK

    stale_app = make_net('device: d type=cam connectivity=wifi\n'
                         'port: 80 service=http banner="nginx 1.10"\n'
                         'app: nginx 1.10 up_to_date=no risk=major\n'
                         'traffic: session_rate=0\n')
    assert run_plugin("fingerprint", stale_app).grade is Grade.MAJOR_RISK

    stale_minor = make_net('device: d type=cam connectivity=wifi\n'
                           'port: 80 service=http banner="nginx 1.10"\n'
                           'app: nginx 1.10 up_to_date=no risk=minor\n'
                           'traffic: session_rate=0\n')
    assert run_plugin("fingerprint", stale_minor).grade is Grade.MINOR_RISK


def test_process_enumeration_grades():
    undeclared = make_net("device: d type=cam connectivity=wifi\n"
                          "traffic: session_rate=0\n")
    assert run_plugin("process_enumeration",
                      undeclared).grade is Grade.INDETERMINATE

    wide_open = make_net("device: d type=cam connectivity=wifi\n"
                         "port: 80 service=http\nintrospection: none\n"
                         "traffic: session_rate=0\n")
    v = run_plugin("process_enumeration", wide_open)
    assert v.grade is Grade.FAIL
    assert "telemetryd" in v.detail

    local_only = make_net("device: d type=cam connectivity=wifi\n"
                          "port: 80 service=http\nintrospection: local\n"
                          "traffic: session_rate=0\n")
    assert run_plugin("process_enumeration",
                      local_only).grade is Grade.MODERATE_RISK

    locked = make_net("device: d type=cam connectivity=wifi\n"
                      "port: 80 service=http\nintrospection: remote_blocked\n"
                      "traffic: session_rate=0\n")
    assert run_plugin("process_enumeration", locked).grade is Grade.SAFE


def test_data_leakage_grades():
    encrypted = make_net("device: d type=cam connectivity=wifi\n"
                         "traffic: size_mean=600 size_stddev=50 gap_ms=80 "
                         "session_rate=20 ttl=64\n")
    v = run_plugin("data_leakage", encrypted)
    assert v.grade is Grade.PASS

    leaky = make_net("device: d type=tracker connectivity=lte\n"
                     "traffic: size_mean=600 size_stddev=50 gap_ms=80 "
                     "session_rate=20 ttl=64\n"
                     "encryption: payload=plaintext\n"
                     "stored_data: sensitive\n")
    v = run_plugin("data_leakage", leaky)
    assert v.grade is Grade.FAIL
    assert "GPS=" in v.detail

    plaintext = make_net("device: d type=sensor connectivity=wifi\n"
                         "traffic: size_mean=600 size_stddev=50 gap_ms=80 "
                         "session_rate=20 ttl=64\n"
                         "encryption: payload=plaintext\n")
    v = run_plugin("data_leakage", plaintext)
    assert v.grade is Grade.FAIL
    assert "low-entropy" in v.detail

    silent = make_net("device: d type=mote connectivity=wifi\n"
                      "traffic: session_rate=0\n")
    assert run_plugin("data_leakage", silent).grade is Grade.INDETERMINATE


def test_data_collection_grades():
    for cls, grade in [("none", Grade.SAFE), ("normal", Grade.MINOR_RISK),
                       ("sensitive", Grade.MAJOR_RISK),
                       ("critical", Grade.CRITICAL_RISK)]:
        net = make_net("device: d type=cam connectivity=wifi\n"
                       f"stored_data: {cls}\ntraffic: session_rate=0\n")
        v = run_plugin("data_collection", net)
        assert v.grade is grade
        assert cls in v.detail


def test_management_access_grades():
    closed = make_net("device: d type=cam connectivity=wifi\n"
                      "port: 80 service=http\ntraffic: session_rate=0\n")
    assert run_plugin("management_access", closed).grade is Grade.PASS

    weak = make_net('device: d type=cam connectivity=wifi\n'
                    'port: 23 service=telnet default_creds=root:root\n'
                    'traffic: session_rate=0\n')
    v = run_plugin("management_access", weak)
    assert v.grade is Grade.FAIL
    assert "root:root" in v.detail
    # one port, as a scenario's `management_ports=23` reads
    v = run_plugin("management_access", weak, seed=1,
                   criteria={"management_ports": 23})
    assert v.grade is Grade.FAIL
    assert "root:root" in v.detail

    open_but_strong = make_net(
        'device: d type=cam connectivity=wifi\n'
        'port: 22 service=ssh default_creds=admin:Xj92kPq\n'
        'traffic: session_rate=0\n')
    # the declared creds join the dictionary, so the attack still gets in
    v = run_plugin("management_access", open_but_strong,
                   criteria={"credentials": ()})
    assert v.grade is Grade.FAIL
    assert "admin:Xj92kPq" in v.detail

    no_creds = make_net("device: d type=cam connectivity=wifi\n"
                        "port: 22 service=ssh\ntraffic: session_rate=0\n")
    v = run_plugin("management_access", no_creds)
    assert v.grade is Grade.FAIL  # the open port alone fails the criterion
    assert "refused" in v.detail


def test_management_access_reads_a_credentials_string(camera_spec):
    # a scenario value is a comma-separated list, not a string of letters;
    # port 23's declared root:root joins whatever the scenario lists
    for value, tried in (("admin:admin", 2), ("admin:admin, user:user", 3)):
        net = MemoryNetwork(seed=7)
        net.spawn_device(camera_spec, dut=True)
        ctx = PluginContext(net=net, device_id="cam1",
                            criteria={"credentials": value},
                            rng=random.Random(0), initiator="test")
        raw = measure("management_access", ctx)
        assert raw.data["tried"] == tried
        assert raw.data["accepted"] == [(23, "root:root")]


def test_downgrade_grades():
    accepts = make_net("device: d type=cam connectivity=wifi\n"
                       "port: 443 service=https\n"
                       "encryption: payload=encrypted accepts_downgrade=yes\n"
                       "traffic: session_rate=0\n")
    v = run_plugin("downgrade_attack", accepts)
    assert v.grade is Grade.FAIL
    assert "bits/byte" in v.detail

    refuses = make_net("device: d type=cam connectivity=wifi\n"
                       "port: 443 service=https\n"
                       "encryption: payload=encrypted accepts_downgrade=no\n"
                       "traffic: session_rate=0\n")
    assert run_plugin("downgrade_attack", refuses).grade is Grade.PASS

    plaintext = make_net("device: d type=cam connectivity=wifi\n"
                         "port: 80 service=http\n"
                         "encryption: payload=plaintext\n"
                         "traffic: session_rate=0\n")
    assert run_plugin("downgrade_attack",
                      plaintext).grade is Grade.INDETERMINATE


def test_replay_grades():
    fresh = make_net("device: d type=cam connectivity=wifi\n"
                     "port: 443 service=https\n"
                     "encryption: replay_protected=yes\n"
                     "traffic: session_rate=0\n")
    assert run_plugin("replay_attack", fresh).grade is Grade.PASS

    stale = make_net("device: d type=cam connectivity=wifi\n"
                     "port: 443 service=https\n"
                     "encryption: replay_protected=no\n"
                     "traffic: session_rate=0\n")
    assert run_plugin("replay_attack", stale).grade is Grade.FAIL

    portless = make_net("device: d type=mote connectivity=wifi\n"
                        "traffic: session_rate=0\n")
    with pytest.raises(AnalysisError):
        run_plugin("replay_attack", portless)


DELAY_DEVICE = ("device: d type=cam connectivity=wifi\n"
                "port: 443 service=https\n"
                "timing_range: min_ms=1000 max_ms=3000\n"
                "traffic: session_rate=0\n")


def test_delay_grades():
    assert run_plugin("delay_attack", make_net(DELAY_DEVICE),
                      criteria={"delay_ms": 0}).grade is Grade.SAFE
    # a delay inside the accepted band shifts completions but not the cadence
    assert run_plugin("delay_attack", make_net(DELAY_DEVICE),
                      criteria={"delay_ms": 1500}).grade is Grade.SAFE
    v = run_plugin("delay_attack", make_net(DELAY_DEVICE),
                   criteria={"delay_ms": 10000})
    assert v.grade is Grade.UNSAFE
    assert "10000 ms injected delay" in v.detail

    no_band = make_net("device: d type=cam connectivity=wifi\n"
                       "port: 443 service=https\ntraffic: session_rate=0\n")
    with pytest.raises(AnalysisError):
        run_plugin("delay_attack", no_band, criteria={"delay_ms": 0})


def test_tamper_grades():
    robust = make_net("device: d type=cam connectivity=wifi\n"
                      "port: 443 service=https\n"
                      "robustness: ignores_malformed=yes\n"
                      "traffic: session_rate=0\n")
    v = run_plugin("tamper_attack", robust, criteria={"corrupt_rate": 0.1})
    assert v.grade is Grade.SAFE

    zero_rate = make_net("device: d type=cam connectivity=wifi\n"
                         "port: 80 service=http crash_on_malformed=yes\n"
                         "traffic: session_rate=0\n")
    assert run_plugin("tamper_attack", zero_rate,
                      criteria={"corrupt_rate": 0.0}).grade is Grade.SAFE

    fragile = make_net("device: d type=cam connectivity=wifi\n"
                       "port: 80 service=http crash_on_malformed=yes\n"
                       "traffic: session_rate=0\n")
    v = run_plugin("tamper_attack", fragile, criteria={"corrupt_rate": 1.0})
    assert v.grade is Grade.UNSAFE
    assert "crashed" in v.detail


VULN_DB = [VulnRecord("busybox", "1.0-1.20", "V-1", "critical", "old shell"),
           VulnRecord("busybox", "1.0-1.20", "V-2", "low", "minor thing")]

IDENT_DEVICE = ("device: d type=cam connectivity=wifi\n"
                "os: busybox 1.19\ntraffic: session_rate=0\n")


def test_known_vulnerabilities_grades():
    net = make_net(IDENT_DEVICE)
    assert run_plugin("known_vulnerabilities", net,
                      criteria={"vuln_db": []}).grade is Grade.SAFE

    v = run_plugin("known_vulnerabilities", net,
                   criteria={"vuln_db": VULN_DB})
    assert v.grade is Grade.UNSAFE
    assert "V-1" in v.detail and "V-2" in v.detail

    low_only = [VulnRecord("busybox", "*", "V-9", "low", "trivia")]
    v = run_plugin("known_vulnerabilities", net,
                   criteria={"vuln_db": low_only})
    assert v.grade is Grade.MINOR_RISK


PROBE_DEVICE = ("device: d type=cam connectivity=wifi\n"
                "port: 80 service=http vulnerable_to=P-BAD\n"
                "traffic: session_rate=0\n")


def test_vulnerability_probe_grades():
    net = make_net(PROBE_DEVICE)
    v = run_plugin("vulnerability_probe", net, criteria={"attack_db": []})
    assert v.grade is Grade.SAFE and "0 probes" in v.detail

    low = [AttackProbe("P-BAD", "low", "http", "00", "OK")]
    v = run_plugin("vulnerability_probe", make_net(PROBE_DEVICE),
                   criteria={"attack_db": low})
    assert v.grade is Grade.MINOR_RISK

    crit = [AttackProbe("P-BAD", "critical", "*", "00", "OK"),
            AttackProbe("P-OK", "critical", "*", "00", "OK")]
    v = run_plugin("vulnerability_probe", make_net(PROBE_DEVICE),
                   criteria={"attack_db": crit})
    assert v.grade is Grade.UNSAFE
    assert "P-BAD" in v.detail and "P-OK" not in v.detail


# -- cross-cutting properties ----------------------------------------------


def test_plugins_leave_spec_untouched(camera_spec):
    net = MemoryNetwork(seed=5)
    net.spawn_device(camera_spec, dut=True)
    before = dataclasses.asdict(camera_spec)
    for kind in ("port_risk", "fingerprint", "management_access",
                 "downgrade_attack", "replay_attack", "data_collection"):
        run_plugin(kind, net, device="cam1",
                   criteria={"ports": "1-1024"} if kind == "port_risk" else {})
    assert dataclasses.asdict(net.handle("cam1").spec) == before


def test_plugin_probes_visible_in_capture(camera_spec):
    net = MemoryNetwork(seed=5)
    net.spawn_device(camera_spec, dut=True)
    before = len(net.tap)
    run_plugin("management_access", net, device="cam1")
    mine = [r for r in net.tap.since(before)
            if r.src_addr == "management_access"]
    assert mine
    assert all(r.direction == "to_dut" for r in mine)
    assert net.emitted == len(net.tap)


def test_plugin_verdicts_deterministic_under_fixed_seed(camera_spec):
    def once():
        net = MemoryNetwork(seed=11)
        net.spawn_device(camera_spec, dut=True)
        return [run_plugin(k, net, device="cam1", seed=4).grade
                for k in ("scan_detectability", "data_leakage",
                          "tamper_attack", "delay_attack")]

    assert once() == once()
