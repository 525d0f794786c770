"""Simulated network stack: specs, clock, payloads, context, services,
virtual transport, loopback transport."""

import collections
import dataclasses
import hashlib
import importlib.util
import math
import os
import random
import re
import shlex
import sys
import threading
import time

import pytest

from iotbed.errors import AnalysisError, TransportError
from iotbed.simnet.capture import (CaptureRecord, read_capture,
                                   write_capture)
from iotbed.simnet.clock import VirtualClock
from iotbed.simnet.context import (
    ContextEvent,
    ContextFeed,
    ContextPredicate,
    Day,
    haversine_m,
    load_trajectory,
)
from iotbed.simnet import devspec
from iotbed.simnet.devspec import (CompromiseSpec, DeviceSpec, FalseAlarmSpec,
                                   MonitorSpec, PortSpec, SoftwareSpec,
                                   TrafficSpec, _tokens, load_device_spec)
from iotbed.simnet.loopnet import (FRAME_HEAD, REQUEST_TIMEOUT_S,
                                  LoopbackNetwork)
from iotbed.simnet.memnet import SCAN_STEP_S, MemoryNetwork, ProxyMutator
from iotbed.simnet.payload import (
    _WORDS,
    encrypted_payload,
    find_gps_marker,
    gps_marker,
    plaintext_payload,
    shannon_entropy,
)
from iotbed.simnet.services import DeviceState, ServiceEngine
from iotbed.simnet.status import (InternalStatusSample, read_status,
                                  write_status)

from conftest import CAMERA_TEXT, FLEET_TEXT, input_at, load_text


# -- device spec DSL --------------------------------------------------------


def test_parse_camera_spec_fields(camera_spec):
    s = camera_spec
    assert s.device_id == "cam1"
    assert s.device_type == "ip_camera"
    assert sorted(s.ports) == [23, 80, 443]
    assert s.ports[23].default_creds == "root:root"
    assert s.ports[80].crash_on_malformed
    assert s.ports[443].freshness is False
    assert s.os.name == "busybox" and s.os.up_to_date is False
    assert s.apps[0].name == "lighttpd"
    assert s.traffic.size_mean == 512 and s.traffic.session_rate == 6
    assert (s.timing_min_ms, s.timing_max_ms) == (1000.0, 3000.0)
    assert s.stored_data_class == "sensitive"
    assert s.introspection == "remote_blocked"
    assert s.accepts_downgrade and not s.replay_protected


def test_parse_multiple_devices():
    specs = load_text(load_device_spec, FLEET_TEXT)
    assert [s.device_id for s in specs] == ["cam1", "hub1", "srv1", "srv2"]
    assert specs[0].compromise is not None
    assert specs[0].compromise.targets == ("hub1", "srv1", "srv2")
    assert specs[0].false_alarm.at_s == 330.0


def test_zero_session_rate_means_silent_device():
    spec = load_text(
        load_device_spec,
        "device: quiet type=server connectivity=ethernet\n"
        "traffic: session_rate=0\n")[0]
    net = MemoryNetwork(seed=1)
    net.spawn_device(spec, dut=False)
    net.observe(30)
    assert [r for r in net.tap.records if r.src_addr == "quiet"] == []


@pytest.mark.parametrize("version", ["v1.30", "unknown", "1..4"])
def test_spawn_rejects_a_bad_version_built_in_code(version):
    # A spec built in code never meets the reader's check at its os: or
    # app: line; unchecked, vulndb would read v1.30 as 0 <= 1.20.
    for os_spec, apps in ((SoftwareSpec("busybox", version), []),
                          (None, [SoftwareSpec("nginx", "1.10"),
                                  SoftwareSpec("camsrv", version)])):
        net = MemoryNetwork(seed=1)
        with pytest.raises(ValueError,
                           match=re.escape(f"d: bad version {version!r}")):
            net.spawn_device(DeviceSpec("d", os=os_spec, apps=apps))
        assert net.actors == {}
    good = DeviceSpec("d", os=SoftwareSpec("busybox", "1.19"),
                      apps=[SoftwareSpec("lighttpd", "1.4.35")])
    MemoryNetwork(seed=1).spawn_device(good)


@pytest.mark.parametrize("line, name", [
    ("traffic: session_rate=-1", "session_rate"),
    # zero would sample status forever at one instant; a negative value
    # would end the run in the clock's "negative delay"
    ("monitor: period_s=0", "period_s"),
    ("monitor: period_s=-1", "period_s"),
    ("compromise: lat=0 lon=0 radius_m=10 interval_ms=-50", "interval_ms"),
    ("false_alarm: at_s=10 gap_ms=-50", "gap_ms"),
    ("false_alarm: at_s=10 packets=-4", "packets"),
    ("compromise: lat=0 lon=0 radius_m=10 ports=22,70000,0",
     "probe port 70000"),
], ids=["session_rate", "zero_period", "negative_period", "interval_ms",
        "gap_ms", "packets", "probe_ports"])
def test_negative_session_rate_rejected(tmp_path, line, name):
    # a contradiction found once the block is complete is reported at the
    # device's own line
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + f"d: {name}"):
        load_text(load_device_spec,
                  "# fleet\ndevice: d type=server connectivity=ethernet\n"
                  f"{line}\n", tmp_path)


def test_bad_property_values_rejected(tmp_path):
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + "bad data"):
        load_text(load_device_spec,
                  "device: d type=server connectivity=ethernet\n"
                  "stored_data: topsecret\n", tmp_path)
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + "bad intro"):
        load_text(load_device_spec,
                  "device: d type=server connectivity=ethernet\n"
                  "introspection: sideways\n", tmp_path)
    with pytest.raises(AnalysisError, match=input_at(tmp_path, 3) + "missing"):
        load_text(load_device_spec,
                  "device: d type=server\n\naddress:   # none given\n",
                  tmp_path)
    # a value line takes exactly one value
    for line, token in (("stored_data: sensitive junk", "junk"),
                        ("connectivity: zigbee extra", "extra")):
        with pytest.raises(AnalysisError, match=input_at(tmp_path, 2)
                           + f"unexpected token '{token}'"):
            load_text(load_device_spec, f"device: d type=server\n{line}\n",
                      tmp_path)
    # a bad positional field is named, not the valid token after it
    for line in ("port: junk 80 service=http", "app: camsrv junk 2.1"):
        with pytest.raises(AnalysisError,
                           match=input_at(tmp_path, 2) + ".*'junk'$"):
            load_text(load_device_spec, f"device: d type=server\n{line}\n",
                      tmp_path)
    # shlex's own errors, at the line of the bad quote or escape; the
    # comment cut at a # inside quotes leaves the quote open
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + "No closing quotation"):
        load_text(load_device_spec,
                  "device: d type=server\nport: 80 banner=\"abc\n", tmp_path)
    with pytest.raises(AnalysisError, match=input_at(tmp_path, 2) + re.escape(
            "No closing quotation (a # starts a comment, also inside "
            "quotes)")):
        load_text(load_device_spec,
                  "device: d type=server\nport: 80 banner=\"web #1\"\n",
                  tmp_path)
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 4) + "No escaped character"):
        load_text(load_device_spec,
                  "device: d type=server\nport: 80 service=http\n\n"
                  "port: 81 banner=abc\\  # the escape ends the body\n",
                  tmp_path)


def _split_outcome(split, body):
    try:
        return split(body)
    except ValueError as exc:
        return str(exc)


def test_spec_tokens_match_shlex():
    # Oracle: the reader's tokenizer against shlex.split on bodies stripped
    # as records.directives strips them, drawn from quotes, the escape, the
    # reader's punctuation, shlex's whitespace and whitespace that shlex
    # keeps inside a token.  About half the draws hold no quote or escape.
    special = "'\"\\"
    plain = "ab#=, \t\r\n\x0b\x0c\xa0\u2003"
    rng = random.Random(3)
    fast = 0
    for _ in range(20_000):
        alphabet = plain if rng.random() < 0.5 else plain + special * 2
        body = "".join(rng.choices(alphabet, k=rng.randrange(12))).strip()
        fast += not any(c in body for c in special)
        assert (_split_outcome(_tokens, body)
                == _split_outcome(shlex.split, body)), repr(body)
    assert fast > 10_000


@pytest.mark.parametrize("line", [
    "device: e type=server conectivity=zigbee",
    "port: 80 servce=http",
    "os: linux 5.4 up_to_dat=no",
    "app: nginx 1.18 rsk=high",
    "traffic: sesion_rate=9",
    "timing_range: min_ms=1 max_ms=2 mx_ms=3",
    "robustness: ignores_malformd=yes",
    "encryption: paylod=plaintext",
    "monitor: perod_s=2",
    "compromise: lat=0 lon=0 radius_m=10 interval=20",
    "false_alarm: at_s=10 packts=4",
], ids=lambda line: line.partition(":")[0])
def test_unknown_key_rejected_at_its_line(tmp_path, line):
    # a misspelt key must not leave its field at the default unnoticed
    key = line.split()[-1].partition("=")[0]
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + f"unknown key '{key}'"):
        load_text(load_device_spec,
                  f"device: d type=server connectivity=ethernet\n{line}\n",
                  tmp_path)


def test_docstring_example_loads_to_its_spec():
    # The example uses every kind of line and every key, each key at a
    # value other than its default, so a key read into the wrong attribute
    # fails here.
    example = "".join(line[4:] + "\n" for line in devspec.__doc__.splitlines()
                      if line.startswith("    "))
    used = {kind: set() for kind in devspec._LINES}
    for line in example.splitlines():
        kind, _, body = line.partition(":")
        used[kind].update(token.partition("=")[0]
                          for token in shlex.split(body) if "=" in token)
    assert used == {kind: {key for key in fields if isinstance(key, str)}
                    for kind, (_, _, fields) in devspec._LINES.items()}
    assert load_text(load_device_spec, example) == [
        DeviceSpec(
            device_id="cam01", device_type="ip_camera", address="10.0.0.11",
            connectivity="lte",
            ports={
                80: PortSpec(number=80, service="http",
                             banner="lighttpd 1.4.35",
                             default_creds="admin:admin"),
                81: PortSpec(number=81, service="http-alt",
                             crash_on_malformed=True),
                443: PortSpec(number=443, service="https", freshness=False,
                              vulnerable_to=("probe_hb", "probe_ccs")),
            },
            os=SoftwareSpec(name="linux", version="3.18", up_to_date=False,
                            risk="critical"),
            apps=[SoftwareSpec(name="camsrv", version="2.1",
                               up_to_date=False, risk="major")],
            traffic=TrafficSpec(size_mean=512, size_stddev=96, gap_ms=80,
                                gap_stddev_ms=18),
            timing_min_ms=60, timing_max_ms=220, ignores_malformed=True,
            payload_mode="plaintext", accepts_downgrade=True,
            replay_protected=False, introspection="local",
            stored_data_class="sensitive",
            monitor=MonitorSpec(period_s=2, cpu_base=12, cpu_noise=3,
                                cpu_spike=55),
            compromise=CompromiseSpec(trigger=ContextPredicate(
                center_lat=32.0853, center_lon=34.7818, radius_m=150,
                window_start=100, window_end=400)),
            false_alarm=FalseAlarmSpec(at_s=300, packets=30, gap_ms=70)),
        DeviceSpec(
            device_id="hub01", device_type="hub", connectivity="ethernet",
            traffic=TrafficSpec(ttl=128, session_rate=0),
            monitor=MonitorSpec(mem_base=64e6, mem_noise=1e6, mem_spike=4e6),
            compromise=CompromiseSpec(
                trigger=ContextPredicate(window_start=500, window_end=600),
                probe_ports=(22, 80, 443), probe_interval_ms=40,
                targets=("cam01",))),
    ]


def test_device_line_sets_connectivity():
    spec, = load_text(load_device_spec,
                      "device: d type=server connectivity=zigbee\n")
    assert spec.connectivity == "zigbee"


def test_duplicate_port_rejected(tmp_path):
    with pytest.raises(AnalysisError, match=input_at(tmp_path, 3)):
        load_text(load_device_spec,
                  "device: d type=server connectivity=ethernet\n"
                  "port: 80 service=http\nport: 80 service=http\n", tmp_path)


# -- virtual clock ----------------------------------------------------------


def test_clock_runs_callbacks_in_time_order():
    clk = VirtualClock()
    seen = []
    clk.schedule(2.0, lambda: seen.append("b"))
    clk.schedule(1.0, lambda: seen.append("a"))
    clk.schedule_at(3.0, lambda: seen.append("c"))
    clk.advance(5.0)
    assert seen == ["a", "b", "c"]
    assert clk.now() == 5.0


def test_clock_callbacks_can_reschedule():
    clk = VirtualClock()
    ticks = []

    def tick():
        ticks.append(clk.now())
        if len(ticks) < 3:
            clk.schedule(1.0, tick)

    clk.schedule(1.0, tick)
    clk.advance(10.0)
    assert ticks == [1.0, 2.0, 3.0]


def _stepped(drive) -> tuple[list, list, float, float]:
    """The now() values drive(clock) collects, the (name, now()) of each
    callback fired, the clock's end time and the end of its third step.
    Two events fall due exactly at that end, and one event's callback
    schedules another that is due at once."""
    clk = VirtualClock(start=2.0)
    fired = []

    def event(name, then=None):
        def callback():
            fired.append((name, clk.now()))
            if then is not None:
                clk.schedule(0.0, event(then))
        return callback

    edge = 2.0
    for _ in range(3):
        edge += 0.001
    clk.schedule_at(edge, event("edge"))
    clk.schedule_at(edge, event("tie"))
    clk.schedule(0.0015, event("parent", then="child"))
    clk.schedule(0.0042, event("late"))
    clk.schedule(0.0072, event("after"))
    return drive(clk), fired, clk.now(), edge


def _advanced(clk) -> list[float]:
    nows = []
    for _ in range(6):
        nows.append(clk.now())
        clk.advance(0.001)
    return nows


def test_clock_steps_match_repeated_advance():
    stepped = _stepped(lambda clk: list(clk.steps(0.001, 6)))
    assert stepped == _stepped(_advanced)
    nows, fired, end, edge = stepped
    assert nows[3] == edge
    assert [name for name, _ in fired] == ["parent", "child", "edge", "tie",
                                           "late"]
    assert end > nows[-1]


def test_clock_steps_checks_its_step_and_may_take_none():
    clk = VirtualClock(start=1.0)
    seen = []
    clk.schedule(0.0, lambda: seen.append("due"))
    assert list(clk.steps(0.5, 0)) == []
    assert (clk.now(), seen) == (1.0, [])
    with pytest.raises(ValueError):
        clk.steps(-0.001, 3)
    assert clk.now() == 1.0


# -- payload synthesis ------------------------------------------------------


def oracle_entropy(data: bytes) -> float:
    # independent Shannon estimate, bits per byte
    if not data:
        return 0.0
    counts = collections.Counter(data)
    n = len(data)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def test_entropy_matches_independent_estimate():
    # the same terms summed in the same order give the same float
    rng = random.Random(5)
    cases = [b"", b"\x00" * 100, bytes(range(256)),
             rng.randbytes(1000), b"hello world" * 30]
    for size in (1, 2, 31, 32, 100, 257, 620, 1000, 2048, 4096):
        cases.append(encrypted_payload(rng, size))
        cases.append(plaintext_payload(rng, size))
        cases.append(plaintext_payload(rng, size, gps_marker(32.0853,
                                                             34.7818)))
    for data in cases:
        assert shannon_entropy(data) == oracle_entropy(data)


def test_single_symbol_payload_is_written_with_plus_zero_entropy(tmp_path):
    assert math.copysign(1, shannon_entropy(b"AAAA")) == 1
    records = [CaptureRecord.build(seq, float(seq), "cam1", 40000, "cloud",
                                   8883, 64, "background", "from_dut", data)
               for seq, data in enumerate((b"A", b"AAAA"), start=1)]
    path = tmp_path / "one-symbol.cap"
    write_capture(records, str(path))
    text = path.read_text()
    assert text.count(" payload_entropy=0.0000 ") == 2
    assert "-0.0000" not in text


def choice_loop_payload(rng: random.Random, size: int,
                        marker: str | None = None) -> bytes:
    # plaintext_payload as first written, with Random.choice and randrange
    parts: list[str] = []
    length = 0
    if marker:
        parts.append(marker)
        length = len(marker) + 1
    while length < size + 16:
        token = rng.choice(_WORDS)
        if rng.random() < 0.3:
            token += str(rng.randrange(1000))
        parts.append(token)
        length += len(token) + 1
    return " ".join(parts).encode("ascii")[:size]


def test_plaintext_payload_matches_choice_loop():
    # the written-out draws take the same bits from the generator as
    # Random.choice and Random.randrange on this interpreter
    for seed in range(40):
        for size in (1, 32, 257, 4096):
            for marker in (None, gps_marker(-33.8688, 151.2093)):
                ours, ref = random.Random(seed), random.Random(seed)
                assert plaintext_payload(ours, size, marker) == \
                    choice_loop_payload(ref, size, marker)
                assert ours.getstate() == ref.getstate()


def test_encrypted_payload_is_high_entropy():
    rng = random.Random(11)
    for _ in range(5):
        data = encrypted_payload(rng, 512)
        assert len(data) == 512
        assert shannon_entropy(data) >= 7.0


def test_plaintext_payload_is_low_entropy():
    rng = random.Random(11)
    for _ in range(5):
        data = plaintext_payload(rng, 512)
        assert len(data) == 512
        assert shannon_entropy(data) <= 5.0


def test_gps_marker_embed_and_find():
    marker = gps_marker(32.0853, 34.7818)
    data = plaintext_payload(random.Random(1), 400, marker)
    assert find_gps_marker(data) == marker
    assert find_gps_marker(encrypted_payload(random.Random(1), 400)) is None


# -- context feed -----------------------------------------------------------


def oracle_haversine(lat1, lon1, lat2, lon2):
    # textbook formula, written independently of the implementation
    r = 6371000.0
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def test_haversine_against_oracle():
    pts = [(32.0853, 34.7818, 32.0953, 34.7818),
           (0.0, 0.0, 0.0, 1.0),
           (51.5, -0.12, 48.85, 2.35)]
    for lat1, lon1, lat2, lon2 in pts:
        assert haversine_m(lat1, lon1, lat2, lon2) == pytest.approx(
            oracle_haversine(lat1, lon1, lat2, lon2), rel=1e-9)


def test_parse_trajectory_rows_and_day_default():
    events = load_text(load_trajectory,
                       "0 32.0 34.0\n10 32.1 34.1 TUESDAY  # inline\n")
    assert len(events) == 2
    assert events[0].t == 0.0 and events[0].day is Day.MONDAY
    assert events[1].day is Day.TUESDAY


def test_parse_trajectory_rejects_disorder_and_garbage(tmp_path):
    for text, line in (("10 32 34\n5 32 34\n", 2),
                       ("# t lat lon\nabc 32 34\n", 2),
                       ("0 32 34\n5 95 34\n", 2),
                       ("0 32 34 FUNDAY\n", 1),
                       ("", 1)):
        with pytest.raises(AnalysisError, match=input_at(tmp_path, line)):
            load_text(load_trajectory, text, tmp_path)


def test_context_predicate_circle_and_window():
    pred = ContextPredicate(center_lat=32.0853, center_lon=34.7818,
                            radius_m=150.0, window_start=100.0,
                            window_end=220.0)
    inside = ContextEvent(t=150.0, lat=32.0853, lon=34.7818, day=Day.MONDAY)
    outside_geo = ContextEvent(t=150.0, lat=32.0953, lon=34.7818, day=Day.MONDAY)
    outside_time = ContextEvent(t=500.0, lat=32.0853, lon=34.7818, day=Day.MONDAY)
    assert pred.matches(inside)
    assert not pred.matches(outside_geo)
    assert not pred.matches(outside_time)
    # boundary: ~150 m north of center must still match at the radius edge
    edge_lat = 32.0853 + 150.0 / 111195.0
    near_edge = ContextEvent(t=150.0, lat=edge_lat - 1e-6, lon=34.7818,
                             day=Day.MONDAY)
    assert pred.matches(near_edge)


def test_context_feed_delivers_events_in_order():
    feed = ContextFeed()
    seen = []
    feed.subscribe(seen.append)
    for t in (0.0, 10.0, 20.0):
        feed.publish(ContextEvent(t=t, lat=1.0, lon=1.0, day=Day.MONDAY))
    assert [e.t for e in seen] == [0.0, 10.0, 20.0]


# -- service engine wire grammar -------------------------------------------


@pytest.fixture
def engine(camera_spec):
    return ServiceEngine(camera_spec, DeviceState(), random.Random(3))


def test_banner_reply(engine):
    assert engine.handle(23, b"BANNER") == b"BusyBox v1.19 telnetd"


def test_login_accepts_declared_creds_only(engine):
    assert engine.handle(23, b"LOGIN root root") == b"OK token=tok1"
    assert engine.handle(23, b"LOGIN root wrong") == b"DENIED"
    assert engine.handle(23, b"LOGIN root root") == b"OK token=tok2"


def test_login_replay_denied_when_fresh(camera_spec):
    eng = ServiceEngine(camera_spec, DeviceState(), random.Random(3))
    # port 80 inherits the device default (no replay protection declared,
    # replay_protected=no), so reuse succeeds there
    assert eng.handle(23, b"LOGIN root root nonce=n1").startswith(b"OK")
    assert eng.handle(23, b"LOGIN root root nonce=n1").startswith(b"OK")
    # flip protection on and the same nonce is rejected the second time
    protected = load_text(load_device_spec, CAMERA_TEXT.replace(
        "replay_protected=no", "replay_protected=yes"))[0]
    eng2 = ServiceEngine(protected, DeviceState(), random.Random(3))
    assert eng2.handle(23, b"LOGIN root root nonce=n1").startswith(b"OK")
    assert eng2.handle(23, b"LOGIN root root nonce=n1") == b"DENIED replay"


def test_cmd_returns_payload_and_downgrade_lowers_entropy(engine):
    high = engine.handle(443, b"CMD fetch")
    assert shannon_entropy(high) >= 7.0
    assert engine.handle(443, b"DOWNGRADE null") == b"ACCEPT plaintext"
    low = engine.handle(443, b"CMD fetch")
    assert shannon_entropy(low) <= 5.0


def test_downgrade_rejected_when_disabled(camera_spec):
    spec = load_text(load_device_spec, CAMERA_TEXT.replace(
        "accepts_downgrade=yes", "accepts_downgrade=no"))[0]
    eng = ServiceEngine(spec, DeviceState(), random.Random(3))
    assert eng.handle(443, b"DOWNGRADE null") == b"REJECT"


def test_vprobe_matches_declared_weaknesses():
    spec = load_text(
        load_device_spec,
        "device: d type=server connectivity=ethernet\n"
        "port: 80 service=http vulnerable_to=CVE-1\n")[0]
    eng = ServiceEngine(spec, DeviceState(), random.Random(3))
    assert eng.handle(80, b"VPROBE CVE-1 909090") == b"VULNERABLE CVE-1"
    assert eng.handle(80, b"VPROBE CVE-2 909090") == b"OK"


def test_enum_gated_by_introspection(engine):
    assert engine.handle(23, b"ENUM") == b"DENIED"
    open_spec = load_text(load_device_spec, CAMERA_TEXT.replace(
        "introspection: remote_blocked", "introspection: none"))[0]
    eng = ServiceEngine(open_spec, DeviceState(), random.Random(3))
    assert eng.handle(23, b"ENUM") == b"PROCS init,telemetryd,updater,appd"


def test_local_process_list_gated(camera_spec):
    # remote_blocked still honors the local channel? no: local access needs
    # introspection none or local; remote_blocked means creds required there too
    blocked = ServiceEngine(camera_spec, DeviceState(), random.Random(1))
    assert blocked.local_process_list() is None
    local = load_text(load_device_spec, CAMERA_TEXT.replace(
        "introspection: remote_blocked", "introspection: local"))[0]
    eng = ServiceEngine(local, DeviceState(), random.Random(1))
    assert eng.local_process_list() == "init,telemetryd,updater,appd"
    assert eng.handle(23, b"ENUM") == b"DENIED"  # remote path still closed


def test_malformed_crashes_when_flagged(engine):
    assert engine.handle(80, b"GIBBERISH") is None
    assert engine.state.crashed and not engine.state.alive
    # dead device answers nothing at all
    assert engine.handle(23, b"BANNER") is None


def test_malformed_error_reply_without_crash_flag(engine):
    assert engine.handle(23, b"GIBBERISH") == b"ERROR malformed"
    assert engine.state.alive


def test_malformed_silently_ignored_when_robust():
    spec = load_text(
        load_device_spec,
        "device: d type=server connectivity=ethernet\n"
        "port: 80 service=http\nrobustness: ignores_malformed=yes\n")[0]
    eng = ServiceEngine(spec, DeviceState(), random.Random(1))
    assert eng.handle(80, b"GIBBERISH") is None
    assert eng.state.alive


def test_closed_port_gives_no_reply(engine):
    assert engine.handle(9999, b"BANNER") is None


# -- in-memory transport ----------------------------------------------------


def test_telemetry_flows_and_counter_matches_tap(camera_net):
    camera_net.observe(30)
    records = camera_net.tap.records
    assert camera_net.emitted == len(records)
    toward_cloud = [r for r in records
                    if r.src_addr == "cam1" and r.dst_addr == "cloud"]
    # ~6 sessions/minute over 30 s, several packets each
    assert len(toward_cloud) > 10


def test_same_seed_same_traffic(camera_spec):
    def run():
        net = MemoryNetwork(seed=42)
        net.spawn_device(camera_spec, dut=True)
        net.observe(20)
        return [(r.ts, r.src_addr, r.dst_addr, r.size, r.ttl)
                for r in net.tap.records]

    assert run() == run()


def test_tap_between_is_half_open(camera_net):
    camera_net.observe(10)
    all_records = camera_net.tap.records
    t_mid = all_records[len(all_records) // 2].ts
    early = camera_net.tap.between(0.0, t_mid)
    late = camera_net.tap.between(t_mid, camera_net.now() + 1)
    assert len(early) + len(late) == len(all_records)
    assert all(r.ts < t_mid for r in early)
    assert all(r.ts >= t_mid for r in late)


def test_tap_is_in_time_order_and_between_equals_a_linear_filter(
        camera_spec):
    # a proxy delay defers telemetry emission; the tap still comes out in
    # time order, since each record is stamped as it is appended
    net = MemoryNetwork(seed=3)
    net.spawn_device(camera_spec, dut=True)
    net.proxy("cam1", ProxyMutator(delay_ms=250))
    net.observe(12)
    net.scan_ports("tester", "cam1", range(1, 30))    # probe, banner: ties
    conn = net.connect("tester", "cam1", 23)
    conn.request(b"BANNER")
    net.observe(20)
    records = net.tap.records
    stamps = [r.ts for r in records]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) < len(stamps)
    cuts = sorted({-1.0, 0.0, 7.25, net.now(), net.now() + 1.0,
                   *stamps[::max(1, len(stamps) // 12)],
                   *(a for a, b in zip(stamps, stamps[1:]) if a == b)})
    for t0 in cuts:
        for t1 in cuts:
            assert net.tap.between(t0, t1) == [r for r in records
                                               if t0 <= r.ts < t1]


def test_connect_and_request(camera_net):
    conn = camera_net.connect("tester", "cam1", 23)
    assert conn is not None
    assert conn.request(b"BANNER") == b"BusyBox v1.19 telnetd"
    conn.close()
    assert camera_net.connect("tester", "cam1", 12345) is None


def test_scan_ports_returns_sorted_open_set(camera_net):
    found = camera_net.scan_ports("scanner", "cam1", [443, 23, 80, 8080])
    assert [p for p, _ in found] == [23, 80, 443]
    banners = dict(found)
    assert "telnetd" in banners[23]


def test_scan_probes_are_captured(camera_net):
    before = len(camera_net.tap)
    camera_net.scan_ports("scanner", "cam1", range(1, 101))
    probes = [r for r in camera_net.tap.since(before)
              if r.src_addr == "scanner"]
    assert len(probes) == 100
    assert camera_net.emitted == len(camera_net.tap)


def test_sweep_between_clock_events_is_pinned(camera_net, tmp_path):
    # cam1's first telemetry session falls due at t = 7.5-8.9 s, inside a
    # 1-3000 sweep begun at t = 6 s, so its records interleave with the
    # probes; the digest was taken at commit 857587b, before the sweep
    # built its records positionally
    camera_net.observe(6)
    camera_net.scan_ports("scanner", "cam1", range(1, 3001))
    kinds = [r.kind for r in camera_net.tap.records]
    assert collections.Counter(kinds) == {"probe": 3000, "background": 14,
                                          "banner": 3}
    first = kinds.index("background")
    assert "probe" in kinds[first:first + 14]
    path = tmp_path / "sweep.cap"
    write_capture(camera_net.tap.records, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d02fae1e35105095bba71ae4c914db6c581a724277af079e42501b6e7845b70f")


def per_probe_scan_ports(net, src, dst, ports):
    """scan_ports as it was written before the clock's steps(): one emit and
    one advance(SCAN_STEP_S) per probe.  The oracle of the sweep."""
    actor = net._actor(dst)
    found = []
    src_port = next(net._eph_ports)
    for port in ports:
        net.emit(src, src_port, dst, port, 64, kind="probe", payload=b"")
        opened = port in actor.spec.ports and net._dial(actor, port)
        if opened:
            channel, banner = opened
            if channel is not None:
                channel.close()
            net.emit(src=dst, src_port=port, dst=src, dst_port=src_port,
                     ttl=actor.ttl(), kind="banner", payload=banner)
            found.append((port, banner.decode("ascii", "replace")))
        net.clock.advance(SCAN_STEP_S)
    return sorted(found)


def _swept(net, camera_spec, dut, sweep):
    """Records, open ports and end time of a 1-3000 sweep begun at t = 6,
    with cam1's telemetry and three planted events inside it."""
    try:
        net.spawn_device(camera_spec, dut=dut)
        net.observe(6)
        edge = net.now()
        for _ in range(1200):
            edge += SCAN_STEP_S

        def noise(dst_port):
            return lambda: net.emit("hub9", 7000, "cam1", dst_port, 32,
                                    kind="noise", payload=b"\x01\x02")

        # due exactly at the end of the 1200th step, and a callback that
        # schedules a record while the sweep runs
        net.clock.schedule_at(edge, noise(1))
        net.clock.schedule(0.75, lambda: net.clock.schedule(0.0005, noise(2)))
        found = sweep(net, "scanner", "cam1", range(1, 3001))
        assert net.emitted == len(net.tap)
        return net.tap.records, found, net.now()
    finally:
        net.shutdown()


@pytest.mark.parametrize("dut", [True, False], ids=["dut", "peer"])
@pytest.mark.parametrize("backend", [MemoryNetwork, LoopbackNetwork],
                         ids=["memory", "loopback"])
def test_sweep_matches_the_per_probe_loop(backend, dut, camera_spec):
    records, found, end = _swept(backend(seed=7), camera_spec, dut,
                                 MemoryNetwork.scan_ports)
    oracle, oracle_found, oracle_end = _swept(backend(seed=7), camera_spec,
                                              dut, per_probe_scan_ports)
    assert ([dataclasses.astuple(r) for r in records]
            == [dataclasses.astuple(r) for r in oracle])
    assert (found, end) == (oracle_found, oracle_end)
    assert [port for port, _ in found] == [23, 80, 443]
    kinds = collections.Counter(r.kind for r in records)
    assert kinds["noise"] == 2 and kinds["background"] > 0
    at = next(i for i, r in enumerate(records)
              if r.kind == "noise" and r.dst_port == 1)
    # fired by the step after the 1200th probe, before the 1201st
    assert [(r.kind, r.dst_port) for r in records[at - 1:at + 2:2]] == [
        ("probe", 1200), ("probe", 1201)]


def load_tracer(monkeypatch):
    """A Tracer of perfbench/tracing.py, its module loaded for this test."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_the_tracer_sees_every_record_of_a_sweep(camera_net, monkeypatch):
    # the benchmark's tracer counts the records that pass through emit per
    # kind, and a sweep's probes, which do not, by its list of ports
    tracer = load_tracer(monkeypatch)
    tracer.install()
    try:
        tracer.active = True
        camera_net.observe(6)
        camera_net.scan_ports("scanner", "cam1", range(1, 3001))
        camera_net.connect("tester", "cam1", 23).close()
    finally:
        tracer.active = False
        tracer.uninstall()
    counts = tracer.rec.counts
    assert counts["memnet.scan_ports"] == 3000
    assert (counts["memnet.records"] + counts["memnet.scan_ports"]
            == camera_net.emitted == len(camera_net.tap))
    assert (counts["memnet.records.probe"], counts["memnet.records.banner"],
            counts["memnet.records.background"]) == (1, 4, 14)


BOX_TEXT = """\
device: box type=server connectivity=ethernet
port: 23 service=telnet
"""


def test_ephemeral_ports_wrap_to_the_start_of_their_range():
    net = MemoryNetwork(seed=1)
    net.spawn_device(load_text(load_device_spec, BOX_TEXT)[0], dut=True)
    for _ in range(15537):
        assert net.connect("tester", "box", 9) is None
    ports = [r.src_port for r in net.tap.records if r.kind == "probe"]
    assert ports[:2] == [50000, 50001]
    assert ports[15534:] == [65534, 65535, 50000]
    device_ports = net.actors["box"]._eph_ports
    draws = [next(device_ports) for _ in range(25537)]
    assert draws[:2] == [40000, 40001]
    assert draws[25534:] == [65534, 65535, 40000]


def reference_write_capture(records, path):
    # write_capture as one f-string per line: the layout it must keep
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            marker = r.payload_marker if r.payload_marker else "-"
            fh.write(
                f"seq={r.seq} ts={r.ts:.6f} src_addr={r.src_addr} "
                f"dst_addr={r.dst_addr} src_port={r.src_port} "
                f"dst_port={r.dst_port} proto={r.proto} ttl={r.ttl} "
                f"size={r.size} payload_entropy={r.payload_entropy:.4f} "
                f"payload_marker={marker} direction={r.direction} "
                f"kind={r.kind}\n")


def written_alike(records, tmp_path) -> bytes:
    ours, ref = tmp_path / "ours.cap", tmp_path / "reference.cap"
    write_capture(records, str(ours))
    reference_write_capture(records, str(ref))
    assert ours.read_bytes() == ref.read_bytes()
    return ours.read_bytes()


def test_capture_writer_matches_the_reference_on_a_sweep(camera_net,
                                                         tmp_path):
    # more lines than one write block, with telemetry sessions inside
    camera_net.observe(6)
    camera_net.scan_ports("scanner", "cam1", range(1, 5001))
    records = camera_net.tap.records
    assert len(records) > 5000
    written_alike(records, tmp_path)


def fleet_of(n: int) -> str:
    lines = []
    for i in range(n):
        lines += [f"device: d{i:02d} type=sensor connectivity=wifi",
                  f"traffic: size_mean={48 + 40 * i} size_stddev=24 "
                  f"gap_ms=60 session_rate=20 ttl={(32, 64, 128)[i % 3]}"]
        if i % 2:
            lines += ["encryption: payload=plaintext",
                      "stored_data: sensitive"]
    return "\n".join(lines) + "\n"


def test_capture_writer_matches_the_reference_on_a_fleet(tmp_path):
    net = MemoryNetwork(seed=11)
    for i, spec in enumerate(load_text(load_device_spec, fleet_of(20))):
        net.spawn_device(spec, dut=i % 3 != 0)
    net.observe(30)
    records = net.tap.records
    assert len({r.src_addr for r in records}) == 20
    assert {r.direction for r in records} == {"from_dut", "lateral"}
    assert any(r.payload_marker for r in records)
    written_alike(records, tmp_path)


def test_capture_writer_matches_the_reference_on_records_read_back(
        camera_net, tmp_path):
    # read back, the fields are equal but no longer the same objects
    camera_net.observe(20)
    camera_net.scan_ports("scanner", "cam1", range(1, 300))
    path = tmp_path / "first.cap"
    write_capture(camera_net.tap.records, str(path))
    again = read_capture(str(path))
    assert again[0].src_addr is not again[1].src_addr
    assert written_alike(again, tmp_path) == path.read_bytes()


def test_capture_writer_tells_equal_fields_apart_by_identity(tmp_path):
    # each record shares every field object but one with the one before;
    # the changed field is equal to the old one yet written differently
    gps = gps_marker(32.0853, 34.7818)
    records = [CaptureRecord(1, 0.5, "cam1", "cloud", 40000, 8883, "tcp", 64,
                             100, 0.0, None, "from_dut", "background")]
    for change in ({"payload_entropy": -0.0}, {"payload_entropy": 0.0},
                   {"ttl": 64.0}, {"ttl": 64}, {"payload_marker": gps},
                   {"payload_marker": None}, {"src_port": 40000.0},
                   {"src_port": 40000}, {"size": 100.0}):
        prev = records[-1]
        records.append(dataclasses.replace(prev, seq=prev.seq + 1,
                                           ts=prev.ts + 0.25, **change))
    lines = written_alike(records, tmp_path).decode().splitlines()
    assert [line.split()[9] for line in lines[:3]] == [
        "payload_entropy=0.0000", "payload_entropy=-0.0000",
        "payload_entropy=0.0000"]
    assert [line.split()[7] for line in lines[2:5]] == [
        "ttl=64", "ttl=64.0", "ttl=64"]
    assert lines[5].split()[10] == f"payload_marker={gps}"
    assert [line.split()[4] for line in lines[6:9]] == [
        "src_port=40000", "src_port=40000.0", "src_port=40000"]
    assert lines[9].split()[8] == "size=100.0"


def test_stop_device_goes_silent(camera_net):
    camera_net.observe(5)
    camera_net.stop_device("cam1")
    assert not camera_net.handle("cam1").alive
    idx = len(camera_net.tap)
    camera_net.observe(10)
    fresh = [r for r in camera_net.tap.since(idx) if r.src_addr == "cam1"]
    assert fresh == []
    assert camera_net.connect("tester", "cam1", 23) is None


def test_unknown_device_rejected(camera_net):
    with pytest.raises(TransportError):
        camera_net.handle("ghost")


def test_duplicate_spawn_rejected(camera_spec):
    net = MemoryNetwork(seed=1)
    net.spawn_device(camera_spec)
    with pytest.raises(TransportError):
        net.spawn_device(camera_spec)


def test_proxy_delay_stretches_transactions(camera_net):
    conn = camera_net.connect("tester", "cam1", 23)
    t0 = camera_net.now()
    conn.request(b"BANNER")
    base = camera_net.now() - t0
    camera_net.proxy("cam1", ProxyMutator(delay_ms=500))
    t0 = camera_net.now()
    conn.request(b"BANNER")
    slowed = camera_net.now() - t0
    camera_net.unproxy("cam1")
    assert slowed >= base + 0.5


def test_proxy_corruption_mangles_requests(camera_spec):
    net = MemoryNetwork(seed=9)
    net.spawn_device(camera_spec, dut=True)
    net.proxy("cam1", ProxyMutator(corrupt_rate=1.0))
    conn = net.connect("tester", "cam1", 23)
    reply = conn.request(b"BANNER")
    # always-corrupt turns the verb into garbage; telnet port answers the
    # malformed-input way instead of the banner
    assert reply != b"BusyBox v1.19 telnetd"


def test_capture_scope_filters_records(camera_net):
    h = camera_net.start_capture(scope={"cam1"})
    camera_net.observe(10)
    records = camera_net.stop_capture(h)
    assert records
    assert all("cam1" in (r.src_addr, r.dst_addr) for r in records)


def test_status_samples_cover_observed_interval(camera_net):
    camera_net.observe(10)
    samples = camera_net.handle("cam1").all_samples()
    assert len(samples) >= 9
    assert all(s.device_id == "cam1" for s in samples)
    assert all(0 <= s.cpu_pct <= 100 for s in samples)


def test_status_sample_range_checked_without_asserts():
    # A ValueError, not an assert, so the check holds under python -O too.
    with pytest.raises(ValueError, match="cpu_pct"):
        InternalStatusSample(ts=0.0, device_id="d", cpu_pct=150.0,
                             mem_bytes=0.0, fs_events=0)
    with pytest.raises(ValueError, match="fs_events"):
        InternalStatusSample(ts=0.0, device_id="d", cpu_pct=1.0,
                             mem_bytes=0.0, fs_events=-1)


def test_read_status_reports_path_and_line(camera_net, tmp_path):
    camera_net.observe(3)
    path = str(tmp_path / "status.rec")
    write_status(camera_net.handle("cam1").all_samples(), path)
    assert len(read_status(path)) == 3
    with open(path, "a") as fh:
        fh.write("ts=9.0 device=cam1 cpu_pct=150 mem_bytes=0 fs_events=0\n")
    with pytest.raises(AnalysisError, match=r"status\.rec:4: cpu_pct"):
        read_status(path)


def test_context_trigger_fires_probe_burst():
    spec = load_text(load_device_spec, FLEET_TEXT)
    net = MemoryNetwork(seed=3)
    for i, s in enumerate(spec):
        net.spawn_device(s, dut=(i == 0))
    net.observe(50)
    assert net.burst_log() == []
    inside = [ContextEvent(t=60.0, lat=32.0853, lon=34.7818, day=Day.MONDAY)]
    net.advance_context(inside)
    net.observe(5)  # let every scheduled probe fire
    window, = net.burst_log()
    assert window.device_id == "cam1"
    probes = net.tap.between(window.t_start, window.t_end + 0.1)
    lateral = [r for r in probes if r.src_addr == "cam1"
               and r.dst_addr in {"hub1", "srv1", "srv2"}]
    assert len(lateral) > 20


def test_context_outside_radius_stays_quiet():
    spec = load_text(load_device_spec, FLEET_TEXT)
    net = MemoryNetwork(seed=3)
    for i, s in enumerate(spec):
        net.spawn_device(s, dut=(i == 0))
    net.observe(50)
    away = [ContextEvent(t=60.0, lat=32.0953, lon=34.7818, day=Day.MONDAY)]
    net.advance_context(away)
    assert net.burst_log() == []


# -- loopback transport (real sockets, kept brief) --------------------------


def test_loopback_roundtrip(camera_spec):
    net = LoopbackNetwork(seed=5)
    try:
        net.spawn_device(camera_spec, dut=True)
        found = net.scan_ports("tester", "cam1", [23, 80, 443, 9999])
        assert [p for p, _ in found] == [23, 80, 443]
        conn = net.connect("tester", "cam1", 23)
        assert conn.request(b"LOGIN root root").startswith(b"OK token=")
        conn.close()
        assert net.connect("tester", "cam1", 9999) is None
        assert net.emitted == len(net.tap)
    finally:
        net.shutdown()


def test_loopback_emit_takes_fields_positionally(camera_spec):
    # emit takes a record's fields positionally as well as by keyword
    net = LoopbackNetwork(seed=5)
    try:
        net.spawn_device(camera_spec, dut=True)
        net.emit("tester", 40001, "cam1", 23, 64, kind="probe", payload=b"")
        record, = [r for r in net.tap.records if r.src_addr == "tester"]
        assert net.emitted == len(net.tap)
        assert (record.src_port, record.dst_addr, record.dst_port,
                record.ttl, record.kind, record.direction, record.size) == (
            40001, "cam1", 23, 64, "probe", "to_dut", 0)
    finally:
        net.shutdown()


def test_loopback_shutdown_is_prompt(camera_spec):
    net = LoopbackNetwork(seed=5)
    net.spawn_device(camera_spec, dut=True)
    began = time.monotonic()
    net.shutdown()
    assert time.monotonic() - began < 0.05


def test_loopback_server_cuts_frames_and_bounds_their_length(camera_spec):
    net = LoopbackNetwork(seed=5)
    try:
        net.spawn_device(camera_spec, dut=True)
        banner = b"BusyBox v1.19 telnetd"
        conn = net.connect("tester", "cam1", 23)
        # one request frame in three pieces, the first cutting the header;
        # the server reads only while its sockets are served, which _reply
        # does and observe does not, so the test serves one round of the
        # loop per piece
        frame = FRAME_HEAD.pack(len(b"BANNER")) + b"BANNER"
        for piece in (frame[:2], frame[2:7]):
            conn.channel.sendall(piece)
            net._serve(0.05)
        conn.channel.sendall(frame[7:])
        assert net._reply(conn.channel) == banner
        # a header declaring more than 1 MiB closes that connection only
        conn.channel.sendall(FRAME_HEAD.pack((1 << 20) + 1))
        assert net._reply(conn.channel) is None
        assert conn.channel.recv(1) == b""
        conn.close()
        again = net.connect("tester", "cam1", 23)
        assert again.request(b"BANNER") == banner
        again.close()
    finally:
        net.shutdown()


def test_loopback_runs_the_same_threads_for_any_fleet(camera_spec):
    # Small fleets only: the count must not grow with devices, ports or
    # connections, so 1 and 10 three-port devices are enough to show it.
    rises = []
    for n in (1, 10):
        before = threading.active_count()
        net = LoopbackNetwork(seed=5)
        try:
            for i in range(n):
                net.spawn_device(
                    dataclasses.replace(camera_spec, device_id=f"cam{i}"))
            spawned = threading.active_count()
            conns = [net.connect("tester", f"cam{i % n}", 23)
                     for i in range(10)]
            assert all(c.request(b"BANNER") for c in conns)
            assert threading.active_count() == spawned
            for c in conns:
                c.close()
        finally:
            net.shutdown()
        rises.append(spawned - before)
    assert rises == [0, 0]


@pytest.mark.parametrize("head_s", [None, 10.0], ids=["idle", "later_head"])
def test_loopback_fires_a_new_timer_without_waiting_for_the_old_head(
        head_s):
    # The loopback backend runs on the virtual clock: a timer ahead of the
    # queue head, or on an empty queue, fires once at its exact instant,
    # and observe() ends exactly where it was asked to.
    net = LoopbackNetwork(seed=5)
    fired = []
    try:
        if head_s is not None:
            net.clock.schedule(head_s, lambda: None)
        net.clock.schedule(0.05, lambda: fired.append(net.now()))
        net.observe(0.2)
        assert fired == [0.05]
        assert net.now() == 0.2
    finally:
        net.shutdown()


# Both backends run one device model, so everything that does not depend on
# the clock must agree.  Neither TTL is 64, so a backend that stamps a fixed
# TTL instead of the device's own shows up.
CONFORMANCE_TEXT = """\
device: cam9 type=ip_camera connectivity=wifi
port: 23 service=telnet banner="BusyBox v1.19 telnetd" default_creds=root:root
port: 80 service=http banner="lighttpd 1.4.35"
traffic: session_rate=6 ttl=128
compromise: lat=32.0853 lon=34.7818 radius_m=150 ports=22,80 interval_ms=20 targets=hub9
false_alarm: at_s=0.2 packets=3 gap_ms=10

device: hub9 type=hub connectivity=ethernet
port: 80 service=http banner="hub web ui"
traffic: session_rate=0 ttl=255
"""


def _conformance_facts(net):
    """Clock-independent facts of one short scenario on `net`."""
    try:
        specs = load_text(load_device_spec, CONFORMANCE_TEXT)
        for i, spec in enumerate(specs):
            net.spawn_device(spec, dut=(i == 0))
        kinds = []

        def op(fn):
            start = len(net.tap)
            result = fn()
            # background and noise follow the clock, not the operation
            kinds.append([r.kind for r in net.tap.records[start:]
                          if r.kind not in ("background", "noise")])
            return result

        def context_then_observe():
            net.advance_context([ContextEvent(t=0.1, lat=32.0853,
                                              lon=34.7818, day=Day.MONDAY)])
            net.observe(0.5)

        found = op(lambda: net.scan_ports("tester", "cam9", [22, 23, 80, 443]))
        conn = op(lambda: net.connect("tester", "cam9", 23))
        reply = op(lambda: conn.request(b"LOGIN root root"))
        conn.close()
        op(context_then_observe)
        records = net.tap.records
        return {
            "ports": found,
            "kinds": kinds,
            "login": reply.partition(b"=")[0],
            "probes": [w.probes for w in net.burst_log()],
            "noise": sum(r.kind == "noise" for r in records),
            "ttls": sorted({(r.src_addr, r.ttl) for r in records
                            if r.src_addr in ("cam9", "hub9")}),
        }
    finally:
        net.shutdown()


def test_backends_simulate_the_same_device():
    memory = _conformance_facts(MemoryNetwork(seed=5))
    assert memory["ports"] == [(23, "BusyBox v1.19 telnetd"),
                               (80, "lighttpd 1.4.35")]
    assert memory["login"] == b"OK token"
    assert memory["probes"] == [2]
    assert memory["noise"] == 3
    assert memory["ttls"] == [("cam9", 128), ("hub9", 255)]
    assert _conformance_facts(LoopbackNetwork(seed=5)) == memory


def _proxied_login_facts(net, mutator):
    """The banner record's size and entropy, the reply prefixes and the
    client-side record kinds of four logins through a proxy."""
    try:
        for i, spec in enumerate(load_text(load_device_spec,
                                           CONFORMANCE_TEXT)):
            net.spawn_device(spec, dut=(i == 0))
        net.proxy("cam9", mutator)
        start = len(net.tap)
        conn = net.connect("tester", "cam9", 23)
        replies = [conn.request(b"LOGIN root root", kind="login")
                   for _ in range(4)]
        conn.close()
        # background and noise follow the clock, not the connection
        records = [r for r in net.tap.records[start:]
                   if r.kind not in ("background", "noise")]
        return {
            "banner": next((r.size, r.payload_entropy) for r in records
                           if r.kind == "banner"),
            "replies": [r if r is None else r[:8] for r in replies],
            "kinds": [r.kind for r in records],
        }
    finally:
        net.shutdown()


@pytest.mark.parametrize("mutator", [ProxyMutator(corrupt_rate=0.5),
                                     ProxyMutator(drop_rate=0.5)],
                         ids=["corrupt", "drop"])
def test_backends_apply_a_proxy_alike(mutator):
    memory = _proxied_login_facts(MemoryNetwork(seed=5), mutator)
    banner = b"BusyBox v1.19 telnetd"
    assert memory["banner"] == (len(banner), shannon_entropy(banner))
    assert memory["replies"][0] == b"OK token"
    began = time.monotonic()
    loopback = _proxied_login_facts(LoopbackNetwork(seed=5), mutator)
    assert time.monotonic() - began < REQUEST_TIMEOUT_S
    assert loopback == memory


def _burst_starts(net):
    """t_start of each burst after context events at t=0.3 (in the trigger
    zone), 0.5 (outside) and 0.7 (inside)."""
    try:
        for i, spec in enumerate(load_text(load_device_spec,
                                           CONFORMANCE_TEXT)):
            net.spawn_device(spec, dut=(i == 0))
        net.advance_context([
            ContextEvent(t=t, lat=lat, lon=34.7818, day=Day.MONDAY)
            for t, lat in ((0.3, 32.0853), (0.5, 32.0953), (0.7, 32.0853))])
        return [w.t_start for w in net.burst_log()]
    finally:
        net.shutdown()


def test_context_events_fire_at_their_time_on_both_backends():
    assert _burst_starts(MemoryNetwork(seed=5)) == [0.3, 0.7]
    assert _burst_starts(LoopbackNetwork(seed=5)) == [0.3, 0.7]


@pytest.mark.parametrize("backend", [MemoryNetwork, LoopbackNetwork])
@pytest.mark.parametrize("times", [(0.3, 0.2), (0.01, 0.2)],
                         ids=["unsorted", "first_past"])
def test_bad_context_events_are_rejected_before_any_is_published(
        camera_spec, backend, times):
    net = backend(seed=5)
    try:
        net.spawn_device(camera_spec)
        net.observe(0.05)
        with pytest.raises(TransportError):
            net.advance_context([
                ContextEvent(t=t, lat=32.0853, lon=34.7818, day=Day.MONDAY)
                for t in times])
        assert net.feed.history == []
    finally:
        net.shutdown()


ROBUST_TEXT = """\
device: quiet1 type=server connectivity=ethernet
port: 80 service=http
robustness: ignores_malformed=yes
traffic: session_rate=0
"""


def _unanswered_request(net):
    """The reply to a malformed request that the device ignores, the
    record kinds of the exchange, and the wall time the request took."""
    try:
        net.spawn_device(load_text(load_device_spec, ROBUST_TEXT)[0])
        start = len(net.tap)
        conn = net.connect("tester", "quiet1", 80)
        began = time.monotonic()
        reply = conn.request(b"GARBAGE")
        took = time.monotonic() - began
        conn.close()
        return reply, [r.kind for r in net.tap.records[start:]
                       if r.kind not in ("background", "noise")], took
    finally:
        net.shutdown()


def test_unanswered_request_returns_at_once_on_both_backends():
    *memory, _ = _unanswered_request(MemoryNetwork(seed=5))
    assert memory == [None, ["probe", "banner", "request"]]
    *loopback, took = _unanswered_request(LoopbackNetwork(seed=5))
    assert loopback == memory
    assert took < REQUEST_TIMEOUT_S / 4


BUSY_TEXT = """\
device: busy1 type=sensor connectivity=wifi
port: 443 service=https
traffic: session_rate=6000 gap_ms=1 gap_stddev_ms=0
monitor: period_s=0.01
"""


def test_loopback_fires_due_timers_during_a_requests_transit():
    # A request's transit advances the virtual clock, so timers due by
    # then fire during it; records they emit and the request's own share
    # one seq counter.
    net = LoopbackNetwork(seed=5)
    fired = []
    try:
        net.spawn_device(load_text(load_device_spec, BUSY_TEXT)[0])
        conn = net.connect("tester", "busy1", 443)
        net.clock.schedule(0, lambda: fired.append(True))
        assert conn.request(b"CMD status")
        assert fired == [True]
        conn.close()
        net.observe(0.05)
    finally:
        net.shutdown()
    records = net.tap.records
    assert {r.kind for r in records} >= {"background", "response"}
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert net.emitted == len(records)
