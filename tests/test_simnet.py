"""Simulated network stack: specs, clock, payloads, context, services,
virtual transport, loopback transport."""

import collections
import dataclasses
import hashlib
import math
import random
import sys
import threading
import time

import pytest

from iotbed.errors import AnalysisError, TransportError
from iotbed.simnet.capture import write_capture
from iotbed.simnet.clock import VirtualClock
from iotbed.simnet.context import (
    ContextEvent,
    ContextFeed,
    ContextPredicate,
    Day,
    haversine_m,
    load_trajectory,
)
from iotbed.simnet.devspec import DeviceSpec, load_device_spec
from iotbed.simnet.loopnet import (FRAME_HEAD, REQUEST_TIMEOUT_S,
                                  LoopbackNetwork, _recv_frame)
from iotbed.simnet.memnet import MemoryNetwork, ProxyMutator
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


def test_negative_session_rate_rejected(tmp_path):
    # a contradiction found once the block is complete is reported at the
    # device's own line
    with pytest.raises(AnalysisError,
                       match=input_at(tmp_path, 2) + "d: session_rate"):
        load_text(load_device_spec,
                  "# fleet\ndevice: d type=server connectivity=ethernet\n"
                  "traffic: session_rate=-1\n", tmp_path)


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
    bursts = net.burst_log()
    assert len(bursts) == 1
    window = net.handle("cam1").burst_windows[0]
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
    # scan_ports passes a probe's fields positionally and kind by keyword
    net = LoopbackNetwork(seed=5)
    try:
        net.spawn_device(camera_spec, dut=True)
        net.emit("tester", 40001, "cam1", 23, 64, kind="probe", payload=b"")
        with net.lock:
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
        # one request frame in three pieces, the first cutting the header
        frame = FRAME_HEAD.pack(len(b"BANNER")) + b"BANNER"
        for piece in (frame[:2], frame[2:7], frame[7:]):
            conn.channel.sendall(piece)
            time.sleep(0.01)
        assert _recv_frame(conn.channel) == banner
        # a header declaring more than 1 MiB closes that connection only
        conn.channel.sendall(FRAME_HEAD.pack((1 << 20) + 1))
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
    assert rises[0] == rises[1]


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
    loopback = _burst_starts(LoopbackNetwork(seed=5))
    assert len(loopback) == 2
    assert loopback[0] >= 0.3 and loopback[1] >= 0.7


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


def test_loopback_records_stay_consistent_under_concurrency():
    # Clock callbacks, port handlers and several clients all emit at once;
    # a lost update under the shared lock would repeat or skip a seq.
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    net = LoopbackNetwork(seed=5)
    try:
        net.spawn_device(load_text(load_device_spec, BUSY_TEXT)[0])

        def client():
            conn = net.connect("tester", "busy1", 443)
            for _ in range(20):
                conn.request(b"CMD status")
            conn.close()

        clients = [threading.Thread(target=client) for _ in range(6)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in clients)
    finally:
        net.shutdown()
        sys.setswitchinterval(old_interval)
    records = net.tap.records
    assert {r.kind for r in records} >= {"background", "response"}
    assert [r.seq for r in records] == list(range(1, len(records) + 1))
    assert net.emitted == len(records)
