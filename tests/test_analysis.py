"""Windowed anomaly detection and context correlation."""

import random
import statistics

import pytest

from iotbed.analysis import (
    ATTACK,
    AnomalyEvent,
    AttackFinding,
    CHANNELS,
    NETWORK_ONLY,
    NETWORK_PLUS_STATUS,
    POSSIBLE_FALSE_ALARM,
    build_baseline,
    correlate,
    detect_anomalies,
    merge_adjacent,
    read_findings,
    window_series,
    write_findings,
    write_window_stats,
)
from iotbed.errors import AnalysisError
from iotbed.simnet.capture import CaptureRecord
from iotbed.simnet.context import ContextEvent, Day
from iotbed.simnet.status import InternalStatusSample


def rec(ts, seq=0):
    return CaptureRecord(seq=seq, ts=ts, src_addr="d", dst_addr="cloud",
                         src_port=1000, dst_port=8883, proto="tcp", ttl=64,
                         size=100, payload_entropy=7.5, payload_marker=None,
                         direction="from_dut", kind="data")


def sample(ts, cpu=10.0, mem=1e6, fs=0):
    return InternalStatusSample(ts=ts, device_id="d", cpu_pct=cpu,
                                mem_bytes=mem, fs_events=fs)


def ctx(t, lat=32.0, lon=34.0):
    return ContextEvent(t=t, lat=lat, lon=lon, day=Day.MONDAY)


# -- windowing --------------------------------------------------------------


def test_window_series_per_channel_oracle():
    capture = [rec(t) for t in (0.1, 0.2, 4.9, 5.0, 9.9, 12.0)]
    status = [sample(1.0, cpu=20.0, mem=5e6, fs=1),
              sample(2.0, cpu=50.0, mem=2e6, fs=2),
              sample(7.0, cpu=30.0, mem=9e6, fs=0)]
    series = window_series(capture, status, 5.0, 0.0, 15.0)
    assert [w["network"] for w in series] == [3, 2, 1]
    assert series[0]["cpu"] == 50 and series[1]["cpu"] == 30
    assert series[0]["memory"] == 5e6 and series[1]["memory"] == 9e6
    assert series[0]["filesystem"] == 3 and series[2]["filesystem"] == 0
    # counts start from 0.0, so windows.rec reads 3.0, never 3; maxima
    # are the samples' own floats
    assert all(type(value) is float
               for window in series for value in window.values())


def test_window_series_ignores_out_of_range():
    capture = [rec(-0.1), rec(15.0), rec(2.0)]
    series = window_series(capture, [], 5.0, 0.0, 15.0)
    assert [w["network"] for w in series] == [1, 0, 0]


# -- baseline ---------------------------------------------------------------


def test_baseline_stats_match_manual_computation():
    # 1 record per second for 30 s -> 6 windows of 5 counts... each window
    # holds 5 one-second ticks
    capture = [rec(t + 0.5, seq=t) for t in range(30)]
    baseline = build_baseline(window_series(capture, [], 5.0, 0.0, 30.0),
                              5.0)
    assert baseline.n_windows == 6
    counts = [5.0] * 6
    assert baseline.stats["network"] == (statistics.fmean(counts),
                                         statistics.pstdev(counts))
    assert baseline.stats["cpu"] == (0.0, 0.0)


def test_baseline_drops_partial_trailing_window():
    capture = [rec(t) for t in (1, 6, 11, 16, 21, 23)]
    baseline = build_baseline(window_series(capture, [], 5.0, 0.0, 24.0),
                              5.0)
    assert baseline.n_windows == 4  # [20, 24) is not a full window


def test_baseline_requires_three_full_windows():
    capture = [rec(t) for t in (0.0, 1.0, 2.0)]
    with pytest.raises(AnalysisError):
        build_baseline(window_series(capture, [], 5.0, 0.0, 14.9), 5.0)
    with pytest.raises(AnalysisError):
        build_baseline([], 5.0)
    with pytest.raises(AnalysisError):
        window_series(capture, [], 0.0, 0.0, 15.0)


# -- anomaly detection ------------------------------------------------------


def quiet_baseline():
    capture = [rec(t + 0.5) for t in range(30)]  # 5 records per window
    return build_baseline(window_series(capture, [], 5.0, 0.0, 30.0), 5.0)


def detect(capture, status, baseline, t_begin, t_end):
    """The anomalies of [t_begin, t_end) against baseline, at k = 3."""
    series = window_series(capture, status, baseline.window_s, t_begin, t_end)
    return detect_anomalies(series, t_begin, baseline, k=3.0)


def test_floor_suppresses_small_excursions():
    baseline = quiet_baseline()  # network mean 5, stddev 0, floor 10
    mild = [rec(35.0 + i * 0.01, seq=i) for i in range(14)]  # 14 <= 5+10
    assert detect(mild, [], baseline, 30.0, 50.0) == []
    spike = [rec(35.0 + i * 0.01, seq=i) for i in range(40)]
    events = detect(spike, [], baseline, 30.0, 50.0)
    assert len(events) == 1
    ev = events[0]
    assert ev.channel == "network"
    assert (ev.t_start, ev.t_end) == (35.0, 40.0)
    assert ev.magnitude == 40.0


def test_threshold_is_strictly_greater():
    baseline = quiet_baseline()
    exactly = [rec(35.0 + i * 0.01, seq=i) for i in range(15)]  # == 5+10
    assert detect(exactly, [], baseline, 30.0, 50.0) == []


def test_k_sigma_governs_when_above_floor():
    # noisy baseline: alternating 0/40 records per window -> stddev 20
    capture = []
    seq = 0
    for w in range(6):
        n = 40 if w % 2 else 0
        for i in range(n):
            seq += 1
            capture.append(rec(w * 5.0 + 0.01 * i, seq=seq))
    baseline = build_baseline(window_series(capture, [], 5.0, 0.0, 30.0),
                              5.0)
    mean, stddev = baseline.stats["network"]
    assert stddev == pytest.approx(20.0)
    # threshold = 20 + max(3*20, 10) = 80; 70 records stay quiet
    below = [rec(35.0 + 0.001 * i, seq=i) for i in range(70)]
    assert detect(below, [], baseline, 30.0, 50.0) == []
    above = [rec(35.0 + 0.001 * i, seq=i) for i in range(81)]
    assert len(detect(above, [], baseline, 30.0, 50.0)) == 1


def test_cpu_memory_channels_detect_spikes():
    status = [sample(t + 0.5, cpu=10, mem=1e6) for t in range(30)]
    baseline = build_baseline(window_series([], status, 5.0, 0.0, 30.0),
                              5.0)
    spiky = [sample(36.0, cpu=80, mem=1e6 + CHANNELS["memory"].floor + 1e6)]
    events = detect([], spiky, baseline, 30.0, 45.0)
    channels = {e.channel for e in events}
    assert channels == {"cpu", "memory"}


def test_adjacent_windows_merge():
    baseline = quiet_baseline()
    burst = [rec(35.0 + i * 0.2, seq=i) for i in range(49)]  # spans 2 windows
    events = detect(burst, [], baseline, 30.0, 50.0)
    assert len(events) == 1
    assert (events[0].t_start, events[0].t_end) == (35.0, 45.0)


def test_merge_adjacent_properties():
    a = AnomalyEvent("network", 0.0, 5.0, 10.0, "a")
    b = AnomalyEvent("network", 5.0, 10.0, 30.0, "b")
    c = AnomalyEvent("network", 20.0, 25.0, 5.0, "c")
    d = AnomalyEvent("cpu", 5.0, 10.0, 90.0, "d")
    merged = merge_adjacent([c, b, a, d])
    net = [e for e in merged if e.channel == "network"]
    assert [(e.t_start, e.t_end) for e in net] == [(0.0, 10.0), (20.0, 25.0)]
    assert net[0].magnitude == 30.0
    assert len([e for e in merged if e.channel == "cpu"]) == 1
    assert merge_adjacent(merged) == merged  # idempotent


def test_anomaly_event_validation():
    with pytest.raises(AnalysisError):
        AnomalyEvent("weird", 0.0, 1.0, 0.0, "x")
    with pytest.raises(AnalysisError):
        AnomalyEvent("cpu", 2.0, 1.0, 0.0, "x")


# -- correlation ------------------------------------------------------------


def net_anomaly(t0=35.0, t1=40.0):
    return AnomalyEvent("network", t0, t1, 40.0, "net burst")


def test_finding_location_copied_from_nearest_event():
    events = [ctx(20.0, lat=9, lon=9), ctx(37.0, lat=32.1, lon=34.9),
              ctx(60.0, lat=9, lon=9)]
    findings = correlate([net_anomaly()], events, window_s=5.0)
    f, = findings
    assert f.location == (32.1, 34.9)
    assert f.virtual_time == 37.0
    assert f.classification == POSSIBLE_FALSE_ALARM
    assert f.corroboration == NETWORK_ONLY


def test_finding_without_context_coverage_has_no_location():
    events = [ctx(300.0)]
    f, = correlate([net_anomaly()], events, window_s=5.0)
    assert f.location is None
    assert "location unknown" in f.note
    assert correlate([net_anomaly()], [], window_s=5.0)[0].location is None


def test_context_slack_is_half_span_plus_one_window():
    # midpoint 37.5, half-span 2.5, slack 5 -> events within 7.5 s qualify
    inside = [ctx(45.0, lat=1, lon=1)]
    assert correlate([net_anomaly()], inside, 5.0)[0].location == (1, 1)
    outside = [ctx(45.1, lat=1, lon=1)]
    assert correlate([net_anomaly()], outside, 5.0)[0].location is None


def test_status_overlap_upgrades_to_attack():
    cpu = AnomalyEvent("cpu", 40.0, 45.0, 90.0, "cpu spike")
    events = [ctx(37.0, lat=5, lon=6)]
    f, = correlate([net_anomaly(), cpu], events, window_s=5.0)
    assert f.classification == ATTACK
    assert f.corroboration == NETWORK_PLUS_STATUS
    assert (40.0, 45.0) in f.windows


def test_status_outside_slack_does_not_corroborate():
    cpu = AnomalyEvent("cpu", 50.0, 55.0, 90.0, "late spike")
    f, = correlate([net_anomaly(35.0, 40.0), cpu], [ctx(37.0)], window_s=5.0)
    assert f.classification == POSSIBLE_FALSE_ALARM


def test_attack_finding_invariant():
    # ValueError, so a reader reports a contradicting finding at its line
    with pytest.raises(ValueError):
        AttackFinding(((0.0, 5.0),), None, 2.5, NETWORK_ONLY, ATTACK)
    with pytest.raises(ValueError):
        AttackFinding(((0.0, 5.0),), None, 2.5, NETWORK_PLUS_STATUS,
                      POSSIBLE_FALSE_ALARM)


def test_forensic_pass_end_to_end():
    rng = random.Random(4)
    capture = [rec(t + rng.random(), seq=t) for t in range(30)]
    status = [sample(t + 0.5) for t in range(30)]
    baseline = build_baseline(
        window_series(capture, status, 5.0, 0.0, 30.0), 5.0)
    attack_net = [rec(62.0 + i * 0.01, seq=1000 + i) for i in range(60)]
    attack_cpu = [sample(63.0, cpu=95.0)]
    events = [ctx(t, lat=32.0853, lon=34.7818) for t in range(55, 80, 5)]
    anomalies = detect(capture + attack_net, status + attack_cpu, baseline,
                       60.0, 75.0)
    assert any(a.channel == "network" for a in anomalies)
    f, = correlate(anomalies, events, baseline.window_s)
    assert f.classification == ATTACK
    assert f.location == (32.0853, 34.7818)


# -- artifacts --------------------------------------------------------------


def test_findings_file_round_trip(tmp_path):
    findings = [
        AttackFinding(((35.0, 40.0), (40.0, 45.0)), (32.0853, 34.7818),
                      37.0, NETWORK_PLUS_STATUS, ATTACK, note="burst"),
        AttackFinding(((90.0, 95.0),), None, 92.5, NETWORK_ONLY,
                      POSSIBLE_FALSE_ALARM, note="no context"),
    ]
    path = str(tmp_path / "findings.rec")
    write_findings(findings, path)
    assert read_findings(path) == findings
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("classification=attack",
                              "classification=possible_false_alarm"))
    with pytest.raises(AnalysisError,
                       match=r"findings\.rec:2: classification must be"):
        read_findings(path)


def test_window_stats_file(tmp_path):
    series = window_series([rec(1.0), rec(6.0)], [sample(2.0, cpu=42)],
                           5.0, 0.0, 10.0)
    path = str(tmp_path / "windows.rec")
    write_window_stats(series, 0.0, 5.0, path)
    with open(path) as fh:
        text = fh.read()
    assert "windows=2" in text
    assert "window.0.network=1.0" in text
    assert "window.0.cpu=42" in text
