"""Forensic analysis: baselines, anomaly detection, context correlation.

Capture records and internal-status samples are folded into non-overlapping
windows of virtual time; each channel reduces a window to one statistic
(network: record count, cpu: max cpu_pct, memory: max mem_bytes,
filesystem: event count).  A window is anomalous on a channel when its
statistic exceeds mean + max(k * stddev, floor) of the baseline; adjacent
anomalous windows merge into a single event.  Network anomalies then become
findings, located in space and time through the context log, and classified
attack only when an internal-status anomaly corroborates them.

Everything here is a pure function over immutable captured data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean

from .errors import AnalysisError
from .profiler.features import pstdev
from .records import dumps, finite, load

CHANNELS = ("network", "cpu", "memory", "filesystem")

DEFAULT_WINDOW_S = 5.0
DEFAULT_K = 3.0

# Absolute floors keep near-zero-stddev baselines from flagging noise.
DEFAULT_FLOORS = {
    "network": 10.0,      # records per window
    "cpu": 5.0,           # cpu_pct
    "memory": 4e6,        # bytes
    "filesystem": 5.0,    # events per window
}

NETWORK_ONLY = "network_only"
NETWORK_PLUS_STATUS = "network_plus_status"
ATTACK = "attack"
POSSIBLE_FALSE_ALARM = "possible_false_alarm"


@dataclass(frozen=True)
class AnomalyEvent:
    channel: str
    t_start: float
    t_end: float
    magnitude: float
    description: str

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise AnalysisError(f"unknown channel {self.channel!r}")
        if self.t_start > self.t_end:
            raise AnalysisError("anomaly window reversed")


@dataclass(frozen=True)
class AttackFinding:
    windows: tuple[tuple[float, float], ...]
    location: tuple[float, float] | None
    virtual_time: float
    corroboration: str
    classification: str
    note: str = ""

    def __post_init__(self):
        corroborated = self.corroboration == NETWORK_PLUS_STATUS
        if (self.classification == ATTACK) != corroborated:
            raise ValueError(
                "classification must be attack iff corroborated by status")


@dataclass(frozen=True)
class BaselineModel:
    window_s: float
    stats: dict[str, tuple[float, float]]    # channel -> (mean, stddev)
    n_windows: int


def window_series(capture, status_series, window_s: float,
                  t_begin: float, n_windows: int) -> list[dict[str, float]]:
    """Reduce both data sources to one stat per channel per window."""
    out = [{c: 0.0 for c in CHANNELS} for _ in range(n_windows)]
    cpu: list[list[float]] = [[] for _ in range(n_windows)]
    mem: list[list[float]] = [[] for _ in range(n_windows)]

    def index(ts: float) -> int | None:
        i = int((ts - t_begin) // window_s)
        return i if 0 <= i < n_windows else None

    for rec in capture:
        i = index(rec.ts)
        if i is not None:
            out[i]["network"] += 1
    for sample in status_series:
        i = index(sample.ts)
        if i is None:
            continue
        cpu[i].append(sample.cpu_pct)
        mem[i].append(sample.mem_bytes)
        out[i]["filesystem"] += sample.fs_events
    for i in range(n_windows):
        out[i]["cpu"] = max(cpu[i]) if cpu[i] else 0.0
        out[i]["memory"] = max(mem[i]) if mem[i] else 0.0
    return out


def _span(capture, status_series) -> tuple[float, float]:
    times = [r.ts for r in capture] + [s.ts for s in status_series]
    if not times:
        raise AnalysisError("no data to analyze")
    return min(times), max(times)


def build_baseline(capture, status_series,
                   window_s: float = DEFAULT_WINDOW_S,
                   t_begin: float | None = None,
                   t_end: float | None = None) -> BaselineModel:
    """Per-channel (mean, stddev) over full non-overlapping windows."""
    if window_s <= 0:
        raise AnalysisError("window_s must be positive")
    if t_begin is None or t_end is None:
        lo, hi = _span(capture, status_series)
        t_begin = lo if t_begin is None else t_begin
        t_end = hi if t_end is None else t_end
    n = int((t_end - t_begin) // window_s)
    if n < 3:
        raise AnalysisError(
            f"baseline needs at least 3 full windows, got {n}")
    series = window_series(capture, status_series, window_s, t_begin, n)
    stats = {}
    for channel in CHANNELS:
        values = [w[channel] for w in series]
        stats[channel] = (fmean(values), pstdev(values))
    return BaselineModel(window_s, stats, n)


def merge_adjacent(events: list[AnomalyEvent]) -> list[AnomalyEvent]:
    """Merge same-channel events whose windows touch or overlap.

    Idempotent: merging an already-merged list returns it unchanged.
    """
    merged: list[AnomalyEvent] = []
    for ev in sorted(events, key=lambda e: (e.channel, e.t_start, e.t_end)):
        if (merged and merged[-1].channel == ev.channel
                and ev.t_start <= merged[-1].t_end + 1e-9):
            prev = merged[-1]
            merged[-1] = AnomalyEvent(
                prev.channel, prev.t_start, max(prev.t_end, ev.t_end),
                max(prev.magnitude, ev.magnitude), prev.description)
        else:
            merged.append(ev)
    return merged


def detect_anomalies(capture, status_series, baseline: BaselineModel,
                     k: float = DEFAULT_K,
                     t_begin: float | None = None,
                     t_end: float | None = None,
                     floors: dict[str, float] | None = None
                     ) -> list[AnomalyEvent]:
    if k <= 0:
        raise AnalysisError("k must be positive")
    floors = {**DEFAULT_FLOORS, **(floors or {})}
    if t_begin is None or t_end is None:
        lo, hi = _span(capture, status_series)
        t_begin = lo if t_begin is None else t_begin
        t_end = hi if t_end is None else t_end
    w = baseline.window_s
    n = int((t_end - t_begin) // w)
    if n == 0:
        return []
    series = window_series(capture, status_series, w, t_begin, n)
    events = []
    for channel in CHANNELS:
        mean, stddev = baseline.stats[channel]
        threshold = mean + max(k * stddev, floors[channel])
        for i, window in enumerate(series):
            value = window[channel]
            if value > threshold:
                t0 = t_begin + i * w
                events.append(AnomalyEvent(
                    channel, t0, t0 + w, value,
                    f"{channel} {value:.1f} > threshold {threshold:.1f} "
                    f"(baseline {mean:.1f} +/- {stddev:.1f}, k={k:g})"))
    return merge_adjacent(events)


def correlate(anomalies: list[AnomalyEvent], context_log,
              window_s: float = DEFAULT_WINDOW_S) -> list[AttackFinding]:
    """Turn every network anomaly into a located, classified finding.

    Locations are only ever copied from context_log entries, never
    interpolated.  A cpu or memory anomaly overlapping the network window
    (with one window of slack either side) upgrades the finding to a
    corroborated attack.
    """
    events = sorted(context_log, key=lambda e: e.t)
    status = [a for a in anomalies if a.channel in ("cpu", "memory")]
    findings = []
    for anomaly in anomalies:
        if anomaly.channel != "network":
            continue
        midpoint = (anomaly.t_start + anomaly.t_end) / 2.0
        nearest = min(events, key=lambda e: (abs(e.t - midpoint), e.t)) \
            if events else None
        gap = nearest is None or abs(nearest.t - midpoint) > \
            (anomaly.t_end - anomaly.t_start) / 2.0 + window_s
        lo = anomaly.t_start - window_s
        hi = anomaly.t_end + window_s
        overlapping = [s for s in status
                       if s.t_start <= hi and s.t_end >= lo]
        corroboration = NETWORK_PLUS_STATUS if overlapping else NETWORK_ONLY
        windows = ((anomaly.t_start, anomaly.t_end),) + tuple(
            (s.t_start, s.t_end) for s in overlapping)
        if gap:
            findings.append(AttackFinding(
                windows, None, midpoint, corroboration,
                ATTACK if overlapping else POSSIBLE_FALSE_ALARM,
                note="no context coverage for this window; location unknown"))
        else:
            findings.append(AttackFinding(
                windows, (nearest.lat, nearest.lon), nearest.t,
                corroboration,
                ATTACK if overlapping else POSSIBLE_FALSE_ALARM,
                note=anomaly.description))
    return findings


def analyze_run(capture, status_series, context_log,
                baseline: BaselineModel,
                k: float = DEFAULT_K,
                t_begin: float | None = None,
                t_end: float | None = None,
                floors: dict[str, float] | None = None
                ) -> tuple[list[AnomalyEvent], list[AttackFinding]]:
    anomalies = detect_anomalies(capture, status_series, baseline, k,
                                 t_begin, t_end, floors)
    return anomalies, correlate(anomalies, context_log, baseline.window_s)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def write_findings(findings: list[AttackFinding], path: str) -> None:
    pairs = [("findings", len(findings))]
    for i, f in enumerate(findings):
        p = f"finding.{i}"
        location = "-" if f.location is None else \
            f"{f.location[0]!r},{f.location[1]!r}"
        pairs += [(f"{p}.classification", f.classification),
                  (f"{p}.corroboration", f.corroboration),
                  (f"{p}.time", repr(f.virtual_time)),
                  (f"{p}.location", location),
                  (f"{p}.windows",
                   ";".join(f"{a!r}:{b!r}" for a, b in f.windows)),
                  (f"{p}.note", f.note)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(pairs))


def _float_pair(text: str, sep: str) -> tuple[float, float]:
    a, b = text.split(sep)
    return finite(a), finite(b)


def _findings(fields) -> list[AttackFinding]:
    findings = []
    for i in range(int(fields["findings"])):
        p = f"finding.{i}"
        loc_text = fields[f"{p}.location"]
        location = None if loc_text == "-" else _float_pair(loc_text, ",")
        windows = tuple(_float_pair(part, ":")
                        for part in fields[f"{p}.windows"].split(";") if part)
        note = fields[f"{p}.note"]
        # classification is looked up last, so a finding contradicting its
        # corroboration is reported at its classification line
        findings.append(AttackFinding(
            windows, location, finite(fields[f"{p}.time"]),
            fields[f"{p}.corroboration"], fields[f"{p}.classification"], note))
    return findings


def read_findings(path: str) -> list[AttackFinding]:
    """Findings of findings.rec; AnalysisError with path:line if malformed."""
    return load(path, _findings)


def write_window_stats(series: list[dict[str, float]], t_begin: float,
                       window_s: float, path: str) -> None:
    """Window-by-window statistics for manual exploration of a run."""
    pairs = [("windows", len(series)), ("window_s", repr(window_s)),
             ("t_begin", repr(t_begin))]
    for i, window in enumerate(series):
        pairs += [(f"window.{i}.{channel}", repr(window[channel]))
                  for channel in CHANNELS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(pairs))
