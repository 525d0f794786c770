"""Forensic analysis: baselines, anomaly detection, context correlation.

CHANNELS is the detector: one row per channel gives its source (capture
records or status samples), what one record or sample adds to its window,
how two such values merge (add or max, from 0.0), its floor, and whether
it corroborates an attack.  window_series folds every record and sample
into its window through those rules; it alone decides the grid of full,
non-overlapping windows between two instants.  build_baseline takes the
per-channel mean and stddev of one series (at least 3 windows);
detect_anomalies marks a window of another series anomalous on a channel
when its statistic exceeds mean + max(k * stddev, floor), and merges
adjacent anomalous windows into a single event.  correlate turns the
anomalies of capture channels into findings, located in space and time
through the context log, and classified attack only when an anomaly of a
corroborating channel backs them up.

Everything here is a pure function over immutable captured data.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, attrgetter
from statistics import fmean
from typing import Callable

from .errors import AnalysisError
from .profiler.features import pstdev
from .records import dumps, finite, load

CAPTURE, STATUS = "capture", "status"       # a channel's source


@dataclass(frozen=True)
class Channel:
    source: str                             # CAPTURE or STATUS
    value: Callable                         # what one record or sample adds
    merge: Callable[[float, float], float]  # add or max, from 0.0
    floor: float          # keeps near-zero-stddev baselines quiet on noise
    corroborates: bool    # its anomalies make a network finding an attack


CHANNELS = {
    "network": Channel(CAPTURE, lambda rec: 1, add, 10.0, False),
    "cpu": Channel(STATUS, attrgetter("cpu_pct"), max, 5.0, True),
    "memory": Channel(STATUS, attrgetter("mem_bytes"), max, 4e6, True),
    "filesystem": Channel(STATUS, attrgetter("fs_events"), add, 5.0, False),
}

DEFAULT_WINDOW_S = 5.0
DEFAULT_K = 3.0

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
                  t_begin: float, t_end: float) -> list[dict[str, float]]:
    """One stat per channel for each full window of window_s from t_begin
    to t_end; a partial trailing window is dropped."""
    if window_s <= 0:
        raise AnalysisError("window_s must be positive")
    n_windows = int((t_end - t_begin) // window_s)
    out = [dict.fromkeys(CHANNELS, 0.0) for _ in range(n_windows)]
    for source, items in ((CAPTURE, capture), (STATUS, status_series)):
        rows = [(name, c.value, c.merge) for name, c in CHANNELS.items()
                if c.source == source]
        for item in items:
            i = int((item.ts - t_begin) // window_s)
            if 0 <= i < n_windows:
                for name, value, merge in rows:
                    out[i][name] = merge(out[i][name], value(item))
    return out


def build_baseline(series: list[dict[str, float]],
                   window_s: float) -> BaselineModel:
    """Per-channel (mean, stddev) over the windows of a window_series."""
    if len(series) < 3:
        raise AnalysisError(
            f"baseline needs at least 3 full windows, got {len(series)}")
    stats = {}
    for channel in CHANNELS:
        values = [w[channel] for w in series]
        stats[channel] = (fmean(values), pstdev(values))
    return BaselineModel(window_s, stats, len(series))


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


def detect_anomalies(series: list[dict[str, float]], t_begin: float,
                     baseline: BaselineModel,
                     k: float = DEFAULT_K) -> list[AnomalyEvent]:
    """The windows of a window_series from t_begin that exceed the
    baseline, merged per channel."""
    if k <= 0:
        raise AnalysisError("k must be positive")
    w = baseline.window_s
    events = []
    for channel, spec in CHANNELS.items():
        mean, stddev = baseline.stats[channel]
        threshold = mean + max(k * stddev, spec.floor)
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
    """Turn every capture-channel anomaly into a located, classified finding.

    Locations are only ever copied from context_log entries, never
    interpolated.  An anomaly of a corroborating channel overlapping the
    network window (with one window of slack either side) upgrades the
    finding to a corroborated attack.
    """
    events = sorted(context_log, key=lambda e: e.t)
    status = [a for a in anomalies if CHANNELS[a.channel].corroborates]
    findings = []
    for anomaly in anomalies:
        if CHANNELS[anomaly.channel].source != CAPTURE:
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
            location, t = None, midpoint
            note = "no context coverage for this window; location unknown"
        else:
            location, t = (nearest.lat, nearest.lon), nearest.t
            note = anomaly.description
        findings.append(AttackFinding(
            windows, location, t, corroboration,
            ATTACK if overlapping else POSSIBLE_FALSE_ALARM, note=note))
    return findings


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
