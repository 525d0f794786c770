"""Context feed: device location and virtual time.

The feed replays a trajectory script and publishes ContextEvent updates to
subscribers (the compromised-device trigger watches it this way).  A
ContextPredicate matches an event against a geographic circle and/or a
window on the virtual clock; every clause present must hold.

Trajectory script format, one sample per line::

    # t_seconds  latitude  longitude
    0    32.0853  34.7818
    60   32.0861  34.7839

A malformed script raises AnalysisError("<path>:<line>: ...").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from ..records import Source, finite

EARTH_RADIUS_M = 6371000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class ContextEvent:
    t: float                       # virtual-clock instant
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class ContextPredicate:
    """Geo-circle and/or virtual-time window; needs at least one clause."""

    center_lat: float | None = None
    center_lon: float | None = None
    radius_m: float | None = None
    window_start: float | None = None   # virtual clock, inclusive
    window_end: float | None = None     # virtual clock, inclusive

    def __post_init__(self):
        has_circle = self.radius_m is not None
        has_window = self.window_start is not None or self.window_end is not None
        if not has_circle and not has_window:
            raise ValueError("predicate needs a circle or a time window")
        if has_circle:
            if self.center_lat is None or self.center_lon is None:
                raise ValueError("radius given without a center")
            if self.radius_m <= 0:
                raise ValueError("radius must be positive")

    def matches(self, event: ContextEvent) -> bool:
        if self.radius_m is not None:
            dist = haversine_m(self.center_lat, self.center_lon,
                               event.lat, event.lon)
            if dist > self.radius_m:
                return False
        if self.window_start is not None and event.t < self.window_start:
            return False
        if self.window_end is not None and event.t > self.window_end:
            return False
        return True


def load_trajectory(path: str) -> list[ContextEvent]:
    """The time-ordered ContextEvents of the trajectory script at path."""
    samples: list[ContextEvent] = []
    source = Source(path)
    with source.parsing():
        for text in source:
            fields = text.split("#", 1)[0].split()
            if len(fields) != 3:
                raise ValueError("expected: t lat lon")
            t, lat, lon = map(finite, fields)
            if samples and t <= samples[-1].t:
                raise ValueError("trajectory times must strictly increase")
            samples.append(ContextEvent(t=t, lat=lat, lon=lon))
        if not samples:
            raise ValueError("trajectory script is empty")
    return samples


class ContextFeed:
    """Publishes location/time context; keeps a history for later lookup."""

    def __init__(self):
        self._history: list[ContextEvent] = []
        self._subscribers: list[Callable[[ContextEvent], None]] = []

    @property
    def history(self) -> list[ContextEvent]:
        return list(self._history)

    def subscribe(self, callback: Callable[[ContextEvent], None]) -> None:
        self._subscribers.append(callback)

    def publish(self, event: ContextEvent) -> None:
        self._history.append(event)
        for callback in self._subscribers:
            callback(event)
