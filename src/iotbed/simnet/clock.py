"""The scheduler device actors run on: now() and schedule(delay, cb).

VirtualClock drives both backends: every scheduled callback fires at an
exact virtual instant, ties broken by scheduling order, so a run is
reproducible to the timestamp.  now() never goes backwards.  Time moves
only when advance() is called.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable


class VirtualClock:
    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def now(self) -> float:
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run callback delay seconds from now (delay >= 0)."""
        if delay < 0:
            raise ValueError("negative delay")
        heapq.heappush(self._queue,
                       (self._now + delay, next(self._counter), callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        if when < self._now:
            raise ValueError("cannot schedule in the past")
        heapq.heappush(self._queue, (when, next(self._counter), callback))

    def advance(self, seconds: float) -> None:
        """Advance virtual time, firing every event due on the way."""
        if seconds < 0:
            raise ValueError("cannot advance backwards")
        deadline = self._now + seconds
        while self._queue and self._queue[0][0] <= deadline:
            when, _, callback = heapq.heappop(self._queue)
            self._now = when
            callback()
        self._now = deadline

