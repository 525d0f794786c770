"""The scheduler device actors run on: now() and schedule(delay, cb).

VirtualClock drives both backends: every scheduled callback fires at an
exact virtual instant, ties broken by scheduling order, so a run is
reproducible to the timestamp.  now() never goes backwards.  Time moves
only when advance() is called, or while a steps() generator is iterated:
steps(step, count) yields now() count times and, after each yield,
advances by step exactly as advance(step) would, so a loop of count
evenly spaced actions (a port sweep) pays no call per step.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator


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

    def steps(self, step: float, count: int) -> Iterator[float]:
        """now(), count times; after each, advance(step) inlined."""
        if step < 0:
            raise ValueError("cannot advance backwards")
        queue = self._queue

        def stepping() -> Iterator[float]:
            for _ in range(count):
                yield self._now
                deadline = self._now + step
                while queue and queue[0][0] <= deadline:
                    when, _, callback = heapq.heappop(queue)
                    self._now = when
                    callback()
                self._now = deadline
        return stepping()
