"""The two schedulers device actors run on: now() and schedule(delay, cb).

VirtualClock drives the in-memory backend: every scheduled callback fires
at an exact virtual instant, ties broken by scheduling order, so a run is
reproducible to the timestamp.  now() never goes backwards.

WallClock drives the loopback backend: the same queue in real time, fired
only while the caller's thread serves the loopback selector loop.
"""

from __future__ import annotations

import heapq
import itertools
import time
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


class WallClock:
    """The same queue in wall time.  serve(timeout) runs one round of the
    loop that fires it: fire_due(), then a wait of at most timeout for I/O.
    """

    def __init__(self, serve: Callable[[float], object]):
        self._serve = serve
        self._t0 = time.monotonic()
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run callback delay seconds from now (delay >= 0)."""
        if delay < 0:
            raise ValueError("negative delay")
        heapq.heappush(self._queue,
                       (self.now() + delay, next(self._counter), callback))

    def advance(self, seconds: float) -> None:
        """Serve the loop for seconds of wall time, firing callbacks as
        they fall due."""
        deadline = self.now() + seconds
        while (left := deadline - self.now()) > 0:
            self._serve(left)
        self.fire_due()

    def fire_due(self) -> float | None:
        """Run every callback that is due; the seconds until the next one,
        or None when none is queued."""
        while self._queue:
            wait = self._queue[0][0] - self.now()
            if wait > 0:
                return wait
            heapq.heappop(self._queue)[2]()
        return None
