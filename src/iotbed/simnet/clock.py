"""The two schedulers device actors run on: now() and schedule(delay, cb).

VirtualClock drives the in-memory backend: every scheduled callback fires
at an exact virtual instant, ties broken by scheduling order, so a run is
reproducible to the timestamp.  now() never goes backwards.

WallClock drives the loopback backend: the same queue, drained in real
time by one daemon thread; advance(seconds) waits that long.
"""

from __future__ import annotations

import heapq
import itertools
import threading
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
    """Fires scheduled callbacks on one daemon thread, in wall time.

    Each callback runs while holding `lock`, the lock that guards the
    state the callbacks share with other threads.  Call shutdown() when
    done; callbacks still queued then never fire.
    """

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._t0 = time.monotonic()
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self._cond = threading.Condition()
        self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def now(self) -> float:
        return time.monotonic() - self._t0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run callback delay seconds from now (delay >= 0)."""
        if delay < 0:
            raise ValueError("negative delay")
        with self._cond:
            heapq.heappush(self._queue,
                           (self.now() + delay, next(self._counter), callback))
            self._cond.notify()

    def advance(self, seconds: float) -> None:
        """Wait seconds of wall time while callbacks fire on their thread."""
        time.sleep(seconds)

    def _run(self) -> None:
        with self._cond:
            while not self._stopped:
                wait = self._queue[0][0] - self.now() if self._queue else None
                if wait is None or wait > 0:
                    self._cond.wait(wait)
                    continue
                _, _, callback = heapq.heappop(self._queue)
                # A callback takes `lock` and may schedule more events, so
                # it must not run while this thread holds the condition.
                self._cond.release()
                try:
                    with self._lock:
                        callback()
                finally:
                    self._cond.acquire()

    def shutdown(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify()
        self._thread.join(timeout=1.0)
