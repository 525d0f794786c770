"""Append-only trace log: one JSON line per executed action, flushed on write."""

from __future__ import annotations

import json
import threading
from typing import IO

from .errors import TraceError
from .model import Action, Command, TraceEntry, make_action


def entry_to_json(entry: TraceEntry) -> str:
    record = {
        "seq": entry.seq,
        "ts": entry.ts,
        "test": entry.test_name,
        "initiator": entry.action.initiator,
        "element": entry.action.element,
        "command": entry.action.command.value,
        "params": entry.action.param_dict(),
        "outcome": entry.outcome,
        "message": entry.message,
        "artifacts": list(entry.emitted_artifacts),
    }
    return json.dumps(record, sort_keys=True)


def entry_from_json(line: str) -> TraceEntry:
    record = json.loads(line)
    action = make_action(record["initiator"], record["element"],
                         Command(record["command"]), record["params"])
    return TraceEntry(
        seq=record["seq"],
        ts=record["ts"],
        test_name=record["test"],
        action=action,
        outcome=record["outcome"],
        message=record.get("message", ""),
        emitted_artifacts=tuple(record.get("artifacts", ())),
    )


class TraceLog:
    """Per-run append-only action log.

    Writes go straight to disk (flush per entry) so a crashed run still
    leaves a complete record of everything executed before the crash.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._seq = 0
        self._closed = False
        self._fh: IO[str] = open(path, "w", encoding="utf-8")

    def append(self, ts: float, test_name: str, action: Action,
               outcome: str = "ok", message: str = "",
               artifacts: tuple[str, ...] = ()) -> TraceEntry:
        with self._lock:
            if self._closed:
                raise TraceError("trace log is closed")
            self._seq += 1
            entry = TraceEntry(
                seq=self._seq, ts=ts, test_name=test_name, action=action,
                outcome=outcome, message=message, emitted_artifacts=artifacts)
            self._fh.write(entry_to_json(entry) + "\n")
            self._fh.flush()
            return entry

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._fh.close()


def read_trace(path: str) -> list[TraceEntry]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(entry_from_json(line))
    return entries
