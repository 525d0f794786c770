"""Internal device telemetry: periodic CPU / memory / filesystem samples."""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..records import finite, load_lines


@dataclass(frozen=True, slots=True)
class InternalStatusSample:
    ts: float
    device_id: str
    cpu_pct: float             # 0..100
    mem_bytes: float           # non-negative
    fs_events: int             # count since the previous sample

    def __post_init__(self):
        if not 0.0 <= self.cpu_pct <= 100.0:
            raise ValueError(f"cpu_pct {self.cpu_pct} outside 0..100")
        if self.mem_bytes < 0:
            raise ValueError(f"mem_bytes {self.mem_bytes} is negative")
        if self.fs_events < 0:
            raise ValueError(f"fs_events {self.fs_events} is negative")


def synth_sample(monitor, rng: random.Random, ts: float, device_id: str,
                 bursting: bool) -> InternalStatusSample:
    """One synthetic sample; bursting adds the configured cpu/mem spikes."""
    cpu = monitor.cpu_base + abs(rng.gauss(0.0, monitor.cpu_noise))
    mem = monitor.mem_base + rng.gauss(0.0, monitor.mem_noise)
    if bursting:
        cpu += monitor.cpu_spike
        mem += monitor.mem_spike
    fs = 1 if rng.random() < 0.15 else 0
    return InternalStatusSample(
        ts=ts, device_id=device_id, cpu_pct=min(100.0, max(0.0, cpu)),
        mem_bytes=max(0.0, mem), fs_events=fs)


def write_status(samples: list[InternalStatusSample], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            fh.write(f"ts={s.ts:.6f} device={s.device_id} "
                     f"cpu_pct={s.cpu_pct:.3f} mem_bytes={s.mem_bytes:.0f} "
                     f"fs_events={s.fs_events}\n")


def _status_sample(kv: dict[str, str]) -> InternalStatusSample:
    return InternalStatusSample(
        ts=finite(kv["ts"]), device_id=kv["device"],
        cpu_pct=finite(kv["cpu_pct"]), mem_bytes=finite(kv["mem_bytes"]),
        fs_events=int(kv["fs_events"]))


def read_status(path: str) -> list[InternalStatusSample]:
    """Samples of a status file; AnalysisError with path:line if malformed."""
    return load_lines(path, _status_sample)
