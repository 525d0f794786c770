"""Traffic capture: the tap every transport record passes through.

A CaptureRecord is one observed packet-level event.  Payload bytes are kept
in memory for the checks that need them; the on-disk capture file stores
one record per line with the exported field names (ts, src_addr, dst_addr,
src_port, dst_port, proto, ttl, size, payload_entropy, payload_marker,
direction) plus seq and kind for bookkeeping.

The transport counts every record it emits; comparing that counter with
the tap length is the capture-completeness invariant the tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..records import load_lines
from .payload import find_gps_marker, shannon_entropy


@dataclass
class CaptureRecord:
    seq: int
    ts: float
    src_addr: str
    dst_addr: str
    src_port: int
    dst_port: int
    proto: str                 # tcp | udp
    ttl: int
    size: int
    payload_entropy: float     # bits/byte, 0..8
    payload_marker: str | None
    direction: str             # to_dut | from_dut | lateral
    kind: str = ""             # probe | banner | request | response | ...
    payload: bytes | None = None

    @classmethod
    def build(cls, seq: int, ts: float, src_addr: str, src_port: int,
              dst_addr: str, dst_port: int, ttl: int, kind: str,
              direction: str, payload: bytes = b"",
              proto: str = "tcp") -> "CaptureRecord":
        return cls(seq=seq, ts=ts, src_addr=src_addr, dst_addr=dst_addr,
                   src_port=src_port, dst_port=dst_port, proto=proto, ttl=ttl,
                   size=len(payload), payload_entropy=shannon_entropy(payload),
                   payload_marker=find_gps_marker(payload),
                   direction=direction, kind=kind, payload=payload)


def classify_direction(src: str, dst: str, dut_ids: set[str]) -> str:
    src_in = src in dut_ids
    dst_in = dst in dut_ids
    if src_in and dst_in:
        return "lateral"
    if dst_in:
        return "to_dut"
    if src_in:
        return "from_dut"
    return "lateral"


class CaptureTap:
    """Append-only record sink shared by every transport backend."""

    def __init__(self):
        self._records: list[CaptureRecord] = []

    def add(self, record: CaptureRecord) -> None:
        self._records.append(record)

    @property
    def records(self) -> list[CaptureRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def since(self, index: int) -> list[CaptureRecord]:
        return self._records[index:]

    def between(self, t0: float, t1: float) -> list[CaptureRecord]:
        """Records with t0 <= ts < t1."""
        return [r for r in self._records if t0 <= r.ts < t1]


def write_capture(records: list[CaptureRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            marker = r.payload_marker if r.payload_marker else "-"
            fh.write(
                f"seq={r.seq} ts={r.ts:.6f} src_addr={r.src_addr} "
                f"dst_addr={r.dst_addr} src_port={r.src_port} "
                f"dst_port={r.dst_port} proto={r.proto} ttl={r.ttl} "
                f"size={r.size} payload_entropy={r.payload_entropy:.4f} "
                f"payload_marker={marker} direction={r.direction} "
                f"kind={r.kind}\n")


def _capture_record(kv: dict[str, str]) -> CaptureRecord:
    marker = kv["payload_marker"]
    return CaptureRecord(
        seq=int(kv["seq"]), ts=float(kv["ts"]), src_addr=kv["src_addr"],
        dst_addr=kv["dst_addr"], src_port=int(kv["src_port"]),
        dst_port=int(kv["dst_port"]), proto=kv["proto"], ttl=int(kv["ttl"]),
        size=int(kv["size"]), payload_entropy=float(kv["payload_entropy"]),
        payload_marker=None if marker == "-" else marker,
        direction=kv["direction"], kind=kv.get("kind", ""), payload=None)


def read_capture(path: str) -> list[CaptureRecord]:
    """Records of a capture file; AnalysisError with path:line if malformed."""
    return load_lines(path, _capture_record)
