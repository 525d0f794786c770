"""Traffic capture: the tap every transport record passes through.

A CaptureRecord is one observed packet-level event.  It keeps the payload's
size, entropy and GPS marker, computed when it is built, not its bytes;
an empty payload (a scan probe) gets entropy 0.0 and no marker without
either being computed.  Records are slotted, as a run holds tens of
thousands.  The on-disk capture file stores one record per line with the
exported field names (ts, src_addr, dst_addr, src_port, dst_port, proto,
ttl, size, payload_entropy, payload_marker, direction) plus seq and kind
for bookkeeping.  A size must be below 2**53, the largest integer a float
holds exactly, so that a session's size sum and mean stay finite.

read_capture matches each line in write_capture's layout with one regex,
whose groups are the line's values in CAPTURE_FIELDS order; a line in any
other order or spacing, or with no kind, is split token by token instead
and its values put in that order.  Both go through one positional
conversion, which builds the record positionally too.

The transport counts every record it emits; comparing that counter with
the tap length is the capture-completeness invariant the tests lean on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..records import Source, finite, integer, pairs
from .payload import find_gps_marker, shannon_entropy


@dataclass(slots=True)
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

    @classmethod
    def build(cls, seq: int, ts: float, src_addr: str, src_port: int,
              dst_addr: str, dst_port: int, ttl: int, kind: str,
              direction: str, payload: bytes = b"",
              proto: str = "tcp") -> "CaptureRecord":
        if payload:
            entropy = shannon_entropy(payload)
            marker = find_gps_marker(payload)
        else:
            entropy, marker = 0.0, None
        # positional, in field order: a port sweep builds tens of thousands
        return cls(seq, ts, src_addr, dst_addr, src_port, dst_port, proto,
                   ttl, len(payload), entropy, marker, direction, kind)


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


# The fields of a capture line in the order write_capture writes them.
CAPTURE_FIELDS = ("seq", "ts", "src_addr", "dst_addr", "src_port", "dst_port",
                  "proto", "ttl", "size", "payload_entropy", "payload_marker",
                  "direction", "kind")
CAPTURE_LAYOUT = re.compile(" ".join(f"{name}=(?P<{name}>\\S*)"
                                     for name in CAPTURE_FIELDS) + "\n?")


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


def _capture_record(fields: tuple[str, ...]) -> CaptureRecord:
    """The record of a line's values, given in CAPTURE_FIELDS order."""
    (seq, ts, src_addr, dst_addr, src_port, dst_port, proto, ttl, size_text,
     entropy, marker, direction, kind) = fields
    size = int(size_text)
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size >= 2 ** 53:
        raise ValueError(f"{len(size_text)}-digit size is not below 2**53")
    return CaptureRecord(int(seq), finite(ts), src_addr, dst_addr,
                         int(src_port), int(dst_port), proto, integer(ttl),
                         size, finite(entropy),
                         None if marker == "-" else marker, direction, kind)


def _token_fields(text: str) -> tuple[str, ...]:
    """The values of a line in any token order, in CAPTURE_FIELDS order;
    kind may be left out.  payload_marker and size are looked up first, so
    a line cut short reports one of them missing."""
    kv = pairs(text)
    marker, size = kv["payload_marker"], kv["size"]
    return (kv["seq"], kv["ts"], kv["src_addr"], kv["dst_addr"],
            kv["src_port"], kv["dst_port"], kv["proto"], kv["ttl"], size,
            kv["payload_entropy"], marker, kv["direction"], kv.get("kind", ""))


def read_capture(path: str) -> list[CaptureRecord]:
    """Records of a capture file; AnalysisError with path:line if malformed."""
    source = Source(path)
    match = CAPTURE_LAYOUT.fullmatch
    with source.parsing():
        return [_capture_record(m.groups() if (m := match(text))
                                else _token_fields(text))
                for text in source]
