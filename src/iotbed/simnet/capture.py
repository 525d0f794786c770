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

write_capture formats only seq, ts and dst_port on every line.  The text
before dst_port (the addresses and src_port) and the text after it (proto
to kind) are reused from the previous line while their fields are the very
same objects as the previous record's; a port sweep shares them across
tens of thousands of records.  Identity, not equality, decides: 0.0 ==
-0.0 and 64 == 64.0, yet each pair is written differently, and a miss only
formats the fragment again.  Lines go out in blocks of a fixed size.

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
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

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
        # positional, in field order: a run builds tens of thousands
        return cls(seq, ts, src_addr, dst_addr, src_port, dst_port, proto,
                   ttl, len(payload), entropy, marker, direction, kind)


_ts = attrgetter("ts")


class CaptureTap:
    """Append-only record sink shared by every transport backend."""

    def __init__(self):
        self._records: list[CaptureRecord] = []
        # the list's own append: a record enters with no Python frame
        self.add = self._records.append

    @property
    def records(self) -> list[CaptureRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def since(self, index: int) -> list[CaptureRecord]:
        return self._records[index:]

    def between(self, t0: float, t1: float) -> list[CaptureRecord]:
        """Records with t0 <= ts < t1.  The tap is in non-decreasing ts
        order, as each record is stamped with the clock's now() as it is
        appended, so both ends are found by bisection."""
        records = self._records
        return records[bisect_left(records, t0, key=_ts):
                       bisect_left(records, t1, key=_ts)]


# The fields of a capture line in the order write_capture writes them.
CAPTURE_FIELDS = ("seq", "ts", "src_addr", "dst_addr", "src_port", "dst_port",
                  "proto", "ttl", "size", "payload_entropy", "payload_marker",
                  "direction", "kind")
CAPTURE_LAYOUT = re.compile(" ".join(f"{name}=(?P<{name}>\\S*)"
                                     for name in CAPTURE_FIELDS) + "\n?")
# write_capture joins this many lines, about 100 KiB, into one write: a
# larger block saves little time and shows in a run's peak memory
_BLOCK_LINES = 512
_UNSET = object()           # no field is this object: the first line formats


def write_capture(records: list[CaptureRecord], path: str) -> None:
    # Per line only seq, ts and dst_port are formatted; the text around
    # dst_port is reused while its fields are the previous record's objects.
    src_addr = dst_addr = src_port = _UNSET
    proto = ttl = size = entropy = marker = direction = kind = _UNSET
    head = tail = ""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(records), _BLOCK_LINES):
            block = []
            add = block.append
            for r in records[start:start + _BLOCK_LINES]:
                if (r.src_addr is not src_addr or r.dst_addr is not dst_addr
                        or r.src_port is not src_port):
                    src_addr, dst_addr = r.src_addr, r.dst_addr
                    src_port = r.src_port
                    head = (f" src_addr={src_addr} dst_addr={dst_addr} "
                            f"src_port={src_port} dst_port=")
                if (r.proto is not proto or r.ttl is not ttl
                        or r.size is not size
                        or r.payload_entropy is not entropy
                        or r.payload_marker is not marker
                        or r.direction is not direction or r.kind is not kind):
                    proto, ttl, size = r.proto, r.ttl, r.size
                    entropy, marker = r.payload_entropy, r.payload_marker
                    direction, kind = r.direction, r.kind
                    tail = (f" proto={proto} ttl={ttl} size={size} "
                            f"payload_entropy={entropy:.4f} "
                            f"payload_marker={marker if marker else '-'} "
                            f"direction={direction} kind={kind}\n")
                add(f"seq={r.seq} ts={r.ts:.6f}{head}{r.dst_port}{tail}")
            fh.write("".join(block))


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
