"""Session feature extraction from capture records.

Records are grouped into sessions by their bidirectional 5-tuple with a gap
timeout.  A session is kept only as its key, its label and one fixed
10-dimensional summary of its packets:

    0 pkt_size mean        5 inter_arrival_ms stddev
    1 pkt_size stddev      6 modal ttl (ties -> smallest)
    2 pkt_size min         7 packet count
    3 pkt_size max         8 byte count
    4 inter_arrival_ms mean   9 direction ratio (src == first packet's src)

Statistics use the population stddev and include the first packet's zero
inter-arrival, so a one-packet session is well defined.  The stddev is
computed exactly in integers and rounded once, so it is the correctly
rounded value and the same on CPython 3.10 to 3.13 (statistics.pstdev
rounds twice on 3.10).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from math import isqrt
from operator import attrgetter
from statistics import fmean

SUMMARY_LENGTH = 10
SESSION_GAP_S = 30.0

SUMMARY_NAMES = (
    "size_mean", "size_stddev", "size_min", "size_max",
    "gap_mean_ms", "gap_stddev_ms", "modal_ttl",
    "packet_count", "byte_count", "direction_ratio",
)


def pstdev(values) -> float:
    """Population standard deviation of ints and floats, correctly rounded.

    Each value is an integer over a power of two, so over the largest such
    denominator d the n values are exact integers x, and so are their sums.
    The variance (n*sum(x*x) - sum(x)**2) / (n*d)**2 gets an integer square
    root of at least 54 bits, rounded to odd (its last bit set if inexact),
    which then rounds once to the nearest float: the rule of CPython 3.11+
    statistics (bpo-45876), so every interpreter gives the same result.
    """
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    xs = [num * (d // den) for num, den in ratios]
    n = len(xs)
    total = sum(xs)
    num = n * sum(x * x for x in xs) - total * total
    den = (n * d) ** 2
    # scale num / den by 4**-q to 2*53 + 3 bits or more, then back by 2**q
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    root |= root * root * den != num
    return root * 2.0 ** q if q >= 0 else root / (1 << -q)


@dataclass(frozen=True)
class SequenceInstance:
    """One observed session: its key, its fixed summary and its label."""

    session_key: tuple[str, str, int, int, str]   # src, dst, sport, dport, proto
    summary: tuple[float, ...]
    label: str | None = None

    def __post_init__(self):
        if len(self.summary) != SUMMARY_LENGTH:
            raise ValueError(f"summary must have {SUMMARY_LENGTH} entries")


def summarize(packets) -> tuple[float, ...]:
    """The summary of one session's records, given in (ts, seq) order."""
    first = packets[0]
    sizes = [rec.size for rec in packets]
    gaps = [0.0] + [(b.ts - a.ts) * 1000.0 for a, b in pairwise(packets)]
    ttls = Counter(rec.ttl for rec in packets)
    modal_ttl = max(ttls.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    ratio = sum(1 for rec in packets
                if rec.src_addr == first.src_addr) / len(packets)
    return (
        fmean(sizes), pstdev(sizes), float(min(sizes)), float(max(sizes)),
        fmean(gaps), pstdev(gaps), float(modal_ttl),
        float(len(packets)), float(sum(sizes)), ratio,
    )


def extract_features(capture, gap_timeout_s: float = SESSION_GAP_S,
                     label: str | None = None) -> list[SequenceInstance]:
    """Group capture records into sessions and summarize each one.

    An empty capture yields an empty list.  Instances come out in order of
    each session's first packet.
    """
    open_sessions: dict[tuple, list] = {}
    done: list[list] = []
    for rec in sorted(capture, key=attrgetter("ts", "seq")):
        # the same key for both directions: (lower end, higher end, proto)
        a = (rec.src_addr, rec.src_port)
        b = (rec.dst_addr, rec.dst_port)
        key = (a, b, rec.proto) if a <= b else (b, a, rec.proto)
        current = open_sessions.get(key)
        if current is not None and rec.ts - current[-1].ts > gap_timeout_s:
            done.append(current)
            current = None
        if current is None:
            current = []
            open_sessions[key] = current
        current.append(rec)
    done.extend(open_sessions.values())
    done.sort(key=lambda packets: (packets[0].ts, packets[0].seq))
    return [SequenceInstance((p[0].src_addr, p[0].dst_addr, p[0].src_port,
                              p[0].dst_port, p[0].proto),
                             summarize(p), label)
            for p in done]
