"""Payload synthesis and empirical entropy.

Encrypted traffic is modelled as uniform random bytes (empirical Shannon
entropy of a 256-byte sample sits near 7.06 bits/byte); plaintext as a
stream of dictionary words and digits (about 4.3 bits/byte).  Devices that
hold sensitive data leak a recognizable GPS marker inside plaintext
payloads, which the leakage checks key on.

Both run once per simulated packet.  shannon_entropy computes each term
once per distinct count and sums the terms in first-appearance order, so
the float is the one the plain sum gives.  plaintext_payload writes out
Random.choice and Random.randrange (k bits from getrandbits, drawn again
while out of range), at less than half their cost; it consumes the same
bits, so bytes and generator state are unchanged, as
test_plaintext_payload_matches_choice_loop pins on each CPython.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from math import log2

GPS_MARKER = "GPS="

# Small fixed vocabulary; enough symbol spread to stay well under the
# 7.0 bits/byte line while looking like real telemetry text.
_WORDS = (
    "temp humidity status battery motion door open closed lock unlock "
    "stream frame sensor reading update ping event alert level mode "
    "zone home away night schedule timer value unit device node hub "
    "report sync config state power signal link channel data item"
).split()
_N_WORDS = len(_WORDS)
_WORD_BITS = _N_WORDS.bit_length()
# the numeric suffix, randrange(1000): 10 bits, drawn again if >= 1000
_NUMBERS = tuple(map(str, range(1000)))


def shannon_entropy(data: bytes) -> float:
    """Empirical entropy in bits per byte; 0.0 for empty input."""
    if not data:
        return 0.0
    counts = Counter(data).values()
    n = len(data)
    terms = {c: (c / n) * log2(c / n) for c in set(counts)}
    # 0.0 - x, not -x: one symbol gives 0.0, where -x would give -0.0
    return 0.0 - sum(map(terms.__getitem__, counts))


def encrypted_payload(rng: random.Random, size: int) -> bytes:
    return rng.randbytes(size)


def plaintext_payload(rng: random.Random, size: int,
                      marker: str | None = None) -> bytes:
    """Word-token stream of exactly `size` bytes, optional embedded marker."""
    parts: list[str] = []
    length = 0
    if marker:
        parts.append(marker)
        length = len(marker) + 1
    getrandbits, uniform = rng.getrandbits, rng.random
    while length < size + 16:
        i = getrandbits(_WORD_BITS)
        while i >= _N_WORDS:
            i = getrandbits(_WORD_BITS)
        token = _WORDS[i]
        if uniform() < 0.3:
            i = getrandbits(10)
            while i >= 1000:
                i = getrandbits(10)
            token += _NUMBERS[i]
        parts.append(token)
        length += len(token) + 1
    text = " ".join(parts)
    return text.encode("ascii")[:size]


def gps_marker(lat: float, lon: float) -> str:
    return f"{GPS_MARKER}{lat:.5f},{lon:.5f}"


def find_gps_marker(data: bytes) -> str | None:
    """Return the planted marker token if present, else None."""
    match = _MARKER_RE.search(data)
    if match is None:
        return None
    return match.group(0).decode("ascii")


_MARKER_RE = re.compile(rb"GPS=-?\d+\.\d+,-?\d+\.\d+")
