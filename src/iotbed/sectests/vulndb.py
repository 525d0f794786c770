"""Known-vulnerability records and the exploit-probe database.

Vulnerability DB file: CSV lines `device_type,version_range,vuln_id,severity,description`
with severity in {low, significant, critical}.  Version ranges accept
`*`, exact `1.2`, comparators `<=1.2 >=1.2 <1.2 >1.2`, and spans `1.0-2.0`
(inclusive).  Attack-probe DB file: CSV lines
`probe_id,severity,service_match,payload_hex,expected_safe_signature`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from ..records import Source

SEVERITIES = ("low", "significant", "critical")


def _version_key(version: str) -> tuple[int, ...]:
    parts = []
    for piece in version.split("."):
        digits = ""
        for ch in piece:
            if ch.isdigit():
                digits += ch
            else:
                break
        parts.append(int(digits) if digits else 0)
    return tuple(parts)


def version_in_range(version: str, version_range: str) -> bool:
    version_range = version_range.strip()
    if version_range in ("*", ""):
        return True
    key = _version_key(version)
    for op in ("<=", ">=", "<", ">"):
        if version_range.startswith(op):
            bound = _version_key(version_range[len(op):].strip())
            return {"<=": key <= bound, ">=": key >= bound,
                    "<": key < bound, ">": key > bound}[op]
    if "-" in version_range:
        lo, _, hi = version_range.partition("-")
        return _version_key(lo) <= key <= _version_key(hi)
    return key == _version_key(version_range)


@dataclass(frozen=True)
class VulnRecord:
    device_type: str
    version_range: str
    vuln_id: str
    severity: str
    description: str


@dataclass(frozen=True)
class AttackProbe:
    probe_id: str
    severity: str
    service_match: str          # service name the probe targets, or *
    payload_hex: str
    expected_safe_signature: str

    def payload(self) -> bytes:
        return bytes.fromhex(self.payload_hex)


def _read_csv(path: str, n_fields: int, build) -> list:
    """build(row) for each CSV row of n_fields stripped fields; a bad row is
    an AnalysisError with path:line."""
    source = Source(path)
    with source.parsing():
        rows = []
        for row in csv.reader(source):
            if len(row) != n_fields:
                raise ValueError(f"expected {n_fields} fields")
            rows.append(build([f.strip() for f in row]))
        return rows


def _vuln_record(row: list[str]) -> VulnRecord:
    if row[3] not in SEVERITIES:
        raise ValueError(f"bad severity {row[3]!r}")
    # fail fast on malformed ranges rather than at match time
    version_in_range("1.0", row[1])
    return VulnRecord(*row)


def _attack_probe(row: list[str]) -> AttackProbe:
    if row[1] not in SEVERITIES:
        raise ValueError(f"bad severity {row[1]!r}")
    probe = AttackProbe(*row)
    probe.payload()             # validate the hex early
    return probe


def load_vuln_db(path: str) -> list[VulnRecord]:
    return _read_csv(path, 5, _vuln_record)


def load_attack_db(path: str) -> list[AttackProbe]:
    return _read_csv(path, 5, _attack_probe)


def match_vulnerabilities(identity: dict[str, str],
                          db: list[VulnRecord]) -> list[VulnRecord]:
    """Records whose device_type column names the device type, OS, or an app.

    identity maps name -> version; callers include the device-type label,
    the OS name, and every app name as keys.
    """
    matches = []
    for record in db:
        version = identity.get(record.device_type)
        if version is None:
            continue
        if version_in_range(version, record.version_range):
            matches.append(record)
    return matches
