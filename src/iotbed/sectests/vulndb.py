"""Known-vulnerability records and the exploit-probe database.

Vulnerability DB file: CSV lines `device_type,version_range,vuln_id,severity,description`
with severity in {low, significant, critical}.  Version ranges accept
`*`, exact `1.2`, comparators `<=1.2 >=1.2 <1.2 >1.2`, and spans `1.0-2.0`
(inclusive); each piece of a bound starts with a digit, and a range is
parsed once, when its record is made.  Attack-probe DB file: CSV lines
`probe_id,severity,service_match,payload_hex,expected_safe_signature`.
"""

from __future__ import annotations

import csv
import operator
import re
from dataclasses import dataclass, field

from ..records import Source, is_version

SEVERITIES = ("low", "significant", "critical")


def _version_key(version: str) -> tuple[int, ...]:
    """The leading digits of each dot-separated piece, 0 where none."""
    return tuple(int(re.match("[0-9]*", piece)[0] or 0)
                 for piece in version.split("."))


_COMPARATORS = {"<=": operator.le, ">=": operator.ge,
                "<": operator.lt, ">": operator.gt}


def parse_range(version_range: str) -> tuple:
    """The (comparison, bound key) pairs that a version's key must all
    satisfy to lie in version_range; ValueError if it is malformed."""
    version_range = version_range.strip()

    def key(bound: str) -> tuple[int, ...]:
        bound = bound.strip()
        if not is_version(bound):
            raise ValueError(f"bad version range {version_range!r}")
        return _version_key(bound)

    if version_range == "*":
        return ()
    for op, compare in _COMPARATORS.items():
        if version_range.startswith(op):
            return ((compare, key(version_range[len(op):])),)
    if "-" in version_range:
        lo, _, hi = version_range.partition("-")
        return ((operator.ge, key(lo)), (operator.le, key(hi)))
    return ((operator.eq, key(version_range)),)


def _in_range(version: str, bounds: tuple) -> bool:
    version_key = _version_key(version)
    return all(compare(version_key, bound) for compare, bound in bounds)


def version_in_range(version: str, version_range: str) -> bool:
    return _in_range(version, parse_range(version_range))


@dataclass(frozen=True)
class VulnRecord:
    device_type: str
    version_range: str
    vuln_id: str
    severity: str
    description: str
    bounds: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):    # a malformed range fails here, at load
        object.__setattr__(self, "bounds", parse_range(self.version_range))


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
    return [record for record in db if record.device_type in identity
            and _in_range(identity[record.device_type], record.bounds)]
