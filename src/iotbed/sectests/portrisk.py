"""Port-risk metric: score open ports against a vulnerable-port list.

The default list ships with the five entries whose scores are known good
(80 and 5900 at 3, 445 and 49152 at 1, 443 at 5); operators extend or
replace it via a CSV file of `port,description,score` lines.  Totals map
to risk levels as: 0 safe, below 15 minor, 15 through 30 major, above 30
critical; both boundary values close into MAJOR so the levels partition
every possible total.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..records import finite
from .verdict import Grade, human_grade
from .vulndb import _read_csv


@dataclass(frozen=True)
class PortScoreEntry:
    port: int
    description: str
    score: float


DEFAULT_SCORE_LIST: dict[int, PortScoreEntry] = {
    80: PortScoreEntry(80, "A web server is running on this port", 3),
    5900: PortScoreEntry(5900, "A vnc server is running on this port", 3),
    445: PortScoreEntry(445, "Microsoft-DS Active Directory, Windows shares", 1),
    443: PortScoreEntry(443, "A TLSv1 server answered on this port", 5),
    49152: PortScoreEntry(
        49152, "The Win32 process 'wininit.exe' is listening on this port", 1),
}


def load_score_list(path: str) -> dict[int, PortScoreEntry]:
    """Score list CSV; AnalysisError with path:line on a bad row."""
    entries: dict[int, PortScoreEntry] = {}

    def add(row: list[str]) -> None:
        port, score = int(row[0]), finite(row[2])
        if score < 0:
            raise ValueError("negative score")
        if port in entries:
            raise ValueError(f"duplicate port {port}")
        entries[port] = PortScoreEntry(port, row[1], score)

    _read_csv(path, 3, add)
    return entries


def _port_list(items) -> list[int]:
    """The ports of items, in order; ValueError on one given twice."""
    ports: dict[int, None] = {}
    for port in map(int, items):
        if port in ports:
            raise ValueError(f"duplicate port {port}")
        ports[port] = None
    return list(ports)


def parse_ports(value) -> list[int] | range:
    """Ports to scan from a "lo-hi" range or a comma list; None is all.

    ValueError for a reversed range, a list of no port, a port listed
    twice or a port outside 1-65535 (range ends).
    """
    if value is None:
        return range(1, 65536)
    if isinstance(value, range):
        return value
    text = str(value)
    if isinstance(value, (list, tuple)):
        ports = ends = _port_list(value)
    elif "-" in text:
        lo, _, hi = text.partition("-")
        ends = [int(lo), int(hi)]
        ports = range(ends[0], ends[1] + 1)
        if not ports:
            raise ValueError(f"a reversed range {value!r}")
    else:
        ports = ends = _port_list(p for p in text.split(",") if p)
        if not ports:
            raise ValueError(f"no port in {value!r}")
    if not all(1 <= port <= 65535 for port in ends):
        raise ValueError(f"a port outside 1-65535 in {value!r}")
    return ports


def format_score(x: float) -> str:
    """A score as printed everywhere: whole numbers without a decimal point."""
    return str(int(x)) if x == int(x) else str(x)


def risk_level(total: float) -> Grade:
    if total == 0:
        return Grade.SAFE
    if total < 15:
        return Grade.MINOR_RISK
    if total <= 30:
        return Grade.MAJOR_RISK
    return Grade.CRITICAL_RISK


@dataclass(frozen=True)
class RiskAssessment:
    open_ports: tuple[int, ...]
    scored: tuple[PortScoreEntry, ...]
    unscored: tuple[int, ...]
    total_score: float
    risk_level: Grade


def score_ports(open_ports: list[int],
                score_list: dict[int, PortScoreEntry] | None = None
                ) -> RiskAssessment:
    if score_list is None:
        score_list = DEFAULT_SCORE_LIST
    ports = tuple(sorted(set(open_ports)))
    scored = tuple(score_list[p] for p in ports if p in score_list)
    unscored = tuple(p for p in ports if p not in score_list)
    total = sum(e.score for e in scored)
    if total == int(total):
        total = int(total)
    return RiskAssessment(open_ports=ports, scored=scored, unscored=unscored,
                          total_score=total, risk_level=risk_level(total))


def assessment_pairs(assessment: RiskAssessment) -> list[tuple[str, str]]:
    """One scan's report.rec (key, value) pairs, without the run's prefix."""
    return [("open", ",".join(map(str, assessment.open_ports))),
            *((f"entry.{entry.port}",
               f"{format_score(entry.score)}|{entry.description}")
              for entry in assessment.scored),
            ("total", format_score(assessment.total_score)),
            ("level", assessment.risk_level.value)]


def render_assessment(title: str, fields, prefix: str = "") -> list[str]:
    """The "Overall Results" lines of one scan, from a mapping that holds
    its assessment_pairs under prefix.  Unscored ports are the open ports
    that have no entry."""
    opened = fields[f"{prefix}open"]
    out = [f"Overall Results ({title})", f"  Open ports: {opened or '-'}"]
    entry = f"{prefix}entry."
    for key, value in fields.items():
        if key.startswith(entry):
            score, _, description = value.partition("|")
            out.append(f"    {key[len(entry):]:>6}  {description} "
                       f"with Score: {score}")
    unscored = [port for port in opened.split(",")
                if port and entry + port not in fields]
    if unscored:
        out.append(f"  Unscored ports: {','.join(unscored)}")
    out += ["Metric Score",
            f"  Total: {fields[f'{prefix}total']}",
            f"  Risk Level: {human_grade(Grade(fields[f'{prefix}level']))}"]
    return out
