"""Graded test outcomes: one closed vocabulary for every security test.

The individual tests historically mix pass/fail, safe/unsafe, and risk
tiers; unifying them lets one report schema carry all of them.  Severity
ranks order the grades for the "highest risk" roll-up and the CLI exit
code: the four clean outcomes and INDETERMINATE rank 0, risk tiers rank
1-4, and the hard failures (FAIL, UNSAFE) rank worst at 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Grade(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNDETECTABLE = "UNDETECTABLE"
    UNIDENTIFIABLE = "UNIDENTIFIABLE"
    SAFE = "SAFE"
    MINOR_RISK = "MINOR_RISK"
    MODERATE_RISK = "MODERATE_RISK"
    MAJOR_RISK = "MAJOR_RISK"
    CRITICAL_RISK = "CRITICAL_RISK"
    UNSAFE = "UNSAFE"
    INDETERMINATE = "INDETERMINATE"


_SEVERITY = {
    Grade.PASS: 0,
    Grade.SAFE: 0,
    Grade.UNDETECTABLE: 0,
    Grade.UNIDENTIFIABLE: 0,
    Grade.INDETERMINATE: 0,
    Grade.MINOR_RISK: 1,
    Grade.MODERATE_RISK: 2,
    Grade.MAJOR_RISK: 3,
    Grade.CRITICAL_RISK: 4,
    Grade.FAIL: 5,
    Grade.UNSAFE: 5,
}

# Grades counting as clean/failed for the report's overall tally.
CLEAN_GRADES = frozenset({Grade.PASS, Grade.SAFE, Grade.UNDETECTABLE,
                          Grade.UNIDENTIFIABLE})
FAILED_GRADES = frozenset({Grade.FAIL, Grade.UNSAFE})


def grade_severity(grade: Grade) -> int:
    return _SEVERITY[grade]


def ci_exit_code(highest: Grade | None, errors: int = 0) -> int:
    """The exit code for a run or scan whose most severe grade is highest
    (None when nothing was graded) and in which `errors` actions erred:
    1 when a risk was found, from MODERATE_RISK up, which takes in FAIL
    and UNSAFE; else 2 when an action erred, since what it was to test
    went untested; else 0."""
    if highest is not None and \
            grade_severity(highest) >= grade_severity(Grade.MODERATE_RISK):
        return 1
    return 2 if errors else 0


def human_grade(grade: Grade) -> str:
    """MINOR_RISK -> 'Minor Risk' and so on."""
    return grade.value.replace("_", " ").title()


@dataclass(frozen=True)
class Verdict:
    """Outcome of one security test run against one device."""

    test_name: str
    grade: Grade
    detail: str

    def __post_init__(self):
        # Every decided verdict must cite its evidence.
        if self.grade != Grade.INDETERMINATE and not self.detail:
            raise ValueError(f"{self.test_name}: verdict without evidence")

    @property
    def severity(self) -> int:
        return grade_severity(self.grade)


def highest_risk(verdicts: list[Verdict]) -> Grade | None:
    """Most severe grade seen, or None for an empty list."""
    best: Grade | None = None
    best_rank = -1
    for v in verdicts:
        if v.severity > best_rank:
            best, best_rank = v.grade, v.severity
    return best
