"""Security-test plugin suite and the port-risk scoring metric."""

from .verdict import (CLEAN_GRADES, FAILED_GRADES, Grade, Verdict,
                      ci_exit_code, grade_severity, highest_risk,
                      human_grade)
from .portrisk import (DEFAULT_SCORE_LIST, PortScoreEntry, RiskAssessment,
                       assessment_pairs, format_score, load_score_list,
                       parse_ports, render_assessment, risk_level,
                       score_ports)
from .vulndb import (AttackProbe, VulnRecord, load_attack_db, load_vuln_db,
                     match_vulnerabilities)
from .plugins import PLUGINS, PluginContext, RawResult, judge, measure

__all__ = [
    "CLEAN_GRADES", "FAILED_GRADES", "Grade", "Verdict", "ci_exit_code",
    "grade_severity", "highest_risk", "human_grade",
    "DEFAULT_SCORE_LIST", "PortScoreEntry", "RiskAssessment",
    "assessment_pairs", "format_score", "load_score_list", "parse_ports",
    "render_assessment", "risk_level", "score_ports",
    "AttackProbe", "VulnRecord", "load_attack_db", "load_vuln_db",
    "match_vulnerabilities",
    "PLUGINS", "PluginContext", "RawResult", "judge", "measure",
]
