"""The security-test plugins.

Every plugin is split into a measurement half and a judgement half:
measure(ctx) pokes the device through the transport API and returns a
RawResult (kind + observed facts, no opinions); judge(raw, criteria) maps
those facts through device/scenario-specific criteria to a graded Verdict
and is a pure function, so the same measurement can be re-judged under
different criteria.  PLUGINS maps each kind to its two halves.

Plugins never mutate the device spec; they talk to devices only through
connections, scans, proxies, and the read-side handle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..errors import AnalysisError, TransportError, ValidationError
from ..model import param_count, param_number
from .portrisk import format_score, parse_ports, score_ports
from .verdict import Grade, Verdict
from .vulndb import AttackProbe, VulnRecord, match_vulnerabilities


@dataclass
class RawResult:
    """Facts measured by a plugin, before any criteria are applied."""

    kind: str
    data: dict


@dataclass
class PluginContext:
    net: object                   # MemoryNetwork or LoopbackNetwork
    device_id: str
    criteria: dict
    rng: random.Random = field(default_factory=lambda: random.Random(0))
    initiator: str = "sectest"

    @property
    def handle(self):
        return self.net.handle(self.device_id)

    def nonce(self) -> str:
        return f"n{self.rng.randrange(10 ** 9)}"


def _ports(criteria: dict, key: str, default=None) -> list[int] | range:
    """A port-list criterion through parse_ports; ValidationError if bad."""
    value = criteria.get(key, default)
    try:
        return parse_ports(value)
    except ValueError:
        raise ValidationError(f"{key}: bad port list {value!r}") from None


def _pick_port(spec, prefer: tuple[str, ...] = ()) -> int | None:
    ports = spec.open_ports()
    if not ports:
        return None
    for service in prefer:
        for p in ports:
            if spec.ports[p].service == service:
                return p
    return ports[0]


# ---------------------------------------------------------------------------
# port risk
# ---------------------------------------------------------------------------

def measure_port_risk(ctx: PluginContext) -> RawResult:
    ports = _ports(ctx.criteria, "ports")
    found = ctx.net.scan_ports(ctx.initiator, ctx.device_id, ports)
    return RawResult("port_risk", {"open_ports": [p for p, _ in found]})


def judge_port_risk(raw: RawResult, criteria: dict) -> Verdict:
    assessment = score_ports(raw.data["open_ports"],
                             criteria.get("score_list"))
    parts = [f"{e.port}: {e.description} with Score: {format_score(e.score)}"
             for e in assessment.scored]
    detail = (f"open ports {list(assessment.open_ports)}; "
              f"total score {format_score(assessment.total_score)}")
    if parts:
        detail += "; " + "; ".join(parts)
    if assessment.unscored:
        detail += f"; unscored ports {list(assessment.unscored)}"
    return Verdict("port_risk", assessment.risk_level, detail)


# ---------------------------------------------------------------------------
# scanning / detectability
# ---------------------------------------------------------------------------

def measure_scan_detectability(ctx: PluginContext) -> RawResult:
    observe_s = param_number(ctx.criteria, "observe_s", 10)
    t0 = ctx.net.now()
    ctx.net.observe(observe_s)
    background = [r for r in ctx.net.tap.between(t0, ctx.net.now())
                  if r.src_addr == ctx.device_id]
    declared = ctx.handle.spec.open_ports()
    sweep = sorted(set(range(1, 1025)) | set(declared)
                   | set(_ports(ctx.criteria, "common_ports", (80, 443)))
                   | set(_ports(ctx.criteria, "management_ports",
                                (20, 21, 22, 23))))
    found = ctx.net.scan_ports(ctx.initiator, ctx.device_id, sweep)
    return RawResult("scan_detectability", {
        "background_records": len(background),
        "open_ports": [p for p, _ in found],
        "declared_ports": declared,
    })


def judge_scan_detectability(raw: RawResult, criteria: dict) -> Verdict:
    common = set(_ports(criteria, "common_ports", (80, 443)))
    mgmt = set(_ports(criteria, "management_ports", (20, 21, 22, 23)))
    expected = set(_ports(criteria, "expected_ports",
                          raw.data["declared_ports"]))
    open_ports = set(raw.data["open_ports"])
    background = raw.data["background_records"]
    if not open_ports and background == 0:
        return Verdict("scan_detectability", Grade.UNDETECTABLE,
                       "no open ports and no traffic attributable to the device")
    if not open_ports:
        return Verdict("scan_detectability", Grade.SAFE,
                       f"detectable via traffic ({background} records) "
                       "but zero open ports")
    unexpected = sorted(open_ports - expected)
    if unexpected:
        return Verdict("scan_detectability", Grade.CRITICAL_RISK,
                       f"unexpected open ports {unexpected}")
    mgmt_open = sorted(open_ports & mgmt)
    if mgmt_open:
        return Verdict("scan_detectability", Grade.MAJOR_RISK,
                       f"management/transfer ports open: {mgmt_open}")
    grade = Grade.MINOR_RISK
    if open_ports <= common:
        detail = f"only common ports open: {sorted(open_ports)}"
    else:
        detail = f"expected application ports open: {sorted(open_ports)}"
    return Verdict("scan_detectability", grade, detail)


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

def measure_fingerprint(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    found = ctx.net.scan_ports(ctx.initiator, ctx.device_id, spec.open_ports())
    banners = {p: banner for p, banner in found}
    joined = " ".join(banners.values()).lower()
    visible = []
    entries = ([("os", spec.os)] if spec.os else []) + \
        [("app", app) for app in spec.apps]
    for role, sw in entries:
        if sw.name.lower() in joined:
            visible.append({"role": role, "name": sw.name,
                            "version": sw.version,
                            "up_to_date": sw.up_to_date, "risk": sw.risk})
    return RawResult("fingerprint", {
        "banners": banners,
        "visible": visible,
        "device_type": spec.device_type if visible else None,
    })


def judge_fingerprint(raw: RawResult, criteria: dict) -> Verdict:
    visible = raw.data["visible"]
    if not visible:
        return Verdict("fingerprint", Grade.UNIDENTIFIABLE,
                       "no parseable identity in banners or traffic")
    stale = [v for v in visible if not v["up_to_date"]]
    names = ", ".join(f"{v['name']} {v['version']}" for v in visible)
    if not stale:
        return Verdict("fingerprint", Grade.SAFE,
                       f"identified {names}; all versions up to date")
    if any(v["role"] == "os" or v["risk"] == "critical" for v in stale):
        grade = Grade.CRITICAL_RISK
    elif any(v["risk"] == "major" for v in stale):
        grade = Grade.MAJOR_RISK
    else:
        grade = Grade.MINOR_RISK
    stale_names = ", ".join(f"{v['name']} {v['version']}" for v in stale)
    return Verdict("fingerprint", grade,
                   f"identified {names}; out of date: {stale_names}")


# ---------------------------------------------------------------------------
# process enumeration
# ---------------------------------------------------------------------------

def measure_process_enumeration(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    if spec.introspection is None:
        return RawResult("process_enumeration", {"channel": "absent"})
    remote = None
    port = _pick_port(spec)
    if port is not None:
        conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
        if conn is not None:
            reply = conn.request(b"ENUM", kind="enum")
            conn.close()
            if reply is not None and reply.startswith(b"PROCS "):
                remote = reply[6:].decode("ascii")
    local = ctx.handle.local_process_list()
    return RawResult("process_enumeration",
                     {"channel": "present", "remote": remote, "local": local})


def judge_process_enumeration(raw: RawResult, criteria: dict) -> Verdict:
    if raw.data["channel"] == "absent":
        return Verdict("process_enumeration", Grade.INDETERMINATE,
                       "no introspection channel declared")
    if raw.data["remote"] is not None:
        return Verdict("process_enumeration", Grade.FAIL,
                       "process list remotely extracted without admin "
                       f"credentials: {raw.data['remote']}")
    if raw.data["local"] is not None:
        return Verdict("process_enumeration", Grade.MODERATE_RISK,
                       "process list extractable on the device only: "
                       f"{raw.data['local']}")
    return Verdict("process_enumeration", Grade.SAFE,
                   "process list refused without admin credentials")


# ---------------------------------------------------------------------------
# data leakage
# ---------------------------------------------------------------------------

def measure_data_leakage(ctx: PluginContext) -> RawResult:
    observe_s = param_number(ctx.criteria, "observe_s", 15)
    t0 = ctx.net.now()
    ctx.net.observe(observe_s)
    records = [r for r in ctx.net.tap.between(t0, ctx.net.now())
               if r.src_addr == ctx.device_id and r.size > 0]
    return RawResult("data_leakage", {
        "payload_records": len(records),
        "entropies": [(r.seq, r.size, r.payload_entropy) for r in records],
        "markers": [(r.seq, r.payload_marker) for r in records
                    if r.payload_marker],
    })


def judge_data_leakage(raw: RawResult, criteria: dict) -> Verdict:
    if raw.data["payload_records"] == 0:
        return Verdict("data_leakage", Grade.INDETERMINATE,
                       "no payload-bearing records observed")
    threshold = param_number(criteria, "entropy_threshold", 7.0)
    min_size = param_count(criteria, "entropy_min_size", 256)
    low = [(seq, size, ent) for seq, size, ent in raw.data["entropies"]
           if size >= min_size and ent < threshold]
    markers = raw.data["markers"]
    if markers:
        cited = "; ".join(f"record {seq}: {marker}"
                          for seq, marker in markers[:3])
        return Verdict("data_leakage", Grade.FAIL,
                       f"plaintext markers leaked ({len(markers)} records): "
                       f"{cited}")
    if low:
        seq, size, ent = low[0]
        return Verdict("data_leakage", Grade.FAIL,
                       f"{len(low)} low-entropy payloads, e.g. record {seq} "
                       f"({size} B at {ent:.2f} bits/byte)")
    return Verdict("data_leakage", Grade.PASS,
                   f"all {raw.data['payload_records']} payload records "
                   f"encrypted (entropy >= {threshold} bits/byte), no markers")


# ---------------------------------------------------------------------------
# data collection audit
# ---------------------------------------------------------------------------

def measure_data_collection(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    return RawResult("data_collection",
                     {"stored_data_class": spec.stored_data_class})


_DATA_CLASS_GRADE = {
    "none": Grade.SAFE,
    "normal": Grade.MINOR_RISK,
    "sensitive": Grade.MAJOR_RISK,
    "critical": Grade.CRITICAL_RISK,
}


def judge_data_collection(raw: RawResult, criteria: dict) -> Verdict:
    cls = raw.data["stored_data_class"]
    return Verdict("data_collection", _DATA_CLASS_GRADE[cls],
                   f"device stores data of class '{cls}'")


# ---------------------------------------------------------------------------
# management access
# ---------------------------------------------------------------------------

DEFAULT_CREDENTIALS = ("admin:admin", "admin:1234", "root:root", "user:user")


def measure_management_access(ctx: PluginContext) -> RawResult:
    mgmt_ports = _ports(ctx.criteria, "management_ports", (22, 23))
    found = ctx.net.scan_ports(ctx.initiator, ctx.device_id, mgmt_ports)
    open_ports = [p for p, _ in found]
    creds = ctx.criteria.get("credentials", DEFAULT_CREDENTIALS)
    if isinstance(creds, (list, tuple)):
        creds = list(creds)
    else:               # a scenario value: comma-separated credentials
        creds = [c.strip() for c in str(creds).split(",") if c.strip()]
    spec = ctx.handle.spec
    for p in open_ports:
        declared = spec.ports[p].default_creds
        if declared and declared not in creds:
            creds.append(declared)
    accepted = []
    for port in open_ports:
        conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
        if conn is None:
            continue
        for cred in creds:
            user, _, password = cred.partition(":")
            reply = conn.request(
                f"LOGIN {user} {password} nonce={ctx.nonce()}".encode("ascii"),
                kind="login")
            if reply is not None and reply.startswith(b"OK"):
                accepted.append((port, cred))
                break
        conn.close()
    return RawResult("management_access",
                     {"open_ports": open_ports, "accepted": accepted,
                      "tried": len(creds)})


def judge_management_access(raw: RawResult, criteria: dict) -> Verdict:
    open_ports = raw.data["open_ports"]
    if not open_ports:
        return Verdict("management_access", Grade.PASS,
                       "management access ports closed")
    detail = f"management ports open: {open_ports}"
    if raw.data["accepted"]:
        creds = ", ".join(f"{cred!r} on port {port}"
                          for port, cred in raw.data["accepted"])
        detail += f"; accepted credentials: {creds}"
    else:
        detail += f"; all {raw.data['tried']} credential attempts refused"
    return Verdict("management_access", Grade.FAIL, detail)


# ---------------------------------------------------------------------------
# encryption downgrade
# ---------------------------------------------------------------------------

def measure_downgrade(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    if spec.payload_mode != "encrypted" or not spec.ports:
        return RawResult("downgrade_attack", {"encrypted_service": False})
    port = _pick_port(spec, prefer=("https", "tls"))
    conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
    if conn is None:
        return RawResult("downgrade_attack", {"encrypted_service": False})
    reply = conn.request(b"DOWNGRADE null-cipher", kind="downgrade")
    accepted = reply is not None and reply.startswith(b"ACCEPT")
    sample_entropy = None
    if accepted:
        payload = conn.request(f"CMD status nonce={ctx.nonce()}".encode("ascii"))
        if payload:
            from ..simnet.payload import shannon_entropy
            sample_entropy = shannon_entropy(payload)
    conn.close()
    return RawResult("downgrade_attack", {
        "encrypted_service": True, "port": port,
        "reply": reply.decode("ascii", "replace") if reply else None,
        "accepted": accepted, "session_entropy": sample_entropy,
    })


def judge_downgrade(raw: RawResult, criteria: dict) -> Verdict:
    if not raw.data["encrypted_service"]:
        return Verdict("downgrade_attack", Grade.INDETERMINATE,
                       "device exposes no encrypted service")
    if raw.data["accepted"]:
        detail = (f"downgrade accepted on port {raw.data['port']} "
                  f"({raw.data['reply']})")
        if raw.data["session_entropy"] is not None:
            detail += (f"; subsequent session payload at "
                       f"{raw.data['session_entropy']:.2f} bits/byte")
        return Verdict("downgrade_attack", Grade.FAIL, detail)
    return Verdict("downgrade_attack", Grade.PASS,
                   f"downgrade refused on port {raw.data['port']} "
                   f"({raw.data['reply']})")


# ---------------------------------------------------------------------------
# replay (spoofing)
# ---------------------------------------------------------------------------

def measure_replay(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    port = _pick_port(spec)
    if port is None:
        raise AnalysisError("replay: no service to record a session from")
    conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
    if conn is None:
        raise AnalysisError("replay: recorded session is empty")
    creds = spec.ports[port].default_creds
    if creds:
        user, _, password = creds.partition(":")
        request = f"LOGIN {user} {password} nonce={ctx.nonce()}".encode("ascii")
        kind = "login"
    else:
        request = f"CMD status nonce={ctx.nonce()}".encode("ascii")
        kind = "request"
    original = conn.request(request, kind=kind)
    conn.close()
    if original is None:
        raise AnalysisError("replay: recorded session is empty")
    replay_conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
    replayed = replay_conn.request(request, kind="replay") \
        if replay_conn else None
    if replay_conn:
        replay_conn.close()
    return RawResult("replay_attack", {
        "port": port,
        "request": request.decode("ascii"),
        "original_reply": original.decode("ascii", "replace")[:64],
        "replay_reply": (replayed.decode("ascii", "replace")[:64]
                         if replayed is not None else None),
        "replay_len": len(replayed) if replayed is not None else 0,
    })


def judge_replay(raw: RawResult, criteria: dict) -> Verdict:
    reply = raw.data["replay_reply"]
    refused = reply is None or reply.startswith("DENIED") \
        or reply.startswith("ERROR")
    if refused:
        return Verdict("replay_attack", Grade.PASS,
                       f"replayed request on port {raw.data['port']} "
                       f"rejected ({reply!r})")
    return Verdict("replay_attack", Grade.FAIL,
                   f"replayed request on port {raw.data['port']} accepted "
                   f"({raw.data['replay_len']} B reply)")


# ---------------------------------------------------------------------------
# communication delay
# ---------------------------------------------------------------------------

def measure_delay(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    if spec.timing_min_ms is None or spec.timing_max_ms is None:
        raise AnalysisError("delay: timing_normal_range unknown")
    port = _pick_port(spec)
    if port is None:
        raise AnalysisError("delay: no service to transact with")
    delay_ms = param_number(ctx.criteria, "delay_ms", 0)
    n = param_count(ctx.criteria, "transactions", 8)
    ctx.net.proxy(ctx.device_id, delay_ms=delay_ms)
    try:
        conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
        if conn is None:
            raise AnalysisError("delay: connect refused")
        completions = []
        due = ctx.net.now()
        for _ in range(n):
            period_s = ctx.rng.uniform(spec.timing_min_ms,
                                       spec.timing_max_ms) / 1000.0
            due += period_s
            wait = due - ctx.net.now()
            if wait > 0:
                ctx.net.observe(wait)
            conn.request(f"CMD poll nonce={ctx.nonce()}".encode("ascii"))
            completions.append(ctx.net.now())
        conn.close()
    finally:
        ctx.net.unproxy(ctx.device_id)
    gaps = [round((b - a) * 1000.0, 3)
            for a, b in zip(completions, completions[1:])]
    return RawResult("delay_attack", {
        "gaps_ms": gaps, "delay_ms": delay_ms,
        "range_ms": [spec.timing_min_ms, spec.timing_max_ms],
    })


def judge_delay(raw: RawResult, criteria: dict) -> Verdict:
    lo, hi = raw.data["range_ms"]
    allowance = param_number(criteria, "latency_allowance_ms", 100)
    gaps = raw.data["gaps_ms"]
    worst = max(gaps) if gaps else 0.0
    if worst > hi + allowance:
        return Verdict("delay_attack", Grade.UNSAFE,
                       f"inter-transaction gap {worst:.0f} ms exceeds normal "
                       f"range [{lo:.0f}, {hi:.0f}] ms under "
                       f"{raw.data['delay_ms']:.0f} ms injected delay")
    return Verdict("delay_attack", Grade.SAFE,
                   f"gaps stayed within [{lo:.0f}, {hi:.0f}] ms "
                   f"(worst {worst:.0f} ms) under "
                   f"{raw.data['delay_ms']:.0f} ms injected delay")


# ---------------------------------------------------------------------------
# tampering (bit errors)
# ---------------------------------------------------------------------------

def measure_tamper(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    port = _pick_port(spec)
    if port is None:
        raise AnalysisError("tamper: no service to transact with")
    rate = param_number(ctx.criteria, "corrupt_rate", 0.1)
    n = param_count(ctx.criteria, "transactions", 20)
    ctx.net.proxy(ctx.device_id, corrupt_rate=rate)
    answered = 0
    sent = 0
    try:
        conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
        if conn is not None:
            for _ in range(n):
                sent += 1
                reply = conn.request(
                    f"CMD poll nonce={ctx.nonce()}".encode("ascii"))
                if reply is not None:
                    answered += 1
            conn.close()
    finally:
        ctx.net.unproxy(ctx.device_id)
    return RawResult("tamper_attack", {
        "corrupt_rate": rate, "sent": sent, "answered": answered,
        "alive": ctx.handle.alive,
    })


def judge_tamper(raw: RawResult, criteria: dict) -> Verdict:
    rate = raw.data["corrupt_rate"]
    if not raw.data["alive"]:
        return Verdict("tamper_attack", Grade.UNSAFE,
                       f"device crashed under {rate:.0%} corrupted traffic "
                       f"({raw.data['answered']}/{raw.data['sent']} answered)")
    if raw.data["sent"] > 0 and raw.data["answered"] == 0:
        return Verdict("tamper_attack", Grade.UNSAFE,
                       f"device stopped answering under {rate:.0%} "
                       "corrupted traffic")
    return Verdict("tamper_attack", Grade.SAFE,
                   f"device kept responding under {rate:.0%} corrupted "
                   f"traffic ({raw.data['answered']}/{raw.data['sent']} "
                   "answered)")


# ---------------------------------------------------------------------------
# known vulnerabilities
# ---------------------------------------------------------------------------

def measure_known_vulns(ctx: PluginContext) -> RawResult:
    spec = ctx.handle.spec
    identity = {spec.device_type: spec.os.version if spec.os else "0"}
    if spec.os:
        identity[spec.os.name] = spec.os.version
    for app in spec.apps:
        identity[app.name] = app.version
    return RawResult("known_vulnerabilities", {"identity": identity})


def judge_known_vulns(raw: RawResult, criteria: dict) -> Verdict:
    db: list[VulnRecord] = list(criteria.get("vuln_db", ()))
    matches = match_vulnerabilities(raw.data["identity"], db)
    if not matches:
        return Verdict("known_vulnerabilities", Grade.SAFE,
                       f"no matching records among {len(db)} known "
                       "vulnerabilities")
    listed = "; ".join(f"{m.vuln_id} ({m.severity}): {m.description}"
                       for m in matches)
    if any(m.severity in ("significant", "critical") for m in matches):
        return Verdict("known_vulnerabilities", Grade.UNSAFE,
                       f"{len(matches)} matches: {listed}")
    return Verdict("known_vulnerabilities", Grade.MINOR_RISK,
                   f"only low-severity matches: {listed}")


# ---------------------------------------------------------------------------
# vulnerability probing
# ---------------------------------------------------------------------------

def measure_vuln_probe(ctx: PluginContext) -> RawResult:
    probes: list[AttackProbe] = list(ctx.criteria.get("attack_db", ()))
    spec = ctx.handle.spec
    run = 0
    hits = []
    for probe in probes:
        ports = [p for p in spec.open_ports()
                 if probe.service_match in ("*", spec.ports[p].service)]
        for port in ports:
            conn = ctx.net.connect(ctx.initiator, ctx.device_id, port)
            if conn is None:
                continue
            wire = f"VPROBE {probe.probe_id} {probe.payload_hex}"
            reply = conn.request(wire.encode("ascii"), kind="vprobe")
            conn.close()
            run += 1
            text = reply.decode("ascii", "replace") if reply else ""
            if text != probe.expected_safe_signature:
                hits.append({"probe_id": probe.probe_id,
                             "severity": probe.severity,
                             "port": port, "response": text[:64]})
    return RawResult("vulnerability_probe",
                     {"probes_run": run, "vulnerable": hits,
                      "db_size": len(probes)})


def judge_vuln_probe(raw: RawResult, criteria: dict) -> Verdict:
    hits = raw.data["vulnerable"]
    if not hits:
        return Verdict("vulnerability_probe", Grade.SAFE,
                       f"all {raw.data['probes_run']} probes answered with "
                       f"safe signatures ({raw.data['db_size']} probe records)")
    listed = "; ".join(f"{h['probe_id']} ({h['severity']}) on port "
                       f"{h['port']}: {h['response']!r}" for h in hits)
    if any(h["severity"] in ("significant", "critical") for h in hits):
        return Verdict("vulnerability_probe", Grade.UNSAFE,
                       f"vulnerable responses: {listed}")
    return Verdict("vulnerability_probe", Grade.MINOR_RISK,
                   f"low-severity vulnerable responses: {listed}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plugin:
    kind: str
    measure: Callable[[PluginContext], RawResult]
    judge: Callable[[RawResult, dict], Verdict]
    params: tuple[str, ...] = ()    # the criteria names the two halves read


PLUGINS: dict[str, Plugin] = {p.kind: p for p in (
    Plugin("port_risk", measure_port_risk, judge_port_risk,
           ("ports", "score_list")),
    Plugin("scan_detectability", measure_scan_detectability,
           judge_scan_detectability,
           ("observe_s", "common_ports", "management_ports",
            "expected_ports")),
    Plugin("fingerprint", measure_fingerprint, judge_fingerprint),
    Plugin("process_enumeration", measure_process_enumeration,
           judge_process_enumeration),
    Plugin("data_leakage", measure_data_leakage, judge_data_leakage,
           ("observe_s", "entropy_threshold", "entropy_min_size")),
    Plugin("data_collection", measure_data_collection, judge_data_collection),
    Plugin("management_access", measure_management_access,
           judge_management_access, ("management_ports", "credentials")),
    Plugin("downgrade_attack", measure_downgrade, judge_downgrade),
    Plugin("replay_attack", measure_replay, judge_replay),
    Plugin("delay_attack", measure_delay, judge_delay,
           ("delay_ms", "transactions", "latency_allowance_ms")),
    Plugin("tamper_attack", measure_tamper, judge_tamper,
           ("corrupt_rate", "transactions")),
    Plugin("known_vulnerabilities", measure_known_vulns, judge_known_vulns,
           ("vuln_db",)),
    Plugin("vulnerability_probe", measure_vuln_probe, judge_vuln_probe,
           ("attack_db",)),
)}


def measure(kind: str, ctx: PluginContext) -> RawResult:
    return PLUGINS[kind].measure(ctx)


def judge(raw: RawResult, criteria: dict) -> Verdict:
    return PLUGINS[raw.kind].judge(raw, criteria)
