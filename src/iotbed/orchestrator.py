"""Run coordinator: executes scenarios through the three phases and
produces the report.

Phase 1 runs the standard security tests, phase 2 the context tests (with
location/time scripts driving the simulated network), phase 3 the forensic
analysis plus optional profiling, then the report.  Every action leaves
exactly one trace entry; a failing action errs its enclosing test and the
remaining actions of that test are logged as skipped, but the run carries
on with the next test.  Validation problems abort before anything runs.

All artifacts of one run live in a per-run directory: the scenario copy,
trace, captures, status series, window statistics, findings, and the
report in machine (`report.rec`) and human (`report.txt`) form.  The human
form is rendered purely from the machine form, so re-rendering a persisted
run is byte-identical.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from .analysis import (DEFAULT_K, DEFAULT_WINDOW_S, AttackFinding,
                       analyze_run, build_baseline, window_series,
                       write_findings, write_window_stats)
from .errors import (CriteriaError, ScenarioError, TestbedError,
                     ValidationError)
from .model import (USER, Action, Command, ElementDescriptor, ElementKind,
                    ParamSchema, Phase, Scenario, Test)
from .profiler import (ProfileDistribution, load_model, profile_device,
                       profile_pairs)
from .records import dumps, load
from .registry import ElementRegistry
from .sectests import (CLEAN_GRADES, FAILED_GRADES, PLUGINS, Grade,
                       PluginContext, RawResult, Verdict, grade_severity,
                       format_score, highest_risk, human_grade, judge,
                       load_attack_db, load_score_list, load_vuln_db,
                       score_ports)
from .simnet import (LoopbackNetwork, MemoryNetwork, load_device_spec,
                     load_trajectory, write_capture, write_status)
from .trace import TraceLog

CLOCK = "CLOCK"
GPS_SIM = "GPS_SIM"
SNIFFER = "SNIFFER"

DEFAULT_BASELINE_S = 30.0


# ---------------------------------------------------------------------------
# element descriptors
# ---------------------------------------------------------------------------

def builtin_descriptors() -> list[ElementDescriptor]:
    sim = [
        ElementDescriptor(
            CLOCK, ElementKind.SIMULATOR,
            {Command.SET: ParamSchema(required=("advance_s",))},
            description="virtual clock driver"),
        ElementDescriptor(
            GPS_SIM, ElementKind.SIMULATOR,
            {Command.START: ParamSchema(required=("file",)),
             Command.STOP: ParamSchema()},
            description="location/time trajectory replayer"),
        ElementDescriptor(
            SNIFFER, ElementKind.MEASUREMENT_TOOL,
            {Command.START: ParamSchema(optional=("scope",)),
             Command.STOP: ParamSchema()},
            description="network capture tap"),
    ]
    for kind in PLUGINS:
        sim.append(ElementDescriptor(
            kind, ElementKind.SECURITY_TEST,
            {Command.TEST: ParamSchema(required=("target",),
                                       allow_extra=True)},
            description=f"security test: {kind.replace('_', ' ')}"))
    return sim


def device_descriptor(spec) -> ElementDescriptor:
    return ElementDescriptor(
        spec.device_id, ElementKind.DEVICE_UNDER_TEST,
        {Command.TEST: ParamSchema(),
         Command.TEST_CONNECTION: ParamSchema(optional=("port",)),
         Command.LOGIN: ParamSchema(required=("user", "password"),
                                    optional=("port",)),
         Command.START: ParamSchema(),
         Command.STOP: ParamSchema()},
        spec_path="", description=f"simulated {spec.device_type}")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def default_criteria() -> dict[str, dict]:
    return {kind: {} for kind in PLUGINS}


def evaluate_verdict(raw: RawResult, criteria_config: dict) -> Verdict:
    """Map raw plugin output through per-kind criteria to a Verdict."""
    if raw.kind not in criteria_config:
        raise CriteriaError(f"no criteria configured for {raw.kind!r}")
    return judge(raw, criteria_config[raw.kind])


# ---------------------------------------------------------------------------
# run state and report
# ---------------------------------------------------------------------------

@dataclass
class PhaseResult:
    test_name: str
    kind: str
    verdict: Verdict


@dataclass
class RunReport:
    run_id: str
    scenario_name: str
    backend: str
    seed: int
    device_id: str
    device_summary: dict
    phase1_results: list[PhaseResult]
    phase2_results: list[PhaseResult]
    profiling: ProfileDistribution | None
    profiling_note: str
    findings: list[AttackFinding]
    portscans: list[dict]
    overall: dict
    trace_ref: str
    generated_at: str
    run_dir: str = ""

    def verdicts(self) -> list[Verdict]:
        return [r.verdict for r in self.phase1_results + self.phase2_results]

    def exit_code(self) -> int:
        if self.overall["fail_count"] > 0:
            return 1
        top = self.overall["highest_risk"]
        # anything above MINOR_RISK fails CI
        if top != "-" and grade_severity(Grade(top)) >= \
                grade_severity(Grade.MODERATE_RISK):
            return 1
        return 0


@dataclass
class RunOptions:
    backend: str = "memory"
    seed: int = 0
    runs_dir: str = "runs"
    window_s: float = DEFAULT_WINDOW_S
    k: float = DEFAULT_K
    score_list: dict | None = None
    vuln_db: list = field(default_factory=list)
    attack_db: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

class ScenarioRunner:
    def __init__(self, scenario: Scenario, base_dir: str,
                 options: RunOptions | None = None):
        self.scenario = scenario
        self.base_dir = base_dir or "."
        self.options = options or RunOptions()
        self.registry = ElementRegistry()
        self.net = None
        self.trace = None
        self.run_dir = ""
        self.run_id = ""
        self.dut_id = ""
        self.device_specs = []
        self.criteria_config = default_criteria()
        self.phase_results = {Phase.STANDARD: [], Phase.CONTEXT: []}
        self.raw_results: list[tuple[str, RawResult, dict]] = []
        self.capture_stack: list = []
        self.artifact_counter = 0
        self.measure_counter = 0
        self.baseline_s = DEFAULT_BASELINE_S
        self.profile_model_path = ""
        self.context_log = []

    # -- setup ----------------------------------------------------------

    def _resolve(self, path: str) -> str:
        return path if os.path.isabs(path) else \
            os.path.join(self.base_dir, path)

    def _apply_options(self):
        opts = self.scenario.option_dict()
        self.baseline_s = float(opts.get("baseline_s", DEFAULT_BASELINE_S))
        self.options.window_s = float(opts.get("window_s",
                                               self.options.window_s))
        self.options.k = float(opts.get("k", self.options.k))
        self.profile_model_path = str(opts.get("profile_model", ""))
        if self.options.score_list:
            self.criteria_config["port_risk"]["score_list"] = \
                self.options.score_list
        if self.options.vuln_db:
            self.criteria_config["known_vulnerabilities"]["vuln_db"] = \
                self.options.vuln_db
        if self.options.attack_db:
            self.criteria_config["vulnerability_probe"]["attack_db"] = \
                self.options.attack_db
        for key, value in opts.items():
            if key.startswith("criteria."):
                _, kind, name = key.split(".", 2)
                if kind not in self.criteria_config:
                    raise ScenarioError(f"criteria for unknown test {kind!r}")
                self.criteria_config[kind][name] = value

    def _spawn_devices(self):
        opts = self.scenario.option_dict()
        devices_path = opts.get("devices")
        if not devices_path:
            raise ScenarioError("scenario needs an 'option: devices=<path>'")
        self.device_specs = load_device_spec(self._resolve(str(devices_path)))
        if not self.device_specs:
            raise ScenarioError("device spec file declares no devices")
        self.dut_id = str(opts.get("dut", self.device_specs[0].device_id))
        ids = [d.device_id for d in self.device_specs]
        if self.dut_id not in ids:
            raise ScenarioError(f"dut {self.dut_id!r} not in device file")
        for spec in self.device_specs:
            self.net.spawn_device(spec, dut=(spec.device_id == self.dut_id))
            self.registry.register(device_descriptor(spec))

    def setup(self):
        if self.options.backend == "memory":
            self.net = MemoryNetwork(seed=self.options.seed)
        elif self.options.backend == "loopback":
            self.net = LoopbackNetwork(seed=self.options.seed)
        else:
            raise ValidationError(
                f"unknown backend {self.options.backend!r}")
        for desc in builtin_descriptors():
            self.registry.register(desc)
        self._apply_options()
        self._spawn_devices()

    def validate(self):
        """Check every action of every test before anything executes."""
        for test in self.scenario.tests:
            for action in test.actions:
                self.registry.validate_action(action)

    def _make_run_dir(self):
        stamp = time.strftime("%Y%m%d-%H%M%S")
        suffix = f"{random.SystemRandom().randrange(16 ** 4):04x}"
        self.run_id = f"run-{stamp}-{suffix}"
        self.run_dir = os.path.join(self.options.runs_dir, self.run_id)
        os.makedirs(self.run_dir)

    # -- action execution -----------------------------------------------

    def _next_artifact(self, stem: str) -> str:
        self.artifact_counter += 1
        return f"{stem}-{self.artifact_counter}"

    def _measure_rng(self, kind: str, target: str) -> random.Random:
        self.measure_counter += 1
        return random.Random(
            f"{self.options.seed}/{kind}/{target}/{self.measure_counter}")

    def _exec_security_test(self, test: Test, action: Action):
        kind = action.element
        params = action.param_dict()
        target = str(params.pop("target"))
        if target not in (d.device_id for d in self.device_specs):
            raise ValidationError(f"{kind}: unknown target {target!r}")
        criteria = {**self.criteria_config[kind], **params}
        ctx = PluginContext(self.net, target, criteria,
                            self._measure_rng(kind, target), initiator=kind)
        raw = PLUGINS[kind].measure(ctx)
        config = {**self.criteria_config, kind: criteria}
        verdict = evaluate_verdict(raw, config)
        self.raw_results.append((test.name, raw, criteria))
        self.phase_results[test.phase].append(
            PhaseResult(test.name, kind, verdict))
        return f"grade={verdict.grade.value}", ()

    def _exec_device(self, test: Test, action: Action):
        handle = self.net.handle(action.element)
        params = action.param_dict()
        if action.command is Command.TEST:
            alive = handle.alive
            grade = Grade.PASS if alive else Grade.FAIL
            detail = (f"device {action.element} is alive and reachable"
                      if alive else
                      f"device {action.element} is not responding")
            self.phase_results[test.phase].append(PhaseResult(
                test.name, "liveness", Verdict(test.name, grade, detail)))
            return f"grade={grade.value}", ()
        if action.command is Command.TEST_CONNECTION:
            ports = handle.spec.open_ports()
            port = int(params.get("port", ports[0] if ports else 0))
            conn = self.net.connect(action.initiator, action.element, port)
            if conn is None:
                raise TestbedError(
                    f"no connection to {action.element}:{port}")
            conn.close()
            return f"connected port={port}", ()
        if action.command is Command.LOGIN:
            ports = handle.spec.open_ports()
            port = int(params.get("port", ports[0] if ports else 0))
            conn = self.net.connect(action.initiator, action.element, port)
            if conn is None:
                raise TestbedError(f"no connection to {action.element}:{port}")
            wire = f"LOGIN {params['user']} {params['password']}"
            reply = conn.request(wire.encode("ascii"), kind="login")
            conn.close()
            text = reply.decode("ascii", "replace") if reply else "no reply"
            return f"login reply: {text}", ()
        if action.command is Command.START:
            if not handle.alive:
                raise TestbedError(f"{action.element} has crashed")
            return "already running", ()
        if action.command is Command.STOP:
            self.net.stop_device(action.element)
            return "stopped", ()
        raise ValidationError(
            f"{action.element}: unhandled command {action.command.value}")

    def _exec_builtin(self, action: Action):
        params = action.param_dict()
        if action.element == CLOCK:
            seconds = float(params["advance_s"])
            if seconds < 0:
                raise ValidationError("advance_s must be >= 0")
            self.net.observe(seconds)
            return f"advanced {seconds:g}s to t={self.net.now():.3f}", ()
        if action.element == GPS_SIM:
            if action.command is Command.START:
                path = self._resolve(str(params["file"]))
                events = load_trajectory(path)
                self.net.advance_context(events)
                self.context_log.extend(events)
                return f"replayed {len(events)} context events", ()
            return "trajectory replay idle", ()
        if action.element == SNIFFER:
            if action.command is Command.START:
                scope = str(params.get("scope", "")) or None
                handle = self.net.start_capture(scope)
                self.capture_stack.append(handle)
                return f"capture {handle.handle_id} started", ()
            if not self.capture_stack:
                raise TestbedError("no capture in progress")
            handle = self.capture_stack.pop()
            records = self.net.stop_capture(handle)
            name = self._next_artifact("capture") + ".cap"
            write_capture(records, os.path.join(self.run_dir, name))
            return f"capture {handle.handle_id}: {len(records)} records", \
                (name,)
        raise ValidationError(f"unknown builtin {action.element!r}")

    def execute_action(self, test: Test, action: Action):
        desc = self.registry.get(action.element)
        if desc.kind is ElementKind.SECURITY_TEST:
            return self._exec_security_test(test, action)
        if desc.kind is ElementKind.DEVICE_UNDER_TEST:
            return self._exec_device(test, action)
        return self._exec_builtin(action)

    def run_test(self, test: Test):
        failed = False
        for action in test.actions:
            if failed:
                self.trace.append(self.net.now(), test.name, action,
                                  outcome="error",
                                  message="skipped: previous action failed")
                continue
            try:
                message, artifacts = self.execute_action(test, action)
            except TestbedError as exc:
                failed = True
                self.trace.append(self.net.now(), test.name, action,
                                  outcome="error", message=str(exc))
            else:
                self.trace.append(self.net.now(), test.name, action,
                                  message=message, artifacts=artifacts)

    # -- phases ----------------------------------------------------------

    def run(self) -> RunReport:
        self.setup()
        try:
            self.validate()        # abort before any action on failure
            self._make_run_dir()
            with open(os.path.join(self.run_dir, "scenario.scn"), "w",
                      encoding="utf-8") as fh:
                from .scenario import serialize_scenario
                fh.write(serialize_scenario(self.scenario))
            self.trace = TraceLog(os.path.join(self.run_dir, "trace.jsonl"))
            try:
                report = self._run_phases()
            finally:
                self.trace.close()
            return report
        finally:
            shutdown = getattr(self.net, "shutdown", None)
            if shutdown:
                shutdown()

    def _run_phases(self) -> RunReport:
        if self.baseline_s > 0:
            self.net.observe(self.baseline_s)
        for test in self.scenario.tests_in_phase(Phase.STANDARD):
            self.run_test(test)
        phase2_start = self.net.now()
        for test in self.scenario.tests_in_phase(Phase.CONTEXT):
            self.run_test(test)
        phase2_end = self.net.now()
        findings = self._forensics(phase2_start, phase2_end)
        profiling, note = self._profiling()
        report = self._build_report(findings, profiling, note)
        write_report(report, self.run_dir)
        return report

    # -- phase 3 ---------------------------------------------------------

    def _organic_records(self):
        """Traffic the fleet produced on its own: no tester probes."""
        fleet = {d.device_id for d in self.device_specs} | {"cloud"}
        return [r for r in self.net.tap.records
                if r.src_addr in fleet and r.dst_addr in fleet
                and self.dut_id in (r.src_addr, r.dst_addr)]

    def _forensics(self, p2_start: float, p2_end: float):
        write_capture(self.net.tap.records,
                      os.path.join(self.run_dir, "capture.cap"))
        samples = self.net.handle(self.dut_id).all_samples()
        write_status(samples, os.path.join(self.run_dir, "status.rec"))

        w = self.options.window_s
        if self.baseline_s < 3 * w or p2_end - p2_start < w:
            return []
        organic = self._organic_records()
        baseline = build_baseline(
            [r for r in organic if r.ts < self.baseline_s],
            [s for s in samples if s.ts < self.baseline_s],
            w, 0.0, self.baseline_s)
        anomalies, findings = analyze_run(
            organic, samples, self.context_log, baseline,
            self.options.k, p2_start, p2_end)
        n = int((p2_end - p2_start) // w)
        series = window_series(organic, samples, w, p2_start, n)
        write_window_stats(series, p2_start, w,
                           os.path.join(self.run_dir, "windows.rec"))
        write_findings(findings,
                       os.path.join(self.run_dir, "findings.rec"))
        return findings

    def _profiling(self):
        if not self.profile_model_path:
            return None, ""
        model = load_model(self._resolve(self.profile_model_path))
        try:
            profile = profile_device(model, self._organic_records(),
                                     self.dut_id)
        except TestbedError as exc:
            return None, str(exc)
        return profile, ""

    # -- report ----------------------------------------------------------

    def _build_report(self, findings, profiling, profiling_note) -> RunReport:
        dut = next(d for d in self.device_specs
                   if d.device_id == self.dut_id)
        verdicts = [r.verdict for r in
                    self.phase_results[Phase.STANDARD]
                    + self.phase_results[Phase.CONTEXT]]
        top = highest_risk(verdicts) if verdicts else None
        overall = {
            "pass_count": sum(1 for v in verdicts
                              if v.grade in CLEAN_GRADES),
            "fail_count": sum(1 for v in verdicts
                              if v.grade in FAILED_GRADES),
            "highest_risk": top.value if top else "-",
        }
        portscans = []
        for test_name, raw, criteria in self.raw_results:
            if raw.kind != "port_risk":
                continue
            assessment = score_ports(raw.data["open_ports"],
                                     criteria.get("score_list"))
            portscans.append({
                "test": test_name,
                "open": assessment.open_ports,
                "scored": assessment.scored,
                "total": assessment.total_score,
                "level": assessment.risk_level.value,
            })
        return RunReport(
            run_id=self.run_id,
            scenario_name=self.scenario.name,
            backend=self.options.backend,
            seed=self.options.seed,
            device_id=self.dut_id,
            device_summary={
                "device_type": dut.device_type,
                "connectivity": [dut.connectivity],
                "protocols": dut.protocols(),
            },
            phase1_results=self.phase_results[Phase.STANDARD],
            phase2_results=self.phase_results[Phase.CONTEXT],
            profiling=profiling,
            profiling_note=profiling_note,
            findings=findings,
            portscans=portscans,
            overall=overall,
            trace_ref="trace.jsonl",
            generated_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
            run_dir=self.run_dir,
        )


def run_scenario(scenario: Scenario, base_dir: str = ".",
                 options: RunOptions | None = None) -> RunReport:
    return ScenarioRunner(scenario, base_dir, options).run()


# ---------------------------------------------------------------------------
# report serialization: report.rec is the source of truth, report.txt is a
# pure rendering of it
# ---------------------------------------------------------------------------

def report_fields(report: RunReport) -> list[tuple[str, str]]:
    """The machine-readable report, one (key, value) per line, in order."""
    f: list[tuple[str, str]] = [
        ("run_id", report.run_id),
        ("generated_at", report.generated_at),
        ("scenario", report.scenario_name),
        ("backend", report.backend),
        ("seed", str(report.seed)),
        ("trace_ref", report.trace_ref),
        ("device", report.device_id),
        ("device.type", report.device_summary["device_type"]),
        ("device.connectivity",
         ",".join(report.device_summary["connectivity"])),
        ("device.protocols", ",".join(report.device_summary["protocols"])),
    ]
    for phase_no, results in (("1", report.phase1_results),
                              ("2", report.phase2_results)):
        f.append((f"phase{phase_no}.count", str(len(results))))
        for i, r in enumerate(results):
            detail = r.verdict.detail.replace("\n", "; ")
            f.append((f"phase{phase_no}.{i}.test", r.test_name))
            f.append((f"phase{phase_no}.{i}.kind", r.kind))
            f.append((f"phase{phase_no}.{i}.grade", r.verdict.grade.value))
            f.append((f"phase{phase_no}.{i}.detail", detail))
    if report.profiling is None:
        f.append(("profiling.present", "no"))
        if report.profiling_note:
            f.append(("profiling.note", report.profiling_note))
    else:
        f.append(("profiling.present", "yes"))
        f += [(f"profiling.{key}", value)
              for key, value in profile_pairs(report.profiling)[1:]]
    f.append(("findings.count", str(len(report.findings))))
    for i, finding in enumerate(report.findings):
        p = f"finding.{i}"
        f.append((f"{p}.classification", finding.classification))
        f.append((f"{p}.corroboration", finding.corroboration))
        f.append((f"{p}.time", f"{finding.virtual_time:.3f}"))
        loc = "-" if finding.location is None else \
            f"{finding.location[0]:.5f},{finding.location[1]:.5f}"
        f.append((f"{p}.location", loc))
        f.append((f"{p}.windows", ";".join(
            f"{a:.3f}:{b:.3f}" for a, b in finding.windows)))
    f.append(("portscan.count", str(len(report.portscans))))
    for i, scan in enumerate(report.portscans):
        p = f"portscan.{i}"
        f.append((f"{p}.test", scan["test"]))
        f.append((f"{p}.open", ",".join(str(n) for n in scan["open"])))
        for entry in scan["scored"]:
            f.append((f"{p}.entry.{entry.port}",
                      f"{format_score(entry.score)}|{entry.description}"))
        f.append((f"{p}.total", format_score(scan["total"])))
        f.append((f"{p}.level", scan["level"]))
    f.append(("overall.pass", str(report.overall["pass_count"])))
    f.append(("overall.fail", str(report.overall["fail_count"])))
    f.append(("overall.highest", report.overall["highest_risk"]))
    return f


def read_report_fields(path: str) -> list[tuple[str, str]]:
    """The (key, value) pairs of a k=v record file such as report.rec."""
    return load(path, lambda fields: list(fields.items()))


def render_report(fields: list[tuple[str, str]]) -> str:
    """Human-readable report, a pure function of the report.rec fields.

    fields are (key, value) pairs, or a mapping such as the records.Fields
    that records.load passes, which places a bad value at its line.
    """
    d = fields if isinstance(fields, Mapping) else dict(fields)
    bar = "=" * 62
    out = [bar, " IoT Security Test Report", bar,
           f"Run:          {d['run_id']}",
           f"Generated:    {d['generated_at']}",
           f"Scenario:     {d['scenario']} "
           f"(backend={d['backend']}, seed={d['seed']})",
           f"Device:       {d['device']} ({d['device.type']})",
           f"Connectivity: {d['device.connectivity']}",
           f"Protocols:    {d['device.protocols'] or '-'}",
           f"Trace:        {d['trace_ref']}",
           ""]
    for phase_no, title in (("1", "Phase 1 - Standard Security Tests"),
                            ("2", "Phase 2 - Context Security Tests")):
        out.append(title)
        count = int(d[f"phase{phase_no}.count"])
        if count == 0:
            out.append("  (none)")
        for i in range(count):
            grade = d[f"phase{phase_no}.{i}.grade"]
            out.append(f"  [{human_grade(Grade(grade)):>14}] "
                       f"{d[f'phase{phase_no}.{i}.test']} "
                       f"({d[f'phase{phase_no}.{i}.kind']})")
            out.append(f"      {d[f'phase{phase_no}.{i}.detail']}")
        out.append("")
    out.append("Phase 3 - Forensic Analysis")
    n_findings = int(d["findings.count"])
    if n_findings == 0:
        out.append("  no findings")
    for i in range(n_findings):
        p = f"finding.{i}"
        head = d[f"{p}.classification"].replace("_", " ")
        loc = d[f"{p}.location"]
        where = "location unknown" if loc == "-" else f"at ({loc})"
        out.append(f"  - {head} {where}, t={d[f'{p}.time']}s "
                   f"[{d[f'{p}.corroboration'].replace('_', ' ')}]")
        out.append(f"      windows: {d[f'{p}.windows']}")
    if d.get("profiling.present") == "yes":
        out.append(f"  profiling: {d['profiling.top']} "
                   f"({float(d['profiling.confidence']) * 100:.2f}% over "
                   f"{d['profiling.sequences']} sequences)")
        for key, value in d.items():
            if key.startswith("profiling.class."):
                cls = key.rsplit(".", 1)[1]
                out.append(f"      {cls:<24} {float(value) * 100:6.2f}%")
    elif d.get("profiling.note"):
        out.append(f"  profiling: skipped ({d['profiling.note']})")
    out.append("")
    n_scans = int(d.get("portscan.count", "0"))
    for i in range(n_scans):
        p = f"portscan.{i}"
        out.append(f"Overall Results ({d[f'{p}.test']})")
        out.append(f"  Open ports: {d[f'{p}.open'] or '-'}")
        for key, value in d.items():
            if key.startswith(f"{p}.entry."):
                port = key.rsplit(".", 1)[1]
                score, _, description = value.partition("|")
                out.append(f"    {port:>6}  {description} "
                           f"with Score: {score}")
        out.append("Metric Score")
        out.append(f"  Total: {d[f'{p}.total']}")
        out.append(f"  Risk Level: {human_grade(Grade(d[f'{p}.level']))}")
        out.append("")
    out.append("Overall Results")
    out.append(f"  Pass: {d['overall.pass']}  Fail: {d['overall.fail']}")
    top = d["overall.highest"]
    out.append("  Highest risk: "
               + (human_grade(Grade(top)) if top != "-" else "none"))
    out.append(bar)
    return "\n".join(out) + "\n"


def write_report(report: RunReport, run_dir: str) -> None:
    fields = report_fields(report)
    with open(os.path.join(run_dir, "report.rec"), "w",
              encoding="utf-8") as fh:
        fh.write(dumps(fields))
    with open(os.path.join(run_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(render_report(fields))
