"""Run coordinator: executes scenarios through the three phases and
produces the report.

Phase 1 runs the standard security tests, phase 2 the context tests (with
location/time scripts driving the simulated network), phase 3 the forensic
analysis plus optional profiling, then the report.  Every action leaves
exactly one trace entry; a failing action errs its enclosing test and the
remaining actions of that test are logged as skipped, but the run carries
on with the next test.  Before any network or run directory exists,
validate() checks every option, the devices file and dut, and each action
against the element table, and loads the trajectories and profile model;
a failure is AnalysisError("<path>:<line>: ...") at the scenario or
template line at fault, or in the named file.  Action parameter and
criteria values (advance_s, port, ports, observe_s, ...) are checked when
the action reads them; a bad one errs that action.

All artifacts of one run live in a per-run directory: the scenario copy,
trace, captures, status series, window statistics, findings, and the
report in machine (`report.rec`) and human (`report.txt`) form.  The report
is built once, as `report.rec`'s (key, value) pairs (`RunReport.fields`,
made by `_build_report` alone); the human form is rendered purely from
those pairs, so re-rendering a persisted run is byte-identical.
"""

from __future__ import annotations

import os
import random
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from .analysis import (DEFAULT_K, DEFAULT_WINDOW_S, AttackFinding,
                       build_baseline, correlate, detect_anomalies,
                       window_series, write_findings, write_window_stats)
from .errors import TestbedError, ValidationError
from .model import (Action, Command, ElementDescriptor, ElementKind,
                    ParamSchema, Phase, Scenario, Test, param_count,
                    param_number)
from .profiler import (ProfileDistribution, load_model, profile_device,
                       profile_pairs)
from .records import Source, dumps, load
from .sectests import (CLEAN_GRADES, FAILED_GRADES, PLUGINS, Grade,
                       PluginContext, RawResult, Verdict, ci_exit_code,
                       format_score, highest_risk, human_grade, judge,
                       score_ports)
from .simnet import (BACKENDS, load_device_spec, load_trajectory,
                     write_capture, write_status)
from .trace import TraceLog

CLOCK = "CLOCK"
GPS_SIM = "GPS_SIM"
SNIFFER = "SNIFFER"

DEFAULT_BASELINE_S = 30.0


def _capture_scope(action: Action) -> set[str] | None:
    """The device ids a SNIFFER START captures; None means every device."""
    scope = str(action.get("scope", ""))
    return {scope} if scope else None


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
    for kind, plugin in PLUGINS.items():
        sim.append(ElementDescriptor(
            kind, ElementKind.SECURITY_TEST,
            {Command.TEST: ParamSchema(required=("target",),
                                       optional=plugin.params)},
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
        description=f"simulated {spec.device_type}")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def default_criteria() -> dict[str, dict]:
    return {kind: {} for kind in PLUGINS}


# Criteria that only the config file supplies, and the test each is for.
CONFIG_CRITERIA = {"score_list": "port_risk",
                   "vuln_db": "known_vulnerabilities",
                   "attack_db": "vulnerability_probe"}


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
    run_dir: str
    fields: list[tuple[str, str]]   # report.rec's pairs, in file order
    phase1_results: list[PhaseResult]
    phase2_results: list[PhaseResult]
    findings: list[AttackFinding]
    profiling: ProfileDistribution | None
    errors: int = 0            # actions that erred; not written to report.rec

    def verdicts(self) -> list[Verdict]:
        return [r.verdict for r in self.phase1_results + self.phase2_results]

    def exit_code(self) -> int:
        return ci_exit_code(highest_risk(self.verdicts()), self.errors)


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
    def __init__(self, scenario: Scenario, options: RunOptions | None = None):
        self.scenario = scenario
        self.options = options or RunOptions()
        self.elements: dict[str, ElementDescriptor] = {}
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
        self.errors = 0
        self.baseline_s = DEFAULT_BASELINE_S
        self.window_s = self.options.window_s
        self.k = self.options.k
        self.profile_model = None
        self.trajectories: dict[str, list] = {}    # file param -> its events

    # -- validation ------------------------------------------------------

    def _load(self, loader, name):
        """loader(path) for a file the scenario names, relative to the
        scenario's own folder; ValueError if it cannot be read, so that the
        line naming it is reported."""
        folder = os.path.dirname(os.path.abspath(self.scenario.origin[0]))
        path = os.path.join(folder, str(name))
        try:
            return loader(path)
        except OSError as exc:
            raise ValueError(f"cannot read {path}: "
                             f"{exc.strerror or exc}") from None

    def _check_option(self, key: str, value):
        if key in ("baseline_s", "window_s", "k"):    # attributes of self
            try:
                number = param_number({key: value}, key)
            except ValidationError as exc:
                raise ValueError(str(exc)) from None
            if number == 0 and key != "baseline_s":
                raise ValueError(f"{key} must be > 0, got {value!r}")
            setattr(self, key, number)
        elif key.startswith("criteria."):
            kind, _, name = key[len("criteria."):].partition(".")
            if kind not in self.criteria_config:
                raise ValueError(f"{key}: criteria for unknown test {kind!r}")
            if not name:
                raise ValueError(f"{key}: criteria option names no parameter")
            if name not in PLUGINS[kind].params:
                raise ValueError(f"{key}: {kind} takes no parameter "
                                 f"{name!r}")
            if name in CONFIG_CRITERIA:
                raise ValueError(f"{key}: {name} is read only from the "
                                 "config file")
            self.criteria_config[kind][name] = value
        elif key not in ("devices", "dut", "profile_model"):
            raise ValueError(f"unknown option {key!r}")

    def _check_action(self, action: Action):
        desc = self.elements.get(action.element)
        if desc is None:
            raise ValueError(f"unknown element {action.element!r}")
        schema = desc.driver.get(action.command)
        if schema is None:
            raise ValueError(f"element {action.element!r} does not support "
                             f"{action.command.value}")
        try:
            schema.check(action.param_dict())
        except ValidationError as exc:
            raise ValueError(
                f"{action.element}/{action.command.value}: {exc}") from None
        if desc.kind is ElementKind.SECURITY_TEST:
            target = str(action.get("target"))
            if target not in (d.device_id for d in self.device_specs):
                raise ValueError(f"{action.element}: unknown target "
                                 f"{target!r}")
            for name, _ in action.params:
                if name in CONFIG_CRITERIA:
                    raise ValueError(f"{action.element}: {name} is read "
                                     "only from the config file")
        if action.element == SNIFFER and action.command is Command.START:
            for device_id in _capture_scope(action) or ():
                if device_id not in (d.device_id for d in self.device_specs):
                    raise ValueError(f"{SNIFFER}: unknown scope device "
                                     f"{device_id!r}")
        if action.element == GPS_SIM and action.command is Command.START:
            name = str(action.get("file"))
            if name not in self.trajectories:
                self.trajectories[name] = self._load(load_trajectory, name)

    def validate(self):
        """Check the scenario before any network or run directory exists
        (see the module docstring), keeping what the run needs: the typed
        options and criteria, the device specs and element table, the
        trajectories and the profile model."""
        if self.options.backend not in BACKENDS:
            raise ValidationError(
                f"unknown backend {self.options.backend!r}")
        for name, kind in CONFIG_CRITERIA.items():
            if getattr(self.options, name):
                self.criteria_config[kind][name] = getattr(self.options, name)
        path, line = self.scenario.origin
        lines = self.scenario.option_lines
        opts = self.scenario.option_dict()

        def at(key: str) -> Source:
            return Source(path, lines.get(key, line))

        for key, value in opts.items():
            with at(key).parsing():
                self._check_option(key, value)
        if "devices" not in opts:
            raise at("devices").error(
                "scenario needs an 'option: devices=<path>'")
        with at("devices").parsing():
            self.device_specs = self._load(load_device_spec, opts["devices"])
            self.elements = {d.id: d for d in builtin_descriptors()}
            for spec in self.device_specs:
                if spec.device_id in self.elements:
                    raise ValueError(f"device {spec.device_id!r} has the id "
                                     "of a builtin element")
                self.elements[spec.device_id] = device_descriptor(spec)
        self.dut_id = str(opts.get("dut", self.device_specs[0].device_id))
        if self.dut_id not in (d.device_id for d in self.device_specs):
            raise at("dut").error(f"dut {self.dut_id!r} not in device file")
        if str(opts.get("profile_model", "")):
            with at("profile_model").parsing():
                self.profile_model = self._load(load_model,
                                                opts["profile_model"])
        for test in self.scenario.tests:
            for action in test.actions:
                with Source(*(action.origin or self.scenario.origin)) \
                        .parsing():
                    self._check_action(action)

    def setup(self):
        """The network of the validated scenario, its devices spawned."""
        self.net = BACKENDS[self.options.backend](seed=self.options.seed)
        for spec in self.device_specs:
            self.net.spawn_device(spec, dut=(spec.device_id == self.dut_id))

    def _make_run_dir(self):
        """A new run-<second>-<4 hex digits> directory; a suffix another
        run already took is drawn again."""
        os.makedirs(self.options.runs_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        while True:
            suffix = f"{random.SystemRandom().randrange(16 ** 4):04x}"
            self.run_id = f"run-{stamp}-{suffix}"
            self.run_dir = os.path.join(self.options.runs_dir, self.run_id)
            try:
                os.mkdir(self.run_dir)
                return
            except FileExistsError:
                pass

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
        criteria = {**self.criteria_config[kind], **params}
        ctx = PluginContext(self.net, target, criteria,
                            self._measure_rng(kind, target), initiator=kind)
        raw = PLUGINS[kind].measure(ctx)
        verdict = judge(raw, criteria)
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
        if action.command in (Command.TEST_CONNECTION, Command.LOGIN):
            ports = handle.spec.open_ports()
            port = param_count(params, "port", ports[0] if ports else 0)
            conn = self.net.connect(action.initiator, action.element, port)
            if conn is None:
                raise TestbedError(f"no connection to {action.element}:{port}")
            if action.command is Command.TEST_CONNECTION:
                conn.close()
                return f"connected port={port}", ()
            wire = f"LOGIN {params['user']} {params['password']}"
            reply = conn.request(wire.encode("ascii"), kind="login")
            conn.close()
            text = reply.decode("ascii", "replace") if reply else "no reply"
            return f"login reply: {text}", ()
        if action.command is Command.START:
            if not handle.alive:
                raise TestbedError(f"{action.element} is not running")
            return "already running", ()
        if action.command is Command.STOP:
            self.net.stop_device(action.element)
            return "stopped", ()
        raise ValidationError(
            f"{action.element}: unhandled command {action.command.value}")

    def _exec_builtin(self, action: Action):
        params = action.param_dict()
        if action.element == CLOCK:
            seconds = param_number(params, "advance_s")
            self.net.observe(seconds)
            return f"advanced {seconds:g}s to t={self.net.now():.3f}", ()
        if action.element == GPS_SIM:
            if action.command is Command.START:
                events = self.trajectories[str(params["file"])]
                self.net.advance_context(events)
                return f"replayed {len(events)} context events", ()
            return "trajectory replay idle", ()
        if action.element == SNIFFER:
            if action.command is Command.START:
                handle = self.net.start_capture(_capture_scope(action))
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
        desc = self.elements[action.element]
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
                self.errors += 1
                self.trace.append(self.net.now(), test.name, action,
                                  outcome="error", message=str(exc))
            else:
                self.trace.append(self.net.now(), test.name, action,
                                  message=message, artifacts=artifacts)

    # -- phases ----------------------------------------------------------

    def run(self) -> RunReport:
        self.validate()
        try:
            self.setup()
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
            if self.net is not None:
                self.net.shutdown()

    def _run_phases(self) -> RunReport:
        if self.baseline_s > 0:
            self.net.observe(self.baseline_s)
        for test in self.scenario.tests_in_phase(Phase.STANDARD):
            self.run_test(test)
        phase2_start = self.net.now()
        for test in self.scenario.tests_in_phase(Phase.CONTEXT):
            self.run_test(test)
        phase2_end = self.net.now()
        organic = self._organic_records()
        findings = self._forensics(organic, phase2_start, phase2_end)
        profiling, note = self._profiling(organic)
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

    def _forensics(self, organic, p2_start: float, p2_end: float):
        write_capture(self.net.tap.records,
                      os.path.join(self.run_dir, "capture.cap"))
        samples = self.net.handle(self.dut_id).all_samples()
        write_status(samples, os.path.join(self.run_dir, "status.rec"))

        w = self.window_s
        baseline_series = window_series(organic, samples, w,
                                        0.0, self.baseline_s)
        series = window_series(organic, samples, w, p2_start, p2_end)
        if len(baseline_series) < 3 or not series:
            return []
        anomalies = detect_anomalies(
            series, p2_start, build_baseline(baseline_series, w), self.k)
        findings = correlate(anomalies, self.net.feed.history, w)
        write_window_stats(series, p2_start, w,
                           os.path.join(self.run_dir, "windows.rec"))
        write_findings(findings,
                       os.path.join(self.run_dir, "findings.rec"))
        return findings

    def _profiling(self, organic):
        if self.profile_model is None:
            return None, ""
        try:
            profile = profile_device(self.profile_model, organic,
                                     self.dut_id)
        except TestbedError as exc:
            return None, str(exc)
        return profile, ""

    # -- report ----------------------------------------------------------

    def _build_report(self, findings, profiling, profiling_note) -> RunReport:
        """The run's results and report.rec's (key, value) pairs, in file
        order; the only place those pairs are made."""
        dut = next(d for d in self.device_specs
                   if d.device_id == self.dut_id)
        phases = (self.phase_results[Phase.STANDARD],
                  self.phase_results[Phase.CONTEXT])
        f = [("run_id", self.run_id),
             ("generated_at", time.strftime("%Y-%m-%dT%H:%M:%S")),
             ("scenario", self.scenario.name),
             ("backend", self.options.backend),
             ("seed", str(self.options.seed)),
             ("trace_ref", "trace.jsonl"),
             ("device", self.dut_id),
             ("device.type", dut.device_type),
             ("device.connectivity", dut.connectivity),
             ("device.protocols", ",".join(dut.protocols()))]
        for phase_no, results in enumerate(phases, 1):
            f.append((f"phase{phase_no}.count", str(len(results))))
            for i, r in enumerate(results):
                p = f"phase{phase_no}.{i}"
                f += [(f"{p}.test", r.test_name), (f"{p}.kind", r.kind),
                      (f"{p}.grade", r.verdict.grade.value),
                      (f"{p}.detail", r.verdict.detail.replace("\n", "; "))]
        if profiling is None:
            f.append(("profiling.present", "no"))
            if profiling_note:
                f.append(("profiling.note", profiling_note))
        else:
            f.append(("profiling.present", "yes"))
            f += [(f"profiling.{key}", value)
                  for key, value in profile_pairs(profiling)[1:]]
        f.append(("findings.count", str(len(findings))))
        for i, finding in enumerate(findings):
            p = f"finding.{i}"
            loc = "-" if finding.location is None else \
                f"{finding.location[0]:.5f},{finding.location[1]:.5f}"
            f += [(f"{p}.classification", finding.classification),
                  (f"{p}.corroboration", finding.corroboration),
                  (f"{p}.time", f"{finding.virtual_time:.3f}"),
                  (f"{p}.location", loc),
                  (f"{p}.windows", ";".join(
                      f"{a:.3f}:{b:.3f}" for a, b in finding.windows))]
        scans = [(test_name, score_ports(raw.data["open_ports"],
                                         criteria.get("score_list")))
                 for test_name, raw, criteria in self.raw_results
                 if raw.kind == "port_risk"]
        f.append(("portscan.count", str(len(scans))))
        for i, (test_name, scan) in enumerate(scans):
            p = f"portscan.{i}"
            f.append((f"{p}.test", test_name))
            f.append((f"{p}.open", ",".join(map(str, scan.open_ports))))
            f += [(f"{p}.entry.{entry.port}",
                   f"{format_score(entry.score)}|{entry.description}")
                  for entry in scan.scored]
            f.append((f"{p}.total", format_score(scan.total_score)))
            f.append((f"{p}.level", scan.risk_level.value))
        verdicts = [r.verdict for r in phases[0] + phases[1]]
        top = highest_risk(verdicts)
        f += [("overall.pass",
               str(sum(v.grade in CLEAN_GRADES for v in verdicts))),
              ("overall.fail",
               str(sum(v.grade in FAILED_GRADES for v in verdicts))),
              ("overall.highest", top.value if top else "-")]
        return RunReport(self.run_id, self.run_dir, f, *phases, findings,
                         profiling, self.errors)


def run_scenario(scenario: Scenario,
                 options: RunOptions | None = None) -> RunReport:
    return ScenarioRunner(scenario, options).run()


# ---------------------------------------------------------------------------
# report serialization: report.rec is the source of truth, report.txt is a
# pure rendering of it
# ---------------------------------------------------------------------------

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
    with open(os.path.join(run_dir, "report.rec"), "w",
              encoding="utf-8") as fh:
        fh.write(dumps(report.fields))
    with open(os.path.join(run_dir, "report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(render_report(report.fields))
