"""Runtime span wrappers around iotbed's layers, for the traced run.

Nothing under ``src/`` changes.  `Tracer.install` replaces each traced
function with a wrapper wherever a caller looks it up: in every iotbed
module that bound the function by name (``from .payload import
shannon_entropy`` binds it in ``simnet.capture``, so patching
``payload.shannon_entropy`` alone would miss those calls), on the class
for methods, and in the ``PLUGINS`` table for the security tests.
`Tracer.uninstall` puts the originals back.

A span records calls, inclusive time and self time (its duration minus
the part its child spans cover).  Spans and counts are kept in memory;
`layer_metrics` turns them into the per-layer metrics at the end of the
run.  While `Tracer.active` is false the wrappers only forward the call,
so output checks made between iterations are not traced.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import iotbed.analysis
import iotbed.cli
import iotbed.orchestrator
import iotbed.profiler.features
import iotbed.profiler.profile
import iotbed.profiler.tree
import iotbed.scenario
import iotbed.sectests.plugins
import iotbed.simnet.capture
import iotbed.simnet.clock
import iotbed.simnet.context
import iotbed.simnet.devspec
import iotbed.simnet.memnet
import iotbed.simnet.payload
import iotbed.simnet.status
import iotbed.trace

# Every record kind the memory backend and the plugins emit.
RECORD_KINDS = ("background", "noise", "attack_probe", "banner", "probe",
                "request", "response", "login", "enum", "downgrade",
                "replay", "vprobe")

# Layers whose work belongs to set-up in some workloads: their metrics add
# the traced set-up's time to the per-iteration time.
SETUP_LAYERS = ("devspec.load", "context.load", "scenario.load")


@dataclasses.dataclass
class Record:
    """Spans and counts recorded while a tracer was active."""

    calls: dict = dataclasses.field(default_factory=lambda: defaultdict(int))
    incl: dict = dataclasses.field(
        default_factory=lambda: defaultdict(float))
    self_s: dict = dataclasses.field(
        default_factory=lambda: defaultdict(float))
    counts: dict = dataclasses.field(
        default_factory=lambda: defaultdict(float))
    gauges: dict = dataclasses.field(default_factory=dict)
    samples: dict = dataclasses.field(
        default_factory=lambda: defaultdict(list))
    first_start: dict = dataclasses.field(default_factory=dict)
    last_end: dict = dataclasses.field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.active = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.rec = Record()

    def take(self) -> "Record":
        """Return what was recorded so far and start a fresh record."""
        rec, self.rec = self.rec, Record()
        return rec

    # -- wrappers -------------------------------------------------------

    def span(self, name, fn, after=None, keep_samples=False):
        """Wrap fn in a span.

        `name` may be a function of the call's arguments.  `after(rec,
        args, kwargs, result)` records counts; `keep_samples` keeps every
        duration for percentiles.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            rec = tracer.rec
            stack = tracer._stack
            stack.append(0.0)
            t0 = perf_counter()
            rec.first_start.setdefault(label, t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.counts[label + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                rec.calls[label] += 1
                rec.incl[label] += dur
                rec.self_s[label] += dur - stack.pop()
                rec.last_end[label] = t1
                if keep_samples:
                    rec.samples[label].append(dur)
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(rec, args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        """Count calls only; the call's time stays with its caller."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.rec.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module, attr: str, make) -> None:
        """Replace module.attr in every iotbed module that binds it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "iotbed"
                                   or mod_name.startswith("iotbed.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def patch_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self) -> None:
        simnet = iotbed.simnet
        fn, meth = self.patch_function, self.patch_method
        span, counter = self.span, self.counter

        def s(name, after=None):
            return lambda f: span(name, f, after)

        def c(name):
            return lambda f: counter(name, f)

        meth(simnet.clock.VirtualClock, "advance", s("clock.advance"))
        meth(simnet.clock.VirtualClock, "schedule", c("clock.schedule"))
        meth(simnet.clock.VirtualClock, "schedule_at", c("clock.schedule"))

        fn(simnet.payload, "shannon_entropy",
           s("payload.entropy", _add_len_arg("payload.entropy_bytes", 0)))
        for name in ("encrypted_payload", "plaintext_payload"):
            fn(simnet.memnet, name,
               s("payload.synth", _add_len_result("payload.synth_bytes")))
        fn(simnet.payload, "find_gps_marker", s("payload.marker"))
        fn(simnet.payload, "gps_marker", s("payload.marker"))

        meth(simnet.capture.CaptureRecord, "build", s("capture.build"))
        fn(simnet.capture, "write_capture",
           s("capture.write", _add_file_size("capture.write_bytes", 1)))
        fn(simnet.capture, "read_capture",
           s("capture.read", _add_len_result("capture.read_records")))

        meth(simnet.memnet.MemoryNetwork, "emit",
             s("memnet.emit", _count_kind))
        meth(simnet.memnet.MemoryNetwork, "observe", s("memnet.observe"))
        meth(simnet.memnet.MemoryNetwork, "advance_context",
             s("memnet.advance_context"))
        meth(simnet.memnet.MemoryNetwork, "scan_ports",
             s("memnet.scan", _add_len_arg("memnet.scan_ports", 3)))
        meth(simnet.memnet.MemoryNetwork, "connect", c("memnet.connect"))
        meth(simnet.memnet.MemConnection, "request", c("memnet.request"))

        fn(simnet.status, "synth_sample", c("status.sample"))
        fn(simnet.status, "write_status", s("status.write"))
        fn(simnet.devspec, "load_device_spec", s("devspec.load"))
        fn(simnet.context, "load_trajectory", s("context.load"))

        plugins = iotbed.sectests.plugins.PLUGINS
        for kind, plugin in list(plugins.items()):
            self._patches.append((plugins, kind, plugin))
            plugins[kind] = dataclasses.replace(
                plugin, measure=span(f"sectests.{kind}.measure",
                                     plugin.measure))
        fn(iotbed.sectests.plugins, "judge", s("sectests.judge"))

        an = iotbed.analysis
        fn(an, "window_series",
           s("analysis.window_series", _add_len_result("analysis.windows")))
        fn(an, "build_baseline", s("analysis.baseline"))
        fn(an, "detect_anomalies",
           s("analysis.detect", _add_len_result("analysis.anomalies")))
        fn(an, "correlate",
           s("analysis.correlate", _add_len_result("analysis.findings")))
        fn(an, "write_findings", s("analysis.write"))
        fn(an, "write_window_stats", s("analysis.write"))

        prof = iotbed.profiler
        fn(prof.features, "extract_features",
           s("features.extract", _features_counts))
        fn(prof.tree, "train_model", s("tree.train", _tree_shape))
        fn(prof.tree, "best_split", s("tree.best_split"))
        fn(prof.tree, "split_gain", c("tree.split_gain"))
        fn(prof.tree, "save_model", s("tree.save"))
        fn(prof.tree, "load_model", s("tree.load"))
        fn(prof.tree, "classify_sequence", s("tree.classify"))
        fn(prof.profile, "profile_device", s("profile.device"))
        fn(prof.profile, "confusion_matrix", s("profile.confusion"))

        runner = iotbed.orchestrator.ScenarioRunner
        meth(runner, "setup", s("orchestrator.setup"))
        meth(runner, "validate", s("orchestrator.validate"))
        meth(runner, "run_test", lambda f: span(
            lambda args: f"orchestrator.{args[1].phase.value}", f))
        meth(runner, "execute_action",
             lambda f: span("orchestrator.action", f, keep_samples=True))
        fn(iotbed.orchestrator, "write_report", s("orchestrator.report"))

        meth(iotbed.trace.TraceLog, "append", s("trace.append"))
        fn(iotbed.scenario, "load_scenario", s("scenario.load"))
        fn(iotbed.cli, "main", s("cli.main", _exit_code))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- per-iteration marks ---------------------------------------------

    def end_iteration(self) -> None:
        """Fold this iteration's orchestrator gaps into the counts."""
        rec = self.rec
        tests = [n for n in ("orchestrator.standard", "orchestrator.context")
                 if n in rec.first_start]
        if tests and "orchestrator.setup" in rec.last_end:
            first = min(rec.first_start[n] for n in tests)
            last = max(rec.last_end[n] for n in tests)
            rec.counts["orchestrator.baseline_gap"] += \
                first - rec.last_end["orchestrator.setup"]
            if "orchestrator.report" in rec.first_start:
                rec.counts["orchestrator.forensics_gap"] += \
                    rec.first_start["orchestrator.report"] - last
        rec.first_start.clear()
        rec.last_end.clear()


# -- count hooks -----------------------------------------------------------

def _add_len_arg(name: str, index: int):
    def after(rec, args, kwargs, result):
        rec.counts[name] += len(args[index])
    return after


def _add_len_result(name: str):
    def after(rec, args, kwargs, result):
        rec.counts[name] += len(result)
    return after


def _add_file_size(name: str, index: int):
    def after(rec, args, kwargs, result):
        rec.counts[name] += os.path.getsize(args[index])
    return after


def _count_kind(rec, args, kwargs, result):
    rec.counts["memnet.records"] += 1
    rec.counts["memnet.records." + kwargs["kind"]] += 1


def _features_counts(rec, args, kwargs, result):
    rec.counts["features.records_in"] += len(args[0])
    rec.counts["features.sessions_out"] += len(result)


def _tree_shape(rec, args, kwargs, result):
    def depth(node):
        if isinstance(node, iotbed.profiler.tree.Node):
            return 1 + max(depth(node.left), depth(node.right))
        return 0
    rec.gauges["tree.nodes"] = sum(1 for _ in result.nodes())
    rec.gauges["tree.depth"] = depth(result.tree)


def _exit_code(rec, args, kwargs, result):
    rec.gauges["cli.exit_code"] = max(
        result, rec.gauges.get("cli.exit_code", 0))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PLUGIN_KINDS = tuple(iotbed.sectests.plugins.PLUGINS)


def _metric_table():
    """(metric, unit, source, key) for every per-layer metric.

    source is one of: calls, incl, self, count (per iteration), gauge
    (last value) or bench (filled in by the run itself).
    """
    t = [
        ("clock.schedule_calls", "count", "calls", "clock.schedule"),
        ("clock.advance_self_s", "s", "self", "clock.advance"),
        ("payload.entropy_calls", "count", "calls", "payload.entropy"),
        ("payload.entropy_bytes", "bytes", "count", "payload.entropy_bytes"),
        ("payload.entropy_s", "s", "incl", "payload.entropy"),
        ("payload.synth_calls", "count", "calls", "payload.synth"),
        ("payload.synth_bytes", "bytes", "count", "payload.synth_bytes"),
        ("payload.synth_s", "s", "incl", "payload.synth"),
        ("payload.marker_s", "s", "incl", "payload.marker"),
        ("capture.build_calls", "count", "calls", "capture.build"),
        ("capture.build_self_s", "s", "self", "capture.build"),
        ("capture.write_s", "s", "incl", "capture.write"),
        ("capture.write_bytes", "bytes", "count", "capture.write_bytes"),
        ("capture.read_s", "s", "incl", "capture.read"),
        ("capture.read_records", "count", "count", "capture.read_records"),
        ("memnet.records", "count", "count", "memnet.records"),
    ]
    t += [(f"memnet.records.{k}", "count", "count", f"memnet.records.{k}")
          for k in RECORD_KINDS]
    t += [
        ("memnet.emit_self_s", "s", "self", "memnet.emit"),
        ("memnet.observe_s", "s", "incl", "memnet.observe"),
        ("memnet.advance_context_s", "s", "incl", "memnet.advance_context"),
        ("memnet.scan_s", "s", "incl", "memnet.scan"),
        ("memnet.scan_ports", "count", "count", "memnet.scan_ports"),
        ("memnet.connect_calls", "count", "calls", "memnet.connect"),
        ("memnet.request_calls", "count", "calls", "memnet.request"),
        ("status.samples", "count", "calls", "status.sample"),
        ("status.write_s", "s", "incl", "status.write"),
        ("devspec.load_s", "s", "incl", "devspec.load"),
        ("context.load_s", "s", "incl", "context.load"),
    ]
    t += [(f"sectests.{k}.measure_s", "s", "incl", f"sectests.{k}.measure")
          for k in PLUGIN_KINDS]
    t += [
        ("sectests.judge_s", "s", "incl", "sectests.judge"),
        ("sectests.errors", "count", "count", "sectests.errors"),
        ("analysis.window_series_s", "s", "incl", "analysis.window_series"),
        ("analysis.baseline_s", "s", "incl", "analysis.baseline"),
        ("analysis.detect_s", "s", "incl", "analysis.detect"),
        ("analysis.correlate_s", "s", "incl", "analysis.correlate"),
        ("analysis.write_s", "s", "incl", "analysis.write"),
        ("analysis.windows", "count", "count", "analysis.windows"),
        ("analysis.anomalies", "count", "count", "analysis.anomalies"),
        ("analysis.findings", "count", "count", "analysis.findings"),
        ("features.extract_s", "s", "incl", "features.extract"),
        ("features.records_in", "count", "count", "features.records_in"),
        ("features.sessions_out", "count", "count", "features.sessions_out"),
        ("tree.train_s", "s", "incl", "tree.train"),
        ("tree.best_split_calls", "count", "calls", "tree.best_split"),
        ("tree.best_split_s", "s", "incl", "tree.best_split"),
        ("tree.split_gain_calls", "count", "calls", "tree.split_gain"),
        ("tree.nodes", "count", "gauge", "tree.nodes"),
        ("tree.depth", "count", "gauge", "tree.depth"),
        ("tree.save_s", "s", "incl", "tree.save"),
        ("tree.load_s", "s", "incl", "tree.load"),
        ("tree.classify_calls", "count", "calls", "tree.classify"),
        ("tree.classify_s", "s", "incl", "tree.classify"),
        ("profile.device_s", "s", "incl", "profile.device"),
        ("profile.confusion_s", "s", "incl", "profile.confusion"),
        ("orchestrator.setup_s", "s", "incl", "orchestrator.setup"),
        ("orchestrator.validate_s", "s", "incl", "orchestrator.validate"),
        ("orchestrator.standard_s", "s", "incl", "orchestrator.standard"),
        ("orchestrator.context_s", "s", "incl", "orchestrator.context"),
        ("orchestrator.baseline_s", "s", "count",
         "orchestrator.baseline_gap"),
        ("orchestrator.forensics_s", "s", "count",
         "orchestrator.forensics_gap"),
        ("orchestrator.report_s", "s", "incl", "orchestrator.report"),
        ("orchestrator.action_ms.p50", "ms", "bench", ""),
        ("orchestrator.action_ms.p90", "ms", "bench", ""),
        ("orchestrator.action_ms.count", "count", "bench", ""),
        ("trace.append_calls", "count", "calls", "trace.append"),
        ("trace.append_s", "s", "incl", "trace.append"),
        ("scenario.load_s", "s", "incl", "scenario.load"),
        ("cli.main_s", "s", "incl", "cli.main"),
        ("cli.exit_code", "count", "gauge", "cli.exit_code"),
        ("bench.iterations", "count", "bench", ""),
        ("bench.untraced_wall_s", "s", "bench", ""),
        ("bench.traced_wall_s", "s", "bench", ""),
        ("bench.trace_overhead_frac", "ratio", "bench", ""),
        ("bench.self_total_s", "s", "bench", ""),
        ("bench.unattributed_s", "s", "bench", ""),
        ("bench.traced_setup_s", "s", "bench", ""),
        ("bench.host_scale", "ratio", "bench", ""),
    ]
    return t


METRICS = _metric_table()


def layer_metrics(it: Record, setup: Record, iterations: int,
                  bench: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-iteration means of the traced iterations.

    `it` holds the traced iterations, `setup` one traced set-up whose load
    layers are added in.  `bench` supplies the run's own figures.
    """
    durations = it.samples["orchestrator.action"]
    bench = dict(bench)
    bench["orchestrator.action_ms.count"] = len(durations)
    if durations:
        qs = statistics.quantiles(durations, n=10, method="inclusive")
        bench["orchestrator.action_ms.p50"] = 1000 * qs[4]
        bench["orchestrator.action_ms.p90"] = 1000 * qs[8]
    sectest_errors = sum(v for k, v in it.counts.items()
                         if k.startswith("sectests.")
                         and k.endswith(".errors"))
    it.counts["sectests.errors"] = sectest_errors
    out = {}
    for metric, unit, source, key in METRICS:
        if source == "bench":
            value = bench.get(metric, 0.0)
        elif source == "gauge":
            value = it.gauges.get(key, 0.0)
        else:
            table = {"calls": it.calls, "incl": it.incl, "self": it.self_s,
                     "count": it.counts}[source]
            value = table.get(key, 0) / iterations
            if key in SETUP_LAYERS:
                value += {"calls": setup.calls, "incl": setup.incl,
                          "self": setup.self_s}[source].get(key, 0)
        out[metric] = (value, unit)
    return out
