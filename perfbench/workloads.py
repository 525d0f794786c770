"""The three benchmark workloads: set-up, one timed iteration, checks.

Each workload is a `Workload` of three functions:

* ``setup(work_dir, seed, size)`` generates the input files from the seed,
  loads what iotbed loads before a run, and returns the context that the
  iterations share.  It is timed as ``setup_s``.
* ``run(ctx, out_dir)`` is one timed iteration.  It drives iotbed only
  through its public entry points and returns what the checks need.
* ``check(ctx, out_dir, result)`` inspects the outputs outside the timed
  region and returns an `Outcome`: the work counts, the quality ratio, the
  output digests and every problem found.

iotbed modules are looked up as module attributes at call time (never
bound with ``from ... import``) so that the traced run's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import inputs

import iotbed.cli
import iotbed.orchestrator
import iotbed.scenario
import iotbed.simnet
import iotbed.trace

# Entropy bands of acceptance criterion 9, for payloads of >= 256 bytes.
ENCRYPTED_MIN_BITS = 7.0
PLAINTEXT_MAX_BITS = 5.0
BAND_MIN_SHARE = 0.99
BAND_MIN_BYTES = 256


@dataclass
class Outcome:
    records: int                 # capture records emitted (or read)
    sessions: int                # sessions simulated (or trained on)
    quality: float               # the workload's quality ratio
    digests: tuple[str, ...]     # must repeat across iterations of a seed
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable
    sizes: dict                  # scale name -> size parameters


def _write_files(work_dir: str, files: dict[str, str]) -> None:
    for name, text in files.items():
        with open(os.path.join(work_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _sha256(path: str, drop_keys: tuple[str, ...] = ()) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if drop_keys and line.split(b"=", 1)[0].decode() in drop_keys:
                continue
            digest.update(line)
    return digest.hexdigest()


def _capture_fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split())


def _band_share(rows, modes: dict[str, str], problems: list[str]) -> float:
    """Share of >= 256-byte payloads whose entropy fits the sender's mode."""
    total = conforming = 0
    for src, size, bits in rows:
        mode = modes.get(src)
        if mode is None or size < BAND_MIN_BYTES:
            continue
        total += 1
        if mode == "encrypted":
            conforming += bits >= ENCRYPTED_MIN_BITS
        else:
            conforming += bits <= PLAINTEXT_MAX_BITS
    if total == 0:
        problems.append("no payload records to check entropy bands on")
        return 0.0
    share = conforming / total
    if share < BAND_MIN_SHARE:
        problems.append(f"entropy bands: only {share:.4f} of {total} "
                        "payloads conform")
    return share


# ---------------------------------------------------------------------------
# fleet_telemetry: the simulator alone, on a fleet of about 200 devices
# ---------------------------------------------------------------------------

def setup_fleet(work_dir: str, seed: int, size: dict) -> dict:
    rng = random.Random(f"fleet_telemetry/{seed}")
    dev_text, truth = inputs.fleet_spec(rng, size["devices"])
    end_s = size["virtual_s"]
    # two visits to the trigger zone, at about 1/6 and 1/2 of the run
    a, b = round(end_s / 6), round(end_s / 2)
    inside = [(a, a + 4), (b, b + 4)]
    traj = inputs.zone_trajectory(rng, 1, end_s - 6, 1, inside)
    _write_files(work_dir, {"fleet.dev": dev_text, "fleet.ctx": traj})
    return {
        "seed": seed,
        "end_s": end_s,
        "truth": truth,
        "specs": iotbed.simnet.load_device_spec(
            os.path.join(work_dir, "fleet.dev")),
        "events": iotbed.simnet.load_trajectory(
            os.path.join(work_dir, "fleet.ctx")),
    }


def run_fleet(ctx: dict, out_dir: str):
    simnet = iotbed.simnet
    net = simnet.MemoryNetwork(seed=ctx["seed"])
    for spec in ctx["specs"]:
        net.spawn_device(spec, dut=True)
    net.advance_context(ctx["events"])
    net.observe(ctx["end_s"] - net.now())
    simnet.write_capture(net.tap.records,
                         os.path.join(out_dir, "capture.cap"))
    samples = []
    for spec in ctx["specs"]:
        samples.extend(net.handle(spec.device_id).all_samples())
    simnet.write_status(samples, os.path.join(out_dir, "status.rec"))
    return net


def check_fleet(ctx: dict, out_dir: str, net) -> Outcome:
    truth = ctx["truth"]
    problems = []
    records = net.tap.records
    if len(records) != net.emitted:
        problems.append(f"tap holds {len(records)} records, "
                        f"{net.emitted} emitted")
    modes = {d: "encrypted" for d in truth["cams"]}
    modes.update({d: "plaintext" for d in truth["sensors"]})
    share = _band_share(((r.src_addr, r.size, r.payload_entropy)
                         for r in records), modes, problems)
    sensors = set(truth["sensors"])
    if not any(r.payload_marker for r in records if r.src_addr in sensors):
        problems.append("no GPS marker in any sensor payload")
    bursts: dict[str, int] = {}
    for w in net.burst_log():
        bursts[w.device_id] = bursts.get(w.device_id, 0) + 1
    expected = {d: 2 for d in truth["compromised"]}
    if bursts != expected:
        problems.append(f"attack bursts {bursts}, expected {expected}")
    sessions = len({(r.src_addr, r.src_port) for r in records
                    if r.kind == "background"})
    digests = (_sha256(os.path.join(out_dir, "capture.cap")),
               _sha256(os.path.join(out_dir, "status.rec")))
    return Outcome(net.emitted, sessions, share, digests, problems)


# ---------------------------------------------------------------------------
# profile_train: `iotbed profile train` and `profile test` on 8 classes
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = iotbed.cli.main(argv)
    return code, out.getvalue()


def setup_profile(work_dir: str, seed: int, size: dict) -> dict:
    rng = random.Random(f"profile_train/{seed}")
    classes = inputs.PROFILE_CLASSES[:size["classes"]]
    files = inputs.profile_corpus(rng, classes, size["train_sessions"],
                                  size["holdout_sessions"], ack_rate=0.25)
    _write_files(work_dir, files)
    lines = {name: text.count("\n") for name, text in files.items()}
    train_records = sum(n for name, n in lines.items()
                        if name.endswith("-train.cap"))
    holdout_records = sum(n for name, n in lines.items()
                          if name.endswith("-holdout.cap"))
    return {
        "dir": work_dir,
        "classes": [c[0] for c in classes],
        "train_sessions": size["train_sessions"] * len(classes),
        # holdout captures are read twice: by --holdout and by profile test
        "records_read": train_records + 2 * holdout_records,
        "accuracy_floor": size["accuracy_floor"],
    }


def run_profile(ctx: dict, out_dir: str) -> list[tuple[int, str]]:
    d = ctx["dir"]
    model = os.path.join(out_dir, "model.txt")
    results = [_cli(["profile", "train", "--captures", d,
                     "--labels", os.path.join(d, "train.labels"),
                     "--out", model,
                     "--holdout", os.path.join(d, "holdout.labels")])]
    for name in ctx["classes"]:
        results.append(_cli([
            "profile", "test", "--model", model,
            "--capture", os.path.join(d, f"{name}-holdout.cap"),
            "--record", os.path.join(out_dir, f"{name}.rec")]))
    return results


def _matrix_accuracy(text: str, classes: list[str]) -> float | None:
    """Accuracy from the confusion matrix `profile train` prints."""
    hits = total = 0
    header = None
    for line in text.splitlines():
        cells = line.split()
        if header is None and sorted(cells) == sorted(classes):
            header = cells
        elif header and cells and cells[0] in classes \
                and len(cells) == len(header) + 1:
            counts = [int(c) for c in cells[1:]]
            total += sum(counts)
            hits += counts[header.index(cells[0])]
    return hits / total if total else None


def check_profile(ctx: dict, out_dir: str, results) -> Outcome:
    problems = []
    for code, _ in results:
        if code != 0:
            problems.append(f"profile command exited {code}")
    train_out = results[0][1]
    expected = f"trained on {ctx['train_sessions']} sequences"
    if expected not in train_out:
        problems.append(f"train output lacks {expected!r}")
    accuracy = _matrix_accuracy(train_out, ctx["classes"]) or 0.0
    if accuracy < ctx["accuracy_floor"]:
        problems.append(f"holdout accuracy {accuracy:.4f} below "
                        f"{ctx['accuracy_floor']}")
    for name in ctx["classes"]:
        fields = dict(iotbed.orchestrator.read_report_fields(
            os.path.join(out_dir, f"{name}.rec")))
        if fields.get("top") != name:
            problems.append(f"{name} held-out capture profiled as "
                            f"{fields.get('top')}")
    printed = train_out.replace(out_dir, "<out>")
    digests = (_sha256(os.path.join(out_dir, "model.txt")),
               hashlib.sha256(printed.encode()).hexdigest())
    return Outcome(ctx["records_read"], ctx["train_sessions"], accuracy,
                   digests, problems)


# ---------------------------------------------------------------------------
# audit_run: `iotbed run` of the full context audit
# ---------------------------------------------------------------------------

AUDIT_MODEL = "model.txt"
AUDIT_ACTIONS = 16               # cam1 liveness + 13 plugins + GPS + CLOCK
AUDIT_EXIT_CODE = 1              # cam1's critical OS risk fails the run
VOLATILE_REPORT_KEYS = ("run_id", "generated_at")


def setup_audit(work_dir: str, seed: int, size: dict) -> dict:
    rng = random.Random(f"audit_run/{seed}")
    files = inputs.audit_inputs(rng, AUDIT_MODEL)
    corpus = inputs.profile_corpus(rng, inputs.AUDIT_MODEL_CLASSES,
                                   size["model_sessions"], 0, ack_rate=0.0)
    _write_files(work_dir, {**files, **corpus})
    code, _ = _cli(["profile", "train", "--captures", work_dir,
                    "--labels", os.path.join(work_dir, "train.labels"),
                    "--out", os.path.join(work_dir, AUDIT_MODEL)])
    if code != 0:
        raise RuntimeError(f"audit profile model training exited {code}")
    scenario = os.path.join(work_dir, "audit.scn")
    iotbed.scenario.load_scenario(scenario)      # fail early on bad input
    return {"seed": seed, "scenario": scenario}


def run_audit(ctx: dict, out_dir: str) -> tuple[int, str]:
    return _cli(["--seed", str(ctx["seed"]), "run", ctx["scenario"],
                 "--runs-dir", out_dir])


def check_audit(ctx: dict, out_dir: str, result) -> Outcome:
    code, _ = result
    problems = []
    if code != AUDIT_EXIT_CODE:
        problems.append(f"iotbed run exited {code}, "
                        f"expected {AUDIT_EXIT_CODE}")
    runs = os.listdir(out_dir)
    if len(runs) != 1:
        return Outcome(0, 0, 0.0, (), problems + [f"run dirs: {runs}"])
    run_dir = os.path.join(out_dir, runs[0])

    entries = iotbed.trace.read_trace(os.path.join(run_dir, "trace.jsonl"))
    bad = [f"{e.action.element}: {e.message}" for e in entries if not e.ok()]
    if len(entries) != AUDIT_ACTIONS or bad:
        problems.append(f"{len(entries)} trace actions, not ok: {bad}")

    rec = os.path.join(run_dir, "report.rec")
    fields = iotbed.orchestrator.read_report_fields(rec)
    with open(os.path.join(run_dir, "report.txt"), encoding="utf-8") as fh:
        if fh.read() != iotbed.orchestrator.render_report(fields):
            problems.append("report.txt is not the rendering of report.rec")
    report = dict(fields)
    found = sorted(report.get(f"finding.{i}.classification", "")
                   for i in range(int(report.get("findings.count", 0))))
    if found != ["attack", "attack", "possible_false_alarm"]:
        problems.append(f"findings {found}")
    quality = float(report.get("profiling.class.ip_camera", 0.0))
    if report.get("profiling.top") != "ip_camera":
        problems.append(f"cam1 profiled as {report.get('profiling.top')}")

    cap = os.path.join(run_dir, "capture.cap")
    rows = []
    sessions = set()
    last_seq = n = 0
    with open(cap, encoding="utf-8") as fh:
        for line in fh:
            f = _capture_fields(line)
            n += 1
            last_seq = int(f["seq"])
            rows.append((f["src_addr"], int(f["size"]),
                         float(f["payload_entropy"])))
            if f["kind"] == "background":
                sessions.add((f["src_addr"], f["src_port"]))
    if last_seq != n:
        problems.append(f"capture holds {n} records, {last_seq} emitted")
    _band_share(rows, {"cam1": "encrypted"}, problems)
    digests = (_sha256(cap), _sha256(rec, VOLATILE_REPORT_KEYS))
    return Outcome(n, len(sessions), quality, digests, problems)


WORKLOADS = {
    "fleet_telemetry": Workload(
        "fleet_telemetry", setup_fleet, run_fleet, check_fleet,
        {"full": {"devices": 200, "virtual_s": 60},
         "tiny": {"devices": 20, "virtual_s": 30}}),
    # The accuracy floor sits below every seed tried at the seed commit:
    # full size read 0.91 to 0.97 on seeds 1-20, tiny 0.78 to 0.98.
    "profile_train": Workload(
        "profile_train", setup_profile, run_profile, check_profile,
        {"full": {"classes": 8, "train_sessions": 150,
                  "holdout_sessions": 40, "accuracy_floor": 0.88},
         "tiny": {"classes": 4, "train_sessions": 25,
                  "holdout_sessions": 10, "accuracy_floor": 0.7}}),
    "audit_run": Workload(
        "audit_run", setup_audit, run_audit, check_audit,
        {"full": {"model_sessions": 40},
         "tiny": {"model_sessions": 10}}),
}
