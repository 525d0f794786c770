"""Command-line entry point.

Exit codes: 0 when nothing failed and the highest risk is at most minor,
1 when any test failed or a higher risk tier was reached, 2 on runtime,
parse, or validation errors, and for a run that found no risk but in
which an action erred.  All commands are non-interactive and print
deterministically for identical inputs and state.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .config import CliConfig, load_config
from .errors import TestbedError
from .orchestrator import (RunOptions, ScenarioRunner, builtin_descriptors,
                           device_descriptor, render_report, run_scenario)
from .profiler import (TrainParams, confusion_matrix, extract_features,
                       load_model, profile_device, render_confusion,
                       render_profile_record, render_profile_table,
                       save_model, train_model)
from .records import load
from .scenario import load_scenario
from .sectests import (ci_exit_code, format_score, human_grade,
                       load_attack_db, load_score_list, load_vuln_db,
                       parse_ports, score_ports)
from .simnet import BACKENDS, load_device_spec, read_capture

FORMATS_HELP = """\
file formats:
  scenario (.scn)     line directives: scenario:, option: k=v, template_dir:,
                      test: NAME, phase: standard|context,
                      action: INITIATOR, ELEMENT, COMMAND, {k=v, ...},
                      use: TEMPLATE (TEMPLATE.test: action: lines only);
                      option keys: devices, dut, baseline_s, window_s, k,
                      profile_model, criteria.<test>.<param>
  device spec (.dev)  device: ID k=v ... followed by address:/connectivity:/
                      port:/os:/app:/traffic:/timing_range:/robustness:/
                      encryption:/introspection:/stored_data:/monitor:/
                      compromise:/false_alarm: lines
  context script      one event per line: "<t> <lat> <lon> [day]", strictly
                      increasing t
                      (in these three, # starts a comment anywhere on a line)
  score list (.csv)   port,description,score rows; # comments allowed
  vuln db (.csv)      device_type,version_range,vuln_id,severity,description
  attack db (.csv)    probe_id,severity,service_match,payload_hex,
                      expected_safe_signature
  capture (.cap)      one record per line, k=v pairs (seq, ts, addresses,
                      ports, proto, ttl, size, entropy, marker, direction)
  labels file         <capture-filename>=<device_type> per line
  profile model       header, classes:, features:, params:, counts:, tree:,
                      then one "N feature threshold gain size" or
                      "L size class:prob,..." line per node in preorder
  config file         key=value lines (see README); # starts a comment line
  report (.rec/.txt)  machine k=v record and its pure text rendering
"""


def _at_least(low: int):
    """An argparse type: a whole number >= low."""
    def whole_number(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected a whole number >= {low}, got {text!r}")
        return value
    return whole_number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iotbed",
        description="security testbed for simulated IoT devices",
        epilog=FORMATS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="config file path "
                        "(or $IOTBED_CONFIG)")
    parser.add_argument("--backend", choices=tuple(BACKENDS),
                        help="transport backend override")
    parser.add_argument("--seed", type=int, default=None,
                        help="deterministic run seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--runs-dir", help="where run artifacts go")
    p_run.add_argument("--check", action="store_true",
                       help="only validate the scenario and the files it "
                       "names; exit 0 if valid, 2 if not")

    p_scan = sub.add_parser("scan", help="port-scan a device and score it")
    p_scan.add_argument("target", help="device spec file")
    p_scan.add_argument("--device", help="device id within the file")
    p_scan.add_argument("--ports", default="1-65535", type=parse_ports,
                        help="range lo-hi or comma list")
    p_scan.add_argument("--score-list", help="custom score list csv")

    p_prof = sub.add_parser("profile", help="train or apply a device "
                            "profiling model")
    prof_sub = p_prof.add_subparsers(dest="profile_command", required=True)
    p_train = prof_sub.add_parser("train")
    p_train.add_argument("--captures", required=True,
                         help="directory of .cap files")
    p_train.add_argument("--labels", required=True,
                         help="capture-filename=device_type lines")
    p_train.add_argument("--out", required=True, help="model output path")
    p_train.add_argument("--max-depth", type=_at_least(0), default=12)
    p_train.add_argument("--min-leaf", type=_at_least(1), default=5)
    p_train.add_argument("--holdout", help="second labels file evaluated "
                         "as a confusion matrix")
    p_test = prof_sub.add_parser("test")
    p_test.add_argument("--model", required=True)
    p_test.add_argument("--capture", required=True)
    p_test.add_argument("--device", help="restrict to records involving "
                        "this device id")
    p_test.add_argument("--record", help="also write the machine-readable "
                        "profile record here")

    p_list = sub.add_parser("list-elements", help="show registered elements")
    p_list.add_argument("--devices", help="extra device spec file to list")

    p_rep = sub.add_parser("report", help="re-render a persisted run report")
    p_rep.add_argument("run_id")
    p_rep.add_argument("--runs-dir")
    return parser


def _runs_dir(args, config: CliConfig) -> str:
    return getattr(args, "runs_dir", None) or config.runs_dir


def _run_options(args, config: CliConfig) -> RunOptions:
    options = RunOptions(
        backend=args.backend or config.transport_backend,
        seed=args.seed if args.seed is not None else 0,
        runs_dir=_runs_dir(args, config),
        window_s=config.default_window_s,
        k=config.default_k,
    )
    if config.score_list_path:
        options.score_list = load_score_list(config.score_list_path)
    if config.vuln_db_path:
        options.vuln_db = load_vuln_db(config.vuln_db_path)
    if config.attack_db_path:
        options.attack_db = load_attack_db(config.attack_db_path)
    return options


def cmd_run(args, config: CliConfig) -> int:
    scenario = load_scenario(args.scenario)
    if args.check:
        ScenarioRunner(scenario, _run_options(args, config)).validate()
        print(f"{args.scenario}: ok")
        return 0
    report = run_scenario(scenario, _run_options(args, config))
    print(f"run complete: {report.run_id}")
    print(f"report: {os.path.join(report.run_dir, 'report.txt')}")
    fields = dict(report.fields)
    print(f"pass={fields['overall.pass']} fail={fields['overall.fail']} "
          f"highest={fields['overall.highest']} errors={report.errors}")
    return report.exit_code()


def cmd_scan(args, config: CliConfig) -> int:
    specs = load_device_spec(args.target)
    if args.device:
        matches = [s for s in specs if s.device_id == args.device]
        if not matches:
            raise TestbedError(f"no device {args.device!r} in {args.target}")
        spec = matches[0]
    else:
        spec = specs[0]
    score_list = load_score_list(args.score_list) if args.score_list else (
        load_score_list(config.score_list_path)
        if config.score_list_path else None)
    backend = args.backend or config.transport_backend
    seed = args.seed if args.seed is not None else 0
    net = BACKENDS[backend](seed=seed)
    try:
        net.spawn_device(spec)
        found = net.scan_ports("scanner", spec.device_id, args.ports)
    finally:
        net.shutdown()
    assessment = score_ports([p for p, _ in found], score_list)
    print(f"Overall Results ({spec.device_id})")
    print(f"  Open ports: "
          f"{','.join(str(p) for p in assessment.open_ports) or '-'}")
    for entry in assessment.scored:
        print(f"    {entry.port:>6}  {entry.description} "
              f"with Score: {format_score(entry.score)}")
    if assessment.unscored:
        print("  Unscored ports: "
              + ",".join(str(p) for p in assessment.unscored))
    print("Metric Score")
    print(f"  Total: {format_score(assessment.total_score)}")
    print(f"  Risk Level: {human_grade(assessment.risk_level)}")
    return ci_exit_code(assessment.risk_level)


def _labels(fields) -> dict[str, str]:
    labels = {}
    for name in fields:
        label = fields[name].strip()
        if not label:
            raise ValueError(f"empty label for {name.strip()!r}")
        labels[name.strip()] = label
    return labels


def _read_labels(path: str) -> dict[str, str]:
    labels = load(path, _labels)
    if not labels:
        raise TestbedError(f"{path}: no labels")
    return labels


def _labeled_instances(captures_dir: str, labels: dict[str, str]):
    instances = []
    for name in sorted(labels):
        path = os.path.join(captures_dir, name)
        instances += extract_features(read_capture(path),
                                      label=labels[name])
    return instances


def cmd_profile_train(args, config: CliConfig) -> int:
    labels = _read_labels(args.labels)
    instances = _labeled_instances(args.captures, labels)
    params = TrainParams(max_depth=args.max_depth, min_leaf=args.min_leaf)
    model = train_model(instances, params)
    save_model(model, args.out)
    print(f"trained on {len(instances)} sequences, "
          f"{len(model.classes)} classes: {', '.join(model.classes)}")
    print(f"model written: {args.out}")
    if args.holdout:
        held = _labeled_instances(args.captures, _read_labels(args.holdout))
        print(render_confusion(confusion_matrix(model, held)))
    return 0


def cmd_profile_test(args, config: CliConfig) -> int:
    model = load_model(args.model)
    records = read_capture(args.capture)
    profile = profile_device(model, records, args.device or None)
    print(render_profile_table(profile))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write(render_profile_record(profile))
    return 0


def cmd_list_elements(args, config: CliConfig) -> int:
    descriptors = list(builtin_descriptors())
    device_files = []
    if os.path.isdir(config.registry_dir):
        device_files = sorted(glob.glob(
            os.path.join(config.registry_dir, "*.dev")))
    if args.devices:
        device_files.append(args.devices)
    n_devices = 0
    for path in device_files:
        for spec in load_device_spec(path):
            descriptors.append(device_descriptor(spec))
            n_devices += 1
    for desc in sorted(descriptors, key=lambda d: (d.kind.value, d.id)):
        commands = ",".join(sorted(c.value for c in desc.driver))
        print(f"{desc.id:<24} {desc.kind.value:<18} {commands}")
        if desc.description:
            print(f"{'':<24} {desc.description}")
    if n_devices == 0:
        print("no device elements registered "
              f"(no .dev files under {config.registry_dir!r})")
    return 0


def cmd_report(args, config: CliConfig) -> int:
    run_dir = os.path.join(_runs_dir(args, config), args.run_id)
    rec_path = os.path.join(run_dir, "report.rec")
    if not os.path.exists(rec_path):
        raise TestbedError(f"unknown run id {args.run_id!r} "
                           f"(no {rec_path})")
    sys.stdout.write(load(rec_path, render_report))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "run":
            return cmd_run(args, config)
        if args.command == "scan":
            return cmd_scan(args, config)
        if args.command == "profile":
            if args.profile_command == "train":
                return cmd_profile_train(args, config)
            return cmd_profile_test(args, config)
        if args.command == "list-elements":
            return cmd_list_elements(args, config)
        return cmd_report(args, config)
    except (TestbedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
