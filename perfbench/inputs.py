"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of a `random.Random` and a size, so the
same seed gives byte-identical input files.  iotbed only ever sees the
files written from these strings: device specs (.dev), trajectory scripts
(.ctx), scenarios (.scn), labelled captures (.cap) and label files.
"""

from __future__ import annotations

import random

# Trigger zone of every compromised device, and how far "away" rows sit.
ZONE_LAT = 32.0853
ZONE_LON = 34.7818
ZONE_RADIUS_M = 150
AWAY_DLAT = 0.01                    # about 1.1 km north: outside the zone

PROBE_PORTS = "21,22,23,80,443,8080,8883,9100"


# ---------------------------------------------------------------------------
# fleet_telemetry
# ---------------------------------------------------------------------------

def fleet_spec(rng: random.Random, n_devices: int) -> tuple[str, dict]:
    """Device file for a mixed fleet, plus the ground truth the checks use.

    About 60% encrypted cameras, 30% plaintext sensors holding sensitive
    data (so their payloads carry GPS markers) and 10% silent hubs that
    only answer probes.  About 5% of the talking devices carry a
    compromise trigger aimed at three hubs.
    """
    n_hubs = max(1, round(n_devices * 0.10))
    n_sensors = round(n_devices * 0.30)
    n_cams = n_devices - n_hubs - n_sensors
    hubs = [f"hub{i:03d}" for i in range(n_hubs)]
    cams = [f"cam{i:03d}" for i in range(n_cams)]
    sensors = [f"sen{i:03d}" for i in range(n_sensors)]
    compromised = set(rng.sample(cams + sensors,
                                 max(1, round(n_devices * 0.05))))
    talkers = cams + sensors
    # Traffic parameters come from fixed ladders that the seed only
    # shuffles, so every seed asks for the same amount of simulated work.
    rates = _ladder(rng, (4, 5, 6, 7, 8), len(talkers))
    periods = _ladder(rng, (1, 2, 5), len(talkers))
    spreads = _ladder(rng, (40, 60, 90), len(talkers))
    gaps = _ladder(rng, (60, 80, 100, 120, 140), len(talkers))
    cam_sizes = _ladder(rng, (450, 560, 670, 780, 900), len(cams))
    sensor_sizes = _ladder(rng, (380, 460, 540, 620, 700), len(sensors))
    sizes = dict(zip(cams, cam_sizes)) | dict(zip(sensors, sensor_sizes))
    sensor_ttls = dict(zip(sensors, _ladder(rng, (64, 128), len(sensors))))
    blocks = []
    for dev in hubs:
        blocks.append(
            f"device: {dev} type=hub connectivity=ethernet\n"
            f'port: 80 service=http banner="hub web ui"\n'
            f"port: 443 service=https\n"
            f"port: 8883 service=mqtt\n"
            f"traffic: session_rate=0\n"
            f"monitor: period_s=5\n")
    for i, dev in enumerate(talkers):
        is_cam = dev.startswith("cam")
        lines = [
            f"device: {dev} type={'ip_camera' if is_cam else 'sensor'} "
            "connectivity=wifi",
            "port: 443 service=https",
            f"traffic: size_mean={sizes[dev]} size_stddev={spreads[i]} "
            f"gap_ms={gaps[i]} gap_stddev_ms=15 session_rate={rates[i]} "
            f"ttl={64 if is_cam else sensor_ttls[dev]}",
            f"monitor: period_s={periods[i]}",
        ]
        if not is_cam:
            lines.append("encryption: payload=plaintext")
            lines.append("stored_data: sensitive")
        if dev in compromised:
            targets = ",".join(rng.sample(hubs, min(3, len(hubs))))
            lines.append(
                f"compromise: lat={ZONE_LAT} lon={ZONE_LON} "
                f"radius_m={ZONE_RADIUS_M} ports={PROBE_PORTS} "
                f"interval_ms=20 targets={targets}")
        blocks.append("\n".join(lines) + "\n")
    truth = {"cams": cams, "sensors": sensors, "hubs": hubs,
             "compromised": sorted(compromised)}
    return "\n".join(blocks), truth


def _ladder(rng: random.Random, values: tuple, n: int) -> list:
    """n values cycling through `values`, in a seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def zone_trajectory(rng: random.Random, t_first: int, t_last: int,
                    step: int, inside: list[tuple[int, int]]) -> str:
    """Trajectory that sits inside the trigger zone during `inside` spans.

    Entering the zone twice fires every compromised device's burst twice.
    """
    rows = []
    for t in range(t_first, t_last + 1, step):
        is_in = any(lo <= t <= hi for lo, hi in inside)
        lat = ZONE_LAT if is_in else ZONE_LAT + AWAY_DLAT
        # sub-metre wobble keeps rows distinct without leaving the zone
        lat += rng.uniform(-2e-6, 2e-6)
        rows.append(f"{t} {lat:.6f} {ZONE_LON:.6f}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# audit_run: the canonical context-audit fleet, every plugin against cam1
# ---------------------------------------------------------------------------

AUDIT_FLEET = """\
device: cam1 type=ip_camera connectivity=wifi
port: 80 service=http banner="lighttpd 1.4.35" default_creds=admin:admin
port: 443 service=https
os: busybox 1.19 up_to_date=no risk=critical
app: lighttpd 1.4.35
traffic: size_mean=512 size_stddev=96 gap_ms=100 session_rate=6 ttl=64
timing_range: min_ms=1000 max_ms=3000
stored_data: sensitive
introspection: remote_blocked
monitor: period_s=1 cpu_base=10 cpu_noise=2 cpu_spike=60
compromise: lat=32.0853 lon=34.7818 radius_m=150 ports=21,22,23,80,443,8080,8883,9100,9101,9102 interval_ms=50 targets=hub1,srv1,srv2
false_alarm: at_s={false_alarm_at} packets=40 gap_ms=50

device: hub1 type=hub connectivity=ethernet
port: 80 service=http banner="hub web ui"
traffic: session_rate=0

device: srv1 type=server connectivity=ethernet
traffic: session_rate=0

device: srv2 type=server connectivity=ethernet
traffic: session_rate=0
"""

# The 1-65535 scan alone advances virtual time about 66 s, so the context
# script starts well after the standard phase ends.
AUDIT_SHIFT_S = 400

PLUGIN_ACTIONS = (
    "port_risk, TEST, {target=cam1, ports=1-65535}",
    "scan_detectability, TEST, {target=cam1}",
    "fingerprint, TEST, {target=cam1}",
    "process_enumeration, TEST, {target=cam1}",
    "data_leakage, TEST, {target=cam1}",
    "data_collection, TEST, {target=cam1}",
    "management_access, TEST, {target=cam1}",
    "downgrade_attack, TEST, {target=cam1}",
    "replay_attack, TEST, {target=cam1}",
    "delay_attack, TEST, {target=cam1, delay_ms=500}",
    "tamper_attack, TEST, {target=cam1}",
    "known_vulnerabilities, TEST, {target=cam1}",
    "vulnerability_probe, TEST, {target=cam1}",
)


def audit_inputs(rng: random.Random, model_name: str) -> dict[str, str]:
    """Device file, trajectory and scenario for the full audit.

    The seed moves the context script by up to 20 s; the attack windows
    and the false alarm keep their places relative to it.
    """
    shift = AUDIT_SHIFT_S + 5 * rng.randrange(5)
    inside = [(100 + shift, 120 + shift), (200 + shift, 220 + shift)]
    fleet = AUDIT_FLEET.format(false_alarm_at=330 + shift)
    traj = zone_trajectory(rng, 60 + shift, 390 + shift, 5, inside)
    actions = ["action: USER, cam1, TEST, {}"]
    actions += [f"action: USER, {a}" for a in PLUGIN_ACTIONS]
    scenario = "\n".join([
        "scenario: fleet_audit",
        "option: devices=devices.dev",
        "option: dut=cam1",
        "option: baseline_s=50",
        "option: window_s=5",
        "option: k=3",
        f"option: profile_model={model_name}",
        "",
        "test: standard_suite",
        "phase: standard",
        *actions,
        "",
        "test: context_sweep",
        "phase: context",
        "action: USER, GPS_SIM, START, {traj.ctx}",
        "action: USER, CLOCK, SET, {advance_s=30}",
    ]) + "\n"
    return {"devices.dev": fleet, "traj.ctx": traj, "audit.scn": scenario}


# ---------------------------------------------------------------------------
# labelled captures for the profiler
# ---------------------------------------------------------------------------

# name, size mean, gap mean (ms), ttl.  Neighbours overlap in size and gap
# (stddev is 18% of the mean, steps are about 25%), and pairs share a ttl,
# so the tree needs several levels and per-session accuracy is below 1.
PROFILE_CLASSES = (
    ("thermostat", 160, 220, 64),
    ("plug", 200, 180, 64),
    ("bulb", 250, 145, 128),
    ("sensor", 310, 115, 128),
    ("speaker", 390, 92, 64),
    ("camera", 490, 74, 64),
    ("gateway", 610, 59, 255),
    ("nvr", 760, 47, 255),
)

# Classes the audit's profiling model is trained on.  "ip_camera" matches
# the telemetry of the audited cam1 (512 B mean, 100 ms gaps, ttl 64) and
# is the class of smallest packets, so cam1's empty probe and banner
# sessions, which no class resembles, fall to it as well.  Its corpus has
# no acknowledgements: an ack-heavy "hub" session can average under
# 500 B and pull the size split into cam1's own range.
AUDIT_MODEL_CLASSES = (
    ("ip_camera", 512, 100, 64),
    ("hub", 2000, 1000, 128),
    ("server", 3000, 10, 255),
)

SESSION_SPACING_S = 90.0            # far beyond the 30 s session timeout


def labelled_capture(rng: random.Random, device: str, size_mean: float,
                     gap_ms: float, ttl: int, sessions: int,
                     ack_rate: float) -> list[str]:
    """Capture lines of `sessions` telemetry sessions from one device.

    Each packet is, with probability `ack_rate`, a small acknowledgement
    from the cloud instead.
    """
    lines = []
    seq = 0
    for s in range(sessions):
        ts = s * SESSION_SPACING_S + rng.uniform(0.0, 5.0)
        sport = 40000 + s
        for i in range(rng.randint(6, 14)):
            if i:
                ts += max(1.0, rng.gauss(gap_ms, gap_ms * 0.18)) / 1000.0
            size = max(32, int(rng.gauss(size_mean, size_mean * 0.18)))
            seq += 1
            if rng.random() < ack_rate:
                lines.append(
                    f"seq={seq} ts={ts:.6f} src_addr=cloud "
                    f"dst_addr={device} src_port=8883 dst_port={sport} "
                    f"proto=tcp ttl=50 size=64 payload_entropy=6.0000 "
                    f"payload_marker=- direction=to_dut kind=response\n")
            else:
                lines.append(
                    f"seq={seq} ts={ts:.6f} src_addr={device} "
                    f"dst_addr=cloud src_port={sport} dst_port=8883 "
                    f"proto=tcp ttl={ttl} size={size} "
                    f"payload_entropy=7.5000 payload_marker=- "
                    f"direction=from_dut kind=background\n")
    return lines


def profile_corpus(rng: random.Random, classes, train_sessions: int,
                   holdout_sessions: int, ack_rate: float) -> dict[str, str]:
    """Train and holdout captures per class, plus the two label files.

    Returns file name -> text.  `train.labels` and `holdout.labels` map
    capture file names to class names, as `iotbed profile train` reads them.
    """
    files: dict[str, str] = {}
    train_labels = []
    holdout_labels = []
    for name, size, gap, ttl in classes:
        for part, n, labels in (("train", train_sessions, train_labels),
                                ("holdout", holdout_sessions,
                                 holdout_labels)):
            cap = f"{name}-{part}.cap"
            files[cap] = "".join(labelled_capture(
                rng, f"{name}01", size, gap, ttl, n, ack_rate))
            labels.append(f"{cap}={name}\n")
    files["train.labels"] = "".join(train_labels)
    files["holdout.labels"] = "".join(holdout_labels)
    return files
