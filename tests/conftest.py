"""Shared fixtures: device definitions, trajectory scripts, scenario files."""

import os
import re
import tempfile

import pytest

from iotbed.simnet.devspec import load_device_spec
from iotbed.simnet.memnet import MemoryNetwork

# A fully featured simulated camera used across the plugin tests.  Port 23
# carries weak credentials, port 80 crashes on malformed input, port 443
# skips nonce checking so recorded sessions replay cleanly.
CAMERA_TEXT = """\
device: cam1 type=ip_camera connectivity=wifi
port: 23 service=telnet banner="BusyBox v1.19 telnetd" default_creds=root:root
port: 80 service=http banner="lighttpd 1.4.35 on busybox" crash_on_malformed=yes
port: 443 service=https freshness=off
os: busybox 1.19 up_to_date=no risk=critical
app: lighttpd 1.4.35 up_to_date=yes
traffic: size_mean=512 size_stddev=96 gap_ms=100 gap_stddev_ms=20 session_rate=6 ttl=64
timing_range: min_ms=1000 max_ms=3000
encryption: payload=encrypted accepts_downgrade=yes replay_protected=no
stored_data: sensitive
introspection: remote_blocked
monitor: period_s=1 cpu_base=10 cpu_noise=2 cpu_spike=60
"""

# Fleet used by the context/correlation scenario: one compromised camera plus
# three quiet peers it probes during attack bursts.
FLEET_TEXT = """\
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
false_alarm: at_s=330 packets=40 gap_ms=50

device: hub1 type=hub connectivity=ethernet
port: 80 service=http banner="hub web ui"
traffic: session_rate=0

device: srv1 type=server connectivity=ethernet
traffic: session_rate=0

device: srv2 type=server connectivity=ethernet
traffic: session_rate=0
"""

CONTEXT_SCENARIO_TEXT = """\
scenario: context_audit
option: devices=devices.dev
option: dut=cam1
option: baseline_s=50
option: window_s=5
option: k=3

test: identity_checks
phase: standard
action: USER, cam1, TEST, {}
action: USER, port_risk, TEST, {target=cam1, ports=1-1024}
action: USER, fingerprint, TEST, {target=cam1}

test: context_sweep
phase: context
action: USER, GPS_SIM, START, {traj.ctx}
action: USER, CLOCK, SET, {advance_s=30}
"""

# Trigger zone: 150 m around (32.0853, 34.7818).  0.01 deg of latitude is
# roughly 1.1 km, so the "away" rows sit far outside the radius.
TRIGGER_LAT = 32.0853
TRIGGER_LON = 34.7818
TRIGGER_RADIUS_M = 150.0
INSIDE_WINDOWS = ((100.0, 120.0), (200.0, 220.0))
FALSE_ALARM_AT = 330.0


def make_trajectory_text() -> str:
    lines = []
    for t in range(60, 395, 5):
        inside = any(lo <= t <= hi for lo, hi in INSIDE_WINDOWS)
        lat = TRIGGER_LAT if inside else TRIGGER_LAT + 0.01
        lines.append(f"{t} {lat:.6f} {TRIGGER_LON:.6f}")
    return "\n".join(lines) + "\n"


def load_text(loader, text, folder=None):
    """loader(path) on text written to <folder>/input.txt, folder being a
    temporary directory removed afterwards when not given; the loaders
    read only files, so tests parse inline text through this."""
    if folder is None:
        with tempfile.TemporaryDirectory() as tmp:
            return load_text(loader, text, tmp)
    path = os.path.join(folder, "input.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return loader(path)


def input_at(folder, line: int) -> str:
    """Regex of the start of an input error at line of load_text's file."""
    return f"^{re.escape(os.path.join(str(folder), 'input.txt'))}:{line}: "


@pytest.fixture
def camera_spec():
    return load_text(load_device_spec, CAMERA_TEXT)[0]


@pytest.fixture
def camera_net(camera_spec):
    net = MemoryNetwork(seed=7)
    net.spawn_device(camera_spec, dut=True)
    return net


@pytest.fixture
def context_run_dir(tmp_path):
    """Directory holding the full context scenario: devices, track, script."""
    (tmp_path / "devices.dev").write_text(FLEET_TEXT)
    (tmp_path / "traj.ctx").write_text(make_trajectory_text())
    (tmp_path / "scn.scn").write_text(CONTEXT_SCENARIO_TEXT)
    return tmp_path
