"""Device spec files: everything a simulated device needs to behave.

One file can declare several devices.  Each `device:` line opens a block;
the lines that follow attach properties to it.  Values are `key=value`
tokens (shlex rules, so banners may be quoted); `port:`, `os:` and `app:`
lines additionally take leading positional fields.  A line with no quote
or backslash splits to shlex's tokens without shlex: on runs of space,
tab, CR and LF only.  Each dot-separated piece of an `os:` or `app:`
version starts with a digit, as each piece of a vulnerability range's
bounds does, also in a spec built in code (`DeviceSpec.validate`).  A
malformed file raises AnalysisError("<path>:<line>: ..."); a device whose
values contradict each other is reported at its `device:` line.

    device: cam01 type=ip_camera
    address: 10.0.0.11
    port: 80 service=http banner="lighttpd 1.4.35" default_creds=admin:admin
    port: 443 service=https banner="TLSv1 server" vulnerable_to=probe_hb
    os: linux 3.18 up_to_date=false
    app: camsrv 2.1 up_to_date=false risk=major
    traffic: size_mean=512 size_stddev=96 gap_ms=80 gap_stddev_ms=18 ttl=64 session_rate=4
    timing_range: min_ms=60 max_ms=220
    robustness: ignores_malformed=true
    encryption: payload=plaintext accepts_downgrade=true replay_protected=false
    introspection: local
    stored_data: sensitive
    monitor: period_s=1 cpu_base=12 cpu_noise=2 cpu_spike=55
    compromise: lat=32.0853 lon=34.7818 radius_m=150 ports=22,80,443 interval_ms=40 targets=hub01
    false_alarm: at_s=300 packets=40
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field

from ..records import Source, directives, finite, integer, is_version
from .context import ContextPredicate

# Ordered sensitivity ladder for stored data.
DATA_CLASSES = ("none", "normal", "sensitive", "critical")

# Where admin credentials are required for a process listing.
INTROSPECTION_MODES = ("none", "local", "remote_blocked")


def data_class_rank(name: str) -> int:
    return DATA_CLASSES.index(name)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class PortSpec:
    number: int
    service: str = "tcp"
    banner: str = ""
    default_creds: str | None = None       # "user:pass" accepted at LOGIN
    crash_on_malformed: bool = False
    freshness: bool | None = None          # None: inherit replay_protected
    vulnerable_to: tuple[str, ...] = ()    # probe ids that elicit a weak reply

    def effective_banner(self) -> str:
        return self.banner or f"{self.service} service on port {self.number}"


@dataclass
class SoftwareSpec:
    name: str
    version: str
    up_to_date: bool = True
    risk: str = "low"                      # low | major | critical


@dataclass
class TrafficSpec:
    size_mean: float = 256.0
    size_stddev: float = 64.0
    gap_ms: float = 100.0
    gap_stddev_ms: float = 20.0
    ttl: int = 64
    session_rate: float = 1.0              # sessions per minute


@dataclass
class MonitorSpec:
    period_s: float = 1.0
    cpu_base: float = 10.0                 # percent
    cpu_noise: float = 2.0
    cpu_spike: float = 60.0                # added during an attack burst
    mem_base: float = 32e6                 # bytes
    mem_noise: float = 2.5e5
    mem_spike: float = 8e6


@dataclass
class CompromiseSpec:
    trigger: ContextPredicate
    probe_ports: tuple[int, ...]
    probe_interval_ms: float
    targets: tuple[str, ...]


@dataclass
class FalseAlarmSpec:
    at_s: float
    packets: int
    gap_ms: float = 50.0


@dataclass
class DeviceSpec:
    device_id: str
    device_type: str = "generic"
    address: str = ""
    connectivity: str = "wifi"
    ports: dict[int, PortSpec] = field(default_factory=dict)
    os: SoftwareSpec | None = None
    apps: list[SoftwareSpec] = field(default_factory=list)
    traffic: TrafficSpec | None = None
    timing_min_ms: float | None = None     # accepted transaction-gap band
    timing_max_ms: float | None = None
    ignores_malformed: bool = False
    payload_mode: str = "encrypted"        # encrypted | plaintext
    accepts_downgrade: bool = False
    replay_protected: bool = True
    introspection: str | None = None       # None until declared
    stored_data_class: str = "none"
    monitor: MonitorSpec = field(default_factory=MonitorSpec)
    compromise: CompromiseSpec | None = None
    false_alarm: FalseAlarmSpec | None = None

    def open_ports(self) -> list[int]:
        return sorted(self.ports)

    def protocols(self) -> list[str]:
        return sorted({p.service for p in self.ports.values()})

    def leaks_location(self) -> bool:
        # Plaintext devices holding sensitive-or-worse data embed GPS markers.
        return (self.payload_mode == "plaintext"
                and data_class_rank(self.stored_data_class)
                >= data_class_rank("sensitive"))

    def validate(self) -> None:
        """Raise ValueError on a range or version no device can have."""
        if self.timing_min_ms is not None and self.timing_max_ms is not None:
            if self.timing_min_ms > self.timing_max_ms:
                raise ValueError(
                    f"{self.device_id}: timing range min > max")
        if self.traffic is not None:
            if self.traffic.size_stddev < 0 or self.traffic.gap_stddev_ms < 0:
                raise ValueError(
                    f"{self.device_id}: negative traffic stddev")
            if self.traffic.session_rate < 0:
                raise ValueError(
                    f"{self.device_id}: session_rate must be >= 0")
        if self.monitor.period_s <= 0:
            raise ValueError(f"{self.device_id}: period_s must be > 0")
        if self.compromise is not None:
            if self.compromise.probe_interval_ms < 0:
                raise ValueError(f"{self.device_id}: interval_ms must be >= 0")
            for port in self.compromise.probe_ports:
                if not 1 <= port <= 65535:
                    raise ValueError(
                        f"{self.device_id}: probe port {port} out of range")
        if self.false_alarm is not None:
            if self.false_alarm.packets < 0:
                raise ValueError(f"{self.device_id}: packets must be >= 0")
            if self.false_alarm.gap_ms < 0:
                raise ValueError(f"{self.device_id}: gap_ms must be >= 0")
        for port in self.ports.values():
            if not 1 <= port.number <= 65535:
                raise ValueError(
                    f"{self.device_id}: port {port.number} out of range")
        for sw in [self.os, *self.apps]:
            if sw is not None and not is_version(sw.version):
                raise ValueError(
                    f"{self.device_id}: bad version {sw.version!r}")


# The keys each kind of line takes in its key=value tokens.
_KEYS = {kind: frozenset(keys.split()) for kind, keys in (
    ("device", "type connectivity"),
    ("port", "service banner default_creds crash_on_malformed freshness "
             "vulnerable_to"),
    ("os", "up_to_date risk"),
    ("app", "up_to_date risk"),
    ("traffic", "size_mean size_stddev gap_ms gap_stddev_ms session_rate ttl"),
    ("timing_range", "min_ms max_ms"),
    ("robustness", "ignores_malformed"),
    ("encryption", "payload accepts_downgrade replay_protected"),
    ("monitor", "period_s cpu_base cpu_noise cpu_spike mem_base mem_noise "
                "mem_spike"),
    ("compromise", "lat lon radius_m window ports interval_ms targets"),
    ("false_alarm", "at_s packets gap_ms"),
)}

# A run of anything but shlex's whitespace; \x0b, \xa0 and the like are
# part of a token to shlex, though str.split() splits on them.
_WORD = re.compile("[^ \t\r\n]+")


def _tokens(body: str) -> list[str]:
    """shlex.split(body).  Without a quote or backslash shlex only splits
    on its whitespace, so such a body skips its per-character lexer."""
    if "'" in body or '"' in body or "\\" in body:
        return shlex.split(body)
    return _WORD.findall(body)


def _split_kv(tokens: list[str], kind: str,
              positional: int = 0) -> tuple[list[str], dict[str, str]]:
    """The positional fields and key=value pairs of a line of `kind`."""
    keys = _KEYS[kind]
    pos: list[str] = []
    kv: dict[str, str] = {}
    for token in tokens:
        if "=" in token:
            key, _, val = token.partition("=")
            if key not in keys:
                raise ValueError(f"unknown key {key!r}")
            kv[key] = val
        elif len(pos) < positional:
            pos.append(token)
        else:
            raise ValueError(f"unexpected token {token!r}")
    if len(pos) < positional:
        raise ValueError(
            f"expected {positional} positional fields, got {len(pos)}")
    return pos, kv


def _value(tokens: list[str]) -> str:
    if not tokens:
        raise ValueError("missing value")
    return tokens[0]


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


def load_device_spec(path: str) -> list[DeviceSpec]:
    """The devices declared in the spec file at path."""
    devices: list[DeviceSpec] = []
    lines: dict[str, int] = {}             # device id -> its device: line
    dev: DeviceSpec | None = None

    def need() -> DeviceSpec:
        if dev is None:
            raise ValueError("property before any device line")
        return dev

    source = Source(path)
    with source.parsing():
        for key, body in directives(source):
            tokens = _tokens(body)
            if key == "device":
                pos, kv = _split_kv(tokens, key, positional=1)
                if pos[0] in lines:
                    raise ValueError(f"duplicate device {pos[0]!r}")
                dev = DeviceSpec(device_id=pos[0])
                dev.device_type = kv.get("type", dev.device_type)
                dev.connectivity = kv.get("connectivity", dev.connectivity)
                devices.append(dev)
                lines[dev.device_id] = source.line
            elif key == "address":
                need().address = _value(tokens)
            elif key == "connectivity":
                need().connectivity = _value(tokens)
            elif key == "port":
                pos, kv = _split_kv(tokens, key, positional=1)
                port = PortSpec(number=int(pos[0]))
                port.service = kv.get("service", port.service)
                port.banner = kv.get("banner", port.banner)
                port.default_creds = kv.get("default_creds")
                if "crash_on_malformed" in kv:
                    port.crash_on_malformed = _parse_bool(kv["crash_on_malformed"])
                if "freshness" in kv:
                    port.freshness = _parse_bool(kv["freshness"])
                if "vulnerable_to" in kv:
                    port.vulnerable_to = _str_list(kv["vulnerable_to"])
                d = need()
                if port.number in d.ports:
                    raise ValueError(f"duplicate port {port.number}")
                d.ports[port.number] = port
            elif key in ("os", "app"):
                pos, kv = _split_kv(tokens, key, positional=2)
                if not is_version(pos[1]):
                    raise ValueError(f"bad version {pos[1]!r}")
                sw = SoftwareSpec(name=pos[0], version=pos[1])
                if "up_to_date" in kv:
                    sw.up_to_date = _parse_bool(kv["up_to_date"])
                sw.risk = kv.get("risk", sw.risk)
                if key == "os":
                    need().os = sw
                else:
                    need().apps.append(sw)
            elif key == "traffic":
                _, kv = _split_kv(tokens, key)
                t = TrafficSpec()
                for name, val in kv.items():
                    parse = integer if name == "ttl" else finite
                    setattr(t, name, parse(val))
                need().traffic = t
            elif key == "timing_range":
                _, kv = _split_kv(tokens, key)
                need().timing_min_ms = finite(kv["min_ms"])
                need().timing_max_ms = finite(kv["max_ms"])
            elif key == "robustness":
                _, kv = _split_kv(tokens, key)
                if "ignores_malformed" in kv:
                    need().ignores_malformed = \
                        _parse_bool(kv["ignores_malformed"])
            elif key == "encryption":
                _, kv = _split_kv(tokens, key)
                d = need()
                if "payload" in kv:
                    if kv["payload"] not in ("encrypted", "plaintext"):
                        raise ValueError(f"bad payload mode {kv['payload']!r}")
                    d.payload_mode = kv["payload"]
                if "accepts_downgrade" in kv:
                    d.accepts_downgrade = _parse_bool(kv["accepts_downgrade"])
                if "replay_protected" in kv:
                    d.replay_protected = _parse_bool(kv["replay_protected"])
            elif key == "introspection":
                mode = _value(tokens)
                if mode not in INTROSPECTION_MODES:
                    raise ValueError(f"bad introspection mode {mode!r}")
                need().introspection = mode
            elif key == "stored_data":
                cls = _value(tokens)
                if cls not in DATA_CLASSES:
                    raise ValueError(f"bad data class {cls!r}")
                need().stored_data_class = cls
            elif key == "monitor":
                _, kv = _split_kv(tokens, key)
                m = need().monitor
                for name, val in kv.items():
                    setattr(m, name, finite(val))
            elif key == "compromise":
                _, kv = _split_kv(tokens, key)
                window_start = window_end = None
                if "window" in kv:
                    lo, _, hi = kv["window"].partition("-")
                    window_start, window_end = finite(lo), finite(hi)
                trigger = ContextPredicate(
                    center_lat=finite(kv["lat"]) if "lat" in kv else None,
                    center_lon=finite(kv["lon"]) if "lon" in kv else None,
                    radius_m=finite(kv["radius_m"]) if "radius_m" in kv else None,
                    window_start=window_start,
                    window_end=window_end,
                )
                need().compromise = CompromiseSpec(
                    trigger=trigger,
                    probe_ports=_int_list(
                        kv.get("ports", "21,22,23,80,443,8080,8883,9100")),
                    probe_interval_ms=finite(kv.get("interval_ms", "25")),
                    targets=_str_list(kv.get("targets", "")),
                )
            elif key == "false_alarm":
                _, kv = _split_kv(tokens, key)
                need().false_alarm = FalseAlarmSpec(
                    at_s=finite(kv["at_s"]),
                    packets=int(kv.get("packets", "40")),
                    gap_ms=finite(kv.get("gap_ms", "50")),
                )
            else:
                raise ValueError(f"unknown property {key!r}")
        if not devices:
            raise ValueError("no devices declared")
        for d in devices:
            source.line = lines[d.device_id]
            d.validate()
    return devices
