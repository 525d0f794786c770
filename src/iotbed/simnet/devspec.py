"""Device spec files: everything a simulated device needs to behave.

One file can declare several devices.  Each `device:` line opens a block;
the lines that follow attach properties to it.  Values are `key=value`
tokens (shlex rules, so banners may be quoted); `device:`, `port:`, `os:`
and `app:` lines additionally take leading positional fields.  A value
line (`connectivity:`, `introspection:`, `stored_data:`) takes exactly
one value, which may hold `=`.  A line with no quote or backslash splits
to shlex's tokens without shlex: on runs of space, tab, CR and LF only.  A `#` starts a comment anywhere on a line, also inside
quotes.  Each dot-separated piece of an `os:` or `app:` version starts
with a digit, as each piece of a vulnerability range's bounds does, also
in a spec built in code (`DeviceSpec.validate`).  A malformed file raises
AnalysisError("<path>:<line>: ..."); a device whose values contradict
each other is reported at its `device:` line.

Each kind of line is read through one entry of `_LINES`: its positional
field count, the keys it requires, and each key's attribute and parser.
A key left out keeps the default of its dataclass field.  The example
below uses every kind of line and every key:

    device: cam01 type=ip_camera
    connectivity: lte
    port: 80 service=http banner="lighttpd 1.4.35" default_creds=admin:admin
    port: 81 service=http-alt crash_on_malformed=true
    port: 443 service=https freshness=false vulnerable_to=probe_hb,probe_ccs
    os: linux 3.18 up_to_date=false risk=critical
    app: camsrv 2.1 up_to_date=false risk=major
    traffic: size_mean=512 size_stddev=96 gap_ms=80 gap_stddev_ms=18
    timing_range: min_ms=60 max_ms=220
    robustness: ignores_malformed=true
    encryption: payload=plaintext accepts_downgrade=true replay_protected=false
    introspection: local
    stored_data: sensitive
    monitor: period_s=2 cpu_base=12 cpu_noise=3 cpu_spike=55
    compromise: lat=32.0853 lon=34.7818 radius_m=150 window=100-400
    false_alarm: at_s=300 packets=30 gap_ms=70

    device: hub01 type=hub connectivity=ethernet
    traffic: ttl=128 session_rate=0
    monitor: mem_base=64e6 mem_noise=1e6 mem_spike=4e6
    compromise: window=500-600 ports=22,80,443 interval_ms=40 targets=cam01
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
    probe_ports: tuple[int, ...] = (21, 22, 23, 80, 443, 8080, 8883, 9100)
    probe_interval_ms: float = 25.0
    targets: tuple[str, ...] = ()


@dataclass
class FalseAlarmSpec:
    at_s: float
    packets: int = 40
    gap_ms: float = 50.0


@dataclass
class DeviceSpec:
    device_id: str
    device_type: str = "generic"
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


# A run of anything but shlex's whitespace; \x0b, \xa0 and the like are
# part of a token to shlex, though str.split() splits on them.
_WORD = re.compile("[^ \t\r\n]+")


def _tokens(body: str) -> list[str]:
    """shlex.split(body).  Without a quote or backslash shlex only splits
    on its whitespace, so such a body skips its per-character lexer."""
    if "'" in body or '"' in body or "\\" in body:
        return shlex.split(body)
    return _WORD.findall(body)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(p for p in text.split(",") if p)


def _window(text: str) -> tuple[float, float]:
    lo, _, hi = text.partition("-")
    return finite(lo), finite(hi)


def _version(text: str) -> str:
    if not is_version(text):
        raise ValueError(f"bad version {text!r}")
    return text


def _one_of(what: str, choices: tuple[str, ...]):
    """A parser that takes only one of choices."""
    def parse(text: str) -> str:
        if text not in choices:
            raise ValueError(f"bad {what} {text!r}")
        return text
    return parse


def _named(parse, keys: str) -> dict:
    """key -> (attribute, parse) for keys named as their attributes."""
    return {key: (key, parse) for key in keys.split()}


_SOFTWARE = {0: ("name", str), 1: ("version", _version),
             **_named(_parse_bool, "up_to_date"), **_named(str, "risk")}

# Each kind of line: its positional field count, the keys it requires, and
# key -> (attribute, parser), with positional field i under key i.
_LINES = {
    "device": (1, (), {0: ("device_id", str), "type": ("device_type", str),
                       **_named(str, "connectivity")}),
    "connectivity": (1, (), {0: ("connectivity", str)}),
    "port": (1, (), {0: ("number", int),
                     **_named(str, "service banner default_creds"),
                     **_named(_parse_bool, "crash_on_malformed freshness"),
                     **_named(_str_list, "vulnerable_to")}),
    "os": (2, (), _SOFTWARE),
    "app": (2, (), _SOFTWARE),
    "traffic": (0, (), {**_named(finite, "size_mean size_stddev gap_ms "
                                         "gap_stddev_ms session_rate"),
                        **_named(integer, "ttl")}),
    "timing_range": (0, ("min_ms", "max_ms"), {
        "min_ms": ("timing_min_ms", finite),
        "max_ms": ("timing_max_ms", finite)}),
    "robustness": (0, (), _named(_parse_bool, "ignores_malformed")),
    "encryption": (0, (), {
        "payload": ("payload_mode",
                    _one_of("payload mode", ("encrypted", "plaintext"))),
        **_named(_parse_bool, "accepts_downgrade replay_protected")}),
    "introspection": (1, (), {0: ("introspection", _one_of(
        "introspection mode", INTROSPECTION_MODES))}),
    "stored_data": (1, (), {0: ("stored_data_class", _one_of(
        "data class", DATA_CLASSES))}),
    "monitor": (0, (), _named(finite, "period_s cpu_base cpu_noise cpu_spike "
                                      "mem_base mem_noise mem_spike")),
    # lat, lon, radius_m and window make the trigger's ContextPredicate
    "compromise": (0, (), {"lat": ("center_lat", finite),
                           "lon": ("center_lon", finite),
                           **_named(finite, "radius_m"),
                           **_named(_window, "window"),
                           "ports": ("probe_ports", _int_list),
                           "interval_ms": ("probe_interval_ms", finite),
                           **_named(_str_list, "targets")}),
    "false_alarm": (0, ("at_s",), {**_named(finite, "at_s gap_ms"),
                                   **_named(int, "packets")}),
}


def _values(kind: str, tokens: list[str]) -> dict:
    """attribute -> value of each field given on a line of kind.  Each
    positional field is read as it is met, so a bad one is named before
    any token after it; keyed values are read once the whole line is
    checked, so a key given twice keeps its last value."""
    try:
        positional, required, fields = _LINES[kind]
    except KeyError:
        raise ValueError(f"unknown property {kind!r}") from None
    keyed = len(fields) > positional       # a value line's value may hold =
    given: dict = {}
    values = {}
    n = 0
    for token in tokens:
        key, eq, text = token.partition("=")
        if eq and keyed:
            if key not in fields:
                raise ValueError(f"unknown key {key!r}")
            given[key] = text
        elif n < positional:
            attr, parse = fields[n]
            values[attr] = parse(token)
            n += 1
        else:
            raise ValueError(f"unexpected token {token!r}")
    if n < positional:
        raise ValueError("missing value" if not keyed else
                         f"expected {positional} positional fields, got {n}")
    for key in required:
        if key not in given:
            raise KeyError(key)
    for key, text in given.items():
        attr, parse = fields[key]
        values[attr] = parse(text)
    return values


def load_device_spec(path: str) -> list[DeviceSpec]:
    """The devices declared in the spec file at path."""
    devices: list[DeviceSpec] = []
    lines: dict[str, int] = {}             # device id -> its device: line
    dev: DeviceSpec | None = None
    source = Source(path)
    with source.parsing():
        for kind, body in directives(source):
            try:
                tokens = _tokens(body)
            except ValueError as exc:
                if str(exc) != "No closing quotation":
                    raise
                raise ValueError(f"{exc} (a # starts a comment, also "
                                 "inside quotes)") from None
            values = _values(kind, tokens)
            if kind == "device":
                if values["device_id"] in lines:
                    raise ValueError(
                        f"duplicate device {values['device_id']!r}")
                dev = DeviceSpec(**values)
                devices.append(dev)
                lines[dev.device_id] = source.line
                continue
            if dev is None:
                raise ValueError("property before any device line")
            if kind == "port":
                port = PortSpec(**values)
                if port.number in dev.ports:
                    raise ValueError(f"duplicate port {port.number}")
                dev.ports[port.number] = port
            elif kind == "os":
                dev.os = SoftwareSpec(**values)
            elif kind == "app":
                dev.apps.append(SoftwareSpec(**values))
            elif kind == "traffic":
                dev.traffic = TrafficSpec(**values)
            elif kind == "compromise":
                lo, hi = values.pop("window", (None, None))
                trigger = ContextPredicate(
                    values.pop("center_lat", None),
                    values.pop("center_lon", None),
                    values.pop("radius_m", None), lo, hi)
                dev.compromise = CompromiseSpec(trigger, **values)
            elif kind == "false_alarm":
                dev.false_alarm = FalseAlarmSpec(**values)
            else:
                target = dev.monitor if kind == "monitor" else dev
                for attr, value in values.items():
                    setattr(target, attr, value)
        if not devices:
            raise ValueError("no devices declared")
        for d in devices:
            source.line = lines[d.device_id]
            d.validate()
    return devices
