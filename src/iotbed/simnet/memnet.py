"""Deterministic in-memory network backend, and the device model, clock and
client operations both backends share.

Devices are event-driven actors (_DeviceActor): background telemetry
sessions, periodic status samples, context-triggered attack bursts and
false-alarm bursts are all events on the network's VirtualClock.  The
client operations (connect, scan_ports, advance_context,
MemConnection.request) are written once, here, and reach the transport
only through _dial and _exchange; LoopbackNetwork replaces those two
hooks alone, so the backends differ only in transport, and record, proxy
and time every frame alike.

A fixed seed and a fixed context script reproduce byte-identical
captures, on either backend: each leg of a client operation advances the
clock by its modelled latency, firing any background events that fall due
in between.
emit builds a record from a payload, stamps it with the clock's now(),
numbers it and appends it to the tap; every record but a sweep's probes
enters that way.  scan_ports builds each probe's record itself, with no
payload to measure: it walks the clock's steps() beside the ports, so a
closed port costs one record construction and one append, with no call to
emit, CaptureRecord.build or the clock.  Both count every record in
emitted, so emitted == len(tap), and both take the direction from one
rule, _direction().
Ephemeral source ports wrap back to the start of their range after 65535.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ..errors import TransportError
from .capture import CaptureRecord, CaptureTap
from .clock import VirtualClock
from .context import ContextEvent, ContextFeed
from .devspec import DeviceSpec
from .payload import encrypted_payload, gps_marker, plaintext_payload
from .services import DeviceState, ServiceEngine
from .status import InternalStatusSample, synth_sample

RTT_S = 0.020                   # request/response round trip
SCAN_STEP_S = 0.001             # virtual pause between scan probes
CLOUD = "cloud"                 # sink endpoint for device telemetry
CLOUD_PORT = 8883
NOISE_PORT = 9090


@dataclass
class ProxyMutator:
    """What a proxy does to traffic; all-zero values are the identity."""

    delay_ms: float = 0.0
    corrupt_rate: float = 0.0   # fraction of records receiving bit errors
    drop_rate: float = 0.0      # fraction of records silently discarded


class _PathState:
    """Deterministic rate accounting for one proxy direction."""

    def __init__(self):
        self.corrupt_acc = 0.0
        self.drop_acc = 0.0

    def should_drop(self, rate: float) -> bool:
        self.drop_acc += rate
        if self.drop_acc >= 1.0:
            self.drop_acc -= 1.0
            return True
        return False

    def should_corrupt(self, rate: float) -> bool:
        self.corrupt_acc += rate
        if self.corrupt_acc >= 1.0:
            self.corrupt_acc -= 1.0
            return True
        return False


def _flip_bits(data: bytes) -> bytes:
    if not data:
        return data
    out = bytearray(data)
    out[0] ^= 0x80
    out[len(out) // 2] ^= 0x01
    return bytes(out)


def _mutate(path: _PathState, mutator: ProxyMutator,
            data: bytes) -> bytes | None:
    """One frame through one proxy direction; None when it is dropped."""
    if path.should_drop(mutator.drop_rate):
        return None
    if path.should_corrupt(mutator.corrupt_rate):
        return _flip_bits(data)
    return data


class _Proxy:
    def __init__(self, mutator: ProxyMutator):
        self.mutator = mutator
        self.request_path = _PathState()
        self.response_path = _PathState()
        self.background_path = _PathState()


def _ephemeral_ports(first: int):
    """first, first + 1, ..., 65535, then first again, and so on."""
    while True:
        yield from range(first, 65536)


@dataclass
class BurstWindow:
    """Ground truth of one attack burst, for oracles and reports."""

    device_id: str
    t_start: float
    t_end: float
    probes: int


class _DeviceActor:
    """One simulated device's behaviour, for either backend.

    `net` provides seed, clock, feed, actors, emit() and proxy_for().
    """

    def __init__(self, net: "MemoryNetwork", spec: DeviceSpec):
        self.net = net
        self.spec = spec
        self.state = DeviceState()
        self.rng = random.Random(f"{net.seed}/{spec.device_id}")
        self.engine = ServiceEngine(spec, self.state, self.rng)
        self.samples: list[InternalStatusSample] = []
        self.burst_windows: list[BurstWindow] = []
        self._in_trigger_window = False
        self._eph_ports = _ephemeral_ports(40000)
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.spec.traffic is not None:
            self._schedule_next_session(first=True)
        self._schedule_status()
        if self.spec.false_alarm is not None:
            fa = self.spec.false_alarm
            delay = fa.at_s - self.net.clock.now()
            if delay >= 0:
                self.net.clock.schedule(delay, self._false_alarm_burst)
        if self.spec.compromise is not None:
            self.net.feed.subscribe(self._on_context)

    # -- background telemetry ------------------------------------------
    def _schedule_next_session(self, first: bool = False) -> None:
        rate = self.spec.traffic.session_rate
        if rate <= 0:       # silent device: no background sessions
            return
        base_gap = 60.0 / rate
        factor = self.rng.uniform(0.3, 1.0) if first else self.rng.uniform(0.8, 1.2)
        self.net.clock.schedule(base_gap * factor, self._run_session)

    def _run_session(self) -> None:
        if not self.state.alive:
            return
        traffic = self.spec.traffic
        src_port = next(self._eph_ports)
        n_packets = self.rng.randint(8, 16)
        offset = 0.0
        for i in range(n_packets):
            if i > 0:
                offset += max(1.0, self.rng.gauss(
                    traffic.gap_ms, traffic.gap_stddev_ms)) / 1000.0
            size = max(32, min(4096, int(self.rng.gauss(
                traffic.size_mean, traffic.size_stddev))))
            payload = self._telemetry_payload(size)
            self.net.clock.schedule(
                offset, self._make_packet_event(src_port, payload))
        self._schedule_next_session()

    def _telemetry_payload(self, size: int) -> bytes:
        if self.spec.payload_mode == "encrypted":
            return encrypted_payload(self.rng, size)
        marker = None
        if self.spec.leaks_location():
            marker = gps_marker(*self.engine.location)
        return plaintext_payload(self.rng, size, marker)

    def _make_packet_event(self, src_port: int, payload: bytes,
                           kind: str = "background",
                           dst_port: int = CLOUD_PORT):
        def fire():
            if not self.state.alive:
                return
            data = payload
            proxy = self.net.proxy_for(self.spec.device_id)
            if proxy is not None:
                data = _mutate(proxy.background_path, proxy.mutator, data)
                if data is None:
                    return
                if proxy.mutator.delay_ms > 0:
                    delayed = data
                    self.net.clock.schedule(
                        proxy.mutator.delay_ms / 1000.0,
                        lambda: self._emit_now(src_port, delayed, kind, dst_port))
                    return
            self._emit_now(src_port, data, kind, dst_port)
        return fire

    def _emit_now(self, src_port: int, data: bytes, kind: str,
                  dst_port: int) -> None:
        if not self.state.alive:
            return
        self.net.emit(src=self.spec.device_id, src_port=src_port, dst=CLOUD,
                      dst_port=dst_port, ttl=self.ttl(), kind=kind,
                      payload=data)

    def ttl(self) -> int:
        return self.spec.traffic.ttl if self.spec.traffic else 64

    # -- status sampling -----------------------------------------------
    def _schedule_status(self) -> None:
        self.net.clock.schedule(self.spec.monitor.period_s, self._sample)

    def _sample(self) -> None:
        if not self.state.alive:
            return
        now = self.net.clock.now()
        self.samples.append(synth_sample(
            self.spec.monitor, self.rng, now, self.spec.device_id,
            bursting=self.in_burst(now)))
        self._schedule_status()

    def in_burst(self, ts: float) -> bool:
        return any(w.t_start <= ts <= w.t_end for w in self.burst_windows)

    # -- compromise trigger --------------------------------------------
    def _on_context(self, event: ContextEvent) -> None:
        comp = self.spec.compromise
        if comp is None or not self.state.alive:
            return
        self.engine.location = (event.lat, event.lon)
        match = comp.trigger.matches(event)
        if match and not self._in_trigger_window:
            self._fire_burst()
        self._in_trigger_window = match

    def _fire_burst(self) -> None:
        comp = self.spec.compromise
        now = self.net.clock.now()
        pairs = [(tgt, prt) for tgt in comp.targets for prt in comp.probe_ports]
        interval = comp.probe_interval_ms / 1000.0
        for i, (tgt, prt) in enumerate(pairs):
            self.net.clock.schedule(i * interval,
                                    self._make_probe_event(tgt, prt))
        self.burst_windows.append(BurstWindow(
            device_id=self.spec.device_id, t_start=now,
            t_end=now + len(pairs) * interval + 0.5, probes=len(pairs)))

    def _make_probe_event(self, target: str, port: int):
        def fire():
            if not self.state.alive:
                return
            self.net.emit(src=self.spec.device_id,
                          src_port=next(self._eph_ports), dst=target,
                          dst_port=port, ttl=self.ttl(), kind="attack_probe",
                          payload=b"")
            peer = self.net.actors.get(target)
            if peer is not None and peer.state.alive and port in peer.spec.ports:
                banner = peer.spec.ports[port].effective_banner()
                self.net.emit(src=target, src_port=port,
                              dst=self.spec.device_id, dst_port=0,
                              ttl=peer.ttl(), kind="banner",
                              payload=banner.encode("ascii"))
        return fire

    # -- false alarm ---------------------------------------------------
    def _false_alarm_burst(self) -> None:
        if not self.state.alive:
            return
        fa = self.spec.false_alarm
        src_port = next(self._eph_ports)
        for i in range(fa.packets):
            payload = encrypted_payload(self.rng, 200)
            self.net.clock.schedule(
                i * fa.gap_ms / 1000.0,
                self._make_packet_event(src_port, payload, kind="noise",
                                        dst_port=NOISE_PORT))


class DeviceHandle:
    """Read-side view of a spawned device for plugins and the orchestrator."""

    def __init__(self, actor: _DeviceActor):
        self._actor = actor

    @property
    def device_id(self) -> str:
        return self._actor.spec.device_id

    @property
    def spec(self) -> DeviceSpec:
        return self._actor.spec

    @property
    def alive(self) -> bool:
        return self._actor.state.alive

    def local_process_list(self) -> str | None:
        return self._actor.engine.local_process_list()

    def all_samples(self) -> list[InternalStatusSample]:
        return list(self._actor.samples)


class MemConnection:
    """One client connection to a device port; channel is the transport's
    handle on it (None here, a socket on the loopback backend)."""

    def __init__(self, net: "MemoryNetwork", src: str, src_port: int,
                 dst: str, dst_port: int, channel=None):
        self.net = net
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.channel = channel
        self.closed = False

    def request(self, data: bytes, kind: str = "request") -> bytes | None:
        """Send one request; returns the reply or None on silence/loss."""
        if self.closed:
            raise TransportError("connection closed")
        net = self.net
        proxy = net.proxy_for(self.dst)
        if proxy is not None:
            data = _mutate(proxy.request_path, proxy.mutator, data)
            if data is None:
                net.clock.advance(RTT_S)
                return None
        net.emit(src=self.src, src_port=self.src_port, dst=self.dst,
                 dst_port=self.dst_port, ttl=64, kind=kind, payload=data)
        net.clock.advance(RTT_S / 2)
        reply = net._exchange(self, data)
        if reply is not None and proxy is not None:
            reply = _mutate(proxy.response_path, proxy.mutator, reply)
        if reply is None:
            net.clock.advance(RTT_S / 2)
            return None
        delay_s = 0.0 if proxy is None else proxy.mutator.delay_ms / 1000.0
        net.clock.advance(RTT_S / 2 + delay_s)
        net.emit(src=self.dst, src_port=self.dst_port, dst=self.src,
                 dst_port=self.src_port, ttl=net.actors[self.dst].ttl(),
                 kind="response", payload=reply)
        return reply

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            if self.channel is not None:
                self.channel.close()


class CaptureHandle:
    def __init__(self, handle_id: int, scope: set[str] | None, start_idx: int):
        self.handle_id = handle_id
        self.scope = scope              # None means all devices
        self.start_idx = start_idx


class MemoryNetwork:
    """The default backend: fleet, tap, captures, proxies and the client
    operations on a VirtualClock; see the module docstring."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.clock = VirtualClock()
        self.tap = CaptureTap()
        self.feed = ContextFeed()
        self.actors: dict[str, _DeviceActor] = {}
        self.dut_ids: set[str] = set()
        self.emitted = 0
        self._proxies: dict[str, _Proxy] = {}
        self._eph_ports = _ephemeral_ports(50000)
        self._capture_ids = itertools.count(1)
        self._captures: dict[int, CaptureHandle] = {}

    # -- record emission ----------------------------------------------
    def _direction(self, src: str, dst: str) -> str:
        """to_dut, from_dut or lateral, by which ends are devices under
        test; a record between two of them, or none, is lateral."""
        dut_ids = self.dut_ids
        if dst in dut_ids:
            return "lateral" if src in dut_ids else "to_dut"
        return "from_dut" if src in dut_ids else "lateral"

    def emit(self, src: str, src_port: int, dst: str, dst_port: int,
             ttl: int, kind: str, payload: bytes) -> None:
        self.emitted += 1
        self.tap.add(CaptureRecord.build(
            self.emitted, self.clock.now(), src, src_port, dst, dst_port, ttl,
            kind, self._direction(src, dst), payload))

    # -- device lifecycle -----------------------------------------------
    def spawn_device(self, spec: DeviceSpec, dut: bool = True) -> DeviceHandle:
        spec.validate()
        if spec.device_id in self.actors:
            raise TransportError(
                f"ports already bound for device {spec.device_id!r}")
        actor = _DeviceActor(self, spec)
        self.actors[spec.device_id] = actor
        if dut:
            self.dut_ids.add(spec.device_id)
        actor.start()
        return DeviceHandle(actor)

    def _actor(self, device_id: str) -> _DeviceActor:
        actor = self.actors.get(device_id)
        if actor is None:
            raise TransportError(f"unknown device {device_id!r}")
        return actor

    def handle(self, device_id: str) -> DeviceHandle:
        return DeviceHandle(self._actor(device_id))

    def stop_device(self, device_id: str) -> None:
        self._actor(device_id).state.alive = False

    def shutdown(self) -> None:
        """Release the backend's sockets; memory holds none."""

    # -- time ------------------------------------------------------------
    def now(self) -> float:
        return self.clock.now()

    def observe(self, seconds: float) -> None:
        """Let the devices run for the given span of time."""
        self.clock.advance(seconds)

    def advance_context(self, events: list[ContextEvent]) -> None:
        """Publish each event once the clock reaches its t.  The events
        must be sorted by t and the first may not be past; otherwise
        TransportError is raised before any is published."""
        if any(b.t < a.t for a, b in zip(events, events[1:])):
            raise TransportError("context events not sorted")
        if events and events[0].t < self.clock.now():
            raise TransportError("context event in the past")
        for event in events:
            self.clock.advance(max(0.0, event.t - self.clock.now()))
            self.feed.publish(event)

    # -- proxy -----------------------------------------------------------
    def proxy(self, device_id: str, mutator: ProxyMutator) -> None:
        self._actor(device_id)
        if device_id in self._proxies:
            raise TransportError(f"device {device_id!r} already proxied")
        self._proxies[device_id] = _Proxy(mutator)

    def unproxy(self, device_id: str) -> None:
        self._proxies.pop(device_id, None)

    def proxy_for(self, device_id: str) -> _Proxy | None:
        return self._proxies.get(device_id)

    # -- captures ---------------------------------------------------------
    def start_capture(self, scope: set[str] | None = None) -> CaptureHandle:
        if scope is not None and not scope:
            raise TransportError("empty capture scope")
        handle = CaptureHandle(next(self._capture_ids), scope, len(self.tap))
        self._captures[handle.handle_id] = handle
        return handle

    def stop_capture(self, handle: CaptureHandle) -> list[CaptureRecord]:
        if handle.handle_id not in self._captures:
            raise TransportError("unknown capture handle")
        del self._captures[handle.handle_id]
        records = self.tap.since(handle.start_idx)
        if handle.scope is None:
            return records
        return [r for r in records
                if r.src_addr in handle.scope or r.dst_addr in handle.scope]

    def burst_log(self) -> list[BurstWindow]:
        log: list[BurstWindow] = []
        for actor in self.actors.values():
            log.extend(actor.burst_windows)
        log.sort(key=lambda w: w.t_start)
        return log

    # -- transport: the two hooks the loopback backend replaces ----------
    def _dial(self, actor: _DeviceActor,
              port: int) -> tuple[object, bytes] | None:
        """(channel, banner) of an open port of a live device, else None."""
        if not actor.state.alive or port not in actor.spec.ports:
            return None
        return None, actor.spec.ports[port].effective_banner().encode("ascii")

    def _exchange(self, conn: MemConnection, data: bytes) -> bytes | None:
        """The device's reply to one request on conn; None for no reply."""
        return self.actors[conn.dst].engine.handle(conn.dst_port, data)

    # -- client operations ----------------------------------------------
    def connect(self, src: str, dst: str, port: int) -> MemConnection | None:
        """TCP-style connect; returns a connection with the banner, or None."""
        actor = self._actor(dst)
        src_port = next(self._eph_ports)
        self.emit(src=src, src_port=src_port, dst=dst, dst_port=port,
                  ttl=64, kind="probe", payload=b"")
        self.clock.advance(RTT_S / 2)
        opened = self._dial(actor, port)
        self.clock.advance(RTT_S / 2)
        if opened is None:
            return None
        channel, banner = opened
        self.emit(src=dst, src_port=port, dst=src, dst_port=src_port,
                  ttl=actor.ttl(), kind="banner", payload=banner)
        return MemConnection(self, src, src_port, dst, port, channel)

    def scan_ports(self, src: str, dst: str,
                   ports: list[int] | range) -> list[tuple[int, str]]:
        """Probe every port once; returns (port, banner) for the open ones."""
        actor = self._actor(dst)
        found: list[tuple[int, str]] = []
        src_port = next(self._eph_ports)
        declared = actor.spec.ports
        direction = self._direction(src, dst)
        add = self.tap.add
        # every probe record holds the same field objects but seq, ts and
        # dst_port, so write_capture reuses the text around them
        for ts, port in zip(self.clock.steps(SCAN_STEP_S, len(ports)), ports):
            self.emitted += 1
            add(CaptureRecord(self.emitted, ts, src, dst, src_port, port,
                              "tcp", 64, 0, 0.0, None, direction, "probe"))
            # most of a sweep is closed: dial only the declared ports
            opened = port in declared and self._dial(actor, port)
            if opened:
                channel, banner = opened
                if channel is not None:
                    channel.close()
                self.emit(src=dst, src_port=port, dst=src, dst_port=src_port,
                          ttl=actor.ttl(), kind="banner", payload=banner)
                found.append((port, banner.decode("ascii", "replace")))
        return sorted(found)
