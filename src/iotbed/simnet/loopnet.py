"""Loopback transport backend: real TCP sockets on 127.0.0.1.

Devices are the same actors the in-memory backend runs (memnet's
_DeviceActor), scheduled here on a WallClock instead of a VirtualClock:
both backends run one device model and differ only in clock and
transport, wall time against virtual time and sockets against in-process
calls.  Each open virtual port becomes a threaded TCP server on an
OS-assigned loopback port; requests travel as length-prefixed frames and
are answered by the device's ServiceEngine, one frame per request; an
empty frame stands for no reply (the engine's replies are never empty),
so an unanswered request returns at once, as on the memory backend.  A
proxy acts at the client connection, as on the memory backend:
LoopConnection.request runs each frame through the device's request and
response paths with the same drop and corrupt accounting, so a dropped
request is neither recorded nor sent and returns at once.  Timing here is
NOT deterministic; the memory backend is the one with reproducibility
guarantees.

One lock, LoopbackNetwork.lock, guards the devices and the tap: every
clock callback, every engine.handle and every emit runs under it.

Intended for integration realism; call shutdown() when done.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading
import time

from ..errors import TransportError
from .clock import WallClock
from .context import ContextEvent
from .devspec import DeviceSpec
from .memnet import (DeviceHandle, MemoryNetwork, _DeviceActor, _mutate,
                     _Network)

FRAME_HEAD = struct.Struct(">I")
REQUEST_TIMEOUT_S = 2.0


def _send_frame(sock: socket.socket, data: bytes) -> None:
    sock.sendall(FRAME_HEAD.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> bytes | None:
    head = _recv_exact(sock, FRAME_HEAD.size)
    if head is None:
        return None
    (length,) = FRAME_HEAD.unpack(head)
    if length > 1 << 20:
        return None
    return _recv_exact(sock, length)


class _FrameServer(socketserver.ThreadingTCPServer):
    """Serves one virtual port of one device."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, lock: threading.Lock, actor: _DeviceActor, vport: int):
        self.lock = lock
        self.actor = actor
        self.vport = vport
        super().__init__(("127.0.0.1", 0), _FrameHandler)


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server: _FrameServer = self.server
        actor = server.actor
        while True:
            data = _recv_frame(self.request)
            if data is None:
                return
            with server.lock:
                reply = actor.engine.handle(server.vport, data)
            if not actor.state.alive:
                return
            try:
                _send_frame(self.request, reply or b"")
            except OSError:
                return


class LoopConnection:
    def __init__(self, net: "LoopbackNetwork", sock: socket.socket, src: str,
                 src_port: int, dst: str, dst_port: int):
        self.net = net
        self.sock = sock
        self.src = src
        self.src_port = src_port
        self.dst = dst
        self.dst_port = dst_port
        self.closed = False

    def request(self, data: bytes, kind: str = "request") -> bytes | None:
        if self.closed:
            raise TransportError("connection closed")
        net = self.net
        with net.lock:
            proxy = net.proxy_for(self.dst)
            if proxy is not None:
                data = _mutate(proxy.request_path, proxy.mutator, data)
                if data is None:
                    return None
            net.emit(src=self.src, src_port=self.src_port, dst=self.dst,
                     dst_port=self.dst_port, ttl=64, kind=kind, payload=data)
        try:
            _send_frame(self.sock, data)
            reply = _recv_frame(self.sock) or None
        except OSError:
            return None
        if reply is not None and proxy is not None:
            with net.lock:
                reply = _mutate(proxy.response_path, proxy.mutator, reply)
            if reply is not None:
                net.observe(proxy.mutator.delay_ms / 1000.0)
        if reply is None:
            return None
        with net.lock:
            net.emit(src=self.dst, src_port=self.dst_port, dst=self.src,
                     dst_port=self.src_port, ttl=net.actors[self.dst].ttl(),
                     kind="response", payload=reply)
        return reply

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.sock.close()


def _open_port(real_port: int) -> tuple[socket.socket, bytes] | None:
    """Connect to a loopback port and read its banner; None on failure."""
    sock = socket.socket()
    sock.settimeout(REQUEST_TIMEOUT_S)
    try:
        sock.connect(("127.0.0.1", real_port))
        _send_frame(sock, b"BANNER")
        banner = _recv_frame(sock)
    except OSError:
        banner = None
    if not banner:
        sock.close()
        return None
    return sock, banner


class LoopbackNetwork(_Network):
    """Real-socket sibling of MemoryNetwork with the same operation set."""

    backend_name = "loopback"

    def __init__(self, seed: int = 0):
        self.lock = threading.Lock()
        super().__init__(seed, WallClock(self.lock))
        self._ports: dict[str, dict[int, int]] = {}   # device: virtual->real
        self._servers: list[_FrameServer] = []

    # Records are stamped exactly as on the memory backend; every caller
    # holds self.lock.
    emit = MemoryNetwork.emit

    def observe(self, seconds: float) -> None:
        time.sleep(seconds)

    def advance_context(self, events: list[ContextEvent]) -> None:
        """Publish each event once the wall clock reaches its t; one whose
        t has passed is published at once."""
        if any(b.t < a.t for a, b in zip(events, events[1:])):
            raise TransportError("context events not sorted")
        for event in events:
            while (wait := event.t - self.clock.now()) > 0:
                time.sleep(wait)
            with self.lock:
                self.feed.publish(event)

    # -- device lifecycle -----------------------------------------------
    def spawn_device(self, spec: DeviceSpec, dut: bool = True) -> DeviceHandle:
        with self.lock:
            handle = super().spawn_device(spec, dut)
        actor = self.actors[spec.device_id]
        ports = self._ports[spec.device_id] = {}
        for vport in spec.ports:
            server = _FrameServer(self.lock, actor, vport)
            ports[vport] = server.server_address[1]
            self._servers.append(server)
            threading.Thread(target=server.serve_forever, daemon=True).start()
        return handle

    # -- client operations ----------------------------------------------
    def connect(self, src: str, dst: str, port: int) -> LoopConnection | None:
        actor = self._target(dst)
        src_port = next(self._eph_ports)
        with self.lock:
            self.emit(src=src, src_port=src_port, dst=dst, dst_port=port,
                      ttl=64, kind="probe", payload=b"")
        real = self._ports[dst].get(port)
        if real is None or not actor.state.alive:
            return None
        opened = _open_port(real)
        if opened is None:
            return None
        sock, banner = opened
        with self.lock:
            self.emit(src=dst, src_port=port, dst=src, dst_port=src_port,
                      ttl=actor.ttl(), kind="banner", payload=banner)
        return LoopConnection(self, sock, src, src_port, dst, port)

    def scan_ports(self, src: str, dst: str,
                   ports: list[int] | range) -> list[tuple[int, str]]:
        actor = self._target(dst)
        found: list[tuple[int, str]] = []
        src_port = next(self._eph_ports)
        for port in ports:
            with self.lock:
                self.emit(src=src, src_port=src_port, dst=dst, dst_port=port,
                          ttl=64, kind="probe", payload=b"")
            real = self._ports[dst].get(port)
            if real is None or not actor.state.alive:
                continue
            opened = _open_port(real)
            if opened is None:
                continue
            sock, banner = opened
            sock.close()
            with self.lock:
                self.emit(src=dst, src_port=port, dst=src, dst_port=src_port,
                          ttl=actor.ttl(), kind="banner", payload=banner)
            found.append((port, banner.decode("ascii", "replace")))
        return sorted(found)

    def shutdown(self) -> None:
        self.clock.shutdown()
        _stop_servers(self._servers)


def _stop_servers(servers: list[socketserver.TCPServer]) -> None:
    # serve_forever notices a shutdown only at its next poll, so stop every
    # server at once rather than one poll interval apiece.
    stoppers = [threading.Thread(target=s.shutdown) for s in servers]
    for t in stoppers:
        t.start()
    for t in stoppers:
        t.join()
    for server in servers:
        server.server_close()
