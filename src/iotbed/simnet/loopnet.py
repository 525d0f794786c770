"""Loopback transport backend: real TCP sockets on 127.0.0.1.

LoopbackNetwork is a MemoryNetwork on a WallClock with a socket transport:
the same device actors, tap, proxies and client operations, in wall time
over sockets instead of virtual time over in-process calls.  Each open
virtual port becomes a threaded TCP server on an OS-assigned loopback
port.  _dial connects to it and reads the banner; _exchange sends a
request as one length-prefixed frame and reads the one frame the device's
ServiceEngine answers, where an empty frame stands for no reply (the
engine's replies are never empty), so an unanswered request returns at
once.  _transit waits only for a proxy's delay: the legs take real time.
Timing here is NOT deterministic; the memory backend is the one with
reproducibility guarantees.

One re-entrant lock, LoopbackNetwork.lock, guards the devices, proxies
and tap: every clock callback, engine.handle, emit, proxy decision and
context event runs under it.  Call shutdown() when done.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

from .clock import WallClock
from .devspec import DeviceSpec
from .memnet import DeviceHandle, MemConnection, MemoryNetwork, _DeviceActor

FRAME_HEAD = struct.Struct(">I")
REQUEST_TIMEOUT_S = 2.0
# How often an idle port server checks for shutdown; shutdown() waits
# about this long.
POLL_S = 0.05


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

    def __init__(self, lock: threading.RLock, actor: _DeviceActor,
                 vport: int):
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


class LoopbackNetwork(MemoryNetwork):
    """MemoryNetwork in wall time over real sockets; see module docstring."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.lock = threading.RLock()
        self.clock = WallClock(self.lock)
        self._servers: dict[tuple[str, int], _FrameServer] = {}

    def emit(self, **record) -> None:
        # re-entrant: clock callbacks already hold the lock when they emit
        with self.lock:
            super().emit(**record)

    def spawn_device(self, spec: DeviceSpec, dut: bool = True) -> DeviceHandle:
        with self.lock:
            handle = super().spawn_device(spec, dut)
        actor = self.actors[spec.device_id]
        for vport in spec.ports:
            server = self._servers[spec.device_id, vport] = _FrameServer(
                self.lock, actor, vport)
            threading.Thread(target=server.serve_forever, args=(POLL_S,),
                             daemon=True).start()
        return handle

    def shutdown(self) -> None:
        self.clock.shutdown()
        # serve_forever notices a shutdown only at its next poll, so stop
        # every server at once rather than one poll apiece.
        servers = self._servers.values()
        stoppers = [threading.Thread(target=s.shutdown) for s in servers]
        for t in stoppers:
            t.start()
        for t in stoppers:
            t.join()
        for server in servers:
            server.server_close()

    # -- transport hooks ---------------------------------------------------
    def _transit(self, seconds: float, delay_s: float = 0.0) -> None:
        if delay_s > 0:
            self.clock.advance(delay_s)

    def _dial(self, actor: _DeviceActor,
              port: int) -> tuple[socket.socket, bytes] | None:
        server = self._servers.get((actor.spec.device_id, port))
        if server is None or not actor.state.alive:
            return None
        sock = socket.socket()
        sock.settimeout(REQUEST_TIMEOUT_S)
        try:
            sock.connect(server.server_address)
            _send_frame(sock, b"BANNER")
            banner = _recv_frame(sock)
        except OSError:
            banner = None
        if not banner:
            sock.close()
            return None
        return sock, banner

    def _exchange(self, conn: MemConnection, data: bytes) -> bytes | None:
        try:
            _send_frame(conn.channel, data)
            return _recv_frame(conn.channel) or None
        except OSError:
            return None
