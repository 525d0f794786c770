"""Loopback transport backend: real TCP sockets on 127.0.0.1.

LoopbackNetwork is a MemoryNetwork whose requests cross TCP: each open
virtual port listens on a loopback port, and only the transport hooks
_dial and _exchange differ.  Device events fire on the same VirtualClock,
so under a fixed seed both backends write the same records at the same
virtual times.  One selector loop (the Reactor pattern) serves every
socket, on the caller's thread, while a client waits for a reply
(_reply); so it needs no thread and no lock, and takes client calls from
one thread at a time.  A request and its reply each travel as one
length-prefixed frame; an empty frame stands for no reply (the engine's
replies are never empty), so an unanswered request returns at once.
REQUEST_TIMEOUT_S bounds each wait in real seconds.
"""

from __future__ import annotations

import socket
import struct
import time
from functools import partial
from selectors import EVENT_READ, DefaultSelector

from .devspec import DeviceSpec
from .memnet import DeviceHandle, MemConnection, MemoryNetwork, _DeviceActor

FRAME_HEAD = struct.Struct(">I")
MAX_FRAME = 1 << 20         # anything on the host can connect to a port
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
    if length > MAX_FRAME:
        return None
    return _recv_exact(sock, length)


class LoopbackNetwork(MemoryNetwork):
    """MemoryNetwork over sockets; call shutdown() when done."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._listeners: dict[tuple[str, int], socket.socket] = {}
        self._selector = DefaultSelector()

    def spawn_device(self, spec: DeviceSpec, dut: bool = True) -> DeviceHandle:
        handle = super().spawn_device(spec, dut)
        for vport in spec.ports:
            listener = socket.create_server(("127.0.0.1", 0))
            listener.setblocking(False)
            self._listeners[spec.device_id, vport] = listener
            self._selector.register(listener, EVENT_READ, partial(
                self._accept, self.actors[spec.device_id], vport))
        return handle

    def shutdown(self) -> None:
        """Closes every socket; callbacks still queued then never fire."""
        for key in self._selector.get_map().values():
            key.fileobj.close()
        self._selector.close()

    def _serve(self, timeout: float, until: object = None) -> bool:
        """One round of the loop: waits at most timeout and serves the
        ready sockets.  True as soon as `until` is readable."""
        for key, _ in self._selector.select(timeout):
            if key.fileobj is until:
                return True
            key.data(key.fileobj)
        return False

    def _reply(self, sock: socket.socket) -> bytes | None:
        """Serves the loop until sock is readable, for at most
        REQUEST_TIMEOUT_S; the frame then read from sock, or None."""
        deadline = time.monotonic() + REQUEST_TIMEOUT_S
        self._selector.register(sock, EVENT_READ)
        try:
            while not self._serve(deadline - time.monotonic(), sock):
                if time.monotonic() >= deadline:
                    return None
        finally:
            self._selector.unregister(sock)
        return _recv_frame(sock)

    def _accept(self, actor: _DeviceActor, vport: int,
                listener: socket.socket) -> None:
        try:
            conn, _ = listener.accept()
        except OSError:             # the client went away before the accept
            return
        conn.settimeout(REQUEST_TIMEOUT_S)  # bounds a send; recv runs on data
        self._selector.register(conn, EVENT_READ, partial(
            self._read, actor, vport, bytearray()))

    def _read(self, actor: _DeviceActor, vport: int, buf: bytearray,
              conn: socket.socket) -> None:
        """Answers each whole frame received so far, or closes conn."""
        try:
            chunk = conn.recv(1 << 16)
            buf += chunk
            while chunk:
                if len(buf) < FRAME_HEAD.size:
                    return
                (length,) = FRAME_HEAD.unpack_from(buf)
                end = FRAME_HEAD.size + length
                if length > MAX_FRAME:
                    break
                if len(buf) < end:
                    return
                data = bytes(buf[FRAME_HEAD.size:end])
                del buf[:end]
                reply = actor.engine.handle(vport, data)
                if not actor.state.alive:
                    break
                _send_frame(conn, reply or b"")
        except OSError:             # reset by the client, or a stuck send
            pass
        self._selector.unregister(conn)
        conn.close()

    def _dial(self, actor: _DeviceActor,
              port: int) -> tuple[socket.socket, bytes] | None:
        listener = self._listeners.get((actor.spec.device_id, port))
        if listener is None or not actor.state.alive:
            return None
        sock = socket.socket()
        sock.settimeout(REQUEST_TIMEOUT_S)
        try:
            sock.connect(listener.getsockname())
            _send_frame(sock, b"BANNER")
            banner = self._reply(sock)
        except OSError:
            banner = None
        if not banner:
            sock.close()
            return None
        return sock, banner

    def _exchange(self, conn: MemConnection, data: bytes) -> bytes | None:
        try:
            _send_frame(conn.channel, data)
            return self._reply(conn.channel) or None
        except OSError:
            return None
