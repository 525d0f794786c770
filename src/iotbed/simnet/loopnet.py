"""Loopback transport backend: real TCP sockets on 127.0.0.1.

LoopbackNetwork is a MemoryNetwork in wall time over TCP: each open virtual
port listens on a loopback port.  One I/O thread runs one selector loop (the
Reactor pattern): it fires the WallClock's due callbacks and serves every
port and connection.  A request and its reply each travel as one
length-prefixed frame; an empty frame stands for no reply (the engine's
replies are never empty), so an unanswered request returns at once.  Timing
is NOT deterministic; the memory backend is the one with reproducibility
guarantees.  One re-entrant lock, LoopbackNetwork.lock, guards the devices,
proxies, tap, clock queue and selector changes.
"""

from __future__ import annotations

import socket
import struct
import threading
from functools import partial
from selectors import EVENT_READ, DefaultSelector

from .clock import WallClock
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
    """MemoryNetwork in wall time over sockets; call shutdown() when done."""

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self.lock = threading.RLock()
        self._listeners: dict[tuple[str, int], socket.socket] = {}
        self._selector = DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        self._selector.register(self._wake_r, EVENT_READ)
        self.clock = WallClock(self.lock, self._wake)
        self._io = threading.Thread(target=self._serve, daemon=True)
        self._io.start()

    def emit(self, *args, **kwargs) -> None:
        # re-entrant: clock callbacks already hold the lock when they emit
        with self.lock:
            super().emit(*args, **kwargs)

    def spawn_device(self, spec: DeviceSpec, dut: bool = True) -> DeviceHandle:
        with self.lock:
            handle = super().spawn_device(spec, dut)
            for vport in spec.ports:
                listener = socket.create_server(("127.0.0.1", 0))
                listener.setblocking(False)
                self._listeners[spec.device_id, vport] = listener
                self._selector.register(listener, EVENT_READ, partial(
                    self._accept, self.actors[spec.device_id], vport))
        self._wake()                # a select() under way misses new sockets
        return handle

    def shutdown(self) -> None:
        """Stops the I/O loop; callbacks still queued then never fire."""
        self._wake_w.close()
        self._io.join()

    def _wake(self) -> None:
        """Ends a select() under way.  A full buffer will end it anyway, and
        a closed _wake_w means the loop is gone, so OSError is ignored."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass

    def _serve(self) -> None:
        """Fires due timers and serves sockets until _wake_w is closed."""
        try:
            while True:
                timeout = self.clock.fire_due()
                for key, _ in self._selector.select(timeout):
                    if key.fileobj is not self._wake_r:
                        key.data(key.fileobj)
                    elif not self._wake_r.recv(4096):
                        return
        finally:
            for key in self._selector.get_map().values():
                key.fileobj.close()
            self._selector.close()

    def _accept(self, actor: _DeviceActor, vport: int,
                listener: socket.socket) -> None:
        try:
            conn, _ = listener.accept()
        except OSError:             # the client went away before the accept
            return
        conn.settimeout(REQUEST_TIMEOUT_S)  # bounds a send; recv runs on data
        with self.lock:
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
                with self.lock:
                    reply = actor.engine.handle(vport, data)
                if not actor.state.alive:
                    break
                _send_frame(conn, reply or b"")
        except OSError:             # reset by the client, or a stuck send
            pass
        with self.lock:
            self._selector.unregister(conn)
        conn.close()

    def _transit(self, seconds: float, delay_s: float = 0.0) -> None:
        if delay_s > 0:
            self.clock.advance(delay_s)

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
