"""HTTP/1.1 load generator: one process, at most two keep-alive connections.

Every request is encoded before its timer starts and goes out in one
``sendall`` on a ``TCP_NODELAY`` socket, so a stall the generator
measures belongs to the server, not to the generator's own writes.
Responses are parsed just far enough to find the status and the
``Content-Length`` body.

Two load shapes share the connections:

* :meth:`LoadGenerator.closed_loop` — each connection sends its next
  request as soon as the previous answer arrives (callers that wait for
  a reply); latency is timed from the send.
* :meth:`LoadGenerator.open_loop` — requests are due on a seeded Poisson
  schedule whether or not the server kept up (independent users); a
  request due while both connections are busy waits in a FIFO, and its
  latency is timed from when it was *due*, so a stall also counts
  against the requests queued behind it. The generator's own lateness —
  how long after a request became sendable it was actually sent — is
  reported separately, because a late generator under-loads the server.

``python perf/loadgen.py --self-test`` runs the generator against a stub
server (a child process answering ``{}`` to everything) at the top
ladder rate and prints the generator's lateness.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "LoadGenerator",
    "Record",
    "Request",
    "encode_request",
    "percentile",
    "poisson_schedule",
    "stub_self_test",
]

_CONTENT_LENGTH = re.compile(rb"(?im)^content-length:\s*(\d+)")

#: Keep-alive connections per generator, sized for a 2-CPU box: one
#: request in flight for each of the server's two default workers.
CONNECTIONS = 2

#: Longest wait for one answer before the request counts as failed.
RESPONSE_TIMEOUT_S = 30.0

#: Below this many seconds to the next due time the generator spins
#: instead of sleeping in ``select`` (timer slack would make it late).
_SPIN_S = 0.0002

#: (tag, request id, due s, sent s, done s, HTTP status; 0 = failed).
Record = Tuple[object, int, float, float, float, int]


class Request:
    """A pre-encoded request: bytes around its ``X-Request-Id`` value."""

    __slots__ = ("tag", "head", "tail")

    def __init__(self, tag: object, head: bytes, tail: bytes) -> None:
        self.tag = tag
        self.head = head
        self.tail = tail

    def wire(self, request_id: int) -> bytes:
        """The full request bytes carrying ``request_id``."""
        return b"".join((self.head, str(request_id).encode(), self.tail))


def encode_request(
    tag: object,
    method: str,
    path: str,
    body: bytes = b"",
    content_type: str = "application/json",
) -> Request:
    """Encode one request once; only its request ID varies per send."""
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if body:
        head += (
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    head += "X-Request-Id: "
    return Request(tag, head.encode("ascii"), b"\r\n\r\n" + body)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def poisson_schedule(
    rate_per_s: float, duration_s: float, seed: int
) -> List[float]:
    """Due offsets (s) of a seeded Poisson arrival process."""
    rng = random.Random(seed)
    offsets = []
    now = rng.expovariate(rate_per_s)
    while now < duration_s:
        offsets.append(now)
        now += rng.expovariate(rate_per_s)
    return offsets


class _Connection:
    """One keep-alive socket with an incremental response parser."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self.address = address
        self.sock = self._connect()
        self.buffer = bytearray()
        self.body_start = -1
        self.length = 0
        self.status = 0
        #: (tag, request id, due, sent) of the request awaiting an answer.
        self.inflight: Optional[Tuple[object, int, float, float]] = None
        self.free_since = time.perf_counter()
        self.last_answer: Tuple[int, bytes] = (0, b"")

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def reconnect(self) -> None:
        self.sock.close()
        self.sock = self._connect()
        self.buffer = bytearray()
        self.body_start = -1
        self.inflight = None
        self.free_since = time.perf_counter()

    def feed(self) -> Optional[Tuple[int, bytes]]:
        """Read what arrived; ``(status, body)`` once a response is whole."""
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk
        if self.body_start < 0:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return None
            head = bytes(self.buffer[:end])
            self.status = int(head[9:12])
            match = _CONTENT_LENGTH.search(head)
            self.length = int(match.group(1)) if match else 0
            self.body_start = end + 4
        stop = self.body_start + self.length
        if len(self.buffer) < stop:
            return None
        body = bytes(self.buffer[self.body_start : stop])
        del self.buffer[:stop]
        self.body_start = -1
        return self.status, body


class LoadGenerator:
    """Drives an HTTP server over two keep-alive sockets.

    ``on_response(tag, status, body)`` sees every answer (status 0 for a
    failed request, with the error text as body); :attr:`records` keeps
    the timing of each. Request IDs are drawn from ``ids``, which several
    generators of one run can share so IDs stay unique.
    """

    def __init__(
        self,
        port: int,
        on_response: Optional[Callable[[object, int, bytes], None]] = None,
        ids: Optional[Iterator[int]] = None,
    ) -> None:
        address = ("127.0.0.1", int(port))
        self._conns = [_Connection(address) for _ in range(CONNECTIONS)]
        self._selector = selectors.SelectSelector()
        for conn in self._conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        self._on_response = on_response
        self._ids = ids if ids is not None else itertools.count(1)
        self.records: List[Record] = []
        #: Generator lateness (s) of each open-loop request.
        self.lateness: List[float] = []

    def close(self) -> None:
        self._selector.close()
        for conn in self._conns:
            conn.sock.close()

    def __enter__(self) -> "LoadGenerator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------- plumbing

    def _send(self, conn: _Connection, request: Request, due: float) -> float:
        """Send on a free connection; returns the send time.

        A failed send is recorded (status 0) and leaves the connection
        reconnected and free again.
        """
        request_id = next(self._ids)
        data = request.wire(request_id)
        sent = time.perf_counter()
        conn.inflight = (request.tag, request_id, due, sent)
        try:
            conn.sock.sendall(data)
        except OSError as exc:
            self._fail(conn, exc)
        return sent

    def _finish(self, conn: _Connection, status: int, body: bytes) -> None:
        done = time.perf_counter()
        tag, request_id, due, sent = conn.inflight
        conn.inflight = None
        conn.free_since = done
        conn.last_answer = (status, body)
        self.records.append((tag, request_id, due, sent, done, status))
        if self._on_response is not None:
            self._on_response(tag, status, body)

    def _fail(self, conn: _Connection, error: BaseException) -> None:
        if conn.inflight is not None:
            self._finish(conn, 0, repr(error).encode())
        self._selector.unregister(conn.sock)
        conn.reconnect()
        self._selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _poll(self, timeout: float) -> None:
        """Wait up to ``timeout`` s and finish whatever answers arrived."""
        for key, _ in self._selector.select(max(timeout, 0.0)):
            conn: _Connection = key.data
            try:
                answer = conn.feed()
            except OSError as exc:
                self._fail(conn, exc)
                continue
            if answer is not None and conn.inflight is not None:
                self._finish(conn, *answer)
        now = time.perf_counter()
        for conn in self._conns:
            if (
                conn.inflight is not None
                and now - conn.inflight[3] > RESPONSE_TIMEOUT_S
            ):
                self._fail(conn, TimeoutError("no answer"))

    def _busy(self) -> bool:
        return any(conn.inflight is not None for conn in self._conns)

    # ------------------------------------------------------------- loads

    def request(self, request: Request) -> Tuple[int, bytes]:
        """Send one request on the first connection; its (status, body)."""
        conn = self._conns[0]
        self._send(conn, request, time.perf_counter())
        while conn.inflight is not None:
            self._poll(1.0)
        return conn.last_answer

    def closed_loop(
        self,
        next_request: Callable[[], Request],
        duration_s: float,
        max_requests: Optional[int] = None,
    ) -> List[Record]:
        """Keep every connection busy until ``duration_s`` (or a count)."""
        first = len(self.records)
        deadline = time.perf_counter() + duration_s
        sent = 0

        def refill() -> None:
            nonlocal sent
            for conn in self._conns:
                while conn.inflight is None and (
                    time.perf_counter() < deadline
                    and (max_requests is None or sent < max_requests)
                ):
                    sent += 1
                    self._send(conn, next_request(), time.perf_counter())

        refill()
        while self._busy():
            self._poll(1.0)
            refill()
        return self.records[first:]

    def open_loop(
        self, schedule: Sequence[Tuple[float, Request]]
    ) -> List[Record]:
        """Send each request at its due offset (s) from a common start."""
        first = len(self.records)
        start = time.perf_counter() + 0.05
        ready: Deque[Tuple[float, Request]] = deque()
        index = 0
        while index < len(schedule) or ready or self._busy():
            now = time.perf_counter()
            while index < len(schedule) and start + schedule[index][0] <= now:
                offset, request = schedule[index]
                ready.append((start + offset, request))
                index += 1
            for conn in self._conns:
                if ready and conn.inflight is None:
                    due, request = ready.popleft()
                    sendable = max(due, conn.free_since)
                    self.lateness.append(self._send(conn, request, due) - sendable)
            if index < len(schedule):
                wait = start + schedule[index][0] - time.perf_counter()
                if wait < _SPIN_S and not ready:
                    wait = 0.0
            else:
                wait = 1.0
            if wait > 0.0 or self._busy():
                self._poll(wait)
        return self.records[first:]


# -------------------------------------------------------------- self-test


def _stub_server() -> int:
    """Answer every request with ``{}`` until SIGINT/SIGTERM (child process)."""
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.setblocking(False)
    selector = selectors.DefaultSelector()
    selector.register(listener, selectors.EVENT_READ, None)
    buffers: Dict[socket.socket, bytearray] = {}
    response = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
    signal.signal(signal.SIGINT, lambda *_: stopping.append(1))
    print(listener.getsockname()[1], flush=True)
    while not stopping:
        for key, _ in selector.select(0.2):
            if key.data is None:
                conn, _ = listener.accept()
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                buffers[conn] = bytearray()
                selector.register(conn, selectors.EVENT_READ, conn)
                continue
            conn = key.data
            chunk = conn.recv(1 << 16)
            if not chunk:
                selector.unregister(conn)
                conn.close()
                del buffers[conn]
                continue
            buffer = buffers[conn]
            buffer += chunk
            while True:
                end = buffer.find(b"\r\n\r\n")
                if end < 0:
                    break
                match = _CONTENT_LENGTH.search(bytes(buffer[:end]))
                stop = end + 4 + (int(match.group(1)) if match else 0)
                if len(buffer) < stop:
                    break
                del buffer[:stop]
                conn.sendall(response)
    return 0


def stub_self_test(
    rate_per_s: float = 3000.0, duration_s: float = 2.0
) -> Dict[str, float]:
    """Open-loop run against the stub; the generator's lateness and misses."""
    stub = subprocess.Popen(
        [sys.executable, __file__, "--stub"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(stub.stdout.readline())
        request = encode_request("stub", "POST", "/", b'{"x": 1}')
        offsets = poisson_schedule(rate_per_s, duration_s, seed=0)
        with LoadGenerator(port) as generator:
            generator.closed_loop(lambda: request, 0.2)
            records = generator.open_loop([(t, request) for t in offsets])
            late = generator.lateness
        latency_ms = [(done - due) * 1e3 for _, _, due, _, done, _ in records]
        return {
            "rate_per_s": rate_per_s,
            "requests": float(len(records)),
            "failed": float(sum(1 for r in records if r[5] != 200)),
            "late_p99_ms": percentile(late, 99) * 1e3,
            "latency_p99_ms": percentile(latency_ms, 99),
            "miss_10ms_ratio": sum(1 for v in latency_ms if v > 10.0)
            / max(1, len(latency_ms)),
        }
    finally:
        stub.send_signal(signal.SIGTERM)
        stub.wait(10)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--stub", action="store_true", help=argparse.SUPPRESS)
    group.add_argument(
        "--self-test",
        action="store_true",
        help="hold the top ladder rate against a stub server",
    )
    args = parser.parse_args(argv)
    if args.stub:
        return _stub_server()
    result = stub_self_test()
    print(json.dumps(result))
    return 0 if result["late_p99_ms"] <= 1.0 and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
