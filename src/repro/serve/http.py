"""Stdlib HTTP front-end for the oracle service.

Endpoints (JSON in, JSON out; schemas in ``docs/SERVING.md``):

* ``POST /v1/recommend`` — best configuration for a link under an
  objective and optional epsilon-constraints;
* ``POST /v1/fleet/recommend`` — best configurations for a whole batch of
  links sharing one objective/constraint policy (per-link infeasibility is
  reported in-band, not as a 409);
* ``POST /v1/evaluate`` — model metrics of one explicit configuration;
* ``POST /v1/telemetry`` — one device uplink batch, either raw binary
  frames (``Content-Type: application/octet-stream``) or JSON uplinks;
* ``GET /v1/telemetry/state`` — measured-fleet snapshot (404 when the
  service runs without an ingestor);
* ``GET /healthz`` — liveness plus queue/cache occupancy;
* ``GET /metrics`` — counters and latency histograms.

Error mapping: malformed payloads and out-of-domain parameters are 400,
an infeasible constraint set is 409, backpressure rejections are 503 with
a ``Retry-After`` header, and deadline expiries are 504. Error bodies are
structured (``error.type`` / ``error.code`` / ``error.message`` and,
when the offending request field is known, ``error.field``), and every
4xx protocol rejection increments ``requests_rejected_protocol``. The
server is the stdlib :class:`~http.server.ThreadingHTTPServer` — no
third-party dependencies, one thread per connection, with the real
concurrency bound enforced by the service's worker pool and bounded
queue behind it.

Connections are HTTP/1.1 keep-alive on ``TCP_NODELAY`` sockets, and
each response leaves in one buffered write flushed at the end of the
request, so no request waits on the peer's delayed ACK. A rejection
that leaves the request body unread closes the connection, so the
unread bytes are never parsed as a next request.
"""

from __future__ import annotations

import json
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..errors import (
    InfeasibleError,
    OverloadError,
    ProtocolError,
    ReproError,
    ServiceTimeoutError,
)
from .client import Client
from .service import OracleService

__all__ = [
    "OracleHTTPServer",
    "OracleRequestHandler",
    "make_server",
]

#: Largest accepted request body; anything bigger is rejected with 413.
MAX_BODY_BYTES = 1 << 20


def _error_code(error: BaseException) -> str:
    """Stable snake_case wire code of an exception class.

    ``ProtocolError`` → ``protocol_error``, ``InfeasibleError`` →
    ``infeasible_error`` — derived, so a new error class cannot forget
    to register a code.
    """
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(error).__name__).lower()


class OracleHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server owning the in-process client it serves."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        client: Client,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, OracleRequestHandler)
        self.client = client
        self.quiet = quiet

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.server_address[1]


class OracleRequestHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints onto the in-process client."""

    server: OracleHTTPServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted connection: Nagle would hold a
    #: response's tail until the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: A buffered ``wfile``, so the header block and the body go out in
    #: one send; ``handle_one_request`` flushes it after each request.
    wbufsize = -1

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args: object) -> None:
        """Default request logging is suppressed unless the server opts in."""
        if not self.server.quiet:
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def handle_expect_100(self) -> bool:
        """Flush the interim ``100 Continue`` before the body is read.

        The buffered ``wfile`` would otherwise hold it back with the final
        response, while the client holds back the body waiting for it.
        """
        accepted = BaseHTTPRequestHandler.handle_expect_100(self)
        self.wfile.flush()
        return accepted

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        metrics = self.server.client.service.metrics
        metrics.increment("http_requests_total")
        metrics.increment(f"http_status_{status}_total")

    def _send_error_json(
        self,
        status: int,
        error: BaseException,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        detail: Dict[str, object] = {
            "type": type(error).__name__,
            "code": _error_code(error),
            "message": str(error),
        }
        field = getattr(error, "field", None)
        if field is not None:
            detail["field"] = field
        if status in (400, 413):
            self.server.client.service.metrics.increment(
                "requests_rejected_protocol"
            )
        self._send_json(status, {"error": detail}, headers)

    def _reject_unread_body(self, status: int, error: ProtocolError) -> None:
        """Answer a request whose body is still unread, then close.

        On a keep-alive connection the unread bytes would otherwise be
        parsed as the next request; ``Connection: close`` makes the stdlib
        handler drop the connection once this response is flushed.
        """
        self._send_error_json(status, error, {"Connection": "close"})

    def _read_raw_body(self) -> Optional[bytes]:
        """Raw request body bytes, or None after an error response was sent."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._reject_unread_body(
                400, ProtocolError("bad Content-Length", field="Content-Length")
            )
            return None
        if length <= 0:
            self._reject_unread_body(400, ProtocolError("empty request body"))
            return None
        if length > MAX_BODY_BYTES:
            self._reject_unread_body(
                413, ProtocolError("request body too large")
            )
            return None
        return self.rfile.read(length)

    def _read_body(self) -> Optional[object]:
        """Decoded JSON body, or None after an error response was sent."""
        raw = self._read_raw_body()
        if raw is None:
            return None
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, but also the bare ValueError of an integer
            # over the int-to-str digit limit, the UnicodeDecodeError of a
            # non-UTF-8 body and the RecursionError of deep nesting.
            self._send_error_json(
                400, ProtocolError(f"bad JSON: {exc}", field="body")
            )
            return None

    # ------------------------------------------------------------- endpoints

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        client = self.server.client
        if self.path == "/healthz":
            self._send_json(200, client.healthz())
        elif self.path == "/metrics":
            self._send_json(200, client.metrics())
        elif self.path == "/v1/telemetry/state":
            if client.service.ingestor is None:
                self._send_error_json(
                    404,
                    ProtocolError(
                        "telemetry ingestion is not enabled on this service"
                    ),
                )
            else:
                self._send_json(200, client.telemetry_state())
        else:
            self._send_error_json(
                404, ProtocolError(f"no route {self.path}")
            )

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler naming)
        client = self.server.client
        if self.path == "/v1/recommend":
            handler = client.recommend
        elif self.path == "/v1/fleet/recommend":
            handler = client.recommend_fleet
        elif self.path == "/v1/evaluate":
            handler = client.evaluate
        elif self.path == "/v1/telemetry":
            handler = client.telemetry
        else:
            self._reject_unread_body(
                404, ProtocolError(f"no route {self.path}")
            )
            return
        content_type = self.headers.get("Content-Type", "")
        binary = (
            self.path == "/v1/telemetry"
            and content_type.split(";")[0].strip().lower()
            == "application/octet-stream"
        )
        payload = self._read_raw_body() if binary else self._read_body()
        if payload is None:
            return
        started = time.monotonic()
        try:
            response = handler(payload)
        except OverloadError as exc:
            self._send_error_json(
                503, exc, {"Retry-After": f"{exc.retry_after_s:g}"}
            )
            return
        except ServiceTimeoutError as exc:
            self._send_error_json(504, exc)
            return
        except InfeasibleError as exc:
            self._send_error_json(409, exc)
            return
        except ValueError as exc:
            # ProtocolError, ConfigurationError, ModelError — the bad-input
            # errors all double as ValueError (see errors.py).
            self._send_error_json(400, exc)
            return
        except ReproError as exc:
            self._send_error_json(500, exc)
            return
        finally:
            self.server.client.service.metrics.observe(
                "http_request_s", time.monotonic() - started
            )
        self._send_json(200, response)


def make_server(
    service: OracleService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> OracleHTTPServer:
    """Bind an :class:`OracleHTTPServer` over a service (port 0 = ephemeral).

    The caller owns both lifetimes: ``serve_forever()``/``shutdown()`` for
    the server, ``service.close()`` for the workers.
    """
    return OracleHTTPServer((host, port), Client(service), quiet=quiet)
