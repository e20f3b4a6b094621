"""HTTP API tests: a real socket round-trip through every endpoint."""

import http.client
import io
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.optimization import TuningGrid
from repro.serve import Oracle, OracleService, make_server
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.protocol import parse_recommend

TINY_GRID = TuningGrid(
    ptx_levels=(3, 31),
    payload_values_bytes=(20, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1,),
)


def serving(policy=False):
    service = OracleService(Oracle(grid=TINY_GRID, policy=policy), workers=2)
    http_server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()
    thread.join(timeout=5.0)


@pytest.fixture
def server():
    yield from serving()


@pytest.fixture(params=[True, False], ids=["policy", "no-policy"])
def either_server(request):
    """A server with the policy tier on (the serve default) or off."""
    yield from serving(policy=request.param)


def strict_json(body):
    """Decode a response body as RFC 8259 JSON: no NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(body, parse_constant=reject)


def get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=10
    ) as response:
        return response.status, strict_json(response.read())


def post(server, path, payload):
    """POST a JSON payload (or raw ``bytes`` sent as-is); (status, body)."""
    if not isinstance(payload, bytes):
        payload = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=payload,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, strict_json(response.read())
    except urllib.error.HTTPError as error:
        return error.code, strict_json(error.read())


class TestRecommend:
    def test_round_trip_and_cache_progression(self, server):
        payload = {"link": {"distance_m": 10.0}, "objective": "energy"}
        status, cold = post(server, "/v1/recommend", payload)
        assert status == 200
        assert cold["cache"] == "miss"
        assert cold["objective"] == "energy"
        config = cold["recommendation"]["config"]
        assert config["payload_bytes"] in (20, 110)
        status, warm = post(server, "/v1/recommend", payload)
        assert status == 200
        assert warm["cache"] == "lru"
        assert warm["recommendation"] == cold["recommendation"]

    def test_constrained_recommend(self, server):
        status, body = post(
            server,
            "/v1/recommend",
            {
                "link": {"snr_db": 6.0},
                "objective": "goodput",
                "constraints": [{"objective": "energy", "max": 10.0}],
            },
        )
        assert status == 200
        assert body["recommendation"]["u_eng_uj_per_bit"] <= 10.0

    def test_infeasible_maps_to_409(self, server):
        status, body = post(
            server,
            "/v1/recommend",
            {
                "link": {"distance_m": 10.0},
                "constraints": [{"objective": "loss", "max": -1.0}],
            },
        )
        assert status == 409
        assert body["error"]["type"] == "InfeasibleError"

    def test_bad_link_maps_to_400(self, server):
        status, body = post(server, "/v1/recommend", {"link": {}})
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"

    def test_malformed_json_maps_to_400(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400


class TestEvaluate:
    def test_round_trip_matches_oracle(self, server):
        config = {"distance_m": 10.0, "ptx_level": 31, "payload_bytes": 110}
        status, body = post(server, "/v1/evaluate", {"config": config})
        assert status == 200
        evaluation = body["evaluation"]
        from repro.config import StackConfig
        from repro.serve import EvaluateRequest

        direct = server.client.service.oracle.evaluate(
            EvaluateRequest.for_config(StackConfig.from_dict(config))
        )
        assert evaluation["u_eng_uj_per_bit"] == direct.u_eng_uj_per_bit
        assert evaluation["max_goodput_kbps"] == direct.max_goodput_kbps

    def test_invalid_config_maps_to_400(self, server):
        status, body = post(
            server, "/v1/evaluate", {"config": {"ptx_level": 30}}
        )
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"


#: A link too weak to deliver anything: its per-bit energy is infinite.
WEAK_LINK = {"snr_db": -40.0}


class TestNonFiniteMetrics:
    """Non-finite metrics go out as ``null``; every body stays JSON."""

    def test_recommend(self, server):
        status, body = post(server, "/v1/recommend", {"link": WEAK_LINK})
        assert status == 200
        recommendation = body["recommendation"]
        assert recommendation["u_eng_uj_per_bit"] is None
        assert recommendation["plr_total"] == 1.0

    def test_evaluate(self, server):
        status, body = post(
            server,
            "/v1/evaluate",
            {"config": {"ptx_level": 31}, "link": WEAK_LINK},
        )
        assert status == 200
        assert body["evaluation"]["u_eng_uj_per_bit"] is None
        assert body["evaluation"]["snr_db"] == -40.0

    def test_routed_fleet(self, server):
        status, body = post(
            server,
            "/v1/fleet/recommend",
            {
                "links": [{"snr_db": 20.0}, WEAK_LINK],
                "routing": {
                    "edges": [[1, 0], [2, 1]],
                    "sink": 0,
                    "include_paths": True,
                },
            },
        )
        assert status == 200
        weak = body["results"][1]["recommendation"]
        assert weak["u_eng_uj_per_bit"] is None
        (path,) = body["routing"]["paths"]
        assert path["energy_uj_per_bit"] is None
        assert path["loss_prob"] == 1.0
        assert path["feasible"] is False


#: A finite SNR whose policy bin number overflows (1e308 / 0.25 is inf).
OVERFLOWING_LINK = {"snr_db": 1e308}


class TestOverflowingSnrBin:
    """A policy oracle answers such a link from its exact table."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "constraints", [[], [{"objective": "delay", "max": 60.0}]]
    )
    def test_recommend_matches_the_uncached_solve(self, constraints):
        payload = {"link": OVERFLOWING_LINK, "constraints": constraints}
        want = Oracle(grid=TINY_GRID, policy=True).uncached_recommend(
            parse_recommend(payload)
        )
        for http_server in serving(policy=True):
            status, body = post(http_server, "/v1/recommend", payload)
            assert status == 200
            assert body["recommendation"]["config"] == want.config.as_dict()
            status, body = post(
                http_server,
                "/v1/fleet/recommend",
                {"links": [OVERFLOWING_LINK], "constraints": constraints},
            )
            assert status == 200
            (result,) = body["results"]
            assert result["recommendation"]["config"] == want.config.as_dict()


class TestOperationalEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queue_capacity"] >= 1
        assert "cache" in body

    def test_metrics_accumulate(self, server):
        post(server, "/v1/recommend", {"link": {"distance_m": 10.0}})
        status, body = get(server, "/metrics")
        assert status == 200
        assert body["counters"]["requests_completed_total"] >= 1
        assert body["counters"]["http_status_200_total"] >= 1
        assert body["latency"]["http_request_s"]["count"] >= 1
        assert body["latency"]["request_total_s"]["p99_s"] >= 0.0

    def test_metrics_report_staircases(self):
        for http_server in serving(policy=True):
            payload = {
                "link": {"snr_db": 6.0},
                "constraints": [{"objective": "delay", "max": 40.0}],
            }
            tiers = [
                post(http_server, "/v1/recommend", payload)[1]["cache"]
                for _ in range(2)
            ]
            assert tiers == ["miss", "policy"]
            _, body = get(http_server, "/metrics")
            counters = body["counters"]
            assert counters["policy_staircase_bins"] == 1
            assert counters["policy_staircase_bytes"] > 0
            assert counters["policy_staircase_bytes"] == (
                body["policy"]["staircase_bytes"]
            )
            assert counters["policy_lookups_total"] == 2
            assert counters["policy_fallbacks_total"] == 0

    def test_unknown_route_maps_to_404(self, server):
        status, body = post(server, "/v1/optimize", {"link": {"distance_m": 5}})
        assert status == 404
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            get(server, "/nope")
        assert exc_info.value.code == 404


class TestStructuredErrors:
    """Every rejected request carries a machine-readable error body."""

    def test_error_body_has_type_code_and_message(self, server):
        status, body = post(server, "/v1/recommend", {"link": {}})
        assert status == 400
        error = body["error"]
        assert error["type"] == "ProtocolError"
        assert error["code"] == "protocol_error"
        assert isinstance(error["message"], str) and error["message"]

    def test_error_body_names_the_offending_field(self, server):
        status, body = post(
            server, "/v1/recommend", {"link": {"snr_db": "high"}}
        )
        assert status == 400
        assert body["error"]["field"] == "snr_db"

    @pytest.mark.parametrize(
        "path, payload, field",
        [
            ("/v1/recommend", {"link": {"snr_db": float("nan")}}, "snr_db"),
            ("/v1/recommend", {"link": {"snr_db": float("inf")}}, "snr_db"),
            ("/v1/recommend", {"link": {"distance_m": float("nan")}}, "distance_m"),
            (
                "/v1/fleet/recommend",
                {"links": [{"snr_db": 4.0}, {"snr_db": float("nan")}]},
                "snr_db",
            ),
            # Bodies json.loads rejects with something other than a
            # JSONDecodeError: a bare ValueError past the 4,300-digit
            # int limit, a UnicodeDecodeError, a RecursionError.
            pytest.param(
                "/v1/recommend",
                b'{"link": {"snr_db": ' + b"1" * 5000 + b"}}",
                "body",
                id="huge-integer",
            ),
            pytest.param(
                "/v1/recommend",
                b'{"link": {"snr_db": "\xff"}}',
                "body",
                id="non-utf8",
            ),
            pytest.param("/v1/recommend", b"[" * 100_000, "body", id="deep"),
        ],
    )
    def test_non_finite_number_is_a_400_naming_the_field(
        self, server, path, payload, field
    ):
        metrics = server.client.service.metrics
        rejected_before = metrics.counter("requests_rejected_protocol")
        status, body = post(server, path, payload)  # json.dumps emits NaN
        assert status == 400
        assert body["error"]["code"] == "protocol_error"
        assert body["error"]["field"] == field
        assert (
            metrics.counter("requests_rejected_protocol")
            == rejected_before + 1
        )
        status, _ = post(server, "/v1/recommend", {"link": {"snr_db": 6.0}})
        assert status == 200

    def test_malformed_json_body_is_structured(self, server):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/recommend",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400
        body = json.loads(exc_info.value.read())
        assert body["error"]["code"] == "protocol_error"
        assert body["error"]["field"] == "body"

    def test_protocol_rejections_are_counted(self, server):
        _, before = get(server, "/metrics")
        rejected_before = before["counters"].get(
            "requests_rejected_protocol", 0
        )
        post(server, "/v1/recommend", {"link": {}})
        post(server, "/v1/recommend", {"link": {"distance_m": -1.0}})
        _, after = get(server, "/metrics")
        assert (
            after["counters"]["requests_rejected_protocol"]
            == rejected_before + 2
        )

    def test_infeasible_conflict_is_not_a_protocol_rejection(self, server):
        _, before = get(server, "/metrics")
        rejected_before = before["counters"].get(
            "requests_rejected_protocol", 0
        )
        status, body = post(
            server,
            "/v1/recommend",
            {
                "link": {"distance_m": 10.0},
                "constraints": [{"objective": "loss", "max": -1.0}],
            },
        )
        assert status == 409
        assert body["error"]["code"] == "infeasible_error"
        _, after = get(server, "/metrics")
        assert (
            after["counters"].get("requests_rejected_protocol", 0)
            == rejected_before
        )


class TestReferenceLevel:
    @pytest.mark.parametrize("level", [99, 30, 0, -31, 2**70])
    def test_non_pa_reference_level_is_a_counted_400(self, either_server, level):
        metrics = either_server.client.service.metrics
        rejected_before = metrics.counter("requests_rejected_protocol")
        link = {"snr_db": 6.0, "reference_level": level}
        for path, payload in (
            ("/v1/recommend", {"link": link}),
            ("/v1/fleet/recommend", {"links": [link]}),
        ):
            status, body = post(either_server, path, payload)
            assert status == 400
            assert body["error"]["code"] == "protocol_error"
            assert body["error"]["field"] == "reference_level"
        assert (
            metrics.counter("requests_rejected_protocol")
            == rejected_before + 2
        )


class TestConnections:
    """Keep-alive timing and connection hygiene, measured at the client.

    The server's ``http_request_s`` histogram cannot see a response held
    in the socket, so these tests time and parse the wire directly.
    """

    #: Written as two sends without TCP_NODELAY, each response body
    #: waited for the client's ~40 ms delayed ACK: ~0.96 s for the 20
    #: requests below.
    KEEP_ALIVE_REQUESTS = 20
    KEEP_ALIVE_BUDGET_S = 0.4

    #: A request hidden in a body the server rejects without reading it.
    HIDDEN = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"

    @pytest.mark.parametrize(
        "path, payload, status",
        [
            ("/v1/recommend", {"link": {"distance_m": 10.0}}, 200),
            (
                "/v1/recommend",
                {
                    "link": {"distance_m": 10.0},
                    "constraints": [{"objective": "loss", "max": -1.0}],
                },
                409,
            ),
            # ~44 KB: past the 8 KiB write buffer, so the body is a second
            # send, but under the ~64 KiB Linux loopback MSS, so without
            # TCP_NODELAY Nagle would hold it for the header's ACK.
            (
                "/v1/fleet/recommend",
                {"links": [{"distance_m": 10.0}] * 100},
                200,
            ),
        ],
        ids=["ok", "conflict", "larger-than-write-buffer"],
    )
    def test_keep_alive_requests_are_not_held_for_the_ack(
        self, server, path, payload, status
    ):
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        body = json.dumps(payload)
        headers = {"Content-Type": "application/json"}

        def round_trip():
            connection.request("POST", path, body, headers)
            response = connection.getresponse()
            assert response.status == status
            return response.read()

        try:
            size = len(round_trip())  # warm: cache miss, connection open
            sock = connection.sock
            started = time.perf_counter()
            for _ in range(self.KEEP_ALIVE_REQUESTS):
                round_trip()
            elapsed_s = time.perf_counter() - started
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()
        if path == "/v1/fleet/recommend":
            assert size > io.DEFAULT_BUFFER_SIZE
        assert elapsed_s < self.KEEP_ALIVE_BUDGET_S

    @pytest.mark.parametrize(
        "path, header, status",
        [
            ("/v1/recommend", "Content-Length: abc", 400),
            ("/v1/recommend", "Content-Length: -5", 400),
            ("/v1/recommend", "Transfer-Encoding: chunked", 400),
            ("/v1/recommend", f"Content-Length: {MAX_BODY_BYTES + 1}", 413),
            ("/v1/nope", f"Content-Length: {len(HIDDEN)}", 404),
        ],
        ids=["unparsable", "negative", "chunked", "too-large", "no-route"],
    )
    def test_rejected_unread_body_closes_the_connection(
        self, server, path, header, status
    ):
        self.assert_hidden_request_never_runs(server, "POST", path, header, status)

    @pytest.mark.parametrize(
        "header",
        [f"Content-Length: {len(HIDDEN)}", "Transfer-Encoding: chunked"],
        ids=["content-length", "chunked"],
    )
    def test_get_with_a_body_closes_the_connection(self, server, header):
        self.assert_hidden_request_never_runs(server, "GET", "/healthz", header, 400)

    def assert_hidden_request_never_runs(self, server, method, path, header, status):
        """Send ``HIDDEN`` as the body; expect one response, then a close."""
        metrics = server.client.service.metrics
        requests_before = metrics.counter("http_requests_total")
        ok_before = metrics.counter("http_status_200_total")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n{header}\r\n\r\n"
        ).encode("ascii")
        received = b""
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(head + self.HIDDEN)
            try:
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break  # the server closed the connection
                    received += chunk
            except socket.timeout:
                pytest.fail(f"connection left open; received {received!r}")
        assert received.startswith(f"HTTP/1.1 {status} ".encode("ascii"))
        assert received.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in received
        assert metrics.counter("http_requests_total") == requests_before + 1
        assert metrics.counter("http_status_200_total") == ok_before

    def test_expect_100_continue_is_sent_before_the_body(self, server):
        body = json.dumps({"link": {"snr_db": 6.0}}).encode("utf-8")
        head = (
            "POST /v1/recommend HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(head)
            interim = sock.recv(65536)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            final = sock.recv(65536)
        assert final.startswith(b"HTTP/1.1 200 ")
