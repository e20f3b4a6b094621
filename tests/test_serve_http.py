"""HTTP API tests: a real socket round-trip through every endpoint."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.optimization import TuningGrid
from repro.serve import Oracle, OracleService, make_server

TINY_GRID = TuningGrid(
    ptx_levels=(3, 31),
    payload_values_bytes=(20, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1,),
)


@pytest.fixture
def server():
    service = OracleService(Oracle(grid=TINY_GRID), workers=2)
    http_server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.close()
    thread.join(timeout=5.0)


def get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def post(server, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


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
        ],
    )
    def test_non_finite_number_is_a_400_naming_the_field(
        self, server, path, payload, field
    ):
        status, body = post(server, path, payload)  # json.dumps emits NaN
        assert status == 400
        assert body["error"]["code"] == "protocol_error"
        assert body["error"]["field"] == field
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
