"""End-to-end telemetry: the pinned invariant and the full HTTP loop."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.optimization import TuningGrid
from repro.fleet import (
    FleetDrift,
    FleetEngine,
    FleetState,
    grid_topology,
    run_fleet,
)
from repro.serve import Oracle, OracleService, make_server
from repro.telemetry import (
    DeviceFleetSimulator,
    SnrEstimator,
    TelemetryIngestor,
    TelemetrySnrSource,
    UPLINK_TEMPLATE_EXACT,
    UplinkCodec,
)

TINY_GRID = TuningGrid(
    ptx_levels=(3, 31),
    payload_values_bytes=(20, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1,),
)


def measured_source(topology, seed, alpha=1.0):
    """Drift-driven simulator + ingestor pair over a topology."""
    truth = FleetState.from_topology(topology)
    serving = FleetState.from_topology(topology)
    simulator = DeviceFleetSimulator(
        truth,
        template=UPLINK_TEMPLATE_EXACT,
        mode="periodic",
        seed=0,
        drift=FleetDrift(topology, seed=seed),
    )
    ingestor = TelemetryIngestor(serving, SnrEstimator(alpha=alpha))
    return TelemetrySnrSource(simulator, ingestor), serving


class TestNoiselessInvariant:
    """Pinned: noiseless uplinks reproduce the drift trajectory exactly.

    A periodic simulator with no measurement noise, the bit-exact f64
    template, and an ``alpha=1.0`` estimator is the identity channel —
    the measured pipeline (drift → encode → wire → decode → estimator)
    must land on *bit-for-bit* the same SNR column as stepping the drift
    directly. Any quantization, reordering, or arithmetic drift in the
    codec/estimator path breaks this.
    """

    SEED = 2015
    N_STEPS = 20

    def test_measured_trajectory_is_bit_identical_to_drift(self):
        topology = grid_topology(24, seed=self.SEED)
        source, serving = measured_source(topology, self.SEED)
        reference_state = FleetState.from_topology(topology)
        reference_drift = FleetDrift(topology, seed=self.SEED)
        for _ in range(self.N_STEPS):
            expected = reference_drift.step(reference_state).copy()
            measured = source.step(serving)
            assert np.array_equal(measured, expected)
            report = source.last_report
            assert report.n_accepted == len(topology)
            assert report.n_duplicate == 0
            assert report.n_gap_uplinks == 0

    def test_run_fleet_rows_match_under_measured_source(self, tmp_path):
        """The fleet runner produces identical checkpoint rows whether the
        SNR source is the synthetic drift or the measured pipeline."""
        topology = grid_topology(12, seed=self.SEED)
        engine = FleetEngine(grid=TINY_GRID, snr_quantum_db=0.25)
        drift_result = run_fleet(
            topology,
            engine,
            FleetDrift(topology, seed=self.SEED),
            n_steps=6,
            checkpoint_path=tmp_path / "drift.jsonl",
        )
        source, serving = measured_source(topology, self.SEED)
        measured_result = run_fleet(
            topology,
            FleetEngine(grid=TINY_GRID, snr_quantum_db=0.25),
            source,
            n_steps=6,
            checkpoint_path=tmp_path / "measured.jsonl",
            initial_state=serving,
        )
        assert measured_result.rows == drift_result.rows

    def test_initial_state_length_mismatch_raises(self):
        from repro.errors import FleetError

        topology = grid_topology(8, seed=0)
        source, serving = measured_source(topology, 0)
        with pytest.raises(FleetError):
            run_fleet(
                grid_topology(4, seed=0),
                FleetEngine(grid=TINY_GRID),
                source,
                n_steps=1,
                initial_state=serving,
            )


@pytest.fixture
def telemetry_server():
    """A full serving stack with telemetry ingestion enabled."""
    n_links = 16
    base_snr_db = np.linspace(5.0, 24.0, n_links)
    ingestor = TelemetryIngestor(
        FleetState.from_base_snr(base_snr_db),
        SnrEstimator(alpha=1.0),
    )
    service = OracleService(
        Oracle(grid=TINY_GRID), workers=2, ingestor=ingestor
    )
    http_server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server, ingestor, base_snr_db
    http_server.shutdown()
    http_server.server_close()
    service.close()
    thread.join(timeout=5.0)


def get(server, path):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=10
    ) as response:
        return response.status, json.loads(response.read())


def post_json(server, path, payload):
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


def post_binary(server, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}/v1/telemetry",
        data=payload,
        headers={"Content-Type": "application/octet-stream"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHttpLoop:
    """Simulator → wire → /v1/telemetry → estimator → /v1/fleet/recommend."""

    def test_binary_ingest_updates_state_and_recommendations_follow(
        self, telemetry_server
    ):
        server, ingestor, base_snr_db = telemetry_server
        n_links = len(base_snr_db)
        # The truth fleet has drifted 4 dB below the serving tier's prior.
        truth = FleetState.from_base_snr(base_snr_db - 4.0)
        simulator = DeviceFleetSimulator(
            truth, template=UPLINK_TEMPLATE_EXACT, mode="periodic", seed=3
        )
        for _ in range(3):
            status, body = post_binary(server, simulator.tick())
            assert status == 200
            assert body["report"]["n_accepted"] == n_links

        # The estimator (alpha=1) has adopted the measured SNRs exactly.
        np.testing.assert_array_equal(
            ingestor.state.snr_db, truth.snr_db
        )
        status, snapshot = get(server, "/v1/telemetry/state")
        assert status == 200
        assert snapshot["n_links"] == n_links
        assert snapshot["n_links_measured"] == n_links
        assert snapshot["snr_mean_db"] == pytest.approx(
            float(np.mean(base_snr_db)) - 4.0
        )

        # Close the loop: recommend for the measured fleet over HTTP.
        status, body = post_json(
            server,
            "/v1/fleet/recommend",
            {
                "links": [
                    {"snr_db": snr} for snr in ingestor.state.snr_db.tolist()
                ],
                "objective": "energy",
            },
        )
        assert status == 200
        assert body["n_links"] == n_links
        assert all("recommendation" in r for r in body["results"])
        # Degraded links need more headroom than their priors would have:
        # the recommended configs must differ somewhere from the ones the
        # un-measured (4 dB more optimistic) fleet would get.
        status, prior = post_json(
            server,
            "/v1/fleet/recommend",
            {
                "links": [{"snr_db": snr} for snr in base_snr_db.tolist()],
                "objective": "energy",
            },
        )
        assert status == 200
        measured_configs = [
            r["recommendation"]["config"] for r in body["results"]
        ]
        prior_configs = [
            r["recommendation"]["config"] for r in prior["results"]
        ]
        assert measured_configs != prior_configs

    def test_json_batch_and_metrics_identity(self, telemetry_server):
        server, ingestor, base_snr_db = telemetry_server
        uplinks = [
            {"link_id": 0, "seq": 0, "snr_db": 12.5, "plr": 0.0},
            {"link_id": 0, "seq": 0, "snr_db": 12.5, "plr": 0.0},  # dup
            {"link_id": 1, "seq": 0, "snr_db": 9.25, "plr": 0.0},
            {"link_id": 999, "seq": 0, "snr_db": 1.0, "plr": 0.0},
        ]
        status, body = post_json(
            server,
            "/v1/telemetry",
            {"uplinks": uplinks, "template_version": 2},
        )
        assert status == 200
        report = body["report"]
        assert report["n_accepted"] == 2
        assert report["n_duplicate"] == 1
        assert report["n_unknown_link"] == 1
        assert ingestor.state.snr_db[0] == 12.5

        status, metrics = get(server, "/metrics")
        assert status == 200
        counters = metrics["counters"]
        assert counters["telemetry_batches_total"] == 1
        assert counters["telemetry_uplinks_total"] == (
            counters["telemetry_accepted_total"]
            + counters["telemetry_duplicate_total"]
            + counters["telemetry_out_of_order_total"]
            + counters["telemetry_unknown_link_total"]
        )
        assert metrics["latency"]["telemetry_batch_uplinks"]["count"] == 1
        assert metrics["latency"]["telemetry_decode_ms"]["count"] == 1

    def test_defective_batches_map_to_400_with_field(self, telemetry_server):
        server, _, _ = telemetry_server
        status, body = post_binary(server, b"\x02\x00\x01")  # truncated
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"
        assert body["error"]["code"] == "protocol_error"
        assert body["error"]["field"] == "payload"
        status, body = post_json(
            server,
            "/v1/telemetry",
            {"uplinks": [{"link_id": 0}], "template_version": 2},
        )
        assert status == 400
        assert body["error"]["field"] == "seq"
        status, metrics = get(server, "/metrics")
        assert metrics["counters"]["requests_rejected_protocol"] >= 2

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_is_a_400_and_leaves_state_alone(
        self, telemetry_server, value
    ):
        server, ingestor, _ = telemetry_server
        before = ingestor.state.snr_db.copy()
        codec = UplinkCodec(UPLINK_TEMPLATE_EXACT)
        binary = codec.encode_batch(
            {
                "link_id": np.arange(3, dtype=np.int64),
                "seq": np.zeros(3, dtype=np.int64),
                "snr_db": np.array([6.0, value, 8.0]),
                "plr": np.zeros(3),
            }
        )
        uplinks = [
            {"link_id": 0, "seq": 0, "snr_db": 6.0, "plr": 0.0},
            {"link_id": 1, "seq": 0, "snr_db": value, "plr": 0.0},
        ]
        for send in (
            lambda: post_binary(server, binary),
            lambda: post_json(
                server,
                "/v1/telemetry",
                {"uplinks": uplinks, "template_version": 2},
            ),
        ):
            _, metrics = get(server, "/metrics")
            rejected = metrics["counters"].get("requests_rejected_protocol", 0)
            status, body = send()
            assert status == 400
            assert body["error"]["type"] == "ProtocolError"
            assert body["error"]["field"] == "snr_db"
            assert "frame 1" in body["error"]["message"]
            _, metrics = get(server, "/metrics")
            assert (
                metrics["counters"]["requests_rejected_protocol"]
                == rejected + 1
            )
        np.testing.assert_array_equal(ingestor.state.snr_db, before)

    def test_telemetry_disabled_server_maps_to_404(self):
        service = OracleService(Oracle(grid=TINY_GRID), workers=1)
        http_server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        try:
            status, body = post_json(
                http_server,
                "/v1/telemetry",
                {"uplinks": [], "template_version": 1},
            )
            assert status in (400, 404)
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                get(http_server, "/v1/telemetry/state")
            assert exc_info.value.code == 404
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.close()
            thread.join(timeout=5.0)
