"""Fleet batch endpoint tests: protocol, oracle grouping, service
accounting, client shape, and the HTTP round-trip."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.optimization import (
    DEFAULT_SNR_QUANTUM_DB,
    Constraint,
    TuningGrid,
    grid_knob_columns,
    quantize_snr_db,
)
from repro.core.optimization.kernels import KNOB_COLUMNS
from repro.errors import ProtocolError
from repro.fleet import FleetState, grid_topology
from repro.routing import RoutedFleetEngine, build_routes
from repro.serve import (
    Client,
    FleetRecommendRequest,
    LinkSpec,
    MAX_FLEET_LINKS,
    Oracle,
    OracleService,
    RecommendRequest,
    make_server,
    parse_fleet_recommend,
)

TINY_GRID = TuningGrid(
    ptx_levels=(3, 31),
    payload_values_bytes=(20, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1,),
)

INFEASIBLE = [
    {"objective": "loss", "max": 1e-30},
    {"objective": "delay", "max": 0.001},
]


@pytest.fixture
def client():
    service = OracleService(Oracle(grid=TINY_GRID), workers=2)
    yield Client(service)
    service.close()


class TestFleetProtocol:
    def test_parse_happy_path(self):
        request = parse_fleet_recommend(
            {
                "links": [{"distance_m": 10.0}, {"snr_db": 4.0}],
                "objective": "delay",
                "constraints": [{"objective": "loss", "max": 0.1}],
            }
        )
        assert isinstance(request, FleetRecommendRequest)
        assert len(request.links) == 2
        assert request.objective == "delay"
        assert request.constraints[0].upper_bound == 0.1

    def test_objective_defaults_to_energy(self):
        request = parse_fleet_recommend({"links": [{"distance_m": 5.0}]})
        assert request.objective == "energy"
        assert request.constraints == ()

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({}, "missing its 'links'"),
            ({"links": {}}, "must be a JSON array"),
            ({"links": []}, "at least one link"),
            ({"links": [{"distance_m": 1.0}], "extra": 1}, "unknown"),
            ({"links": [{}]}, "exactly one of"),
            (
                {"links": [{"distance_m": 1.0}], "objective": "latency"},
                "unknown objective",
            ),
        ],
    )
    def test_bad_payloads_rejected(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            parse_fleet_recommend(payload)

    def test_link_cap_enforced(self):
        links = (LinkSpec(snr_db=4.0),) * (MAX_FLEET_LINKS + 1)
        with pytest.raises(ProtocolError, match="at most"):
            FleetRecommendRequest(links=links)


class TestOracleFleet:
    def test_duplicates_cost_one_solve(self):
        oracle = Oracle(grid=TINY_GRID)
        request = FleetRecommendRequest(
            links=(LinkSpec(distance_m=10.0),) * 5
            + (LinkSpec(distance_m=30.0),) * 5
        )
        result = oracle.recommend_fleet(request)
        assert len(result) == 10
        assert result.n_unique_links == 2
        assert oracle.cache_info()["table_builds"] == 2

    def test_matches_single_link_recommend(self):
        oracle = Oracle(grid=TINY_GRID)
        links = (LinkSpec(distance_m=10.0), LinkSpec(snr_db=6.0))
        fleet = oracle.recommend_fleet(FleetRecommendRequest(links=links))
        for link, evaluation in zip(links, fleet.evaluations):
            single = oracle.recommend(RecommendRequest(link=link))
            assert evaluation == single.evaluation

    def test_infeasible_link_reported_in_band(self):
        oracle = Oracle(grid=TINY_GRID)
        request = parse_fleet_recommend(
            {
                "links": [{"snr_db": 4.0}, {"snr_db": 15.0}],
                "constraints": INFEASIBLE,
            }
        )
        result = oracle.recommend_fleet(request)
        assert result.n_infeasible == 2
        assert result.evaluations == (None, None)
        for error in result.errors:
            assert "no configuration satisfies the constraints" in error

    def test_tier_counts_track_cache_state(self):
        oracle = Oracle(grid=TINY_GRID)
        oracle.precompute([10.0])
        request = FleetRecommendRequest(
            links=(LinkSpec(distance_m=10.0), LinkSpec(distance_m=22.0))
        )
        first = oracle.recommend_fleet(request)
        assert first.tier_counts() == {"precomputed": 1, "miss": 1}
        second = oracle.recommend_fleet(request)
        assert second.tier_counts() == {"precomputed": 1, "lru": 1}


class TestClientAndService:
    def test_response_shape(self, client):
        out = client.recommend_fleet(
            {
                "links": [{"distance_m": 10.0}, {"distance_m": 10.0},
                          {"snr_db": 4.0}],
                "objective": "energy",
            }
        )
        assert out["n_links"] == 3
        assert out["n_unique_links"] == 2
        assert out["n_infeasible"] == 0
        assert len(out["results"]) == 3
        assert out["results"][0]["recommendation"] == (
            out["results"][1]["recommendation"]
        )
        assert sum(out["cache_tiers"].values()) == 3

    def test_fleet_of_one_matches_recommend(self, client):
        payload_link = {"snr_db": 5.0}
        single = client.recommend(
            {"link": payload_link, "objective": "energy"}
        )
        fleet = client.recommend_fleet(
            {"links": [payload_link], "objective": "energy"}
        )
        assert (
            fleet["results"][0]["recommendation"] == single["recommendation"]
        )

    def test_infeasible_is_in_band_not_an_exception(self, client):
        out = client.recommend_fleet(
            {"links": [{"snr_db": 4.0}], "constraints": INFEASIBLE}
        )
        error = out["results"][0]["error"]
        assert error["type"] == "InfeasibleError"
        assert "no configuration satisfies" in error["message"]

    def test_metrics_account_fleet_batches(self, client):
        client.recommend_fleet(
            {"links": [{"snr_db": 4.0}, {"snr_db": 6.0}, {"snr_db": 4.0}]}
        )
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["fleet_requests_total"] == 1
        assert counters["fleet_links_total"] == 3
        assert counters["fleet_infeasible_total"] == 0
        assert counters["fleet_cache_miss_total"] == 3
        assert metrics["latency"]["fleet_batch_links"]["count"] == 1
        assert metrics["latency"]["fleet_batch_links"]["sum_count"] == 3.0
        assert metrics["latency"]["fleet_solve_ms"]["count"] == 1


class TestFleetHTTP:
    @pytest.fixture
    def server(self):
        service = OracleService(Oracle(grid=TINY_GRID), workers=2)
        http_server = make_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=http_server.serve_forever, daemon=True
        )
        thread.start()
        yield http_server
        http_server.shutdown()
        http_server.server_close()
        service.close()
        thread.join(timeout=5.0)

    def post(self, server, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/fleet/recommend",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def test_round_trip(self, server):
        status, body = self.post(
            server,
            {
                "links": [{"distance_m": 10.0}, {"snr_db": 4.0}],
                "objective": "energy",
                "constraints": [{"objective": "delay", "max": 60.0}],
            },
        )
        assert status == 200
        assert body["n_links"] == 2
        assert all("recommendation" in item for item in body["results"])

    def test_http_equals_in_process_client(self, server):
        payload = {"links": [{"snr_db": 7.0}], "objective": "delay"}
        status, body = self.post(server, payload)
        assert status == 200
        expected = server.client.recommend_fleet(payload)
        assert (
            body["results"][0]["recommendation"]
            == expected["results"][0]["recommendation"]
        )

    def test_bad_payload_is_400(self, server):
        status, body = self.post(server, {"links": []})
        assert status == 400
        assert body["error"]["type"] == "ProtocolError"

    def test_infeasible_batch_is_200_with_in_band_errors(self, server):
        status, body = self.post(
            server,
            {"links": [{"snr_db": 4.0}], "constraints": INFEASIBLE},
        )
        assert status == 200
        assert body["n_infeasible"] == 1
        assert body["results"][0]["error"]["type"] == "InfeasibleError"


ROUTED_PAYLOAD = {
    "links": [{"snr_db": 20.0}, {"snr_db": 18.0}, {"snr_db": 15.0}],
    "objective": "energy",
    "routing": {
        "edges": [[1, 0], [2, 1], [3, 2]],
        "sink": 0,
        "max_path_loss": 0.9,
    },
}


class TestFleetRouting:
    def test_parse_routing_block(self):
        request = parse_fleet_recommend(ROUTED_PAYLOAD)
        assert request.routing is not None
        assert request.routing.sink == 0
        assert request.routing.strategy == "tree"
        assert request.routing.max_path_loss == 0.9
        assert request.routing.n_nodes == 4

    @pytest.mark.parametrize(
        "routing, match",
        [
            ({"edges": []}, "at least one edge"),
            ({"edges": [[0, 1, 2]]}, "pair"),
            ({"edges": [[0, 1]], "strategy": "flood"}, "strategy"),
            ({"edges": [[0, 1]], "max_path_loss": 1.5}, "max_path_loss"),
            ({"edges": [[0, 1]], "sink": -1}, "sink"),
            ({"edges": [[0, 1]], "unknown": True}, "unknown"),
            ({"edges": [[0, 1]], "sink": MAX_FLEET_LINKS + 1}, "sink"),
            ({"edges": [[0, MAX_FLEET_LINKS + 1]]}, "routing edge 0"),
        ],
    )
    def test_bad_routing_blocks_rejected(self, routing, match):
        payload = {"links": [{"snr_db": 10.0}], "routing": routing}
        payload["links"] = [{"snr_db": 10.0}] * len(routing.get("edges") or [1])
        with pytest.raises(ProtocolError, match=match):
            parse_fleet_recommend(payload)

    def test_edges_must_run_parallel_to_links(self):
        with pytest.raises(ProtocolError, match="parallel"):
            parse_fleet_recommend(
                {
                    "links": [{"snr_db": 10.0}],
                    "routing": {"edges": [[0, 1], [1, 2]]},
                }
            )

    def test_oracle_reports_path_feasibility(self):
        oracle = Oracle(grid=TINY_GRID)
        result = oracle.recommend_fleet(
            parse_fleet_recommend(ROUTED_PAYLOAD)
        )
        routing = result.routing
        assert routing is not None
        assert routing.sink == 0
        assert routing.max_hops == 3
        assert routing.n_paths == 1
        assert 0 <= routing.n_paths_feasible <= routing.n_paths
        assert routing.path_stats["n_paths"] == 1

    def test_routed_recommend_deterministic(self):
        first = Oracle(grid=TINY_GRID).recommend_fleet(
            parse_fleet_recommend(ROUTED_PAYLOAD)
        )
        second = Oracle(grid=TINY_GRID).recommend_fleet(
            parse_fleet_recommend(ROUTED_PAYLOAD)
        )
        assert first.routing == second.routing

    def test_include_paths_lists_leaves(self):
        payload = json.loads(json.dumps(ROUTED_PAYLOAD))
        payload["routing"]["include_paths"] = True
        result = Oracle(grid=TINY_GRID).recommend_fleet(
            parse_fleet_recommend(payload)
        )
        assert result.routing.paths is not None
        (row,) = result.routing.paths
        assert row["leaf"] == 3
        assert row["hops"] == 3
        assert isinstance(row["feasible"], bool)

    def test_disconnected_routing_block_is_client_error(self):
        oracle = Oracle(grid=TINY_GRID)
        request = parse_fleet_recommend(
            {
                "links": [{"snr_db": 10.0}] * 2,
                "routing": {"edges": [[0, 1], [2, 3]], "sink": 0},
            }
        )
        with pytest.raises(ProtocolError, match="bad routing block"):
            oracle.recommend_fleet(request)

    def test_infeasible_link_reports_dead_paths(self):
        payload = json.loads(json.dumps(ROUTED_PAYLOAD))
        payload["constraints"] = INFEASIBLE
        result = Oracle(grid=TINY_GRID).recommend_fleet(
            parse_fleet_recommend(payload)
        )
        assert result.n_infeasible == len(result)
        assert result.routing.n_paths_feasible == 0

    @pytest.mark.parametrize(
        "constraints", [(), ({"objective": "loss", "max": 0.5},)]
    )
    def test_http_routed_answers_match_the_routing_engine(self, constraints):
        # Reference-SNR links at policy bin centres on a 6x6 lattice, two
        # of them too weak to meet a loss bound: the oracle's routed
        # composition must be the routing engine's, bit for bit.
        topology = grid_topology(60, seed=3)
        rng = np.random.default_rng(3)
        snr_db = quantize_snr_db(
            rng.uniform(0.0, 30.0, len(topology)), DEFAULT_SNR_QUANTUM_DB
        )
        snr_db[rng.choice(len(topology), 2, replace=False)] = -40.0
        sink = 14
        oracle = Oracle(policy=True)
        result = oracle.recommend_fleet(
            parse_fleet_recommend(
                {
                    "links": [{"snr_db": float(snr)} for snr in snr_db],
                    "constraints": list(constraints),
                    "routing": {
                        "edges": [list(edge) for edge in topology.edges],
                        "sink": sink,
                        "include_paths": True,
                    },
                }
            )
        )
        table = build_routes(36, topology.edges, sink=sink)
        engine = RoutedFleetEngine(
            table,
            grid=oracle.grid,
            constraints=[
                Constraint(bound["objective"], bound["max"])
                for bound in constraints
            ],
        )
        report = engine.step(FleetState.from_base_snr(snr_db))

        knobs = grid_knob_columns(oracle.grid)
        for index, evaluation in zip(report.config_index, result.evaluations):
            if index < 0:
                assert evaluation is None
            else:
                assert tuple(
                    getattr(evaluation.config, knob) for knob in KNOB_COLUMNS
                ) == tuple(column[index] for column in knobs)
        assert result.n_infeasible == report.n_infeasible
        assert result.n_infeasible == (2 if constraints else 0)

        paths = engine.last_paths
        rows = result.routing.paths
        assert [row["leaf"] for row in rows] == paths.leaf_nodes.tolist()
        for name in ("loss_prob", "delay_ms", "energy_uj_per_bit", "goodput_kbps"):
            np.testing.assert_array_equal(
                [row[name] for row in rows], getattr(paths, name)[paths.leaf_nodes]
            )

    def test_client_response_carries_routing(self, client):
        response = client.recommend_fleet(ROUTED_PAYLOAD)
        assert "routing" in response
        assert response["routing"]["n_paths"] == 1
        unrouted = client.recommend_fleet(
            {"links": [{"snr_db": 10.0}]}
        )
        assert "routing" not in unrouted
