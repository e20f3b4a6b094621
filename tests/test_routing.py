"""Routing subsystem tests: table construction determinism, vectorized
path composition pinned to the scalar reference, the relay-load sweep
pinned to a naive per-node recurrence and bit for bit to a per-level
reference, and the routed engine's end-to-end contract."""

import numpy as np
import pytest

from repro.core.optimization import (
    Constraint,
    TuningGrid,
    evaluate_metric_planes,
    quantize_snr_db,
    queue_composition_columns,
)
from repro.errors import FleetError, RoutingError
from repro.fleet import (
    FleetEngine,
    FleetState,
    grid_topology,
    random_geometric_topology,
)
from repro.routing import (
    MIN_ARRIVAL_PPS,
    RoutedFleetEngine,
    RoutingTable,
    build_routes,
    compose_paths,
    compose_paths_scalar,
    iterate_relay_load,
    per_hop_loss_budget,
    routes_for_topology,
    select_sink,
)

TINY_GRID = TuningGrid(
    ptx_levels=(3, 15, 31),
    payload_values_bytes=(20, 60, 110),
    n_max_tries_values=(1, 3),
    q_max_values=(1, 30),
)

#: A 3-level chain-of-stars: sink 0, relays 1 and 2, leaves 3..6.
THREE_LEVEL_EDGES = ((0, 1), (1, 2), (1, 3), (2, 4), (2, 5), (2, 6))


def three_level_table():
    return build_routes(7, THREE_LEVEL_EDGES, sink=0)


def snr_state(snr_values):
    snr = np.asarray(snr_values, dtype=float)
    return FleetState(
        base_snr_db=snr.copy(),
        snr_db=snr.copy(),
        noise_dbm=np.full(snr.shape, -90.0),
        config_index=np.full(snr.shape, -1, dtype=np.int64),
        objective_value=np.full(snr.shape, np.nan),
    )


def random_edge_metrics(n_edges, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "energy_uj_per_bit": rng.uniform(0.05, 2.0, n_edges),
        "delay_ms": rng.uniform(1.0, 80.0, n_edges),
        "plr_total": rng.uniform(0.0, 0.4, n_edges),
        "goodput_kbps": rng.uniform(5.0, 120.0, n_edges),
    }


class TestTableConstruction:
    def test_three_level_shape(self):
        table = three_level_table()
        assert table.sink == 0
        assert table.max_hops == 3
        assert table.n_paths == 4
        assert list(table.hop_count) == [0, 1, 2, 2, 3, 3, 3]
        assert list(table.parent[1:]) == [0, 1, 1, 2, 2, 2]
        assert list(table.relay_nodes) == [1, 2]
        assert list(table.leaf_nodes) == [3, 4, 5, 6]

    def test_columns_frozen(self):
        table = three_level_table()
        with pytest.raises(ValueError):
            table.parent[0] = 5

    def test_default_sink_is_highest_degree(self):
        assert select_sink(7, THREE_LEVEL_EDGES) == 2
        table = build_routes(7, THREE_LEVEL_EDGES)
        assert table.sink == 2

    def test_bfs_ties_break_to_lowest_parent(self):
        # Node 3 is reachable at hop 1 from both 0 and 1 (ring); BFS must
        # pick the lowest-indexed parent deterministically.
        edges = ((0, 1), (0, 3), (1, 3), (1, 2), (2, 3))
        table = build_routes(4, edges, sink=0)
        assert table.parent[3] == 0

    def test_mesh_prefers_cheap_multi_hop(self):
        # Direct edge 0-2 costs 10; the 0-1-2 detour costs 2. Mesh takes
        # the detour, tree (min-hop) takes the direct edge.
        edges = ((0, 1), (1, 2), (0, 2))
        costs = [1.0, 1.0, 10.0]
        mesh = build_routes(3, edges, sink=0, strategy="mesh", edge_cost=costs)
        tree = build_routes(3, edges, sink=0, strategy="tree")
        assert mesh.parent[2] == 1
        assert tree.parent[2] == 0

    def test_disconnected_component_raises(self):
        edges = ((0, 1), (2, 3))
        with pytest.raises(RoutingError, match="disconnected"):
            build_routes(4, edges, sink=0)

    def test_degree_zero_nodes_excluded_not_failed(self):
        table = build_routes(4, ((0, 1), (1, 2)), sink=0)
        assert table.hop_count[3] == -1
        assert table.n_in_tree == 3

    def test_self_loop_rejected(self):
        with pytest.raises(RoutingError, match="self-loop"):
            build_routes(3, ((0, 0), (0, 1)), sink=0)

    def test_bad_strategy_rejected(self):
        with pytest.raises(RoutingError, match="strategy"):
            build_routes(3, ((0, 1),), strategy="flood")

    def test_same_seed_same_tree(self):
        topo_a = grid_topology(60, seed=7)
        topo_b = grid_topology(60, seed=7)
        table_a = routes_for_topology(topo_a, strategy="mesh")
        table_b = routes_for_topology(topo_b, strategy="mesh")
        assert np.array_equal(table_a.parent, table_b.parent)
        assert np.array_equal(table_a.parent_edge, table_b.parent_edge)

    def test_children_csr_consistent(self):
        table = three_level_table()
        for node in range(table.n_nodes):
            for child in table.children_of(node):
                assert table.parent[child] == node


class TestComposition:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["tree", "mesh"])
    def test_vectorized_matches_scalar_within_1e9(self, seed, strategy):
        topology = grid_topology(200, seed=seed)
        table = routes_for_topology(topology, strategy=strategy)
        metrics = random_edge_metrics(len(topology), seed=seed)
        fast = compose_paths(table, **metrics)
        slow = compose_paths_scalar(table, **metrics)
        for name in (
            "energy_uj_per_bit",
            "delay_ms",
            "delivery_prob",
            "goodput_kbps",
        ):
            got = getattr(fast, name)
            want = getattr(slow, name)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            finite = ~np.isnan(want) & np.isfinite(want)
            assert np.abs(got[finite] - want[finite]).max() <= 1e-9

    def test_semantics_on_known_chain(self):
        # 0 <- 1 <- 2: sums, product, min are hand-checkable.
        table = build_routes(3, ((0, 1), (1, 2)), sink=0)
        paths = compose_paths(
            table,
            energy_uj_per_bit=np.array([1.0, 2.0]),
            delay_ms=np.array([10.0, 20.0]),
            plr_total=np.array([0.1, 0.2]),
            goodput_kbps=np.array([50.0, 30.0]),
        )
        assert paths.energy_uj_per_bit[2] == pytest.approx(3.0)
        assert paths.delay_ms[2] == pytest.approx(30.0)
        assert paths.delivery_prob[2] == pytest.approx(0.9 * 0.8)
        assert paths.goodput_kbps[2] == pytest.approx(30.0)
        assert paths.energy_uj_per_bit[table.sink] == 0.0
        assert paths.delivery_prob[table.sink] == 1.0

    def test_leaf_feasibility_thresholds(self):
        table = build_routes(3, ((0, 1), (1, 2)), sink=0)
        paths = compose_paths(
            table,
            energy_uj_per_bit=np.zeros(2),
            delay_ms=np.zeros(2),
            plr_total=np.array([0.1, 0.2]),
            goodput_kbps=np.ones(2),
        )
        # Path loss = 1 - 0.9*0.8 = 0.28.
        assert paths.leaf_feasible(0.30).tolist() == [True]
        assert paths.leaf_feasible(0.20).tolist() == [False]
        assert paths.leaf_feasible(None).tolist() == [True]

    def test_wrong_column_length_raises(self):
        table = three_level_table()
        with pytest.raises(RoutingError, match="per-edge"):
            compose_paths(
                table,
                energy_uj_per_bit=np.zeros(3),
                delay_ms=np.zeros(3),
                plr_total=np.zeros(3),
                goodput_kbps=np.zeros(3),
            )


def naive_relay_load(table, columns):
    """(arrival, delivered) per node by a recursive walk, children first.

    A node's arrival is its own sampling rate plus what its children
    deliver; it delivers ``arrival × (1 − plr_total)`` (nothing when its
    link is down), with ``plr_total`` composed one node at a time.
    """
    arrival = np.zeros(table.n_nodes)
    delivered = np.zeros(table.n_nodes)

    def visit(node):
        inbound = sum(visit(child) for child in table.children_of(node))
        if node == table.sink:
            return 0.0
        rate = 1e3 / columns["t_pkt_ms"][node] + inbound
        one = slice(node, node + 1)
        plr_total = queue_composition_columns(
            service_delay_s=columns["service_delay_s"][one],
            service_scv=columns["service_scv"],
            q_max=columns["q_max"][one],
            t_pkt_ms=np.array([1e3 / rate]),
            plr_radio=columns["plr_radio"][one],
        )["plr_total"][0]
        arrival[node] = rate
        if columns["link_up"][node]:
            delivered[node] = rate * (1.0 - plr_total)
        return delivered[node]

    visit(table.sink)
    return arrival, delivered


def per_level_relay_load(table, columns):
    """The relay sweep over node-indexed columns, one composition per level.

    Each level gathers its nodes' columns, composes the full queueing
    metrics at the effective packet period and scatters them back; the
    deliveries go to the parents with ``np.add.at`` in level order.
    """
    n_nodes = table.n_nodes
    arrival = np.zeros(n_nodes)
    uplinked = table.uplink_nodes
    arrival[uplinked] = 1e3 / columns["t_pkt_ms"][uplinked]
    delivered = np.zeros(n_nodes)
    t_eff_ms = np.full(n_nodes, np.nan)
    metrics = {
        name: np.full(n_nodes, np.nan)
        for name in ("rho", "delay_ms", "plr_queue", "plr_total")
    }
    starts = table.level_starts
    for level in range(starts.shape[0] - 2, 0, -1):
        nodes = table.level_nodes[starts[level] : starts[level + 1]]
        level_arrival = arrival[nodes]
        t_eff = 1e3 / np.maximum(level_arrival, MIN_ARRIVAL_PPS)
        queue = queue_composition_columns(
            service_delay_s=columns["service_delay_s"][nodes],
            service_scv=columns["service_scv"],
            q_max=columns["q_max"][nodes],
            t_pkt_ms=t_eff,
            plr_radio=columns["plr_radio"][nodes],
        )
        level_delivered = np.where(
            columns["link_up"][nodes],
            level_arrival * (1.0 - queue["plr_total"]),
            0.0,
        )
        t_eff_ms[nodes] = t_eff
        delivered[nodes] = level_delivered
        for name, column in metrics.items():
            column[nodes] = queue[name]
        np.add.at(arrival, table.parent[nodes], level_delivered)
    arrival[table.sink] = 0.0
    return arrival, delivered, t_eff_ms, metrics


class TestRelayLoad:
    def uplink_columns(self, table, t_pkt_ms=100.0, plr_radio=0.05):
        n = table.n_nodes
        return {
            "service_delay_s": np.full(n, 0.004),
            "service_scv": 1.0,
            "q_max": np.full(n, 30.0),
            "t_pkt_ms": np.full(n, t_pkt_ms),
            "plr_radio": np.full(n, plr_radio),
            "link_up": np.ones(n, dtype=bool),
        }

    def random_uplink_columns(self, table, seed, plr_radio=(0.0, 0.3)):
        rng = np.random.default_rng(seed)
        n = table.n_nodes
        return {
            "service_delay_s": rng.uniform(0.002, 0.02, n),
            "service_scv": 0.7,
            "q_max": rng.integers(1, 31, n).astype(float),
            "t_pkt_ms": rng.uniform(50.0, 500.0, n),
            "plr_radio": rng.uniform(*plr_radio, n),
            "link_up": rng.random(n) > 0.1,
        }

    def assert_matches_naive(self, table, columns):
        load = iterate_relay_load(table, **columns)
        arrival, delivered = naive_relay_load(table, columns)
        np.testing.assert_allclose(load.arrival_pps, arrival, rtol=1e-12)
        np.testing.assert_allclose(load.delivered_pps, delivered, rtol=1e-12)

    @pytest.mark.parametrize("shape", ["three-level", "mesh", "chain"])
    def test_sliced_sweep_is_the_per_level_composition(self, shape):
        if shape == "three-level":
            table = three_level_table()
        elif shape == "mesh":
            table = routes_for_topology(
                grid_topology(760, seed=5), strategy="mesh"
            )
        else:
            table = build_routes(
                101, tuple((i, i + 1) for i in range(100)), sink=0
            )
        columns = self.random_uplink_columns(table, 17, plr_radio=(0.0, 0.9))
        load = iterate_relay_load(table, **columns)
        arrival, delivered, t_eff_ms, metrics = per_level_relay_load(
            table, columns
        )
        np.testing.assert_array_equal(load.arrival_pps, arrival)
        np.testing.assert_array_equal(load.delivered_pps, delivered)
        np.testing.assert_array_equal(load.t_pkt_eff_ms, t_eff_ms)
        assert load.metrics.keys() == metrics.keys()
        for name, column in metrics.items():
            np.testing.assert_array_equal(load.metrics[name], column)

    def test_sweep_matches_naive_recurrence_on_three_level_tree(self):
        table = three_level_table()
        self.assert_matches_naive(table, self.uplink_columns(table))
        self.assert_matches_naive(table, self.random_uplink_columns(table, 3))

    def test_sweep_matches_naive_recurrence_on_mesh_tree(self):
        # A 20x20 lattice (36 hop levels) over lossy links: the deepest
        # nodes' traffic reaches the sink heavily attenuated, yet counts.
        table = routes_for_topology(grid_topology(760, seed=5), strategy="mesh")
        assert table.max_hops > 30
        self.assert_matches_naive(
            table, self.random_uplink_columns(table, 9, plr_radio=(0.3, 0.9))
        )

    def test_flow_conservation_at_fixed_point(self):
        table = three_level_table()
        load = iterate_relay_load(table, **self.uplink_columns(table))
        # Each relay's arrival = own rate + delivered child traffic.
        own_pps = 1e3 / 100.0
        for relay in table.relay_nodes:
            children = table.children_of(relay)
            expected = own_pps + load.delivered_pps[children].sum()
            assert load.arrival_pps[relay] == pytest.approx(
                expected, abs=1e-6
            )

    def test_leaves_keep_their_sampling_rate(self):
        table = three_level_table()
        load = iterate_relay_load(table, **self.uplink_columns(table))
        for leaf in table.leaf_nodes:
            assert load.arrival_pps[leaf] == pytest.approx(1e3 / 100.0)
            assert load.t_pkt_eff_ms[leaf] == pytest.approx(100.0)

    def test_relays_see_more_load_than_leaves(self):
        table = three_level_table()
        load = iterate_relay_load(table, **self.uplink_columns(table))
        leaf = table.leaf_nodes[0]
        for relay in table.relay_nodes:
            assert load.arrival_pps[relay] > load.arrival_pps[leaf]
            assert load.t_pkt_eff_ms[relay] < load.t_pkt_eff_ms[leaf]
            assert (
                load.metrics["rho"][relay] > load.metrics["rho"][leaf]
            )

    def test_down_link_delivers_nothing(self):
        table = three_level_table()
        columns = self.uplink_columns(table)
        columns["link_up"] = columns["link_up"].copy()
        columns["link_up"][2] = False
        load = iterate_relay_load(table, **columns)
        assert load.delivered_pps[2] == 0.0
        # Node 1 then only aggregates its own traffic plus node 3's.
        expected = 1e3 / 100.0 + load.delivered_pps[3]
        assert load.arrival_pps[1] == pytest.approx(expected, abs=1e-6)

    def test_deterministic(self):
        table = three_level_table()
        first = iterate_relay_load(table, **self.uplink_columns(table))
        second = iterate_relay_load(table, **self.uplink_columns(table))
        assert np.array_equal(first.arrival_pps, second.arrival_pps)
        assert np.array_equal(first.delivered_pps, second.delivered_pps)

    def test_wrong_shape_rejected(self):
        table = three_level_table()
        columns = self.uplink_columns(table)
        columns["q_max"] = np.ones(3)
        with pytest.raises(RoutingError, match="q_max"):
            iterate_relay_load(table, **columns)


class TestPerHopBudget:
    def test_budget_composes_back_to_eps(self):
        eps = 0.1
        hops = 5
        budget = per_hop_loss_budget(eps, hops)
        assert 1.0 - (1.0 - budget) ** hops == pytest.approx(eps)

    def test_single_hop_budget_is_eps(self):
        assert per_hop_loss_budget(0.2, 1) == pytest.approx(0.2)

    def test_bad_eps_rejected(self):
        with pytest.raises(RoutingError):
            per_hop_loss_budget(0.0, 3)
        with pytest.raises(RoutingError):
            per_hop_loss_budget(1.0, 3)


class TestRoutedEngine:
    def routed(self, table, **kwargs):
        kwargs.setdefault("grid", TINY_GRID)
        return RoutedFleetEngine(table, **kwargs)

    def test_congestion_degrades_constrained_paths(self):
        # The same fleet solved with and without relay congestion: the
        # congested paths must lose strictly more (relays queue at the
        # aggregated arrival rate, inflating blocking loss).
        topology = grid_topology(60, seed=4)
        table = routes_for_topology(topology)
        with_congestion = self.routed(table, congestion=True)
        without = self.routed(table, congestion=False)
        with_congestion.step(snr_state(np.full(len(topology), 8.0)))
        without.step(snr_state(np.full(len(topology), 8.0)))
        congested = with_congestion.last_paths
        free = without.last_paths
        leaves = table.leaf_nodes
        assert (
            congested.loss_prob[leaves] >= free.loss_prob[leaves] - 1e-12
        ).all()
        assert congested.loss_prob[leaves].max() > free.loss_prob[
            leaves
        ].max() + 1e-6
        assert (
            congested.delay_ms[leaves].max() > free.delay_ms[leaves].max()
        )

    def test_path_eps_folds_into_link_constraints(self):
        table = three_level_table()
        engine = self.routed(table, path_loss_eps=0.1)
        budget = per_hop_loss_budget(0.1, table.max_hops)
        assert engine.per_hop_loss_bound == pytest.approx(budget)
        assert any(
            constraint.objective == "loss"
            and constraint.upper_bound == pytest.approx(budget)
            for constraint in engine.engine.constraints
        )

    def test_user_constraints_preserved(self):
        table = three_level_table()
        engine = self.routed(
            table,
            path_loss_eps=0.1,
            constraints=(Constraint("delay", 40.0),),
        )
        objectives = [c.objective for c in engine.engine.constraints]
        assert "delay" in objectives and "loss" in objectives

    def test_short_state_names_the_missing_edge(self):
        table = three_level_table()  # six edges: the highest is edge 5
        engine = self.routed(table)
        with pytest.raises(RoutingError, match="5 links .* references edge 5"):
            engine.step(snr_state(np.full(5, 20.0)))

    def test_report_carries_path_columns(self):
        table = three_level_table()
        engine = self.routed(table, path_loss_eps=0.5)
        report = engine.step(snr_state(np.full(6, 20.0)))
        assert report.n_paths == table.n_paths
        assert 0 <= report.n_paths_feasible <= report.n_paths
        assert report.relay_converged
        assert report.relay_iterations == 1
        assert np.isfinite(report.network_energy_uj_per_bit)
        stats = report.stats()
        assert stats["n_paths"] == table.n_paths
        assert "n_paths_feasible" in stats

    def test_long_chain_is_exact_in_one_sweep(self):
        # 100 links in series sampling once a second: every relay carries
        # its own packet plus what survives the rest of the chain.
        n_links = 100
        table = build_routes(
            n_links + 1, tuple((i, i + 1) for i in range(n_links)), sink=0
        )
        engine = self.routed(table, grid=TuningGrid(t_pkt_values_ms=(1000.0,)))
        report = engine.step(snr_state(np.full(n_links, 25.0)))
        assert report.relay_converged
        load = engine.last_load
        for relay in range(1, n_links):
            expected = 1.0 + load.delivered_pps[relay + 1]
            assert load.arrival_pps[relay] == pytest.approx(expected, rel=1e-12)

    def test_edge_metrics_are_the_full_planes_at_the_chosen_configs(
        self, monkeypatch
    ):
        # Rows the hysteresis check already evaluated are reused; each
        # step must still equal one plane evaluation of every link.
        topology = grid_topology(60, seed=4)
        engine = self.routed(routes_for_topology(topology), path_loss_eps=0.5)
        inner = engine.engine
        captured = []
        edge_metrics = engine._edge_metrics

        def capture(state, config_index):
            metrics, inputs = edge_metrics(state, config_index)
            captured.append(metrics)
            return metrics, inputs

        monkeypatch.setattr(engine, "_edge_metrics", capture)
        rng = np.random.default_rng(5)
        base_snr_db = rng.uniform(0.0, 30.0, len(topology))
        state = snr_state(base_snr_db)
        seen = dict.fromkeys(("adopted", "configured", "infeasible", "nan"), 0)
        for _ in range(4):
            snr_db = base_snr_db + rng.normal(0.0, 4.0, base_snr_db.size)
            snr_db[rng.integers(0, snr_db.size, 3)] = np.nan
            snr_db[rng.integers(0, snr_db.size, 3)] = -40.0
            state.snr_db = snr_db
            before = state.config_index.copy()
            after = engine.step(state).config_index
            want = evaluate_metric_planes(
                inner.evaluator,
                **inner.metric_inputs(
                    np.where(after >= 0, after, 0),
                    quantize_snr_db(snr_db, inner.snr_quantum_db),
                ),
            )
            got = captured.pop()
            assert got.keys() == want.keys()
            for name, column in want.items():
                np.testing.assert_array_equal(got[name], column)
            seen["adopted"] += np.sum((before >= 0) & (after >= 0) & (after != before))
            seen["configured"] += np.sum((before < 0) & (after >= 0))
            seen["infeasible"] += np.sum((before >= 0) & (after < 0))
            seen["nan"] += np.sum(np.isnan(snr_db))
        assert all(seen.values()), seen

    def test_infeasible_link_kills_its_paths(self):
        table = three_level_table()
        engine = self.routed(table, congestion=False, path_loss_eps=0.2)
        snr = np.full(6, 25.0)
        snr[0] = -40.0  # edge 0 = the 0-1 uplink every path crosses
        report = engine.step(snr_state(snr))
        assert report.n_infeasible >= 1
        assert report.n_paths_feasible == 0

    def test_deterministic_across_engines(self):
        topology = grid_topology(80, seed=11)
        table = routes_for_topology(topology)
        state_a = FleetState.from_topology(topology)
        state_b = FleetState.from_topology(topology)
        report_a = self.routed(table, path_loss_eps=0.3).step(state_a)
        report_b = self.routed(table, path_loss_eps=0.3).step(state_b)
        assert np.array_equal(report_a.config_index, report_b.config_index)
        assert report_a.n_paths_feasible == report_b.n_paths_feasible
        assert report_a.network_energy_uj_per_bit == pytest.approx(
            report_b.network_energy_uj_per_bit
        )

    def test_network_energy_is_uplink_sum(self):
        table = three_level_table()
        engine = self.routed(table, congestion=False)
        report = engine.step(snr_state(np.full(6, 20.0)))
        per_edge = engine.last_paths  # composition ran; recompute by hand
        nodes = table.uplink_nodes
        # Sum each leaf-adjacent contribution via the scalar reference:
        # total network energy equals the sum over tree uplink edges.
        assert report.network_energy_uj_per_bit > 0.0
        assert per_edge.energy_uj_per_bit[nodes].max() <= (
            report.network_energy_uj_per_bit + 1e-12
        )

    def test_routing_info_round_trips(self):
        table = three_level_table()
        engine = self.routed(table, path_loss_eps=0.2)
        info = engine.routing_info()
        assert info["sink"] == 0
        assert info["path_loss_eps"] == 0.2
        assert info["congestion"] is True
        assert info["n_paths"] == 4


class TestTopologyConnectivity:
    def test_grid_topology_is_connected(self):
        stats = grid_topology(100, seed=0).stats()
        assert stats["n_components"] == 1

    def test_random_topology_reports_components(self):
        stats = random_geometric_topology(50, seed=0).stats()
        assert stats["n_components"] >= 1
        assert stats["n_isolated_nodes"] >= 0

    def test_require_connected_raises_on_fragmented_scatter(self):
        fragmented = None
        for seed in range(60):
            topology = random_geometric_topology(
                12, seed=seed, area_side_m=200.0, max_distance_m=40.0
            )
            if topology.stats()["n_components"] > 1:
                fragmented = seed
                break
        assert fragmented is not None, "no fragmenting seed found"
        with pytest.raises(FleetError, match="components"):
            random_geometric_topology(
                12,
                seed=fragmented,
                area_side_m=200.0,
                max_distance_m=40.0,
                require_connected=True,
            )

    def test_require_connected_passes_dense_scatter(self):
        topology = random_geometric_topology(
            50, seed=1, require_connected=True
        )
        assert topology.stats()["n_components"] == 1


class TestRoutedRunner:
    def test_checkpoint_header_and_rows_carry_routing(self, tmp_path):
        import json

        from repro.fleet import FleetDrift, run_fleet

        topology = grid_topology(24, seed=5)
        table = routes_for_topology(topology)
        engine = RoutedFleetEngine(table, grid=TINY_GRID, path_loss_eps=0.5)
        drift = FleetDrift(topology, seed=5)
        path = tmp_path / "routed.jsonl"
        result = run_fleet(topology, engine, drift, 3, checkpoint_path=path)
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        header, rows = lines[0], lines[1:]
        assert header["routing"]["sink"] == table.sink
        assert header["routing"]["path_loss_eps"] == 0.5
        for row in rows:
            assert row["n_paths"] == table.n_paths
            assert 0 <= row["n_paths_feasible"] <= table.n_paths
        assert result.n_steps_executed == 3

    def test_resume_is_bit_identical(self, tmp_path):
        from repro.fleet import FleetDrift, run_fleet

        topology = grid_topology(24, seed=6)
        table = routes_for_topology(topology)

        def fresh_engine():
            return RoutedFleetEngine(
                table, grid=TINY_GRID, path_loss_eps=0.5
            )

        full_path = tmp_path / "full.jsonl"
        run_fleet(
            topology,
            fresh_engine(),
            FleetDrift(topology, seed=6),
            4,
            checkpoint_path=full_path,
        )
        partial_path = tmp_path / "partial.jsonl"
        run_fleet(
            topology,
            fresh_engine(),
            FleetDrift(topology, seed=6),
            2,
            checkpoint_path=partial_path,
        )
        resumed = run_fleet(
            topology,
            fresh_engine(),
            FleetDrift(topology, seed=6),
            4,
            checkpoint_path=partial_path,
            resume=True,
        )
        assert resumed.n_steps_replayed == 2
        assert full_path.read_text() == partial_path.read_text()
