"""Fleet topology, state-column, and drift tests (repro.fleet)."""

import numpy as np
import pytest

from repro.channel.environment import HALLWAY_2012
from repro.errors import FleetError
from repro.fleet import (
    FleetDrift,
    FleetState,
    FleetTopology,
    build_topology,
    grid_topology,
    link_base_snr_db,
    random_geometric_topology,
)
from repro.fleet.topology import MIN_LINK_DISTANCE_M
from repro.serve import LinkSpec


class TestGridTopology:
    def test_link_count_honored(self):
        topology = grid_topology(64, seed=7)
        assert len(topology) == 64
        assert len(topology.links) == 64
        assert len(topology.environments) == 64
        assert len(topology.edges) == 64

    def test_same_seed_same_placement(self):
        a = grid_topology(50, seed=3)
        b = grid_topology(50, seed=3)
        assert np.array_equal(a.positions_m, b.positions_m)
        assert a.links == b.links

    def test_different_seed_different_placement(self):
        a = grid_topology(50, seed=3)
        b = grid_topology(50, seed=4)
        assert not np.array_equal(a.positions_m, b.positions_m)

    def test_positions_are_read_only(self):
        topology = grid_topology(10, seed=0)
        with pytest.raises((ValueError, RuntimeError)):
            topology.positions_m[0, 0] = 99.0

    def test_distances_respect_floor(self):
        topology = grid_topology(200, seed=1, spacing_m=1.0, jitter_m=0.9)
        for link in topology.links:
            assert link.distance_m >= MIN_LINK_DISTANCE_M

    def test_snr_link_mode(self):
        topology = grid_topology(8, seed=0, link_mode="snr")
        by_distance = grid_topology(8, seed=0)
        for link, distance_link, environment in zip(
            topology.links, by_distance.links, by_distance.environments
        ):
            assert link.snr_db is not None
            assert link.distance_m is None
            # The same level-31 conversion as the distance link, bit for bit.
            assert link.snr_db == link_base_snr_db(distance_link, environment)
        assert np.array_equal(
            FleetState.from_topology(topology).base_snr_db,
            FleetState.from_topology(by_distance).base_snr_db,
        )

    def test_stats_shape(self):
        stats = grid_topology(12, seed=0).stats()
        assert stats["kind"] == "grid"
        assert stats["n_links"] == 12
        assert stats["n_nodes"] >= 2


class TestRandomTopology:
    def test_link_count_and_determinism(self):
        a = random_geometric_topology(40, seed=9)
        b = random_geometric_topology(40, seed=9)
        assert len(a) == 40
        assert np.array_equal(a.positions_m, b.positions_m)
        assert a.links == b.links

    def test_edges_respect_max_distance(self):
        topology = random_geometric_topology(30, seed=2, max_distance_m=25.0)
        positions = topology.positions_m
        for i, j in topology.edges:
            d = float(np.hypot(*(positions[i] - positions[j])))
            assert d <= 25.0

    def test_impossible_placement_rejected(self):
        # A micrometre radio range never links anything; the node-count
        # growth gives up at its cap instead of allocating forever.
        with pytest.raises(FleetError, match="could not place"):
            random_geometric_topology(10, seed=0, max_distance_m=1e-6)


class TestBuildTopology:
    def test_dispatch(self):
        assert build_topology("grid", 10).kind == "grid"
        assert build_topology("random", 10).kind == "random"

    def test_unknown_kind_rejected(self):
        with pytest.raises(FleetError, match="unknown topology kind"):
            build_topology("torus", 10)

    @pytest.mark.parametrize("n_links", [0, -1])
    def test_bad_link_count_rejected(self, n_links):
        with pytest.raises(FleetError):
            build_topology("grid", n_links)


class TestFleetState:
    def test_from_topology_columns(self):
        topology = grid_topology(20, seed=0)
        state = FleetState.from_topology(topology)
        assert len(state) == 20
        assert state.config_index.dtype == np.int64
        assert np.all(state.config_index == -1)
        assert np.all(np.isnan(state.objective_value))
        assert np.array_equal(state.snr_db, state.base_snr_db)

    def test_base_snr_matches_link_helper(self):
        topology = grid_topology(10, seed=1)
        state = FleetState.from_topology(topology)
        expected = [
            link_base_snr_db(link, env)
            for link, env in zip(topology.links, topology.environments)
        ]
        assert np.array_equal(state.base_snr_db, np.asarray(expected))

    def test_snr_link_base_is_reference_snr(self):
        # A reference-SNR link at the reference level IS its own base SNR.
        assert link_base_snr_db(
            LinkSpec(snr_db=4.0, reference_level=31), HALLWAY_2012
        ) == pytest.approx(4.0)

    def test_copy_is_independent(self):
        state = FleetState.from_topology(grid_topology(5, seed=0))
        clone = state.copy()
        clone.snr_db[0] += 1.0
        clone.config_index[0] = 7
        assert state.snr_db[0] != clone.snr_db[0]
        assert state.config_index[0] == -1

    def test_misaligned_columns_rejected(self):
        with pytest.raises(FleetError):
            FleetState(
                base_snr_db=np.zeros(3),
                snr_db=np.zeros(2),
                noise_dbm=np.full(3, -90.0),
                config_index=np.zeros(3, dtype=np.int64),
                objective_value=np.zeros(3),
            )


class TestFleetDrift:
    def test_same_seed_same_trajectory(self):
        topology = grid_topology(16, seed=5)
        trajectories = []
        for _ in range(2):
            state = FleetState.from_topology(topology)
            drift = FleetDrift(topology, seed=11)
            trajectories.append(
                np.stack([drift.step(state).copy() for _ in range(4)])
            )
        assert np.array_equal(trajectories[0], trajectories[1])

    def test_different_seed_different_trajectory(self):
        topology = grid_topology(16, seed=5)
        state_a = FleetState.from_topology(topology)
        state_b = FleetState.from_topology(topology)
        snr_a = FleetDrift(topology, seed=1).step(state_a)
        snr_b = FleetDrift(topology, seed=2).step(state_b)
        assert not np.array_equal(snr_a, snr_b)

    def test_links_drift_independently(self):
        topology = grid_topology(8, seed=5)
        state = FleetState.from_topology(topology)
        drift = FleetDrift(topology, seed=3)
        delta = drift.step(state) - state.base_snr_db
        assert len(np.unique(delta)) > 1

    def test_clock_advances_by_interval(self):
        topology = grid_topology(4, seed=0)
        drift = FleetDrift(topology, seed=0, step_interval_s=2.5)
        state = FleetState.from_topology(topology)
        drift.step(state)
        drift.step(state)
        assert drift.now_s == pytest.approx(5.0)

    def test_bad_interval_rejected(self):
        topology = grid_topology(4, seed=0)
        with pytest.raises(FleetError):
            FleetDrift(topology, seed=0, step_interval_s=0.0)

    def test_wrong_state_length_rejected(self):
        drift = FleetDrift(grid_topology(4, seed=0), seed=0)
        other = FleetState.from_topology(grid_topology(6, seed=0))
        with pytest.raises(FleetError):
            drift.step(other)
