"""Network-scale multi-link modeling: topology, state, drift, and solving.

The paper tunes one TelosB link; this package scales that tuning to a
whole deployment. A :class:`~repro.fleet.topology.FleetTopology` lays out
nodes (seeded grid or random-geometric generators) and binds every edge to
an :class:`~repro.channel.environment.Environment` plus a distance-or-SNR
:class:`~repro.serve.protocol.LinkSpec`; a
:class:`~repro.fleet.state.FleetState` holds the per-link columns
(struct-of-arrays, not per-link objects); a
:class:`~repro.fleet.drift.FleetDrift` evolves every link's SNR through
seeded :class:`~repro.channel.fading.ShadowingProcess` instances; and the
:class:`~repro.fleet.engine.FleetEngine` recommends configurations for
*all* links in one vectorized kernel pass with hysteresis, matching the
per-link epsilon-constraint solver's answers. :func:`~repro.fleet.runner.
run_fleet` ties the pieces into a crash-safe checkpointed run.
"""

from ..core.optimization import REFERENCE_LEVEL
from .drift import FleetDrift
from .engine import FleetEngine, FleetStepReport
from .runner import (
    FLEET_CHECKPOINT_FORMAT,
    FleetRunResult,
    SnrSource,
    parse_fleet_row,
    run_fleet,
)
from .state import FleetState, link_base_snr_db
from .topology import (
    ECCENTRICITY_NODE_CAP,
    FleetTopology,
    build_topology,
    grid_topology,
    random_geometric_topology,
)

__all__ = [
    "ECCENTRICITY_NODE_CAP",
    "FLEET_CHECKPOINT_FORMAT",
    "REFERENCE_LEVEL",
    "FleetDrift",
    "FleetEngine",
    "FleetRunResult",
    "FleetState",
    "FleetStepReport",
    "FleetTopology",
    "SnrSource",
    "build_topology",
    "grid_topology",
    "link_base_snr_db",
    "parse_fleet_row",
    "random_geometric_topology",
    "run_fleet",
]
