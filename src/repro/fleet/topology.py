"""Seeded deployment layouts: node positions and the links between them.

Two generators cover the common WSN deployment shapes: a jittered lattice
(:func:`grid_topology`, the planned-installation case) and uniformly
scattered nodes connected within a radio range
(:func:`random_geometric_topology`, the ad-hoc case). Both are fully
deterministic under their seed — the same (kind, n_links, seed) triple
always yields the same positions, edges, and link specs — so fleet
trajectories built on top are reproducible end to end.

Every edge is bound to an :class:`~repro.channel.environment.Environment`
and a :class:`~repro.serve.protocol.LinkSpec`: ``link_mode="distance"``
emits distance links resolved through the environment's channel model,
``link_mode="snr"`` pre-resolves each edge to a reference-SNR link (the
paper's Table IV convention), which is what the serving tier's SNR-keyed
cache tiers prefer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..channel.environment import Environment, HALLWAY_2012
from ..errors import FleetError
from ..serve.protocol import LinkSpec, link_base_snr_db
from ..sim.rng import RngStreams

__all__ = [
    "ECCENTRICITY_NODE_CAP",
    "MIN_LINK_DISTANCE_M",
    "TOPOLOGY_KINDS",
    "FleetTopology",
    "build_topology",
    "grid_topology",
    "random_geometric_topology",
]

#: :meth:`FleetTopology.stats` computes eccentricities by BFS from every
#: node — O(n·m) in Python — so it skips them above this node count.
ECCENTRICITY_NODE_CAP = 1024

#: Shortest representable link: edges are clipped to this distance so the
#: path-loss model (log-distance, 1 m reference) stays in its domain even
#: when jitter pushes two lattice nodes almost on top of each other.
MIN_LINK_DISTANCE_M = 1.0

#: Generator names accepted by :func:`build_topology`.
TOPOLOGY_KINDS: Tuple[str, ...] = ("grid", "random")


@dataclass(frozen=True)
class FleetTopology:
    """A deployment: node positions plus environment-bound links.

    ``positions_m`` is an ``(n_nodes, 2)`` read-only float array;
    ``edges`` pairs node indices; ``links`` and ``environments`` run
    parallel to ``edges`` (one :class:`LinkSpec` and one
    :class:`Environment` per edge).
    """

    kind: str
    seed: int
    positions_m: np.ndarray
    edges: Tuple[Tuple[int, int], ...]
    links: Tuple[LinkSpec, ...]
    environments: Tuple[Environment, ...]

    def __post_init__(self) -> None:
        if not (len(self.edges) == len(self.links) == len(self.environments)):
            raise FleetError(
                "edges, links, and environments must run parallel: got "
                f"{len(self.edges)}/{len(self.links)}/{len(self.environments)}"
            )
        if len(self.links) == 0:
            raise FleetError("a fleet topology needs at least one link")
        positions = np.asarray(self.positions_m, dtype=float)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise FleetError(
                f"positions_m must have shape (n_nodes, 2), got {positions.shape}"
            )
        positions.setflags(write=False)
        object.__setattr__(self, "positions_m", positions)

    def __len__(self) -> int:
        return len(self.links)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the layout."""
        return int(self.positions_m.shape[0])

    def node_degrees(self) -> np.ndarray:
        """Per-node edge count (both endpoints of every edge count)."""
        endpoints = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        return np.bincount(
            endpoints.ravel(), minlength=self.n_nodes
        ).astype(np.int64)

    def component_labels(self) -> np.ndarray:
        """Connected-component label per node; isolated nodes get ``-1``.

        Components are counted over edge-incident nodes only — a node
        with no edges is a truncation artifact of the generators' "first
        ``n_links``" selection, not a routable island, and is reported
        separately (``n_isolated_nodes`` in :meth:`stats`).
        """
        return _component_labels(self.n_nodes, self.edges)

    def stats(self) -> Dict[str, object]:
        """Layout summary — sizes, degrees, connectivity — JSON-ready.

        Eccentricity columns (hop radius per node; their max over the
        graph is the diameter) are only computed for single-component
        layouts up to :data:`ECCENTRICITY_NODE_CAP` nodes and are
        ``None`` otherwise.
        """
        degrees = self.node_degrees()
        labels = self.component_labels()
        n_components = int(labels.max(initial=-1)) + 1
        summary: Dict[str, object] = {
            "kind": self.kind,
            "seed": self.seed,
            "n_nodes": self.n_nodes,
            "n_links": len(self),
            "n_components": n_components,
            "n_isolated_nodes": int(np.count_nonzero(degrees == 0)),
            "degree_min": int(degrees.min()),
            "degree_max": int(degrees.max()),
            "degree_mean": float(degrees.mean()),
        }
        eccentricity_max: Optional[int] = None
        eccentricity_mean: Optional[float] = None
        if n_components == 1 and self.n_nodes <= ECCENTRICITY_NODE_CAP:
            eccentricities = _eccentricities(self.n_nodes, self.edges)
            if eccentricities.size:
                eccentricity_max = int(eccentricities.max())
                eccentricity_mean = float(eccentricities.mean())
        summary["eccentricity_max"] = eccentricity_max
        summary["eccentricity_mean"] = eccentricity_mean
        return summary


def _adjacency_lists(
    n_nodes: int, edges: Tuple[Tuple[int, int], ...]
) -> List[List[int]]:
    """Per-node neighbor lists (undirected)."""
    adjacency: List[List[int]] = [[] for _ in range(n_nodes)]
    for source, target in edges:
        adjacency[source].append(target)
        adjacency[target].append(source)
    return adjacency


def _component_labels(
    n_nodes: int, edges: Tuple[Tuple[int, int], ...]
) -> np.ndarray:
    """Connected-component label per node, ``-1`` for isolated nodes."""
    adjacency = _adjacency_lists(n_nodes, edges)
    labels = [-1] * n_nodes
    current = 0
    for start in range(n_nodes):
        if labels[start] != -1 or not adjacency[start]:
            continue
        labels[start] = current
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if labels[neighbor] == -1:
                    labels[neighbor] = current
                    stack.append(neighbor)
        current += 1
    return np.asarray(labels, dtype=np.int64)


def _eccentricities(
    n_nodes: int, edges: Tuple[Tuple[int, int], ...]
) -> np.ndarray:
    """Hop eccentricity of every edge-incident node (BFS per node)."""
    adjacency = _adjacency_lists(n_nodes, edges)
    incident = [node for node in range(n_nodes) if adjacency[node]]
    eccentricities = []
    for start in incident:
        depth = [-1] * n_nodes
        depth[start] = 0
        frontier = [start]
        reach = 0
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if depth[neighbor] == -1:
                        depth[neighbor] = depth[node] + 1
                        reach = max(reach, depth[neighbor])
                        next_frontier.append(neighbor)
            frontier = next_frontier
        eccentricities.append(reach)
    return np.asarray(eccentricities, dtype=np.int64)


def _edge_links(
    positions_m: np.ndarray,
    edges: Tuple[Tuple[int, int], ...],
    environment: Environment,
    link_mode: str,
) -> Tuple[LinkSpec, ...]:
    """Bind each edge to a LinkSpec derived from its euclidean length."""
    if link_mode not in ("distance", "snr"):
        raise FleetError(
            f"unknown link_mode {link_mode!r}; valid: ['distance', 'snr']"
        )
    index_pairs = np.asarray(edges, dtype=np.int64)
    deltas = positions_m[index_pairs[:, 0]] - positions_m[index_pairs[:, 1]]
    lengths_m = np.maximum(
        np.hypot(deltas[:, 0], deltas[:, 1]), MIN_LINK_DISTANCE_M
    )
    if link_mode == "distance":
        return tuple(
            LinkSpec(distance_m=length) for length in lengths_m.tolist()
        )
    return tuple(
        LinkSpec(
            snr_db=link_base_snr_db(LinkSpec(distance_m=length), environment)
        )
        for length in lengths_m.tolist()
    )


def grid_topology(
    n_links: int,
    seed: int = 0,
    spacing_m: float = 10.0,
    jitter_m: float = 1.0,
    environment: Environment = HALLWAY_2012,
    link_mode: str = "distance",
) -> FleetTopology:
    """A jittered square lattice with links between adjacent nodes.

    The lattice side is the smallest one whose adjacency (right + down
    neighbors, row-major) yields at least ``n_links`` edges; the first
    ``n_links`` of them are kept. Node positions are the lattice points
    plus seeded gaussian jitter of std ``jitter_m``.
    """
    _validate_common(n_links, spacing_m=spacing_m)
    if jitter_m < 0:
        raise FleetError(f"jitter_m must be >= 0, got {jitter_m!r}")
    side = 2
    while 2 * side * (side - 1) < n_links:
        side += 1
    rng = RngStreams(seed).stream("topology")
    lattice = np.stack(
        np.meshgrid(
            np.arange(side, dtype=float),
            np.arange(side, dtype=float),
            indexing="ij",
        ),
        axis=-1,
    ).reshape(-1, 2)
    positions_m = lattice * spacing_m + rng.normal(
        0.0, jitter_m, size=lattice.shape
    )
    edges = []
    for row in range(side):
        for col in range(side):
            node = row * side + col
            if col + 1 < side:
                edges.append((node, node + 1))
            if row + 1 < side:
                edges.append((node, node + side))
    edges = tuple(edges[:n_links])
    links = _edge_links(positions_m, edges, environment, link_mode)
    return FleetTopology(
        kind="grid",
        seed=seed,
        positions_m=positions_m,
        edges=edges,
        links=links,
        environments=(environment,) * len(edges),
    )


def random_geometric_topology(
    n_links: int,
    seed: int = 0,
    area_side_m: float = 60.0,
    max_distance_m: float = 35.0,
    environment: Environment = HALLWAY_2012,
    link_mode: str = "distance",
    require_connected: bool = False,
) -> FleetTopology:
    """Uniformly scattered nodes, linked when within radio range.

    Nodes are drawn uniformly in an ``area_side_m`` square; every pair
    closer than ``max_distance_m`` becomes a candidate edge (canonical
    ``i < j`` row-major order), and the first ``n_links`` are kept. The
    node count grows deterministically until enough pairs qualify.

    Random scatters can genuinely fragment: the kept edges may split the
    deployment into several islands that no routing tree can span. With
    ``require_connected=True`` the generator detects this and raises a
    :class:`~repro.errors.FleetError` reporting the component count and
    sizes (isolated nodes — nodes no kept edge touches — are truncation
    artifacts, not islands, and are allowed). The default ``False``
    preserves the historical seeded outputs bit for bit;
    :meth:`FleetTopology.stats` reports ``n_components`` either way.
    """
    _validate_common(n_links, spacing_m=area_side_m)
    if max_distance_m <= 0:
        raise FleetError(
            f"max_distance_m must be positive, got {max_distance_m!r}"
        )
    rng = RngStreams(seed).stream("topology")
    n_nodes = max(2, math.isqrt(2 * n_links) + 1)
    # Bounds the O(n_nodes^2) candidate-pair arrays while retrying: a
    # 2048-node scatter already yields ~2M pairs, far past any sane fleet.
    while n_nodes <= 2048:
        positions_m = rng.uniform(0.0, area_side_m, size=(n_nodes, 2))
        source, target = np.triu_indices(n_nodes, k=1)
        deltas = positions_m[source] - positions_m[target]
        lengths_m = np.hypot(deltas[:, 0], deltas[:, 1])
        within = lengths_m <= max_distance_m
        if int(np.count_nonzero(within)) >= n_links:
            pairs = np.stack([source[within], target[within]], axis=1)
            edges = tuple(
                (int(pair[0]), int(pair[1]))
                for pair in pairs[:n_links].tolist()
            )
            if require_connected:
                labels = _component_labels(n_nodes, edges)
                n_components = int(labels.max(initial=-1)) + 1
                if n_components > 1:
                    sizes = sorted(
                        np.bincount(labels[labels >= 0]).tolist(),
                        reverse=True,
                    )
                    raise FleetError(
                        f"random topology (seed={seed}) fragments into "
                        f"{n_components} components of sizes {sizes}; no "
                        "routing tree can span it — widen max_distance_m, "
                        "shrink area_side_m, or pick another seed"
                    )
            links = _edge_links(positions_m, edges, environment, link_mode)
            return FleetTopology(
                kind="random",
                seed=seed,
                positions_m=positions_m,
                edges=edges,
                links=links,
                environments=(environment,) * len(edges),
            )
        n_nodes = n_nodes + max(1, n_nodes // 2)
    raise FleetError(
        f"could not place {n_links} links within {max_distance_m} m in a "
        f"{area_side_m} m square — range too small for the area?"
    )


def build_topology(
    kind: str,
    n_links: int,
    seed: int = 0,
    environment: Environment = HALLWAY_2012,
    link_mode: str = "distance",
) -> FleetTopology:
    """Dispatch to a topology generator by name (see :data:`TOPOLOGY_KINDS`)."""
    if kind == "grid":
        return grid_topology(
            n_links, seed, environment=environment, link_mode=link_mode
        )
    if kind == "random":
        return random_geometric_topology(
            n_links, seed, environment=environment, link_mode=link_mode
        )
    raise FleetError(
        f"unknown topology kind {kind!r}; valid: {list(TOPOLOGY_KINDS)}"
    )


def _validate_common(n_links: int, spacing_m: float) -> None:
    """Shared argument validation for the generators."""
    if n_links < 1:
        raise FleetError(f"n_links must be >= 1, got {n_links!r}")
    if spacing_m <= 0:
        raise FleetError(f"layout scale must be positive, got {spacing_m!r}")
