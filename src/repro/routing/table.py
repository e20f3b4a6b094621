"""Route construction: sink selection and deterministic collection trees.

A :class:`RoutingTable` is the struct-of-arrays answer to "how does every
node reach the sink": per-node parent, uplink edge, and hop count columns
plus CSR child lists and hop-level orderings, all read-only once built —
the same seeded-and-frozen contract :class:`~repro.fleet.topology.
FleetTopology` follows. Two deterministic builders cover the common WSN
collection shapes:

* ``strategy="tree"`` — breadth-first minimum-hop tree (ties broken by
  the lowest-indexed parent), the classic cluster-tree;
* ``strategy="mesh"`` — mesh-first-then-tree: Dijkstra over *all* mesh
  edges with euclidean edge cost, collapsed into the shortest-path tree
  (the neighbor-table style of mesh routing stacks).

Nodes incident to at least one edge but unreachable from the sink raise
:class:`~repro.errors.RoutingError` — a disconnected component silently
dropping traffic is exactly the failure mode routing must surface.
Degree-zero nodes (an artifact of edge-count truncation in the topology
generators) are excluded from the tree and counted, not failed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import RoutingError

__all__ = [
    "ROUTING_STRATEGIES",
    "RoutingTable",
    "build_routes",
    "routes_for_topology",
    "select_sink",
]

#: Tree-building strategies accepted by :func:`build_routes`.
ROUTING_STRATEGIES: Tuple[str, ...] = ("tree", "mesh")


def _adjacency(
    n_nodes: int, edges: Sequence[Tuple[int, int]]
) -> List[List[Tuple[int, int]]]:
    """Per-node ``(neighbor, edge_index)`` lists from undirected edges."""
    adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for edge_index, (u, v) in enumerate(edges):
        u, v = int(u), int(v)
        if u == v:
            raise RoutingError(f"edge {edge_index} is a self-loop on node {u}")
        if not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise RoutingError(
                f"edge {edge_index} = ({u}, {v}) references a node outside "
                f"[0, {n_nodes})"
            )
        adjacency[u].append((v, edge_index))
        adjacency[v].append((u, edge_index))
    return adjacency


def select_sink(n_nodes: int, edges: Sequence[Tuple[int, int]]) -> int:
    """The default sink: the highest-degree node, ties to the lowest index.

    Deterministic and cheap; a well-connected hub is where collection
    trees naturally root. Raises when no node has any edge.
    """
    degree = np.zeros(n_nodes, dtype=np.int64)
    for u, v in edges:
        degree[int(u)] += 1
        degree[int(v)] += 1
    if not degree.any():
        raise RoutingError("cannot select a sink: no node has any edge")
    return int(np.argmax(degree))


@dataclass(frozen=True)
class RoutingTable:
    """Read-only struct-of-arrays routes of one deployment.

    All columns have length ``n_nodes``. ``parent[i]`` is node *i*'s
    next hop toward the sink (−1 at the sink and at excluded
    degree-zero nodes), ``parent_edge[i]`` the topology edge index of
    that uplink, and ``hop_count[i]`` the path length to the sink (0 at
    the sink, −1 when excluded). ``child_offsets``/``child_nodes`` are
    the CSR-packed child lists; ``level_starts``/``level_nodes`` order
    the in-tree nodes by hop depth (level 0 is the sink alone), which is
    what the composition kernels sweep.
    """

    strategy: str
    sink: int
    parent: np.ndarray
    parent_edge: np.ndarray
    hop_count: np.ndarray
    child_offsets: np.ndarray
    child_nodes: np.ndarray
    level_starts: np.ndarray
    level_nodes: np.ndarray

    def __post_init__(self) -> None:
        n_nodes = int(self.parent.shape[0])
        for name in ("parent", "parent_edge", "hop_count"):
            column = getattr(self, name)
            if column.ndim != 1 or column.shape[0] != n_nodes:
                raise RoutingError(
                    f"routing column {name!r} must be 1-D of length "
                    f"{n_nodes}, got shape {column.shape}"
                )
        if not 0 <= self.sink < n_nodes:
            raise RoutingError(
                f"sink {self.sink} outside the {n_nodes}-node layout"
            )
        for name in (
            "parent",
            "parent_edge",
            "hop_count",
            "child_offsets",
            "child_nodes",
            "level_starts",
            "level_nodes",
        ):
            getattr(self, name).setflags(write=False)

    # ------------------------------------------------------------- shape

    @property
    def n_nodes(self) -> int:
        """Nodes in the layout (including excluded degree-zero nodes)."""
        return int(self.parent.shape[0])

    @property
    def in_tree(self) -> np.ndarray:
        """Boolean column: which nodes the tree actually reaches."""
        return self.hop_count >= 0

    @property
    def n_in_tree(self) -> int:
        """Nodes the tree reaches (sink included)."""
        return int(np.count_nonzero(self.hop_count >= 0))

    @property
    def max_hops(self) -> int:
        """Depth of the deepest node (0 for a sink-only tree)."""
        return int(self.hop_count.max(initial=0))

    @property
    def leaf_nodes(self) -> np.ndarray:
        """In-tree non-sink nodes with no children — the path endpoints."""
        n_children = np.diff(self.child_offsets)
        mask = (self.hop_count > 0) & (n_children == 0)
        return np.flatnonzero(mask)

    @property
    def n_paths(self) -> int:
        """Distinct leaf→sink paths (= number of leaves)."""
        return int(self.leaf_nodes.size)

    @property
    def relay_nodes(self) -> np.ndarray:
        """In-tree non-sink nodes that forward at least one child."""
        n_children = np.diff(self.child_offsets)
        mask = (self.hop_count > 0) & (n_children > 0)
        return np.flatnonzero(mask)

    @property
    def uplink_nodes(self) -> np.ndarray:
        """In-tree non-sink nodes — each owns exactly one uplink edge."""
        return np.flatnonzero(self.hop_count > 0)

    @cached_property
    def level_parent(self) -> np.ndarray:
        """Each ``level_nodes`` entry's parent as a ``level_nodes`` position.

        −1 for the sink (position 0). With the per-node columns permuted
        into ``level_nodes`` order, every hop level is a contiguous slice
        and a level's parents are gathered through this column.
        """
        position = np.full(self.n_nodes, -1, dtype=np.int64)
        position[self.level_nodes] = np.arange(self.level_nodes.size)
        parents = self.parent[self.level_nodes]
        level_parent = np.where(parents >= 0, position[parents], -1)
        level_parent.setflags(write=False)
        return level_parent

    def children_of(self, node: int) -> np.ndarray:
        """The CSR child slice of one node."""
        start = int(self.child_offsets[node])
        stop = int(self.child_offsets[node + 1])
        return self.child_nodes[start:stop]

    def stats(self) -> Dict[str, object]:
        """Shape summary of the tree, JSON-ready."""
        return {
            "strategy": self.strategy,
            "sink": self.sink,
            "n_nodes": self.n_nodes,
            "n_in_tree": self.n_in_tree,
            "n_excluded": self.n_nodes - self.n_in_tree,
            "n_paths": self.n_paths,
            "n_relays": int(self.relay_nodes.size),
            "max_hops": self.max_hops,
        }


def _freeze_table(
    strategy: str,
    sink: int,
    parent: List[int],
    parent_edge: List[int],
    hop_count: List[int],
) -> RoutingTable:
    """Pack builder outputs into the frozen struct-of-arrays table."""
    parent_column = np.asarray(parent, dtype=np.int64)
    edge_column = np.asarray(parent_edge, dtype=np.int64)
    hop_column = np.asarray(hop_count, dtype=np.int64)
    n_nodes = parent_column.shape[0]

    # CSR child lists: sort in-tree non-sink nodes by parent, then index.
    uplinked = np.flatnonzero(hop_column > 0)
    order = uplinked[np.argsort(parent_column[uplinked], kind="stable")]
    counts = np.zeros(n_nodes, dtype=np.int64)
    np.add.at(counts, parent_column[uplinked], 1)
    child_offsets = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=child_offsets[1:])

    # Hop-level ordering: in-tree nodes sorted by depth (sink first).
    in_tree = np.flatnonzero(hop_column >= 0)
    level_nodes = in_tree[np.argsort(hop_column[in_tree], kind="stable")]
    max_depth = int(hop_column.max(initial=0))
    level_counts = np.zeros(max_depth + 1, dtype=np.int64)
    np.add.at(level_counts, hop_column[in_tree], 1)
    level_starts = np.zeros(max_depth + 2, dtype=np.int64)
    np.cumsum(level_counts, out=level_starts[1:])

    return RoutingTable(
        strategy=strategy,
        sink=int(sink),
        parent=parent_column,
        parent_edge=edge_column,
        hop_count=hop_column,
        child_offsets=child_offsets,
        child_nodes=order,
        level_starts=level_starts,
        level_nodes=level_nodes,
    )


def _check_reachability(
    adjacency: List[List[Tuple[int, int]]],
    hop_count: Sequence[int],
    sink: int,
) -> None:
    """Fail loudly when an edge-incident node never joined the tree."""
    unreachable = [
        node
        for node, neighbors in enumerate(adjacency)
        if neighbors and hop_count[node] < 0
    ]
    if unreachable:
        shown = ", ".join(str(node) for node in unreachable[:8])
        suffix = ", ..." if len(unreachable) > 8 else ""
        raise RoutingError(
            f"{len(unreachable)} node(s) are disconnected from sink {sink}: "
            f"[{shown}{suffix}] — the topology has more than one connected "
            "component (see FleetTopology.stats()['n_components'])"
        )


def _bfs_tree(
    adjacency: List[List[Tuple[int, int]]], sink: int
) -> Tuple[List[int], List[int], List[int]]:
    """Minimum-hop tree: deterministic BFS, lowest-index parent on ties."""
    n_nodes = len(adjacency)
    parent = [-1] * n_nodes
    parent_edge = [-1] * n_nodes
    hop_count = [-1] * n_nodes
    hop_count[sink] = 0
    frontier = [sink]
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for neighbor, edge_index in sorted(adjacency[node]):
                if hop_count[neighbor] < 0:
                    hop_count[neighbor] = hop_count[node] + 1
                    parent[neighbor] = node
                    parent_edge[neighbor] = edge_index
                    next_frontier.append(neighbor)
        next_frontier.sort()
        frontier = next_frontier
    return parent, parent_edge, hop_count


def _dijkstra_tree(
    adjacency: List[List[Tuple[int, int]]],
    edge_cost: Sequence[float],
    sink: int,
) -> Tuple[List[int], List[int], List[int]]:
    """Shortest-path tree over all mesh edges (cost ties to lower index)."""
    n_nodes = len(adjacency)
    parent = [-1] * n_nodes
    parent_edge = [-1] * n_nodes
    hop_count = [-1] * n_nodes
    distance = [float("inf")] * n_nodes
    distance[sink] = 0.0
    hop_count[sink] = 0
    # Heap entries are (cost, node); settling pops in (cost, node) order,
    # so equal-cost races resolve to the lowest node index, making the
    # tree a pure function of the topology.
    heap: List[Tuple[float, int]] = [(0.0, sink)]
    settled = [False] * n_nodes
    while heap:
        cost, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = True
        for neighbor, edge_index in sorted(adjacency[node]):
            candidate = cost + float(edge_cost[edge_index])
            if candidate < distance[neighbor]:
                distance[neighbor] = candidate
                parent[neighbor] = node
                parent_edge[neighbor] = edge_index
                hop_count[neighbor] = hop_count[node] + 1
                heapq.heappush(heap, (candidate, neighbor))
    return parent, parent_edge, hop_count


def build_routes(
    n_nodes: int,
    edges: Sequence[Tuple[int, int]],
    sink: Optional[int] = None,
    strategy: str = "tree",
    edge_cost: Optional[Sequence[float]] = None,
) -> RoutingTable:
    """Build the collection tree over raw edges (topology-independent).

    ``strategy="tree"`` ignores costs (minimum hops); ``strategy="mesh"``
    runs Dijkstra over ``edge_cost`` (unit costs when omitted, which then
    degenerates to the BFS answer modulo tie-breaks). ``sink=None``
    selects the highest-degree node. Edge-incident nodes unreachable from
    the sink raise :class:`~repro.errors.RoutingError`.
    """
    if strategy not in ROUTING_STRATEGIES:
        raise RoutingError(
            f"unknown routing strategy {strategy!r}; "
            f"valid: {list(ROUTING_STRATEGIES)}"
        )
    if n_nodes < 1:
        raise RoutingError(f"n_nodes must be >= 1, got {n_nodes!r}")
    if not edges:
        raise RoutingError("a routing table needs at least one edge")
    adjacency = _adjacency(int(n_nodes), edges)
    if sink is None:
        sink = select_sink(int(n_nodes), edges)
    sink = int(sink)
    if not 0 <= sink < n_nodes:
        raise RoutingError(
            f"sink {sink} outside the {n_nodes}-node layout"
        )
    if not adjacency[sink]:
        raise RoutingError(f"sink {sink} has no edges — nothing can reach it")
    if edge_cost is not None and len(edge_cost) != len(edges):
        raise RoutingError(
            f"edge_cost must run parallel to edges: got {len(edge_cost)} "
            f"costs for {len(edges)} edges"
        )
    if strategy == "tree":
        parent, parent_edge, hop_count = _bfs_tree(adjacency, sink)
    else:
        costs = (
            edge_cost if edge_cost is not None else [1.0] * len(edges)
        )
        parent, parent_edge, hop_count = _dijkstra_tree(
            adjacency, costs, sink
        )
    _check_reachability(adjacency, hop_count, sink)
    return _freeze_table(strategy, sink, parent, parent_edge, hop_count)


def routes_for_topology(
    topology,
    sink: Optional[int] = None,
    strategy: str = "tree",
) -> RoutingTable:
    """Routes over a :class:`~repro.fleet.topology.FleetTopology`.

    Mesh edge costs are the euclidean edge lengths (clipped to the same
    ``MIN_LINK_DISTANCE_M`` floor the topology's link specs use), so the
    shortest-path tree prefers many short hops over one marginal long
    one — the neighbor-table heuristic of mesh-first routing stacks.
    """
    from ..fleet.topology import MIN_LINK_DISTANCE_M

    positions = np.asarray(topology.positions_m, dtype=float)
    pairs = np.asarray(topology.edges, dtype=np.int64)
    deltas = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    lengths_m = np.maximum(
        np.hypot(deltas[:, 0], deltas[:, 1]), MIN_LINK_DISTANCE_M
    )
    return build_routes(
        n_nodes=int(positions.shape[0]),
        edges=topology.edges,
        sink=sink,
        strategy=strategy,
        edge_cost=lengths_m.tolist(),
    )
