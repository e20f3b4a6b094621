"""Request/response schema of the link-configuration oracle service.

The wire format is deliberately tiny JSON (see ``docs/SERVING.md``): a
request names a *link* (either a ``distance_m`` in the modelled hallway or
a reference ``snr_db`` at a power level, the paper's Table IV convention),
and either asks for the best configuration under an objective plus
epsilon-constraints (``recommend``) or for the model metrics of one
explicit :class:`~repro.config.StackConfig` (``evaluate``). This module
owns parsing and validation so the HTTP handler and the in-process
:class:`~repro.serve.client.Client` share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..config import StackConfig
from ..core.optimization import (
    OBJECTIVE_PLANES,
    ConfigEvaluation,
    Constraint,
    check_objectives,
    snr_map_from_environment,
    snr_map_from_reference,
)
from ..channel.environment import Environment
from ..errors import ConfigurationError, ProtocolError

__all__ = [
    "FLEET_ROUTING_STRATEGIES",
    "MAX_FLEET_LINKS",
    "MAX_TELEMETRY_UPLINKS",
    "OBJECTIVES",
    "LinkSpec",
    "RecommendRequest",
    "EvaluateRequest",
    "FleetRecommendRequest",
    "RoutingSpec",
    "TelemetryRequest",
    "evaluation_as_dict",
    "parse_link",
    "parse_recommend",
    "parse_evaluate",
    "parse_fleet_recommend",
    "parse_routing",
    "parse_telemetry",
]

#: Objectives a request may optimize or constrain: the names of the
#: core's objective table.
OBJECTIVES: Tuple[str, ...] = tuple(OBJECTIVE_PLANES)

#: Rounding applied to link floats when forming cache keys, so that two
#: requests differing only by float noise (1e-9 m apart) share an entry.
_KEY_DECIMALS = 6

#: Most links one ``/v1/fleet/recommend`` batch may carry. Bounds worst-case
#: work per request (and keeps a maximal batch body well under the HTTP
#: layer's 1 MiB cap).
MAX_FLEET_LINKS = 10_000

#: Tree-building strategies a fleet request's routing block may name.
#: Mirrors :data:`repro.routing.ROUTING_STRATEGIES` — spelled out here
#: because the routing package sits *above* this module in the import
#: graph (``fleet.topology`` imports :class:`LinkSpec` from here).
FLEET_ROUTING_STRATEGIES: Tuple[str, ...] = ("tree", "mesh")

#: Most uplinks one ``POST /v1/telemetry`` batch may carry, binary or
#: JSON. Together with the service's bounded queue this is the telemetry
#: backpressure story: a too-large batch is a protocol error (400), a
#: full queue is an overload rejection (503 + Retry-After).
MAX_TELEMETRY_UPLINKS = 50_000


@dataclass(frozen=True)
class LinkSpec:
    """Which link a request is about: a distance *or* a reference SNR.

    ``distance_m`` resolves SNR per power level through the channel model
    of the service's environment; ``snr_db`` instead assumes SNR tracks
    output power dB-for-dB from ``reference_level`` (the paper's case-study
    convention). Exactly one of the two must be given.
    """

    distance_m: Optional[float] = None
    snr_db: Optional[float] = None
    reference_level: int = 31

    def __post_init__(self) -> None:
        if (self.distance_m is None) == (self.snr_db is None):
            raise ProtocolError(
                "a link spec needs exactly one of distance_m or snr_db"
            )
        for name in ("distance_m", "snr_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ProtocolError(
                    f"{name} must be a finite number, got {value!r}", field=name
                )
        if self.distance_m is not None and self.distance_m <= 0:
            raise ProtocolError(
                f"distance_m must be positive, got {self.distance_m!r}"
            )

    def key(self) -> Tuple[object, ...]:
        """Hashable cache key identifying this link (rounded floats)."""
        if self.distance_m is not None:
            return ("distance", round(float(self.distance_m), _KEY_DECIMALS))
        return (
            "snr",
            round(float(self.snr_db), _KEY_DECIMALS),
            int(self.reference_level),
        )

    def snr_map(self, environment: Environment) -> Dict[int, float]:
        """Level → SNR for this link, via the channel model or reference."""
        if self.distance_m is not None:
            return snr_map_from_environment(environment, self.distance_m)
        return snr_map_from_reference(self.snr_db, self.reference_level)

    def grid_distance_m(self, default: float = 10.0) -> float:
        """Distance stamped on grid configs (inert for SNR-specified links)."""
        return self.distance_m if self.distance_m is not None else default

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (only the populated alternative)."""
        if self.distance_m is not None:
            return {"distance_m": self.distance_m}
        return {"snr_db": self.snr_db, "reference_level": self.reference_level}


@dataclass(frozen=True)
class RecommendRequest:
    """Ask for the grid configuration minimizing ``objective`` on a link."""

    link: LinkSpec
    objective: str = "energy"
    constraints: Tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        check_objectives(self.objective, self.constraints, ProtocolError)


@dataclass(frozen=True)
class RoutingSpec:
    """How a fleet batch's links connect into a multi-hop deployment.

    ``edges[i]`` names the ``(node, node)`` endpoints of ``links[i]`` —
    the routing block runs parallel to the request's link array. With it
    the oracle builds the collection tree, composes every leaf→sink path
    from the per-link recommendations, and reports path-level
    feasibility against ``max_path_loss`` (``None`` just reports the
    composed losses).
    """

    edges: Tuple[Tuple[int, int], ...]
    sink: Optional[int] = None
    strategy: str = "tree"
    max_path_loss: Optional[float] = None
    include_paths: bool = False

    def __post_init__(self) -> None:
        if not self.edges:
            raise ProtocolError("a routing block needs at least one edge")
        for index, edge in enumerate(self.edges):
            if len(edge) != 2:
                raise ProtocolError(
                    f"routing edge {index} must be a [node, node] pair, "
                    f"got {edge!r}"
                )
            for node in edge:
                if isinstance(node, bool) or not isinstance(node, int):
                    raise ProtocolError(
                        f"routing edge {index} endpoints must be integers, "
                        f"got {edge!r}"
                    )
                if node < 0:
                    raise ProtocolError(
                        f"routing edge {index} endpoint {node} is negative"
                    )
        if self.strategy not in FLEET_ROUTING_STRATEGIES:
            raise ProtocolError(
                f"unknown routing strategy {self.strategy!r}; "
                f"valid: {list(FLEET_ROUTING_STRATEGIES)}"
            )
        if self.sink is not None and self.sink < 0:
            raise ProtocolError(f"sink must be >= 0, got {self.sink!r}")
        if self.max_path_loss is not None and not (
            0.0 < self.max_path_loss < 1.0
        ):
            raise ProtocolError(
                f"max_path_loss must be in (0, 1), got {self.max_path_loss!r}"
            )

    @property
    def n_nodes(self) -> int:
        """Node count implied by the edge endpoints."""
        return max(max(edge) for edge in self.edges) + 1


@dataclass(frozen=True)
class FleetRecommendRequest:
    """Ask for the best configuration of *every* link in one batch.

    All links share one objective and one constraint set (the fleet
    operator's policy); the answer is positional — result ``i`` belongs to
    ``links[i]``. Per-link infeasibility is reported in-band rather than
    failing the batch. An optional ``routing`` block (edges parallel to
    the links) additionally asks for end-to-end path composition over
    the recommended configurations.
    """

    links: Tuple[LinkSpec, ...]
    objective: str = "energy"
    constraints: Tuple[Constraint, ...] = ()
    routing: Optional[RoutingSpec] = None

    def __post_init__(self) -> None:
        if not self.links:
            raise ProtocolError("a fleet request needs at least one link")
        if len(self.links) > MAX_FLEET_LINKS:
            raise ProtocolError(
                f"a fleet request carries at most {MAX_FLEET_LINKS} links, "
                f"got {len(self.links)}"
            )
        check_objectives(self.objective, self.constraints, ProtocolError)
        if self.routing is not None and len(self.routing.edges) != len(
            self.links
        ):
            raise ProtocolError(
                f"routing edges must run parallel to links: got "
                f"{len(self.routing.edges)} edges for {len(self.links)} links"
            )


@dataclass(frozen=True)
class TelemetryRequest:
    """One uplink batch for the ingest tier, binary or JSON.

    Exactly one of the two carriers is populated: ``frames`` holds raw
    concatenated wire frames (the version byte is in-band), ``uplinks``
    holds decoded-JSON field mappings that ``template_version`` names the
    template for. The ingestor re-encodes JSON uplinks through the wire
    codec before applying them, so both carriers quantize identically.
    """

    frames: Optional[bytes] = None
    uplinks: Optional[Tuple[Mapping[str, object], ...]] = None
    template_version: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.frames is None) == (self.uplinks is None):
            raise ProtocolError(
                "a telemetry request needs exactly one of binary frames "
                "or JSON uplinks"
            )
        if self.frames is not None and not self.frames:
            raise ProtocolError(
                "telemetry frames must be non-empty", field="payload"
            )
        if self.uplinks is not None:
            if self.template_version is None:
                raise ProtocolError(
                    "JSON telemetry needs a template_version",
                    field="template_version",
                )
            if not self.uplinks:
                raise ProtocolError(
                    "telemetry uplinks must be non-empty", field="uplinks"
                )
            if len(self.uplinks) > MAX_TELEMETRY_UPLINKS:
                raise ProtocolError(
                    f"a telemetry batch carries at most "
                    f"{MAX_TELEMETRY_UPLINKS} uplinks, got {len(self.uplinks)}",
                    field="uplinks",
                )


@dataclass(frozen=True)
class EvaluateRequest:
    """Ask for the model metrics of one explicit configuration on a link."""

    config: StackConfig
    link: LinkSpec

    @classmethod
    def for_config(
        cls, config: StackConfig, link: Optional[LinkSpec] = None
    ) -> "EvaluateRequest":
        """Default the link to the configuration's own distance."""
        return cls(
            config=config,
            link=link or LinkSpec(distance_m=config.distance_m),
        )


def _require_mapping(data: object, what: str) -> Mapping[str, object]:
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, object], known: Tuple[str, ...], what: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ProtocolError(f"unknown {what} fields: {sorted(unknown)}")


def _parse_number(data: Mapping[str, object], field: str) -> Optional[float]:
    value = data.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"{field} must be a number, got {value!r}", field=field
        )
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ProtocolError(
            f"{field} must be a finite number, got {value!r}", field=field
        )
    return number


def parse_link(data: object) -> LinkSpec:
    """Build a :class:`LinkSpec` from a request's ``link`` object."""
    mapping = _require_mapping(data, "link")
    _reject_unknown(mapping, ("distance_m", "snr_db", "reference_level"), "link")
    reference = mapping.get("reference_level", 31)
    if isinstance(reference, bool) or not isinstance(reference, int):
        raise ProtocolError(f"reference_level must be an integer, got {reference!r}")
    return LinkSpec(
        distance_m=_parse_number(mapping, "distance_m"),
        snr_db=_parse_number(mapping, "snr_db"),
        reference_level=reference,
    )


def _parse_constraints(data: object) -> Tuple[Constraint, ...]:
    if not isinstance(data, (list, tuple)):
        raise ProtocolError("constraints must be a JSON array")
    constraints = []
    for item in data:
        mapping = _require_mapping(item, "constraint")
        _reject_unknown(mapping, ("objective", "max"), "constraint")
        objective = mapping.get("objective")
        if not isinstance(objective, str):
            raise ProtocolError(f"constraint objective must be a string, got {objective!r}")
        bound = _parse_number(mapping, "max")
        if bound is None:
            raise ProtocolError(f"constraint on {objective!r} is missing its 'max' bound")
        constraints.append(Constraint(objective=objective, upper_bound=bound))
    return tuple(constraints)


def parse_recommend(data: object) -> RecommendRequest:
    """Validate and build a recommend request from decoded JSON."""
    mapping = _require_mapping(data, "recommend request")
    _reject_unknown(mapping, ("link", "objective", "constraints"), "recommend")
    if "link" not in mapping:
        raise ProtocolError("recommend request is missing its 'link' object")
    objective = mapping.get("objective", "energy")
    if not isinstance(objective, str):
        raise ProtocolError(f"objective must be a string, got {objective!r}")
    return RecommendRequest(
        link=parse_link(mapping["link"]),
        objective=objective,
        constraints=_parse_constraints(mapping.get("constraints", ())),
    )


def parse_routing(data: object) -> RoutingSpec:
    """Build a :class:`RoutingSpec` from a request's ``routing`` object."""
    mapping = _require_mapping(data, "routing")
    _reject_unknown(
        mapping,
        ("edges", "sink", "strategy", "max_path_loss", "include_paths"),
        "routing",
    )
    if "edges" not in mapping:
        raise ProtocolError("routing block is missing its 'edges' array")
    edges = mapping["edges"]
    if not isinstance(edges, (list, tuple)):
        raise ProtocolError("routing edges must be a JSON array")
    parsed_edges = []
    for index, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)):
            raise ProtocolError(
                f"routing edge {index} must be a [node, node] pair, "
                f"got {edge!r}"
            )
        parsed_edges.append(tuple(edge))
    sink = mapping.get("sink")
    if sink is not None and (
        isinstance(sink, bool) or not isinstance(sink, int)
    ):
        raise ProtocolError(f"sink must be an integer, got {sink!r}")
    strategy = mapping.get("strategy", "tree")
    if not isinstance(strategy, str):
        raise ProtocolError(f"strategy must be a string, got {strategy!r}")
    include_paths = mapping.get("include_paths", False)
    if not isinstance(include_paths, bool):
        raise ProtocolError(
            f"include_paths must be a boolean, got {include_paths!r}"
        )
    return RoutingSpec(
        edges=tuple(parsed_edges),
        sink=sink,
        strategy=strategy,
        max_path_loss=_parse_number(mapping, "max_path_loss"),
        include_paths=include_paths,
    )


def parse_fleet_recommend(data: object) -> FleetRecommendRequest:
    """Validate and build a fleet recommend request from decoded JSON."""
    mapping = _require_mapping(data, "fleet recommend request")
    _reject_unknown(
        mapping,
        ("links", "objective", "constraints", "routing"),
        "fleet recommend",
    )
    if "links" not in mapping:
        raise ProtocolError(
            "fleet recommend request is missing its 'links' array"
        )
    links = mapping["links"]
    if not isinstance(links, (list, tuple)):
        raise ProtocolError("links must be a JSON array")
    objective = mapping.get("objective", "energy")
    if not isinstance(objective, str):
        raise ProtocolError(f"objective must be a string, got {objective!r}")
    routing = mapping.get("routing")
    return FleetRecommendRequest(
        links=tuple(parse_link(link) for link in links),
        objective=objective,
        constraints=_parse_constraints(mapping.get("constraints", ())),
        routing=parse_routing(routing) if routing is not None else None,
    )


def parse_evaluate(data: object) -> EvaluateRequest:
    """Validate and build an evaluate request from decoded JSON."""
    mapping = _require_mapping(data, "evaluate request")
    _reject_unknown(mapping, ("config", "link"), "evaluate")
    if "config" not in mapping:
        raise ProtocolError("evaluate request is missing its 'config' object")
    config_data = _require_mapping(mapping["config"], "config")
    try:
        config = StackConfig.from_dict(config_data)
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config: {exc}") from exc
    link = parse_link(mapping["link"]) if "link" in mapping else None
    return EvaluateRequest.for_config(config, link)


def parse_telemetry(data: object) -> TelemetryRequest:
    """Validate and build a JSON telemetry request from decoded JSON.

    (Binary batches never pass through here — the HTTP layer wraps raw
    ``application/octet-stream`` bodies in a :class:`TelemetryRequest`
    directly; the version byte travels in-band.)
    """
    mapping = _require_mapping(data, "telemetry request")
    _reject_unknown(mapping, ("template_version", "uplinks"), "telemetry")
    version = mapping.get("template_version")
    if isinstance(version, bool) or not isinstance(version, int):
        raise ProtocolError(
            f"template_version must be an integer, got {version!r}",
            field="template_version",
        )
    uplinks = mapping.get("uplinks")
    if not isinstance(uplinks, (list, tuple)):
        raise ProtocolError(
            "uplinks must be a JSON array", field="uplinks"
        )
    parsed = []
    for index, uplink in enumerate(uplinks):
        entry = _require_mapping(uplink, f"uplink {index}")
        for name, value in entry.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProtocolError(
                    f"uplink {index} field {name!r} must be a number, "
                    f"got {value!r}",
                    field=name,
                )
        parsed.append(dict(entry))
    return TelemetryRequest(
        uplinks=tuple(parsed), template_version=version
    )


def evaluation_as_dict(evaluation: ConfigEvaluation) -> Dict[str, object]:
    """JSON-ready view of one model evaluation (config + all metrics)."""
    return {
        "config": evaluation.config.as_dict(),
        "snr_db": evaluation.snr_db,
        "max_goodput_kbps": evaluation.max_goodput_kbps,
        "u_eng_uj_per_bit": evaluation.u_eng_uj_per_bit,
        "delay_ms": evaluation.delay_ms,
        "rho": evaluation.rho,
        "plr_radio": evaluation.plr_radio,
        "plr_queue": evaluation.plr_queue,
        "plr_total": evaluation.plr_total,
    }
