"""Crash-safe checkpointed fleet runs: drift → solve → fsync'd JSONL row.

Reuses the campaign checkpoint machinery
(:func:`~repro.campaign.checkpoint.load_checkpoint_jsonl` /
:func:`~repro.campaign.checkpoint.append_checkpoint_row`): every step
appends one durable JSON row, a partial trailing row left by a crash —
even one cut mid multi-byte UTF-8 character — is truncated and redone,
and ``resume=True`` fast-forwards a fresh :class:`SnrSource` through the
completed steps (bit-identical RNG replay), verifies the replayed SNR
trajectory against the stored rows, restores the last state, and
continues. The resumed trajectory is byte-for-byte the uninterrupted one.

The per-step SNR producer is any :class:`SnrSource` — the synthetic
:class:`~repro.fleet.drift.FleetDrift` or the measured
:class:`~repro.telemetry.simulator.TelemetrySnrSource` — so a fleet run
driven by device telemetry is the same loop as one driven by a model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Protocol

import numpy as np

from ..campaign.checkpoint import (
    append_checkpoint_row,
    load_checkpoint_jsonl,
    write_checkpoint_header,
)
from ..errors import DatasetError, FleetError
from .engine import FleetEngine, FleetStepReport
from .state import FleetState
from .topology import FleetTopology

__all__ = [
    "FLEET_CHECKPOINT_FORMAT",
    "FleetRunResult",
    "SnrSource",
    "parse_fleet_row",
    "run_fleet",
]


class SnrSource(Protocol):
    """What :func:`run_fleet` needs from a per-step SNR producer.

    ``step(state)`` advances one reporting interval, rewrites
    ``state.snr_db`` in place, and returns that column;
    ``step_interval_s`` is the wall-clock meaning of one step (recorded
    in checkpoint headers). Implementations must be deterministic given
    their construction arguments for checkpoint resume to replay them.
    """

    step_interval_s: float

    def step(self, state: FleetState) -> np.ndarray:
        """Advance one interval and return the updated SNR column."""
        ...

#: ``format`` tag of fleet checkpoint headers.
FLEET_CHECKPOINT_FORMAT = "repro-fleet-checkpoint-v1"

#: Required per-step row fields (and their container types).
_ROW_LIST_FIELDS = ("snr_db", "config_index", "objective_value")


def parse_fleet_row(row: Dict[str, object]) -> Dict[str, object]:
    """Validate one fleet checkpoint row (used by the JSONL loader).

    A row missing fields — the signature of a partially appended line —
    raises :class:`~repro.errors.DatasetError`, which the loader treats
    as "truncate and redo" when it is the trailing line.
    """
    if not isinstance(row.get("step"), int):
        raise DatasetError("fleet row is missing its integer 'step'")
    for field in _ROW_LIST_FIELDS:
        if not isinstance(row.get(field), list):
            raise DatasetError(f"fleet row is missing its {field!r} column")
    for field in ("n_reconfigured", "n_infeasible"):
        if not isinstance(row.get(field), int):
            raise DatasetError(f"fleet row is missing its {field!r} count")
    return row


def _report_row(report: FleetStepReport, state: FleetState) -> Dict[str, object]:
    """Serialize one executed step as its checkpoint row.

    Routed-engine steps additionally record their path-feasibility
    counts; plain fleet rows stay byte-identical to the pre-routing
    format (and :func:`parse_fleet_row` accepts both).
    """
    row: Dict[str, object] = {
        "step": report.step_index,
        "snr_db": state.snr_db.tolist(),
        "config_index": state.config_index.tolist(),
        "objective_value": state.objective_value.tolist(),
        "n_reconfigured": report.n_reconfigured,
        "n_infeasible": report.n_infeasible,
    }
    if report.n_paths:
        row["n_paths"] = report.n_paths
        row["n_paths_feasible"] = report.n_paths_feasible
    return row


@dataclass(frozen=True)
class FleetRunResult:
    """Outcome of a (possibly resumed) fleet run."""

    state: FleetState
    rows: List[Dict[str, object]]
    n_steps_replayed: int
    n_steps_executed: int

    @property
    def n_steps_total(self) -> int:
        """Steps represented in ``rows`` (replayed + executed)."""
        return len(self.rows)


def _replay_rows(
    rows: List[Dict[str, object]],
    state: FleetState,
    drift: SnrSource,
    n_steps: int,
    source: Path,
) -> None:
    """Fast-forward the SNR source + state through checkpointed steps.

    The source's RNG is replayed (one draw per link per step) and the
    resulting SNR column must match the stored one bit-for-bit — a
    mismatch means the checkpoint came from a different seed, topology,
    or step interval, and silently mixing trajectories would be worse
    than failing.
    """
    if len(rows) > n_steps:
        raise FleetError(
            f"checkpoint has {len(rows)} steps but the run only wants "
            f"{n_steps} — wrong run parameters?"
        )
    for row in rows:
        # step() mutates state.snr_db in place.
        drift.step(state)
        stored_snr_db = np.asarray(row["snr_db"], dtype=float)
        if stored_snr_db.shape != state.snr_db.shape or not np.array_equal(
            stored_snr_db, state.snr_db
        ):
            raise FleetError(
                f"checkpoint {source} step {row['step']} does not match the "
                "replayed SNR trajectory — wrong seed, topology, or interval?"
            )
    steps = [int(row["step"]) for row in rows]
    if steps != list(range(len(rows))):
        raise FleetError(
            f"checkpoint {source} steps are not contiguous from 0: {steps[:8]}"
        )
    if rows:
        last = rows[-1]
        state.config_index = np.asarray(last["config_index"], dtype=np.int64)
        state.objective_value = np.asarray(
            last["objective_value"], dtype=float
        )


def run_fleet(
    topology: FleetTopology,
    engine: FleetEngine,
    drift: SnrSource,
    n_steps: int,
    checkpoint_path: Optional[object] = None,
    resume: bool = False,
    progress: Optional[Callable[[FleetStepReport], None]] = None,
    initial_state: Optional[FleetState] = None,
) -> FleetRunResult:
    """Run (or resume) ``n_steps`` of SNR update + solve over a fleet.

    ``drift`` is any :class:`SnrSource` — the synthetic drift model or a
    telemetry-fed adapter. With a ``checkpoint_path``, each step is
    durably appended before the next begins; ``resume=True`` picks an
    interrupted run back up from its last complete row (a missing file
    simply starts fresh). Without ``resume``, an existing file is
    overwritten. ``initial_state`` substitutes for the topology-derived
    starting state when the source is bound to a specific state object
    (a telemetry ingestor's); its length must match the topology.
    """
    if n_steps < 1:
        raise FleetError(f"n_steps must be >= 1, got {n_steps!r}")
    if initial_state is None:
        state = FleetState.from_topology(topology)
    else:
        state = initial_state
        if len(state) != len(topology):
            raise FleetError(
                f"initial_state has {len(state)} links but the topology "
                f"has {len(topology)}"
            )
    path = Path(checkpoint_path) if checkpoint_path is not None else None
    existing: List[Dict[str, object]] = []
    if path is not None:
        if resume and path.exists():
            existing = list(
                load_checkpoint_jsonl(
                    path, FLEET_CHECKPOINT_FORMAT, parse_fleet_row
                )
            )
            _replay_rows(existing, state, drift, n_steps, path)
        else:
            header: Dict[str, object] = {
                "format": FLEET_CHECKPOINT_FORMAT,
                "kind": topology.kind,
                "seed": topology.seed,
                "n_links": len(topology),
                "step_interval_s": drift.step_interval_s,
            }
            routing_info = getattr(engine, "routing_info", None)
            if callable(routing_info):
                header["routing"] = routing_info()
            write_checkpoint_header(path, header)
    rows = list(existing)
    executed = 0
    for step_index in range(len(existing), n_steps):
        drift.step(state)
        report = engine.step(state, step_index=step_index)
        row = _report_row(report, state)
        if path is not None:
            append_checkpoint_row(path, row)
        rows.append(row)
        executed += 1
        if progress is not None:
            progress(report)
    return FleetRunResult(
        state=state,
        rows=rows,
        n_steps_replayed=len(existing),
        n_steps_executed=executed,
    )
