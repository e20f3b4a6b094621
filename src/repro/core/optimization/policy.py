"""Precompiled SNR policy tables — O(1) recommends over the whole axis.

The epsilon-constraint answer for a link is fully determined by the
tuple (SNR bin, objective, constraint bounds, grid): nothing else enters
the solve. Without a table, a recommend pays a masked argmin over the
full grid per *distinct* SNR at query time (:func:`solve_rows`; the
fleet engine keeps up to 256 off-axis rows, so it pays about once per
SNR). This module pays that cost once, for every bin of a supported
SNR axis, and stores the answers column-wise so a recommend becomes a
memory-bound array lookup whose latency is independent of grid size.

A :class:`PolicyTable` is compiled in blocked vectorized passes over
the same metric planes the fleet engine solves
(:func:`~repro.core.optimization.evaluate_metric_planes`): the SNR plane
is ``bin_centers[:, None] + level_offsets[None, :]``, exploiting the
affine SNR structure of the configuration space — a link's SNR at PA
level ``p`` is its reference-level SNR plus the fixed output-power
offset ``P_out(p) − P_out(31)``. Because that is float-for-float the
association :func:`~repro.core.optimization.snr_map_from_reference`
uses, a policy row at a bin center is **bit-identical** to the columnar
:class:`~repro.core.optimization.GridEvaluation` a per-link solve would
have built there, and the stored answers reproduce
:func:`~repro.core.optimization.solve_epsilon_constraint` exactly:

* the same first-minimal-feasible tie-break (including the degenerate
  all-``inf``-feasible case);
* the same :class:`~repro.errors.InfeasibleError` message for bins with
  no feasible configuration, rebuilt from stored per-bin minima through
  the shared :func:`~repro.core.optimization.infeasible_error` helper.

Memory model: a bin costs ``best_index`` + ``best_objective`` +
feasibility + eight winner-metric floats ≈ 81 bytes, so the default
201-bin axis (−10 … 40 dB at 0.25 dB) is ~16 KiB of answers plus one
shared copy of the grid's knob columns — small enough to compile one
table per objective at startup and serve millions of lookups per second
out of cache. A table compiled with ``keep_planes=True`` also keeps the
objective and feasibility planes the solve built: 9 bytes per
(bin, configuration), 8.2 MB at the default axis and grid. Only the
fleet engine asks for them — its hysteresis check reads a configured
link's current objective at ``plane[bin, config]``
(:meth:`PolicyTable.take_planes`) instead of re-evaluating it.

Compiling is transient memory on top of that: :func:`solve_rows`
evaluates :data:`BLOCK_ELEMENTS` plane elements (at least
:data:`MIN_BLOCK_ROWS` bins) at a time, so the eleven metric planes and
their temporaries of one block — not of the whole axis — set the peak.
A default-grid compile with kept planes raises the process's peak RSS
by ~42 MB; one block spanning the whole axis would take ~148 MB.
"""

# reprolint: hot-path — policy compile and bin-gather lookups timed by BENCH_policy.json
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ...config import StackConfig
from ...errors import InfeasibleError, OptimizationError
from ...radio import cc2420
from .epsilon_constraint import (
    Constraint,
    feasible_mask,
    infeasible_error,
    masked_argmin_rows,
)
from .evaluate import (
    EVALUATION_METRICS,
    ConfigEvaluation,
    ModelEvaluator,
    check_objectives,
    objective_from_planes,
    snr_map_from_reference,
)
from .kernels import evaluate_metric_planes, grid_knob_columns, knob_config

__all__ = [
    "DEFAULT_SNR_QUANTUM_DB",
    "DEFAULT_SNR_RANGE_DB",
    "REFERENCE_LEVEL",
    "PolicyTable",
    "RowAnswers",
    "level_offset_lut_db",
    "quantize_snr_db",
    "snr_axis_bins",
    "snr_bin",
    "snr_bins",
    "solve_rows",
]

#: PA level the policy SNR axis (and the fleet's SNR columns) refer to.
REFERENCE_LEVEL = 31

#: Default SNR bin width of a compiled policy axis (dB).
DEFAULT_SNR_QUANTUM_DB = 0.25

#: Default supported SNR axis (dB at the reference level). Covers the
#: paper's measured range with generous margin; lookups outside fall
#: back to an exact solve.
DEFAULT_SNR_RANGE_DB: Tuple[float, float] = (-10.0, 40.0)

#: Default plane elements per :func:`solve_rows` block: 1 MiB per
#: float64 plane (28 rows of the paper's 4,560-configuration grid), so a
#: compile's transient memory is one block's planes, not the whole
#: axis's. Half this measured slower end to end: glibc sets its
#: heap-trim threshold to twice the largest mmapped block freed so far,
#: and after a compile in 512 KiB blocks a fleet-telemetry process
#: trimmed and re-faulted ~1.2 MB of heap every step (305 minor page
#: faults per ingest + step, p50 up ~30%).
BLOCK_ELEMENTS = 131_072

#: Fewest SNR rows per :func:`solve_rows` block. Each block re-runs the
#: kernel's SNR-independent prelude (knob checks, casts, ``e_tx``), so on
#: grids wider than ``BLOCK_ELEMENTS`` one-row blocks ran slower than
#: two-row ones.
MIN_BLOCK_ROWS = 2


def snr_bins(snr_db, quantum_db: float) -> np.ndarray:
    """The SNR quantizer: bin number ``round(snr / quantum)`` (as float)."""
    return np.round(np.asarray(snr_db, dtype=float) / quantum_db)


def snr_bin(snr_db: float, quantum_db: float) -> Optional[int]:
    """:func:`snr_bins` of one SNR, as an int, without touching numpy.

    Python's ``round`` and ``np.round`` both round halves to even, and
    the float division is the same IEEE operation, so the bin is the
    same; this path costs ~0.2 µs against ~5 µs through a 0-d array.
    None when ``snr / quantum`` overflows (say 1e308 dB): no axis has it.
    """
    quotient = float(snr_db) / quantum_db
    return round(quotient) if math.isfinite(quotient) else None


def snr_axis_bins(
    quantum_db: float,
    snr_range_db: Tuple[float, float] = DEFAULT_SNR_RANGE_DB,
) -> range:
    """The bin numbers of the SNR axis a policy table compiles.

    Bin ``k`` is centred on ``k * quantum_db``; the axis runs from the
    bin of ``snr_range_db[0]`` to the bin of ``snr_range_db[1]``.
    """
    if quantum_db <= 0:
        raise OptimizationError(
            f"snr_quantum_db must be positive, got {quantum_db!r}"
        )
    low_db, high_db = (float(snr_range_db[0]), float(snr_range_db[1]))
    low_bin, high_bin = (
        snr_bin(edge_db, quantum_db) for edge_db in (low_db, high_db)
    )
    if low_bin is None or high_bin is None or not low_db <= high_db:
        raise OptimizationError(
            f"snr_range_db must be (low, high) with finite bins and "
            f"low <= high, got {snr_range_db!r}"
        )
    return range(low_bin, high_bin + 1)


def quantize_snr_db(snr_db, quantum_db: float) -> np.ndarray:
    """SNR snapped to its ``quantum_db`` bin centre (0 keeps it exact).

    The one quantizer shared by the policy axis, the fleet engine and the
    oracle's cache keys: a float bin number times the quantum is the same
    product a compiled axis uses for its bin centres.
    """
    if quantum_db == 0.0:
        return np.asarray(snr_db, dtype=float)
    return snr_bins(snr_db, quantum_db) * quantum_db


def level_offset_lut_db(
    ptx_levels: np.ndarray, reference_level: int = REFERENCE_LEVEL
) -> np.ndarray:
    """Output-power offset LUT: ``lut[level] = P_out(level) − P_out(ref)``.

    Indexed by PA level (only the levels present in ``ptx_levels`` are
    populated). The per-level scalar subtraction is the exact float
    association :func:`snr_map_from_reference` uses, which is what makes
    ``center + lut[level]`` bit-identical to a per-link grid evaluation
    at that center.
    """
    reference_dbm = cc2420.output_power_dbm(reference_level)
    unique_levels = [int(level) for level in np.unique(ptx_levels).tolist()]
    lut = np.zeros(max(unique_levels) + 1, dtype=float)
    lut[unique_levels] = [
        cc2420.output_power_dbm(level) - reference_dbm
        for level in unique_levels
    ]
    return lut


class RowAnswers(NamedTuple):
    """The epsilon-constraint answer of each SNR row, column-wise.

    ``best_index`` / ``best_objective`` / ``feasible`` per row, the
    winner's full metric row (:data:`EVALUATION_METRICS`), and for each
    constrained objective its per-row minimum — what the solver's
    infeasibility diagnosis reports. When asked for, the full
    ``(rows, configs)`` objective and feasibility planes the answers
    were chosen from (None otherwise).
    """

    best_index: np.ndarray
    best_objective: np.ndarray
    feasible: np.ndarray
    winner_metrics: Dict[str, np.ndarray]
    constraint_best: Dict[str, np.ndarray]
    objective_plane: Optional[np.ndarray] = None
    feasible_plane: Optional[np.ndarray] = None


def solve_rows(
    evaluator: ModelEvaluator,
    knobs: Tuple[np.ndarray, ...],
    offsets_db: np.ndarray,
    snr_db: np.ndarray,
    objective: str,
    constraints: Sequence[Constraint] = (),
    block_elements: int = BLOCK_ELEMENTS,
    keep_planes: bool = False,
) -> RowAnswers:
    """Solve every reference-level SNR in ``snr_db`` over the whole grid.

    Row ``i`` is the plane ``snr_db[i] + offsets_db`` against the knob
    columns (``offsets_db`` is each configuration's output-power offset
    from the reference level), blocked to at most ``block_elements``
    plane elements at a time but never fewer than
    :data:`MIN_BLOCK_ROWS` rows. Rows are independent, so the block size
    changes the peak memory, never an answer. Each row is solved exactly
    like :func:`~repro.core.optimization.solve_epsilon_constraint` on
    that link's grid evaluation: metric planes → objective → feasibility
    mask → :func:`masked_argmin_rows`. Both :meth:`PolicyTable.compile`
    (over its bin centres) and the fleet engine (over the SNRs its table
    does not cover) solve through here. ``keep_planes`` also returns the
    objective and feasibility planes, each block written into one
    preallocated ``(rows, configs)`` pair.
    """
    ptx, payload, tries, retry_ms, qmax, tpkt_ms = knobs
    snr_db = np.asarray(snr_db, dtype=float)
    n_rows = int(snr_db.shape[0])
    n_configs = int(ptx.shape[0])
    constrained = list(dict.fromkeys(c.objective for c in constraints))
    answers = RowAnswers(
        best_index=np.empty(n_rows, dtype=np.int64),
        best_objective=np.empty(n_rows, dtype=float),
        feasible=np.empty(n_rows, dtype=bool),
        winner_metrics={
            name: np.empty(n_rows) for name in EVALUATION_METRICS
        },
        constraint_best={name: np.empty(n_rows) for name in constrained},
    )
    if keep_planes:
        answers = answers._replace(
            objective_plane=np.empty((n_rows, n_configs)),
            feasible_plane=np.empty((n_rows, n_configs), dtype=bool),
        )
    rows_per_block = max(MIN_BLOCK_ROWS, int(block_elements) // n_configs)
    for start in range(0, n_rows, rows_per_block):
        rows = slice(start, min(start + rows_per_block, n_rows))
        metrics = evaluate_metric_planes(
            evaluator,
            ptx_level=ptx,
            payload_bytes=payload,
            n_max_tries=tries,
            d_retry_ms=retry_ms,
            q_max=qmax,
            t_pkt_ms=tpkt_ms,
            snr_db=snr_db[rows, None] + offsets_db[None, :],
        )
        objective_plane = objective_from_planes(metrics, objective)
        feasible_plane = feasible_mask(metrics, constraints)
        if keep_planes:
            answers.objective_plane[rows] = objective_plane
            answers.feasible_plane[rows] = feasible_plane
        chosen, row_feasible = masked_argmin_rows(
            objective_plane, feasible_plane
        )
        selector = chosen[:, None]
        answers.best_index[rows] = chosen
        answers.best_objective[rows] = np.take_along_axis(
            objective_plane, selector, axis=1
        )[:, 0]
        answers.feasible[rows] = row_feasible
        for name, column in answers.winner_metrics.items():
            column[rows] = np.take_along_axis(
                metrics[name], selector, axis=1
            )[:, 0]
        # A plane row's minimum equals the matching GridEvaluation
        # column's (same values, same reduction): exactly what the
        # solver's infeasibility diagnosis reports.
        for name, column in answers.constraint_best.items():
            column[rows] = objective_from_planes(metrics, name).min(axis=1)
    return answers


@dataclass(frozen=True)
class PolicyTable:
    """Every epsilon-constraint answer along a quantized SNR axis.

    Bin ``i`` holds the solve for reference-level SNR
    ``(bin_origin + i) * snr_quantum_db``: the winning configuration
    index into the grid's canonical knob columns, its objective value,
    its full metric row, a feasibility flag, and — when constraints are
    present — the per-bin best-achievable value of every constrained
    objective, from which the exact :class:`InfeasibleError` diagnosis
    is rebuilt on demand. A table compiled with ``keep_planes=True``
    also holds every configuration's objective and feasibility per bin
    (``objective_plane`` / ``feasible_plane``, ``(bins, configs)``).
    All columns and planes are read-only.
    """

    objective: str
    constraints: Tuple[Constraint, ...]
    snr_quantum_db: float
    bin_origin: int
    distance_m: float
    knobs: Tuple[np.ndarray, ...]
    best_index: np.ndarray
    best_objective: np.ndarray
    feasible: np.ndarray
    winner_metrics: Mapping[str, np.ndarray]
    constraint_best: Mapping[str, np.ndarray]
    objective_plane: Optional[np.ndarray] = field(default=None, compare=False)
    feasible_plane: Optional[np.ndarray] = field(default=None, compare=False)
    compile_ms: float = field(default=float("nan"), compare=False)

    def __post_init__(self) -> None:
        n_bins = int(self.best_index.shape[0])
        for name in ("best_index", "best_objective", "feasible"):
            column = getattr(self, name)
            if column.ndim != 1 or column.shape[0] != n_bins:
                raise OptimizationError(
                    f"policy column {name!r} must be 1-D of length "
                    f"{n_bins}, got shape {column.shape}"
                )
            column.flags.writeable = False
        if set(self.winner_metrics) != set(EVALUATION_METRICS):
            raise OptimizationError(
                f"winner metrics must be exactly {sorted(EVALUATION_METRICS)}, "
                f"got {sorted(self.winner_metrics)}"
            )
        for mapping in (self.winner_metrics, self.constraint_best):
            for name, column in mapping.items():
                if column.ndim != 1 or column.shape[0] != n_bins:
                    raise OptimizationError(
                        f"policy column {name!r} must be 1-D of length "
                        f"{n_bins}, got shape {column.shape}"
                    )
                column.flags.writeable = False
        if len(self.knobs) != 6:
            raise OptimizationError(
                f"a policy table stores 6 knob columns, got {len(self.knobs)}"
            )
        for column in self.knobs:
            column.flags.writeable = False
        for plane in (self.objective_plane, self.feasible_plane):
            if plane is None:
                continue
            if plane.shape != (n_bins, self.n_configs):
                raise OptimizationError(
                    f"policy planes must have shape "
                    f"{(n_bins, self.n_configs)}, got {plane.shape}"
                )
            plane.flags.writeable = False

    # ----------------------------------------------------------- compile

    @classmethod
    def compile(
        cls,
        evaluator: Optional[ModelEvaluator] = None,
        grid=None,
        objective: str = "energy",
        constraints: Sequence[Constraint] = (),
        snr_quantum_db: float = DEFAULT_SNR_QUANTUM_DB,
        snr_range_db: Tuple[float, float] = DEFAULT_SNR_RANGE_DB,
        distance_m: float = 10.0,
        keep_planes: bool = False,
    ) -> "PolicyTable":
        """Solve every bin of the axis over the whole grid, in blocks.

        The evaluator only contributes its fitted sub-models (SNR enters
        through the explicit planes), so the default — built from the
        paper's reference map — compiles the table any reference-SNR
        link reads from. ``keep_planes`` keeps the solve's objective and
        feasibility planes for :meth:`take_planes` (9 bytes per bin and
        configuration).
        """
        check_objectives(objective, constraints)
        axis = snr_axis_bins(snr_quantum_db, snr_range_db)
        started = time.monotonic()
        quantum = float(snr_quantum_db)
        if evaluator is None:
            evaluator = ModelEvaluator(
                snr_by_level=snr_map_from_reference(0.0)
            )
        knobs = grid_knob_columns(grid)
        # int64 bin * float quantum is the exact product quantize_snr_db
        # yields for in-bin SNRs, so centers match quantized queries
        # float-for-float.
        centers_db = np.arange(axis.start, axis.stop, dtype=np.int64) * quantum
        answers = solve_rows(
            evaluator,
            knobs,
            level_offset_lut_db(knobs[0])[knobs[0]],
            centers_db,
            objective,
            constraints,
            keep_planes=keep_planes,
        )
        return cls(
            objective=objective,
            constraints=tuple(constraints),
            snr_quantum_db=quantum,
            bin_origin=axis.start,
            distance_m=float(distance_m),
            knobs=knobs,
            compile_ms=(time.monotonic() - started) * 1e3,
            **answers._asdict(),
        )

    # ------------------------------------------------------------- shape

    def __len__(self) -> int:
        return int(self.best_index.shape[0])

    @property
    def n_configs(self) -> int:
        """Grid configurations each bin's answer was chosen from."""
        return int(self.knobs[0].shape[0])

    @property
    def snr_min_db(self) -> float:
        """Lowest bin center on the supported axis (dB)."""
        return self.bin_origin * self.snr_quantum_db

    @property
    def snr_max_db(self) -> float:
        """Highest bin center on the supported axis (dB)."""
        return (self.bin_origin + len(self) - 1) * self.snr_quantum_db

    @property
    def nbytes(self) -> int:
        """Resident bytes: answer columns, knob columns and kept planes."""
        total = (
            self.best_index.nbytes
            + self.best_objective.nbytes
            + self.feasible.nbytes
        )
        for column in self.winner_metrics.values():
            total += column.nbytes
        for column in self.constraint_best.values():
            total += column.nbytes
        for column in self.knobs:
            total += column.nbytes
        if self.objective_plane is not None:
            total += self.objective_plane.nbytes + self.feasible_plane.nbytes
        return int(total)

    # ------------------------------------------------------------ lookup

    def local_bins(self, snr_db) -> np.ndarray:
        """Axis-relative bin index of each SNR (may fall outside [0, n))."""
        bins = snr_bins(snr_db, self.snr_quantum_db).astype(np.int64)
        return bins - self.bin_origin

    def in_axis(self, local_bins: np.ndarray) -> np.ndarray:
        """Which axis-relative bins the table actually covers."""
        return (local_bins >= 0) & (local_bins < len(self))

    def covered_bin(self, snr_db: float) -> Optional[int]:
        """The axis-relative bin of one SNR, or None off the axis."""
        local = snr_bin(snr_db, self.snr_quantum_db)
        if local is not None and 0 <= local - self.bin_origin < len(self):
            return local - self.bin_origin
        return None

    def covers(self, snr_db: float) -> bool:
        """True when the SNR quantizes onto the supported axis."""
        return self.covered_bin(snr_db) is not None

    def bin_index(self, snr_db: float) -> int:
        """The axis-relative bin of one SNR; raises when unsupported."""
        local = self.covered_bin(snr_db)
        if local is None:
            raise OptimizationError(
                f"SNR {snr_db:g} dB is outside the policy axis "
                f"[{self.snr_min_db:g}, {self.snr_max_db:g}] dB"
            )
        return local

    def bin_center_db(self, index: int) -> float:
        """The reference-level SNR a bin's answer was solved at."""
        return (self.bin_origin + int(index)) * self.snr_quantum_db

    def take(
        self, local_bins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fleet gather: per-bin (config index, objective, feasible).

        ``local_bins`` must already be on-axis (see :meth:`in_axis`);
        one ``np.take`` per answer column, no solve.
        """
        return (
            np.take(self.best_index, local_bins),
            np.take(self.best_objective, local_bins),
            np.take(self.feasible, local_bins),
        )

    def take_planes(
        self, local_bins: np.ndarray, config_index: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(objective, feasible) of each configuration at its on-axis bin.

        One flat ``np.take`` per kept plane at
        ``bin * n_configs + config``: the value a fresh evaluation of that
        configuration at the bin centre would give, bit for bit.
        """
        if self.objective_plane is None:
            raise OptimizationError(
                "this policy table was compiled without keep_planes"
            )
        flat = local_bins * self.n_configs + config_index
        return (
            np.take(self.objective_plane.reshape(-1), flat),
            np.take(self.feasible_plane.reshape(-1), flat),
        )

    def infeasible_error_at(self, index: int) -> InfeasibleError:
        """The solver's exact diagnosis for one infeasible bin."""
        return infeasible_error(
            self.constraints,
            lambda objective: float(self.constraint_best[objective][index]),
        )

    def config_at(
        self, config_index: int, distance_m: Optional[float] = None
    ) -> StackConfig:
        """Materialize one grid configuration index as a :class:`StackConfig`."""
        return knob_config(
            self.knobs,
            config_index,
            self.distance_m if distance_m is None else distance_m,
        )

    def lookup(
        self, snr_db: float, distance_m: Optional[float] = None
    ) -> ConfigEvaluation:
        """The stored answer for one SNR, as the solver would return it.

        Raises the stored-minima :class:`InfeasibleError` for infeasible
        bins and :class:`OptimizationError` for SNRs off the axis.
        """
        return self.lookup_bin(self.bin_index(snr_db), distance_m)

    def lookup_bin(
        self, index: int, distance_m: Optional[float] = None
    ) -> ConfigEvaluation:
        """:meth:`lookup` of an axis-relative bin already in range."""
        if not self.feasible[index]:
            raise self.infeasible_error_at(index)
        return ConfigEvaluation.from_columns(
            self.config_at(int(self.best_index[index]), distance_m),
            self.winner_metrics,
            index,
        )

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        """Size, axis and compile-cost summary, JSON-ready."""
        return {
            "objective": self.objective,
            "n_bins": len(self),
            "n_configs": self.n_configs,
            "n_infeasible_bins": int(np.count_nonzero(~self.feasible)),
            "snr_quantum_db": self.snr_quantum_db,
            "snr_min_db": self.snr_min_db,
            "snr_max_db": self.snr_max_db,
            "table_bytes": self.nbytes,
            "compile_ms": self.compile_ms,
        }
