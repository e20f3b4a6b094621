"""Columnar evaluation kernels — the vectorized grid-evaluation hot path.

The paper's optimization story (Sec. VIII-B) rests on the models being
cheap enough to evaluate the *entire* discrete configuration space. The
scalar reference path (:meth:`~repro.core.optimization.evaluate.
ModelEvaluator.evaluate` inside a Python loop) pays interpreter and object
overhead per configuration — about a second for the default 4,560-point
:class:`~repro.core.optimization.grid.TuningGrid`. This module computes
the same Table III metrics for *all* configurations at once as numpy
broadcast operations over knob columns:

* PER (Eq. 3) and the expected transmission count (Eq. 7 family, in its
  truncated-geometric finite-budget form);
* U_eng (Eq. 2, finite-retry generalization);
* T_service (Eqs. 5–6 exact expectation);
* maxGoodput (Eq. 4);
* utilization ρ (Eq. 9), the M/G/1 + full-queue delay estimate, the
  radio loss PLR_radio (Eq. 8), the M/M/1/K queue-loss estimate, and the
  series-composition total loss.

Results land in a :class:`GridEvaluation` — a struct-of-arrays container
(one float64 column per metric, integer columns for the knobs) from which
scalar :class:`~repro.core.optimization.evaluate.ConfigEvaluation` rows
can be materialized on demand. Every arithmetic step mirrors the scalar
models' operation order so kernel columns agree with the reference
implementation to within floating-point noise (pinned to 1e-9 relative
tolerance by the test suite); the scalar path remains the readable
specification, this module is the fast one.
"""

# reprolint: hot-path — grid-evaluation kernels timed by BENCH_grid_eval.json
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ...config import StackConfig
from ...errors import ConfigurationError, OptimizationError
from ...radio import cc2420
from ...radio.frame import DATA_FRAME_OVERHEAD_BYTES
from ...radio.timing import (
    ACK_TIME_S,
    ACK_WAIT_TIMEOUT_S,
    SPI_SECONDS_PER_BYTE,
    mac_delay_s,
)
from .evaluate import (
    RHO_QUEUE_CLIP,
    ConfigEvaluation,
    ModelEvaluator,
    objective_from_planes,
)

__all__ = [
    "GridEvaluation",
    "evaluate_columns",
    "evaluate_grid_columns",
    "evaluate_metric_planes",
    "grid_knob_columns",
    "knob_config",
    "queue_composition_columns",
    "queue_loss_columns",
]

#: Near-one tolerance of the M/M/1/K blocking formula's removable
#: singularity, matching ``math.isclose(rho, 1.0, rel_tol=1e-12,
#: abs_tol=1e-12)`` in :func:`repro.queueing.mm1k_blocking_probability`.
_MM1K_UNITY_TOL = 1e-12

#: Knob columns of a :class:`GridEvaluation`, in :class:`StackConfig`
#: field order (integer-valued knobs are stored as int64 columns).
KNOB_COLUMNS = (
    "ptx_level",
    "payload_bytes",
    "n_max_tries",
    "d_retry_ms",
    "q_max",
    "t_pkt_ms",
)

#: Metric columns of a :class:`GridEvaluation` (all float64).
METRIC_COLUMNS = (
    "snr_db",
    "per",
    "n_tries",
    "t_service_ms",
    "max_goodput_kbps",
    "u_eng_uj_per_bit",
    "delay_ms",
    "rho",
    "plr_radio",
    "plr_queue",
    "plr_total",
)


@dataclass(frozen=True)
class GridEvaluation:
    """Columnar model predictions for a batch of configurations on one link.

    A struct-of-arrays mirror of a list of :class:`ConfigEvaluation`:
    every field is a 1-D array aligned by configuration index. The three
    diagnostic columns ``per`` (Eq. 3, the service path's per-attempt
    failure), ``n_tries`` (finite-budget E[N] of the Eq. 7 family) and
    ``t_service_ms`` (Eqs. 5–6) are exposed here even though the scalar
    row type folds them into its derived metrics.

    Columns are marked read-only so cached tables cannot be corrupted by
    callers; materialize rows (:meth:`row`, :meth:`rows`) to mutate copies.
    """

    distance_m: float
    ptx_level: np.ndarray
    payload_bytes: np.ndarray
    n_max_tries: np.ndarray
    d_retry_ms: np.ndarray
    q_max: np.ndarray
    t_pkt_ms: np.ndarray
    snr_db: np.ndarray
    per: np.ndarray
    n_tries: np.ndarray
    t_service_ms: np.ndarray
    max_goodput_kbps: np.ndarray
    u_eng_uj_per_bit: np.ndarray
    delay_ms: np.ndarray
    rho: np.ndarray
    plr_radio: np.ndarray
    plr_queue: np.ndarray
    plr_total: np.ndarray

    def __post_init__(self) -> None:
        length = self.ptx_level.shape[0]
        for spec in fields(self):
            if spec.name == "distance_m":
                continue
            column = getattr(self, spec.name)
            if column.ndim != 1 or column.shape[0] != length:
                raise OptimizationError(
                    f"column {spec.name!r} must be 1-D of length {length}, "
                    f"got shape {column.shape}"
                )
            column.flags.writeable = False

    def __len__(self) -> int:
        return int(self.ptx_level.shape[0])

    def objective_column(self, name: str) -> np.ndarray:
        """One :data:`OBJECTIVE_PLANES` objective as a minimization-form
        column (goodput negated)."""
        return objective_from_planes(vars(self), name)

    def objective_matrix(self, names: Sequence[str]) -> np.ndarray:
        """Shape ``(len(self), len(names))`` matrix of objective columns."""
        if not names:
            raise OptimizationError("need at least one objective name")
        return np.stack([self.objective_column(name) for name in names], axis=1)

    def best_index(self, objective: str) -> int:
        """Index minimizing an objective; ties break to the lowest index."""
        if len(self) == 0:
            raise OptimizationError("no evaluations to choose from")
        return int(np.argmin(self.objective_column(objective)))

    def config_at(self, index: int) -> StackConfig:
        """Materialize the knobs of one row as a :class:`StackConfig`."""
        knobs = (
            self.ptx_level,
            self.payload_bytes,
            self.n_max_tries,
            self.d_retry_ms,
            self.q_max,
            self.t_pkt_ms,
        )
        return knob_config(knobs, index, self.distance_m)

    def row(self, index: int) -> ConfigEvaluation:
        """Materialize one configuration row as a :class:`ConfigEvaluation`."""
        return ConfigEvaluation.from_columns(
            self.config_at(index), vars(self), index
        )

    def rows(self) -> List[ConfigEvaluation]:
        """Materialize every row (the scalar-compatibility view).

        Built from ``.tolist()`` columns so the per-row cost is plain
        Python object construction, not numpy scalar boxing.
        """
        distance = self.distance_m
        return [
            ConfigEvaluation(
                config=StackConfig(
                    distance_m=distance,
                    ptx_level=ptx,
                    payload_bytes=payload,
                    n_max_tries=tries,
                    d_retry_ms=retry,
                    q_max=qmax,
                    t_pkt_ms=tpkt,
                ),
                snr_db=snr,
                max_goodput_kbps=goodput,
                u_eng_uj_per_bit=energy,
                delay_ms=delay,
                rho=rho,
                plr_radio=radio,
                plr_queue=queue,
                plr_total=total,
            )
            for (
                ptx, payload, tries, retry, qmax, tpkt,
                snr, goodput, energy, delay, rho, radio, queue, total,
            ) in zip(
                self.ptx_level.tolist(),
                self.payload_bytes.tolist(),
                self.n_max_tries.tolist(),
                self.d_retry_ms.tolist(),
                self.q_max.tolist(),
                self.t_pkt_ms.tolist(),
                self.snr_db.tolist(),
                self.max_goodput_kbps.tolist(),
                self.u_eng_uj_per_bit.tolist(),
                self.delay_ms.tolist(),
                self.rho.tolist(),
                self.plr_radio.tolist(),
                self.plr_queue.tolist(),
                self.plr_total.tolist(),
            )
        ]

    def as_dict(self) -> Dict[str, object]:
        """Summary view (lengths and column names), JSON-ready."""
        return {
            "distance_m": self.distance_m,
            "configurations": len(self),
            "knob_columns": list(KNOB_COLUMNS),
            "metric_columns": list(METRIC_COLUMNS),
        }


def _level_values(
    levels: np.ndarray, table: Mapping[int, float], unknown: str
) -> np.ndarray:
    """``table[level]`` for every element of an integer PA-level array.

    A sorted-key search, not ``np.unique``: the tables hold a handful of
    levels while a grid holds thousands of configurations. A level
    missing from ``table`` raises :class:`OptimizationError` with
    ``unknown`` formatted with the smallest such level.
    """
    keys = np.array(sorted(table), dtype=np.int64)
    values = np.array([float(table[key]) for key in keys.tolist()])
    slots = np.minimum(np.searchsorted(keys, levels), keys.size - 1)
    known = keys[slots] == levels
    if not known.all():
        raise OptimizationError(unknown.format(int(levels[~known].min())))
    return values[slots]


def _exp_fit_column(
    coefficients, payload: np.ndarray, snr_db: np.ndarray
) -> np.ndarray:
    """Clipped ``α · l_D · exp(β · SNR)`` column (Eq. 3 / Eq. 8 base)."""
    return np.clip(
        coefficients.alpha * payload * np.exp(coefficients.beta * snr_db),
        0.0,
        1.0,
    )


def _expected_tries_column(per: np.ndarray, tries: np.ndarray) -> np.ndarray:
    """Truncated-geometric E[N] column: ``(1 − per^N) / (1 − per)``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            per >= 1.0,
            tries,
            (1.0 - per**tries) / np.where(per >= 1.0, 1.0, 1.0 - per),
        )


def _mean_service_column(
    per: np.ndarray,
    tries: np.ndarray,
    t_spi_s: np.ndarray,
    core_attempt_s: np.ndarray,
    ack_time_s: np.ndarray,
    wait_time_s: np.ndarray,
    d_retry_s: np.ndarray,
) -> np.ndarray:
    """Eqs. 5–6 exact expectation column (mirrors ``mean_service_time_s``)."""
    expected_n = _expected_tries_column(per, tries)
    p_succ = 1.0 - per**tries
    return (
        t_spi_s
        + expected_n * core_attempt_s
        + (expected_n - 1.0) * d_retry_s
        + p_succ * ack_time_s
        + (expected_n - p_succ) * wait_time_s
    )


def _mm1k_blocking_column(rho: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """M/M/1/K blocking column with the exact ρ = 1 limit ``1 / (K + 1)``."""
    near_one = np.abs(rho - 1.0) <= np.maximum(
        _MM1K_UNITY_TOL * np.maximum(rho, 1.0), _MM1K_UNITY_TOL
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        blocked = (1.0 - rho) * rho**capacity / (1.0 - rho ** (capacity + 1.0))
    return np.where(near_one, 1.0 / (capacity + 1.0), blocked)


def _validate_knobs(
    payload: np.ndarray,
    tries: np.ndarray,
    d_retry_ms: np.ndarray,
    q_max: np.ndarray,
    t_pkt_ms: np.ndarray,
) -> None:
    """Vectorized mirror of the :class:`StackConfig` range checks."""
    from ...config import MAX_PAYLOAD_BYTES

    if payload.size == 0:
        return
    if np.any((payload < 1) | (payload > MAX_PAYLOAD_BYTES)):
        raise ConfigurationError(
            f"payload_bytes must be in [1, {MAX_PAYLOAD_BYTES}]"
        )
    if np.any(tries < 1):
        raise ConfigurationError("n_max_tries must be >= 1")
    if np.any(d_retry_ms < 0):
        raise ConfigurationError("d_retry_ms must be >= 0")
    if np.any(q_max < 1):
        raise ConfigurationError("q_max must be >= 1")
    if np.any(t_pkt_ms <= 0):
        raise ConfigurationError("t_pkt_ms must be positive")


def _metric_table(
    evaluator: ModelEvaluator,
    payload: np.ndarray,
    tries: np.ndarray,
    retry_ms: np.ndarray,
    qmax: np.ndarray,
    tpkt_ms: np.ndarray,
    snr: np.ndarray,
    e_tx: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The shared metric math over pre-broadcast float arrays.

    Shape-agnostic core of the kernels: every input is a float array (or
    scalar) and the outputs have the common broadcast shape, so the same
    code serves the 1-D columnar grid evaluation and the 2-D
    (link × configuration) fleet planes. Operation order mirrors the
    scalar models exactly — do not "simplify" the arithmetic here.
    """
    # Per-attempt timing terms (affine in payload; Sec. V-B). The ACK and
    # wait terms are reconstructed exactly as the scalar AttemptTimes
    # subtraction (t_succ − core) computes them, rounding included.
    frame_bytes = payload + float(DATA_FRAME_OVERHEAD_BYTES)
    t_spi_s = frame_bytes * SPI_SECONDS_PER_BYTE
    t_frame_s = frame_bytes * 8.0 / cc2420.DATA_RATE_BPS
    core_attempt_s = mac_delay_s() + t_frame_s
    ack_time_s = (core_attempt_s + ACK_TIME_S) - core_attempt_s
    wait_time_s = (core_attempt_s + ACK_WAIT_TIMEOUT_S) - core_attempt_s
    d_retry_s = retry_ms / 1e3

    # --- maxGoodput (Eq. 4) on the goodput model's own sub-models.
    goodput_service = evaluator.goodput_model.service_model
    per_goodput = _exp_fit_column(
        goodput_service.per_model.coefficients, payload, snr
    )
    service_goodput_s = _mean_service_column(
        per_goodput, tries, t_spi_s, core_attempt_s,
        ack_time_s, wait_time_s, d_retry_s,
    )
    plr_goodput = (
        _exp_fit_column(
            evaluator.goodput_model.plr_model.coefficients, payload, snr
        )
        ** tries
    )
    goodput_bps = payload * 8.0 / service_goodput_s * (1.0 - plr_goodput)

    # --- U_eng (Eq. 2, finite-retry form) on the energy model.
    per_energy = _exp_fit_column(
        evaluator.energy_model.per_model.coefficients, payload, snr
    )
    expected_n_energy = _expected_tries_column(per_energy, tries)
    p_succ_energy = 1.0 - per_energy**tries
    overhead = float(evaluator.energy_model.overhead_bytes)
    with np.errstate(invalid="ignore", divide="ignore"):
        u_eng_j = np.where(
            per_energy >= 1.0,
            np.inf,
            e_tx
            * (overhead + payload)
            * expected_n_energy
            / (payload * p_succ_energy),
        )

    # --- Delay (Sec. VI) on the delay model's service sub-model.
    delay_service = evaluator.delay_model.service_model
    per_delay = _exp_fit_column(
        delay_service.per_model.coefficients, payload, snr
    )
    service_delay_s = _mean_service_column(
        per_delay, tries, t_spi_s, core_attempt_s,
        ack_time_s, wait_time_s, d_retry_s,
    )
    expected_n_delay = _expected_tries_column(per_delay, tries)

    # --- Losses: PLR_radio (Eq. 8), then the t_pkt-dependent queueing
    # composition (rho, wait, blocking, series total) via the shared
    # helper, so relay-congestion re-evaluations at a different packet
    # period reproduce these columns bit for bit.
    plr_radio = (
        _exp_fit_column(evaluator.plr_model.coefficients, payload, snr)
        ** tries
    )
    queue = queue_composition_columns(
        service_delay_s=service_delay_s,
        service_scv=evaluator.delay_model.service_scv,
        q_max=qmax,
        t_pkt_ms=tpkt_ms,
        plr_radio=plr_radio,
    )

    return {
        "snr_db": snr,
        "per": per_delay,
        "n_tries": expected_n_delay,
        "t_service_ms": service_delay_s * 1e3,
        "max_goodput_kbps": goodput_bps / 1e3,
        "u_eng_uj_per_bit": u_eng_j * 1e6,
        "delay_ms": queue["delay_ms"],
        "rho": queue["rho"],
        "plr_radio": plr_radio,
        "plr_queue": queue["plr_queue"],
        "plr_total": queue["plr_total"],
    }


def queue_composition_columns(
    *,
    service_delay_s: np.ndarray,
    service_scv: float,
    q_max: np.ndarray,
    t_pkt_ms: np.ndarray,
    plr_radio: np.ndarray,
) -> Dict[str, np.ndarray]:
    """The t_pkt-dependent queueing metrics from their t_pkt-free parts.

    Everything downstream of the packet inter-arrival time in the Table
    III composition: utilization ``rho = service / t_pkt``, the bounded
    G/G/1-style waiting time, M/M/1/K blocking, and the series loss
    total. Split out of :func:`_metric_table` (which calls it, so grid
    and plane evaluations are unchanged bit for bit) because relay
    congestion re-evaluates exactly these columns at an *effective*
    packet period — the per-hop service time and radio loss do not
    depend on the arrival rate and are reused as-is.
    """
    service_s = np.asarray(service_delay_s, dtype=float)
    qmax = np.asarray(q_max, dtype=float)
    rho, plr_queue, plr_total = queue_loss_columns(
        service_s,
        qmax,
        np.asarray(t_pkt_ms, dtype=float),
        np.asarray(plr_radio, dtype=float),
    )
    full_queue_wait_s = qmax * service_s
    scv = service_scv
    with np.errstate(invalid="ignore", divide="ignore"):
        stable_wait_s = rho * (1.0 + scv) / (2.0 * (1.0 - rho)) * service_s
    wait_s = np.where(
        rho < 1.0,
        np.minimum(stable_wait_s, full_queue_wait_s),
        full_queue_wait_s,
    )
    return {
        "rho": rho,
        "delay_ms": (service_s + wait_s) * 1e3,
        "plr_queue": plr_queue,
        "plr_total": plr_total,
    }


def queue_loss_columns(
    service_delay_s: np.ndarray,
    q_max: np.ndarray,
    t_pkt_ms: np.ndarray,
    plr_radio: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rho, plr_queue, plr_total)``: the loss tail of the composition.

    Utilization, M/M/1/K blocking at the clipped utilization, and the
    series loss total, over float arrays — the part of
    :func:`queue_composition_columns` (which calls it) that decides how
    much traffic a hop delivers. The relay sweep runs only this per hop
    level and composes the delay columns once afterwards.
    """
    rho = service_delay_s / (t_pkt_ms / 1e3)
    plr_queue = _mm1k_blocking_column(
        np.minimum(rho, RHO_QUEUE_CLIP), q_max + 1.0
    )
    plr_total = plr_queue + (1.0 - plr_queue) * plr_radio
    return rho, plr_queue, plr_total


def evaluate_columns(
    evaluator: ModelEvaluator,
    *,
    ptx_level,
    payload_bytes,
    n_max_tries,
    d_retry_ms,
    q_max,
    t_pkt_ms,
    distance_m: float = 10.0,
) -> GridEvaluation:
    """Vectorized :meth:`ModelEvaluator.evaluate` over knob columns.

    Inputs broadcast against each other (scalars are fine for constant
    knobs) into aligned 1-D columns; the result holds one value per
    broadcast element. This is the level-map front of
    :func:`evaluate_metric_planes`: each configuration's SNR is looked up
    from the evaluator's ``snr_by_level`` map, then the planes kernel does
    the rest, so re-fitted models vectorize identically to their scalar
    counterparts.
    """
    columns = np.broadcast_arrays(
        np.atleast_1d(np.asarray(ptx_level, dtype=np.int64)),
        np.atleast_1d(np.asarray(payload_bytes, dtype=np.int64)),
        np.atleast_1d(np.asarray(n_max_tries, dtype=np.int64)),
        np.atleast_1d(np.asarray(d_retry_ms, dtype=float)),
        np.atleast_1d(np.asarray(q_max, dtype=np.int64)),
        np.atleast_1d(np.asarray(t_pkt_ms, dtype=float)),
    )
    knobs = dict(
        zip(
            KNOB_COLUMNS,
            (np.ascontiguousarray(column).reshape(-1) for column in columns),
        )
    )
    metrics = evaluate_metric_planes(
        evaluator,
        snr_db=_level_values(
            knobs["ptx_level"],
            evaluator.snr_by_level,
            "no SNR known for P_tx level {}",
        ),
        **knobs,
    )
    return GridEvaluation(distance_m=float(distance_m), **knobs, **metrics)


def evaluate_metric_planes(
    evaluator: ModelEvaluator,
    *,
    ptx_level,
    payload_bytes,
    n_max_tries,
    d_retry_ms,
    q_max,
    t_pkt_ms,
    snr_db,
) -> Dict[str, np.ndarray]:
    """Table III metric arrays for knob columns × explicit SNR values.

    The one entry point into the metric math (:func:`_metric_table`):
    :func:`evaluate_columns` is its level-map front. Here the SNR is
    *given* per element, and every input may carry any mutually
    broadcastable shape. The fleet engine passes 1-D knob columns of
    length C and an ``(L, C)`` SNR plane to evaluate a whole deployment
    in one broadcast pass; each output array then has shape ``(L, C)``,
    and a single row of a plane equals the matching
    :class:`GridEvaluation` columns exactly.
    """
    ptx = np.asarray(ptx_level, dtype=np.int64)
    payload_i = np.asarray(payload_bytes, dtype=np.int64)
    tries_i = np.asarray(n_max_tries, dtype=np.int64)
    retry_ms = np.asarray(d_retry_ms, dtype=float)
    qmax_i = np.asarray(q_max, dtype=np.int64)
    tpkt_ms = np.asarray(t_pkt_ms, dtype=float)
    snr = np.asarray(snr_db, dtype=float)
    _validate_knobs(
        payload_i.reshape(-1),
        tries_i.reshape(-1),
        retry_ms.reshape(-1),
        qmax_i.reshape(-1),
        tpkt_ms.reshape(-1),
    )
    try:
        np.broadcast_shapes(
            ptx.shape, payload_i.shape, tries_i.shape, retry_ms.shape,
            qmax_i.shape, tpkt_ms.shape, snr.shape,
        )
    except ValueError as exc:
        raise OptimizationError(
            f"metric-plane inputs do not broadcast: {exc}"
        ) from exc
    e_tx = _level_values(
        ptx,
        {level: cc2420.tx_energy_per_bit_j(level) for level in cc2420.PA_TABLE},
        "unknown CC2420 PA_LEVEL {} in ptx_level column",
    )
    return _metric_table(
        evaluator,
        payload_i.astype(float),
        tries_i.astype(float),
        retry_ms,
        qmax_i.astype(float),
        tpkt_ms,
        snr,
        e_tx,
    )


def grid_knob_columns(grid=None):
    """The grid's knob columns in canonical configuration order.

    Returns the six 1-D knob columns ``(ptx_level, payload_bytes,
    n_max_tries, d_retry_ms, q_max, t_pkt_ms)`` in the exact row-major
    cartesian-product order that ``grid.configs(distance_m)`` and
    :func:`evaluate_grid_columns` enumerate (power varying slowest), so a
    configuration *index* is interchangeable between the grid, a
    :class:`GridEvaluation` (the oracle caches these per link), and the
    fleet engine's metric planes.
    """
    if grid is None:
        # Imported lazily: grid.py wraps this module for its scalar shim.
        from .grid import TuningGrid

        grid = TuningGrid()
    if len(grid) == 0:
        raise OptimizationError("the tuning grid is empty")
    mesh = np.meshgrid(
        np.asarray(grid.ptx_levels, dtype=np.int64),
        np.asarray(grid.payload_values_bytes, dtype=np.int64),
        np.asarray(grid.n_max_tries_values, dtype=np.int64),
        np.asarray(grid.d_retry_values_ms, dtype=float),
        np.asarray(grid.q_max_values, dtype=np.int64),
        np.asarray(grid.t_pkt_values_ms, dtype=float),
        indexing="ij",
    )
    return tuple(m.reshape(-1) for m in mesh)


def knob_config(knobs, index: int, distance_m: float) -> StackConfig:
    """One configuration of the six knob columns as a :class:`StackConfig`.

    ``knobs`` is in :func:`grid_knob_columns` order; ``index`` is a
    configuration index into those columns.
    """
    ptx, payload, tries, retry_ms, qmax, tpkt_ms = knobs
    return StackConfig(
        distance_m=distance_m,
        ptx_level=int(ptx[index]),
        payload_bytes=int(payload[index]),
        n_max_tries=int(tries[index]),
        d_retry_ms=float(retry_ms[index]),
        q_max=int(qmax[index]),
        t_pkt_ms=float(tpkt_ms[index]),
    )


def evaluate_grid_columns(
    evaluator: ModelEvaluator,
    grid=None,
    distance_m: float = 10.0,
) -> GridEvaluation:
    """Evaluate a whole :class:`TuningGrid` as one columnar kernel pass.

    Column order matches ``grid.configs(distance_m)`` exactly (row-major
    cartesian product, power varying slowest), so index ``i`` here is the
    ``i``-th configuration the scalar loop would have produced.
    """
    ptx, payload, tries, retry, qmax, tpkt = grid_knob_columns(grid)
    return evaluate_columns(
        evaluator,
        ptx_level=ptx,
        payload_bytes=payload,
        n_max_tries=tries,
        d_retry_ms=retry,
        q_max=qmax,
        t_pkt_ms=tpkt,
        distance_m=distance_m,
    )
