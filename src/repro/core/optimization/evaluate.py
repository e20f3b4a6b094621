"""Model-driven evaluation of stack configurations.

The optimizer needs, for any candidate :class:`~repro.config.StackConfig`,
the four paper metrics *predicted by the empirical models* (Table III):
energy per bit E, maximum goodput G, delay D and loss L. The glue is the
link's SNR map — which SNR each power level yields — supplied either from
the channel model (:func:`snr_map_from_environment`) or from an assumption
(:func:`snr_map_from_reference`, used for the paper's Table IV case study
where SNR at P_tx = 31 is stated to be 6 dB).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Sequence, Tuple

from ...channel.environment import Environment
from ...config import StackConfig
from ...errors import OptimizationError
from ...radio import cc2420
from ..delay_model import DelayModel
from ..energy_model import EnergyModel
from ..goodput_model import GoodputModel
from ..plr_model import PlrRadioModel, plr_queue_estimate, plr_total_estimate

__all__ = [
    "EVALUATION_METRICS",
    "OBJECTIVE_PLANES",
    "RHO_QUEUE_CLIP",
    "check_objectives",
    "objective_from_planes",
    "snr_map_from_environment",
    "snr_map_from_reference",
    "ConfigEvaluation",
    "ModelEvaluator",
]

#: Utilization ceiling fed into the M/M/1/K queue-loss estimate. Beyond
#: this the blocking probability is saturated anyway and the power terms
#: ``rho**k`` overflow for large queues; both the scalar path and the
#: columnar kernels clip at the same value so they agree exactly.
RHO_QUEUE_CLIP = 5.0

#: Objective name → (metric field, minimization sign): the one objective
#: table. ``energy`` (µJ/bit), ``goodput`` (kbps, maximized, so negated),
#: ``delay`` (ms), ``loss`` (total PLR), ``loss_radio`` and ``rho``. The
#: field names are shared by :class:`ConfigEvaluation`, the columnar
#: ``GridEvaluation`` and the metric-plane mappings, so scalar rows,
#: columns and planes rank configurations identically.
OBJECTIVE_PLANES: Mapping[str, Tuple[str, float]] = {
    "energy": ("u_eng_uj_per_bit", 1.0),
    "goodput": ("max_goodput_kbps", -1.0),
    "delay": ("delay_ms", 1.0),
    "loss": ("plr_total", 1.0),
    "loss_radio": ("plr_radio", 1.0),
    "rho": ("rho", 1.0),
}


def _unknown_objective(
    name: str, label: str = "objective", error=OptimizationError
) -> Exception:
    return error(f"unknown {label} {name!r}; valid: {sorted(OBJECTIVE_PLANES)}")


def check_objectives(
    objective: str, constraints: Sequence[Any] = (), error=OptimizationError
) -> None:
    """Raise ``error`` unless the objective and every constraint's are known."""
    if objective not in OBJECTIVE_PLANES:
        raise _unknown_objective(objective, error=error)
    for constraint in constraints:
        if constraint.objective not in OBJECTIVE_PLANES:
            raise _unknown_objective(
                constraint.objective, "constraint objective", error
            )


def objective_from_planes(metrics: Mapping[str, Any], name: str) -> Any:
    """One objective in minimization form from metrics keyed by field name.

    ``metrics`` maps :data:`OBJECTIVE_PLANES` field names to scalars or
    arrays: a metric-plane mapping, or ``vars()`` of an evaluation.
    """
    try:
        key, sign = OBJECTIVE_PLANES[name]
    except KeyError:
        raise _unknown_objective(name) from None
    value = metrics[key]
    return -value if sign < 0 else value


def snr_map_from_environment(
    environment: Environment, distance_m: float
) -> Dict[int, float]:
    """Level → long-run mean SNR from the channel model."""
    noise = environment.noise.mean_dbm
    return {
        level: environment.pathloss.mean_rssi_dbm(
            cc2420.output_power_dbm(level), distance_m
        )
        - noise
        for level in cc2420.PA_LEVELS
    }


def snr_map_from_reference(
    snr_at_level_db: float, reference_level: int = 31
) -> Dict[int, float]:
    """Level → SNR assuming SNR tracks output power dB-for-dB.

    This is how the paper's case study specifies its link: "the current SNR
    increases to 6 dB after the output power level increases ... to 31".
    """
    ref_dbm = cc2420.output_power_dbm(reference_level)
    return {
        level: snr_at_level_db + (cc2420.output_power_dbm(level) - ref_dbm)
        for level in cc2420.PA_LEVELS
    }


@dataclass(frozen=True)
class ConfigEvaluation:
    """Model-predicted performance of one configuration on one link."""

    config: StackConfig
    snr_db: float
    max_goodput_kbps: float
    u_eng_uj_per_bit: float
    delay_ms: float
    rho: float
    plr_radio: float
    plr_queue: float
    plr_total: float

    def objective(self, name: str) -> float:
        """Look up a metric by its :data:`OBJECTIVE_PLANES` name (goodput
        negated, so every objective minimizes)."""
        return objective_from_planes(vars(self), name)

    @classmethod
    def from_columns(
        cls, config: StackConfig, columns: Mapping[str, Any], index: int
    ) -> "ConfigEvaluation":
        """Row ``index`` of metric columns keyed by field name.

        ``columns`` holds one array per :data:`EVALUATION_METRICS` name: a
        ``GridEvaluation``'s ``vars()``, or a policy table's winner
        metrics.
        """
        return cls(
            config=config,
            **{name: float(columns[name][index]) for name in EVALUATION_METRICS},
        )


#: The metric fields of :class:`ConfigEvaluation` (every field but
#: ``config``), in declaration order.
EVALUATION_METRICS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(ConfigEvaluation) if spec.name != "config"
)


@dataclass(frozen=True)
class ModelEvaluator:
    """Evaluates configurations against a link's SNR map using the models."""

    snr_by_level: Mapping[int, float]
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    goodput_model: GoodputModel = field(default_factory=GoodputModel)
    delay_model: DelayModel = field(default_factory=DelayModel)
    plr_model: PlrRadioModel = field(default_factory=PlrRadioModel)

    def __post_init__(self) -> None:
        if not self.snr_by_level:
            raise OptimizationError("snr_by_level must not be empty")

    def snr_for(self, config: StackConfig) -> float:
        """SNR the link yields at this configuration's power level."""
        try:
            return float(self.snr_by_level[config.ptx_level])
        except KeyError:
            raise OptimizationError(
                f"no SNR known for P_tx level {config.ptx_level}"
            ) from None

    def evaluate(self, config: StackConfig) -> ConfigEvaluation:
        """All four model metrics for one configuration."""
        snr = self.snr_for(config)
        goodput = self.goodput_model.max_goodput_bps(
            config.payload_bytes, snr, config.n_max_tries, config.d_retry_ms
        )
        u_eng = self.energy_model.u_eng_finite_retries_j_per_bit(
            config.ptx_level, config.payload_bytes, snr, config.n_max_tries
        )
        delay = self.delay_model.estimate(config, snr)
        plr_radio = float(
            self.plr_model.plr_radio(config.payload_bytes, snr, config.n_max_tries)
        )
        plr_queue = plr_queue_estimate(
            min(delay.rho, RHO_QUEUE_CLIP), config.q_max
        )
        return ConfigEvaluation(
            config=config,
            snr_db=snr,
            max_goodput_kbps=float(goodput) / 1e3,
            u_eng_uj_per_bit=float(u_eng) * 1e6,
            delay_ms=delay.total_delay_s * 1e3,
            rho=delay.rho,
            plr_radio=plr_radio,
            plr_queue=plr_queue,
            plr_total=plr_total_estimate(plr_radio, plr_queue),
        )
