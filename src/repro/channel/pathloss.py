"""Log-normal shadowing path loss (the paper's Fig. 3).

The paper fits its hallway measurements to the log-normal shadowing model
with path-loss exponent n = 2.19 and deviation σ = 3.2 dB. We reproduce the
same structure:

``PL(d) = PL(d_0) + 10 · n · log10(d / d_0) + X_d``

where ``X_d`` is a per-position shadowing offset. For the six measurement
positions of the reconstructed campaign the offsets are *frozen constants*
(one realization of the hallway, chosen so that 35 m is the weakest link and
re-fitting the model recovers n ≈ 2.19 with σ ≈ 3 dB); for any other
distance a deterministic offset is drawn from N(0, σ) seeded by the distance,
so the same distance always sees the same hallway.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

import numpy as np

from ..errors import ChannelError

__all__ = [
    "DEFAULT_PATH_LOSS_EXPONENT",
    "DEFAULT_SHADOWING_SIGMA_DB",
    "DEFAULT_REFERENCE_DISTANCE_M",
    "DEFAULT_REFERENCE_LOSS_DB",
    "CAMPAIGN_POSITION_OFFSETS_DB",
    "LogNormalShadowing",
    "fit_path_loss",
]

#: Path-loss exponent fitted by the paper. This is the defining site (the
#: channel layer cannot import :mod:`repro.core`); ``core.constants``
#: re-exports it as ``PATH_LOSS_EXPONENT`` for the model layer.
DEFAULT_PATH_LOSS_EXPONENT = 2.19

#: Shadowing deviation fitted by the paper (dB); re-exported by
#: ``core.constants`` as ``PATH_LOSS_SIGMA_DB``.
DEFAULT_SHADOWING_SIGMA_DB = 3.2

#: Reference distance (m).
DEFAULT_REFERENCE_DISTANCE_M = 1.0

#: Path loss at the reference distance (dB). Lower than the 40 dB free-space
#: value at 2.4 GHz because the hallway acts as a partial waveguide; chosen so
#: the per-power-level SNR ranges match the paper's observations (see
#: DESIGN.md §2).
DEFAULT_REFERENCE_LOSS_DB = 36.0

#: Frozen shadowing realization at the six campaign positions (dB).
CAMPAIGN_POSITION_OFFSETS_DB: Mapping[float, float] = {
    5.0: 3.5,
    10.0: -3.0,
    15.0: 2.5,
    20.0: -4.0,
    30.0: 0.5,
    35.0: 5.5,
}


@dataclass(frozen=True)
class LogNormalShadowing:
    """Deterministic mean path loss with a frozen shadowing realization."""

    exponent: float = DEFAULT_PATH_LOSS_EXPONENT
    sigma_db: float = DEFAULT_SHADOWING_SIGMA_DB
    reference_distance_m: float = DEFAULT_REFERENCE_DISTANCE_M
    reference_loss_db: float = DEFAULT_REFERENCE_LOSS_DB
    #: Per-position shadowing offsets; positions not listed get a
    #: deterministic pseudo-random offset (seeded by distance).
    position_offsets_db: Mapping[float, float] = field(
        default_factory=lambda: dict(CAMPAIGN_POSITION_OFFSETS_DB)
    )

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ChannelError(f"path-loss exponent must be positive, got {self.exponent!r}")
        if self.sigma_db < 0:
            raise ChannelError(f"sigma_db must be >= 0, got {self.sigma_db!r}")
        if self.reference_distance_m <= 0:
            raise ChannelError(
                f"reference distance must be positive, got {self.reference_distance_m!r}"
            )

    def median_loss_db(self, distance_m: float) -> float:
        """Distance-dependent median path loss, without shadowing (dB)."""
        if distance_m <= 0:
            raise ChannelError(f"distance must be positive, got {distance_m!r}")
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance_m / self.reference_distance_m
        )

    def shadowing_offset_db(self, distance_m: float) -> float:
        """The frozen shadowing offset at a position (dB).

        Campaign positions use the frozen table; any other position gets a
        reproducible draw from N(0, σ) seeded by the distance, so repeated
        queries (and repeated campaigns) agree.
        """
        if distance_m in self.position_offsets_db:
            return float(self.position_offsets_db[distance_m])
        seed = int(round(distance_m * 1000.0)) & 0xFFFFFFFF
        return _seeded_offset_db(seed, self.sigma_db)

    def loss_db(self, distance_m: float) -> float:
        """Total path loss including the position's shadowing offset (dB)."""
        return self.median_loss_db(distance_m) + self.shadowing_offset_db(distance_m)

    def mean_rssi_dbm(self, tx_power_dbm: float, distance_m: float) -> float:
        """Long-run mean RSSI at the receiver for a given TX power (dBm)."""
        return tx_power_dbm - self.loss_db(distance_m)


@functools.lru_cache(maxsize=4096)
def _seeded_offset_db(seed: int, sigma_db: float) -> float:
    """One N(0, σ) draw seeded by a position.

    Memoized: building the generator costs ~14 µs, and the serve tier
    resolves the same link distances on every fleet request.
    """
    return float(np.random.default_rng(seed).normal(0.0, sigma_db))


def fit_path_loss(
    distances_m: np.ndarray,
    rssi_dbm: np.ndarray,
    tx_power_dbm: float,
    reference_distance_m: float = DEFAULT_REFERENCE_DISTANCE_M,
) -> Dict[str, float]:
    """Fit the log-normal shadowing model to (distance, RSSI) samples.

    This is the regression behind the paper's Fig. 3: a least-squares line of
    path loss versus ``10·log10(d/d0)`` whose slope is the exponent ``n``,
    whose intercept is ``PL(d0)``, and whose residual standard deviation is
    the shadowing σ.

    Returns a dict with keys ``exponent``, ``reference_loss_db``,
    ``sigma_db`` and ``n_samples``.
    """
    d = np.asarray(distances_m, dtype=float)
    r = np.asarray(rssi_dbm, dtype=float)
    if d.shape != r.shape:
        raise ChannelError(
            f"distances and RSSI arrays must match, got {d.shape} vs {r.shape}"
        )
    if d.size < 3:
        raise ChannelError(f"need at least 3 samples to fit path loss, got {d.size}")
    if np.any(d <= 0):
        raise ChannelError("all distances must be positive")
    path_loss = tx_power_dbm - r
    x = 10.0 * np.log10(d / reference_distance_m)
    slope, intercept = np.polyfit(x, path_loss, 1)
    residuals = path_loss - (intercept + slope * x)
    return {
        "exponent": float(slope),
        "reference_loss_db": float(intercept),
        "sigma_db": float(np.std(residuals, ddof=2)) if d.size > 2 else 0.0,
        "n_samples": int(d.size),
    }
