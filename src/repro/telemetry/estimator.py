"""Measurement-driven SNR estimation: vectorized EWMA over fleet columns.

The fleet engine solves against ``FleetState.snr_db``; until now that
column was written only by the synthetic :class:`~repro.fleet.drift.
FleetDrift`. :class:`SnrEstimator` replaces it with *measured* state: a
batch of decoded uplinks updates every reported link's estimate in one
vectorized pass, however many measurements each link contributed.

Per link, the estimate follows the standard exponentially-weighted moving
average ``e ← (1−α)·e + α·x`` applied once per measurement *in sequence
order*. A batch that carries k measurements for one link therefore lands
on the closed form

    e' = (1−α)^k · e + Σ_j α (1−α)^(k−1−j) · x_j

which this module evaluates for all links at once with a segmented
``np.add.reduceat`` — no Python loop over links or measurements.

Two robustness features, both off by default and both *disabled* in the
pinned bit-for-bit configuration (``α = 1``, no clamp, no staleness):

* **outlier clamping** — each measurement's innovation is clamped to
  ``±clamp_db`` around the link's pre-batch estimate, so one corrupt
  reading cannot teleport a link;
* **staleness decay** — a link that has not reported for longer than
  ``staleness_s`` relaxes exponentially (time constant ``decay_tau_s``)
  from its last measured estimate toward its long-run ``base_snr_db``.
  The decayed value is recomputed from the stored at-update estimate as
  a pure function of age, so repeated ``decay_stale`` calls never
  compound.

With ``alpha=1.0`` the closed form degenerates to pass-through of each
link's last measurement (``0**0 == 1`` keeps the single-measurement
weight exact), which is what makes a noiseless uplink stream reproduce
the drift trajectory bit-for-bit — the invariant pinned by
``tests/test_telemetry_e2e.py``.
"""

# reprolint: hot-path — vectorized estimator apply timed by BENCH_telemetry.json

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import TelemetryError
from ..fleet.state import FleetState

__all__ = [
    "SnrEstimator",
]


class SnrEstimator:
    """EWMA SNR estimator writing ``FleetState.snr_db`` in place.

    The estimator lazily binds to the first state it is applied to (its
    per-link bookkeeping columns are sized then) and refuses a state of a
    different size afterwards — mixing fleets would silently misattribute
    measurements.
    """

    def __init__(
        self,
        alpha: float = 0.25,
        clamp_db: Optional[float] = None,
        staleness_s: Optional[float] = None,
        decay_tau_s: float = 60.0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise TelemetryError(
                f"alpha must be in (0, 1], got {alpha!r}"
            )
        if clamp_db is not None and not clamp_db > 0:
            raise TelemetryError(
                f"clamp_db must be positive (or None), got {clamp_db!r}"
            )
        if staleness_s is not None and not staleness_s >= 0:
            raise TelemetryError(
                f"staleness_s must be >= 0 (or None), got {staleness_s!r}"
            )
        if not decay_tau_s > 0:
            raise TelemetryError(
                f"decay_tau_s must be positive, got {decay_tau_s!r}"
            )
        self.alpha = float(alpha)
        self.clamp_db = None if clamp_db is None else float(clamp_db)
        self.staleness_s = None if staleness_s is None else float(staleness_s)
        self.decay_tau_s = float(decay_tau_s)
        self._updated_at_s: Optional[np.ndarray] = None
        self._snr_at_update: Optional[np.ndarray] = None

    # ----------------------------------------------------------- binding

    def _bind(self, state: FleetState) -> None:
        if self._updated_at_s is None:
            self._updated_at_s = np.full(len(state), -np.inf)
            self._snr_at_update = state.snr_db.copy()
        elif len(self._updated_at_s) != len(state):
            raise TelemetryError(
                f"estimator is bound to a {len(self._updated_at_s)}-link "
                f"fleet but was applied to {len(state)} links"
            )

    @property
    def n_links_measured(self) -> int:
        """Links that have received at least one measurement."""
        if self._updated_at_s is None:
            return 0
        return int(np.isfinite(self._updated_at_s).sum())

    def measured_mask(self) -> Optional[np.ndarray]:
        """Boolean per-link mask of measured links (None before binding)."""
        if self._updated_at_s is None:
            return None
        return np.isfinite(self._updated_at_s)

    # ------------------------------------------------------------- apply

    def apply(
        self,
        state: FleetState,
        link_index: np.ndarray,
        snr_db: np.ndarray,
        now_s: float,
    ) -> int:
        """Fold one batch of measurements into ``state.snr_db``.

        ``link_index``/``snr_db`` are aligned measurement arrays, already
        validated against the fleet size, in per-link sequence order
        (the ingestor's accepted subsequence guarantees this). Returns
        the number of distinct links updated.
        """
        self._bind(state)
        link_index = np.asarray(link_index, dtype=np.int64)
        snr_db = np.asarray(snr_db, dtype=np.float64)
        if link_index.shape != snr_db.shape or link_index.ndim != 1:
            raise TelemetryError(
                "link_index and snr_db must be aligned 1-D arrays, got "
                f"shapes {link_index.shape} and {snr_db.shape}"
            )
        if link_index.size == 0:
            return 0
        order = np.argsort(link_index, kind="stable")
        links = link_index[order]
        values = snr_db[order]
        del order
        new_segment = np.empty(len(links), dtype=bool)
        new_segment[0] = True
        np.not_equal(links[1:], links[:-1], out=new_segment[1:])
        starts = np.flatnonzero(new_segment)
        counts = np.diff(starts, append=len(links))
        leaders = links[starts]
        estimate = state.snr_db[leaders]
        if self.clamp_db is not None:
            center = np.repeat(estimate, counts)
            np.clip(
                values,
                center - self.clamp_db,
                center + self.clamp_db,
                out=values,
            )
            del center
        alpha = self.alpha
        decay = 1.0 - alpha
        # Powers of the decay, one per batch up to the longest run: the
        # same pow on the same inputs as a per-measurement power, so the
        # gathered weights are bit-identical (and 0**0 == 1 at alpha 1).
        powers = np.power(decay, np.arange(counts.max() + 1))
        # Measurements still to come in the same link after each one.
        remaining = np.repeat(starts + counts - 1, counts)
        remaining -= np.arange(len(links))
        weights = (alpha * powers[:-1])[remaining]
        del remaining
        weights *= values
        contribution = np.add.reduceat(weights, starts)
        del weights
        updated = powers[counts]
        updated *= estimate
        updated += contribution
        state.snr_db[leaders] = updated
        self._updated_at_s[leaders] = now_s
        self._snr_at_update[leaders] = updated
        return int(len(leaders))

    # ----------------------------------------------------------- staleness

    def decay_stale(self, state: FleetState, now_s: float) -> int:
        """Relax links silent for longer than ``staleness_s`` toward base.

        The decayed estimate is ``base + (snr_at_update − base) ·
        exp(−(age − staleness_s) / decay_tau_s)`` — a pure function of
        the stored at-update estimate and the link's age, so calling this
        repeatedly at the same ``now_s`` is idempotent. No-op (returns 0)
        when staleness handling is disabled or nothing is stale.
        """
        if self.staleness_s is None or self._updated_at_s is None:
            return 0
        age_s = now_s - self._updated_at_s
        stale = np.isfinite(self._updated_at_s) & (age_s > self.staleness_s)
        if not stale.any():
            return 0
        factor = np.exp(
            -(age_s[stale] - self.staleness_s) / self.decay_tau_s
        )
        base = state.base_snr_db[stale]
        state.snr_db[stale] = base + (
            self._snr_at_update[stale] - base
        ) * factor
        return int(stale.sum())

    # ------------------------------------------------------------- misc

    def reset(self) -> None:
        """Forget all bindings and per-link bookkeeping."""
        self._updated_at_s = None
        self._snr_at_update = None

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of the estimator's configuration and coverage."""
        return {
            "alpha": self.alpha,
            "clamp_db": self.clamp_db,
            "staleness_s": self.staleness_s,
            "decay_tau_s": self.decay_tau_s,
            "n_links_measured": self.n_links_measured,
        }
