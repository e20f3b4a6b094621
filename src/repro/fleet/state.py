"""Struct-of-arrays fleet state: one numpy column per per-link quantity.

A 10,000-link fleet is four columns, not 10,000 objects: the engine's
vectorized solve, the drift process, and the checkpoint serializer all
read and write these columns directly. ``base_snr_db`` is the static
long-run mean SNR of each link at the engine's reference power level
(PA level 31); ``snr_db`` is the current, drifting value the engine
solves against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import FleetError
from ..serve.protocol import link_base_snr_db
from .topology import FleetTopology

__all__ = [
    "FleetState",
    "link_base_snr_db",
]


@dataclass
class FleetState:
    """Per-link columns of a fleet at one instant (mutable, aligned).

    ``config_index`` holds each link's current configuration as an index
    into the engine's grid (−1 = not yet configured, or infeasible);
    ``objective_value`` is the minimization-form objective of that
    configuration at the link's current SNR (NaN when unconfigured).
    """

    base_snr_db: np.ndarray
    snr_db: np.ndarray
    noise_dbm: np.ndarray
    config_index: np.ndarray
    objective_value: np.ndarray

    def __post_init__(self) -> None:
        self.base_snr_db = np.asarray(self.base_snr_db, dtype=float)
        self.snr_db = np.asarray(self.snr_db, dtype=float)
        self.noise_dbm = np.asarray(self.noise_dbm, dtype=float)
        self.config_index = np.asarray(self.config_index, dtype=np.int64)
        self.objective_value = np.asarray(self.objective_value, dtype=float)
        lengths = {
            self.base_snr_db.shape,
            self.snr_db.shape,
            self.noise_dbm.shape,
            self.config_index.shape,
            self.objective_value.shape,
        }
        if len(lengths) != 1 or self.base_snr_db.ndim != 1:
            raise FleetError(
                "fleet state columns must be aligned 1-D arrays, got shapes "
                f"{sorted(str(shape) for shape in lengths)}"
            )
        if len(self.base_snr_db) == 0:
            raise FleetError("a fleet state needs at least one link")

    def __len__(self) -> int:
        return len(self.base_snr_db)

    @classmethod
    def from_topology(cls, topology: FleetTopology) -> "FleetState":
        """Initial state: mean SNR per link, nothing configured yet."""
        base = np.array(
            [
                link_base_snr_db(link, environment)
                for link, environment in zip(
                    topology.links, topology.environments
                )
            ],
            dtype=float,
        )
        noise = np.array(
            [
                environment.noise.mean_dbm
                for environment in topology.environments
            ],
            dtype=float,
        )
        n_links = len(topology)
        return cls(
            base_snr_db=base,
            snr_db=base.copy(),
            noise_dbm=noise,
            config_index=np.full(n_links, -1, dtype=np.int64),
            objective_value=np.full(n_links, np.nan, dtype=float),
        )

    @classmethod
    def from_base_snr(
        cls,
        base_snr_db: np.ndarray,
        noise_dbm: float = -90.0,
    ) -> "FleetState":
        """Initial state straight from per-link base SNRs (no topology).

        The telemetry path often starts from measured or configured SNRs
        rather than a geometric layout; this builds the same
        nothing-configured-yet state :meth:`from_topology` does, with a
        uniform noise floor.
        """
        base = np.asarray(base_snr_db, dtype=float)
        n_links = len(base)
        return cls(
            base_snr_db=base,
            snr_db=base.copy(),
            noise_dbm=np.full(n_links, float(noise_dbm)),
            config_index=np.full(n_links, -1, dtype=np.int64),
            objective_value=np.full(n_links, np.nan, dtype=float),
        )

    def copy(self) -> "FleetState":
        """An independent deep copy (columns are not shared)."""
        return FleetState(
            base_snr_db=self.base_snr_db.copy(),
            snr_db=self.snr_db.copy(),
            noise_dbm=self.noise_dbm.copy(),
            config_index=self.config_index.copy(),
            objective_value=self.objective_value.copy(),
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready column snapshot (the checkpoint row payload)."""
        return {
            "snr_db": self.snr_db.tolist(),
            "config_index": self.config_index.tolist(),
            "objective_value": self.objective_value.tolist(),
        }
