"""Uplink ingestion: decode, per-source sequence tracking, state update.

The :class:`TelemetryIngestor` is the receiver side of the telemetry
loop: a binary (or JSON) uplink batch goes through one vectorized decode,
one vectorized per-link sequence-tracking pass, and one vectorized
estimator apply — then ``FleetState.snr_db`` reflects what the devices
measured. The serve tier submits batches through the oracle service's
bounded queue, so backpressure (reject + ``Retry-After``) is inherited
from the same admission discipline every other request type uses.

Sequence tracking is per source link on the uplink's ``seq`` counter:

* ``seq`` above the link's running maximum → **accepted** (and any
  skipped numbers are counted as a **gap**, except on a link's very
  first contact);
* ``seq`` equal to the running maximum → **duplicate** (retransmission);
* ``seq`` below it → **out-of-order** (late arrival; dropped, because
  the estimate has already folded in newer measurements).

The whole classification — including *within-batch* ordering, where one
batch may carry many uplinks per link — is computed without a Python
loop: measurements are stably sorted by link, each link segment is
seeded with the stored running maximum, and a single combined-key
``np.maximum.accumulate`` yields every measurement's "highest sequence
seen before me". Only the accepted, strictly seq-increasing subsequence
reaches the estimator.

``seq`` is a 16-bit wire counter, and the ingestor **unwraps** it with a
per-link epoch counter (RFC 1982-style serial arithmetic): each uplink's
sequence is interpreted as the signed 16-bit distance from the link's
stored unwrapped maximum, so a counter that overflows 65535 → 0 keeps
classifying correctly and sessions longer than 65,536 uplinks per link
just keep going — ``epoch_wraps`` in the totals counts the rollovers.
The remaining limitation is the serial-arithmetic one: a link may
advance at most 32,767 sequence numbers past its stored maximum within
one batch; a larger jump is indistinguishable from a late arrival and
classifies as out-of-order (see ``docs/TELEMETRY.md``).
"""

# reprolint: hot-path — per-batch ingest apply timed by BENCH_telemetry.json

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ProtocolError, TelemetryError
from ..fleet.state import FleetState
from ..serve.protocol import MAX_TELEMETRY_UPLINKS
from .codec import UplinkCodec, decode_uplink_batch, default_codecs
from .estimator import SnrEstimator

__all__ = [
    "IngestReport",
    "TelemetryIngestor",
]

#: Width of the wire sequence counter (and the derived wrap constants).
_SEQ_BITS = 16
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_SEQ_HALF = 1 << (_SEQ_BITS - 1)

#: Combined-key stride of the sequence tracker: ``link * stride + v``
#: must order (link, v) pairs lexicographically, so the stride exceeds
#: the largest per-batch key ``v`` (an unwrap distance shifted by
#: ``_SEQ_HALF``, at most ``_SEQ_MASK + _SEQ_HALF < 2**17``).
_LINK_STRIDE = np.int64(1) << 17

#: Counter names accumulated across batches (the ``telemetry_*`` metric
#: suffixes the serve tier publishes).
_TOTAL_KEYS = (
    "batches",
    "uplinks",
    "accepted",
    "duplicate",
    "out_of_order",
    "gap_uplinks",
    "unknown_link",
    "epoch_wraps",
)


@dataclass(frozen=True)
class IngestReport:
    """What one ingested batch did: per-class counts and stage timings."""

    n_uplinks: int
    n_accepted: int
    n_duplicate: int
    n_out_of_order: int
    n_gap_uplinks: int
    n_unknown_link: int
    n_links_updated: int
    template_version: int
    decode_ms: float
    apply_ms: float
    n_epoch_wraps: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the ``POST /v1/telemetry`` response body)."""
        return {
            "n_uplinks": self.n_uplinks,
            "n_accepted": self.n_accepted,
            "n_duplicate": self.n_duplicate,
            "n_out_of_order": self.n_out_of_order,
            "n_gap_uplinks": self.n_gap_uplinks,
            "n_unknown_link": self.n_unknown_link,
            "n_links_updated": self.n_links_updated,
            "n_epoch_wraps": self.n_epoch_wraps,
            "template_version": self.template_version,
            "decode_ms": self.decode_ms,
            "apply_ms": self.apply_ms,
        }


class TelemetryIngestor:
    """Turns uplink batches into fleet-state updates, with bookkeeping.

    One lock guards the sequence table, the cumulative totals, and the
    bound state/estimator pair — a batch's classify → estimate → record
    pipeline is atomic with respect to concurrent batches and snapshot
    reads. Decoding happens outside the lock (it touches only the
    immutable payload).
    """

    def __init__(
        self,
        state: FleetState,
        estimator: Optional[SnrEstimator] = None,
        codecs: Optional[Mapping[int, UplinkCodec]] = None,
        max_batch_uplinks: int = MAX_TELEMETRY_UPLINKS,
    ) -> None:
        if max_batch_uplinks < 1:
            raise TelemetryError(
                f"max_batch_uplinks must be >= 1, got {max_batch_uplinks!r}"
            )
        self._state = state
        self._estimator = estimator if estimator is not None else SnrEstimator()
        self._codecs = dict(codecs) if codecs is not None else default_codecs()
        self._max_batch_uplinks = int(max_batch_uplinks)
        #: Per-link running maximum of the *unwrapped* sequence number
        #: (epoch * 2**16 + wire seq); −1 marks a link never heard from.
        self._last_seq = np.full(len(state), -1, dtype=np.int64)
        self._totals: Dict[str, int] = {key: 0 for key in _TOTAL_KEYS}
        self._now_s = 0.0
        self._lock = threading.Lock()

    @property
    def state(self) -> FleetState:
        """The fleet state this ingestor feeds."""
        return self._state

    @property
    def estimator(self) -> SnrEstimator:
        """The estimator folding measurements into the state."""
        return self._estimator

    # ------------------------------------------------------------- ingest

    def ingest(
        self, payload: bytes, now_s: Optional[float] = None
    ) -> IngestReport:
        """Decode and apply one binary uplink batch.

        ``now_s`` is the receive timestamp driving staleness bookkeeping
        (the serve tier passes ``time.monotonic()``); omitted, an
        internal counter advances one second per batch so offline replays
        stay deterministic.
        """
        started = time.perf_counter()
        version, columns = decode_uplink_batch(payload, self._codecs)
        decode_ms = (time.perf_counter() - started) * 1e3
        n_uplinks = len(next(iter(columns.values())))
        if n_uplinks > self._max_batch_uplinks:
            raise ProtocolError(
                f"a telemetry batch carries at most "
                f"{self._max_batch_uplinks} uplinks, got {n_uplinks}",
                field="payload",
            )
        link, seq, snr_db = self._measurement_columns(columns, version)
        del columns  # the decoded fields die before the apply's temporaries
        return self._apply(link, seq, snr_db, version, now_s, decode_ms)

    def ingest_uplinks(
        self,
        uplinks: Sequence[Mapping[str, object]],
        template_version: int,
        now_s: Optional[float] = None,
    ) -> IngestReport:
        """Apply one JSON uplink batch (field mappings + template version).

        The uplinks are packed through the wire codec and decoded back
        before applying, so a JSON batch and its binary equivalent
        quantize identically — fixed-point fields lose exactly the same
        precision either way.
        """
        codec = self._codecs.get(template_version)
        if codec is None:
            raise ProtocolError(
                f"unknown telemetry template version {template_version}; "
                f"known: {sorted(self._codecs)}",
                field="template_version",
            )
        if len(uplinks) > self._max_batch_uplinks:
            raise ProtocolError(
                f"a telemetry batch carries at most "
                f"{self._max_batch_uplinks} uplinks, got {len(uplinks)}",
                field="uplinks",
            )
        names = codec.template.field_names
        started = time.perf_counter()
        try:
            columns = {
                name: np.asarray([uplink[name] for uplink in uplinks])
                for name in names
            }
        except KeyError as exc:
            raise ProtocolError(
                f"an uplink is missing field {exc.args[0]!r} of template "
                f"{codec.template.name!r}",
                field=str(exc.args[0]),
            ) from exc
        for uplink in uplinks:
            unknown = set(uplink) - set(names)
            if unknown:
                raise ProtocolError(
                    f"unknown uplink field(s) for template "
                    f"{codec.template.name!r}: {sorted(unknown)}",
                    field=sorted(unknown)[0],
                )
        try:
            payload = codec.encode_batch(columns)
        except TelemetryError as exc:
            raise ProtocolError(str(exc), field="uplinks") from exc
        columns = codec.decode_batch(payload)
        decode_ms = (time.perf_counter() - started) * 1e3
        link, seq, snr_db = self._measurement_columns(
            columns, template_version
        )
        return self._apply(
            link, seq, snr_db, template_version, now_s, decode_ms
        )

    # ---------------------------------------------------------- internals

    def _measurement_columns(
        self, columns: Mapping[str, np.ndarray], version: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract (link, seq, snr) measurement arrays from decoded columns."""
        link = columns.get("link_id")
        seq = columns.get("seq")
        if link is None or seq is None:
            raise TelemetryError(
                f"template version {version} carries no link_id/seq fields; "
                "the ingestor cannot track its sources"
            )
        if "snr_db" in columns:
            snr_db = columns["snr_db"]
        elif "rssi_dbm" in columns and "noise_dbm" in columns:
            snr_db = columns["rssi_dbm"] - columns["noise_dbm"]
        else:
            raise TelemetryError(
                f"template version {version} carries neither snr_db nor "
                "rssi_dbm+noise_dbm; no SNR measurement can be derived"
            )
        return (
            np.asarray(link, dtype=np.int64),
            np.asarray(seq, dtype=np.int64),
            np.asarray(snr_db, dtype=np.float64),
        )

    def _apply(
        self,
        link: np.ndarray,
        seq: np.ndarray,
        snr_db: np.ndarray,
        version: int,
        now_s: Optional[float],
        decode_ms: float,
    ) -> IngestReport:
        started = time.perf_counter()
        with self._lock:
            if now_s is None:
                self._now_s += 1.0
            else:
                self._now_s = float(now_s)
            tick_s = self._now_s
            n_uplinks = len(link)
            known = (link >= 0) & (link < len(self._state))
            n_unknown = int(n_uplinks - int(known.sum()))
            if n_unknown:
                link = link[known]
                seq = seq[known]
                snr_db = snr_db[known]
            n_accepted = n_duplicate = n_out_of_order = 0
            n_gap = n_updated = n_epoch_wraps = 0
            if len(link):
                order = np.argsort(link, kind="stable")
                links = link[order]
                (
                    accepted,
                    accepted_links,
                    n_duplicate,
                    n_out_of_order,
                    n_gap,
                    n_epoch_wraps,
                ) = _track_sequences(links, seq[order], self._last_seq)
                n_accepted = len(accepted)
                # A misclassified batch raises before the estimator runs.
                _check_counter_identity(
                    n_uplinks,
                    n_accepted,
                    n_duplicate,
                    n_out_of_order,
                    n_unknown,
                )
                if n_accepted:
                    n_updated = self._estimator.apply(
                        self._state,
                        accepted_links,
                        snr_db[order[accepted]],
                        now_s=tick_s,
                    )
            self._estimator.decay_stale(self._state, tick_s)
            totals = self._totals
            totals["batches"] += 1
            totals["uplinks"] += n_uplinks
            totals["accepted"] += n_accepted
            totals["duplicate"] += n_duplicate
            totals["out_of_order"] += n_out_of_order
            totals["gap_uplinks"] += n_gap
            totals["unknown_link"] += n_unknown
            totals["epoch_wraps"] += n_epoch_wraps
        apply_ms = (time.perf_counter() - started) * 1e3
        return IngestReport(
            n_uplinks=n_uplinks,
            n_accepted=n_accepted,
            n_duplicate=n_duplicate,
            n_out_of_order=n_out_of_order,
            n_gap_uplinks=n_gap,
            n_unknown_link=n_unknown,
            n_links_updated=n_updated,
            template_version=version,
            decode_ms=decode_ms,
            apply_ms=apply_ms,
            n_epoch_wraps=n_epoch_wraps,
        )

    # ----------------------------------------------------------- observers

    def totals(self) -> Dict[str, int]:
        """Cumulative per-class uplink counts across all batches.

        Raises :class:`TelemetryError` if the counts no longer satisfy
        ``uplinks == accepted + duplicate + out_of_order + unknown_link``.
        """
        with self._lock:
            return self._checked_totals()

    def _checked_totals(self) -> Dict[str, int]:
        totals = self._totals
        _check_counter_identity(
            totals["uplinks"],
            totals["accepted"],
            totals["duplicate"],
            totals["out_of_order"],
            totals["unknown_link"],
        )
        return dict(totals)

    def state_snapshot(self) -> Dict[str, object]:
        """JSON-ready fleet-measurement summary (``GET /v1/telemetry/state``).

        Reports aggregate SNR statistics rather than per-link columns —
        a 10,000-link fleet stays a small constant-size response.
        """
        with self._lock:
            snr_db = self._state.snr_db
            base_db = self._state.base_snr_db
            measured = self._estimator.measured_mask()
            if measured is None or not measured.any():
                innovation_db = 0.0
            else:
                innovation_db = float(
                    np.abs(snr_db[measured] - base_db[measured]).mean()
                )
            return {
                "n_links": len(self._state),
                "n_links_measured": self._estimator.n_links_measured,
                "snr_mean_db": float(snr_db.mean()),
                "snr_min_db": float(snr_db.min()),
                "snr_max_db": float(snr_db.max()),
                "base_snr_mean_db": float(base_db.mean()),
                "mean_abs_innovation_db": innovation_db,
                "estimator": self._estimator.snapshot(),
                "totals": self._checked_totals(),
            }


def _check_counter_identity(
    uplinks: int,
    accepted: int,
    duplicate: int,
    out_of_order: int,
    unknown_link: int,
) -> None:
    """Raise unless every uplink was classified exactly once."""
    classified = accepted + duplicate + out_of_order + unknown_link
    if uplinks != classified:
        raise TelemetryError(
            f"telemetry counters broke uplinks == accepted + duplicate + "
            f"out_of_order + unknown_link: {uplinks} uplinks, but "
            f"accepted={accepted}, duplicate={duplicate}, "
            f"out_of_order={out_of_order}, unknown_link={unknown_link} "
            f"sum to {classified}"
        )


def _track_sequences(
    links: np.ndarray, seqs: np.ndarray, last_seq: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int, int, int, int]:
    """Classify one link-sorted batch and advance ``last_seq`` in place.

    ``links`` is stably sorted (each link's uplinks keep their arrival
    order) and ``seqs`` holds the aligned wire sequences. Returns the
    positions of the accepted uplinks, their links, and the duplicate,
    out-of-order, gap and epoch-wrap counts. Each class is counted on
    its own, so the caller's counter check tests the classification. The temporaries die on return, before
    the estimator runs.
    """
    leader = np.empty(len(links), dtype=bool)
    leader[0] = True
    np.not_equal(links[1:], links[:-1], out=leader[1:])
    anchors = last_seq[links]
    unanchored = anchors < 0
    # Unwrap each wire sequence against its link's stored unwrapped
    # maximum (serial arithmetic): the key is the signed 16-bit distance
    # from that anchor plus half, so a 65535 -> 0 rollover reads as +1,
    # not -65535. A link never heard from has no anchor and keys its raw
    # sequence plus half (epoch 0). Keys stay below the link stride.
    key = anchors & _SEQ_MASK
    np.subtract(seqs, key, out=key)
    key += _SEQ_HALF
    key &= _SEQ_MASK
    np.add(seqs, _SEQ_HALF, out=key, where=unanchored)
    seed = links * _LINK_STRIDE
    combined = seed + key
    # The highest key seen before each uplink: the previous key, or at a
    # link's first uplink its seed, which is the anchor's key (distance
    # 0, so a repeat is a duplicate) or one below every first-contact
    # key. A seed exceeds every key of smaller links, so one running
    # maximum over the batch restarts at each link by construction.
    seed += _SEQ_HALF
    seed -= unanchored
    advance = np.empty_like(combined)
    advance[1:] = combined[:-1]
    np.copyto(advance, seed, where=leader)
    del seed
    np.maximum.accumulate(advance, out=advance)
    np.subtract(combined, advance, out=advance)
    del combined
    accepted = np.flatnonzero(advance > 0)
    n_duplicate = int(np.count_nonzero(advance == 0))
    n_out_of_order = int(np.count_nonzero(advance < 0))
    # Key differences within a link equal unwrapped-sequence differences,
    # so an accepted uplink skipped advance - 1 sequences (wraps
    # included). A first contact skipped none: its advance over the seed
    # is its raw sequence + 1.
    np.maximum(advance, 0, out=advance)
    n_gap = (
        int(advance.sum())
        - len(accepted)
        - int(seqs[leader & unanchored].sum())
    )
    accepted_links = links[accepted]
    n_epoch_wraps = 0
    if len(accepted):
        # A link's accepted uplinks advance strictly, so the last one of
        # each run of equal accepted links carries that link's new
        # maximum.
        run_end = np.empty(len(accepted), dtype=bool)
        run_end[-1] = True
        np.not_equal(accepted_links[1:], accepted_links[:-1], out=run_end[:-1])
        ends = accepted[run_end]
        epoch_base = np.maximum(anchors[ends], 0)
        highest = epoch_base + key[ends] - _SEQ_HALF
        n_epoch_wraps = int(
            (highest >> _SEQ_BITS).sum() - (epoch_base >> _SEQ_BITS).sum()
        )
        last_seq[links[ends]] = highest
    return (
        accepted,
        accepted_links,
        n_duplicate,
        n_out_of_order,
        n_gap,
        n_epoch_wraps,
    )
