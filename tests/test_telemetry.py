"""Estimator, ingest, and simulator tests for the telemetry pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError, TelemetryError
from repro.fleet import FleetState
from repro.telemetry import (
    DeviceFleetSimulator,
    SnrEstimator,
    TelemetryIngestor,
    TelemetrySnrSource,
    UPLINK_TEMPLATE_EXACT,
    UPLINK_TEMPLATE_V1,
    UplinkCodec,
)


def make_state(n_links: int, snr_db: float = 15.0) -> FleetState:
    return FleetState.from_base_snr(np.full(n_links, snr_db))


def encode(uplinks, template=UPLINK_TEMPLATE_V1):
    """Binary batch from (link, seq, snr) triples through the real codec."""
    codec = UplinkCodec(template)
    link = np.array([u[0] for u in uplinks], dtype=np.int64)
    seq = np.array([u[1] for u in uplinks], dtype=np.int64)
    snr = np.array([u[2] for u in uplinks], dtype=np.float64)
    if template is UPLINK_TEMPLATE_EXACT:
        columns = {
            "link_id": link, "seq": seq, "snr_db": snr,
            "plr": np.zeros(len(link)),
        }
    else:
        columns = {
            "link_id": link, "seq": seq, "rssi_dbm": -90.0 + snr,
            "noise_dbm": np.full(len(link), -90.0),
            "plr": np.zeros(len(link)),
        }
    return codec.encode_batch(columns)


class TestEstimator:
    def test_matches_scalar_ewma_reference(self):
        state = make_state(4, snr_db=10.0)
        estimator = SnrEstimator(alpha=0.3)
        rng = np.random.default_rng(0)
        expected = state.snr_db.copy()
        for step in range(5):
            n = int(rng.integers(1, 12))
            links = rng.integers(0, 4, size=n).astype(np.int64)
            values = rng.normal(12.0, 3.0, size=n)
            # Scalar reference: one EWMA fold per measurement, in order
            # within each link (stable argsort preserves arrival order).
            order = np.argsort(links, kind="stable")
            for index in order:
                link = int(links[index])
                expected[link] = (
                    0.7 * expected[link] + 0.3 * float(values[index])
                )
            estimator.apply(state, links, values, now_s=float(step))
            np.testing.assert_allclose(
                state.snr_db, expected, rtol=0.0, atol=1e-12
            )

    def test_alpha_one_is_exact_passthrough(self):
        state = make_state(3)
        estimator = SnrEstimator(alpha=1.0)
        values = np.array([7.123456789012345, -2.5, 31.000000000000004])
        estimator.apply(
            state, np.array([0, 1, 2]), values.copy(), now_s=0.0
        )
        np.testing.assert_array_equal(state.snr_db, values)

    def test_clamp_limits_innovation(self):
        state = make_state(1, snr_db=10.0)
        estimator = SnrEstimator(alpha=1.0, clamp_db=2.0)
        estimator.apply(state, np.array([0]), np.array([50.0]), now_s=0.0)
        assert state.snr_db[0] == 12.0
        estimator.apply(state, np.array([0]), np.array([-50.0]), now_s=1.0)
        assert state.snr_db[0] == 10.0

    def test_staleness_decay_is_idempotent_and_converges(self):
        state = make_state(2, snr_db=10.0)
        estimator = SnrEstimator(
            alpha=1.0, staleness_s=5.0, decay_tau_s=10.0
        )
        estimator.apply(state, np.array([0]), np.array([20.0]), now_s=0.0)
        assert estimator.decay_stale(state, now_s=3.0) == 0  # not stale yet
        n = estimator.decay_stale(state, now_s=15.0)
        assert n == 1
        decayed = state.snr_db[0]
        assert 10.0 < decayed < 20.0
        # Idempotent at the same instant; further decay approaches base.
        estimator.decay_stale(state, now_s=15.0)
        assert state.snr_db[0] == decayed
        estimator.decay_stale(state, now_s=500.0)
        assert state.snr_db[0] == pytest.approx(10.0, abs=1e-9)
        # The unmeasured link never moves.
        assert state.snr_db[1] == 10.0

    def test_size_mismatch_raises(self):
        estimator = SnrEstimator()
        estimator.apply(
            make_state(4), np.array([0]), np.array([1.0]), now_s=0.0
        )
        with pytest.raises(TelemetryError):
            estimator.apply(
                make_state(5), np.array([0]), np.array([1.0]), now_s=1.0
            )

    def test_invalid_parameters_raise(self):
        for kwargs in (
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"clamp_db": -1.0},
            {"staleness_s": -1.0},
            {"decay_tau_s": 0.0},
        ):
            with pytest.raises(TelemetryError):
                SnrEstimator(**kwargs)


class TestIngestSequenceTracking:
    def test_duplicate_out_of_order_and_gap_classification(self):
        ingestor = TelemetryIngestor(
            make_state(4), SnrEstimator(alpha=1.0)
        )
        # First contact: seq 0 and 1 for link 0, seq 5 for link 1 (no gap
        # counted on first contact), link 3 untouched.
        report = ingestor.ingest(encode([(0, 0, 11.0), (0, 1, 12.0),
                                         (1, 5, 13.0)]))
        assert report.n_accepted == 3
        assert report.n_gap_uplinks == 0
        assert report.n_links_updated == 2
        # Second batch: a duplicate (0,1), an out-of-order (0,0), a gap
        # jump (0,4 skips 2,3), and a normal follow-up (1,6).
        report = ingestor.ingest(encode([(0, 1, 99.0), (0, 0, 99.0),
                                         (0, 4, 14.0), (1, 6, 15.0)]))
        assert report.n_accepted == 2
        assert report.n_duplicate == 1
        assert report.n_out_of_order == 1
        assert report.n_gap_uplinks == 2
        state = ingestor.state
        assert state.snr_db[0] == 14.0  # rejected 99.0s never applied
        assert state.snr_db[1] == 15.0

    def test_within_batch_duplicates_and_ordering(self):
        ingestor = TelemetryIngestor(
            make_state(2), SnrEstimator(alpha=1.0)
        )
        report = ingestor.ingest(
            encode([(0, 0, 1.0), (0, 0, 2.0), (0, 1, 3.0), (0, 1, 4.0)])
        )
        assert report.n_accepted == 2
        assert report.n_duplicate == 2
        assert ingestor.state.snr_db[0] == 3.0

    def test_unknown_links_are_counted_not_applied(self):
        ingestor = TelemetryIngestor(make_state(2), SnrEstimator(alpha=1.0))
        report = ingestor.ingest(
            encode([(0, 0, 9.0), (7, 0, 9.0), (200, 0, 9.0)])
        )
        assert report.n_unknown_link == 2
        assert report.n_accepted == 1
        totals = ingestor.totals()
        assert totals["unknown_link"] == 2
        assert totals["uplinks"] == 3

    def test_totals_add_up(self):
        ingestor = TelemetryIngestor(make_state(4), SnrEstimator(alpha=1.0))
        ingestor.ingest(encode([(0, 0, 1.0), (1, 0, 1.0)]))
        ingestor.ingest(encode([(0, 0, 1.0), (0, 1, 1.0), (9, 0, 1.0)]))
        totals = ingestor.totals()
        assert totals["uplinks"] == (
            totals["accepted"] + totals["duplicate"]
            + totals["out_of_order"] + totals["unknown_link"]
        )
        assert totals["batches"] == 2

    def test_broken_counter_identity_raises(self):
        ingestor = TelemetryIngestor(make_state(4), SnrEstimator(alpha=1.0))
        ingestor.ingest(encode([(0, 0, 1.0), (1, 0, 1.0), (0, 0, 1.0)]))
        ingestor._totals["duplicate"] += 1
        for read in (ingestor.totals, ingestor.state_snapshot):
            with pytest.raises(TelemetryError) as exc_info:
                read()
            message = str(exc_info.value)
            for count in ("3 uplinks", "accepted=2", "duplicate=2",
                          "out_of_order=0", "unknown_link=0"):
                assert count in message

    def test_misclassified_batch_raises_before_it_is_applied(self, monkeypatch):
        from repro.telemetry import ingest as ingest_module

        track = ingest_module._track_sequences

        def miscount(*args):
            classified = list(track(*args))
            classified[3] += 1  # one out-of-order uplink too many
            return tuple(classified)

        ingestor = TelemetryIngestor(make_state(4), SnrEstimator(alpha=1.0))
        monkeypatch.setattr(ingest_module, "_track_sequences", miscount)
        before = ingestor.state.snr_db.copy()
        with pytest.raises(TelemetryError, match="out_of_order=1"):
            ingestor.ingest(encode([(0, 0, 1.0), (1, 0, 1.0)]))
        assert ingestor.totals()["uplinks"] == 0
        np.testing.assert_array_equal(ingestor.state.snr_db, before)

    def test_oversized_batch_raises(self):
        ingestor = TelemetryIngestor(
            make_state(2), SnrEstimator(), max_batch_uplinks=2
        )
        with pytest.raises(ProtocolError):
            ingestor.ingest(encode([(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)]))
        with pytest.raises(ProtocolError):
            ingestor.ingest_uplinks(
                [{"link_id": 0, "seq": s, "rssi_dbm": -80.0,
                  "noise_dbm": -90.0, "plr": 0.0} for s in range(3)],
                template_version=1,
            )

    def test_json_and_binary_batches_update_identically(self):
        binary_ingestor = TelemetryIngestor(
            make_state(3), SnrEstimator(alpha=0.4)
        )
        json_ingestor = TelemetryIngestor(
            make_state(3), SnrEstimator(alpha=0.4)
        )
        uplinks = [
            {"link_id": 0, "seq": 0, "rssi_dbm": -72.345,
             "noise_dbm": -90.125, "plr": 0.0123},
            {"link_id": 1, "seq": 0, "rssi_dbm": -81.017,
             "noise_dbm": -94.5, "plr": 0.3},
        ]
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        payload = b"".join(codec.encode(uplink) for uplink in uplinks)
        binary_ingestor.ingest(payload)
        json_ingestor.ingest_uplinks(uplinks, template_version=1)
        # The JSON path re-encodes through the wire codec, so both paths
        # quantize the fixed-point fields identically — bit-for-bit.
        np.testing.assert_array_equal(
            binary_ingestor.state.snr_db, json_ingestor.state.snr_db
        )

    def test_json_defects_raise_protocol_error_with_field(self):
        ingestor = TelemetryIngestor(make_state(2))
        with pytest.raises(ProtocolError) as exc_info:
            ingestor.ingest_uplinks(
                [{"link_id": 0}], template_version=1
            )
        assert exc_info.value.field == "seq"
        with pytest.raises(ProtocolError) as exc_info:
            ingestor.ingest_uplinks(
                [{"link_id": 0, "seq": 0, "rssi_dbm": -70.0,
                  "noise_dbm": -90.0, "plr": 0.0, "extra": 1}],
                template_version=1,
            )
        assert exc_info.value.field == "extra"
        with pytest.raises(ProtocolError) as exc_info:
            ingestor.ingest_uplinks([{"link_id": 0}], template_version=77)
        assert exc_info.value.field == "template_version"


class TestSimulator:
    def test_same_seed_same_bytes(self):
        def run():
            truth = make_state(8)
            sim = DeviceFleetSimulator(
                truth, mode="jittered", seed=42, noise_db=1.0,
                drop_prob=0.1, duplicate_prob=0.1,
            )
            return b"".join(sim.tick() for _ in range(10))

        assert run() == run()

    def test_periodic_mode_reports_every_link_in_sequence(self):
        truth = make_state(5)
        sim = DeviceFleetSimulator(truth, mode="periodic", seed=0)
        for tick in range(3):
            payload = sim.tick()
            columns = sim.codec.decode_batch(payload)
            np.testing.assert_array_equal(
                columns["link_id"], np.arange(5)
            )
            np.testing.assert_array_equal(
                columns["seq"], np.full(5, tick)
            )

    def test_bursty_mode_emits_consecutive_sequences(self):
        truth = make_state(16)
        sim = DeviceFleetSimulator(
            truth, mode="bursty", seed=3, burst_prob=0.5, burst_len=4
        )
        ingestor = TelemetryIngestor(truth.copy(), SnrEstimator(alpha=1.0))
        for _ in range(10):
            payload = sim.tick()
            if payload:
                report = ingestor.ingest(payload)
                # Bursts are consecutive: no gaps, no reordering.
                assert report.n_gap_uplinks == 0
                assert report.n_out_of_order == 0
                assert report.n_duplicate == 0

    def test_drop_prob_produces_receiver_gaps(self):
        truth = make_state(32)
        sim = DeviceFleetSimulator(
            truth, mode="periodic", seed=1, drop_prob=0.3
        )
        ingestor = TelemetryIngestor(truth.copy(), SnrEstimator(alpha=1.0))
        total_gaps = 0
        for _ in range(20):
            payload = sim.tick()
            if payload:
                total_gaps += ingestor.ingest(payload).n_gap_uplinks
        assert total_gaps > 0

    def test_duplicate_prob_produces_duplicates(self):
        truth = make_state(32)
        sim = DeviceFleetSimulator(
            truth, mode="periodic", seed=1, duplicate_prob=0.3
        )
        ingestor = TelemetryIngestor(truth.copy(), SnrEstimator(alpha=1.0))
        total_duplicates = 0
        for _ in range(5):
            total_duplicates += ingestor.ingest(sim.tick()).n_duplicate
        assert total_duplicates > 0

    def test_invalid_parameters_raise(self):
        truth = make_state(2)
        with pytest.raises(TelemetryError):
            DeviceFleetSimulator(truth, mode="warp")
        with pytest.raises(TelemetryError):
            DeviceFleetSimulator(truth, report_prob=1.5)
        with pytest.raises(TelemetryError):
            DeviceFleetSimulator(truth, burst_len=0)
        with pytest.raises(TelemetryError):
            DeviceFleetSimulator(truth, noise_db=-1.0)

    def test_snr_source_requires_the_ingestor_state(self):
        truth = make_state(4)
        serving = make_state(4)
        sim = DeviceFleetSimulator(truth, seed=0)
        source = TelemetrySnrSource(
            sim, TelemetryIngestor(serving, SnrEstimator())
        )
        with pytest.raises(TelemetryError):
            source.step(truth)  # not the ingestor's state
        snr = source.step(serving)
        assert snr is serving.snr_db
        assert source.last_report is not None


class TestIngestEpochUnwrap:
    def ingestor(self, n_links: int = 2) -> TelemetryIngestor:
        return TelemetryIngestor(make_state(n_links), SnrEstimator(alpha=1.0))

    def test_wrap_accept_counts_gap_and_epoch(self):
        ingestor = self.ingestor()
        ingestor.ingest(encode([(0, 65530, 10.0)]))
        # Wire seq wraps 65530 -> 5: a forward advance of 11 across the
        # epoch boundary, accepted with the 10 skipped seqs as a gap.
        report = ingestor.ingest(encode([(0, 5, 11.0)]))
        assert report.n_accepted == 1
        assert report.n_out_of_order == 0
        assert report.n_gap_uplinks == 10
        assert report.n_epoch_wraps == 1
        assert ingestor.state.snr_db[0] == 11.0
        assert ingestor.totals()["epoch_wraps"] == 1

    def test_duplicate_and_late_uplinks_across_the_wrap(self):
        ingestor = self.ingestor()
        ingestor.ingest(encode([(0, 65530, 10.0)]))
        ingestor.ingest(encode([(0, 5, 11.0)]))
        # The same post-wrap seq again: a duplicate, not a new epoch.
        report = ingestor.ingest(encode([(0, 5, 99.0)]))
        assert report.n_duplicate == 1
        assert report.n_epoch_wraps == 0
        # A pre-wrap straggler: serially behind the unwrapped high-water
        # mark, so it classifies out-of-order instead of starting an
        # epoch of its own.
        report = ingestor.ingest(encode([(0, 65530, 99.0)]))
        assert report.n_out_of_order == 1
        assert report.n_epoch_wraps == 0
        assert ingestor.state.snr_db[0] == 11.0
        assert ingestor.totals()["epoch_wraps"] == 1

    def test_wrap_and_first_contact_share_a_batch(self):
        ingestor = self.ingestor()
        ingestor.ingest(encode([(0, 65534, 10.0)]))
        # One batch: link 0 wraps (65534 -> 2, one seq skipped), link 1
        # is first contact (no gap counted on first contact).
        report = ingestor.ingest(encode([(0, 2, 12.0), (1, 7, 13.0)]))
        assert report.n_accepted == 2
        assert report.n_gap_uplinks == 3
        assert report.n_epoch_wraps == 1
        assert report.n_links_updated == 2
        assert ingestor.state.snr_db[0] == 12.0
        assert ingestor.state.snr_db[1] == 13.0

    def test_session_longer_than_the_seq_space_classifies_correctly(self):
        # > 65,536 uplinks on one link: wire seqs run 0..65535 and wrap
        # back; every uplink must classify as a fresh accept (no false
        # duplicates/out-of-order after the wrap).
        ingestor = self.ingestor(n_links=1)
        total = (1 << 16) + 64
        chunk = 8192
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            uplinks = [
                (0, seq & 0xFFFF, float(10 + (seq % 7)))
                for seq in range(start, stop)
            ]
            ingestor.ingest(encode(uplinks))
        totals = ingestor.totals()
        assert totals["accepted"] == total
        assert totals["duplicate"] == 0
        assert totals["out_of_order"] == 0
        assert totals["gap_uplinks"] == 0
        assert totals["epoch_wraps"] == 1
        assert ingestor.state.snr_db[0] == float(10 + ((total - 1) % 7))


# ---------------------------------------------------------------- parity

#: Fleet size of the parity cases; ids at and above it are unknown links.
PARITY_LINKS = 4
PARITY_START_DB = 15.0


def reference_ingest(batches, n_links, alpha, clamp_db):
    """Per-uplink Python reference of the ingestor: reports, maxima, SNRs.

    Each uplink's wire sequence is unwrapped as the signed 16-bit
    distance from its link's stored maximum at the start of the batch (a
    link never heard from uses the raw sequence, epoch 0). It is then
    accepted (above the highest sequence seen so far), a duplicate (equal
    to it) or out of order (below it). An accepted uplink is one EWMA
    step, its value clamped around the link's estimate at the start of
    the batch.
    """
    last = [-1] * n_links
    snr = [PARITY_START_DB] * n_links
    decay = 1.0 - alpha
    reports = []
    for batch in batches:
        anchor = list(last)
        centre = list(snr)
        report = dict.fromkeys(
            ("n_accepted", "n_duplicate", "n_out_of_order", "n_gap_uplinks",
             "n_unknown_link", "n_epoch_wraps"), 0,
        )
        updated = set()
        for link, wire_seq, value in batch:
            if not 0 <= link < n_links:
                report["n_unknown_link"] += 1
                continue
            seq = wire_seq
            if anchor[link] >= 0:
                distance = (wire_seq - anchor[link]) % (1 << 16)
                if distance >= 1 << 15:
                    distance -= 1 << 16
                seq = anchor[link] + distance
            if seq == last[link]:
                report["n_duplicate"] += 1
            elif seq < last[link]:
                report["n_out_of_order"] += 1
            else:
                report["n_accepted"] += 1
                if last[link] >= 0:  # a link's first contact is no gap
                    report["n_gap_uplinks"] += seq - last[link] - 1
                last[link] = seq
                updated.add(link)
                if clamp_db is not None:
                    value = min(max(value, centre[link] - clamp_db),
                                centre[link] + clamp_db)
                snr[link] = decay * snr[link] + alpha * value
        for link in updated:
            report["n_epoch_wraps"] += (last[link] >> 16) - max(
                anchor[link] >> 16, 0
            )
        report["n_uplinks"] = len(batch)
        report["n_links_updated"] = len(updated)
        reports.append(report)
    return reports, last, snr


def assert_ingest_matches_reference(batches, alpha, clamp_db):
    """Binary and JSON ingest both equal the reference, bit for bit."""
    want_reports, want_last, want_snr = reference_ingest(
        batches, PARITY_LINKS, alpha, clamp_db
    )
    for json_path in (False, True):
        ingestor = TelemetryIngestor(
            make_state(PARITY_LINKS, PARITY_START_DB),
            SnrEstimator(alpha=alpha, clamp_db=clamp_db),
        )
        for batch, want in zip(batches, want_reports):
            if json_path:
                report = ingestor.ingest_uplinks(
                    [{"link_id": link, "seq": seq, "snr_db": value,
                      "plr": 0.0} for link, seq, value in batch],
                    template_version=UPLINK_TEMPLATE_EXACT.version,
                )
            else:
                report = ingestor.ingest(
                    encode(batch, template=UPLINK_TEMPLATE_EXACT)
                )
            got = {key: getattr(report, key) for key in want}
            assert got == want, (json_path, batch)
        np.testing.assert_array_equal(ingestor._last_seq, want_last)
        np.testing.assert_array_equal(
            ingestor.state.snr_db.view(np.int64),
            np.asarray(want_snr).view(np.int64),
        )
        totals = ingestor.totals()
        assert totals["batches"] == len(batches)
        for key in ("uplinks", "accepted", "duplicate", "out_of_order",
                    "gap_uplinks", "unknown_link", "epoch_wraps"):
            assert totals[key] == sum(r["n_" + key] for r in want_reports)


#: Wire sequences crowd both ends of the 16-bit space, so first contacts
#: near 65535 and 65535 -> 0 rollovers are common.
_wire_seq = st.one_of(
    st.integers(0, 5), st.integers(65530, 65535), st.integers(0, 65535)
)
#: Link ids include unknown ones; SNRs are eighths of a dB from -20 to
#: 40 dB, so with alpha in {1, 1/4} and at most 21 accepted uplinks per
#: link every EWMA step is exact in float64 and any summation order of
#: the closed form gives the same bits as the per-uplink fold.
_uplink = st.tuples(
    st.sampled_from([0, 1, 2, 3, PARITY_LINKS, 200]),
    _wire_seq,
    st.integers(-160, 320).map(lambda eighths: eighths / 8),
)


@st.composite
def _batches(draw):
    """Up to 3 shuffled batches, each re-sending some earlier uplinks."""
    batches = []
    sent = []
    for _ in range(draw(st.integers(1, 3))):
        batch = draw(st.lists(_uplink, min_size=1, max_size=5))
        if sent:
            batch += draw(st.lists(st.sampled_from(sent), max_size=2))
        sent += batch
        batches.append(draw(st.permutations(batch)))
    return batches


class TestIngestParity:
    @settings(derandomize=True, max_examples=150, deadline=None,
              database=None)
    @given(
        batches=_batches(),
        alpha=st.sampled_from([1.0, 0.25]),
        clamp_db=st.sampled_from([None, 2.0]),
    )
    def test_matches_per_uplink_reference(self, batches, alpha, clamp_db):
        assert_ingest_matches_reference(batches, alpha, clamp_db)

    #: Every case the ingestor distinguishes, in arrival order: first
    #: contacts (links 0 and 2 near the top of the space), within-batch
    #: duplicates and late uplinks, a cross-batch duplicate, unknown ids,
    #: a lone 65535 -> 0 wrap (link 0), then a wrap (link 2) sharing a
    #: batch with a first contact (link 3).
    SCENARIO = [
        [(1, 9, 11.0), (0, 65534, 12.5), (1, 7, 30.0), (2, 65533, 13.0),
         (1, 9, 10.0), (2, 65535, -4.0), (1, 12, 16.0)],
        [(1, 12, 20.0), (0, 65535, 14.0), (200, 0, 1.0), (1, 10, 2.0),
         (0, 65535, 3.0), (2, 65534, 9.0), (PARITY_LINKS, 3, 9.0)],
        [(0, 1, 27.5), (1, 13, 12.0), (0, 0, 0.0)],
        [(3, 40, 17.0), (2, 2, 18.0), (0, 3, 5.0), (3, 41, -19.0)],
    ]

    @pytest.mark.parametrize("alpha", [1.0, 0.25])
    @pytest.mark.parametrize("clamp_db", [None, 2.0])
    def test_matches_reference_on_every_named_case(self, alpha, clamp_db):
        reports, _, _ = reference_ingest(
            self.SCENARIO, PARITY_LINKS, alpha, clamp_db
        )
        assert [r["n_epoch_wraps"] for r in reports] == [0, 0, 1, 1]
        assert all(r["n_duplicate"] for r in reports[:2])
        assert all(r["n_out_of_order"] for r in reports[:3])
        assert reports[1]["n_unknown_link"] == 2
        assert_ingest_matches_reference(self.SCENARIO, alpha, clamp_db)
