"""Codec wire-format tests: boundary round trips and defect rejection."""

import numpy as np
import pytest

from repro.errors import ProtocolError, TelemetryError
from repro.telemetry import (
    FIELD_KINDS,
    PayloadField,
    PayloadTemplate,
    TEMPLATE_REGISTRY,
    UPLINK_TEMPLATE_EXACT,
    UPLINK_TEMPLATE_V1,
    UplinkCodec,
    decode_uplink_batch,
    default_codecs,
)

INT_KINDS = [kind for kind, spec in FIELD_KINDS.items() if not spec.is_float]


def one_field_codec(kind: str, scale: float = 1.0) -> UplinkCodec:
    template = PayloadTemplate(
        name=f"test-{kind}",
        version=9,
        fields=(PayloadField(name="value", kind=kind, scale=scale),),
    )
    return UplinkCodec(template)


class TestScalarBoundaries:
    @pytest.mark.parametrize("kind", INT_KINDS)
    def test_integer_min_max_round_trip(self, kind):
        spec = FIELD_KINDS[kind]
        codec = one_field_codec(kind)
        for raw in (spec.raw_min, 0, spec.raw_max):
            frame = codec.encode({"value": raw})
            assert len(frame) == codec.frame_bytes
            assert codec.decode(frame) == {"value": raw}

    @pytest.mark.parametrize("kind", INT_KINDS)
    def test_out_of_range_raises(self, kind):
        spec = FIELD_KINDS[kind]
        codec = one_field_codec(kind)
        for raw in (spec.raw_min - 1, spec.raw_max + 1):
            with pytest.raises(TelemetryError):
                codec.encode({"value": raw})

    def test_negative_fixed_point_round_trip(self):
        codec = one_field_codec("i16", scale=0.01)
        for value in (-327.68, -95.22, -0.01, 0.0, 0.01, 327.67):
            decoded = codec.decode(codec.encode({"value": value}))["value"]
            assert decoded == pytest.approx(value, abs=1e-9)

    def test_fixed_point_out_of_range_raises(self):
        codec = one_field_codec("i16", scale=0.01)
        with pytest.raises(TelemetryError):
            codec.encode({"value": -327.69})
        with pytest.raises(TelemetryError):
            codec.encode({"value": 327.68})

    def test_float64_is_bit_exact(self):
        codec = one_field_codec("f64")
        for value in (0.1, -1e-300, 1e300, 7.123456789012345):
            assert codec.decode(codec.encode({"value": value})) == {
                "value": value
            }

    def test_unknown_and_missing_fields_raise(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        with pytest.raises(TelemetryError):
            codec.encode({"link_id": 1, "seq": 0, "bogus": 1.0})
        with pytest.raises(TelemetryError):
            codec.encode({"link_id": 1})


class TestFrameDefects:
    def test_truncated_frame_raises(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        frame = codec.encode(
            {"link_id": 1, "seq": 2, "rssi_dbm": -70.0,
             "noise_dbm": -90.0, "plr": 0.0}
        )
        with pytest.raises(ProtocolError):
            codec.decode(frame[:-1])
        with pytest.raises(ProtocolError):
            codec.decode_batch(frame[:-1])

    def test_corrupt_version_byte_raises(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        frame = codec.encode(
            {"link_id": 1, "seq": 2, "rssi_dbm": -70.0,
             "noise_dbm": -90.0, "plr": 0.0}
        )
        corrupt = bytes([UPLINK_TEMPLATE_V1.version + 1]) + frame[1:]
        with pytest.raises(ProtocolError):
            codec.decode(corrupt)
        # In a batch, the defect is located even mid-payload.
        with pytest.raises(ProtocolError, match="frame 1"):
            codec.decode_batch(frame + corrupt)

    def test_dispatch_rejects_empty_and_unknown_version(self):
        codecs = default_codecs()
        with pytest.raises(ProtocolError):
            decode_uplink_batch(b"", codecs)
        with pytest.raises(ProtocolError):
            decode_uplink_batch(b"\xff" + b"\x00" * 12, codecs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_batch_decode_rejects_non_finite_float(self, value):
        codec = UplinkCodec(UPLINK_TEMPLATE_EXACT)
        columns = {
            "link_id": np.arange(3, dtype=np.int64),
            "seq": np.zeros(3, dtype=np.int64),
            "snr_db": np.array([5.0, value, 7.0]),
            "plr": np.zeros(3),
        }
        payload = codec.encode_batch(columns)
        with pytest.raises(ProtocolError, match="frame 1") as exc_info:
            codec.decode_batch(payload)
        assert exc_info.value.field == "snr_db"
        assert "snr_db" in str(exc_info.value)

    def test_error_carries_field_attribute(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        with pytest.raises(ProtocolError) as exc_info:
            codec.decode_batch(b"\x01\x02")
        assert exc_info.value.field == "payload"


class TestBatch:
    def columns(self, n):
        rng = np.random.default_rng(7)
        return {
            "link_id": np.arange(n, dtype=np.int64) % 97,
            "seq": np.arange(n, dtype=np.int64) % (1 << 16),
            "rssi_dbm": np.round(rng.uniform(-95.0, -40.0, n), 2),
            "noise_dbm": np.round(rng.uniform(-100.0, -90.0, n), 2),
            "plr": np.round(rng.uniform(0.0, 0.9999, n), 4),
        }

    def test_batch_round_trip_identity(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(500)
        decoded = codec.decode_batch(codec.encode_batch(columns))
        for name, column in columns.items():
            np.testing.assert_allclose(
                decoded[name], column, rtol=0.0, atol=1e-9
            )

    def test_max_length_batch_round_trip(self):
        from repro.serve.protocol import MAX_TELEMETRY_UPLINKS

        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(MAX_TELEMETRY_UPLINKS)
        payload = codec.encode_batch(columns)
        assert len(payload) == MAX_TELEMETRY_UPLINKS * codec.frame_bytes
        decoded = codec.decode_batch(payload)
        np.testing.assert_array_equal(decoded["link_id"], columns["link_id"])
        np.testing.assert_allclose(
            decoded["rssi_dbm"], columns["rssi_dbm"], rtol=0.0, atol=1e-9
        )

    def test_batch_matches_scalar_frame_for_frame(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(64)
        payload = codec.encode_batch(columns)
        frame_bytes = codec.frame_bytes
        decoded = codec.decode_batch(payload)
        for row in range(64):
            frame = payload[row * frame_bytes : (row + 1) * frame_bytes]
            scalar = codec.decode(frame)
            for name, value in scalar.items():
                assert decoded[name][row] == pytest.approx(value, abs=0.0)

    def test_batch_out_of_range_raises(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(8)
        columns["rssi_dbm"] = columns["rssi_dbm"] + 1e6
        with pytest.raises(TelemetryError):
            codec.encode_batch(columns)

    def test_batch_non_finite_raises(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(8)
        columns["plr"] = columns["plr"].copy()
        columns["plr"][3] = np.nan
        with pytest.raises(TelemetryError):
            codec.encode_batch(columns)

    def test_misaligned_columns_raise(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_V1)
        columns = self.columns(8)
        columns["seq"] = columns["seq"][:4]
        with pytest.raises(TelemetryError):
            codec.encode_batch(columns)

    def test_u64_column_keeps_uint64(self):
        codec = one_field_codec("u64")
        top = np.array([0, 2**64 - 1], dtype=np.uint64)
        decoded = codec.decode_batch(codec.encode_batch({"value": top}))
        assert decoded["value"].dtype == np.uint64
        np.testing.assert_array_equal(decoded["value"], top)

    def test_exact_template_is_bit_exact(self):
        codec = UplinkCodec(UPLINK_TEMPLATE_EXACT)
        rng = np.random.default_rng(3)
        columns = {
            "link_id": np.arange(32, dtype=np.int64),
            "seq": np.arange(32, dtype=np.int64),
            "snr_db": rng.normal(15.0, 5.0, 32),
            "plr": rng.uniform(0.0, 1.0, 32),
        }
        decoded = codec.decode_batch(codec.encode_batch(columns))
        np.testing.assert_array_equal(decoded["snr_db"], columns["snr_db"])
        np.testing.assert_array_equal(decoded["plr"], columns["plr"])


class TestTemplateValidation:
    def test_registry_versions_match_templates(self):
        for version, template in TEMPLATE_REGISTRY.items():
            assert template.version == version

    def test_bad_field_configurations_raise(self):
        with pytest.raises(TelemetryError):
            PayloadField(name="_private", kind="u8")
        with pytest.raises(TelemetryError):
            PayloadField(name="x", kind="u128")
        with pytest.raises(TelemetryError):
            PayloadField(name="x", kind="u8", scale=0.0)
        with pytest.raises(TelemetryError):
            PayloadField(name="x", kind="f32", scale=0.5)

    def test_bad_template_configurations_raise(self):
        field = PayloadField(name="x", kind="u8")
        with pytest.raises(TelemetryError):
            PayloadTemplate(name="t", version=256, fields=(field,))
        with pytest.raises(TelemetryError):
            PayloadTemplate(name="t", version=1, fields=())
        with pytest.raises(TelemetryError):
            PayloadTemplate(name="t", version=1, fields=(field, field))
        with pytest.raises(TelemetryError):
            PayloadTemplate(
                name="t", version=1, fields=(field,), endianness="mixed"
            )

    def test_little_endian_round_trip(self):
        template = PayloadTemplate(
            name="le",
            version=5,
            fields=(PayloadField(name="value", kind="i32"),),
            endianness="little",
        )
        codec = UplinkCodec(template)
        assert codec.decode(codec.encode({"value": -123456})) == {
            "value": -123456
        }
        decoded = codec.decode_batch(
            codec.encode_batch({"value": np.array([-5, 5], dtype=np.int64)})
        )
        np.testing.assert_array_equal(decoded["value"], [-5, 5])
