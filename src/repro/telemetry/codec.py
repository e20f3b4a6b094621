"""Compiled uplink codecs: scalar ``struct`` and vectorized numpy paths.

An :class:`UplinkCodec` compiles one :class:`~repro.telemetry.template.
PayloadTemplate` into two equivalent implementations of the same wire
format:

* a **scalar** path (``encode`` / ``decode``) built on one precompiled
  :class:`struct.Struct` — what a device firmware or a debugging tool
  does, one frame at a time;
* a **batch** path (``encode_batch`` / ``decode_batch``) that views an
  entire payload of N concatenated frames as a numpy structured array in
  one ``np.frombuffer`` pass and converts each field column with one
  vectorized cast — the ingest tier's hot path, benchmarked (and held to
  a ≥ 20x speedup over a per-frame ``struct.unpack`` loop) by
  ``benchmarks/bench_telemetry.py``.

Both paths apply strict bounds checking: encoding a value whose raw
fixed-point representation leaves the field's integer domain raises
:class:`~repro.errors.TelemetryError`, and decoding a payload that is
truncated, misaligned, stamped with the wrong version byte, or carrying
a NaN/infinite float raises :class:`~repro.errors.ProtocolError` instead
of mis-decoding.

Decoded column dtypes: unscaled integer fields come back as ``int64``
(``u64`` as ``uint64``, which int64 cannot hold), scaled integers and
floats as ``float64``.
"""

# reprolint: hot-path — batch uplink decode timed by BENCH_telemetry.json

from __future__ import annotations

import struct
from typing import Dict, Mapping, Tuple

import numpy as np

from ..errors import ProtocolError, TelemetryError
from .template import FIELD_KINDS, PayloadTemplate, TEMPLATE_REGISTRY

__all__ = [
    "UplinkCodec",
    "decode_uplink_batch",
    "default_codecs",
]


class UplinkCodec:
    """Encode/decode frames of one template, scalar or batched."""

    def __init__(self, template: PayloadTemplate) -> None:
        self._template = template
        self._struct = struct.Struct(template.struct_format)
        self._dtype = template.numpy_dtype()
        self._fields = tuple(
            (field.name, FIELD_KINDS[field.kind], float(field.scale))
            for field in template.fields
        )

    @property
    def template(self) -> PayloadTemplate:
        """The template this codec was compiled from."""
        return self._template

    @property
    def frame_bytes(self) -> int:
        """Size of one encoded frame."""
        return self._template.frame_bytes

    # ------------------------------------------------------------- scalar

    def encode(self, values: Mapping[str, float]) -> bytes:
        """Pack one uplink (field name → value) into its wire frame."""
        known = self._template.field_names
        unknown = set(values) - set(known)
        if unknown:
            raise TelemetryError(
                f"unknown field(s) for template {self._template.name!r}: "
                f"{sorted(unknown)}"
            )
        raws = []
        for name, kind, scale in self._fields:
            if name not in values:
                raise TelemetryError(
                    f"uplink is missing field {name!r} of template "
                    f"{self._template.name!r}"
                )
            value = values[name]
            if kind.is_float:
                raws.append(float(value))
                continue
            scaled = value / scale if scale != 1.0 else value
            try:
                raw = round(scaled)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TelemetryError(
                    f"field {name!r} value {value!r} is not encodable"
                ) from exc
            if not kind.raw_min <= raw <= kind.raw_max:
                raise TelemetryError(
                    f"field {name!r} value {value!r} leaves the "
                    f"{kind.raw_min * scale:g}..{kind.raw_max * scale:g} "
                    f"domain of its wire type"
                )
            raws.append(raw)
        return self._struct.pack(self._template.version, *raws)

    def decode(self, frame: bytes) -> Dict[str, float]:
        """Unpack one wire frame into a field name → value mapping."""
        if len(frame) != self.frame_bytes:
            raise ProtocolError(
                f"frame is {len(frame)} bytes but template "
                f"{self._template.name!r} frames are {self.frame_bytes}",
                field="payload",
            )
        unpacked = self._struct.unpack(frame)
        if unpacked[0] != self._template.version:
            raise ProtocolError(
                f"frame version byte is {unpacked[0]} but template "
                f"{self._template.name!r} is version {self._template.version}",
                field="payload",
            )
        values: Dict[str, float] = {}
        for (name, kind, scale), raw in zip(self._fields, unpacked[1:]):
            if kind.is_float:
                values[name] = float(raw)
            elif scale != 1.0:
                values[name] = raw * scale
            else:
                values[name] = int(raw)
        return values

    # ------------------------------------------------------------- batch

    def encode_batch(self, columns: Mapping[str, np.ndarray]) -> bytes:
        """Pack aligned field columns into N concatenated wire frames."""
        known = self._template.field_names
        unknown = set(columns) - set(known)
        if unknown:
            raise TelemetryError(
                f"unknown column(s) for template {self._template.name!r}: "
                f"{sorted(unknown)}"
            )
        missing = set(known) - set(columns)
        if missing:
            raise TelemetryError(
                f"missing column(s) for template {self._template.name!r}: "
                f"{sorted(missing)}"
            )
        arrays = {
            name: np.asarray(columns[name]) for name in known
        }
        lengths = {array.shape for array in arrays.values()}
        if len(lengths) > 1 or any(array.ndim != 1 for array in arrays.values()):
            raise TelemetryError(
                "uplink columns must be aligned 1-D arrays, got shapes "
                f"{sorted(str(shape) for shape in lengths)}"
            )
        n_uplinks = len(next(iter(arrays.values())))
        records = np.empty(n_uplinks, dtype=self._dtype)
        records["_version"] = self._template.version
        for name, kind, scale in self._fields:
            column = arrays[name]
            if kind.is_float:
                # Each iteration writes one whole struct field (a full
                # vectorized column), not one element.
                records[name] = column.astype(  # reprolint: disable=RPR103
                    np.float64, copy=False
                )
                continue
            if scale == 1.0 and np.issubdtype(column.dtype, np.integer):
                raw = column
            else:
                as_float = column.astype(np.float64, copy=False)
                if not np.all(np.isfinite(as_float)):
                    raise TelemetryError(
                        f"column {name!r} carries non-finite values"
                    )
                raw = np.rint(as_float / scale)
            if n_uplinks and (
                int(raw.min()) < kind.raw_min or int(raw.max()) > kind.raw_max
            ):
                raise TelemetryError(
                    f"column {name!r} leaves the {kind.raw_min * scale:g}.."
                    f"{kind.raw_max * scale:g} domain of its wire type"
                )
            records[name] = raw  # reprolint: disable=RPR103 — whole column
        return records.tobytes()

    def decode_batch(self, payload: bytes) -> Dict[str, np.ndarray]:
        """Unpack N concatenated frames into struct-of-arrays columns.

        One ``np.frombuffer`` view plus one vectorized cast per field —
        no per-frame Python work. Raises
        :class:`~repro.errors.ProtocolError` on misaligned payloads, any
        frame whose version byte disagrees with the template, and any
        NaN or infinite float field.
        """
        frame = self.frame_bytes
        if len(payload) % frame:
            raise ProtocolError(
                f"payload is {len(payload)} bytes, not a multiple of the "
                f"{frame}-byte {self._template.name!r} frame — truncated?",
                field="payload",
            )
        records = np.frombuffer(payload, dtype=self._dtype)
        versions = records["_version"]
        if versions.size and not np.all(versions == self._template.version):
            bad = int(np.argmax(versions != self._template.version))
            raise ProtocolError(
                f"frame {bad} carries version byte {int(versions[bad])} but "
                f"template {self._template.name!r} is version "
                f"{self._template.version}",
                field="payload",
            )
        columns: Dict[str, np.ndarray] = {}
        for name, kind, scale in self._fields:
            raw = records[name]
            if kind.is_float:
                column = raw.astype(np.float64)
                finite = np.isfinite(column)
                if not finite.all():
                    bad = int(np.argmin(finite))
                    raise ProtocolError(
                        f"frame {bad} carries a non-finite {name!r} "
                        f"({float(column[bad])!r})",
                        field=name,
                    )
                columns[name] = column
            elif scale != 1.0:
                columns[name] = raw.astype(np.float64) * scale
            elif kind.numpy_code == "u8":
                columns[name] = raw.astype(np.uint64)
            else:
                columns[name] = raw.astype(np.int64)
        return columns


def default_codecs() -> Dict[int, UplinkCodec]:
    """Compiled codecs for every registered template, keyed by version."""
    return {
        version: UplinkCodec(template)
        for version, template in TEMPLATE_REGISTRY.items()
    }


def decode_uplink_batch(
    payload: bytes, codecs: Mapping[int, UplinkCodec]
) -> Tuple[int, Dict[str, np.ndarray]]:
    """Dispatch a binary batch on its leading version byte and decode it.

    All frames of one batch must share one template (frame sizes differ
    across templates, so a mixed batch cannot even be framed); the codec
    whose version matches byte 0 decodes the whole payload. Returns
    ``(version, columns)``.
    """
    if not payload:
        raise ProtocolError("telemetry payload is empty", field="payload")
    version = payload[0]
    codec = codecs.get(version)
    if codec is None:
        raise ProtocolError(
            f"unknown telemetry template version {version}; known: "
            f"{sorted(codecs)}",
            field="payload",
        )
    return version, codec.decode_batch(payload)
