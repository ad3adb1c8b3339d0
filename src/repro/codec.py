"""Packed binary records + the one canonical-encoding helper.

Every durable byte stream in the package used to be canonical JSON with
an ad-hoc ``json.dumps(..., sort_keys=True, separators=...)`` at each
call site — solve checkpoints, campaign checkpoints, report artifacts —
and profiling shows the encode/decode cost riding the scheduler's hot
path (a daemon checkpoints at every batch boundary).  This module
replaces that with:

* :func:`canonical_bytes` / :func:`pretty_json` — the *single* home of
  the two JSON shapes the repo emits (canonical for hashing/stable
  bytes, pretty for humans).  Every former ad-hoc call site routes here,
  so the canonical convention cannot drift between writers.
* A **packed binary record** format — ``struct``-packed tagged values
  behind a versioned, CRC32-protected frame — used for SimMPI envelope
  payload digests, solve/campaign checkpoints, and telemetry records.
  Typically 2-4x smaller and several times faster to encode than the
  JSON it replaces, while JSON remains the debug/inspection format
  (``decode_auto`` accepts either, so old JSON artifacts keep
  restoring).

Frame layout (16-byte fixed header, little-endian)::

    magic   4s   b"RPB1"
    version u8   format version (currently 1)
    kind    u8   record kind (KIND_*)
    flags   u16  reserved, must be zero
    length  u32  payload byte count
    crc32   u32  CRC32 of the payload bytes

A torn buffer raises :class:`TruncatedRecord`; a bit-flipped payload
raises :class:`ChecksumMismatch`; an unknown frame raises
:class:`UnknownFormat`.  Nothing ever decodes silently wrong — the same
contract the PR-3 integrity layer enforces on the wire.

Value encoding is a minimal tagged scheme (None/bool/int/float/str/
bytes/list/dict/ndarray).  Dict insertion order is preserved, floats are
IEEE-754 binary64 verbatim, so ``encode(decode(b)) == b`` for every
well-formed buffer — the property tests pin this round trip.

Incremental encoding: a :class:`Packed` value is bytes that are already
a packed value, and :func:`pack_value` splices them verbatim wherever
they sit in a tree, so a writer that re-commits mostly-unchanged state
packs each immutable part once.  :class:`PackedList` keeps an
append-only list in packed form.  Both produce exactly the bytes the
plain value would, so the format never learns that a splice happened.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "CodecError",
    "TruncatedRecord",
    "ChecksumMismatch",
    "UnknownFormat",
    "canonical_bytes",
    "canonical_dumps",
    "pretty_json",
    "MAGIC",
    "VERSION",
    "KIND_ENVELOPE",
    "KIND_CHECKPOINT",
    "KIND_CAMPAIGN",
    "KIND_TELEMETRY",
    "KIND_GENERIC",
    "KIND_NAMES",
    "Packed",
    "PackedList",
    "pack_value",
    "unpack_value",
    "encode_record",
    "decode_record",
    "is_packed",
    "decode_auto",
]


class CodecError(ValueError):
    """Base class: a buffer failed to decode as a packed record."""


class TruncatedRecord(CodecError):
    """The buffer ends before the frame or a value completes."""


class ChecksumMismatch(CodecError):
    """The payload's CRC32 disagrees with the frame header."""


class UnknownFormat(CodecError):
    """Wrong magic, unsupported version, or an unknown value tag."""


# --------------------------------------------------------------------- #
# Canonical / pretty JSON — the single encoding helper (all former
# ad-hoc json.dumps call sites route through these two).
# --------------------------------------------------------------------- #


def canonical_dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, no whitespace.

    The one convention every deterministic-bytes writer shares; two
    writers of the same state produce the same string by construction.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj: Any) -> bytes:
    """:func:`canonical_dumps` encoded to UTF-8 (the hashing form)."""
    return canonical_dumps(obj).encode()


def pretty_json(obj: Any) -> str:
    """Human-facing JSON: sorted keys, 2-space indent."""
    return json.dumps(obj, indent=2, sort_keys=True)


# --------------------------------------------------------------------- #
# Packed binary records
# --------------------------------------------------------------------- #

MAGIC = b"RPB1"
VERSION = 1

KIND_ENVELOPE = 1
KIND_CHECKPOINT = 2
KIND_CAMPAIGN = 3
KIND_TELEMETRY = 4
KIND_GENERIC = 5

KIND_NAMES = {
    KIND_ENVELOPE: "envelope",
    KIND_CHECKPOINT: "checkpoint",
    KIND_CAMPAIGN: "campaign",
    KIND_TELEMETRY: "telemetry",
    KIND_GENERIC: "generic",
}

_HEADER = struct.Struct("<4sBBHII")

# Value tags (one byte each).
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT64 = b"i"
_T_BIGINT = b"I"
_T_FLOAT = b"d"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_DICT = b"m"
_T_NDARRAY = b"a"

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


class Packed(bytes):
    """Bytes that already are one packed value, spliced verbatim.

    ``Packed(pack_value(x))`` packs exactly like ``x`` anywhere inside a
    value tree, so a part of a record that never changes is packed once
    and its bytes reused by every later encode.  Decoding never yields a
    ``Packed``: the splice leaves no trace in the format.
    """

    __slots__ = ()

    @classmethod
    def of(cls, obj: Any) -> "Packed":
        return cls(pack_value(obj))


class PackedList:
    """An append-only list held in packed form.

    :meth:`extend` packs only the new items; :meth:`packed` frames the
    whole list as a :class:`Packed` splice without re-packing the items
    already held.  Suits logs that only ever grow (completion order,
    state-machine transitions) and the settled prefix of a list whose
    items stop changing in order.
    """

    __slots__ = ("_body", "_count")

    def __init__(self) -> None:
        self._body = bytearray()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def extend(self, items: Iterable[Any]) -> None:
        for item in items:
            _pack_into(item, self._body)
            self._count += 1

    def packed(self, tail: Sequence[Any] = ()) -> Packed:
        """The held items, then ``tail`` (packed into this result only)."""
        buf = bytearray(_T_LIST)
        buf += _U32.pack(self._count + len(tail))
        buf += self._body
        for item in tail:
            _pack_into(item, buf)
        return Packed(buf)


def pack_value(obj: Any, out: bytearray | None = None) -> bytes:
    """Encode one value to packed bytes (no frame).

    Deterministic: equal values (same types, same dict order) always
    produce equal bytes.  Tuples encode as lists; numpy scalars as their
    Python equivalents; ndarrays carry dtype + shape + raw data;
    :class:`Packed` values are spliced verbatim.
    """
    buf = bytearray() if out is None else out
    _pack_into(obj, buf)
    return bytes(buf)


def _pack_into(obj: Any, buf: bytearray) -> None:
    if obj is None:
        buf += _T_NONE
    elif obj is True:
        buf += _T_TRUE
    elif obj is False:
        buf += _T_FALSE
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        v = int(obj)
        if _I64_MIN <= v <= _I64_MAX:
            buf += _T_INT64
            buf += _I64.pack(v)
        else:
            raw = v.to_bytes((v.bit_length() + 8) // 8, "little", signed=True)
            buf += _T_BIGINT
            buf += _U32.pack(len(raw))
            buf += raw
    elif isinstance(obj, (float, np.floating)):
        buf += _T_FLOAT
        buf += _F64.pack(float(obj))
    elif isinstance(obj, str):
        raw = obj.encode()
        buf += _T_STR
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        if type(obj) is Packed:
            buf += obj
            return
        raw = bytes(obj)
        buf += _T_BYTES
        buf += _U32.pack(len(raw))
        buf += raw
    elif isinstance(obj, (list, tuple)):
        buf += _T_LIST
        buf += _U32.pack(len(obj))
        for item in obj:
            _pack_into(item, buf)
    elif isinstance(obj, dict):
        buf += _T_DICT
        buf += _U32.pack(len(obj))
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"packed dict keys must be str, got {type(key).__name__}"
                )
            raw = key.encode()
            buf += _U32.pack(len(raw))
            buf += raw
            _pack_into(value, buf)
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise TypeError("object-dtype arrays are not packable")
        dt = obj.dtype.str.encode()  # e.g. b"<c16" — endianness explicit
        arr = np.ascontiguousarray(obj)
        raw = arr.tobytes()
        buf += _T_NDARRAY
        buf += _U32.pack(len(dt))
        buf += dt
        buf += _U32.pack(arr.ndim)
        for dim in arr.shape:
            buf += _I64.pack(dim)
        buf += _U32.pack(len(raw))
        buf += raw
    else:
        raise TypeError(f"cannot pack value of type {type(obj).__name__}")


class _Cursor:
    """Bounds-checked reader: every short read is a TruncatedRecord."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise TruncatedRecord(
                f"need {n} byte(s) at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]


def unpack_value(data: bytes) -> Any:
    """Decode one packed value (no frame); the whole buffer must be
    consumed — trailing garbage raises :class:`UnknownFormat`."""
    cur = _Cursor(data)
    obj = _unpack_from(cur)
    if cur.pos != len(data):
        raise UnknownFormat(
            f"{len(data) - cur.pos} trailing byte(s) after packed value"
        )
    return obj


def _unpack_from(cur: _Cursor) -> Any:
    tag = cur.take(1)
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT64:
        return _I64.unpack(cur.take(8))[0]
    if tag == _T_BIGINT:
        raw = cur.take(cur.u32())
        return int.from_bytes(raw, "little", signed=True)
    if tag == _T_FLOAT:
        return _F64.unpack(cur.take(8))[0]
    if tag == _T_STR:
        return cur.take(cur.u32()).decode()
    if tag == _T_BYTES:
        return cur.take(cur.u32())
    if tag == _T_LIST:
        n = cur.u32()
        return [_unpack_from(cur) for _ in range(n)]
    if tag == _T_DICT:
        n = cur.u32()
        out: dict[str, Any] = {}
        for _ in range(n):
            key = cur.take(cur.u32()).decode()
            out[key] = _unpack_from(cur)
        return out
    if tag == _T_NDARRAY:
        dt = np.dtype(cur.take(cur.u32()).decode())
        ndim = cur.u32()
        shape = tuple(_I64.unpack(cur.take(8))[0] for _ in range(ndim))
        raw = cur.take(cur.u32())
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    raise UnknownFormat(f"unknown value tag {tag!r} at offset {cur.pos - 1}")


def encode_record(obj: Any, kind: int = KIND_GENERIC) -> bytes:
    """Frame + packed payload: the durable form of one record."""
    if kind not in KIND_NAMES:
        raise ValueError(f"unknown record kind {kind}")
    payload = pack_value(obj)
    header = _HEADER.pack(
        MAGIC, VERSION, kind, 0, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header + payload


def is_packed(data: bytes) -> bool:
    """Whether ``data`` starts with the packed-record magic."""
    return data[: len(MAGIC)] == MAGIC


def decode_record(
    data: bytes, *, expect_kind: int | None = None
) -> tuple[int, Any]:
    """``(kind, value)`` from a framed record, validating everything.

    Raises :class:`TruncatedRecord` on short buffers,
    :class:`ChecksumMismatch` on payload damage, :class:`UnknownFormat`
    on bad magic/version/kind, and ``ValueError`` when ``expect_kind``
    is given and disagrees.
    """
    if len(data) < _HEADER.size:
        raise TruncatedRecord(
            f"buffer of {len(data)} byte(s) shorter than the "
            f"{_HEADER.size}-byte frame header"
        )
    magic, version, kind, flags, length, crc = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise UnknownFormat(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version != VERSION:
        raise UnknownFormat(f"unsupported record version {version}")
    if kind not in KIND_NAMES:
        raise UnknownFormat(f"unknown record kind {kind}")
    if flags != 0:
        raise UnknownFormat(f"reserved flags set ({flags:#06x})")
    payload = data[_HEADER.size :]
    if len(payload) < length:
        raise TruncatedRecord(
            f"payload truncated: header promises {length} byte(s), "
            f"buffer holds {len(payload)}"
        )
    if len(payload) > length:
        raise UnknownFormat(
            f"{len(payload) - length} trailing byte(s) after the payload"
        )
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise ChecksumMismatch(
            f"payload checksum mismatch: {actual:#010x} != {crc:#010x}"
        )
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(
            f"expected a {KIND_NAMES[expect_kind]} record, "
            f"got {KIND_NAMES[kind]}"
        )
    return kind, unpack_value(payload)


def decode_auto(data: bytes, *, expect_kind: int | None = None) -> Any:
    """Decode a packed record **or** legacy JSON bytes.

    The escape hatch that keeps every pre-codec artifact readable: a
    buffer with the packed magic goes through the full validating frame
    decode; anything else must parse as UTF-8 JSON.  Damage in a packed
    buffer still raises the structured codec errors — only the *format*
    is auto-detected, never the validity.
    """
    if is_packed(data):
        return decode_record(data, expect_kind=expect_kind)[1]
    try:
        return json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UnknownFormat(f"neither a packed record nor JSON: {exc}") from exc
