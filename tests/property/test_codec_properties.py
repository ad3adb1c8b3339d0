"""Property-based tests of the packed binary record codec.

The contract under test (the same one PR-3 enforces on the wire):

* round trip is the identity — ``unpack(pack(v)) == v`` for every value
  the codec models, and ``pack`` is a fixed point of the round trip
  (``pack(unpack(b)) == b``), so records re-encode byte-identically;
* a :class:`~repro.codec.Packed` splice packs exactly like the value it
  holds, wherever it is nested, and never comes back out of a decode;
* *every* damaged buffer fails loudly with a structured error — any
  truncation raises :class:`~repro.codec.TruncatedRecord` (or, for cuts
  that leave a self-consistent shorter frame, another codec error),
  any payload bit flip raises :class:`~repro.codec.ChecksumMismatch`,
  and nothing ever decodes silently wrong.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec

# Values the codec models: JSON-ish trees plus bytes.  Floats are
# restricted to non-NaN so equality is usable (NaN round-trip is pinned
# separately below); integers cover both the i64 fast path and bigints.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)

_kinds = st.sampled_from(sorted(codec.KIND_NAMES))


class TestRoundTrip:
    @given(_values)
    @settings(max_examples=200, deadline=None)
    def test_value_round_trip_identity(self, value):
        assert codec.unpack_value(codec.pack_value(value)) == value

    @given(_values)
    @settings(max_examples=100, deadline=None)
    def test_pack_is_fixed_point(self, value):
        packed = codec.pack_value(value)
        assert codec.pack_value(codec.unpack_value(packed)) == packed

    @given(_values, _kinds)
    @settings(max_examples=100, deadline=None)
    def test_record_round_trip(self, value, kind):
        blob = codec.encode_record(value, kind=kind)
        got_kind, got = codec.decode_record(blob)
        assert got_kind == kind
        assert got == value

    @given(_values)
    @settings(max_examples=50, deadline=None)
    def test_decode_auto_accepts_packed_and_json(self, value):
        blob = codec.encode_record(value, kind=codec.KIND_GENERIC)
        assert codec.decode_auto(blob) == value

    def test_nan_round_trips(self):
        """Binary floats carry NaN verbatim (canonical JSON cannot)."""
        back = codec.unpack_value(codec.pack_value([float("nan"), 1.0]))
        assert np.isnan(back[0]) and back[1] == 1.0

    def test_ndarray_round_trips(self):
        rng = np.random.default_rng(3)
        for arr in (
            rng.standard_normal((4, 3)),
            (rng.standard_normal(6) + 1j * rng.standard_normal(6)).astype(
                np.complex64
            ),
            np.arange(12, dtype=np.int32).reshape(3, 4),
            np.zeros((0, 2)),
        ):
            back = codec.unpack_value(codec.pack_value({"x": arr}))["x"]
            assert back.dtype == arr.dtype and back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)


def _splice_some(value, data):
    """``value`` with randomly chosen subtrees replaced by their splices."""
    if data.draw(st.booleans()):
        return codec.Packed.of(value)
    if isinstance(value, list):
        return [_splice_some(v, data) for v in value]
    if isinstance(value, dict):
        return {k: _splice_some(v, data) for k, v in value.items()}
    return value


def _contains_splice(value) -> bool:
    if isinstance(value, codec.Packed):
        return True
    if isinstance(value, list):
        return any(_contains_splice(v) for v in value)
    if isinstance(value, dict):
        return any(_contains_splice(v) for v in value.values())
    return False


class TestSplice:
    @given(_values, st.data())
    @settings(max_examples=200, deadline=None)
    def test_nested_splice_packs_like_its_value(self, value, data):
        spliced = _splice_some(value, data)
        packed = codec.pack_value(spliced)
        assert packed == codec.pack_value(value)
        assert not _contains_splice(codec.unpack_value(packed))
        assert not _contains_splice(
            codec.unpack_value(codec.Packed.of(spliced))
        )

    @given(st.lists(_values, max_size=8), st.lists(_values, max_size=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_packed_list_extends_like_a_list(self, items, tail, data):
        log = codec.PackedList()
        held = 0
        while held < len(items):
            step = data.draw(st.integers(1, len(items) - held))
            log.extend(items[held : held + step])
            held += step
        assert len(log) == len(items)
        assert codec.pack_value(log.packed()) == codec.pack_value(items)
        spliced_tail = [codec.Packed.of(v) for v in tail]
        assert log.packed(spliced_tail) == codec.pack_value(items + tail)


class TestCorruption:
    @given(_values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_fails_loudly(self, value, data):
        """A cut anywhere in the stream raises a codec error; a cut that
        removes payload bytes specifically raises TruncatedRecord."""
        blob = codec.encode_record(value, kind=codec.KIND_GENERIC)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(codec.CodecError):
            codec.decode_record(blob[:cut])

    @given(_values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_payload_bit_flip_fails_loudly(self, value, data):
        blob = bytearray(codec.encode_record(value, kind=codec.KIND_GENERIC))
        header = 16  # flips inside the frame header are tested separately
        pos = data.draw(st.integers(header, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        blob[pos] ^= 1 << bit
        with pytest.raises(codec.ChecksumMismatch):
            codec.decode_record(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(codec.encode_record({"a": 1}))
        blob[0] ^= 0xFF
        with pytest.raises(codec.UnknownFormat, match="magic"):
            codec.decode_record(bytes(blob))

    def test_unsupported_version(self):
        blob = bytearray(codec.encode_record({"a": 1}))
        blob[4] = 99
        with pytest.raises(codec.UnknownFormat, match="version"):
            codec.decode_record(bytes(blob))

    def test_unknown_kind(self):
        blob = bytearray(codec.encode_record({"a": 1}))
        blob[5] = 200
        with pytest.raises(codec.UnknownFormat, match="kind"):
            codec.decode_record(bytes(blob))

    def test_kind_mismatch(self):
        blob = codec.encode_record({"a": 1}, kind=codec.KIND_TELEMETRY)
        with pytest.raises(ValueError, match="expected a campaign record"):
            codec.decode_record(blob, expect_kind=codec.KIND_CAMPAIGN)

    def test_trailing_garbage_rejected(self):
        blob = codec.encode_record([1, 2, 3])
        with pytest.raises(codec.UnknownFormat, match="trailing"):
            codec.decode_record(blob + b"\x00")

    def test_forged_length_cannot_hide_damage(self):
        """Rewriting the header length to 'legalize' a truncated payload
        still fails: the CRC covers the payload that remains."""
        import struct

        blob = codec.encode_record({"k": list(range(50))})
        cut = blob[:-7]
        forged = bytearray(cut)
        forged[8:12] = struct.pack("<I", len(cut) - 16)
        with pytest.raises(codec.ChecksumMismatch):
            codec.decode_record(bytes(forged))

    def test_decode_auto_rejects_garbage(self):
        with pytest.raises(codec.UnknownFormat, match="neither"):
            codec.decode_auto(b"\x01\x02\x03not json")


class TestDeterminism:
    @given(_values)
    @settings(max_examples=100, deadline=None)
    def test_encoding_is_deterministic(self, value):
        assert codec.pack_value(value) == codec.pack_value(value)
        assert codec.encode_record(value) == codec.encode_record(value)

    def test_crc_matches_zlib(self):
        """The frame reuses the PR-3 CRC32 primitive bit-for-bit."""
        payload = codec.pack_value({"x": 1.5})
        blob = codec.encode_record({"x": 1.5})
        import struct

        crc = struct.unpack_from("<I", blob, 12)[0]
        assert crc == (zlib.crc32(payload) & 0xFFFFFFFF)
