"""Unit and property tests for the order-preserving SPLID byte codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SplidError
from repro.splid import Splid, encode, decode
import repro.splid.splid as splid_module
from repro.splid.splid import _INTERN
from repro.splid.codec import (
    average_stored_bytes,
    common_prefix_length,
    compressed_size,
    decode_divisions,
    encode_division,
    prefix_compress,
    prefix_decompress,
)


class TestDivisionBands:
    def test_band1(self):
        assert encode_division(1) == b"\x01"
        assert encode_division(0x7F) == b"\x7f"

    def test_band2_boundaries(self):
        assert encode_division(0x80)[0] & 0xC0 == 0x80
        assert len(encode_division(0x80)) == 2
        assert len(encode_division(0x407F)) == 2

    def test_band3(self):
        assert len(encode_division(0x4080)) == 4
        assert encode_division(0x4080)[0] & 0xC0 == 0xC0

    def test_rejects_nonpositive(self):
        with pytest.raises(SplidError):
            encode_division(0)

    def test_rejects_huge(self):
        with pytest.raises(SplidError):
            encode_division(1 << 40)

    def test_band_transitions_preserve_order(self):
        probes = [1, 2, 0x7E, 0x7F, 0x80, 0x81, 0x407E, 0x407F, 0x4080, 0x10000]
        codes = [encode_division(v) for v in probes]
        assert codes == sorted(codes)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text", ["1", "1.3", "1.3.4.3", "1.5.3.3.11.3.1", "1.3.4.2.3"]
    )
    def test_paper_labels(self, text):
        s = Splid.parse(text)
        assert decode(encode(s)) == s

    def test_decode_rejects_empty(self):
        with pytest.raises(SplidError):
            decode(b"")

    def test_decode_rejects_truncation(self):
        full = encode_division(0x200)
        with pytest.raises(SplidError):
            decode_divisions(full[:-1])

    @pytest.mark.parametrize("data", [b"\x03", b"\x03\x03", b"\x01\x02", b"\x01\x03\x04"])
    def test_decode_rejects_invalid_labels(self, data):
        # Non-root start or even tail: refused on every attempt, never cached.
        for _attempt in range(2):
            with pytest.raises(SplidError):
                decode(data)
        with pytest.raises(SplidError):
            Splid(tuple(data))

    def test_decode_rejects_zero_division(self):
        with pytest.raises(SplidError):
            decode_divisions(b"\x01\x00\x03")
        with pytest.raises(SplidError):
            decode(b"\x01\x00\x03")
        # The refused decode left nothing behind for the constructor.
        with pytest.raises(SplidError):
            Splid((1, 0, 3))


class TestOrderPreservation:
    def test_ancestor_is_byte_prefix(self):
        parent = encode(Splid.parse("1.3"))
        child = encode(Splid.parse("1.3.4.3"))
        assert child.startswith(parent)

    def test_figure5_order(self):
        labels = ["1", "1.3", "1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.5",
                  "1.5", "1.5.3.3", "1.5.4.3", "1.5.5"]
        keys = [encode(Splid.parse(t)) for t in labels]
        assert keys == sorted(keys)


class TestPrefixCompression:
    def test_round_trip(self):
        keys = sorted(
            encode(Splid.parse(t))
            for t in ["1.3.3", "1.3.3.1", "1.3.3.1.3", "1.3.5", "1.5.3"]
        )
        assert prefix_decompress(prefix_compress(keys)) == keys

    def test_compression_wins_on_document_order(self):
        # Sorted sibling runs share long prefixes.
        parent = Splid.parse("1.3.3.5")
        keys = [encode(parent.child(2 * i + 3)) for i in range(50)]
        assert compressed_size(keys) < sum(len(k) for k in keys) / 3

    def test_average_stored_bytes_small(self):
        # The paper reports 2-3 bytes per SPLID in document order.
        parent = Splid.parse("1.3.3.5.7")
        keys = [encode(parent.child(2 * i + 3)) for i in range(200)]
        assert average_stored_bytes(keys) <= 3.0

    def test_empty_input(self):
        assert prefix_compress([]) == []
        assert average_stored_bytes([]) == 0.0

    def test_corrupt_front_coding_detected(self):
        with pytest.raises(SplidError):
            prefix_decompress([(5, b"x")])

    def test_common_prefix_length(self):
        assert common_prefix_length(b"abc", b"abd") == 2
        assert common_prefix_length(b"", b"abd") == 0
        assert common_prefix_length(b"ab", b"ab") == 2


# -- property-based checks ---------------------------------------------------

divisions = st.lists(
    st.integers(min_value=1, max_value=0x5000), min_size=0, max_size=6
)
splids = st.builds(
    lambda mid, last: Splid((1, *mid, 2 * last + 1)),
    divisions,
    st.integers(min_value=0, max_value=0x4000),
)


@settings(max_examples=300)
@given(s=splids)
def test_round_trip_property(s):
    assert decode(encode(s)) == s


@settings(max_examples=300)
@given(a=splids, b=splids)
def test_byte_order_equals_document_order(a, b):
    assert (encode(a) < encode(b)) == (a < b)
    assert (encode(a) == encode(b)) == (a == b)


@settings(max_examples=100)
@given(keys=st.lists(splids, min_size=1, max_size=40, unique=True))
def test_front_coding_round_trip(keys):
    encoded = sorted(encode(k) for k in keys)
    assert prefix_decompress(prefix_compress(encoded)) == encoded


# -- one key per label: the shared intern table ------------------------------


def reference_key(label):
    """The label's key computed division by division, bypassing every memo."""
    return b"".join(encode_division(d) for d in label.divisions)


#: Byte strings near the key space: whole division codes behind a root
#: byte, with some cut short or followed by a zero byte, plus raw noise.
near_keys = st.one_of(
    st.binary(max_size=10),
    st.builds(
        lambda head, codes, cut, tail: (head + b"".join(codes))[:cut] + tail,
        st.sampled_from([b"\x01", b"\x03", b""]),
        st.lists(st.integers(1, 0x5000).map(encode_division), max_size=5),
        st.integers(0, 24),
        st.sampled_from([b"", b"\x00", b"\x03"]),
    ),
)


@settings(max_examples=500)
@given(data=near_keys)
def test_every_accepted_key_re_encodes_to_itself(data):
    try:
        label = decode(data)
    except SplidError:
        # A refused key never enters the table: it is refused again.
        assert data not in _INTERN
        with pytest.raises(SplidError):
            decode(data)
        return
    assert encode(label) == data == reference_key(label)
    assert decode(data) is label


@settings(max_examples=300)
@given(s=splids)
def test_decode_of_encode_is_the_canonical_label(s):
    assert decode(encode(s)) == s
    if Splid(s.divisions) is s:         # still the canonical instance
        assert decode(encode(s)) is s


@settings(max_examples=100, deadline=None)
@given(labels=st.lists(splids, min_size=1, max_size=40))
def test_cache_state_never_changes_a_result(labels):
    """Hit, miss, after a clear and across FIFO eviction: the same key and
    the same label every time, and the table stays within its capacity."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(splid_module, "INTERN_CAPACITY", 16)
        patch.setattr(splid_module, "_EVICT_BATCH", 4)
        Splid.clear_intern_cache()
        for rounds in range(3):
            for s in labels:
                key = reference_key(s)
                assert encode(s) == key
                got = decode(key)
                assert got == s and got.divisions == s.divisions
                assert encode(got) == key
                assert encode(Splid(s.divisions)) == key
                assert Splid.intern_info()["size"] <= 16
            if rounds == 1:
                Splid.clear_intern_cache()
    Splid.clear_intern_cache()
