"""Property tests for the wire codec: random nested values round-trip
with equal value and exact type -- packed ``(Splid, NodeRecord)`` pair
lists and the near-misses that must take the generic path included --
and no prefix or corruption of a frame decodes as anything but a
:class:`~repro.errors.ProtocolError`."""

from enum import IntEnum

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ProtocolError
from repro.net import wire
from repro.splid import Splid
from repro.storage.record import NO_NAME, NodeKind, NodeRecord


class Label(str):
    """A ``str`` subclass: must travel as a plain string."""


class Colour(IntEnum):
    RED = 1
    GREEN = 300


splids = st.builds(
    lambda tail, last: Splid((1, *tail, 2 * last + 1)),
    st.lists(st.integers(1, 400), max_size=5),
    st.integers(0, 40_000),
)
records = st.builds(
    NodeRecord,
    st.sampled_from(list(NodeKind)),
    st.just(NO_NAME) | st.integers(0, NO_NAME),
    st.binary(max_size=150),
)
pair_lists = st.lists(st.tuples(splids, records), min_size=1, max_size=8)

scalars = (
    st.none() | st.booleans() | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False) | st.text(max_size=150)
    | st.binary(max_size=150) | splids | records
)

#: Lists that look like a ``read_subtree`` reply but are not one.
near_miss_lists = st.one_of(
    st.lists(st.tuples(splids, st.text()), min_size=1, max_size=4),
    st.lists(st.tuples(splids, records, scalars), min_size=1, max_size=4),
    st.builds(                                      # a mixed list
        lambda pairs, extra, at: pairs[:at] + [extra] + pairs[at:],
        pair_lists, scalars, st.integers(0, 8),
    ),
)
near_misses = st.one_of(
    near_miss_lists,
    st.tuples(splids, records, scalars),            # a 3-tuple
    st.sampled_from(list(Colour) + list(NodeKind)),
    st.text(max_size=20).map(Label),
)

values = st.recursive(
    scalars | pair_lists | near_misses,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.integers(-(2**40), 2**40) | st.text(max_size=8) | splids,
                          children, max_size=4)
    ),
    max_leaves=12,
)


def expected(value):
    """What the peer decodes: subclasses arrive as their wire base type."""
    if isinstance(value, bool) or value is None:
        return value
    for base in (int, float, str, bytes):
        if isinstance(value, base):
            return base(value)
    if isinstance(value, list):
        return [expected(item) for item in value]
    if isinstance(value, tuple):
        return tuple(expected(item) for item in value)
    if isinstance(value, dict):
        return {expected(k): expected(v) for k, v in value.items()}
    return value


def assert_same(got, want):
    """Equal value *and* exact type, all the way down."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for got_item, want_item in zip(got, want):
            assert_same(got_item, want_item)
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    else:
        assert got == want


@settings(max_examples=200, deadline=None)
@given(values)
def test_values_round_trip_with_exact_types(value):
    assert_same(wire.decode_value(wire.encode_value(value)), expected(value))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 255), st.lists(values, max_size=4))
def test_every_prefix_of_a_frame_is_torn(opcode, fields):
    frame = wire.encode_frame(opcode, *fields)
    got_op, got_fields = wire.decode_frame(frame)
    assert got_op == opcode
    assert_same(got_fields, expected(tuple(fields)))
    body = wire.encode_value(tuple(fields))
    for cut in range(len(frame)):
        with pytest.raises(ProtocolError):
            wire.decode_frame(frame[:cut])
    for cut in range(len(body)):
        with pytest.raises(ProtocolError):
            wire.decode_value(body[:cut])


@settings(max_examples=100, deadline=None)
@given(pair_lists)
def test_pair_lists_take_the_packed_tag(pairs):
    assert wire.encode_value(pairs)[0] == wire._T_PAIRS
    assert wire.encode_value(tuple(pairs))[0] == wire._T_TUPLE


@settings(max_examples=100, deadline=None)
@given(near_miss_lists)
def test_near_miss_lists_take_the_generic_path(value):
    assert wire.encode_value(value)[0] == wire._T_LIST


@settings(max_examples=300, deadline=None)
@given(values, st.data())
def test_corrupted_bodies_raise_only_protocol_error(value, data):
    body = bytearray(wire.encode_value((value,)))
    for _i in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] = data.draw(st.integers(0, 255))
    frame = (len(body) + 1).to_bytes(4, "big") + bytes((wire.OP_CALL,)) + body
    try:
        wire.decode_frame(frame)
    except ProtocolError:
        pass
