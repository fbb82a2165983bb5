"""The compiled codec against the recursive one it replaced.

:mod:`tests.net.reference_codec` is the codec as it was before every
record got one generated straight-line encoder and decoder.  Whatever
the two are given they must agree exactly: the same bytes for every
value, equal values for every payload, the same structural span from
:func:`skip_value`, and — on damaged frames — a ``CodecError`` from
both or equal values from both.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.net import codec
from repro.net.codec import HEADER_SIZE
from repro.sim.messages import JoinMessage, NotificationMessage
from repro.sql.query import GroupShape
from repro.sql.tuples import DataTuple

from . import reference_codec
from .test_codec import (
    GOLDEN_FRAMES,
    RECORD_SAMPLES,
    R,
    data_tuples,
    notifications,
    queries,
    rewritten_groups,
    scalars,
)

DIFF = settings(max_examples=200, deadline=None)
FUZZ = settings(max_examples=400, deadline=None)


def unseal(value) -> None:
    """Forget every shape seal inside ``value``, so each codec seals the
    shapes itself instead of appending the other's bytes."""
    if type(value) is GroupShape:
        value.sealed = None
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            unseal(getattr(value, field.name))
    elif type(value) in (tuple, list):
        for item in value:
            unseal(item)
    elif type(value) is dict:
        for key, item in value.items():
            unseal(key)
            unseal(item)


def same(a, b) -> bool:
    """Equal values of the same type; a NaN a damaged float decoded to
    is the same NaN for both codecs, not an unequal one."""
    if type(a) is not type(b):
        return False
    if type(a) is float and math.isnan(a):
        return math.isnan(b)
    return a == b or repr(a) == repr(b)


def encodings(value) -> tuple[bytes, bytes]:
    unseal(value)
    compiled = codec.encode(value)
    unseal(value)
    return compiled, reference_codec.encode(value)


def decodings(payload: bytes):
    """``(compiled, reference)``: each codec's value, or ``CodecError``."""
    results = []
    for decode in (codec.decode, reference_codec.decode):
        try:
            results.append(decode(payload))
        except CodecError:
            results.append(CodecError)
    return tuple(results)


records = st.one_of(
    st.sampled_from(RECORD_SAMPLES),
    data_tuples,
    notifications,
    queries,
    rewritten_groups(),
    st.builds(
        lambda groups: JoinMessage(rewritten=tuple(groups)),
        st.lists(rewritten_groups(), max_size=3),
    ),
    st.builds(
        lambda batch: NotificationMessage(notifications=tuple(batch), subscriber_ident=7),
        st.lists(notifications, max_size=4),
    ),
)

#: Hashable keys for generated dicts: scalars, and tuples of them.
keys = st.one_of(scalars, st.tuples(scalars, scalars))

values = st.recursive(
    st.one_of(scalars, st.binary(max_size=12), st.integers(), records),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=3),
    ),
    max_leaves=12,
)


class TestAgreesWithTheReference:
    def test_every_registered_record(self):
        for sample in RECORD_SAMPLES:
            compiled, reference = encodings(sample)
            assert compiled == reference, type(sample).__name__
            got, expected = decodings(compiled)
            assert same(got, expected) and same(got, sample), type(sample).__name__

    def test_every_varint_width_and_string_length_boundary(self):
        """Exhaustive over the inline fast paths' edges: every one-byte
        zigzag, each side of every 7-bit boundary up to 2**161, strings
        each side of a one-byte length — bare, in a tuple, in a record."""
        ints = set(range(-300, 300))
        for bits in range(7, 162, 7):
            for edge in (2**bits, -(2**bits)):
                ints.update((edge - 1, edge, edge + 1))
        strings = ["", "x", "é" * 63, "y" * 127, "y" * 128, "z" * 300]
        for value in sorted(ints) + strings:
            for wrapped in (value, (value, value), DataTuple(R, (value, value), 1.0)):
                compiled, reference = encodings(wrapped)
                assert compiled == reference, value
                got, expected = decodings(compiled)
                assert same(got, expected) and same(got, wrapped), value

    @DIFF
    @given(value=values)
    def test_same_bytes_equal_values_same_span(self, value):
        compiled, reference = encodings(value)
        assert compiled == reference
        got, expected = decodings(compiled)
        assert got is not CodecError and same(got, expected)
        assert codec.skip_value(compiled, 0) == len(compiled)
        assert reference_codec.skip_value(compiled, 0) == len(compiled)

    @FUZZ
    @given(
        name=st.sampled_from(sorted(GOLDEN_FRAMES)),
        position=st.integers(min_value=0),
        byte=st.integers(0, 255),
        cut=st.integers(min_value=0),
    )
    def test_damaged_golden_frames_fail_alike(self, name, position, byte, cut):
        payload = bytearray(GOLDEN_FRAMES[name][HEADER_SIZE:])
        payload[position % len(payload)] = byte
        for damaged in (bytes(payload), GOLDEN_FRAMES[name][HEADER_SIZE:][: cut % len(payload)]):
            got, expected = decodings(damaged)
            assert (got is CodecError) == (expected is CodecError), damaged.hex()
            if got is not CodecError:
                assert same(got, expected), damaged.hex()
            try:
                span = reference_codec.skip_value(damaged, 0)
            except CodecError:
                span = CodecError
            try:
                assert codec.skip_value(damaged, 0) == span
            except CodecError:
                assert span is CodecError
