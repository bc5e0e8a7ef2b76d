"""The fast codec against the original one, kept in repro.net.reference.

Both must write the same bytes for every value, decode every body to
the same value, and refuse the same malformed bodies: every proper
prefix of an encoded body and a fixed-seed set of single-byte flips
either decode to the oracle's value or raise ``CodecError`` in both.
Envelopes of every message type, with and without an idempotency key,
and barcode payloads go through the same checks, and their content keys
are pinned to the values the original codec gave.
"""

import collections
import enum
import hashlib
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.barcode.payload import PlacePayload
from repro.common.errors import CodecError
from repro.net import codec, reference
from repro.net.messages import Envelope, MessageType
from tests.net.test_codec import json_like

FLIPS_PER_BODY = 24


def same(left, right):
    """Equal values of equal types; floats compared by their bits."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack(">d", left) == struct.pack(">d", right)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return list(left) == list(right) and all(
            same(left[key], right[key]) for key in left
        )
    return left == right


def outcome(decode, data):
    """What ``decode`` makes of ``data``: ("ok", value) or ("error", None)."""
    try:
        return "ok", decode(data)
    except CodecError:
        return "error", None


def assert_agree(data, decode, oracle):
    mine, theirs = outcome(decode, data), outcome(oracle, data)
    assert mine[0] == theirs[0], (data.hex(), mine, theirs)
    assert same(mine[1], theirs[1]), data.hex()


def assert_malformed_agree(data, decode, oracle, seed):
    """Every proper prefix and some single-byte flips: same verdict."""
    for end in range(len(data)):
        assert_agree(data[:end], decode, oracle)
    rng = random.Random(seed)
    for _ in range(FLIPS_PER_BODY if data else 0):
        flipped = bytearray(data)
        flipped[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        assert_agree(bytes(flipped), decode, oracle)


def assert_body_identical(body, seed=0):
    data = codec.encode_body(body)
    assert data == reference.encode_body(body)
    assert same(codec.decode_body(data), reference.decode_body(data))
    assert_malformed_agree(data, codec.decode_body, reference.decode_body, seed)
    return data


@settings(max_examples=150, deadline=None)
@given(value=json_like)
def test_values_encode_and_decode_like_the_oracle(value):
    data = codec.encode_value(value)
    assert data == reference.encode_value(value)
    assert same(codec.decode_value(data), reference.decode_value(data))
    assert_malformed_agree(
        data, codec.decode_value, reference.decode_value, seed=len(data)
    )


@settings(max_examples=100, deadline=None)
@given(body=st.dictionaries(st.text(max_size=8), json_like, max_size=5))
def test_bodies_encode_and_decode_like_the_oracle(body):
    assert_body_identical(body, seed=len(body))


envelopes = st.builds(
    Envelope,
    message_type=st.sampled_from(list(MessageType)),
    sender=st.text(max_size=12),
    recipient=st.text(max_size=12),
    payload=st.dictionaries(st.text(max_size=8), json_like, max_size=4),
    idempotency_key=st.none() | st.text(max_size=30),
)


def sorted_keys(value):
    if isinstance(value, dict):
        return {key: sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [sorted_keys(item) for item in value]
    return value


@settings(max_examples=150, deadline=None)
@given(envelope=envelopes)
def test_envelopes_and_content_keys_match_the_oracle(envelope):
    for index, sent in enumerate((envelope, envelope.with_idempotency_key())):
        data = sent.to_bytes()
        assert assert_body_identical(reference.decode_body(data), seed=index) == data
        assert Envelope.from_bytes(data) == sent
    canonical = reference.encode_body(
        {
            "type": envelope.message_type.value,
            "sender": envelope.sender,
            "recipient": envelope.recipient,
            "payload": sorted_keys(envelope.payload),
        }
    )
    assert envelope.content_key() == "ck-" + hashlib.sha256(canonical).hexdigest()[:24]


@pytest.mark.parametrize("message_type", list(MessageType))
@pytest.mark.parametrize("keyed", [False, True], ids=["keyless", "keyed"])
def test_every_message_type_round_trips_like_the_oracle(message_type, keyed):
    envelope = Envelope(
        message_type,
        "phone-1",
        "server",
        {"task_id": "server:task-1", "values": [1.5, -2, None, True], "n": 300},
    )
    if keyed:
        envelope = envelope.with_idempotency_key()
    body = {
        "type": message_type.value,
        "sender": "phone-1",
        "recipient": "server",
        "payload": envelope.payload,
    }
    if keyed:
        body["idem"] = envelope.idempotency_key
    assert envelope.to_bytes() == reference.encode_body(body)
    assert_body_identical(body, seed=list(MessageType).index(message_type))


# Content keys and keyed bodies written by the original codec: the
# dedupe table is durable, so neither may change.
PINNED = [
    (
        Envelope(
            MessageType.SENSED_DATA,
            "phone-7",
            "server",
            {
                "task_id": "server:task-3",
                "token": "tok-a",
                "status": "finished",
                "error": "",
                "bursts": [
                    {
                        "sensor": "temperature",
                        "t": 100.0,
                        "dt": 1.0,
                        "values": [70.0, 72.5, -3],
                    }
                ],
                "meta": {"z": None, "a": True, "b": b"\x00\xff", "n": 2**40},
            },
        ),
        "ck-0ec4e011d798e763c17a2374",
        "5352010805050474797065050b73656e7365645f64617461050673656e646572050770"
        "686f6e652d370509726563697069656e74050673657276657205077061796c6f6164"
        "080605077461736b5f6964050d7365727665723a7461736b2d330505746f6b656e05"
        "05746f6b2d610506737461747573050866696e697368656405056572726f72050005"
        "0662757273747307010804050673656e736f72050b74656d70657261747572650501"
        "7404405900000000000005026474043ff0000000000000050676616c756573070304"
        "4051800000000000044052200000000000030505046d657461080405017a00050161"
        "02050162060200ff05016e0380808080804005046964656d051b636b2d3065633465"
        "30313164373938653736336331376132333734",
    ),
    (
        Envelope(
            MessageType.RANK_QUERY,
            "client-1",
            "server",
            {
                "profiles": [
                    {
                        "name": "David",
                        "preferences": {
                            "temperature": {"preferred": 70.0, "weight": 5},
                            "noise": {"preferred": "min", "weight": 3},
                        },
                    }
                ],
                "category": "coffee_shop",
            },
        ),
        "ck-4ac949ad564f5bcddbd9d63d",
        "5352010805050474797065050a72616e6b5f7175657279050673656e646572050863"
        "6c69656e742d310509726563697069656e74050673657276657205077061796c6f61"
        "640802050870726f66696c65730701080205046e616d6505054461766964050b7072"
        "65666572656e6365730802050b74656d706572617475726508020509707265666572"
        "7265640440518000000000000506776569676874030a05056e6f6973650802050970"
        "726566657272656405036d696e05067765696768740306050863617465676f727905"
        "0b636f666665655f73686f7005046964656d051b636b2d3461633934396164353634"
        "66356263646462643964363364",
    ),
]


@pytest.mark.parametrize("envelope,key,keyed_hex", PINNED, ids=["sensed", "rank"])
def test_content_keys_and_keyed_bodies_are_pinned(envelope, key, keyed_hex):
    assert envelope.content_key() == key
    assert envelope.with_idempotency_key().to_bytes().hex() == keyed_hex


@settings(max_examples=60, deadline=None)
@given(
    fields=st.tuples(
        st.text(max_size=20),
        st.text(max_size=20),
        st.text(max_size=12),
        st.floats(-90, 90),
        st.floats(-180, 180),
        st.text(max_size=12),
        st.text(max_size=12),
    )
)
def test_barcode_payloads_match_the_oracle(fields):
    place_id, name, category, lat, lon, app_id, host = fields
    payload = PlacePayload(place_id, name, category, lat, lon, app_id, host)
    data = payload.to_bytes()
    assert data == reference.encode_value(list(fields))
    assert PlacePayload.from_bytes(data) == payload
    assert_malformed_agree(
        data, codec.decode_value, reference.decode_value, seed=len(data)
    )


class Colour(enum.IntEnum):
    RED = 3


class Name(str):
    pass


Pair = collections.namedtuple("Pair", "left right")


@pytest.mark.parametrize(
    "value",
    [
        Colour.RED,
        Name("hé"),
        np.float64(2.5),
        Pair(1, "x"),
        collections.OrderedDict([("b", 1), ("a", [2.0])]),
        {Name("key"): Name("value")},
        bytearray(b"\x01\x02"),
        [True, False, None, 0, -64, 63, -65, 64, 2**70, -(2**70)],
        "x" * 200,
        "é" * 100,
        list(range(300)),
    ],
    ids=lambda value: type(value).__name__,
)
def test_subclasses_and_long_values_encode_like_the_oracle(value):
    data = codec.encode_value(value)
    assert data == reference.encode_value(value)
    assert same(codec.decode_value(data), reference.decode_value(data))


@pytest.mark.parametrize("value", [object(), {1: "x"}, {None: 1}, memoryview(b"ab")])
def test_unencodable_values_are_codec_errors(value):
    with pytest.raises(CodecError):
        codec.encode_value(value)
    with pytest.raises(CodecError):
        reference.encode_value(value)


@pytest.mark.parametrize(
    "value",
    ["\ud800", "x" * 60 + "\udfff", Name("\ud800"), {"\ud800": 1}, ["ok", "\udc80"]],
    ids=["short", "long", "subclass", "key", "nested"],
)
def test_lone_surrogates_are_codec_errors(value):
    """A string with a lone surrogate has no UTF-8 form: both codecs refuse
    it with ``CodecError``, as a value and inside a body."""
    for encode in (codec.encode_value, reference.encode_value):
        with pytest.raises(CodecError):
            encode(value)
    for encode_body in (codec.encode_body, reference.encode_body):
        with pytest.raises(CodecError):
            encode_body({"payload": value})


def test_nan_bits_survive():
    nan = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
    data = codec.encode_value(nan)
    assert data == reference.encode_value(nan)
    assert math.isnan(codec.decode_value(data))
    assert codec.encode_value(codec.decode_value(data)) == data


@pytest.mark.parametrize("value", ["a long enough string", b"some raw bytes"])
def test_truncated_strings_and_bytes_say_so(value):
    data = codec.encode_value(value)[:-3]
    for decode in (codec.decode_value, reference.decode_value):
        with pytest.raises(CodecError, match="truncated"):
            decode(data)


class TestNesting:
    @staticmethod
    def nested(depth):
        return bytes((0x07, 0x01)) * depth + bytes((0x00,))

    def test_limit_is_exact(self):
        assert codec.decode_value(self.nested(codec.MAX_DEPTH)) is not None
        with pytest.raises(CodecError, match="deeper"):
            codec.decode_value(self.nested(codec.MAX_DEPTH + 1))

    def test_five_thousand_nested_lists_are_a_codec_error(self):
        body = codec.encode_body({"payload": {"deep": None}})[:-1] + self.nested(5000)
        assert len(body) > 10_000
        with pytest.raises(CodecError):
            codec.decode_body(body)
        with pytest.raises(CodecError):
            Envelope.from_bytes(body)


def test_string_cache_stays_bounded():
    for index in range(codec._STR_CACHE_ENTRIES * 2 + 7):
        codec.encode_value(f"s{index}")
    codec.encode_value("long" * 100)
    assert len(codec._str_cache) <= codec._STR_CACHE_ENTRIES
    assert "long" * 100 not in codec._str_cache
    assert codec.encode_value("s1") == reference.encode_value("s1")
