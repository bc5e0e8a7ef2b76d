"""The message-body codec as first written: the oracle for :mod:`repro.net.codec`.

Nothing on the serving path imports this module. It is the original
value-by-value codec (an ``isinstance`` chain, a per-byte varint loop,
recursion per nested value), kept unchanged but for one typed error (a
string that is not valid UTF-8 raises ``CodecError``) so the tests can
pin the fast codec to it: every value the tests generate must encode to the
same bytes and decode to the same value, and every malformed body must
be refused by both. See :mod:`repro.net.codec` for the wire format.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.common.errors import CodecError

MAGIC = b"SR"
VERSION = 1

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08


def _encode_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    # Python ints are unbounded; generalized zig-zag keeps small magnitudes small.
    return value * 2 if value >= 0 else -value * 2 - 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _encode_varint(_zigzag(value), out)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, str):
        try:
            encoded = value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise CodecError(f"string is not valid UTF-8: {exc}") from None
        out.append(_TAG_STR)
        _encode_varint(len(encoded), out)
        out.extend(encoded)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _encode_varint(len(value), out)
        out.extend(value)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _encode_varint(len(value), out)
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        _encode_varint(len(value), out)
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dict keys must be str, got {key!r}")
            _encode_into(key, out)
            _encode_into(item, out)
    else:
        raise CodecError(f"cannot encode value of type {type(value).__name__}")


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
    if offset >= len(data):
        raise CodecError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _decode_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_FLOAT:
        if offset + 8 > len(data):
            raise CodecError("truncated float")
        (value,) = struct.unpack(">d", data[offset : offset + 8])
        return value, offset + 8
    if tag == _TAG_STR:
        length, offset = _decode_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated string")
        try:
            text = data[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid UTF-8 in string: {exc}") from exc
        return text, offset + length
    if tag == _TAG_BYTES:
        length, offset = _decode_varint(data, offset)
        if offset + length > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[offset : offset + length]), offset + length
    if tag == _TAG_LIST:
        count, offset = _decode_varint(data, offset)
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        count, offset = _decode_varint(data, offset)
        result: dict[str, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise CodecError(f"dict key must decode to str, got {key!r}")
            value, offset = _decode_from(data, offset)
            result[key] = value
        return result, offset
    raise CodecError(f"unknown tag byte 0x{tag:02x}")


def encode_value(value: Any) -> bytes:
    """Encode a single value (no body header)."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode a single value encoded by :func:`encode_value`."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def encode_body(payload: dict[str, Any]) -> bytes:
    """Encode a message-body dictionary with magic prefix and version."""
    if not isinstance(payload, dict):
        raise CodecError(f"body must be a dict, got {type(payload).__name__}")
    out = bytearray(MAGIC)
    out.append(VERSION)
    _encode_into(payload, out)
    return bytes(out)


def decode_body(data: bytes) -> dict[str, Any]:
    """Decode a message body produced by :func:`encode_body`."""
    if len(data) < 3 or data[:2] != MAGIC:
        raise CodecError("not a SOR message body (bad magic)")
    if data[2] != VERSION:
        raise CodecError(f"unsupported body version {data[2]}")
    value, offset = _decode_from(data, 3)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after body")
    if not isinstance(value, dict):
        raise CodecError("body did not decode to a dict")
    return value
