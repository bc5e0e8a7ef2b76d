"""Type-tagged binary encoding for SOR message bodies.

The wire format is deliberately simple and self-describing:

========  =======================================================
tag byte  payload
========  =======================================================
``0x00``  None
``0x01``  False
``0x02``  True
``0x03``  int — zig-zag varint
``0x04``  float — 8-byte IEEE-754 big-endian
``0x05``  str — varint byte length + UTF-8 bytes
``0x06``  bytes — varint length + raw bytes
``0x07``  list — varint count + encoded items
``0x08``  dict — varint count + (encoded str key, encoded value)*
========  =======================================================

Bodies produced by :func:`encode_body` carry a 2-byte magic prefix and a
format version so a receiver can reject third-party traffic early — the
paper notes the opaque encoding also serves as a (weak) privacy layer.

The encoder dispatches on ``type(value)``; a subclass of a supported
type (``bool`` aside) falls back to the ``isinstance`` chain and encodes
as its base type. Short strings keep their encoding in a bounded cache,
since every body repeats the same keys, hosts and place ids. The
decoder runs inside one ``try``: a truncated or malformed body, and one
whose containers nest more than :data:`MAX_DEPTH` deep, raises
:class:`~repro.common.errors.CodecError` and nothing else. Both sides
write and accept the bytes of the original value-by-value codec, which
:mod:`repro.net.reference` keeps as the tests' oracle.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.common.errors import CodecError

MAGIC = b"SR"
VERSION = 1

#: Deepest container nesting a body may have. A SOR message nests a few
#: levels; the limit refuses a hostile body before it can exhaust the
#: interpreter's stack here or in code that walks the decoded payload.
MAX_DEPTH = 100

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08

_HEADER = MAGIC + bytes((VERSION,))
_pack_tagged_float = struct.Struct(">Bd").pack
_unpack_float = struct.Struct(">d").unpack_from

#: Encoded ints in [-64, 64): their zig-zag varint fits one byte.
_SMALL_INTS = [bytes((_TAG_INT, 2 * v if v >= 0 else -2 * v - 1)) for v in range(-64, 64)]

#: Encoded strings of at most this many characters are cached, up to
#: this many entries; a full cache is emptied and refilled.
_STR_CACHE_CHARS = 48
_STR_CACHE_ENTRIES = 4096
_str_cache: dict[str, bytes] = {}


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def _encode_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise CodecError(f"varint must be non-negative, got {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _encode_str(value: str) -> bytes:
    """Tag, length and UTF-8 bytes of ``value`` (cached when short)."""
    encoded = _str_cache.get(value)
    if encoded is None:
        try:
            raw = value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise CodecError(f"string is not valid UTF-8: {exc}") from None
        if len(raw) < 0x80:
            encoded = bytes((_TAG_STR, len(raw))) + raw
        else:
            prefix = bytearray((_TAG_STR,))
            _encode_varint(len(raw), prefix)
            encoded = bytes(prefix) + raw
        if len(value) <= _STR_CACHE_CHARS:
            if len(_str_cache) >= _STR_CACHE_ENTRIES:
                _str_cache.clear()
            _str_cache[value] = encoded
    return encoded


def _encode_into(value: Any, out: bytearray) -> None:
    cls = type(value)
    if cls is str:
        out += _encode_str(value)
    elif cls is dict:
        count = len(value)
        out.append(_TAG_DICT)
        if count < 0x80:
            out.append(count)
        else:
            _encode_varint(count, out)
        for key, item in value.items():
            if type(key) is str:
                out += _encode_str(key)
            elif isinstance(key, str):
                _encode_subclass(key, out)
            else:
                raise CodecError(f"dict keys must be str, got {key!r}")
            _encode_into(item, out)
    elif cls is float:
        out += _pack_tagged_float(_TAG_FLOAT, value)
    elif cls is int:
        if -64 <= value < 64:
            out += _SMALL_INTS[value + 64]
        else:
            out.append(_TAG_INT)
            _encode_varint(value * 2 if value >= 0 else -value * 2 - 1, out)
    elif cls is list or cls is tuple:
        count = len(value)
        out.append(_TAG_LIST)
        if count < 0x80:
            out.append(count)
        else:
            _encode_varint(count, out)
        for item in value:
            _encode_into(item, out)
    elif value is None:
        out.append(_TAG_NONE)
    elif cls is bool:
        out.append(_TAG_TRUE if value else _TAG_FALSE)
    elif cls is bytes or cls is bytearray:
        out.append(_TAG_BYTES)
        _encode_varint(len(value), out)
        out += value
    else:
        _encode_subclass(value, out)


def _encode_subclass(value: Any, out: bytearray) -> None:
    """The ``isinstance`` chain, for subclasses of the supported types."""
    if isinstance(value, int):
        out.append(_TAG_INT)
        _encode_varint(value * 2 if value >= 0 else -value * 2 - 1, out)
    elif isinstance(value, float):
        out += _pack_tagged_float(_TAG_FLOAT, value)
    elif isinstance(value, str):
        try:
            encoded = value.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate
            raise CodecError(f"string is not valid UTF-8: {exc}") from None
        out.append(_TAG_STR)
        _encode_varint(len(encoded), out)
        out += encoded
    elif isinstance(value, (bytes, bytearray)):
        out.append(_TAG_BYTES)
        _encode_varint(len(value), out)
        out += value
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


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
# The decoder indexes past the end of a truncated body instead of
# checking first; decode_value and decode_body turn the IndexError (and
# struct.error, UnicodeDecodeError) into CodecError. Slices do not
# raise when they run short, so strings and bytes check their length.
def _decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _decode_str(data: bytes, offset: int) -> tuple[str, int]:
    """A string's length and bytes, from just past its tag."""
    length = data[offset]
    if length < 0x80:
        offset += 1
    else:
        length, offset = _decode_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise CodecError("truncated string")
    return data[offset:end].decode("utf-8"), end


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    tag = data[offset]
    offset += 1
    if tag == _TAG_STR:
        return _decode_str(data, offset)
    if tag == _TAG_FLOAT:
        return _unpack_float(data, offset)[0], offset + 8
    if tag == _TAG_INT:
        raw = data[offset]
        if raw < 0x80:
            offset += 1
        else:
            raw, offset = _decode_varint(data, offset)
        return (raw >> 1) ^ -(raw & 1), offset
    if tag == _TAG_DICT or tag == _TAG_LIST:
        if depth >= MAX_DEPTH:
            raise CodecError(f"containers nest deeper than {MAX_DEPTH}")
        count = data[offset]
        if count < 0x80:
            offset += 1
        else:
            count, offset = _decode_varint(data, offset)
        depth += 1
        # Strings, the commonest item, are decoded in the loop itself.
        if tag == _TAG_LIST:
            items = []
            for _ in range(count):
                if data[offset] == _TAG_STR:
                    item, offset = _decode_str(data, offset + 1)
                else:
                    item, offset = _decode_from(data, offset, depth)
                items.append(item)
            return items, offset
        result: dict[str, Any] = {}
        for _ in range(count):
            if data[offset] != _TAG_STR:
                raise CodecError("dict key must decode to str")
            key, offset = _decode_str(data, offset + 1)
            if data[offset] == _TAG_STR:
                result[key], offset = _decode_str(data, offset + 1)
            else:
                result[key], offset = _decode_from(data, offset, depth)
        return result, offset
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_BYTES:
        length, offset = _decode_varint(data, offset)
        end = offset + length
        if end > len(data):
            raise CodecError("truncated bytes")
        return bytes(data[offset:end]), end
    raise CodecError(f"unknown tag byte 0x{tag:02x}")


def _decode_all(data: bytes, offset: int, what: str) -> Any:
    """Decode the one value at ``offset`` that must end ``data``."""
    try:
        value, offset = _decode_from(data, offset, 0)
    except (IndexError, struct.error):
        raise CodecError(f"truncated {what}") from None
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid UTF-8 in string: {exc}") from None
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after {what}")
    return value


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def encode_value(value: Any) -> bytes:
    """Encode a single value (no body header)."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Decode a single value encoded by :func:`encode_value`."""
    return _decode_all(data, 0, "value")


def encode_body(payload: dict[str, Any]) -> bytes:
    """Encode a message-body dictionary with magic prefix and version."""
    if not isinstance(payload, dict):
        raise CodecError(f"body must be a dict, got {type(payload).__name__}")
    out = bytearray(_HEADER)
    _encode_into(payload, out)
    return bytes(out)


def decode_body(data: bytes) -> dict[str, Any]:
    """Decode a message body produced by :func:`encode_body`."""
    if len(data) < 3 or data[:2] != MAGIC:
        raise CodecError("not a SOR message body (bad magic)")
    if data[2] != VERSION:
        raise CodecError(f"unsupported body version {data[2]}")
    value = _decode_all(data, 3, "body")
    if not isinstance(value, dict):
        raise CodecError("body did not decode to a dict")
    return value
