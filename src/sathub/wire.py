"""Binary direct-access protocol: little-endian, self-delimiting per opcode.

Client-originated messages:
    0x01 ADD_VARIABLE   (no payload)
    0x02 ADD_CLAUSE     u32 literal count, then count * i32 literals
    0x03 LOCK_VARS      (no payload)
    0x04 ADD_VARS       u32 count
    0x05 UNLOCK_VARS    (no payload)
    0x06 SNAPSHOT_REQUEST (no payload)

Server-originated messages (responses and hub synchronization):
    0x81 VAR_INDEX      u32 index
    0x83 LOCK_GRANTED   (no payload)
    0x84 FIRST_INDEX    u32 index
    0x86 SNAPSHOT       u32 var count, u32 clause count, clauses as ADD_CLAUSE payloads
    0x7F ERROR          u16 code, u16 message length, UTF-8 message

ADD_CLAUSE and ADD_VARS also flow server-to-client as synchronization
messages rebroadcast by the hub.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Sequence

ADD_VARIABLE = 0x01
ADD_CLAUSE = 0x02
LOCK_VARS = 0x03
ADD_VARS = 0x04
UNLOCK_VARS = 0x05
SNAPSHOT_REQUEST = 0x06
ERROR = 0x7F
VAR_INDEX = 0x81
LOCK_GRANTED = 0x83
FIRST_INDEX = 0x84
SNAPSHOT = 0x86

ERR_LOCKED = 1
ERR_MALFORMED = 2
ERR_OUT_OF_RANGE = 3

_MAX_COUNT = 1 << 24  # sanity cap on wire-declared element counts

# The largest variable an i32 literal can name; a memory never counts more.
MAX_VARIABLE = 2**31 - 1


class MalformedFrame(ValueError):
    """Frame violates the protocol layout."""


class ConnectionClosed(ConnectionError):
    """Peer closed the stream between messages."""


def encode_add_variable() -> bytes:
    return bytes([ADD_VARIABLE])


def encode_add_clause(literals: Sequence[int]) -> bytes:
    return (
        struct.pack("<BI", ADD_CLAUSE, len(literals))
        + struct.pack(f"<{len(literals)}i", *literals)
    )


def encode_lock_vars() -> bytes:
    return bytes([LOCK_VARS])


def encode_add_vars(n: int) -> bytes:
    return struct.pack("<BI", ADD_VARS, n)


def encode_unlock_vars() -> bytes:
    return bytes([UNLOCK_VARS])


def encode_snapshot_request() -> bytes:
    return bytes([SNAPSHOT_REQUEST])


def encode_var_index(index: int) -> bytes:
    return struct.pack("<BI", VAR_INDEX, index)


def encode_lock_granted() -> bytes:
    return bytes([LOCK_GRANTED])


def encode_first_index(index: int) -> bytes:
    return struct.pack("<BI", FIRST_INDEX, index)


def encode_snapshot(var_count: int, clauses: Iterable[Sequence[int]]) -> bytes:
    """One SNAPSHOT frame; ``clauses`` may be any iterable, read once."""
    parts = [b""]
    for clause in clauses:
        parts.append(struct.pack(f"<I{len(clause)}i", len(clause), *clause))
    parts[0] = struct.pack("<BII", SNAPSHOT, var_count, len(parts) - 1)
    return b"".join(parts)


def encode_error(code: int, message: str) -> bytes:
    data = message.encode("utf-8")
    return struct.pack("<BHH", ERROR, code, len(data)) + data


def _read_exact(stream: BinaryIO, n: int, midframe: bool) -> bytes:
    data = b""
    while len(data) < n:
        chunk = stream.read(n - len(data))
        if not chunk:
            if midframe or data:
                raise MalformedFrame("stream ended inside a frame")
            raise ConnectionClosed("peer closed the connection")
        data += chunk
    return data


def _read_u32(stream: BinaryIO) -> int:
    return struct.unpack("<I", _read_exact(stream, 4, True))[0]


def _read_clause_payload(stream: BinaryIO) -> list[int]:
    count = _read_u32(stream)
    if count > _MAX_COUNT:
        raise MalformedFrame(f"clause length {count} exceeds protocol cap")
    if count == 0:
        return []
    data = _read_exact(stream, 4 * count, True)
    return list(struct.unpack(f"<{count}i", data))


def read_message(stream: BinaryIO):
    """Read one message; returns (opcode, payload) with a decoded payload.

    Payloads: ADD_CLAUSE -> list of literals; ADD_VARS/VAR_INDEX/FIRST_INDEX
    -> int; SNAPSHOT -> (var_count, clause list); ERROR -> (code, message);
    others -> None. Raises ConnectionClosed at a clean end of stream and
    MalformedFrame on anything the layout does not allow.
    """
    opcode = _read_exact(stream, 1, False)[0]
    if opcode in (ADD_VARIABLE, LOCK_VARS, UNLOCK_VARS, SNAPSHOT_REQUEST, LOCK_GRANTED):
        return opcode, None
    if opcode == ADD_CLAUSE:
        return opcode, _read_clause_payload(stream)
    if opcode in (ADD_VARS, VAR_INDEX, FIRST_INDEX):
        return opcode, _read_u32(stream)
    if opcode == SNAPSHOT:
        var_count = _read_u32(stream)
        clause_count = _read_u32(stream)
        if clause_count > _MAX_COUNT:
            raise MalformedFrame(f"clause count {clause_count} exceeds protocol cap")
        clauses = [_read_clause_payload(stream) for _ in range(clause_count)]
        return opcode, (var_count, clauses)
    if opcode == ERROR:
        code, length = struct.unpack("<HH", _read_exact(stream, 4, True))
        message = _read_exact(stream, length, True).decode("utf-8", "replace")
        return opcode, (code, message)
    raise MalformedFrame(f"unknown opcode 0x{opcode:02x}")
