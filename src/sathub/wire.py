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
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

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

# Bytes a batched reader asks its socket for at a time.
READ_SIZE = 1 << 16

# Each opcode's fixed header, opcode byte included.
_HEADER = {
    **dict.fromkeys((ADD_VARIABLE, LOCK_VARS, UNLOCK_VARS, SNAPSHOT_REQUEST, LOCK_GRANTED), 1),
    **dict.fromkeys((ADD_CLAUSE, ADD_VARS, VAR_INDEX, FIRST_INDEX, ERROR), 5),
    SNAPSHOT: 9,
}

# The largest variable an i32 literal can name; a memory never counts more.
MAX_VARIABLE = 2**31 - 1


class MalformedFrame(ValueError):
    """Frame violates the protocol layout."""


class ConnectionClosed(ConnectionError):
    """Peer closed the stream between messages."""


def encode_add_variable() -> bytes:
    return bytes([ADD_VARIABLE])


def encode_add_clause(literals: Sequence[int]) -> bytes:
    count = len(literals)
    return _CLAUSE_FRAME[count](ADD_CLAUSE, count, *literals)


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
        count = len(clause)
        parts.append(_SNAPSHOT_CLAUSE[count](count, *clause))
    parts[0] = struct.pack("<BII", SNAPSHOT, var_count, len(parts) - 1)
    return b"".join(parts)


def encode_error(code: int, message: str) -> bytes:
    data = message.encode("utf-8")
    return struct.pack("<BHH", ERROR, code, len(data)) + data


_U32 = struct.Struct("<I").unpack_from


class _ByCount(dict):
    """A ``struct.Struct`` method for a format of ``count`` i32 literals, by
    count; a short count's format is compiled once."""

    def __init__(self, fmt: str, method: str) -> None:
        super().__init__()
        self._fmt = fmt
        self._method = method

    def __missing__(self, count: int):
        func = getattr(struct.Struct(self._fmt.format(count)), self._method)
        if count <= 64:
            self[count] = func
        return func


_LITERALS = _ByCount("<{}i", "unpack_from")
_CLAUSE_FRAME = _ByCount("<BI{}i", "pack")
_SNAPSHOT_CLAUSE = _ByCount("<I{}i", "pack")


class FrameDecoder:
    """Decodes the frames of one byte stream, a buffer at a time.

    ``decode(buf)`` returns the messages that ``buf`` completes, in order,
    the number of leading bytes it used, and the ``MalformedFrame`` that
    stopped it, if any (the messages before the bad frame are still
    returned). The caller drops the used bytes and passes the rest again
    with the bytes read after them. A ``SNAPSHOT`` is used clause by clause:
    the decoder keeps the clauses decoded so far, so one that spans many
    reads costs time linear in its size. After each call ``need`` is the
    number of bytes past the end of ``buf`` that the next frame, or the
    next part of a ``SNAPSHOT``, certainly still takes.
    """

    def __init__(self) -> None:
        self.need = 1
        self._snapshot: Optional[tuple[int, list[list[int]]]] = None
        self._snapshot_left = 0

    def ended(self, buf: bytes) -> Exception:
        """The error for a stream that ends after ``buf``'s unused bytes."""
        if buf or self._snapshot is not None:
            return MalformedFrame("stream ended inside a frame")
        return ConnectionClosed("peer closed the connection")

    def decode(self, buf: bytearray) -> tuple[list, int, Optional[MalformedFrame]]:
        out: list = []
        pos = 0
        end = len(buf)
        need = 1
        try:
            if self._snapshot is not None:
                pos, need = self._snapshot_clauses(buf, pos, out)
            while pos < end and self._snapshot is None:
                opcode = buf[pos]
                head = _HEADER.get(opcode)
                if head is None:
                    raise MalformedFrame(f"unknown opcode 0x{opcode:02x}")
                if end - pos < head:
                    need = head - (end - pos)
                    break
                if opcode == ADD_CLAUSE:
                    count = _U32(buf, pos + 1)[0]
                    if count > _MAX_COUNT:
                        raise MalformedFrame(f"clause length {count} exceeds protocol cap")
                    stop = pos + 5 + 4 * count
                    if stop > end:
                        need = stop - end
                        break
                    out.append((opcode, list(_LITERALS[count](buf, pos + 5))))
                    pos = stop
                elif head == 1:
                    out.append((opcode, None))
                    pos += 1
                elif opcode == SNAPSHOT:
                    var_count, clause_count = struct.unpack_from("<II", buf, pos + 1)
                    if clause_count > _MAX_COUNT:
                        raise MalformedFrame(f"clause count {clause_count} exceeds protocol cap")
                    self._snapshot = (var_count, [])
                    self._snapshot_left = clause_count
                    pos, need = self._snapshot_clauses(buf, pos + 9, out)
                elif opcode == ERROR:
                    code, length = struct.unpack_from("<HH", buf, pos + 1)
                    stop = pos + 5 + length
                    if stop > end:
                        need = stop - end
                        break
                    out.append((opcode, (code, buf[pos + 5:stop].decode("utf-8", "replace"))))
                    pos = stop
                else:
                    out.append((opcode, _U32(buf, pos + 1)[0]))
                    pos += 5
        except MalformedFrame as exc:
            return out, pos, exc
        self.need = need
        return out, pos, None

    def _snapshot_clauses(self, buf: bytearray, pos: int, out: list) -> tuple[int, int]:
        """Decode the open ``SNAPSHOT``'s clauses from ``pos``, appending the
        message once it is whole; returns the position after the last whole
        clause and the ``need`` there (1 once the message is whole)."""
        var_count, clauses = self._snapshot
        end = len(buf)
        left = self._snapshot_left
        need = 1
        while left:
            if end - pos < 4:
                need = 4 - (end - pos)
                break
            count = _U32(buf, pos)[0]
            if count > _MAX_COUNT:
                raise MalformedFrame(f"clause length {count} exceeds protocol cap")
            stop = pos + 4 + 4 * count
            if stop > end:
                # the next clause's length is part of the frame too
                need = stop - end + (4 if left > 1 else 0)
                break
            clauses.append(list(_LITERALS[count](buf, pos + 4)))
            pos = stop
            left -= 1
        self._snapshot_left = left
        if not left:
            out.append((SNAPSHOT, (var_count, clauses)))
            self._snapshot = None
        return pos, need


def read_batches(read: Callable[[int], bytes], size: Optional[int] = READ_SIZE) -> Iterator[list]:
    """Yield the messages that each ``read(size)`` completes, in stream order.

    Raises ``ConnectionClosed`` at a clean end of stream and
    ``MalformedFrame`` at a bad frame or one the stream ends inside, in both
    cases after yielding every message before it. With ``size=None`` each
    read asks for no more than the next frame still takes, so no byte past
    a message is read before it is yielded.
    """
    decoder = FrameDecoder()
    buf = bytearray()
    while True:
        data = read(size or decoder.need)
        if not data:
            raise decoder.ended(buf)
        buf += data
        messages, used, error = decoder.decode(buf)
        del buf[:used]
        if messages:
            yield messages
        if error is not None:
            raise error


def read_message(stream: BinaryIO):
    """Read one message; returns (opcode, payload) with a decoded payload.

    Payloads: ADD_CLAUSE -> list of literals; ADD_VARS/VAR_INDEX/FIRST_INDEX
    -> int; SNAPSHOT -> (var_count, clause list); ERROR -> (code, message);
    others -> None. Raises ConnectionClosed at a clean end of stream and
    MalformedFrame on anything the layout does not allow. Reads no byte
    past the message.
    """
    for messages in read_batches(stream.read, None):
        return messages[0]  # exact reads complete one message at a time
