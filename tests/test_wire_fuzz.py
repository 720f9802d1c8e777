"""Property tests of the one frame decoder: pieces, garbage and slow snapshots."""

import io

from hypothesis import given, settings, strategies as st

from sathub import wire

U32 = st.integers(0, 2**32 - 1)
LITERALS = st.lists(st.integers(-(2**31), 2**31 - 1), max_size=6)

BARE = [wire.ADD_VARIABLE, wire.LOCK_VARS, wire.UNLOCK_VARS, wire.SNAPSHOT_REQUEST, wire.LOCK_GRANTED]

MESSAGES = st.one_of(
    st.tuples(st.sampled_from(BARE), st.none()),
    LITERALS.map(lambda literals: (wire.ADD_CLAUSE, literals)),
    st.tuples(st.sampled_from([wire.ADD_VARS, wire.VAR_INDEX, wire.FIRST_INDEX]), U32),
    st.tuples(st.just(wire.SNAPSHOT), st.tuples(U32, st.lists(LITERALS, max_size=8))),
    st.tuples(st.just(wire.ERROR), st.tuples(st.integers(0, 2**16 - 1), st.text(max_size=20))),
)

ENCODE = {
    wire.ADD_VARIABLE: lambda _: wire.encode_add_variable(),
    wire.LOCK_VARS: lambda _: wire.encode_lock_vars(),
    wire.UNLOCK_VARS: lambda _: wire.encode_unlock_vars(),
    wire.SNAPSHOT_REQUEST: lambda _: wire.encode_snapshot_request(),
    wire.LOCK_GRANTED: lambda _: wire.encode_lock_granted(),
    wire.ADD_CLAUSE: wire.encode_add_clause,
    wire.ADD_VARS: wire.encode_add_vars,
    wire.VAR_INDEX: wire.encode_var_index,
    wire.FIRST_INDEX: wire.encode_first_index,
    wire.SNAPSHOT: lambda payload: wire.encode_snapshot(*payload),
    wire.ERROR: lambda payload: wire.encode_error(*payload),
}


def cut(data: bytes, points: list[int]) -> list[bytes]:
    bounds = [0, *sorted(p % (len(data) + 1) for p in points), len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


def read_pieces(pieces: list[bytes]):
    """Messages ``read_batches`` yields when each read returns the next piece,
    and the exception that ends the stream."""
    reads = iter([*pieces, b""])
    messages = []
    try:
        for batch in wire.read_batches(lambda size: next(reads)):
            messages.extend(batch)
    except (wire.MalformedFrame, wire.ConnectionClosed) as exc:
        return messages, exc


def read_whole(data: bytes):
    """Messages ``read_message`` returns one by one, and the exception that ends the stream."""
    stream = io.BytesIO(data)
    messages = []
    try:
        while True:
            messages.append(wire.read_message(stream))
    except (wire.MalformedFrame, wire.ConnectionClosed) as exc:
        return messages, exc


@settings(max_examples=200, deadline=None)
@given(st.lists(MESSAGES, max_size=8), st.lists(st.integers(0, 10**6), max_size=12))
def test_valid_frames_cut_anywhere_decode_as_read_message_does(messages, points):
    data = b"".join(ENCODE[opcode](payload) for opcode, payload in messages)
    whole, end = read_whole(data)
    assert whole == messages
    assert isinstance(end, wire.ConnectionClosed)
    pieced, end = read_pieces(cut(data, points))
    assert pieced == messages
    assert isinstance(end, wire.ConnectionClosed)


@settings(max_examples=200, deadline=None)
@given(st.lists(MESSAGES, min_size=1, max_size=6))
def test_read_message_reads_no_byte_past_its_message(messages):
    frames = [ENCODE[opcode](payload) for opcode, payload in messages]
    stream = io.BytesIO(b"".join(frames))
    for frame, message in zip(frames, messages):
        start = stream.tell()
        assert wire.read_message(stream) == message
        assert stream.tell() - start == len(frame)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.lists(st.integers(0, 10**6), max_size=12))
def test_arbitrary_bytes_give_only_messages_or_a_malformed_frame(data, points):
    whole, whole_end = read_whole(data)
    pieced, pieced_end = read_pieces(cut(data, points))
    assert pieced == whole
    assert type(pieced_end) is type(whole_end)


@settings(max_examples=50, deadline=None)
@given(st.tuples(U32, st.lists(LITERALS, max_size=8)))
def test_a_snapshot_fed_one_byte_at_a_time_decodes_exactly_once(payload):
    decoder = wire.FrameDecoder()
    buf = bytearray()
    decoded = []
    for byte in wire.encode_snapshot(*payload) + wire.encode_add_vars(2):
        buf.append(byte)
        messages, used, error = decoder.decode(buf)
        assert error is None
        del buf[:used]
        decoded.extend(messages)
    assert decoded == [(wire.SNAPSHOT, payload), (wire.ADD_VARS, 2)]
    assert not buf
