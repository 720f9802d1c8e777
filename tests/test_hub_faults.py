"""Fault injection at the hub with a fixed number of peers: a peer that dies
mid-frame, a lock holder that vanishes, and peers that never read."""

import logging
import socket
import threading
import time

import pytest

import sathub.service
from sathub import client, wire
from sathub.client import connect, parse_direct_url
from sathub.service import MemoryService


@pytest.fixture
def service():
    svc = MemoryService()
    yield svc
    svc.shutdown()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def raw_peer(obj, rcvbuf=None):
    """A bare socket to ``obj``'s hub, past its snapshot; with ``rcvbuf`` it
    is set before the connect, so the kernel window stays that small."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(10)
    sock.connect(parse_direct_url(obj.direct_url))
    stream = sock.makefile("rb")
    assert wire.read_message(stream)[0] == wire.SNAPSHOT
    return sock, stream


def big_batch(count=1000, width=1000):
    """``count`` distinct clauses of ``width`` literals over ``width + count``
    variables: about 4 MB of frames at the defaults."""
    return [list(range(1, width)) + [width + i] for i in range(1, count + 1)]


def test_a_peer_that_dies_mid_frame_stores_nothing_and_the_others_converge(service):
    obj = service.create_memory(4)
    a, b = connect(obj.direct_url), connect(obj.direct_url)
    sock, stream = raw_peer(obj)
    try:
        frame = wire.encode_add_clause([1, -2, 3])
        sock.sendall(frame[: len(frame) // 2])
        stream.close()
        sock.close()
        a.add_clauses([[1, 2], [-3]])
        b.add_clauses([[4]])
        want = {(1, 2), (-3,), (4,)}  # concurrent writers: one set, in either order
        assert wait_until(
            lambda: set(obj.view.clause_tuples()) == set(a.clause_tuples()) == set(b.clause_tuples()) == want
        )
        assert a.alive and b.alive
    finally:
        a.close(); b.close()
    assert (1, -2, 3) not in obj.view.clause_tuples()


def test_waiters_get_their_indices_in_order_once_the_lock_holder_vanishes(service):
    obj = service.create_memory(2)
    holder, stream = raw_peer(obj)
    holder.sendall(wire.encode_lock_vars())
    assert wire.read_message(stream)[0] == wire.LOCK_GRANTED
    first, second = connect(obj.direct_url), connect(obj.direct_url)
    got = {}

    def reserve(name, mirror, n):
        got[name] = (mirror.reserve_variables(n), time.monotonic())

    waiters = []
    try:
        for name, mirror, n in (("first", first, 3), ("second", second, 5)):
            waiters.append(threading.Thread(target=reserve, args=(name, mirror, n), daemon=True))
            waiters[-1].start()
            time.sleep(0.2)  # the first ADD_VARS reaches the hub before the second
        assert got == {}  # both wait behind the holder
        vanished = time.monotonic()
        stream.close()
        holder.close()
        for thread in waiters:
            thread.join(timeout=5)
        assert got["first"][0] == 3 and got["second"][0] == 6
        assert max(at for _, at in got.values()) - vanished < sathub.service.LOCK_TIMEOUT / 5
        assert wait_until(lambda: first.var_count == second.var_count == obj.view.var_count == 10)
    finally:
        first.close(); second.close()


def test_a_peer_that_never_reads_does_not_stall_a_reading_peer(service):
    batch = big_batch()
    obj = service.create_memory(2000)
    idle, idle_stream = raw_peer(obj, rcvbuf=4096)
    writer, reader = connect(obj.direct_url), connect(obj.direct_url)
    try:
        writer.add_clauses(batch)
        started = time.monotonic()
        writer.close()
        assert time.monotonic() - started < client.REQUEST_TIMEOUT / 3
        assert obj.view.version == len(batch)
        assert wait_until(lambda: reader.version == len(batch))
        assert reader.clause_tuples() == obj.view.clause_tuples()
    finally:
        reader.close()
        idle_stream.close(); idle.close()


def test_a_peer_past_the_outbound_limit_is_dropped(service, monkeypatch, caplog):
    monkeypatch.setattr(sathub.service, "OUTBOUND_LIMIT", 64 * 1024)
    # about 6 MB of frames: more than the kernel buffers of a peer that never reads
    batch = big_batch(count=1500)
    obj = service.create_memory(2500)
    idle, idle_stream = raw_peer(obj, rcvbuf=4096)
    writer, reader = connect(obj.direct_url), connect(obj.direct_url)
    try:
        with caplog.at_level(logging.WARNING, logger="sathub.service"):
            writer.add_clauses(batch)
            writer.close()
            assert wait_until(lambda: reader.version == len(batch))
            assert wait_until(lambda: caplog.records)
        assert reader.clause_tuples() == obj.view.clause_tuples()
        assert obj.view.version == len(batch)
        [record] = caplog.records
        assert (record.name, record.levelname) == ("sathub.service", "WARNING")
        assert obj.direct_url in record.getMessage() and "outbound" in record.getMessage()
        # the dropped peer reads what the kernel holds, then the end of the stream
        with pytest.raises((wire.ConnectionClosed, wire.MalformedFrame, ConnectionResetError)):
            while True:
                opcode, payload = wire.read_message(idle_stream)
                assert opcode == wire.ADD_CLAUSE  # no ERROR frame behind the backlog
        assert reader.alive
    finally:
        reader.close()
        idle_stream.close(); idle.close()
