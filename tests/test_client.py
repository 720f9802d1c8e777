import logging
import socket
import threading
import time

import pytest

from sathub import wire
from sathub.client import MemoryMirror, connect
from sathub.cnf import ClauseRangeError
from sathub.service import MemoryService


@pytest.fixture
def service():
    svc = MemoryService()
    yield svc
    svc.shutdown()


def wait_until(predicate, timeout=10.0, interval=0.002):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def all_distinct_clauses(n_vars, count):
    """First ``count`` distinct canonical 3-literal clauses in a fixed order."""
    import itertools

    out = []
    for vars_ in itertools.combinations(range(1, n_vars + 1), 3):
        for signs in itertools.product((1, -1), repeat=3):
            clause = sorted(
                (v * s for v, s in zip(vars_, signs)), key=lambda l: (abs(l), l > 0)
            )
            out.append(clause)
            if len(out) == count:
                return out
    raise ValueError(f"cannot produce {count} clauses over {n_vars} variables")


def test_clause_convergence_two_mirrors(service):
    obj = service.create_memory(3)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        a.add_clause_direct([1, -2])
        assert wait_until(lambda: b.clauses() == [[1, -2]])
    finally:
        a.close(); b.close()


def test_four_clients_converge_to_identical_sets(service):
    obj = service.create_memory(30)
    mirrors = [connect(obj.direct_url) for _ in range(4)]
    clauses = all_distinct_clauses(30, 400)
    parts = [clauses[i::4] for i in range(4)]
    try:
        def inject(mirror, chunk):
            for clause in chunk:
                mirror.add_clause_direct(clause)

        threads = [
            threading.Thread(target=inject, args=(m, p), daemon=True)
            for m, p in zip(mirrors, parts)
        ]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = {tuple(c) for c in clauses}
        assert wait_until(
            lambda: all(set(m.clause_tuples()) == expected for m in mirrors)
        )
        elapsed = time.monotonic() - start
        assert set(obj.view.clause_tuples()) == expected
        for m in mirrors:
            mirrored = m.clause_tuples()
            assert len(mirrored) == len(expected)  # zero duplicates
        assert elapsed < 5.0
    finally:
        for m in mirrors:
            m.close()


def test_concurrent_reserve_ranges_disjoint(service):
    obj = service.create_memory(4)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        results = {}

        def reserve(name, mirror):
            results[name] = mirror.reserve_variables(4)

        ta = threading.Thread(target=reserve, args=("a", a), daemon=True)
        tb = threading.Thread(target=reserve, args=("b", b), daemon=True)
        ta.start(); tb.start()
        ta.join(timeout=10); tb.join(timeout=10)
        ranges = sorted((results["a"], results["b"]))
        assert ranges == [5, 9]
        assert obj.view.var_count == 12
    finally:
        a.close(); b.close()


def test_reserve_stress_repeated(service):
    # many rounds of concurrent reservations: ranges never overlap
    obj = service.create_memory(0)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        seen: set[int] = set()
        for _ in range(100):
            results = []

            def reserve(mirror):
                results.append(mirror.reserve_variables(4))

            threads = [
                threading.Thread(target=reserve, args=(m,), daemon=True) for m in (a, b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            for first in results:
                block = set(range(first, first + 4))
                assert not (block & seen)
                seen |= block
    finally:
        a.close(); b.close()


def test_duplicate_send_is_noop_everywhere(service):
    obj = service.create_memory(2)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        assert a.add_clause_direct([1, 2]) is True
        assert a.add_clause_direct([2, 1]) is False  # local no-op, still sent
        assert wait_until(lambda: b.clauses() == [[1, 2]])
        time.sleep(0.05)
        assert obj.view.clauses() == [[1, 2]]
    finally:
        a.close(); b.close()


def test_interleaved_variables_and_clauses_converge(service):
    obj = service.create_memory(1)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        first = a.reserve_variables(2)  # vars 2..3
        a.add_clause_direct([1, first])
        second = b.reserve_variables(1)  # var 4
        b.add_clause_direct([-second])
        assert wait_until(lambda: a.var_count == 4 and b.var_count == 4)
        assert wait_until(
            lambda: set(a.clause_tuples()) == {(1, 2), (-4,)}
            and set(b.clause_tuples()) == {(1, 2), (-4,)}
        )
    finally:
        a.close(); b.close()


def test_mirror_evaluate_delegates(service):
    obj = service.create_memory(2)
    obj.view.add_clause([1, 2])
    mirror = connect(obj.direct_url)
    try:
        assert mirror.evaluate([True, False]) is True
        assert mirror.evaluate([False, False]) is False
    finally:
        mirror.close()


def test_mirror_keeps_why_its_stream_ended_and_logs_a_protocol_fault(caplog):
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def hub():
        sock, _ = listener.accept()
        accepted.append(sock)
        sock.sendall(wire.encode_snapshot(1, [[1]]) + bytes([0x55]))

    thread = threading.Thread(target=hub, daemon=True)
    thread.start()
    caplog.set_level(logging.WARNING, logger="sathub.client")
    mirror = connect(f"tcp://127.0.0.1:{listener.getsockname()[1]}")
    try:
        assert wait_until(lambda: not mirror.alive)
        assert mirror.lost == "MalformedFrame: unknown opcode 0x55"
        records = [r for r in caplog.records if r.name == "sathub.client"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert mirror.lost in records[0].getMessage()
    finally:
        thread.join(timeout=5)
        for sock in accepted:
            sock.close()
        mirror.close()
        listener.close()


def test_mirror_of_a_deleted_memory_is_lost_cleanly_without_a_log(service, caplog):
    caplog.set_level(logging.WARNING, logger="sathub.client")
    obj = service.create_memory(1)
    mirror = connect(obj.direct_url)
    try:
        assert mirror.lost is None
        service.delete_memory(obj.object_id)
        assert wait_until(lambda: not mirror.alive)
        assert mirror.lost.startswith("ConnectionClosed: ")
        assert not [r for r in caplog.records if r.name == "sathub.client"]
    finally:
        mirror.close()


def test_a_mirror_batch_goes_out_in_one_write_and_reaches_a_watcher_in_order(service):
    obj = service.create_memory(4)
    writer, watcher = connect(obj.direct_url), connect(obj.direct_url)
    try:
        writer.add_clause_direct([2, 1])
        assert wait_until(lambda: watcher.version == 1)
        sends = []
        send = writer._writer.send
        writer._writer.send = lambda data: sends.append(data) or send(data)
        batch = [[-4, 3], [1, 2], [4, -1, 2], [3, -4], [2, 2, -3]]
        assert writer.add_clauses(batch) == [True, False, True, False, True]
        assert writer.add_clauses([]) == []
        assert len(sends) == 1
        assert wait_until(lambda: watcher.version == 4)
        expected = [(1, 2), (3, -4), (-1, 2, 4), (2, -3)]
        assert watcher.clause_tuples() == expected
        assert writer.clause_tuples() == expected
        assert obj.view.clause_tuples() == expected
    finally:
        writer.close(); watcher.close()


@pytest.mark.parametrize(
    "batch, error",
    [
        ([[1, 2], [-5, 1], [3]], ClauseRangeError),
        ([[1, 2], [0, 1], [3]], ValueError),
        ([[1, 2], [], [3]], ValueError),
        ([[1], [9], [True]], ClauseRangeError),  # the first refused clause's error
    ],
)
def test_a_mirror_batch_with_a_bad_clause_raises_and_writes_nothing(service, batch, error):
    obj = service.create_memory(4)
    mirror = connect(obj.direct_url)
    try:
        mirror.add_clause_direct([4])
        sends = []
        send = mirror._writer.send
        mirror._writer.send = lambda data: sends.append(data) or send(data)
        with pytest.raises(error) as raised:
            mirror.add_clauses(batch)
        assert type(raised.value) is error
        assert sends == []
        assert mirror.clause_tuples() == [(4,)]
        # the hub answers in frame order: once the snapshot is back, it holds all it got
        _, clauses = mirror.request_snapshot()
        assert clauses == [[4]]
        assert obj.view.clause_tuples() == [(4,)]
    finally:
        mirror.close()


def fake_hub_mirror(var_count, clauses=()):
    """A mirror over one end of a socket pair whose other end plays the hub."""
    hub, end = socket.socketpair()
    hub.sendall(wire.encode_snapshot(var_count, clauses))
    return hub, MemoryMirror(end, "tcp://fake:1")


def test_a_mirror_applies_a_read_of_clause_runs_around_added_variables():
    hub, mirror = fake_hub_mirror(2, [[1]])
    try:
        hub.sendall(
            wire.encode_add_clause([1, 2])
            + wire.encode_add_clause([-1, -2])
            + wire.encode_add_clause([1, 2])  # a duplicate
            + wire.encode_add_vars(2)
            + wire.encode_add_clause([-2, 4])
            + wire.encode_add_clause([3])
        )
        assert wait_until(lambda: mirror.version == 5)
        assert mirror.var_count == 4
        assert mirror.clause_tuples() == [(1,), (1, 2), (-1, -2), (-2, 4), (3,)]
        assert mirror.alive
    finally:
        hub.close()
        mirror.close()


def test_an_out_of_range_clause_mid_run_ends_the_mirror():
    hub, mirror = fake_hub_mirror(2)
    try:
        hub.sendall(
            wire.encode_add_clause([1])
            + wire.encode_add_clause([-3, 1])
            + wire.encode_add_clause([2])
        )
        assert wait_until(lambda: not mirror.alive)
        assert mirror.lost == "ClauseRangeError: literal -3 out of range (var count 2)"
        with pytest.raises(ConnectionError):
            mirror.add_clause_direct([1, 2])
    finally:
        hub.close()
        mirror.close()


@pytest.mark.parametrize(
    "bad, lost",
    [
        ([-3, 1], "ClauseRangeError: literal -3 out of range (var count 2)"),
        ([], "ValueError: empty clause"),
    ],
)
def test_a_refused_clause_mid_run_stores_only_the_clauses_before_it(bad, lost):
    hub, mirror = fake_hub_mirror(2)
    try:
        hub.sendall(
            wire.encode_add_clause([1])
            + wire.encode_add_clause(bad)
            + wire.encode_add_clause([2])
        )
        assert wait_until(lambda: not mirror.alive)
        assert mirror.lost == lost
        assert mirror.clause_tuples() == [(1,)]
    finally:
        hub.close()
        mirror.close()
