import gc
import socket
import threading
import time
import weakref
from types import SimpleNamespace

import pytest

import sathub.service
from sathub import wire
from sathub.client import LockTimeout, MemoryMirror, MirrorProtocolError, connect, parse_direct_url
from sathub.cnf import ClauseRangeError
from sathub.node import ServerNode
from sathub.service import MemoryService, NoSuchMemory
from sathub.solving import SolverWorker


@pytest.fixture
def service():
    svc = MemoryService()
    yield svc
    svc.shutdown()


def call(svc, method, object_ref="", argument=None, web_pid="test"):
    return ServerNode.handle_web_call(
        SimpleNamespace(memory=svc, registry=None),
        {"method": method, "webPid": web_pid, "objectRef": object_ref, "argument": argument or {}},
    )


def wait_until(predicate, timeout=5.0, interval=0.002):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- web-call dispatch ------------------------------------------------------


def test_create_memory_contract(service):
    obj = service.create_memory(8)
    assert obj.view.var_count == 8
    assert obj.view.clauses() == []
    other = service.create_memory(0)
    assert other.object_id != obj.object_id
    assert other.direct_url != obj.direct_url


def test_web_call_add_clause_and_clauses(service):
    created = call(service, "SatCnf.create", argument={"initialVariableCount": 3})
    ref = created["objectRef"]
    assert call(service, "SatCnf.addClause", ref, {"clause": [1, -2]}) == {"added": True}
    assert call(service, "SatCnf.addClause", ref, {"clause": [-2, 1]}) == {"added": False}
    assert call(service, "SatCnf.clauses", ref) == {"clauses": [[1, -2]]}


def test_web_call_add_variable(service):
    ref = call(service, "SatCnf.create", argument={"initialVariableCount": 2})["objectRef"]
    assert call(service, "SatCnf.addVariable", ref) == {"index": 3}
    assert call(service, "SatCnf.addVariable", ref) == {"index": 4}


def test_unknown_method_and_object(service):
    ref = call(service, "SatCnf.create")["objectRef"]
    assert call(service, "SatCnf.frobnicate", ref) == {"error": "NO_SUCH_METHOD"}
    assert call(service, "Widget.poke", ref) == {"error": "NO_SUCH_METHOD"}
    assert call(service, "SatCnf.clauses", "missing") == {"error": "NO_SUCH_OBJECT"}


def test_core_errors_surface_in_error_field(service):
    ref = call(service, "SatCnf.create", argument={"initialVariableCount": 2})["objectRef"]
    result = call(service, "SatCnf.addClause", ref, {"clause": [5]})
    assert "error" in result
    result = call(service, "SatCnf.addClause", ref, {"clause": []})
    assert "error" in result


def test_delete_lifecycle(service):
    ref = call(service, "SatCnf.create")["objectRef"]
    assert call(service, "SatCnf.delete", ref) == {}
    assert call(service, "SatCnf.clauses", ref) == {"error": "NO_SUCH_OBJECT"}
    assert call(service, "SatCnf.delete", ref) == {"error": "NO_SUCH_OBJECT"}


def test_fork_web_call_returns_new_endpoint(service):
    created = call(service, "SatCnf.create", argument={"initialVariableCount": 2})
    ref = created["objectRef"]
    call(service, "SatCnf.addClause", ref, {"clause": [1]})
    forked = call(service, "SatCnf.fork", ref, {"detach": False})
    assert forked["forkId"] != ref
    assert forked["directUrl"] != created["directUrl"]
    assert call(service, "SatCnf.clauses", forked["forkId"]) == {"clauses": [[1]]}
    # writes to the fork do not reach the origin
    call(service, "SatCnf.addClause", forked["forkId"], {"clause": [2]})
    assert call(service, "SatCnf.clauses", ref) == {"clauses": [[1]]}


# -- direct protocol -----------------------------------------------------------


def test_snapshot_on_connect(service):
    obj = service.create_memory(3)
    obj.view.add_clause([1, -2])
    mirror = connect(obj.direct_url)
    try:
        assert mirror.var_count == 3
        assert mirror.clauses() == [[1, -2]]
    finally:
        mirror.close()


def test_connect_to_empty_instance(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    try:
        assert mirror.var_count == 0
        assert mirror.clauses() == []
    finally:
        mirror.close()


def test_connect_bad_url():
    with pytest.raises(ValueError):
        parse_direct_url("http://example/1")
    with pytest.raises(OSError):
        connect("tcp://127.0.0.1:1", timeout=0.3)


@pytest.mark.parametrize("clauses", [[[1, 0]], [[]], [[1, -2], [3, 4]], [[-4]]])
def test_malformed_snapshot_is_refused(clauses):
    # the replica takes the snapshot in bulk, so only this range check guards it
    hub, sock = socket.socketpair()
    try:
        hub.sendall(wire.encode_snapshot(3, clauses))
        with pytest.raises(MirrorProtocolError):
            MemoryMirror(sock, "tcp://127.0.0.1:0")
    finally:
        hub.close(); sock.close()


def test_connect_to_a_silent_peer_times_out():
    listener = socket.create_server(("127.0.0.1", 0))
    url = f"tcp://127.0.0.1:{listener.getsockname()[1]}"
    raised = []

    def attempt():
        try:
            connect(url, timeout=0.3).close()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    accepted, _ = listener.accept()  # and never sends a byte
    try:
        thread.join(timeout=5)
        assert not thread.is_alive(), "connect still waits for the snapshot"
        assert len(raised) == 1 and isinstance(raised[0], OSError), raised
    finally:
        accepted.close()
        listener.close()
        thread.join(timeout=5)


def test_connect_to_a_dripping_peer_times_out_for_the_whole_snapshot():
    # each byte arrives well within the timeout; the whole snapshot does not
    listener = socket.create_server(("127.0.0.1", 0))
    url = f"tcp://127.0.0.1:{listener.getsockname()[1]}"
    snapshot = wire.encode_snapshot(3, [[1, -2, 3], [-1, 2], [2, 3], [-3], [1, 2, 3]])
    stop = threading.Event()

    def drip():
        peer, _ = listener.accept()
        with peer:
            for i in range(len(snapshot)):
                if stop.wait(0.1):
                    return
                try:
                    peer.sendall(snapshot[i:i + 1])
                except OSError:
                    return

    raised = []
    took = []

    def attempt():
        start = time.monotonic()
        try:
            connect(url, timeout=0.3).close()
        except BaseException as exc:
            raised.append(exc)
        took.append(time.monotonic() - start)

    dripper = threading.Thread(target=drip, daemon=True)
    dripper.start()
    thread = threading.Thread(target=attempt, daemon=True)
    thread.start()
    try:
        thread.join(timeout=5)
        assert not thread.is_alive(), "connect still reads the dripped snapshot"
        assert len(raised) == 1 and isinstance(raised[0], OSError), raised
        assert took[0] < 2, took
    finally:
        stop.set()
        dripper.join(timeout=5)
        listener.close()
        thread.join(timeout=5)


BAD_SNAPSHOTS = {
    "truncated": wire.encode_snapshot(3, [[1, -2], [3]])[:-3],
    "not_snapshot": wire.encode_add_clause([1]),
}


@pytest.mark.parametrize("kind", list(BAD_SNAPSHOTS))
def test_a_bad_snapshot_closes_the_socket_and_answers_memory_unavailable(kind):
    data = BAD_SNAPSHOTS[kind]
    hub, sock = socket.socketpair()
    try:
        hub.sendall(data)
        hub.shutdown(socket.SHUT_WR)
        with pytest.raises(MirrorProtocolError):
            MemoryMirror(sock, "tcp://127.0.0.1:0")
        assert sock.fileno() == -1
    finally:
        hub.close(); sock.close()

    listener = socket.create_server(("127.0.0.1", 0))

    def serve_once():
        peer, _ = listener.accept()
        with peer:
            peer.sendall(data)
            peer.shutdown(socket.SHUT_WR)
            peer.recv(1)  # until the worker hangs up

    server = threading.Thread(target=serve_once, daemon=True)
    server.start()
    try:
        outcome = SolverWorker().solve(f"tcp://127.0.0.1:{listener.getsockname()[1]}")
        assert (outcome.result, outcome.error) == ("UNKNOWN", "MEMORY_UNAVAILABLE")
    finally:
        listener.close()
        server.join(timeout=5)
    assert not server.is_alive()


def test_well_formed_snapshot_is_taken_whole():
    hub, sock = socket.socketpair()
    hub.sendall(wire.encode_snapshot(3, [[-3], [1, -2, 3]]))
    mirror = MemoryMirror(sock, "tcp://127.0.0.1:0")
    hub.close()
    mirror.close()
    assert mirror.var_count == 3
    assert mirror.clauses() == [[-3], [1, -2, 3]]


def test_hub_broadcast_excludes_originator(service):
    obj = service.create_memory(3)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    c = connect(obj.direct_url)
    try:
        a.add_clause_direct([1, -2])
        assert wait_until(lambda: b.clauses() == [[1, -2]])
        assert wait_until(lambda: c.clauses() == [[1, -2]])
        assert obj.view.clauses() == [[1, -2]]
        assert a.clauses() == [[1, -2]]  # applied locally exactly once
    finally:
        a.close(); b.close(); c.close()


def test_duplicate_clause_not_rebroadcast(service):
    obj = service.create_memory(2)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        a.add_clause_direct([1, 2])
        assert wait_until(lambda: b.clauses() == [[1, 2]])
        # b sends the same clause; server treats it as a no-op
        b.add_clause_direct([2, 1])
        time.sleep(0.1)
        assert a.clauses() == [[1, 2]]
        assert b.clauses() == [[1, 2]]
        assert obj.view.clauses() == [[1, 2]]
    finally:
        a.close(); b.close()


def test_rpc_added_clause_reaches_direct_peers(service):
    obj = service.create_memory(2)
    mirror = connect(obj.direct_url)
    try:
        call(service, "SatCnf.addClause", obj.object_id, {"clause": [1, 2]})
        assert wait_until(lambda: mirror.clauses() == [[1, 2]])
    finally:
        mirror.close()


def test_add_variable_direct(service):
    obj = service.create_memory(2)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    try:
        assert a.add_variable() == 3
        assert wait_until(lambda: b.var_count == 3)
        assert b.add_variable() == 4
        assert wait_until(lambda: a.var_count == 4)
    finally:
        a.close(); b.close()


def test_reserve_variables_sequence(service):
    obj = service.create_memory(4)
    mirror = connect(obj.direct_url)
    try:
        assert mirror.reserve_variables(8) == 5
        assert mirror.var_count == 12
        assert obj.view.var_count == 12
        with pytest.raises(ValueError):
            mirror.reserve_variables(0)
    finally:
        mirror.close()


def test_lock_blocks_other_variable_adds(service):
    obj = service.create_memory(0)
    holder = connect(obj.direct_url)
    other = connect(obj.direct_url)
    try:
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        state = {"done": False}

        def blocked_add():
            other.add_variable()
            state["done"] = True

        t = threading.Thread(target=blocked_add, daemon=True)
        t.start()
        time.sleep(0.15)
        assert state["done"] is False  # queued behind the lock
        first = holder.reserve_variables(4)  # under its own lock
        assert first == 1
        holder._send(wire.encode_unlock_vars())
        t.join(timeout=5)
        assert state["done"] is True
        assert obj.view.var_count == 5
    finally:
        holder.close(); other.close()


def test_unlock_by_non_holder_is_a_violation(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    try:
        mirror._send(wire.encode_unlock_vars())
        opcode, payload = mirror._responses.get(timeout=5)
        assert opcode == wire.ERROR
        assert payload[0] == wire.ERR_LOCKED
        # connection stays usable
        assert mirror.add_variable() == 1
    finally:
        mirror.close()


def test_double_lock_is_a_violation(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    try:
        mirror._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        with pytest.raises(LockTimeout):
            mirror._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        mirror._send(wire.encode_unlock_vars())
    finally:
        mirror.close()


def test_lock_force_release_after_timeout(monkeypatch):
    monkeypatch.setattr(sathub.service, "LOCK_TIMEOUT", 0.3)
    svc = MemoryService()
    try:
        obj = svc.create_memory(0)
        holder = connect(obj.direct_url)
        other = connect(obj.direct_url)
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        # the stalled holder is force-released so the other peer proceeds
        assert other.add_variable() == 1
        opcode, payload = holder._responses.get(timeout=5)
        assert opcode == wire.ERROR
        assert payload[0] == wire.ERR_LOCKED
        holder.close(); other.close()
    finally:
        svc.shutdown()


def test_disconnect_releases_lock(service):
    obj = service.create_memory(0)
    holder = connect(obj.direct_url)
    other = connect(obj.direct_url)
    try:
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        holder.close()
        assert other.add_variable() == 1
    finally:
        other.close()


@pytest.mark.parametrize("let_go", ["unlock", "disconnect", "timeout"])
def test_lock_blocks_raw_add_variable(let_go, monkeypatch):
    # the hub takes its variable lock for ADD_VARIABLE, so it queues behind LOCK_VARS
    timeout = 0.3 if let_go == "timeout" else 10.0
    monkeypatch.setattr(sathub.service, "LOCK_TIMEOUT", timeout)
    svc = MemoryService()
    try:
        obj = svc.create_memory(0)
        holder = connect(obj.direct_url)
        other = connect(obj.direct_url)
        asked = time.monotonic()
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        result = {}

        def raw_add():
            result["index"] = other.add_variable()
            result["at"] = time.monotonic()

        t = threading.Thread(target=raw_add, daemon=True)
        t.start()
        if let_go == "timeout":
            t.join(timeout=5)
            assert result["index"] == 1
            assert result["at"] - asked >= timeout  # held until force-released
            opcode, payload = holder._responses.get(timeout=5)
            assert (opcode, payload[0]) == (wire.ERROR, wire.ERR_LOCKED)
        else:
            time.sleep(0.15)
            assert "index" not in result  # queued behind the lock
            if let_go == "unlock":
                assert holder.reserve_variables(4) == 1
                holder._send(wire.encode_unlock_vars())
            else:
                holder.close()
            t.join(timeout=5)
            assert result["index"] == (5 if let_go == "unlock" else 1)
        assert obj.view.var_count == result["index"]
        holder.close(); other.close()
    finally:
        svc.shutdown()


def test_web_call_add_variable_waits_for_the_lock(service):
    # the web call takes the same variable lock as direct frames, then reaches every peer
    obj = service.create_memory(2)
    holder = connect(obj.direct_url)
    other = connect(obj.direct_url)
    try:
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        result = {}
        t = threading.Thread(
            target=lambda: result.update(call(service, "SatCnf.addVariable", obj.object_id)),
            daemon=True,
        )
        t.start()
        time.sleep(0.15)
        assert result == {}  # queued behind the mirror's lock
        holder._send(wire.encode_unlock_vars())
        t.join(timeout=5)
        assert result == {"index": 3}
        assert wait_until(lambda: holder.var_count == 3 and other.var_count == 3)
    finally:
        holder.close(); other.close()


def test_malformed_frame_closes_connection(service):
    obj = service.create_memory(0)
    host, port = parse_direct_url(obj.direct_url)
    sock = socket.create_connection((host, port))
    stream = sock.makefile("rb")
    opcode, _ = wire.read_message(stream)
    assert opcode == wire.SNAPSHOT
    sock.sendall(b"\x42")
    opcode, payload = wire.read_message(stream)
    assert opcode == wire.ERROR
    assert payload[0] == wire.ERR_MALFORMED
    with pytest.raises((wire.ConnectionClosed, wire.MalformedFrame, OSError)):
        wire.read_message(stream)
    sock.close()


def recorded_adds(mirror):
    """The clause of each ``ADD_CLAUSE`` frame the hub sends ``mirror`` from now on."""
    log = []
    apply = mirror._apply

    def recording(messages):
        log.extend(payload for opcode, payload in messages if opcode == wire.ADD_CLAUSE)
        return apply(messages)

    mirror._apply = recording
    return log


def test_one_read_of_clause_frames_is_applied_in_order_with_an_error_per_bad_clause(service):
    origin = service.create_memory(3)
    fork = service.fork_memory(origin, detach=False)
    watcher = connect(origin.direct_url)
    fork_mirror = connect(fork.direct_url)
    received = [recorded_adds(watcher), recorded_adds(fork_mirror)]
    host, port = parse_direct_url(origin.direct_url)
    sock = socket.create_connection((host, port))
    stream = sock.makefile("rb")
    try:
        assert wire.read_message(stream)[0] == wire.SNAPSHOT
        sock.sendall(
            wire.encode_add_clause([-2, 1])
            + wire.encode_add_clause([9])  # out of range
            + wire.encode_add_clause([])  # count 0
            + wire.encode_add_clause([1, -2])  # a duplicate
            + wire.encode_add_clause([3])
            + b"\x42"
        )
        replies = [wire.read_message(stream) for _ in range(3)]
        assert [(opcode, code) for opcode, (code, _) in replies] == [
            (wire.ERROR, wire.ERR_OUT_OF_RANGE),
            (wire.ERROR, wire.ERR_MALFORMED),
            (wire.ERROR, wire.ERR_MALFORMED),
        ]
        with pytest.raises(wire.ConnectionClosed):
            wire.read_message(stream)
        assert origin.view.clauses() == [[1, -2], [3]]
        assert fork.view.clauses() == [[1, -2], [3]]
        assert wait_until(lambda: all(len(log) == 2 for log in received))
        time.sleep(0.1)
        assert received == [[[1, -2], [3]], [[1, -2], [3]]]
    finally:
        stream.close(); sock.close()
        watcher.close(); fork_mirror.close()


def test_out_of_range_clause_direct(service):
    obj = service.create_memory(3)
    mirror = connect(obj.direct_url)
    try:
        with pytest.raises(ClauseRangeError):
            mirror.add_clause_direct([99])
        # nothing was sent; server state unchanged
        time.sleep(0.05)
        assert obj.view.clauses() == []
        # bypass the local check to exercise the server-side validation
        mirror._send(wire.encode_add_clause([99]))
        opcode, payload = mirror._responses.get(timeout=5)
        assert opcode == wire.ERROR
        assert payload[0] == wire.ERR_OUT_OF_RANGE
    finally:
        mirror.close()


def test_snapshot_request(service):
    obj = service.create_memory(2)
    obj.view.add_clause([1])
    mirror = connect(obj.direct_url)
    try:
        var_count, clauses = mirror.request_snapshot()
        assert var_count == 2
        assert clauses == [[1]]
    finally:
        mirror.close()


def test_delete_closes_live_connections(service):
    obj = service.create_memory(1)
    mirror = connect(obj.direct_url)
    service.delete_memory(obj.object_id)
    assert wait_until(lambda: not mirror.alive)
    mirror.close()


# -- fork hubs ---------------------------------------------------------------


def test_attached_fork_peers_see_origin_updates(service):
    origin = service.create_memory(3)
    fork = service.fork_memory(origin, detach=False)
    fork_mirror = connect(fork.direct_url)
    origin_mirror = connect(origin.direct_url)
    try:
        origin_mirror.add_clause_direct([1, 2])
        assert wait_until(lambda: [1, 2] in fork_mirror.clauses())
        # fork-local additions stay off the origin
        fork_mirror.add_clause_direct([3])
        time.sleep(0.1)
        assert [3] not in origin_mirror.clauses()
        assert origin.view.clauses() == [[1, 2]]
    finally:
        fork_mirror.close(); origin_mirror.close()


def test_detached_fork_peers_are_isolated(service):
    origin = service.create_memory(2)
    origin.view.add_clause([1])
    fork = service.fork_memory(origin, detach=True)
    fork_mirror = connect(fork.direct_url)
    origin_mirror = connect(origin.direct_url)
    try:
        assert fork_mirror.clauses() == [[1]]
        origin_mirror.add_clause_direct([2])
        time.sleep(0.1)
        assert fork_mirror.clauses() == [[1]]
    finally:
        fork_mirror.close(); origin_mirror.close()


def test_fork_var_adds_propagate_to_origin_family(service):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    fork_mirror = connect(fork.direct_url)
    origin_mirror = connect(origin.direct_url)
    try:
        assert fork_mirror.add_variable() == 3
        assert wait_until(lambda: origin_mirror.var_count == 3)
        assert origin.view.var_count == 3
    finally:
        fork_mirror.close(); origin_mirror.close()


def test_origin_clause_shadowed_by_fork_local_not_rebroadcast(service):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    fork_mirror = connect(fork.direct_url)
    try:
        fork_mirror.add_clause_direct([1])
        assert wait_until(lambda: [1] in fork.view.clauses())
        origin.view.add_clause([1])
        with origin.view.lock:
            origin._broadcast_clauses([(1,)], exclude=None)
        time.sleep(0.1)
        # the fork mirror saw [1] exactly once (its own local add)
        assert fork_mirror.clauses().count([1]) == 1
    finally:
        fork_mirror.close()


def test_deleted_fork_is_unlinked_from_its_parent(service):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    service.delete_memory(fork.object_id)
    origin.add_clauses([[1]])
    origin.reserve_variables(1)
    assert origin.children == []
    assert fork.view.clauses() == [] and fork.view.var_count == 2


def test_deleting_a_middle_fork_keeps_its_forks_fed(service):
    origin = service.create_memory(2)
    middle = service.fork_memory(origin, detach=False)
    leaf = service.fork_memory(middle, detach=False)
    leaf_mirror = connect(leaf.direct_url)
    try:
        service.delete_memory(middle.object_id)
        assert origin.children == [leaf]
        origin.add_clauses([[1]])
        assert origin.reserve_variables(1) == 3
        assert wait_until(lambda: leaf_mirror.clauses() == [[1]] and leaf_mirror.var_count == 3)
        assert leaf.view.clauses() == [[1]]
    finally:
        leaf_mirror.close()


def test_a_deleted_memory_forks_nothing_and_takes_no_variables(service, monkeypatch):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    service.delete_memory(origin.object_id)
    assert origin.children == []
    with pytest.raises(NoSuchMemory):
        service.fork_memory(origin, detach=False)
    with pytest.raises(NoSuchMemory):
        origin.reserve_variables(1)
    assert list(service._objects) == [fork.object_id]
    # a web call that looked the memory up before it was deleted
    monkeypatch.setattr(service, "get", lambda object_id: origin)
    for method in ("SatCnf.fork", "SatCnf.addVariable"):
        assert call(service, method, origin.object_id) == {"error": "NO_SUCH_OBJECT"}
    assert list(service._objects) == [fork.object_id]
    assert origin.view.var_count == fork.view.var_count == 2


def test_forks_of_a_deleted_origin_keep_sharing_variables(service):
    origin = service.create_memory(2)
    a = service.fork_memory(origin, detach=False)
    b = service.fork_memory(origin, detach=False)
    a_mirror = connect(a.direct_url)
    b_mirror = connect(b.direct_url)
    deleted_store = origin.view
    gone = weakref.ref(origin)
    gc.disable()  # the origin must be freed by reference counting alone
    try:
        service.delete_memory(origin.object_id)
        del origin
        assert a_mirror.reserve_variables(3) == 3
        assert b.view.var_count == 5
        assert wait_until(lambda: b_mirror.var_count == 5)
        assert deleted_store.var_count == 2
        assert wait_until(lambda: gone() is None)
    finally:
        gc.enable()
        a_mirror.close(); b_mirror.close()


def test_forks_made_while_the_origin_grows_miss_no_clause(service):
    origin = service.create_memory(3000)
    clauses = [(v, -(v + 1)) for v in range(1, 3000)]

    def write():
        for i, clause in enumerate(clauses):
            origin.add_clauses([clause])
            if i % 50 == 0:
                time.sleep(0.001)  # let forks be made mid-stream

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    forks, sizes = [], []
    while writer.is_alive() and len(forks) < 40:
        # every third fork is a fork of the previous fork
        parent = forks[-1] if forks and len(forks) % 3 == 0 else origin
        forks.append(service.fork_memory(parent, detach=False))
        sizes.append(forks[-1].view.version)
    writer.join(timeout=10)
    assert any(0 < size < len(clauses) for size in sizes)
    for fork in forks:
        assert fork.view.clause_tuples() == clauses


# -- write path: lifetime, reservation order, close barrier -----------------------


def test_deleted_memories_leave_no_threads(service):
    before = threading.active_count()
    for _ in range(20):
        obj = service.create_memory(0)
        service.delete_memory(obj.object_id)
    assert wait_until(lambda: threading.active_count() <= before)


def test_reservation_updates_replica_before_unlock(service):
    obj = service.create_memory(4)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    results = {}
    other = threading.Thread(
        target=lambda: results.update(b=b.reserve_variables(8)), daemon=True
    )
    apply = a.store.reserve_variables

    def slow_apply(n):
        # another peer reserves while a's replica applies a's own reservation
        a.store.reserve_variables = apply  # only a's own block is slow
        other.start()
        time.sleep(0.2)
        return apply(n)

    a.store.reserve_variables = slow_apply
    try:
        results["a"] = a.reserve_variables(8)
        other.join(timeout=5)
        assert not other.is_alive()
        assert results == {"a": 5, "b": 13}
        assert a.alive and b.alive
        assert wait_until(lambda: a.var_count == b.var_count == obj.view.var_count == 20)
    finally:
        a.close(); b.close()


def test_add_variable_updates_replica_before_unlock(service):
    obj = service.create_memory(4)
    a = connect(obj.direct_url)
    b = connect(obj.direct_url)
    results = {}
    other = threading.Thread(
        target=lambda: results.update(b=b.reserve_variables(8)), daemon=True
    )
    apply = a.store.reserve_variables

    def slow_apply(n):
        # another peer reserves while a's replica applies a's own variable
        a.store.reserve_variables = apply  # only a's own block is slow
        other.start()
        time.sleep(0.2)
        return apply(n)

    a.store.reserve_variables = slow_apply
    try:
        results["a"] = a.add_variable()
        other.join(timeout=5)
        assert not other.is_alive()
        assert results == {"a": 5, "b": 6}
        assert a.alive and b.alive
        assert wait_until(lambda: a.var_count == b.var_count == obj.view.var_count == 13)
    finally:
        a.close(); b.close()


def test_hub_still_answers_add_variable(service):
    obj = service.create_memory(2)
    mirror = connect(obj.direct_url)
    try:
        assert mirror.add_variable() == 3
        assert obj.view.var_count == 3
        assert mirror.var_count == 3
    finally:
        mirror.close()


def test_reservation_denied_to_lock_holder_keeps_replica_in_step(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    try:
        mirror._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        # the hub applies a reservation from the lock holder at once
        assert mirror.reserve_variables(4) == 1
        assert mirror.var_count == obj.view.var_count == 4
        mirror._send(wire.encode_unlock_vars())
        assert mirror.reserve_variables(2) == 5
        assert mirror.alive
    finally:
        mirror.close()


def test_reservations_send_one_frame_each(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    sent = []
    send = mirror._send
    mirror._send = lambda data: sent.append(data) or send(data)
    try:
        assert mirror.reserve_variables(8) == 1
        assert sent == [wire.encode_add_vars(8)]
        sent.clear()
        assert mirror.add_variable() == 9
        assert sent == [wire.encode_add_variable()]
    finally:
        mirror.close()


@pytest.mark.parametrize("reply", ["wrong_index", "unsolicited"])
def test_index_reply_out_of_step_kills_the_mirror(reply):
    hub, sock = socket.socketpair()
    hub.sendall(wire.encode_snapshot(3, []))
    mirror = MemoryMirror(sock, "tcp://127.0.0.1:0")
    try:
        if reply == "unsolicited":
            hub.sendall(wire.encode_var_index(4))
        else:
            def answer():
                with hub.makefile("rb") as stream:
                    wire.read_message(stream)  # the ADD_VARS
                hub.sendall(wire.encode_first_index(7))  # the replica's next index is 4

            threading.Thread(target=answer, daemon=True).start()
            with pytest.raises(ConnectionError):
                mirror.reserve_variables(2)
        assert wait_until(lambda: not mirror.alive)
        assert mirror.var_count == 3
    finally:
        hub.close()
        mirror.close()


def test_clauses_and_reservations_land_in_send_order(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    sent = []
    for _ in range(20):
        first = mirror.reserve_variables(4)
        for var in range(first, first + 4):
            clause = (-first, var) if var != first else (var,)
            mirror.add_clause_direct(clause)
            sent.append(clause)
    mirror.close()
    assert obj.view.var_count == 80
    assert obj.view.clause_tuples() == sent


def test_close_returns_once_the_hub_applied_every_clause(service):
    clauses = [(v, -(v + 1)) for v in range(1, 3000)]
    for _ in range(3):
        obj = service.create_memory(3000)
        mirror = connect(obj.direct_url)
        for clause in clauses:
            mirror.add_clause_direct(clause)
        mirror.close()
        assert obj.view.clause_tuples() == clauses
        service.delete_memory(obj.object_id)


def test_variables_past_the_wire_bound_are_refused(service):
    bound = 2**31 - 1  # the largest variable an i32 literal can name
    obj = service.create_memory(bound - 1)
    mirror = connect(obj.direct_url)
    try:
        assert mirror.reserve_variables(1) == bound
        with pytest.raises(ClauseRangeError):
            mirror.reserve_variables(1)
        # the hub closes the connection: the mirror cannot pair the error
        # with its pending reservation
        assert wait_until(lambda: not mirror.alive)
    finally:
        mirror.close()
    assert obj.view.var_count == bound
    reply = call(service, "SatCnf.addVariable", obj.object_id)
    assert list(reply) == ["error"] and str(bound) in reply["error"], reply
    fresh = connect(obj.direct_url)
    try:
        assert fresh.var_count == bound
        with pytest.raises(ClauseRangeError):
            fresh.add_variable()
        assert wait_until(lambda: not fresh.alive)
    finally:
        fresh.close()
    assert obj.view.var_count == wire.MAX_VARIABLE == bound
