import socket
import threading
import time
from types import SimpleNamespace

import pytest

from sathub import wire
from sathub.client import LockTimeout, MemoryMirror, MirrorProtocolError, connect, parse_direct_url
from sathub.cnf import ClauseRangeError
from sathub.node import ServerNode
from sathub.service import MemoryService


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
        first = holder._request(wire.encode_add_vars(4), wire.FIRST_INDEX)
        assert first == 1
        holder._sync_var_count(1, 4)
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


def test_lock_force_release_after_timeout():
    svc = MemoryService(lock_timeout=0.3)
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
def test_lock_blocks_raw_add_variable(let_go):
    # mirrors reserve with LOCK_VARS; the hub still takes its lock for a raw ADD_VARIABLE
    timeout = 0.3 if let_go == "timeout" else 10.0
    svc = MemoryService(lock_timeout=timeout)
    try:
        obj = svc.create_memory(0)
        holder = connect(obj.direct_url)
        other = connect(obj.direct_url)
        asked = time.monotonic()
        holder._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        result = {}

        def raw_add():
            result["index"] = other._request(wire.encode_add_variable(), wire.VAR_INDEX)
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
                assert holder._request(wire.encode_add_vars(4), wire.FIRST_INDEX) == 1
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
        with origin.view.family_lock:
            origin._broadcast_clause((1,), exclude=None)
        time.sleep(0.1)
        # the fork mirror saw [1] exactly once (its own local add)
        assert fork_mirror.clauses().count([1]) == 1
    finally:
        fork_mirror.close()


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
    sync = a._sync_var_count

    def slow_sync(first, n):
        # another peer asks for the lock while this reservation is being applied
        other.start()
        time.sleep(0.2)
        sync(first, n)

    a._sync_var_count = slow_sync
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
    sync = a._sync_var_count

    def slow_sync(first, n):
        # another peer asks for the lock while this variable is being applied
        other.start()
        time.sleep(0.2)
        sync(first, n)

    a._sync_var_count = slow_sync
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
    # mirrors reserve single variables with LOCK_VARS+ADD_VARS; the opcode stays valid
    obj = service.create_memory(2)
    mirror = connect(obj.direct_url)
    try:
        assert mirror._request(wire.encode_add_variable(), wire.VAR_INDEX) == 3
        assert obj.view.var_count == 3
    finally:
        mirror.close()


def test_reservation_denied_to_lock_holder_keeps_replica_in_step(service):
    obj = service.create_memory(0)
    mirror = connect(obj.direct_url)
    try:
        mirror._request(wire.encode_lock_vars(), wire.LOCK_GRANTED)
        with pytest.raises(LockTimeout):
            mirror.reserve_variables(4)
        # ADD_VARS went out with the refused LOCK_VARS and the hub applied it
        assert mirror.var_count == obj.view.var_count == 4
        mirror._send(wire.encode_unlock_vars())
        assert mirror.reserve_variables(2) == 5
        assert mirror.alive
    finally:
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
