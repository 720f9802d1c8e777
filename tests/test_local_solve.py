"""A solve of a memory on the solver's own node reads the hub's store itself;
any other URL goes through a mirror."""

import random
import sys
import threading
import time

import pytest

from sathub import client
from sathub.node import ServerNode
from sathub.rpc import web_call
from sathub.service import MemoryObject, MemoryService
from sathub.solving import SolverWorker

from oracles import php_clauses


@pytest.fixture
def node():
    n = ServerNode(workers=2).start()
    yield n
    n.stop()


@pytest.fixture
def connects(monkeypatch):
    """The URLs every ``client.connect`` is called with; the calls go through."""
    urls = []
    real = client.connect

    def recording(url, *args, **kwargs):
        urls.append(url)
        return real(url, *args, **kwargs)

    monkeypatch.setattr(client, "connect", recording)
    return urls


def call(node, method, argument=None, object_ref="", web_pid="test"):
    return web_call(node.endpoint, method, argument, object_ref=object_ref, web_pid=web_pid)


def create(node, clauses, n_vars):
    created = call(node, "SatCnf.create", {"initialVariableCount": n_vars})
    for clause in clauses:
        call(node, "SatCnf.addClause", {"clause": clause}, object_ref=created["objectRef"])
    return created


def solve(node, url, web_pid="test"):
    solver_id = call(node, "Kernel.findAvailable", {"timeout": 5})["solverId"]
    return call(node, "SatSolver.solve", {"satMemoryUrl": url, "timeout": 5}, solver_id, web_pid)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def test_local_solve_opens_no_socket_to_the_hub(node, monkeypatch):
    def refuse(url, *args, **kwargs):
        raise AssertionError(f"connect({url!r}) on a local solve")

    monkeypatch.setattr(client, "connect", refuse)
    created = create(node, [[1, 2], [-1, 2]], 2)
    obj = node.memory.get(created["objectRef"])
    assert solve(node, created["directUrl"]) == {"result": "SAT", "model": [False, True]}
    assert obj.peers == []


def test_local_solve_of_a_deleted_memory_answers_memory_unavailable(node, hold_runs, hold):
    views = hold_runs()
    created = create(node, [[1, 2]], 2)  # after one decision nothing is left but the poll
    replies = {}
    thread = threading.Thread(
        target=lambda: replies.update(solve=solve(node, created["directUrl"])), daemon=True
    )
    thread.start()
    assert wait_until(lambda: views)
    assert isinstance(views[0], MemoryObject)
    assert call(node, "SatCnf.delete", object_ref=created["objectRef"]) == {}
    assert not views[0].alive
    hold.release()
    thread.join(timeout=10)
    assert replies["solve"] == {"result": "UNKNOWN", "error": "MEMORY_UNAVAILABLE"}


def test_local_solve_folds_in_a_peer_clause_mid_search(node, hold_runs, hold):
    views = hold_runs()
    created = create(node, [[1, 2]], 2)
    obj = node.memory.get(created["objectRef"])
    replies = {}
    thread = threading.Thread(
        target=lambda: replies.update(solve=solve(node, created["directUrl"])), daemon=True
    )
    thread.start()
    assert wait_until(lambda: views)  # held at its first decision, x1 false
    peer = client.connect(created["directUrl"])
    try:
        peer.add_clause_direct([-2])
        assert wait_until(lambda: obj.view.version == 2)
        hold.release()
        thread.join(timeout=10)
    finally:
        peer.close()
    assert replies["solve"] == {"result": "SAT", "model": [True, False]}


def test_exporting_worker_on_a_hub_memory_broadcasts_learned_clauses():
    service = MemoryService()
    try:
        clauses, n = php_clauses(4, 3)
        obj = service.create_memory(n)
        for clause in clauses:
            obj.add_clauses([clause])
        observer = client.connect(obj.direct_url)
        try:
            outcome = SolverWorker(export=True).solve(obj, web_pid="p")
            assert outcome.result == "UNSAT"
            base = {tuple(c) for c in clauses}
            learned = [t for t in obj.view.clause_tuples() if t not in base]
            assert learned and all(len(t) <= 2 for t in learned)
            assert wait_until(lambda: set(observer.clause_tuples()) == base | set(learned))
        finally:
            observer.close()
    finally:
        service.shutdown()


def test_a_memory_of_another_node_is_solved_through_a_mirror(node, connects):
    other = ServerNode(workers=1).start()
    try:
        created = create(other, [[1, 2], [-1, 2]], 2)
        assert solve(node, created["directUrl"]) == {"result": "SAT", "model": [False, True]}
        assert connects == [created["directUrl"]]
    finally:
        other.stop()


def test_parallelize_two_calls_on_one_local_memory(node, connects):
    created = create(node, [[1, 2], [-1, 2]], 2)
    calls = [{"satMemoryUrl": created["directUrl"], "timeout": 5} for _ in range(2)]
    reply = call(node, "Kernel.parallelize", {"calls": calls})
    assert reply == {"results": [{"result": "SAT", "model": [False, True]}] * 2}
    assert connects == []


def test_local_solves_race_writers_on_one_memory(connects):
    """Four local solves at a time, more than there are cores, on a memory
    two peer mirrors keep writing: each model satisfies every clause stored
    before its group started."""
    rng = random.Random(7)
    n = 30
    planted = [rng.random() < 0.5 for _ in range(n)]

    def planted_clause():
        clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        if not any((lit > 0) == planted[abs(lit) - 1] for lit in clause):
            clause[0] = -clause[0]
        return clause

    batches = [[planted_clause() for _ in range(150)] for _ in range(2)]
    start = [planted_clause() for _ in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    node = ServerNode(workers=4).start()
    writers = []
    try:
        created = create(node, start, n)
        obj = node.memory.get(created["objectRef"])
        writers.extend(client.connect(created["directUrl"]) for _ in batches)

        def write(mirror, batch):
            for clause in batch:
                mirror.add_clause_direct(clause)
                time.sleep(0.0005)

        threads = [
            threading.Thread(target=write, args=pair, daemon=True) for pair in zip(writers, batches)
        ]
        for t in threads:
            t.start()
        calls = [{"satMemoryUrl": created["directUrl"], "timeout": 10} for _ in range(4)]
        for _ in range(5):
            before = obj.view.clause_tuples()
            results = call(node, "Kernel.parallelize", {"calls": calls})["results"]
            for result in results:
                assert result["result"] == "SAT", result
                true = {v if value else -v for v, value in enumerate(result["model"], 1)}
                assert all(true.intersection(clause) for clause in before)
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert connects == [created["directUrl"]] * 2  # the writers' own mirrors
    finally:
        for mirror in writers:
            mirror.close()
        node.stop()
        sys.setswitchinterval(interval)
