"""The hub's one loop thread: it serves every memory and peer of a service,
and it runs only while the service holds a memory."""

import threading
import time

import pytest

from sathub.client import connect
from sathub.service import MemoryService


@pytest.fixture
def service():
    svc = MemoryService()
    yield svc
    svc.shutdown()


def hub_threads():
    return sum(thread.name == "sathub-hub" for thread in threading.enumerate())


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def test_one_thread_serves_three_memories_and_four_mirrors(service):
    assert hub_threads() == 0
    origin, other = service.create_memory(2), service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    mirrors = [connect(obj.direct_url) for obj in (origin, origin, fork, other)]
    try:
        mirrors[0].add_clauses([[1, 2]])
        other.add_clauses([[-1]])
        assert wait_until(lambda: [m.clause_tuples() for m in mirrors] == [[(1, 2)]] * 3 + [[(-1,)]])
        assert hub_threads() == 1
    finally:
        for mirror in mirrors:
            mirror.close()
    for obj in (fork, other, origin):
        assert service.delete_memory(obj.object_id)
    assert wait_until(lambda: hub_threads() == 0, timeout=2.0)


def test_memories_made_and_deleted_from_two_threads_each_accept_a_connect(service):
    # each time the service holds no memory its loop exits; a create must
    # never land on a loop that is exiting
    failures = []

    def churn():
        try:
            for _ in range(200):
                obj = service.create_memory(1)
                connect(obj.direct_url, timeout=5.0).close()
                assert service.delete_memory(obj.object_id)
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=churn, daemon=True) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert service._objects == {}
    assert wait_until(lambda: hub_threads() == 0, timeout=2.0)
