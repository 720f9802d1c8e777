import threading
import time

import pytest

from sathub import dpll
from sathub.client import connect
from sathub.cnf import CnfStore
from sathub.service import MemoryService
from sathub.solving import (
    NoSolverAvailable,
    SolveCall,
    SolveOutcome,
    SolverBusy,
    SolverRegistry,
    SolverStateError,
    SolverWorker,
    WebPidMismatch,
    parallelize,
)

from gens import gated_php
from oracles import php_clauses


def make_store(clauses, n):
    store = CnfStore(n)
    for clause in clauses:
        store.add_clause(clause)
    return store


def held_store():
    """An instance the solver must make a decision on: the ``hold`` hook stops it there."""
    return make_store([[1, 2]], 2)


def start_solve(worker, store, **kwargs):
    """Kick off a solve on a thread; returns (thread, result holder)."""
    holder = {}

    def target():
        try:
            holder["outcome"] = worker.solve(store, **kwargs)
        except Exception as exc:
            holder["exception"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, holder


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return predicate()


def wait_for_state(worker, state, timeout=5.0):
    return wait_until(lambda: worker.record.state == state, timeout)


def test_outcome_json_roundtrip():
    sat = SolveOutcome("SAT", model=[True, False])
    assert sat.as_json() == {"result": "SAT", "model": [True, False]}
    busy = SolveOutcome(None, error="BUSY")
    assert busy.as_json() == {"error": "BUSY"}


# -- registry -----------------------------------------------------------------


def test_registry_registration_and_listing():
    registry = SolverRegistry()
    w1 = SolverWorker(registry)
    w2 = SolverWorker(registry)
    records = registry.list_solvers()
    assert len(records) == 2
    assert all(r.as_json()["solverType"] == "ReferenceDpll" for r in records)
    assert registry.get(w1.record.solver_id) is w1
    assert registry.find_available(0) is w1


def test_find_available_timeout_and_wakeup(hold):
    registry = SolverRegistry()
    worker = SolverWorker(registry)
    store = held_store()
    thread, holder = start_solve(worker, store, web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    with pytest.raises(NoSolverAvailable):
        registry.find_available(0)

    found = {}

    def finder():
        found["worker"] = registry.find_available(10.0)

    finder_thread = threading.Thread(target=finder, daemon=True)
    finder_thread.start()
    worker.cancel(web_pid="p1")
    finder_thread.join(timeout=5)
    assert found["worker"] is worker
    thread.join(timeout=5)
    assert holder["outcome"].result == "UNKNOWN"


# -- worker state machine -------------------------------------------------------


def test_solve_simple_outcomes():
    worker = SolverWorker()
    assert worker.solve(make_store([[1], [-1]], 1)).result == "UNSAT"
    outcome = worker.solve(
        make_store([[1, 2]], 2),
        phases={1: False},
    )
    assert outcome.result == "SAT"
    assert outcome.model == [False, True]


def test_busy_second_solve_timeout_zero(hold):
    worker = SolverWorker()
    store = held_store()
    thread, _ = start_solve(worker, store, web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    with pytest.raises(SolverBusy):
        worker.solve(make_store([[1]], 1), timeout=0.0, web_pid="p2")
    worker.cancel(web_pid="p1")
    thread.join(timeout=5)


def test_busy_wait_succeeds_when_freed(hold):
    worker = SolverWorker()
    store = held_store()
    thread, _ = start_solve(worker, store, web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    threading.Timer(0.1, lambda: worker.cancel(web_pid="p1")).start()
    outcome = worker.solve(make_store([[1]], 1), timeout=10.0, web_pid="p2")
    assert outcome.result == "SAT"
    thread.join(timeout=5)


def test_cancel_makes_solve_return_unknown_and_frees(hold):
    worker = SolverWorker()
    thread, holder = start_solve(worker, held_store(), web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    worker.cancel(web_pid="p1")
    thread.join(timeout=5)
    assert holder["outcome"].result == "UNKNOWN"
    assert worker.record.state == "IDLE"
    # new solve accepted immediately after cancel returns
    assert worker.solve(make_store([[1]], 1), web_pid="p1").result == "SAT"


def test_pause_resume_lifecycle(hold):
    worker = SolverWorker()
    thread, holder = start_solve(worker, held_store(), web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    worker.pause(web_pid="p1")
    assert worker.record.state == "PAUSED"
    assert thread.is_alive()  # solve call has not returned
    worker.resume(web_pid="p1")
    assert worker.record.state == "BUSY"
    worker.cancel(web_pid="p1")
    thread.join(timeout=5)
    assert holder["outcome"].result == "UNKNOWN"


def test_pause_resume_outcome_identical():
    clauses = [[1, 2], [-1, 2], [2, 3], [-3, 1]]
    baseline = SolverWorker().solve(make_store(clauses, 3))
    worker = SolverWorker()
    thread, holder = start_solve(worker, make_store(clauses, 3), web_pid="p1")
    # pause may race with completion on so small an instance; tolerate both
    try:
        worker.pause(web_pid="p1")
        time.sleep(0.02)
        worker.resume(web_pid="p1")
    except SolverStateError:
        pass
    thread.join(timeout=5)
    assert holder["outcome"].result == baseline.result
    assert holder["outcome"].model == baseline.model


def test_state_errors(hold):
    worker = SolverWorker()
    with pytest.raises(SolverStateError):
        worker.pause()
    with pytest.raises(SolverStateError):
        worker.resume()
    with pytest.raises(SolverStateError):
        worker.cancel()
    thread, _ = start_solve(worker, held_store(), web_pid="p1", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    with pytest.raises(SolverStateError):
        worker.resume(web_pid="p1")  # not paused
    worker.pause(web_pid="p1")
    with pytest.raises(SolverStateError):
        worker.pause(web_pid="p1")  # already paused
    worker.cancel(web_pid="p1")
    thread.join(timeout=5)


def test_web_pid_checks_apply_to_all_controls(hold):
    worker = SolverWorker()
    thread, _ = start_solve(worker, held_store(), web_pid="owner", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    with pytest.raises(WebPidMismatch):
        worker.pause(web_pid="intruder")
    worker.pause(web_pid="owner")
    with pytest.raises(WebPidMismatch):
        worker.resume(web_pid="intruder")
    with pytest.raises(WebPidMismatch):
        worker.cancel(web_pid="intruder")
    worker.cancel(web_pid="owner")
    thread.join(timeout=5)


def test_solve_on_unreachable_memory():
    worker = SolverWorker()
    outcome = worker.solve("tcp://127.0.0.1:1", web_pid="p")
    assert outcome.result == "UNKNOWN"
    assert outcome.error == "MEMORY_UNAVAILABLE"
    assert worker.record.state == "IDLE"


def test_control_cancelled_before_the_solve_answers_unknown_unconnected():
    worker = SolverWorker()
    states = []
    worker._set_state = lambda state: states.append(state)
    control = dpll.SolveControl()
    control.cancel()
    outcome = worker.solve("tcp://127.0.0.1:1", web_pid="p", control=control)
    # an attempted connect to the closed port would have answered MEMORY_UNAVAILABLE
    assert (outcome.result, outcome.error) == ("UNKNOWN", None)
    assert states == []


def test_solve_over_live_mirror():
    service = MemoryService()
    try:
        registry = SolverRegistry()
        worker = SolverWorker(registry)
        obj = service.create_memory(2)
        obj.view.add_clause([1, 2])
        outcome = worker.solve(obj.direct_url, web_pid="p")
        assert outcome.result == "SAT"
        assert obj.view.evaluate(outcome.model)
    finally:
        service.shutdown()


def test_memory_deleted_mid_search_returns_unknown(hold, hold_runs):
    views = hold_runs()
    service = MemoryService()
    try:
        worker = SolverWorker()
        obj = service.create_memory(2)
        obj.view.add_clause([1, 2])  # after one decision nothing is left but the poll
        thread, holder = start_solve(worker, obj.direct_url, web_pid="p")
        assert wait_for_state(worker, "BUSY")
        assert wait_until(lambda: views)  # the search has its mirror
        service.delete_memory(obj.object_id)
        # the solve goes on only once its mirror has seen the close
        assert wait_until(lambda: not views[0].alive)
        hold.release()
        thread.join(timeout=15)
        assert not thread.is_alive()
        outcome = holder["outcome"]
        assert outcome.result == "UNKNOWN"
        assert outcome.error == "MEMORY_UNAVAILABLE"
    finally:
        service.shutdown()


# -- parallelize -----------------------------------------------------------------


def test_parallelize_empty():
    assert parallelize(SolverRegistry(), []) == []


def test_parallelize_three_diversified_children():
    registry = SolverRegistry()
    for _ in range(3):
        SolverWorker(registry)
    store = make_store([[1, 2], [-1, 2], [3, -2]], 3)
    calls = [SolveCall(memory=store, phases={v: True}) for v in (1, 2, 3)]
    results = parallelize(registry, calls, web_pid="parent")
    assert len(results) == 3
    for outcome in results:
        assert outcome.result in ("SAT", "UNKNOWN")
        if outcome.result == "SAT":
            assert store.evaluate(outcome.model)


def test_parallelize_busy_slot_isolated(hold):
    registry = SolverRegistry()
    worker = SolverWorker(registry)
    blocker_thread, _ = start_solve(worker, held_store(), web_pid="other", on_decision=hold)
    assert wait_for_state(worker, "BUSY")
    calls = [SolveCall(memory=make_store([[1]], 1), solver_id=worker.record.solver_id)]
    results = parallelize(registry, calls, web_pid="parent")
    assert results[0].result is None
    assert results[0].error == "BUSY"
    worker.cancel(web_pid="other")
    blocker_thread.join(timeout=5)


def test_parallelize_unknown_solver_slot():
    registry = SolverRegistry()
    SolverWorker(registry)
    results = parallelize(
        registry, [SolveCall(memory=make_store([[1]], 1), solver_id="ghost")]
    )
    assert results[0].error == "NO_SUCH_SOLVER"


def test_parallelize_first_sat_cancels_siblings(hold_runs):
    hold_runs()  # the siblings without phases stay held until they are cancelled
    registry = SolverRegistry()
    for _ in range(3):
        SolverWorker(registry)
    clauses, n = gated_php(3, 2)
    store = make_store(clauses, n)
    calls = [
        SolveCall(memory=store, phases={1: True}),
        SolveCall(memory=store),
        SolveCall(memory=store),
    ]
    results = parallelize(registry, calls, first_sat_cancels=True, web_pid="parent")
    assert len(results) == 3
    assert results[0].result == "SAT"
    assert store.evaluate(results[0].model)
    assert {r.result for r in results[1:]} == {"UNKNOWN"}


def test_parallelize_child_that_raises_fills_its_slot():
    registry = SolverRegistry()
    SolverWorker(registry)
    calls = [SolveCall(memory=None), SolveCall(memory=make_store([[1]], 1))]
    holder = {}
    thread = threading.Thread(
        target=lambda: holder.update(results=parallelize(registry, calls)), daemon=True
    )
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    failed, solved = holder["results"]
    assert failed.result is None and failed.error
    assert solved.result == "SAT"


def test_first_sat_cancels_a_sibling_still_waiting_for_its_worker(monkeypatch):
    registry = SolverRegistry()
    blocked, free = SolverWorker(registry), SolverWorker(registry)
    cancelled = threading.Event()

    class SignallingControl(dpll.SolveControl):
        def cancel(self) -> None:
            super().cancel()
            cancelled.set()

    monkeypatch.setattr(dpll, "SolveControl", SignallingControl)
    # another web process holds the sibling's worker until a control is cancelled
    blocker_thread, blocker = start_solve(
        blocked, held_store(), web_pid="other", on_decision=lambda d: cancelled.wait(5)
    )
    assert wait_for_state(blocked, "BUSY")

    sibling_entered = threading.Event()
    solve = SolverWorker.solve

    def ordered_solve(worker, memory, **kwargs):
        if worker is blocked:
            sibling_entered.set()
        else:
            assert sibling_entered.wait(5)  # the winner starts after the sibling
        return solve(worker, memory, **kwargs)

    monkeypatch.setattr(SolverWorker, "solve", ordered_solve)
    calls = [
        SolveCall(memory=held_store(), solver_id=blocked.record.solver_id, timeout=10.0),
        SolveCall(memory=make_store([[1]], 1), solver_id=free.record.solver_id),
    ]
    sibling, winner = parallelize(registry, calls, first_sat_cancels=True, web_pid="parent")
    assert winner.result == "SAT"
    assert sibling.result == "UNKNOWN"
    blocker_thread.join(timeout=5)
    assert blocker["outcome"].result == "SAT"


def test_first_sat_cancel_wakes_a_sibling_waiting_for_a_busy_worker(monkeypatch):
    registry = SolverRegistry()
    blocked, free = SolverWorker(registry), SolverWorker(registry)
    group_returned = threading.Event()
    # another web process holds the sibling's worker until the group has returned,
    # or for 5 s, well inside the sibling's timeout
    blocker_thread, blocker = start_solve(
        blocked, held_store(), web_pid="other", on_decision=lambda d: group_returned.wait(5)
    )
    assert wait_for_state(blocked, "BUSY")

    sibling_entered = threading.Event()
    solve = SolverWorker.solve

    def ordered_solve(worker, memory, **kwargs):
        if worker is blocked:
            sibling_entered.set()
        else:
            assert sibling_entered.wait(5)  # the winner starts after the sibling
        return solve(worker, memory, **kwargs)

    monkeypatch.setattr(SolverWorker, "solve", ordered_solve)
    calls = [
        SolveCall(memory=held_store(), solver_id=blocked.record.solver_id, timeout=20.0),
        SolveCall(memory=make_store([[1]], 1), solver_id=free.record.solver_id),
    ]
    try:
        sibling, winner = parallelize(registry, calls, first_sat_cancels=True, web_pid="parent")
        assert winner.result == "SAT"
        assert sibling.result == "UNKNOWN"
        assert blocked.record.state == "BUSY"
    finally:
        group_returned.set()
        blocker_thread.join(timeout=5)
    assert blocker["outcome"].result == "SAT"


def test_exported_learned_clauses_reach_peer_mirrors():
    service = MemoryService()
    try:
        obj = service.create_memory(0)
        clauses, n = php_clauses(4, 3)
        obj.view.reserve_variables(n)
        for clause in clauses:
            obj.view.add_clause(clause)
        observer = connect(obj.direct_url)
        worker = SolverWorker(export=True)
        outcome = worker.solve(obj.direct_url, web_pid="p")
        assert outcome.result == "UNSAT"
        base = {tuple(c) for c in clauses}

        def learned_arrived():
            return any(t not in base for t in observer.clause_tuples())

        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and not learned_arrived():
            time.sleep(0.01)
        assert learned_arrived()
        for t in observer.clause_tuples():
            if t not in base:
                assert len(t) <= 2
        observer.close()
    finally:
        service.shutdown()


def test_single_instance_rule_under_contention():
    registry = SolverRegistry()
    worker = SolverWorker(registry)
    overlaps = []
    active = []
    reads = []
    answers = []
    lock = threading.Lock()

    class ProbeStore:
        var_count = 1
        version = 0
        alive = True

        def clauses_since(self, cursor=0):
            with lock:
                reads.append(cursor)
                active.append(1)
                if len(active) > 1:
                    overlaps.append(True)
            time.sleep(0.01)
            with lock:
                active.pop()
            return [(1,)], (1,)

    def attempt():
        try:
            answers.append(worker.solve(ProbeStore(), timeout=10.0).result)
        except SolverBusy:
            pass

    threads = [threading.Thread(target=attempt, daemon=True) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not overlaps
    # every solve that ran read the store, so the overlap probe was live
    assert answers and set(answers) == {"SAT"}
    assert reads.count(0) == len(answers)
