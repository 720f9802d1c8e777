"""Every memory speaks one protocol (``CnfStore``'s docstring): a store, a hub
memory and a mirror each take a factoring build and a solve through it alone."""

import pytest

from sathub import dpll
from sathub.client import MemoryMirror, connect
from sathub.cnf import ClauseRangeError, CnfStore, canonical_clause
from sathub.factoring import FactorizationSpec, build_factorization, decode_model
from sathub.service import MemoryService

SPEC = FactorizationSpec.from_product(8, 89 * 97)


def reference_clauses():
    store = CnfStore()
    build_factorization(SPEC, store)
    return set(store.clause_tuples())


@pytest.fixture(params=["store", "hub", "mirror"])
def make_memory(request):
    """A function that makes an empty memory of the parameter's kind and
    returns it with a function that loses it (deletes, closes or kills it)."""
    service = MemoryService()
    mirrors = []

    def make():
        if request.param == "store":
            store = CnfStore()
            return store, lambda: setattr(store, "alive", False)
        obj = service.create_memory(0)
        if request.param == "hub":
            return obj, lambda: service.delete_memory(obj.object_id)
        mirror = connect(obj.direct_url)
        mirrors.append(mirror)
        return mirror, mirror.close

    yield make
    for mirror in mirrors:
        mirror.close()
    service.shutdown()


class Recording:
    """A memory that logs each decision-boundary read (``None``) and each
    ``add_clauses`` batch, in call order, and passes every call on."""

    def __init__(self, memory):
        self.memory = memory
        self.events = []

    @property
    def var_count(self):
        return self.memory.var_count

    @property
    def alive(self):
        return self.memory.alive

    def clauses_since(self, cursor):
        self.events.append(None)
        return self.memory.clauses_since(cursor)

    def reserve_variables(self, n):
        return self.memory.reserve_variables(n)

    def add_clauses(self, batch):
        self.events.append([list(clause) for clause in batch])
        return self.memory.add_clauses(batch)


def test_a_factoring_build_and_solve_go_through_the_protocol(make_memory):
    memory, _ = make_memory()
    build_factorization(SPEC, memory)
    assert memory.var_count == 241
    clauses, cursor = memory.clauses_since(0)
    assert set(clauses) == reference_clauses()
    assert memory.clauses_since(cursor) == ([], cursor)
    outcome = dpll.run(memory)
    assert outcome.result == "SAT"
    assert decode_model(outcome.model, SPEC) == (97, 89)


def test_a_batch_with_refused_clauses_has_one_rule(make_memory):
    memory, _ = make_memory()
    memory.reserve_variables(3)
    # good, duplicate, out of range, malformed, good
    outcomes = memory.add_clauses([[2, 1], [1, 2], [1, 4], [0, 3], [-3]])
    assert outcomes[:2] == [True, False] and outcomes[4] is True
    assert type(outcomes[2]) is ClauseRangeError
    assert str(outcomes[2]) == "literal 4 out of range (var count 3)"
    assert type(outcomes[3]) is ValueError
    assert str(outcomes[3]) == "invalid literal: 0"
    assert memory.clauses_since(0) == ([(1, 2), (-3,)], 2)
    if isinstance(memory, MemoryMirror):
        # the hub answers in frame order: once the snapshot is back, it holds all it got
        assert memory.request_snapshot() == (3, [[1, 2], [-3]])


def test_an_exporting_solve_writes_one_batch_per_boundary_with_exports(
    make_memory, run_solvers, monkeypatch
):
    monkeypatch.setattr(dpll, "EXPORT_MAX_LEN", 1000)  # every learned clause goes out
    memory, _ = make_memory()
    build_factorization(SPEC, memory)
    recording = Recording(memory)
    outcome = dpll.run(recording, export=True)
    assert outcome.result == "SAT"
    assert decode_model(outcome.model, SPEC) == (97, 89)
    batches = [event for event in recording.events if event is not None]
    assert all(batches)
    # no two batches without a boundary's read between them
    assert all(a is None or b is None for a, b in zip(recording.events, recording.events[1:]))
    assert len(batches) > 1 and max(map(len, batches)) > 1
    exported = [canonical_clause(clause) for batch in batches for clause in batch]
    assert exported == list(map(canonical_clause, run_solvers[-1].learned))
    assert set(exported) <= set(memory.clauses_since(0)[0])


def test_a_lost_memory_answers_memory_unavailable(make_memory):
    memory, lose = make_memory()
    build_factorization(SPEC, memory)
    lose()
    assert not memory.alive
    outcome = dpll.run(memory)
    assert outcome.result == "UNKNOWN"
    assert outcome.error == "MEMORY_UNAVAILABLE"
