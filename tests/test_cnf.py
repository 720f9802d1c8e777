import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sathub.client import connect
from sathub.cnf import ClauseRangeError, CnfStore, canonical_clause
from sathub.service import MemoryService

from oracles import cnf_models


@pytest.fixture
def service():
    svc = MemoryService()
    yield svc
    svc.shutdown()


def test_add_variable_counts():
    store = CnfStore()
    assert store.reserve_variables(1) == 1
    assert store.reserve_variables(1) == 2
    assert store.reserve_variables(1) == 3
    assert store.var_count == 3

    store8 = CnfStore(8)
    assert store8.reserve_variables(1) == 9


def test_add_variables_bulk():
    store = CnfStore(4)
    assert store.reserve_variables(8) == 5
    assert store.var_count == 12

    empty = CnfStore()
    assert empty.reserve_variables(1) == 1
    with pytest.raises(ValueError):
        empty.reserve_variables(0)


def test_canonical_clause_order():
    assert canonical_clause([3, -2, 1]) == (1, -2, 3)
    # negative precedes positive for the same variable
    assert canonical_clause([2, -2, 1]) == (1, -2, 2)
    # duplicates removed
    assert canonical_clause([1, 1, -3]) == (1, -3)
    # idempotent
    for clause in [[3, -2, 1], [5, 5, -5], [-4]]:
        c1 = canonical_clause(clause)
        assert canonical_clause(c1) == c1


def test_canonical_clause_rejects_bad_literals():
    with pytest.raises(ValueError):
        canonical_clause([])
    with pytest.raises(ValueError):
        canonical_clause([1, 0])
    with pytest.raises(ValueError):
        canonical_clause([True])


def test_add_clause_canonicalizes_and_dedups():
    store = CnfStore(3)
    assert store.add_clause([3, -2, 1]) is True
    assert store.clauses() == [[1, -2, 3]]
    assert store.add_clause([1, -2, 3]) is False
    assert store.add_clause([-2, 3, 1]) is False
    assert store.clauses() == [[1, -2, 3]]


def test_add_clause_out_of_range():
    store = CnfStore(3)
    with pytest.raises(ClauseRangeError):
        store.add_clause([5])
    with pytest.raises(ClauseRangeError):
        store.add_clause([1, -4])


LITERAL = st.one_of(st.integers(-5, 5), st.booleans())
BATCH = st.lists(st.lists(LITERAL, max_size=4), max_size=10)


def outcome_of(call, literals):
    """``call(literals)``'s value, or the type and message of the ``ValueError`` it raised."""
    try:
        return call(literals)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_outcome(held, var_count, literals):
    """The outcome of adding ``literals`` to a store holding ``held``, as a
    plain model: the error type, or whether the clause is new."""
    if not literals or any(type(lit) is not int or lit == 0 for lit in literals):
        return ValueError
    clause = tuple(sorted(set(literals), key=lambda lit: (abs(lit), lit > 0)))
    if abs(clause[-1]) > var_count:
        return ClauseRangeError
    if clause in held:
        return False
    held.append(clause)
    return True


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), BATCH, BATCH)
def test_add_clauses_matches_a_loop_of_add_clause(var_count, preload, batch):
    looped, batched = CnfStore(var_count), CnfStore(var_count)
    for store in (looped, batched):
        for literals in preload:
            outcome_of(store.add_clause, literals)
    expected = [outcome_of(looped.add_clause, literals) for literals in batch]
    outcomes = batched.add_clauses(batch)
    assert [
        (type(o), str(o)) if isinstance(o, ValueError) else o for o in outcomes
    ] == expected
    assert batched.clause_tuples() == looped.clause_tuples()
    assert batched.var_count == looped.var_count
    held = []
    model = [reference_outcome(held, var_count, literals) for literals in preload + batch]
    assert model[len(preload):] == [o if type(o) is bool else o[0] for o in expected]
    assert held == looped.clause_tuples()


def test_clauses_returns_insertion_order():
    store = CnfStore(5)
    store.add_clause([1, -2, 3])
    store.add_clause([4, -5])
    assert store.clauses() == [[1, -2, 3], [4, -5]]
    assert CnfStore().clauses() == []


def test_tautologies_and_duplicate_literals():
    store = CnfStore(2)
    assert store.add_clause([1, -1]) is True
    assert store.clauses() == [[-1, 1]]
    assert store.add_clause([2, 2, 2]) is True
    assert store.clauses() == [[-1, 1], [2]]


def test_evaluate_basic():
    store = CnfStore(2)
    store.add_clause([1, 2])
    assert store.evaluate([False, True]) is True
    assert store.evaluate([False, False]) is False

    contradiction = CnfStore(1)
    contradiction.add_clause([1])
    contradiction.add_clause([-1])
    assert contradiction.evaluate([True]) is False
    assert contradiction.evaluate([False]) is False

    empty = CnfStore(2)
    assert empty.evaluate([True, False]) is True

    with pytest.raises(ValueError):
        store.evaluate([True])


def test_evaluate_matches_truth_table_exhaustively():
    rng = random.Random(7)
    for trial in range(60):
        n = rng.randint(1, 4)
        store = CnfStore(n)
        clauses = []
        for _ in range(rng.randint(0, 8)):
            width = rng.randint(1, n)
            variables = rng.sample(range(1, n + 1), width)
            clause = [v if rng.random() < 0.5 else -v for v in variables]
            store.add_clause(clause)
            clauses.append(clause)
        models = set(cnf_models(clauses, n))
        for bits in itertools.product([False, True], repeat=n):
            assert store.evaluate(list(bits)) == (bits in models)


# -- forks: copies that the hub keeps fed (MemoryService.fork_memory) ---------


def test_attached_fork_sees_origin_updates(service):
    origin = service.create_memory(3)
    fork = service.fork_memory(origin, detach=False)
    origin.add_clauses([[1]])
    assert [1] in fork.view.clauses()
    assert fork.view.var_count == 3
    origin.reserve_variables(1)
    assert fork.view.var_count == 4


def test_detached_fork_is_frozen(service):
    origin = service.create_memory(3)
    origin.add_clauses([[1, 2]])
    fork = service.fork_memory(origin, detach=True)
    origin.add_clauses([[3]])
    origin.reserve_variables(2)
    assert fork.view.clauses() == [[1, 2]]
    assert fork.view.var_count == 3


def test_fork_writes_never_reach_origin(service):
    origin = service.create_memory(3)
    origin.add_clauses([[1, 2]])
    fork = service.fork_memory(origin, detach=False)
    fork.add_clauses([[-1]])
    assert origin.view.clauses() == [[1, 2]]
    assert fork.view.clauses() == [[1, 2], [-1]]


def test_fork_dedups_against_origin(service):
    origin = service.create_memory(3)
    origin.add_clauses([[1, 2]])
    fork = service.fork_memory(origin, detach=False)
    assert fork.add_clauses([[2, 1]])[0] is False
    # origin may later add a clause the fork stored first; the fork holds it once
    assert fork.add_clauses([[3]])[0] is True
    assert origin.add_clauses([[3]])[0] is True
    assert fork.view.clauses().count([3]) == 1


def test_fork_of_fork_chain(service):
    origin = service.create_memory(2)
    origin.add_clauses([[1]])
    f1 = service.fork_memory(origin, detach=False)
    f1.add_clauses([[2]])
    f2 = service.fork_memory(f1, detach=False)
    f2.add_clauses([[-1, -2]])
    assert f2.view.clauses() == [[1], [2], [-1, -2]]
    origin.add_clauses([[-2, 1]])
    # a fork lists clauses in the order it received them
    assert f2.view.clauses() == [[1], [2], [-1, -2], [1, -2]]
    assert f1.view.clauses() == [[1], [2], [1, -2]]
    # variables are shared along the whole attached chain
    assert f2.reserve_variables(1) == 3
    assert origin.reserve_variables(1) == 4
    assert origin.view.var_count == f1.view.var_count == f2.view.var_count == 4


def test_detached_fork_own_variables(service):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=True)
    assert fork.reserve_variables(1) == 3
    assert origin.view.var_count == 2
    fork.add_clauses([[3]])
    assert fork.view.clauses() == [[3]]
    # an attached fork of a detached fork shares the detached fork's variables
    sub = service.fork_memory(fork, detach=False)
    origin.reserve_variables(5)
    assert sub.reserve_variables(1) == 4
    assert (origin.view.var_count, fork.view.var_count, sub.view.var_count) == (7, 4, 4)


def test_attached_fork_shares_variables(service):
    origin = service.create_memory(2)
    fork = service.fork_memory(origin, detach=False)
    assert fork.reserve_variables(1) == 3
    assert origin.view.var_count == 3


def random_clause(rng, n, max_width=None):
    width = rng.randint(1, max_width or n)
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]


def test_fork_isolation_random_interleavings(service):
    rng = random.Random(42)
    for trial in range(40):
        n = rng.randint(2, 5)
        plain = CnfStore(n)
        origin = service.create_memory(n)
        forks = []  # (memory, attached, model of its clause set)
        for step in range(30):
            if step % 10 == 0:
                attached = rng.random() < 0.5
                fork = service.fork_memory(origin, detach=not attached)
                forks.append((fork, attached, set(plain.clause_tuples())))
            clause = random_clause(rng, n)
            target = rng.randrange(len(forks) + 1)
            if target == 0:
                plain.add_clause(clause)
                origin.add_clauses([clause])
                for _, attached, model in forks:
                    if attached:
                        model.add(canonical_clause(clause))
            else:
                fork, _, model = forks[target - 1]
                fork.add_clauses([clause])
                model.add(canonical_clause(clause))
        assert origin.view.clauses() == plain.clauses()
        for fork, _, model in forks:
            held = fork.view.clause_tuples()
            assert len(held) == len(model) and set(held) == model
            service.delete_memory(fork.object_id)
        service.delete_memory(origin.object_id)


def test_dedup_soundness_across_views(service):
    rng = random.Random(9)
    origin = service.create_memory(4)
    fork = service.fork_memory(origin, detach=False)
    mirror = connect(fork.direct_url)
    try:
        for _ in range(200):
            (origin if rng.random() < 0.5 else fork).add_clauses([random_clause(rng, 4)])
        for view in (origin.view, fork.view):
            seen = view.clause_tuples()
            assert len(seen) == len(set(seen))
        deadline = time.monotonic() + 5
        while mirror.version < fork.view.version and time.monotonic() < deadline:
            time.sleep(0.002)
        # the fork's peers get every clause it holds once, in its order
        assert mirror.clause_tuples() == fork.view.clause_tuples()
    finally:
        mirror.close()


def test_attached_fork_superset_of_origin(service):
    rng = random.Random(3)
    origin = service.create_memory(4)
    fork = service.fork_memory(origin, detach=False)
    for _ in range(100):
        (origin if rng.random() < 0.6 else fork).add_clauses([random_clause(rng, 4, 3)])
        assert set(origin.view.clause_tuples()) <= set(fork.view.clause_tuples())


def test_version_counter_bumps_on_clause_adds(service):
    store = CnfStore(2)
    assert store.version == 0
    store.add_clause([1])
    store.add_clause([1])
    assert store.version == 1  # the clause count
    origin = service.create_memory(2)
    origin.add_clauses([[1]])
    fork = service.fork_memory(origin, detach=False)
    assert fork.view.version == 1
    fork.add_clauses([[2]])
    origin.add_clauses([[-1]])
    assert fork.view.version == 3
