import random
import threading

from sathub.client import connect
from sathub.cnf import CnfStore
from sathub.dpll import DpllSolver, SolveControl, run
from sathub.service import MemoryService

from gens import random_cnf
from oracles import cnf_satisfiable, php_clauses, rup_refutes


def make_store(clauses, n):
    store = CnfStore(n)
    for clause in clauses:
        store.add_clause(clause)
    return store


def test_unit_propagation_chain():
    store = make_store([[1, -2], [2]], 2)
    outcome = run(store)
    assert outcome.result == "SAT"
    assert outcome.model == [True, True]


def test_immediate_contradiction():
    store = make_store([[1], [-1]], 1)
    assert run(store).result == "UNSAT"


def test_phase_is_honored_on_first_decision():
    store = make_store([[1, 2]], 2)
    outcome = run(store, {1: False})
    assert outcome.result == "SAT"
    assert outcome.model == [False, True]

    outcome = run(store, {1: True})
    assert outcome.result == "SAT"
    assert outcome.model[0] is True


def test_default_phase_false():
    store = make_store([[1, 2]], 2)
    outcome = run(store)
    assert outcome.model == [False, True]


def test_pigeonhole_3_2_unsat(run_solvers):
    clauses, n = php_clauses(3, 2)
    assert cnf_satisfiable(clauses, n) is False
    store = make_store(clauses, n)
    assert run(store).result == "UNSAT"
    assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned)


def test_empty_store_is_sat():
    outcome = run(CnfStore(3))
    assert outcome.result == "SAT"
    assert outcome.model == [False, False, False]


def test_agreement_with_brute_force_500_instances(run_solvers):
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(500):
        clauses, n = random_cnf(rng)
        store = make_store(clauses, n)
        outcome = run(store)
        expected = cnf_satisfiable(clauses, n)
        if (outcome.result == "SAT") != expected:
            disagreements += 1
        if outcome.result == "SAT":
            assert store.evaluate(outcome.model)
        if outcome.result == "UNSAT":
            assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned)
    assert disagreements == 0


def test_determinism():
    rng = random.Random(5)
    for _ in range(20):
        clauses, n = random_cnf(rng, max_vars=10, max_clauses=25)
        first = run(make_store(clauses, n))
        second = run(make_store(clauses, n))
        assert first.result == second.result
        assert first.model == second.model


def test_cancel_returns_unknown():
    # the decision hook holds the search until the cancel is in, so it lands mid-search
    clauses, n = php_clauses(4, 3)
    store = make_store(clauses, n)
    control = SolveControl()
    held, release = threading.Event(), threading.Event()
    result = {}

    def hook(decision):
        held.set()
        release.wait()

    def target():
        result["outcome"] = run(store, control=control, on_decision=hook)

    t = threading.Thread(target=target)
    t.start()
    assert held.wait(timeout=10)
    control.cancel()
    release.set()
    t.join(timeout=10)
    assert not t.is_alive()
    assert result["outcome"].result == "UNKNOWN"


def test_pause_resume_transparent_at_random_points():
    rng = random.Random(77)
    for trial in range(100):
        clauses, n = random_cnf(rng, max_vars=10, max_clauses=30)
        store = make_store(clauses, n)
        baseline = run(store)
        decisions = []
        run(make_store(clauses, n), on_decision=decisions.append)
        if not decisions:
            continue
        pause_at = rng.choice(decisions)
        control = SolveControl()

        def hook(k, control=control, pause_at=pause_at):
            if k == pause_at:
                control.pause()
                threading.Timer(0.002, control.resume).start()

        outcome = run(make_store(clauses, n), control=control, on_decision=hook)
        assert outcome.result == baseline.result
        assert outcome.model == baseline.model


def test_fold_in_new_clause_mid_search():
    # start SAT; a clause injected at the first decision flips the instance UNSAT
    store = make_store([[1, 2], [-1, 2]], 2)
    injected = []

    def hook(k):
        if k == 1 and not injected:
            store.add_clause([-2])
            store.add_clause([2])
            injected.append(True)

    outcome = run(store, on_decision=hook)
    assert outcome.result == "UNSAT"


def test_fold_in_keeps_sat_instances_sat():
    store = make_store([[1, 2, 3]], 3)

    def hook(k):
        if k == 1:
            store.add_clause([3])

    outcome = run(store, on_decision=hook)
    assert outcome.result == "SAT"
    assert store.evaluate(outcome.model)


def test_fold_in_clause_falsified_at_level0_watches():
    # [1, 2, 3] arrives with vars 1 and 2 already forced false at level 0 and
    # var 3 false by decision; after the rewind the clause must still propagate
    store = make_store([[-1], [1, -2]], 3)

    def hook(k):
        if k == 1:
            store.add_clause([1, 2, 3])

    outcome = run(store, on_decision=hook)
    assert outcome.result == "SAT"
    assert outcome.model == [False, False, True]
    assert store.evaluate(outcome.model)


def test_fold_in_batch_survives_mid_batch_rewind():
    # first folded clause forces a rewind; the rest of the batch must not be lost
    store = make_store([[-1]], 3)

    def hook(k):
        if k == 1:
            store.add_clause([1, 2])
            store.add_clause([3])

    outcome = run(store, on_decision=hook)
    assert outcome.result == "SAT"
    assert outcome.model == [False, True, True]
    assert store.evaluate(outcome.model)


def test_assumptions():
    solver = DpllSolver(make_store([[1, 2], [-1, 3]], 3))
    assert solver.solve(assumptions=[-2]).result == "SAT"
    assert solver.solve(assumptions=[-2, -3]).result == "UNSAT"
    # solver is reusable after an assumption solve
    assert solver.solve().result == "SAT"


def test_incremental_blocking_clauses_enumerate_models():
    store = make_store([[1, 2]], 2)
    solver = DpllSolver(store)
    models = []
    while True:
        outcome = solver.solve()
        if outcome.result != "SAT":
            break
        models.append(tuple(outcome.model))
        store.add_clause(
            [-(i + 1) if value else (i + 1) for i, value in enumerate(outcome.model)]
        )
    assert outcome.result == "UNSAT"
    assert len(models) == 3
    assert len(set(models)) == 3


def test_export_learned_short_clauses():
    store = make_store([[1, 2], [1, -2], [-1, 2], [-1, -2], [3, 4]], 4)
    original = store.clause_tuples()

    solver = DpllSolver(store, export=True)
    outcome = solver.solve()
    exported = store.clause_tuples()[len(original):]
    assert outcome.result == "UNSAT"
    assert exported  # the 2x2 contradiction yields conflict-derived clauses
    learned = {frozenset(c) for c in solver.learned}
    for clause in exported:
        assert 1 <= len(clause) <= 2
        assert frozenset(clause) in learned
    # every learned clause, exported or not, follows from the original ones
    assert rup_refutes(original, solver.learned)


def test_export_learned_goes_to_own_view():
    service = MemoryService()
    try:
        origin = service.create_memory(2)
        origin.add_clauses([[1, 2]])
        fork = service.fork_memory(origin, detach=False)
        mirror = connect(fork.direct_url)
        mirror.add_clauses([[-1, -2]])
        assert [-1, -2] in mirror.clauses()
        mirror.close()  # returns once the hub has applied the clause
        assert [-1, -2] in fork.view.clauses()
        assert [-1, -2] not in origin.view.clauses()
    finally:
        service.shutdown()


def test_learned_clause_length_gate(run_solvers):
    # clauses exported during a real run never exceed the cap
    clauses, n = php_clauses(4, 3)
    store = make_store(clauses, n)
    original = store.clause_tuples()
    outcome = run(store, export=True)
    assert outcome.result == "UNSAT"
    learned = {frozenset(c) for c in run_solvers[-1].learned}
    for clause in store.clause_tuples()[len(original):]:
        assert len(clause) <= 2
        assert frozenset(clause) in learned
    # the derivation holds over the original clauses alone
    assert rup_refutes(original, run_solvers[-1].learned)


def test_unsat_with_assumption_conflict_at_setup():
    solver = DpllSolver(make_store([[1]], 1))
    assert solver.solve(assumptions=[-1]).result == "UNSAT"
    assert solver.solve(assumptions=[1]).result == "SAT"


def test_model_check_rejects_a_wrong_model(monkeypatch):
    store = make_store([[1], [-2], [2, 3]], 3)
    assert run(store).model == [True, False, True]
    solve = DpllSolver.solve

    def flip_first_bit(self, *args, **kwargs):
        outcome = solve(self, *args, **kwargs)
        outcome.model[0] = not outcome.model[0]
        return outcome

    monkeypatch.setattr(DpllSolver, "solve", flip_first_bit)
    outcome = run(store)
    assert outcome.result == "UNKNOWN"
    assert outcome.error == "MODEL_CHECK_FAILED"
    assert outcome.model is None


def test_a_clause_added_after_the_last_read_does_not_fail_the_model_check(monkeypatch):
    store = make_store([[1], [-2], [2, 3]], 3)
    solve = DpllSolver.solve

    def contradict_after_the_last_read(self, *args, **kwargs):
        outcome = solve(self, *args, **kwargs)
        store.add_clauses([[-3]])  # the model sets x3; the solver never read this clause
        return outcome

    monkeypatch.setattr(DpllSolver, "solve", contradict_after_the_last_read)
    outcome = run(store)
    assert (outcome.result, outcome.model) == ("SAT", [True, False, True])
    assert not store.evaluate(outcome.model)


def test_fold_in_reads_only_appended_clauses():
    class CountingStore(CnfStore):
        """Counts the clauses each read returns; a full rescan fails the test."""

        def __init__(self, n):
            super().__init__(n)
            self.reads = []

        def clauses_since(self, cursor=0):
            fresh, cursor = super().clauses_since(cursor)
            self.reads.append(len(fresh))
            return fresh, cursor

        def iter_clauses(self):
            raise AssertionError("the view was rescanned")

    store = CountingStore(2001)
    for var in range(1, 2001):
        store.add_clause([var, var + 1])

    def hook(k):
        if k == 1:
            store.add_clause([1, -1, 2, -2])

    outcome = run(store, on_decision=hook)
    assert outcome.result == "SAT"
    assert store.reads[0] == 2000
    assert sum(store.reads[1:-1]) == 1
    assert store.reads[-1] == 2001  # the model check reads the memory once, after the solve


def test_fold_in_over_a_mirror_reads_only_appended_clauses():
    service = MemoryService()
    try:
        obj = service.create_memory(2001)
        for var in range(1, 2001):
            obj.view.add_clause([var, var + 1])
        mirror = connect(obj.direct_url)
        reads = []
        since = mirror.clauses_since

        def counted(cursor=0):
            fresh, cursor = since(cursor)
            reads.append(len(fresh))
            return fresh, cursor

        mirror.clauses_since = counted

        def hook(k):
            if k == 1:
                mirror.add_clause_direct([2001, -2001])

        try:
            outcome = run(mirror, on_decision=hook)
        finally:
            mirror.close()
        assert outcome.result == "SAT"
        assert reads[0] == 2000
        assert sum(reads[1:-1]) == 1
        assert reads[-1] == 2001  # the model check reads the memory once, after the solve
    finally:
        service.shutdown()


def test_each_decision_takes_the_lowest_unassigned_variable(run_solvers):
    # clauses added at the first decisions rewind the search (a unit always
    # does); the decision cursor must still name the lowest unassigned variable
    rng = random.Random(13)

    def random_clause(n, width):
        return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width)]

    for _ in range(300):
        n = rng.randint(3, 14)
        store = make_store([random_clause(n, 3) for _ in range(rng.randint(1, 4 * n))], n)
        extra = {k: [random_clause(n, rng.randint(1, 3)) for _ in range(2)] for k in (1, 2, 3)}

        def hook(k):
            solver = run_solvers[-1]
            cursor = solver.cursor
            assert solver.vals[cursor << 1] is None
            assert all(solver.vals[var << 1] is not None for var in range(1, cursor))
            for clause in extra.get(k, ()):
                store.add_clause(clause)

        outcome = run(store, on_decision=hook)
        assert outcome.result in ("SAT", "UNSAT")
        assert (outcome.result == "SAT") == cnf_satisfiable(store.clause_tuples(), n)
        if outcome.result == "SAT":
            assert store.evaluate(outcome.model)


def test_a_view_lost_before_the_first_poll_answers_memory_unavailable():
    store = make_store([[1, 2]], 2)
    store.alive = False
    outcome = run(store)
    assert (outcome.result, outcome.error) == ("UNKNOWN", "MEMORY_UNAVAILABLE")


def spy_on_load(monkeypatch):
    """The size of each batch ``DpllSolver.load`` attaches, in call order."""
    loads = []
    load = DpllSolver.load

    def counted(self, clauses):
        loads.append(len(clauses))
        return load(self, clauses)

    monkeypatch.setattr(DpllSolver, "load", counted)
    return loads


def test_an_exporting_solve_does_not_read_its_own_exports_back(monkeypatch):
    clauses, n = php_clauses(4, 3)
    store = make_store(clauses, n)
    original = store.clause_tuples()
    loads = spy_on_load(monkeypatch)
    assert run(store, export=True).result == "UNSAT"
    assert len(store.clause_tuples()) > len(original)  # it exported clauses
    assert sum(loads) == len(original)


def test_a_second_solve_loads_only_the_clauses_added_since(monkeypatch):
    store = make_store([[1, 2, 3], [-1, 2], [-2, 3]], 3)
    solver = DpllSolver(store)
    loads = spy_on_load(monkeypatch)
    first = solver.solve()
    assert first.result == "SAT" and store.evaluate(first.model)
    assert sum(loads) == 3
    store.add_clauses([[-3], [1, 3]])
    assert solver.solve().result == "UNSAT"
    assert sum(loads) == 5
    assert solver.clauses_read == store.version
