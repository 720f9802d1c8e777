import itertools
import random

import pytest

from sathub.circuits import CircuitBuilder
from sathub.client import connect
from sathub.cnf import ClauseRangeError, CnfStore, canonical_clause
from sathub.dpll import DpllSolver
from sathub.exprs import ExprNode, build_expression_circuit
from sathub.factoring import FactorizationSpec, build_factorization
from sathub.service import MemoryService

from gens import random_expr
from oracles import cnf_models, expr_mask, table_context


def fresh(n=4):
    store = CnfStore(n)
    return store, CircuitBuilder(store)


def test_not_reuses_literal_no_clauses():
    store, ctx = fresh()
    out = build_expression_circuit(ExprNode.not_(ExprNode.var(1)), ctx)
    ctx.finalize()
    assert out == -1
    assert store.clauses() == []
    assert ctx.clauses_added == 0


def test_and_of_identical_vars_folds():
    store, ctx = fresh()
    out = build_expression_circuit(ExprNode.and_(ExprNode.var(1), ExprNode.var(1)), ctx)
    ctx.finalize()
    assert out == 1
    assert store.clauses() == []


def test_hash_consing_shares_gates():
    store, ctx = fresh()
    a = build_expression_circuit(ExprNode.and_(ExprNode.var(1), ExprNode.var(2)), ctx)
    ctx.finalize()
    before = len(store.clauses())
    b = build_expression_circuit(ExprNode.and_(ExprNode.var(2), ExprNode.var(1)), ctx)
    ctx.finalize()
    assert a == b
    assert len(store.clauses()) == before


def test_xor_gate_models_exactly():
    store, ctx = fresh(2)
    t = build_expression_circuit(ExprNode.xor(ExprNode.var(1), ExprNode.var(2)), ctx)
    ctx.finalize()
    assert t not in (1, 2, -1, -2)
    # exactly the assignments with t == x1 ^ x2 survive
    models = cnf_models(store.clauses(), store.var_count)
    assert len(models) == 4
    for model in models:
        x1, x2 = model[0], model[1]
        t_val = model[abs(t) - 1] if t > 0 else not model[abs(t) - 1]
        assert t_val == (x1 != x2)


def test_var_out_of_range_rejected():
    store, ctx = fresh(2)
    with pytest.raises(ClauseRangeError):
        build_expression_circuit(ExprNode.var(5), ctx)


def test_constant_folding_through_gates():
    store, ctx = fresh(2)
    t = ctx.true_lit
    f = ctx.false_lit
    assert ctx.and_(t, 1) == 1
    assert ctx.and_(f, 1) == f
    assert ctx.or_(t, 1) == t
    assert ctx.or_(f, 1) == 1
    assert ctx.xor(t, 1) == -1
    assert ctx.xor(f, 1) == 1
    assert ctx.maj3(t, 1, f) == 1
    assert ctx.and_(1, -1) == f
    assert ctx.or_(1, -1) == t
    assert ctx.xor(1, 1) == f
    assert ctx.xor(1, -1) == t


def test_gate_semantics_exhaustive():
    # every gate builder emits a full equivalence: check all input assignments
    cases = [
        ("and", lambda ctx: ctx.and_(1, 2), lambda m: m[0] and m[1], 2),
        ("or", lambda ctx: ctx.or_(1, 2), lambda m: m[0] or m[1], 2),
        ("xor", lambda ctx: ctx.xor(1, 2), lambda m: m[0] != m[1], 2),
        ("impl", lambda ctx: ctx.impl(1, 2), lambda m: (not m[0]) or m[1], 2),
        ("equiv", lambda ctx: ctx.equiv(1, 2), lambda m: m[0] == m[1], 2),
        ("maj3", lambda ctx: ctx.maj3(1, 2, 3), lambda m: sum(m) >= 2, 3),
        ("maj3neg", lambda ctx: ctx.maj3(-1, -2, 3), lambda m: ((not m[0]) + (not m[1]) + m[2]) >= 2, 3),
    ]
    for name, build, semantics, arity in cases:
        store = CnfStore(arity)
        ctx = CircuitBuilder(store)
        out = build(ctx)
        ctx.finalize()
        solver = DpllSolver(store)
        for bits in itertools.product([False, True], repeat=arity):
            assumptions = [i + 1 if b else -(i + 1) for i, b in enumerate(bits)]
            outcome = solver.solve(assumptions=assumptions)
            assert outcome.result == "SAT", name
            model = outcome.model
            value = model[out - 1] if out > 0 else not model[-out - 1]
            assert value == semantics(bits), (name, bits)


def test_n_ary_gates():
    store, ctx = fresh(4)
    expr = ExprNode.and_(*(ExprNode.var(i) for i in range(1, 5)))
    out = build_expression_circuit(expr, ctx)
    ctx.finalize()
    models = cnf_models(store.clauses(), store.var_count)
    for model in models:
        value = model[out - 1] if out > 0 else not model[-out - 1]
        assert value == all(model[:4])


def test_finalize_pins_leftover_pool_vars():
    store = CnfStore(2)
    ctx = CircuitBuilder(store, alloc_chunk=8)
    ctx.and_(1, 2)
    ctx.finalize()
    # every allocated-but-unused variable is forced false
    unit_clauses = [c for c in store.clauses() if len(c) == 1]
    forced = {-c[0] for c in unit_clauses if c[0] < 0}
    pool_vars = set(range(3, store.var_count + 1))
    gate_vars = {abs(l) for c in store.clauses() if len(c) > 1 for l in c} - {1, 2}
    assert pool_vars - gate_vars <= forced


def test_reserved_const_variables():
    store, ctx = fresh(1)
    t = ctx.true_lit
    f = ctx.false_lit
    ctx.finalize()
    assert t != f
    assert [t] in store.clauses()
    assert [-f] in store.clauses()


def test_or_is_the_de_morgan_dual_of_and():
    store, ctx = fresh(2)
    out = ctx.or_(1, 2)
    ctx.finalize()
    before = len(store.clauses())
    assert out == -ctx.and_(-1, -2)
    ctx.finalize()
    assert len(store.clauses()) == before
    assert ctx.or_many([1, 2]) == out


def test_one_constant_variable():
    store, ctx = fresh(1)
    assert ctx.false_lit == -ctx.true_lit
    assert ctx.const(False) == -ctx.const(True)
    ctx.finalize()
    assert store.var_count == 2
    assert store.clauses() == [[ctx.true_lit]]


def projected_table(store, n):
    """Truth table (as in ``oracles``) of the store's models projected onto x1..xn;
    blocks each model in a copy of the store."""
    copy = CnfStore(store.var_count)
    copy.add_clauses(store.clause_tuples())
    solver = DpllSolver(copy)
    table = 0
    while (outcome := solver.solve()).result == "SAT":
        inputs = outcome.model[:n]
        table |= 1 << sum(1 << i for i, bit in enumerate(inputs) if bit)
        copy.add_clause([-(i + 1) if bit else i + 1 for i, bit in enumerate(inputs)])
    return table


def test_gates_move_past_variables_another_writer_adds_mid_build():
    rng = random.Random(31)
    service = MemoryService()
    try:
        for _ in range(12):
            first, n = random_expr(rng, max_vars=8, size=15)
            second, _ = random_expr(rng, max_vars=n, size=10)
            obj = service.create_memory(n)
            writer, other = connect(obj.direct_url), connect(obj.direct_url)
            theirs = []
            try:
                ctx = CircuitBuilder(writer)
                ctx.add_clause([build_expression_circuit(first, ctx)])
                theirs.append(other.reserve_variables(5))
                written = ctx.finalize()
                # a second build on the same builder reuses the moved gates of the first
                again = ExprNode.xor(first, second)
                ctx.add_clause([build_expression_circuit(again, ctx)])
                theirs.append(other.reserve_variables(3))
                written += ctx.finalize()
            finally:
                writer.close()
                other.close()
            store = obj.view
            other_vars = set(range(theirs[0], theirs[0] + 5)) | set(range(theirs[1], theirs[1] + 3))
            assert not other_vars & {abs(lit) for c in store.clause_tuples() for lit in c}
            assert set(store.clause_tuples()) == {canonical_clause(c) for c in written}
            masks, full = table_context(n)
            expected = expr_mask(ExprNode.and_(first, again), masks, full)
            assert projected_table(store, n) == expected
            service.delete_memory(obj.object_id)
    finally:
        service.shutdown()


def failing_build(ctx):
    # the XOR gate is built before x9, beyond the memory's 3 variables, raises
    expr = ExprNode.and_(ExprNode.xor(ExprNode.var(1), ExprNode.var(2)), ExprNode.var(9))
    with pytest.raises(ClauseRangeError):
        build_expression_circuit(expr, ctx)


def test_a_build_that_raises_writes_nothing_to_a_store():
    store = CnfStore(3)
    store.add_clause([1, 2])
    failing_build(CircuitBuilder(store))
    assert store.var_count == 3
    assert store.clauses() == [[1, 2]]


def test_a_build_that_raises_writes_nothing_through_a_mirror():
    service = MemoryService()
    try:
        obj = service.create_memory(3)
        mirror = connect(obj.direct_url)
        try:
            failing_build(CircuitBuilder(mirror))
        finally:
            mirror.close()
        assert obj.view.var_count == 3
        assert obj.view.version == 0
    finally:
        service.shutdown()


def queued_clauses(store):
    """Every clause a builder over ``store`` writes from now on, as it writes it."""
    log = []
    add = store.add_clauses

    def recording(batch):
        log.extend(batch)
        return add(batch)

    store.add_clauses = recording
    return log


def assert_canonical(clauses):
    assert clauses
    for clause in clauses:
        assert tuple(clause) == canonical_clause(clause), clause


@pytest.mark.parametrize("l", [2, 4, 8, 16, 32])
def test_a_factoring_build_queues_only_canonical_clauses(l):
    rng = random.Random(f"canonical:{l}")
    for _ in range(3):
        u, v = rng.randrange(1 << l), rng.randrange(1 << l)
        store = CnfStore(0)
        queued = queued_clauses(store)
        build_factorization(FactorizationSpec.from_product(l, u * v), store)
        assert_canonical(queued)
        assert store.clause_tuples() == list(dict.fromkeys(map(tuple, queued)))


def test_expression_builds_queue_only_canonical_clauses_even_after_renumbering():
    rng = random.Random(47)
    for i in range(200):
        expr, n = random_expr(rng, max_vars=10, size=20)
        store = CnfStore(n)
        queued = queued_clauses(store)
        ctx = CircuitBuilder(store, alloc_chunk=1 + i % 3)
        ctx.add_clause([build_expression_circuit(expr, ctx)])
        if i % 2:
            store.reserve_variables(1 + i % 5)  # another writer: finalize renumbers the gates
        written = ctx.finalize()
        assert written == queued
        assert_canonical(queued)
