import itertools

import pytest

from sathub.circuits import CircuitBuilder, build_expression_circuit
from sathub.cnf import ClauseRangeError, CnfStore
from sathub.dpll import DpllSolver
from sathub.exprs import ExprNode

from oracles import cnf_models


def fresh(n=4):
    store = CnfStore(n)
    return store, CircuitBuilder(store)


def test_not_reuses_literal_no_clauses():
    store, ctx = fresh()
    out = build_expression_circuit(ExprNode.not_(ExprNode.var(1)), ctx)
    assert out == -1
    assert store.clauses() == []
    assert ctx.clauses_added == 0


def test_and_of_identical_vars_folds():
    store, ctx = fresh()
    out = build_expression_circuit(ExprNode.and_(ExprNode.var(1), ExprNode.var(1)), ctx)
    assert out == 1
    assert store.clauses() == []


def test_hash_consing_shares_gates():
    store, ctx = fresh()
    a = build_expression_circuit(ExprNode.and_(ExprNode.var(1), ExprNode.var(2)), ctx)
    before = len(store.clauses())
    b = build_expression_circuit(ExprNode.and_(ExprNode.var(2), ExprNode.var(1)), ctx)
    assert a == b
    assert len(store.clauses()) == before


def test_xor_gate_models_exactly():
    store, ctx = fresh(2)
    t = build_expression_circuit(ExprNode.xor(ExprNode.var(1), ExprNode.var(2)), ctx)
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
        for bits in itertools.product([False, True], repeat=arity):
            solver = DpllSolver(store.var_count)
            for clause in store.clause_tuples():
                solver.add_clause(clause)
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
    assert t != f
    assert [t] in store.clauses()
    assert [-f] in store.clauses()


def test_or_is_the_de_morgan_dual_of_and():
    store, ctx = fresh(2)
    out = ctx.or_(1, 2)
    before = len(store.clauses())
    assert out == -ctx.and_(-1, -2)
    assert len(store.clauses()) == before
    assert ctx.or_many([1, 2]) == out


def test_one_constant_variable():
    store, ctx = fresh(1)
    assert ctx.false_lit == -ctx.true_lit
    assert ctx.const(False) == -ctx.const(True)
    assert store.var_count == 2
    assert store.clauses() == [[ctx.true_lit]]
