import random

import pytest

from sathub.client import connect
from sathub.cnf import CnfStore, canonical_clause
from sathub.dpll import DpllSolver
from sathub.exprs import ExprNode, eval_expr, lower_to_cnf
from sathub.service import MemoryService

from gens import random_expr
from oracles import expr_mask, table_context


def solve_store(store, assumptions=()):
    return DpllSolver(store).solve(assumptions=assumptions)


def test_arity_validation():
    x = ExprNode.var(1)
    with pytest.raises(ValueError):
        ExprNode("NOT", (x, x))
    with pytest.raises(ValueError):
        ExprNode("AND", (x,))
    with pytest.raises(ValueError):
        ExprNode.var(0)


def test_eval_expr_all_kinds():
    x1, x2, x3 = ExprNode.var(1), ExprNode.var(2), ExprNode.var(3)
    assert eval_expr(ExprNode.xor(x1, x2), [True, False, False]) is True
    assert eval_expr(ExprNode.maj3(x1, x2, x3), [True, True, False]) is True
    assert eval_expr(ExprNode.maj3(x1, x2, x3), [True, False, False]) is False
    assert eval_expr(ExprNode.impl(x1, x2), [True, False, False]) is False
    assert eval_expr(ExprNode.impl(x1, x2), [False, False, False]) is True
    assert eval_expr(ExprNode.equiv(x1, x2), [False, False, False]) is True
    assert eval_expr(ExprNode.const(True), []) is True


def test_de_morgan_unit_example():
    # NOT(x1 OR x2) is AND(-x1, -x2): its gate x3 is defined once and asserted
    store = CnfStore(2)
    clauses = lower_to_cnf(
        ExprNode.not_(ExprNode.or_(ExprNode.var(1), ExprNode.var(2))), store
    )
    assert store.var_count == 3
    assert clauses == [[-1, -3], [-2, -3], [1, 2, 3], [3]]
    assert solve_store(store).model == [False, False, True]
    assert solve_store(store, assumptions=[1]).result == "UNSAT"
    assert solve_store(store, assumptions=[2]).result == "UNSAT"


def test_inner_conjunction_introduces_chain_variables():
    # (x1 OR (x2 AND x3 AND x4)): x5 defines the whole conjunction, and the
    # disjunction is -x6 with x6 = AND(-x1, -x5), its De Morgan dual
    store = CnfStore(4)
    formula = ExprNode.or_(
        ExprNode.var(1), ExprNode.and_(ExprNode.var(2), ExprNode.var(3), ExprNode.var(4))
    )
    clauses = lower_to_cnf(formula, store)
    assert store.var_count == 6
    expected = [
        [-5, 2],
        [-5, 3],
        [-5, 4],
        [5, -2, -3, -4],
        [-6, -1],
        [-6, -5],
        [6, 1, 5],
        [-6],
    ]
    assert sorted(map(sorted, clauses)) == sorted(map(sorted, expected))


def test_three_literal_equivalence_truth_table():
    # x7 <-> x3 AND x4 in isolation: exactly the truth-table clauses
    store = CnfStore(6)
    formula = ExprNode.or_(
        ExprNode.var(1), ExprNode.and_(ExprNode.var(3), ExprNode.var(4))
    )
    clauses = lower_to_cnf(formula, store)
    definition = [c for c in clauses if abs(c[-1]) == 7]
    assert definition == [[3, -7], [4, -7], [-3, -4, 7]]


def test_lowering_grows_variable_count():
    store = CnfStore(0)
    lower_to_cnf(ExprNode.and_(ExprNode.var(1), ExprNode.var(2)), store)
    assert store.var_count >= 2
    assert solve_store(store).result == "SAT"


def test_constant_formulas():
    store = CnfStore(0)
    lower_to_cnf(ExprNode.const(True), store)
    assert solve_store(store).result == "SAT"
    store = CnfStore(0)
    lower_to_cnf(ExprNode.const(False), store)
    assert solve_store(store).result == "UNSAT"


def test_equisatisfiability_500_random_dags():
    rng = random.Random(99)
    for _ in range(500):
        expr, n = random_expr(rng, max_vars=12, size=20)
        masks, full = table_context(n)
        formula_sat = expr_mask(expr, masks, full) != 0
        store = CnfStore(n)
        lower_to_cnf(expr, store)
        assert (solve_store(store).result == "SAT") == formula_sat


def test_cnf_models_project_bijectively():
    rng = random.Random(100)
    checked = 0
    for _ in range(120):
        expr, n = random_expr(rng, max_vars=7, size=14)
        masks, full = table_context(n)
        formula_models = bin(expr_mask(expr, masks, full)).count("1")
        if formula_models > 40:
            continue
        store = CnfStore(n)
        lower_to_cnf(expr, store)

        solver = DpllSolver(store)
        cnf_models = 0
        while True:
            outcome = solver.solve()
            if outcome.result != "SAT":
                break
            cnf_models += 1
            # projection of every CNF model satisfies the formula
            assert eval_expr(expr, outcome.model[:n])
            store.add_clause(
                [-(i + 1) if v else (i + 1) for i, v in enumerate(outcome.model)]
            )
        assert cnf_models == formula_models
        checked += 1
    assert checked >= 50


def test_lowering_into_a_live_mirror():
    rng = random.Random(101)
    service = MemoryService()
    try:
        for i in range(60):
            expr, n = random_expr(rng, max_vars=10, size=20)
            masks, full = table_context(n)
            initial = n if i % 2 else 0
            obj = service.create_memory(initial)
            mirror = connect(obj.direct_url)
            try:
                clauses = lower_to_cnf(expr, mirror)
            finally:
                mirror.close()
            local = CnfStore(initial)
            lower_to_cnf(expr, local)
            # the inputs, then exactly the gate variables: no padding
            assert obj.view.var_count == mirror.var_count == local.var_count
            assert set(obj.view.clause_tuples()) == {canonical_clause(c) for c in clauses}
            assert (DpllSolver(obj.view).solve().result == "SAT") == (expr_mask(expr, masks, full) != 0)
            service.delete_memory(obj.object_id)
    finally:
        service.shutdown()
