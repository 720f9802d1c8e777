import pytest

from sathub.client import connect
from sathub.cnf import CnfStore
from sathub.dpll import DpllSolver, SolveControl, run
from sathub.factoring import FactorizationSpec, build_factorization, decode_model
from sathub.service import MemoryService

from oracles import rup_refutes, two_factor_pairs


def encode(l, product):
    spec = FactorizationSpec.from_product(l, product)
    store = CnfStore(0)
    layout = build_factorization(spec, store)
    return spec, store, layout


def enumerate_models(store, limit=10):
    """Up to ``limit`` models of the store, each blocked in a copy of it."""
    copy = CnfStore(store.var_count)
    copy.add_clauses(store.clause_tuples())
    solver = DpllSolver(copy)
    models = []
    while len(models) < limit:
        outcome = solver.solve()
        if outcome.result != "SAT":
            break
        models.append(outcome.model)
        copy.add_clause(
            [-(i + 1) if v else (i + 1) for i, v in enumerate(outcome.model)]
        )
    return models


def test_spec_validation():
    with pytest.raises(ValueError):
        FactorizationSpec.from_product(3, 10)
    with pytest.raises(ValueError):
        FactorizationSpec.from_product(4, 1 << 9)
    with pytest.raises(ValueError):
        FactorizationSpec(l=4, product_bits=(True,) * 7)
    spec = FactorizationSpec.from_product(4, 15)
    assert spec.product == 15
    assert spec.product_bits[:4] == (True, True, True, True)


def test_layout_and_counts():
    spec, store, layout = encode(4, 15)
    assert layout["uVars"] == [4, 3, 2, 1]
    assert layout["vVars"] == [8, 7, 6, 5]
    assert store.var_count >= 8
    assert len(store.clauses()) > 0


def test_product_15_factors_5_and_3():
    spec, store, _ = encode(4, 15)
    outcome = run(store)
    assert outcome.result == "SAT"
    assert store.evaluate(outcome.model)
    u, v = decode_model(outcome.model, spec)
    assert (u, v) == (5, 3)


def test_product_23_prime_unsat(run_solvers):
    _, store, _ = encode(4, 23)
    assert run(store).result == "UNSAT"
    assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned)


def test_product_49_square():
    spec, store, _ = encode(4, 49)
    outcome = run(store)
    assert outcome.result == "SAT"
    assert decode_model(outcome.model, spec) == (7, 7)


def test_product_25_square():
    spec, store, _ = encode(4, 25)
    outcome = run(store)
    assert outcome.result == "SAT"
    assert decode_model(outcome.model, spec) == (5, 5)


def test_exhaustive_l4_products_below_256(run_solvers):
    # every model of every l=4 product is one ordered factor pair, and every
    # pair has exactly one model; 226..255 need ceil(sqrt(N)) = 2**4
    for product in range(256):
        spec, store, _ = encode(4, product)
        expected_pairs = two_factor_pairs(product, 2, 7)
        models = enumerate_models(store, limit=len(expected_pairs) + 1)
        assert sorted(decode_model(m, spec) for m in models) == sorted(expected_pairs), product
        if not expected_pairs:
            outcome = run(store)
            assert outcome.result == "UNSAT", product
            assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned), product


def test_uniqueness_for_distinct_prime_semiprimes():
    for product in (15, 21, 35):
        _, store, _ = encode(4, product)
        models = enumerate_models(store, limit=3)
        assert len(models) == 1, product


def test_square_semiprime_also_unique():
    _, store, _ = encode(4, 25)
    assert len(enumerate_models(store, limit=3)) == 1


def test_decode_model_errors_and_totality():
    spec = FactorizationSpec.from_product(4, 15)
    with pytest.raises(ValueError):
        decode_model([True] * 7, spec)
    assert decode_model([False] * 8, spec) == (0, 0)
    model = [False, True, False, True, False, False, True, True]
    assert decode_model(model, spec) == (5, 3)


def test_l8_semiprime():
    spec, store, _ = encode(8, 97 * 89)
    outcome = run(store)
    assert outcome.result == "SAT"
    u, v = decode_model(outcome.model, spec)
    assert (u, v) == (97, 89)


def test_l2_unrepresentable_factors_unsat(run_solvers):
    # 2-bit nonnegative factors cannot reach 2, so any l=2 instance is UNSAT
    _, store, _ = encode(2, 4)
    assert run(store).result == "UNSAT"
    assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned)


def test_remaining_variables_all_determined():
    # fixing the factor bits of a SAT instance forces every auxiliary variable
    spec, store, layout = encode(4, 21)
    solver = DpllSolver(store)
    assumptions = []
    for var, bit in zip(layout["uVars"], [True, True, True, False]):  # u = 7
        assumptions.append(var if bit else -var)
    for var, bit in zip(layout["vVars"], [True, True, False, False]):  # v = 3
        assumptions.append(var if bit else -var)
    first = solver.solve(assumptions=assumptions)
    assert first.result == "SAT"
    store.add_clause([-(i + 1) if v else (i + 1) for i, v in enumerate(first.model)])
    assert solver.solve(assumptions=assumptions).result == "UNSAT"


@pytest.mark.parametrize(
    "l, product, factors, budget",
    [
        (16, 60491, (251, 241), 200),
        (32, 8633, (97, 89), 2_000),
        (32, 4292870399, (65521, 65519), 2_000),
        (32, 4611685975477714963, (2147483647, 2147483629), 2_000),
        (32, 999985999949, (1000003, 999983), 2_000),
    ],
)
def test_time_to_answer_within_decision_budget(l, product, factors, budget):
    # the MSB-first layout and the array multiplier answer these in tens to
    # hundreds of decisions; a search past the budget is cancelled to UNKNOWN
    spec, store, _ = encode(l, product)
    control = SolveControl()

    def on_decision(count):
        if count > budget:
            control.cancel()

    outcome = run(store, control=control, on_decision=on_decision)
    assert outcome.result == "SAT", (product, outcome.result)
    assert store.evaluate(outcome.model)
    assert decode_model(outcome.model, spec) == factors


class CountingMirror:
    """A mirror that counts the ``reserve_variables`` round trips a build makes."""

    def __init__(self, mirror):
        self.mirror = mirror
        self.reserve_calls = 0

    @property
    def var_count(self):
        return self.mirror.var_count

    def reserve_variables(self, n):
        self.reserve_calls += 1
        return self.mirror.reserve_variables(n)

    def add_clauses(self, batch):
        return self.mirror.add_clauses(batch)


@pytest.mark.parametrize(
    "l, product, variables", [(8, 89 * 97, 241), (16, 181 * 32749, 993), (32, 4292870399, 4033)]
)
def test_a_remote_build_writes_the_local_instance_in_two_reservations(l, product, variables):
    spec, local, _ = encode(l, product)
    service = MemoryService()
    try:
        obj = service.create_memory(0)
        mirror = connect(obj.direct_url)
        counting = CountingMirror(mirror)
        try:
            build_factorization(spec, counting)
        finally:
            mirror.close()
        assert counting.reserve_calls == 2  # the grow to 2l, then every gate variable
        assert obj.view.var_count == local.var_count == variables
        assert set(obj.view.clause_tuples()) == set(local.clause_tuples())
    finally:
        service.shutdown()
