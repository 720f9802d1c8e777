"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
recorded runtimes.
"""

import random
import threading
import time

import pytest

from sathub import wire
from sathub.bitvec import BitVec, product_with, sum_with
from sathub.circuits import CircuitBuilder
from sathub.cli import main as cli_main
from sathub.client import connect
from sathub.cnf import CnfStore
from sathub.dpll import DpllSolver, SolveControl, run
from sathub.exprs import lower_to_cnf
from sathub.node import ServerNode
from sathub.service import MemoryService
from sathub.solving import SolveCall, SolverBusy, SolverRegistry, SolverWorker, parallelize

from gens import gated_php, random_cnf, random_expr
from oracles import cnf_satisfiable, expr_mask, karatsuba_terms, php_clauses, rup_refutes, table_context, two_factor_pairs


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {detail}")


class CircuitHarness:
    """Build one arithmetic circuit over free inputs; evaluate it under assumptions."""

    def __init__(self, widths, build):
        self.store = CnfStore(0)
        firsts = [self.store.reserve_variables(w) for w in widths]
        self.inputs = [BitVec.from_vars(f, w) for f, w in zip(firsts, widths)]
        ctx = CircuitBuilder(self.store)
        self.output = build(ctx, *self.inputs)
        ctx.finalize()
        self.solver = DpllSolver(self.store)

    def eval(self, *values) -> int:
        assumptions = []
        for vec, value in zip(self.inputs, values):
            for i, lit in enumerate(vec):
                assumptions.append(lit if (value >> i) & 1 else -lit)
        outcome = self.solver.solve(assumptions=assumptions)
        assert outcome.result == "SAT"
        model = outcome.model
        result = 0
        for i, lit in enumerate(self.output):
            bit = model[lit - 1] if lit > 0 else not model[-lit - 1]
            if bit:
                result |= 1 << i
        return result


def solve_clauses(clauses, n):
    store = CnfStore(n)
    for clause in clauses:
        store.add_clause(clause)
    return run(store), store


def test_criterion_01_circuit_vs_arithmetic_oracle():
    start = time.monotonic()
    checks = 0
    for w in range(1, 5):
        h = CircuitHarness([w, w], lambda ctx, a, b: sum_with(a, b, ctx))
        for x in range(1 << w):
            for y in range(1 << w):
                assert h.eval(x, y) == (x + y) % (1 << w), ("sum", w, x, y)
                checks += 1
    for w in (1, 2, 4):
        h = CircuitHarness([w, w], lambda ctx, a, b: product_with(a, b, ctx))
        for x in range(1 << w):
            for y in range(1 << w):
                assert h.eval(x, y) == (x * y) % (1 << (2 * w)), ("product", w, x, y)
                checks += 1
    h8 = CircuitHarness([8, 8], lambda ctx, a, b: product_with(a, b, ctx))
    rng = random.Random(20240817)
    for _ in range(1000):
        x, y = rng.randrange(256), rng.randrange(256)
        assert h8.eval(x, y) == x * y, ("product8", x, y)
        checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"{checks} circuit evaluations equal the integer oracle in {elapsed:.1f}s")


def test_criterion_02_karatsuba_decomposition():
    start = time.monotonic()
    for u in range(16):
        for v in range(16):
            assert karatsuba_terms(u, v, 4)[3] == u * v, (u, v)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(2, f"all 256 4-bit pairs recombine exactly with the 2^n middle coefficient ({elapsed:.3f}s)")


def test_criterion_03_factorization_exhaustive_l4():
    from sathub.factoring import FactorizationSpec, build_factorization, decode_model

    start = time.monotonic()
    sat_count = 0
    for product in range(4, 50):
        spec = FactorizationSpec.from_product(4, product)
        store = CnfStore(0)
        build_factorization(spec, store)
        outcome = run(store)
        pairs = two_factor_pairs(product, 2, 7)
        if pairs:
            assert outcome.result == "SAT", product
            u, v = decode_model(outcome.model, spec)
            assert u * v == product and u >= v and (u, v) in pairs, product
            sat_count += 1
        else:
            assert outcome.result == "UNSAT", product
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(3, f"products 4..49: {sat_count} SAT, rest UNSAT, all decodes verified ({elapsed:.1f}s)")


def test_criterion_04_semiprime_uniqueness():
    from sathub.factoring import FactorizationSpec, build_factorization

    for product in (15, 21, 35):
        spec = FactorizationSpec.from_product(4, product)
        store = CnfStore(0)
        build_factorization(spec, store)
        solver = DpllSolver(store)
        models = 0
        while True:
            outcome = solver.solve()
            if outcome.result != "SAT":
                break
            models += 1
            assert models <= 1, f"product {product} has more than one model"
            store.add_clause(
                [-(i + 1) if v else (i + 1) for i, v in enumerate(outcome.model)]
            )
        assert models == 1, f"product {product} yielded {models} models"
    report(4, "semiprimes 15, 21, 35 each have exactly one model (all variables)")


def test_criterion_05_end_to_end_factor_8633(capsys):
    node = ServerNode(workers=2).start()
    try:
        start = time.monotonic()
        code = cli_main(["factor", "8633", "--l", "8", "--endpoint", node.endpoint])
        elapsed = time.monotonic() - start
        output = capsys.readouterr().out
        assert code == 0
        assert "8633 = 97 × 89" in output
        assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"
    finally:
        node.stop()
    with capsys.disabled():
        report(5, f"cmd_factor 8633 --l 8 printed 97 x 89 in {elapsed:.1f}s (budget 600s)")


def test_criterion_06_equisatisfiability_500_dags():
    rng = random.Random(1618)
    agree = 0
    for _ in range(500):
        expr, n = random_expr(rng, max_vars=12, size=20)
        masks, full = table_context(n)
        formula_sat = expr_mask(expr, masks, full) != 0
        store = CnfStore(n)
        lower_to_cnf(expr, store)
        outcome = run(store)
        assert (outcome.result == "SAT") == formula_sat
        agree += 1
    report(6, f"{agree}/500 random DAGs: lowered-CNF satisfiability equals brute force")


def test_criterion_07_hub_convergence_4x250():
    import itertools

    service = MemoryService()
    try:
        obj = service.create_memory(40)
        clauses = []
        for vars_ in itertools.combinations(range(1, 41), 3):
            for signs in itertools.product((1, -1), repeat=3):
                clauses.append(
                    sorted((v * s for v, s in zip(vars_, signs)), key=lambda l: (abs(l), l > 0))
                )
                if len(clauses) == 1000:
                    break
            if len(clauses) == 1000:
                break
        mirrors = [connect(obj.direct_url) for _ in range(4)]
        start = time.monotonic()

        def inject(mirror, chunk):
            for clause in chunk:
                mirror.add_clause_direct(clause)

        threads = [
            threading.Thread(target=inject, args=(m, clauses[i::4]), daemon=True)
            for i, m in enumerate(mirrors)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected = {tuple(c) for c in clauses}
        deadline = start + 5.0
        while time.monotonic() < deadline:
            if all(len(m.clause_tuples()) == 1000 for m in mirrors):
                break
            time.sleep(0.005)
        elapsed = time.monotonic() - start
        server_set = set(obj.view.clause_tuples())
        assert server_set == expected
        for m in mirrors:
            mirrored = m.clause_tuples()
            assert len(mirrored) == 1000, "duplicate or missing clauses on a mirror"
            assert set(mirrored) == expected
        assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
        for m in mirrors:
            m.close()
    finally:
        service.shutdown()
    report(7, f"4 clients x 250 clauses converged to one 1000-clause set in {elapsed:.2f}s")


def test_criterion_08_lock_protocol_1000_reservations():
    service = MemoryService()
    try:
        obj = service.create_memory(0)
        a = connect(obj.direct_url)
        b = connect(obj.direct_url)
        start = time.monotonic()
        seen: set[int] = set()
        overlaps = 0
        for _ in range(500):  # 2 concurrent reservations per round = 1000 total
            results = []

            def reserve(mirror):
                results.append(mirror.reserve_variables(4))

            threads = [
                threading.Thread(target=reserve, args=(m,), daemon=True) for m in (a, b)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(results) == 2
            for first in results:
                block = set(range(first, first + 4))
                if block & seen:
                    overlaps += 1
                seen |= block
        elapsed = time.monotonic() - start
        assert overlaps == 0
        assert len(seen) == 4000
        assert obj.view.var_count == 4000
        a.close(); b.close()
    finally:
        service.shutdown()
    report(8, f"1000 concurrent reservations, zero overlapping ranges ({elapsed:.1f}s)")


def test_criterion_09_solver_lifecycle(hold):
    # BUSY on concurrent solve with timeout 0; the hold hook keeps the first solve running
    worker = SolverWorker()
    clauses, n = php_clauses(3, 2)
    store = CnfStore(n)
    for clause in clauses:
        store.add_clause(clause)
    holder = {}
    thread = threading.Thread(
        target=lambda: holder.update(outcome=worker.solve(store, web_pid="p1", on_decision=hold)),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 5
    while worker.state != "BUSY" and time.monotonic() < deadline:
        time.sleep(0.002)
    with pytest.raises(SolverBusy):
        worker.solve(store, timeout=0.0, web_pid="p2")
    # cancel makes the in-flight solve return UNKNOWN
    worker.cancel(web_pid="p1")
    thread.join(timeout=10)
    assert holder["outcome"].result == "UNKNOWN"

    # pause/resume transparency across >= 100 randomized pause points
    rng = random.Random(424242)
    trials = 0
    attempts = 0
    while trials < 100 and attempts < 400:
        attempts += 1
        cnf, nv = random_cnf(rng, max_vars=10, max_clauses=30)
        baseline, _ = solve_clauses(cnf, nv)
        decisions = []
        base_store = CnfStore(nv)
        for clause in cnf:
            base_store.add_clause(clause)
        run(base_store, on_decision=decisions.append)
        if not decisions:
            continue
        pause_at = rng.choice(decisions)
        control = SolveControl()

        def hook(k, control=control, pause_at=pause_at):
            if k == pause_at:
                control.pause()
                threading.Timer(0.001, control.resume).start()

        retry_store = CnfStore(nv)
        for clause in cnf:
            retry_store.add_clause(clause)
        paused_outcome = run(retry_store, control=control, on_decision=hook)
        assert paused_outcome.result == baseline.result
        assert paused_outcome.model == baseline.model
        trials += 1
    assert trials >= 100
    report(9, f"BUSY/cancel verified; {trials} randomized pause points all transparent")


def test_criterion_10_parallelize_join(hold_runs):
    registry = SolverRegistry()
    for _ in range(3):
        SolverWorker(registry)
    easy = CnfStore(3)
    easy.add_clause([1, 2])
    easy.add_clause([-1, 3])
    calls = [SolveCall(memory=easy, phases={v: True}) for v in (1, 2, 3)]
    results = parallelize(registry, calls, web_pid="parent")
    assert len(results) == 3
    for outcome in results:
        assert outcome.result in ("SAT", "UNKNOWN")
        if outcome.result == "SAT":
            assert easy.evaluate(outcome.model)

    # the siblings without phases are held until the short circuit cancels them
    hold_runs()
    clauses, n = gated_php(3, 2)
    gated = CnfStore(n)
    for clause in clauses:
        gated.add_clause(clause)
    calls = [
        SolveCall(memory=gated, phases={1: True}),
        SolveCall(memory=gated),
        SolveCall(memory=gated),
    ]
    results = parallelize(registry, calls, first_sat_cancels=True, web_pid="parent")
    assert len(results) == 3
    assert results[0].result == "SAT"
    assert gated.evaluate(results[0].model)
    assert results[1].result == "UNKNOWN"
    assert results[2].result == "UNKNOWN"
    report(10, "3 positional results; short-circuit cancelled both siblings to UNKNOWN")


def test_criterion_11_protocol_conformance():
    golden = [
        (wire.encode_add_variable(), "01"),
        (wire.encode_add_clause([1, -2]), "0202000000" "01000000" "FEFFFFFF"),
        (wire.encode_lock_vars(), "03"),
        (wire.encode_add_vars(4), "0404000000"),
        (wire.encode_unlock_vars(), "05"),
        (wire.encode_snapshot_request(), "06"),
        (wire.encode_var_index(9), "8109000000"),
        (wire.encode_lock_granted(), "83"),
        (wire.encode_first_index(5), "8405000000"),
        (
            wire.encode_snapshot(3, [[1, -2]]),
            "86" "03000000" "01000000" "02000000" "01000000" "FEFFFFFF",
        ),
        (wire.encode_error(wire.ERR_LOCKED, "locked"), "7F01000600" + b"locked".hex()),
    ]
    import io

    for encoded, expected_hex in golden:
        assert encoded == bytes.fromhex(expected_hex)
        wire.read_message(io.BytesIO(encoded))  # every golden frame decodes
    report(11, f"{len(golden)} opcodes byte-exact, including ADD_CLAUSE [1,-2]")


def test_criterion_12_reference_solver_vs_brute_force(run_solvers):
    rng = random.Random(31337)
    disagreements = 0
    refutations = 0
    for _ in range(500):
        clauses, n = random_cnf(rng, max_vars=12, max_clauses=40)
        outcome, store = solve_clauses(clauses, n)
        expected = cnf_satisfiable(clauses, n)
        if (outcome.result == "SAT") != expected:
            disagreements += 1
        if outcome.result == "SAT":
            assert store.evaluate(outcome.model)
        if outcome.result == "UNSAT":
            # the learned clauses, then the empty clause, follow by unit propagation
            assert rup_refutes(store.clause_tuples(), run_solvers[-1].learned)
            refutations += 1
    assert disagreements == 0
    report(
        12,
        "500 random CNFs (<=12 vars, <=40 clauses): zero disagreements with brute force; "
        f"{refutations} UNSAT answers RUP-certified",
    )
