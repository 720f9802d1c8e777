"""Per-layer measurements made in the load-generator process on seeded inputs.

The node's own layers (``solving``, ``dpll``) cannot be spanned from outside
its process, so they are run here on the same instances the ``factor``
workload sends. Counts (clauses, variables, decisions) repeat exactly for a
seed; times are medians of a few repetitions.
"""

from __future__ import annotations

import io
import random
import statistics
import time

from sathub import wire
from sathub.client import connect
from sathub.cnf import CnfStore, canonical_clause
from sathub.dpll import run as dpll_run
from sathub.exprs import ExprNode, lower_to_cnf
from sathub.factoring import FactorizationSpec, build_factorization
from sathub.rpc import web_call
from sathub.solving import SolverWorker

import workloads

DPLL_INSTANCES = 12
FOLD_IN_CLAUSES = 64
EXPR_DAGS = 200
# CircuitBuilder reserves remote variables in chunks of 64; building local
# stores the same way gives the very instance the node's solver sees.
REMOTE_CHUNK = 64


def _median_s(func, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def local_instance(l: int, product: int, alloc_chunk=None) -> CnfStore:
    store = CnfStore(0)
    build_factorization(FactorizationSpec.from_product(l, product), store, alloc_chunk=alloc_chunk)
    return store


def factoring_layer(seed: int, reps: int) -> tuple[dict, CnfStore]:
    """Local encode times at l = 8, 16, 32 and exact l=32 counts."""
    rng = random.Random(f"layers:{seed}")
    out = {}
    for l in (8, 16, 32):
        product = workloads.random_product(rng, l)
        out[f"factoring.encode_l{l}_ms"] = 1e3 * _median_s(lambda: local_instance(l, product), reps)
    store = CnfStore(0)
    layout = build_factorization(FactorizationSpec.from_product(32, product), store)
    clauses = len(store.clause_tuples())
    out["factoring.vars_l32"] = store.var_count
    out["factoring.clauses_l32"] = clauses
    out["circuits.dup_clauses_l32"] = layout["clausesAdded"] - clauses
    return out, store


def wire_layer(store: CnfStore, reps: int) -> dict:
    clauses = [list(c) for c in store.clause_tuples()]
    n = len(clauses)
    frames = b"".join(wire.encode_add_clause(c) for c in clauses)

    def decode_all():
        stream = io.BufferedReader(io.BytesIO(frames))
        for _ in range(n):
            wire.read_message(stream)

    snapshot = wire.encode_snapshot(store.var_count, clauses)
    return {
        "wire.encode_clause_us": 1e6 / n * _median_s(lambda: [wire.encode_add_clause(c) for c in clauses], reps),
        "wire.decode_clause_us": 1e6 / n * _median_s(decode_all, reps),
        "wire.snapshot_encode_ms": 1e3 * _median_s(lambda: wire.encode_snapshot(store.var_count, clauses), reps),
        "wire.snapshot_decode_ms": 1e3
        * _median_s(lambda: wire.read_message(io.BufferedReader(io.BytesIO(snapshot))), reps),
        "wire.snapshot_bytes": len(snapshot),
    }


def cnf_layer(store: CnfStore, seed: int, reps: int) -> dict:
    rng = random.Random(f"cnf:{seed}")
    shuffled = []
    for clause in store.clause_tuples():
        lits = list(clause)
        rng.shuffle(lits)
        shuffled.append(lits)
    n = len(shuffled)
    fresh = CnfStore(store.var_count)

    def add_all(target):
        for lits in shuffled:
            target.add_clause(lits)

    add_s = _median_s(lambda: add_all(CnfStore(store.var_count)), reps)
    add_all(fresh)
    return {
        "cnf.canonical_us": 1e6 / n * _median_s(lambda: [canonical_clause(c) for c in shuffled], reps),
        "cnf.add_clause_us": 1e6 / n * add_s,
        "cnf.dup_add_us": 1e6 / n * _median_s(lambda: add_all(fresh), reps),
        "cnf.iter_clauses_ms": 1e3 * _median_s(lambda: list(store.iter_clauses()), reps),
    }


def dpll_instances(seed: int) -> list[int]:
    """The first distinct numbers of the seed's ``factor`` sequence."""
    chosen: list[int] = []
    for n in workloads.factor_inputs(seed):
        if n not in chosen:
            chosen.append(n)
        if len(chosen) == DPLL_INSTANCES:
            return chosen
    return chosen


def _factor_store(n: int) -> CnfStore:
    return local_instance(workloads.FACTOR_L, n, alloc_chunk=REMOTE_CHUNK)


def dpll_layer(numbers: list[int], reps: int) -> tuple[dict, dict[int, float]]:
    """``dpll.run`` on the factor instances; returns metrics and per-number seconds."""
    per_number: dict[int, float] = {}
    decisions = 0
    most = (0, numbers[0])
    for n in numbers:
        store = _factor_store(n)
        counted = []
        outcome = dpll_run(store, on_decision=counted.append)
        _check(n, outcome.result, "dpll.run")
        decisions += len(counted)
        most = max(most, (len(counted), n))
        per_number[n] = statistics.median(_timed_run(n) for _ in range(reps))
    total_s = sum(per_number.values())
    out = {
        "dpll.run_ms": 1e3 * total_s / len(numbers),
        "dpll.decisions": decisions,
        "dpll.decisions_per_s": decisions / total_s,
        "dpll.fold_in_ms": 1e3 * _fold_in_s(most[1], min(FOLD_IN_CLAUSES, most[0]), reps),
    }
    return out, per_number


def _check(n: int, result: str, what: str) -> None:
    expected = "UNSAT" if workloads.factor_pair(n) is None else "SAT"
    if result != expected:
        raise RuntimeError(f"{what} answered {result} for {n}, expected {expected}")


def _timed_run(n: int) -> float:
    store = _factor_store(n)
    start = time.perf_counter()
    dpll_run(store)
    return time.perf_counter() - start


def _fold_in_s(n: int, k: int, reps: int) -> float:
    """Extra ``run`` time per clause appended to the view from ``on_decision``.

    One clause is appended at each of the first ``k`` decisions. They are
    tautologies over two variables (x, -x, y, -y): new to the view, never
    unit or false, so they cost the view rescan that fold-in does and leave
    the search itself unchanged. Plain and folded runs alternate, and the
    median of their differences is taken.
    """
    def run_with(clauses: int) -> float:
        store = _factor_store(n)

        def add(decision: int) -> None:
            if decision <= clauses:
                store.add_clause([1, -1, decision + 1, -(decision + 1)])

        start = time.perf_counter()
        dpll_run(store, on_decision=add)
        return time.perf_counter() - start

    return statistics.median(run_with(k) - run_with(0) for _ in range(reps)) / k


def solving_layer(endpoint: str, numbers: list[int], run_s: dict[int, float], reps: int) -> dict:
    """``SolverWorker.solve`` on a direct URL of the node, same instances as ``dpll_layer``."""
    worker = SolverWorker()
    solve_s = []
    for n in numbers:
        created = web_call(endpoint, "SatCnf.create", {"initialVariableCount": 0})
        writer = connect(created["directUrl"])
        try:
            build_factorization(FactorizationSpec.from_product(workloads.FACTOR_L, n), writer)
            writer.request_snapshot()
        finally:
            writer.close()
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            outcome = worker.solve(created["directUrl"])
            times.append(time.perf_counter() - start)
            _check(n, outcome.result, "SolverWorker.solve")
        solve_s.append(statistics.median(times))
        web_call(endpoint, "SatCnf.delete", object_ref=created["objectRef"])
    mean_solve = statistics.fmean(solve_s)
    return {
        "solving.solve_ms": 1e3 * mean_solve,
        "solving.overhead_ms": 1e3 * (mean_solve - statistics.fmean(run_s[n] for n in numbers)),
    }


def random_dag(rng: random.Random, max_vars: int = 12, size: int = 20) -> tuple[ExprNode, int]:
    """A random expression DAG over at most ``max_vars`` variables."""
    n = rng.randint(1, max_vars)
    pool = [ExprNode.var(i) for i in range(1, n + 1)]
    if rng.random() < 0.3:
        pool.append(ExprNode.const(rng.random() < 0.5))
    for _ in range(size):
        kind = rng.choice(("NOT", "AND", "AND", "OR", "OR", "XOR", "MAJ3", "IMPL", "EQUIV"))
        if kind == "NOT":
            node = ExprNode.not_(rng.choice(pool))
        elif kind in ("AND", "OR"):
            children = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            node = (ExprNode.and_ if kind == "AND" else ExprNode.or_)(*children)
        elif kind == "MAJ3":
            node = ExprNode.maj3(rng.choice(pool), rng.choice(pool), rng.choice(pool))
        else:
            make = {"XOR": ExprNode.xor, "IMPL": ExprNode.impl, "EQUIV": ExprNode.equiv}[kind]
            node = make(rng.choice(pool), rng.choice(pool))
        pool.append(node)
    return pool[-1], n


def exprs_layer(seed: int, reps: int) -> dict:
    rng = random.Random(f"exprs:{seed}")
    dags = [random_dag(rng) for _ in range(EXPR_DAGS)]

    def lower_all() -> tuple[int, int]:
        extra_vars = clauses = 0
        for expr, n in dags:
            store = CnfStore(n)
            clauses += len(lower_to_cnf(expr, store))
            extra_vars += store.var_count - n
        return extra_vars, clauses

    extra_vars, clauses = lower_all()
    return {
        "exprs.lower_ms": 1e3 * _median_s(lower_all, reps),
        "exprs.lower_vars": extra_vars,
        "exprs.lower_clauses": clauses,
    }
