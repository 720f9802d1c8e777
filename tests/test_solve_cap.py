"""A solve refuses, before it allocates, a memory of more than
``dpll.MAX_SOLVE_VARIABLES`` variables."""

import threading

from sathub import dpll, wire
from sathub.cli import main
from sathub.cnf import CnfStore
from sathub.node import ServerNode
from sathub.rpc import web_call
from sathub.service import MemoryService
from sathub.solving import SolverWorker

TOO_MANY = ("UNKNOWN", "TOO_MANY_VARIABLES")


def test_a_store_past_the_cap_allocates_no_solver(run_solvers):
    outcome = dpll.run(CnfStore(dpll.MAX_SOLVE_VARIABLES + 1))
    assert (outcome.result, outcome.error) == TOO_MANY
    assert run_solvers == []


def test_growth_past_the_cap_mid_search_is_refused_at_the_next_poll(run_solvers, hold):
    store = CnfStore(2)
    store.add_clause([1, 2])
    reached = threading.Event()
    holder = {}

    def held(decision):
        reached.set()
        hold(decision)

    thread = threading.Thread(
        target=lambda: holder.update(outcome=dpll.run(store, on_decision=held)), daemon=True
    )
    thread.start()
    assert reached.wait(5)
    store.add_variables(dpll.MAX_SOLVE_VARIABLES)
    store.add_clause([-1, dpll.MAX_SOLVE_VARIABLES + 2])
    hold.release()
    thread.join(timeout=5)
    outcome = holder["outcome"]
    assert (outcome.result, outcome.error) == TOO_MANY
    assert run_solvers[0].var_count == 2


def test_web_call_solve_of_a_widest_memory_answers_too_many_variables():
    node = ServerNode(workers=1).start()
    try:
        created = web_call(node.endpoint, "SatCnf.create", {"initialVariableCount": wire.MAX_VARIABLE})
        solver_id = web_call(node.endpoint, "Kernel.findAvailable")["solverId"]
        reply = web_call(
            node.endpoint,
            "SatSolver.solve",
            {"satMemoryUrl": created["directUrl"]},
            object_ref=solver_id,
        )
        assert reply == {"result": "UNKNOWN", "error": "TOO_MANY_VARIABLES"}
    finally:
        node.stop()


def test_mirror_solve_of_a_widest_memory_answers_too_many_variables():
    service = MemoryService()
    try:
        obj = service.create_memory(wire.MAX_VARIABLE)
        outcome = SolverWorker().solve(obj.direct_url)
        assert (outcome.result, outcome.error) == TOO_MANY
    finally:
        service.shutdown()


def test_cli_solve_of_a_widest_header_answers_unknown(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text(f"p cnf {wire.MAX_VARIABLE} 1\n1 0\n")
    assert main(["solve", str(path)]) == 30
    assert capsys.readouterr().out.strip() == "UNKNOWN (TOO_MANY_VARIABLES)"
