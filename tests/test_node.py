import threading
import time

import pytest

from sathub.client import connect
from sathub.node import ServerNode
from sathub.rpc import TransportError, web_call

from gens import gated_php


@pytest.fixture
def node():
    n = ServerNode(workers=3).start()
    yield n
    n.stop()


def call(node, method, argument=None, object_ref="", web_pid="test"):
    return web_call(
        node.endpoint, method, argument, object_ref=object_ref, web_pid=web_pid
    )


def fill_memory(node, clauses, n_vars):
    created = call(node, "SatCnf.create", {"initialVariableCount": n_vars})
    ref = created["objectRef"]
    for clause in clauses:
        call(node, "SatCnf.addClause", {"clause": clause}, object_ref=ref)
    return created


def test_workers_validation():
    with pytest.raises(ValueError):
        ServerNode(workers=0)


def test_memory_roundtrip_over_http(node):
    created = call(node, "SatCnf.create", {"initialVariableCount": 3})
    ref = created["objectRef"]
    assert call(node, "SatCnf.addClause", {"clause": [1, -2]}, object_ref=ref) == {
        "added": True
    }
    assert call(node, "SatCnf.clauses", object_ref=ref) == {"clauses": [[1, -2]]}
    assert call(node, "SatCnf.addVariable", object_ref=ref) == {"index": 4}
    assert call(node, "SatCnf.frobnicate", object_ref=ref) == {"error": "NO_SUCH_METHOD"}


def test_envelope_totality_on_garbage(node):
    import urllib.request, json

    request = urllib.request.Request(
        node.endpoint + "/webcall",
        data=b"this is not json",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        assert response.status == 200
        result = json.loads(response.read())
    assert "error" in result


def test_list_solvers_and_find_available(node):
    listing = call(node, "Kernel.listSolvers")
    assert len(listing["solvers"]) == 3
    assert all(s["state"] == "IDLE" for s in listing["solvers"])
    assert all(s["solverType"] == "ReferenceDpll" for s in listing["solvers"])
    found = call(node, "Kernel.findAvailable", {"timeout": 0})
    assert found["solverId"] in {s["solverId"] for s in listing["solvers"]}


def test_solve_over_http(node):
    created = fill_memory(node, [[1, 2], [-1, 2]], 2)
    found = call(node, "Kernel.findAvailable", {"timeout": 0})
    outcome = call(
        node,
        "SatSolver.solve",
        {"satMemoryUrl": created["directUrl"], "timeout": 0, "diversification": {}},
        object_ref=found["solverId"],
    )
    assert outcome["result"] == "SAT"
    assert outcome["model"] == [False, True]


def test_busy_over_http(node):
    clauses, n = gated_php(11, 10)
    created = fill_memory(node, clauses, n)
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]

    results = {}

    def long_solve():
        results["first"] = call(
            node,
            "SatSolver.solve",
            {"satMemoryUrl": created["directUrl"], "timeout": 0},
            object_ref=solver_id,
            web_pid="first",
        )

    thread = threading.Thread(target=long_solve, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        listing = call(node, "Kernel.listSolvers")
        state = next(
            s["state"] for s in listing["solvers"] if s["solverId"] == solver_id
        )
        if state == "BUSY":
            break
        time.sleep(0.01)
    second = call(
        node,
        "SatSolver.solve",
        {"satMemoryUrl": created["directUrl"], "timeout": 0},
        object_ref=solver_id,
        web_pid="second",
    )
    assert second == {"error": "BUSY"}
    cancel = call(node, "SatSolver.cancel", object_ref=solver_id, web_pid="first")
    assert cancel == {}
    thread.join(timeout=10)
    assert results["first"]["result"] == "UNKNOWN"


def test_pause_resume_cancel_errors_over_http(node):
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    assert "error" in call(node, "SatSolver.pause", object_ref=solver_id)
    assert "error" in call(node, "SatSolver.resume", object_ref=solver_id)
    assert "error" in call(node, "SatSolver.cancel", object_ref=solver_id)
    assert call(node, "SatSolver.solve", object_ref="ghost") == {
        "error": "NO_SUCH_OBJECT"
    }


def test_parallelize_over_http(node):
    created = fill_memory(node, [[1, 2]], 2)
    reply = call(
        node,
        "Kernel.parallelize",
        {
            "calls": [
                {
                    "satMemoryUrl": created["directUrl"],
                    "timeout": 5,
                    "diversification": {"rank": r, "size": 3},
                }
                for r in range(3)
            ]
        },
    )
    results = reply["results"]
    assert len(results) == 3
    assert all(r.get("result") == "SAT" for r in results)


def test_parallelize_empty_over_http(node):
    assert call(node, "Kernel.parallelize", {"calls": []}) == {"results": []}


def test_solver_reads_live_memory_through_mirror(node):
    created = call(node, "SatCnf.create", {"initialVariableCount": 2})
    mirror = connect(created["directUrl"])
    try:
        mirror.add_clause_direct([1, 2])
        found = call(node, "Kernel.findAvailable", {"timeout": 0})
        outcome = call(
            node,
            "SatSolver.solve",
            {"satMemoryUrl": created["directUrl"], "timeout": 0},
            object_ref=found["solverId"],
        )
        assert outcome["result"] == "SAT"
    finally:
        mirror.close()


def test_transport_error_when_down():
    node = ServerNode(workers=1).start()
    endpoint = node.endpoint
    node.stop()
    with pytest.raises(TransportError):
        web_call(endpoint, "Kernel.listSolvers", timeout=2)
