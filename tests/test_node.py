import json
import socket
import threading
import time
import urllib.request

import pytest

from sathub import node as node_module
from sathub.client import connect
from sathub.node import MAX_REQUEST_BYTES, ServerNode
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


def post_envelope(node, envelope):
    request = urllib.request.Request(
        node.endpoint + "/webcall",
        data=json.dumps(envelope).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def test_dispatcher_routes_every_web_call(node):
    # the 13 methods of the README's "Web calls" list, in an order that keeps each call valid
    created = call(node, "SatCnf.create", {"initialVariableCount": 2})
    ref = created["objectRef"]
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    replies = {
        "SatCnf.create": created,
        "SatCnf.addVariable": call(node, "SatCnf.addVariable", object_ref=ref),
        "SatCnf.addClause": call(node, "SatCnf.addClause", {"clause": [1, 2]}, object_ref=ref),
        "SatCnf.clauses": call(node, "SatCnf.clauses", object_ref=ref),
    }
    fork = call(node, "SatCnf.fork", {"detach": True}, object_ref=ref)
    replies["SatCnf.fork"] = fork
    replies["SatCnf.delete"] = call(node, "SatCnf.delete", object_ref=fork["forkId"])
    replies["SatSolver.solve"] = call(
        node, "SatSolver.solve", {"satMemoryUrl": created["directUrl"]}, object_ref=solver_id
    )
    for method in ("SatSolver.pause", "SatSolver.resume", "SatSolver.cancel"):
        replies[method] = call(node, method, object_ref=solver_id)
    replies["Kernel.parallelize"] = call(
        node, "Kernel.parallelize", {"calls": [{"satMemoryUrl": created["directUrl"]}]}
    )
    replies["Kernel.listSolvers"] = call(node, "Kernel.listSolvers")
    replies["Kernel.findAvailable"] = call(node, "Kernel.findAvailable", {"timeout": 0})
    assert len(replies) == 13
    assert [m for m, r in replies.items() if r.get("error") == "NO_SUCH_METHOD"] == []
    assert replies["SatCnf.addVariable"] == {"index": 3}
    assert replies["SatCnf.delete"] == {}
    assert replies["SatSolver.solve"]["result"] == "SAT"
    assert replies["Kernel.parallelize"]["results"][0]["result"] == "SAT"
    assert replies["Kernel.findAvailable"]["solverId"]


def test_missing_object_ref_answers_no_such_object(node):
    methods = [
        "SatCnf.addVariable",
        "SatCnf.addClause",
        "SatCnf.clauses",
        "SatCnf.fork",
        "SatCnf.delete",
        "SatSolver.solve",
        "SatSolver.pause",
        "SatSolver.resume",
        "SatSolver.cancel",
    ]
    for method in methods:
        assert call(node, method, {"clause": [1]}, object_ref="ghost") == {
            "error": "NO_SUCH_OBJECT"
        }, method
        assert post_envelope(node, {"method": method}) == {"error": "NO_SUCH_OBJECT"}, method


def test_malformed_envelope(node):
    envelopes = [
        {"method": 5},
        {"method": ["Kernel.listSolvers"]},
        {"method": "Kernel.findAvailable", "argument": [1, 2]},
        {"method": "SatCnf.create", "argument": "initialVariableCount"},
        {"method": "Kernel.listSolvers", "argument": []},
        ["Kernel.listSolvers"],
    ]
    for envelope in envelopes:
        reply = post_envelope(node, envelope)
        assert list(reply) == ["error"], envelope
        assert reply["error"].startswith("MALFORMED_ENVELOPE: "), envelope


def raw_post(node, headers: bytes, body: bytes = b""):
    """Send one hand-made request; returns the reply's JSON body, read until the node closes."""
    host, port = node._httpd.server_address[:2]
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"POST /webcall HTTP/1.1\r\nHost: x\r\n" + headers + b"\r\n" + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.0 200")
    return json.loads(payload)


def test_request_length_is_validated_and_bounded(node):
    bad = raw_post(node, b"Content-Length: abc\r\n")
    assert bad["error"].startswith("MALFORMED_ENVELOPE: ")
    negative = raw_post(node, b"Content-Length: -1\r\n")
    assert negative["error"].startswith("MALFORMED_ENVELOPE: ")
    too_large = raw_post(node, b"Content-Length: %d\r\n" % (MAX_REQUEST_BYTES + 1), b"{}")
    assert too_large == {"error": "REQUEST_TOO_LARGE"}
    assert len(call(node, "Kernel.listSolvers")["solvers"]) == 3


def test_stalled_request_is_dropped_within_the_timeout(monkeypatch, capfd):
    monkeypatch.setattr(node_module, "REQUEST_TIMEOUT", 0.3)
    node = ServerNode(workers=1).start()
    try:
        baseline = threading.active_count()
        host, port = node._httpd.server_address[:2]
        stalled = []
        for body in (b"", b"", b"", b"{}"):
            sock = socket.create_connection((host, port), timeout=5)
            sock.sendall(b"POST /webcall HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n" + body)
            stalled.append(sock)
        # a body cut short by the client's hang-up is dropped, not answered
        hung_up = socket.create_connection((host, port), timeout=5)
        hung_up.sendall(b"POST /webcall HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n{}")
        hung_up.shutdown(socket.SHUT_WR)
        assert hung_up.recv(65536) == b""
        hung_up.close()
        start = time.monotonic()
        for sock in stalled:
            assert sock.recv(65536) == b""  # closed without a reply
            sock.close()
        assert time.monotonic() - start < 3.0
        deadline = time.monotonic() + 5
        while threading.active_count() > baseline and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == baseline
        assert len(call(node, "Kernel.listSolvers")["solvers"]) == 1
    finally:
        node.stop()
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    "method, argument",
    [
        ("Kernel.parallelize", {"calls": [5]}),
        ("Kernel.parallelize", {"calls": 5}),
        ("Kernel.parallelize", {"calls": [{"timeout": "x"}]}),
        ("Kernel.findAvailable", {"timeout": "soon"}),
        ("SatSolver.solve", {"timeout": "x"}),
        ("SatCnf.create", {"initialVariableCount": "x"}),
        ("SatCnf.create", {"initialVariableCount": None}),
    ],
)
def test_bad_argument_answers_malformed_envelope(node, method, argument):
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    reply = call(node, method, argument, object_ref=solver_id)
    assert list(reply) == ["error"]
    assert reply["error"].startswith("MALFORMED_ENVELOPE: "), reply
