import json
import socket
import threading
import time
import urllib.request

import pytest

from sathub import node as node_module
from sathub.client import connect
from sathub.factoring import FactorizationSpec, build_factorization, decode_model
from sathub.node import MAX_PARALLEL_CALLS, MAX_REQUEST_BYTES, ServerNode
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


def test_busy_over_http(node, hold_runs):
    hold_runs()  # the first solve stays BUSY until it is cancelled
    clauses, n = gated_php(3, 2)
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


def test_pause_resume_cancel_errors_over_http(node, hold_runs):
    hold_runs()  # the solve stays BUSY or PAUSED until it is cancelled
    entry = call(node, "Kernel.listSolvers")["solvers"][0]
    solver_id = entry["solverId"]
    assert entry == {
        "solverId": solver_id,
        "solverType": "ReferenceDpll",
        "endpoint": node.endpoint,
        "state": "IDLE",
    }

    def control(method, web_pid="owner"):
        return call(node, f"SatSolver.{method}", object_ref=solver_id, web_pid=web_pid)

    def state():
        listing = call(node, "Kernel.listSolvers")["solvers"]
        return next(s["state"] for s in listing if s["solverId"] == solver_id)

    for method in ("pause", "resume", "cancel"):
        assert control(method) == {"error": f"cannot {method} in state IDLE"}

    created = fill_memory(node, [[1, 2]], 2)
    reply = {}
    thread = threading.Thread(
        target=lambda: reply.update(
            call(
                node,
                "SatSolver.solve",
                {"satMemoryUrl": created["directUrl"]},
                object_ref=solver_id,
                web_pid="owner",
            )
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.monotonic() + 5
    while state() != "BUSY" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert state() == "BUSY"
    assert control("resume") == {"error": "cannot resume in state BUSY"}
    # the state is checked before the caller
    assert control("resume", "intruder") == {"error": "cannot resume in state BUSY"}
    for method in ("pause", "cancel"):
        assert control(method, "intruder") == {
            "error": "control call from a different web process"
        }
    assert control("pause") == {}
    assert state() == "PAUSED"
    assert control("pause") == {"error": "cannot pause in state PAUSED"}
    for method in ("resume", "cancel"):
        assert control(method, "intruder") == {
            "error": "control call from a different web process"
        }
    assert control("resume") == {}
    assert state() == "BUSY"
    assert control("pause") == {}
    assert control("cancel") == {}  # returns once the solve has exited
    assert state() == "IDLE"
    thread.join(timeout=10)
    assert reply == {"result": "UNKNOWN"}
    assert control("cancel") == {"error": "cannot cancel in state IDLE"}
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


def test_first_sat_cancels_over_http(node):
    created = call(node, "SatCnf.create", {"initialVariableCount": 0})
    spec = FactorizationSpec.from_product(8, 8633)
    mirror = connect(created["directUrl"])
    try:
        build_factorization(spec, mirror)
    finally:
        mirror.close()
    calls = [{"satMemoryUrl": created["directUrl"], "timeout": 5}] * 3
    reply = call(node, "Kernel.parallelize", {"calls": calls, "firstSatCancels": True})
    results = reply["results"]
    assert len(results) == 3
    assert {r["result"] for r in results} <= {"SAT", "UNKNOWN"}
    sat = [r for r in results if r["result"] == "SAT"]
    assert sat
    assert all(decode_model(r["model"], spec) == (97, 89) for r in sat)
    assert [s["state"] for s in call(node, "Kernel.listSolvers")["solvers"]] == ["IDLE"] * 3


def test_rank_and_size_of_old_clients_are_ignored(node):
    created = fill_memory(node, [[1, 2], [-1, 3]], 3)
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]

    def solve(argument):
        argument = {"satMemoryUrl": created["directUrl"], **argument}
        return call(node, "SatSolver.solve", argument, object_ref=solver_id)

    plain = solve({})
    assert plain["result"] == "SAT"
    for diversification in ({"rank": 0, "size": 1}, {"rank": 2, "size": 2}):
        assert solve({"diversification": diversification}) == plain


def test_phases_over_http(node):
    created = fill_memory(node, [[1, 2]], 2)
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    for value in (True, False):
        argument = {"satMemoryUrl": created["directUrl"], "diversification": {"phases": {"x1": value}}}
        outcome = call(node, "SatSolver.solve", argument, object_ref=solver_id)
        assert outcome["result"] == "SAT"
        assert outcome["model"][0] is value


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


def test_stop_without_start_returns():
    node = ServerNode(workers=1)
    stopper = threading.Thread(target=node.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=5)
    assert not stopper.is_alive()


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
        {"method": "SatCnf.clauses", "objectRef": ["ref"]},
        {"method": "SatSolver.cancel", "objectRef": {"ref": 1}},
    ]
    for envelope in envelopes:
        reply = post_envelope(node, envelope)
        assert list(reply) == ["error"], envelope
        assert reply["error"].startswith("MALFORMED_ENVELOPE: "), envelope


@pytest.mark.parametrize("name", ["method", "objectRef", "webPid"])
@pytest.mark.parametrize("value", [0, False, [], {"ref": 1}], ids=["zero", "false", "list", "object"])
def test_non_string_envelope_field_answers_malformed_envelope(node, name, value):
    reply = post_envelope(node, {"method": "Kernel.listSolvers", name: value})
    assert reply == {"error": f"MALFORMED_ENVELOPE: {name}: must be a string, got {value!r}"}


def test_null_envelope_fields_take_their_defaults(node):
    envelope = {"method": "Kernel.listSolvers", "objectRef": None, "webPid": None}
    assert len(post_envelope(node, envelope)["solvers"]) == 3
    assert post_envelope(node, {"method": None}) == {"error": "NO_SUCH_METHOD"}


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


# Each answers "MALFORMED_ENVELOPE: satMemoryUrl: <reason>".
BAD_MEMORY_URLS = [
    ("SatSolver.solve", {}),
    ("SatSolver.solve", {"satMemoryUrl": 5}),
    ("SatSolver.solve", {"satMemoryUrl": ""}),
    ("SatSolver.solve", {"satMemoryUrl": "http://127.0.0.1:1"}),
    ("SatSolver.solve", {"satMemoryUrl": "tcp://127.0.0.1"}),
    ("SatSolver.solve", {"satMemoryUrl": "tcp://127.0.0.1:99999"}),
    ("Kernel.parallelize", {"calls": [{}]}),
    ("Kernel.parallelize", {"calls": [{"satMemoryUrl": ["tcp://127.0.0.1:1"]}]}),
    ("Kernel.parallelize", {"calls": [{"satMemoryUrl": "tcp://:1"}]}),
]

# Answers "MALFORMED_ENVELOPE: calls: <reason>" before any call's thread starts.
TOO_MANY_CALLS = (
    "Kernel.parallelize",
    {"calls": [{"satMemoryUrl": "tcp://127.0.0.1:1", "solverId": "none"}] * (MAX_PARALLEL_CALLS + 1)},
)


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
        ("SatSolver.solve", {"diversification": 5}),
        ("SatSolver.solve", {"diversification": {"phases": {"x5\n": True}}}),
        ("SatSolver.solve", {"diversification": {"phases": {"x0": True}}}),
        ("SatSolver.solve", {"diversification": {"phases": [1]}}),
        ("SatSolver.solve", {"diversification": {"phases": {"y1": True}}}),
        ("SatSolver.solve", {"diversification": {"phases": {"x1": "yes"}}}),
        ("SatSolver.solve", {"diversification": {"phases": {"x1": "false"}}}),
        ("Kernel.parallelize", {"calls": [{"diversification": {"phases": {"x1": 1}}}]}),
        ("Kernel.parallelize", {"calls": [{}, {"diversification": [1]}]}),
    ]
    + BAD_MEMORY_URLS
    + [
        ("Kernel.parallelize", {"calls": [], "firstSatCancels": "false"}),
        ("SatCnf.create", {"initialVariableCount": 2**33}),
        ("SatCnf.create", {"initialVariableCount": -1}),
        ("SatCnf.create", {"initialVariableCount": 2.7}),
        ("SatCnf.create", {"initialVariableCount": True}),
        ("SatCnf.create", {"initialVariableCount": "12"}),
        ("SatSolver.solve", {"timeout": True}),
        ("SatSolver.solve", {"timeout": "5"}),
        ("Kernel.findAvailable", {"timeout": False}),
        ("Kernel.parallelize", {"calls": [{"timeout": "1"}]}),
        ("SatSolver.solve", {"timeout": 10**400}),
        ("Kernel.findAvailable", {"timeout": 1e300}),
        ("Kernel.findAvailable", {"timeout": float("nan")}),
        ("SatSolver.solve", {"timeout": float("inf")}),
        ("Kernel.parallelize", {"calls": [{"timeout": float("-inf")}]}),
        ("SatSolver.solve", {"diversification": {"phases": {"x01": True}}}),
        ("SatSolver.solve", {"diversification": {"phases": {"1": True}}}),
        ("SatSolver.solve", {"diversification": {"phases": {"x1": None}}}),
        ("Kernel.parallelize", {"calls": [{"diversification": {"phases": "x1"}}]}),
        ("Kernel.parallelize", {"calls": [{"solverId": ["x"], "satMemoryUrl": "tcp://127.0.0.1:1"}]}),
        ("Kernel.parallelize", {"calls": [{"solverId": 5, "satMemoryUrl": "tcp://127.0.0.1:1"}]}),
        TOO_MANY_CALLS,
        ("Kernel.parallelize", {"calls": 0}),
        ("Kernel.parallelize", {"calls": False}),
        ("Kernel.parallelize", {"calls": ""}),
        ("Kernel.parallelize", {"calls": {}}),
    ],
)
def test_bad_argument_answers_malformed_envelope(node, method, argument):
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    reply = call(node, method, argument, object_ref=solver_id)
    assert list(reply) == ["error"]
    assert reply["error"].startswith("MALFORMED_ENVELOPE: "), reply
    if "diversification" in str(argument):
        assert reply["error"].startswith("MALFORMED_ENVELOPE: diversification: "), reply
    if (method, argument) in BAD_MEMORY_URLS:
        assert reply["error"].startswith("MALFORMED_ENVELOPE: satMemoryUrl: "), reply
    if "'timeout'" in str(argument):
        assert reply["error"].startswith("MALFORMED_ENVELOPE: timeout: "), reply
    calls = argument.get("calls")
    if (method, argument) == TOO_MANY_CALLS or calls is not None and not isinstance(calls, list):
        assert reply["error"].startswith("MALFORMED_ENVELOPE: calls: "), reply
    elif "'solverId'" in str(argument):
        assert reply["error"].startswith("MALFORMED_ENVELOPE: solverId: "), reply
    if method == "SatCnf.create" and isinstance(argument["initialVariableCount"], int):
        assert reply["error"].startswith("MALFORMED_ENVELOPE: initialVariableCount: "), reply


@pytest.mark.parametrize(
    "method, argument",
    [
        ("SatCnf.addClause", {"clause": 5}),
        ("SatCnf.addClause", {"clause": "1 2"}),
        ("SatCnf.addClause", {}),
        ("SatCnf.fork", {"detach": "false"}),
        ("SatCnf.fork", {"detach": 1}),
    ],
)
def test_bad_memory_argument_answers_malformed_envelope(node, method, argument):
    ref = call(node, "SatCnf.create", {"initialVariableCount": 2})["objectRef"]
    reply = call(node, method, argument, object_ref=ref)
    name = "clause" if method == "SatCnf.addClause" else "detach"
    assert list(reply) == ["error"]
    assert reply["error"].startswith(f"MALFORMED_ENVELOPE: {name}: "), reply
    assert list(node.memory._objects) == [ref]
    assert call(node, "SatCnf.clauses", object_ref=ref) == {"clauses": []}


def test_unreachable_memory_url_answers_unknown(node):
    solver_id = call(node, "Kernel.listSolvers")["solvers"][0]["solverId"]
    argument = {"satMemoryUrl": "tcp://127.0.0.1:1"}
    reply = call(node, "SatSolver.solve", argument, object_ref=solver_id)
    assert reply == {"result": "UNKNOWN", "error": "MEMORY_UNAVAILABLE"}
    reply = call(node, "Kernel.parallelize", {"calls": [argument]})
    assert reply == {"results": [{"result": "UNKNOWN", "error": "MEMORY_UNAVAILABLE"}]}
