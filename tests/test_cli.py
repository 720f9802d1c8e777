import gc
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from sathub import cli
from sathub.cli import main, parse_product
from sathub.cnf import CnfStore
from sathub.dimacs import loads
from sathub.node import ServerNode
from sathub.rpc import web_call
from sathub.service import MemoryObject, MemoryService

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def node():
    n = ServerNode(workers=2).start()
    yield n
    n.stop()


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["factor", "15"], "required: --l"),
        (["factor", "15", "--l", "4", "--portfolio", "2"], "unrecognized arguments: --portfolio"),
        (["frobnicate"], "invalid choice"),
        ([], "required: command"),
    ],
)
def test_usage_error_exits_1(argv, reason, capsys, monkeypatch):
    monkeypatch.delenv("SATHUB_ENDPOINT", raising=False)
    assert main(argv) == 1
    assert reason in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sathub")


def test_serve_on_a_port_out_of_range_is_one_error_line(capsys):
    assert main(["serve", "--port", "99999", "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot listen on port 99999: ")
    assert err.count("\n") == 1


def test_encode_into_a_missing_directory_is_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.cnf"
    assert main(["encode", "--l", "4", "--product", "15", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_parse_product_forms():
    assert parse_product("15") == 15
    assert parse_product("0b1111") == 15
    assert parse_product("0b0") == 0
    with pytest.raises(ValueError):
        parse_product("fifteen")


def test_encode_to_dimacs_file(tmp_path, capsys):
    out = tmp_path / "f15.cnf"
    code = main(["encode", "--l", "4", "--product", "15", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "u vars:    1..4" in stdout
    assert "v vars:    5..8" in stdout
    doc = loads(out.read_text())
    assert doc.var_count >= 8
    assert len(doc.clauses) > 0
    assert any("u vars" in comment for comment in doc.comments)


def test_encode_rejects_bad_length(capsys):
    assert main(["encode", "--l", "3", "--product", "10", "--out", "x.cnf"]) == 1
    assert "power of two" in capsys.readouterr().err


def test_encode_rejects_wide_product(capsys):
    assert main(["encode", "--l", "4", "--product", "70000", "--out", "x.cnf"]) == 1
    assert "bits" in capsys.readouterr().err


def test_encode_bit_string_product(tmp_path):
    out = tmp_path / "bits.cnf"
    assert main(["encode", "--l", "4", "--product", "0b00001111", "--out", str(out)]) == 0
    # same instance as decimal 15
    other = tmp_path / "dec.cnf"
    main(["encode", "--l", "4", "--product", "15", "--out", str(other)])
    assert loads(out.read_text()).clauses == loads(other.read_text()).clauses


def test_encode_into_live_memory(node, capsys):
    created = web_call(node.endpoint, "SatCnf.create", {"initialVariableCount": 0})
    code = main(["encode", "--l", "4", "--product", "15", "--out", created["directUrl"]])
    assert code == 0
    clauses = web_call(
        node.endpoint, "SatCnf.clauses", object_ref=created["objectRef"]
    )["clauses"]
    assert len(clauses) > 0


def test_solve_dimacs_roundtrip(tmp_path, capsys):
    path = tmp_path / "inst.cnf"
    path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "SAT"
    assert out[1].endswith(" 0")

    path.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert main(["solve", str(path)]) == 20
    assert capsys.readouterr().out.splitlines()[0] == "UNSAT"


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/x.cnf"]) == 1


def test_factor_15(node, capsys):
    code = main(["factor", "15", "--l", "4", "--endpoint", node.endpoint])
    assert code == 0
    assert "15 = 5 × 3" in capsys.readouterr().out


def test_factor_prime_unsat(node, capsys):
    code = main(["factor", "23", "--l", "4", "--endpoint", node.endpoint])
    assert code == 20
    assert "UNSAT (no two factors of length 4)" in capsys.readouterr().out


def test_factor_square(node, capsys):
    code = main(["factor", "49", "--l", "4", "--endpoint", node.endpoint])
    assert code == 0
    assert "49 = 7 × 7" in capsys.readouterr().out


def test_factor_endpoint_from_env(node, capsys, monkeypatch):
    monkeypatch.setenv("SATHUB_ENDPOINT", node.endpoint)
    assert main(["factor", "21", "--l", "4"]) == 0
    assert "21 = 7 × 3" in capsys.readouterr().out


def test_factor_no_endpoint(capsys, monkeypatch):
    monkeypatch.delenv("SATHUB_ENDPOINT", raising=False)
    assert main(["factor", "15", "--l", "4"]) == 1
    assert "endpoint" in capsys.readouterr().err


def test_factor_transport_error(capsys, monkeypatch):
    assert main(["factor", "15", "--l", "4", "--endpoint", "http://127.0.0.1:9"]) == 1


def test_factor_releases_memory(node):
    main(["factor", "15", "--l", "4", "--endpoint", node.endpoint])
    # the instance created for the factoring job was deleted afterwards
    assert node.memory._objects == {}


def test_factor_runs_leave_no_memory_for_the_cyclic_collector(node):
    def alive():
        # no closure over the object list: list and cell would form a cycle
        # that keeps every listed object alive while the collector is off
        counts = {"MemoryObject": 0, "CnfStore": 0}
        for o in gc.get_objects():
            if isinstance(o, (MemoryObject, CnfStore)):
                counts[type(o).__name__] += 1
        return counts

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for product in ("15", "21", "35", "23"):
            main(["factor", product, "--l", "4", "--endpoint", node.endpoint])
        deadline = time.monotonic() + 5
        while alive() != before and time.monotonic() < deadline:
            time.sleep(0.05)  # connection threads of deleted memories are ending
        assert alive() == before
    finally:
        gc.enable()


def test_factor_deletes_its_memory_when_no_solver_is_free(hold, capsys):
    lone = ServerNode(workers=1).start()
    worker = lone.workers[0]
    held = CnfStore(2)
    held.add_clause([1, 2])
    busy = threading.Thread(
        target=worker.solve, args=(held,), kwargs={"web_pid": "other", "on_decision": hold},
        daemon=True,
    )
    busy.start()
    try:
        deadline = time.monotonic() + 5
        while worker.state != "BUSY" and time.monotonic() < deadline:
            time.sleep(0.002)
        code = main(["factor", "15", "--l", "4", "--endpoint", lone.endpoint, "--wait", "0"])
        assert code == 1
        assert "error: NONE_AVAILABLE" in capsys.readouterr().err
        assert lone.memory._objects == {}
    finally:
        worker.cancel(web_pid="other")
        busy.join(timeout=5)
        lone.stop()


def test_factor_mirror_failure_is_an_error_and_deletes_the_memory(node, capsys, monkeypatch):
    def refuse(url):
        raise ConnectionRefusedError(f"cannot reach {url}")

    monkeypatch.setattr(cli, "connect", refuse)
    assert main(["factor", "15", "--l", "4", "--endpoint", node.endpoint]) == 1
    assert capsys.readouterr().err.startswith("error: cannot reach tcp://")
    assert node.memory._objects == {}


def test_two_serves_on_one_port_second_fails():
    first = ServerNode(workers=1).start()
    try:
        port = int(first.endpoint.rsplit(":", 1)[1])
        with pytest.raises(OSError):
            ServerNode(workers=1, port=port)
    finally:
        first.stop()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads /proc")
def test_serve_answers_on_its_main_thread_and_exits_0_on_sigint():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a child inherits an ignored SIGINT (a shell's background job has one),
    # and Python then raises no KeyboardInterrupt in it
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "sathub.cli", "serve", "--port", "0", "--workers", "1"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
        )
    finally:
        signal.signal(signal.SIGINT, previous)

    def threads():
        with open(f"/proc/{proc.pid}/status", encoding="ascii") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("Threads:"))

    try:
        assert select.select([proc.stdout], [], [], 30)[0]
        endpoint = proc.stdout.readline().decode().split()[2]
        assert web_call(endpoint, "Kernel.listSolvers", timeout=10)["solvers"]
        deadline = time.monotonic() + 5
        while threads() != 1 and time.monotonic() < deadline:
            time.sleep(0.02)  # the web call's handler thread is ending
        assert threads() == 1
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.fixture
def stub_node():
    """Start an endpoint that answers each web call's method with a fixed
    reply; returns the endpoint and the methods called, in order."""
    servers = []

    def start(replies):
        called = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 (http.server API)
                method = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["method"]
                called.append(method)
                data = json.dumps(replies.get(method, {})).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, fmt, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}", called

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


# 15 = 5 x 3 at l=4: u = 0101, v = 0011, MSB first
MODEL_15 = [False, True, False, True, False, False, True, True]


@pytest.mark.parametrize(
    "replies, deleted",
    [
        ({"SatCnf.create": []}, False),
        ({"SatCnf.create": {}}, False),
        ({"SatCnf.create": {"objectRef": "m", "directUrl": 5}}, True),
        ({"SatCnf.create": {"objectRef": "m", "directUrl": "http://127.0.0.1:1"}}, True),
        ({"Kernel.findAvailable": {"solverId": 5}}, True),
        ({"SatSolver.solve": {"result": "SAT", "model": MODEL_15[:7]}}, True),
        ({"SatSolver.solve": {"result": "SAT", "model": [0, 1, 0, 1, 0, 0, 1, 1]}}, True),
    ],
    ids=["create_list", "create_empty", "direct_url_number", "direct_url_not_tcp",
         "solver_id_number", "short_model", "model_of_integers"],
)
def test_factor_with_a_malformed_reply_is_one_error_line(stub_node, capsys, replies, deleted):
    service = MemoryService()
    try:
        memory = service.create_memory(0)
        endpoint, called = stub_node({
            "SatCnf.create": {"objectRef": "m", "directUrl": memory.direct_url},
            "Kernel.findAvailable": {"solverId": "s"},
            "SatSolver.solve": {"result": "SAT", "model": MODEL_15},
            **replies,
        })
        assert main(["factor", "15", "--l", "4", "--endpoint", endpoint]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert (called[-1] == "SatCnf.delete") == deleted
    finally:
        service.shutdown()

